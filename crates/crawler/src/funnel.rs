//! Crawl-funnel accounting (§4's visit-outcome breakdown).

use serde::{Deserialize, Serialize};

/// One record's contribution to a funnel, kept when the record itself
/// is encoded and dropped before it reaches the in-order writer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tally {
    outcome: crate::run::SiteOutcome,
    degraded: bool,
}

impl Tally {
    pub(crate) fn of(record: &crate::run::SiteRecord) -> Tally {
        Tally {
            outcome: record.outcome,
            degraded: record
                .visit
                .as_ref()
                .is_some_and(|v| !v.degradations.is_empty()),
        }
    }
}

/// Counts of visit outcomes across a crawl, mirroring the numbers the
/// paper reports at the top of §4.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrawlFunnel {
    /// Origins the crawler attempted.
    pub attempted: u64,
    /// Successful, complete visits (the paper's 817,800 minus exclusions).
    pub succeeded: u64,
    /// DNS / connection failures ("major errors", 27,733).
    pub unreachable: u64,
    /// Load-event timeouts (28,700).
    pub load_timeouts: u64,
    /// Ephemeral-content collection errors (60,183).
    pub ephemeral: u64,
    /// Crawler crashes / minor errors (315).
    pub crawler_errors: u64,
    /// Visits excluded for page-budget timeouts / incomplete iframes
    /// (the 65,169 exclusions).
    pub excluded: u64,
    /// Visits that produced data but carry degradation events (the §4
    /// "minor errors"). Orthogonal to the six outcome classes above: a
    /// degraded visit still counts in its outcome class.
    #[serde(default)]
    pub minor_errors: u64,
}

impl CrawlFunnel {
    /// Tallies one visit's outcome (does not touch `attempted`, which
    /// counts planned visits, not finished ones).
    pub fn count(&mut self, outcome: crate::run::SiteOutcome) {
        use crate::run::SiteOutcome as O;
        match outcome {
            O::Success => self.succeeded += 1,
            O::Unreachable => self.unreachable += 1,
            O::LoadTimeout => self.load_timeouts += 1,
            O::Ephemeral => self.ephemeral += 1,
            O::CrawlerError => self.crawler_errors += 1,
            O::Excluded => self.excluded += 1,
        }
    }

    /// Tallies one site record: its outcome class, plus the minor-error
    /// count when the visit degraded.
    pub fn count_record(&mut self, record: &crate::run::SiteRecord) {
        self.count_tally(Tally::of(record));
    }

    /// Tallies a record's contribution taken before it was encoded.
    pub(crate) fn count_tally(&mut self, tally: Tally) {
        self.count(tally.outcome);
        if tally.degraded {
            self.minor_errors += 1;
        }
    }

    /// Folds one site record as an attempted visit — the streaming
    /// counterpart of [`crate::CrawlDataset::funnel`].
    pub fn fold(&mut self, record: &crate::run::SiteRecord) {
        self.attempted += 1;
        self.count_record(record);
    }

    /// Merges a funnel folded over another partition of the dataset.
    pub fn merge(&mut self, other: CrawlFunnel) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.unreachable += other.unreachable;
        self.load_timeouts += other.load_timeouts;
        self.ephemeral += other.ephemeral;
        self.crawler_errors += other.crawler_errors;
        self.excluded += other.excluded;
        self.minor_errors += other.minor_errors;
    }

    /// Success rate over attempts.
    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.succeeded as f64 / self.attempted as f64
    }

    /// Share of data-producing visits that were excluded (the paper notes
    /// ~20% excluded relative to total volume is in line with prior work).
    pub fn exclusion_rate(&self) -> f64 {
        let produced = self.succeeded + self.excluded;
        if produced == 0 {
            return 0.0;
        }
        self.excluded as f64 / produced as f64
    }

    /// Renders the funnel like the §4 prose.
    pub fn report(&self) -> String {
        format!(
            "attempted {}: {} succeeded, {} ephemeral-content errors, {} load timeouts, \
             {} unreachable, {} crawler errors, {} excluded (page budget), \
             {} with minor errors (degraded)",
            self.attempted,
            self.succeeded,
            self.ephemeral,
            self.load_timeouts,
            self.unreachable,
            self.crawler_errors,
            self.excluded,
            self.minor_errors
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates() {
        let f = CrawlFunnel {
            attempted: 100,
            succeeded: 80,
            excluded: 20,
            ..CrawlFunnel::default()
        };
        assert!((f.success_rate() - 0.8).abs() < 1e-9);
        assert!((f.exclusion_rate() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn zero_division_safe() {
        let f = CrawlFunnel::default();
        assert_eq!(f.success_rate(), 0.0);
        assert_eq!(f.exclusion_rate(), 0.0);
    }

    #[test]
    fn report_mentions_all_classes() {
        let f = CrawlFunnel {
            attempted: 10,
            succeeded: 5,
            unreachable: 1,
            load_timeouts: 1,
            ephemeral: 1,
            crawler_errors: 1,
            excluded: 1,
            minor_errors: 2,
        };
        let r = f.report();
        for needle in [
            "succeeded",
            "ephemeral",
            "timeouts",
            "unreachable",
            "excluded",
            "minor errors",
        ] {
            assert!(r.contains(needle), "{r}");
        }
    }
}
