//! Page-level engine gates: the bytecode VM, which every crawl runs,
//! against the tree-walking reference interpreter, through the whole
//! browser.
//!
//! Every rank of a generated population is visited once on each engine
//! with a fresh clock and the per-visit response cache over the live
//! network, the way a crawl builds a first attempt. The two visits must
//! serialize to the same bytes. The production crawl runs alongside
//! (the engine visits are the streaming pool's `prepare` step), and for
//! every rank it finished in one attempt, the `visit` it recorded must
//! equal them too. Where `difftest::jsdiff` holds the engines to the
//! same trace script by script, this gate holds the browser's use of
//! them to the same bytes: the page-wide step pool, per-script
//! failures, timers, and in interaction mode `fire_event` and inline
//! handlers.
//!
//! A 300-rank sweep of each population runs on every `cargo test`; the
//! full gate (20k seed-7 ranks, 2k adversarial, 2k in interaction mode)
//! is the CI gate `scripts/ci.sh` runs in release.

use std::collections::BTreeSet;
use std::convert::Infallible;

use browser::{Browser, BrowserConfig, DegradationKind, PageVisit, VisitError};
use crawler::{CrawlConfig, CrawlTelemetry, Crawler, RankSource, SiteRecord};
use jsland::{Engine, Interpreter, Vm};
use netsim::{CachingNetwork, SimClock, SimNetwork};
use webgen::{PopulationConfig, WebPopulation};

/// One rank on which the engines, or the VM and the crawl, disagree.
#[derive(Debug, Clone)]
struct EngineDivergence {
    /// The rank that diverged.
    rank: u64,
    /// What disagreed, with both serializations.
    detail: String,
}

impl std::fmt::Display for EngineDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {}: {}", self.rank, self.detail)
    }
}

/// Outcome of one [`compare_engines`] session.
#[derive(Debug, Default)]
struct EngineReport {
    /// Ranks visited on both engines.
    ranks: u64,
    /// Ranks the crawl finished in one attempt, compared against its
    /// recorded visit.
    crawled: u64,
    /// Ranks whose visit records a script that failed to run to the end
    /// (parse or compile error, step budget, exhausted pool).
    script_failures: u64,
    /// Divergences, in rank order. Must be empty.
    divergences: Vec<EngineDivergence>,
}

/// A visit result flattened to a comparable string: the serialized
/// record on success, the structured error otherwise.
fn encode(visit: &Result<PageVisit, VisitError>) -> String {
    match visit {
        Ok(visit) => serde_json::to_string(visit).expect("visit serializes"),
        Err(e) => format!("visit error: {e:?}"),
    }
}

/// One rank's first visit attempt with page scripts on engine `E`.
fn visit_on<E: Engine>(
    population: &WebPopulation,
    rank: u64,
    config: &CrawlConfig,
) -> Result<PageVisit, VisitError> {
    let network = CachingNetwork::new(SimNetwork::new(population), config.cache_capacity);
    let mut browser = Browser::<_, E>::with_engine(network, config.browser.clone());
    browser.visit(&population.origin(rank), &mut SimClock::new())
}

/// Whether a visit records a script that did not run to the end.
fn has_script_failure(visit: &Result<PageVisit, VisitError>) -> bool {
    visit.as_ref().is_ok_and(|visit| {
        visit.degradations.iter().any(|event| {
            matches!(
                event.kind,
                DegradationKind::ScriptParseError
                    | DegradationKind::ScriptCompileError
                    | DegradationKind::ScriptBudgetExceeded
                    | DegradationKind::ScriptPoolExhausted
            )
        })
    })
}

/// Crawls `population` under `config` and visits every rank on both
/// engines, reporting every disagreement.
fn compare_engines(population: &WebPopulation, config: &CrawlConfig) -> EngineReport {
    let prepare = |record: SiteRecord| {
        let vm = visit_on::<Vm>(population, record.rank, config);
        let interp = visit_on::<Interpreter>(population, record.rank, config);
        (
            record,
            has_script_failure(&vm),
            encode(&vm),
            encode(&interp),
        )
    };
    let mut report = EngineReport::default();
    let deliver = |rank: u64, (record, failed, vm, interp): (SiteRecord, bool, String, String)| {
        report.ranks += 1;
        report.script_failures += u64::from(failed);
        if vm != interp {
            report.divergences.push(EngineDivergence {
                rank,
                detail: format!("vm {vm}\ninterp {interp}"),
            });
        }
        if record.attempts == 1 {
            report.crawled += 1;
            let crawled = match &record.visit {
                Some(visit) => serde_json::to_string(visit).expect("visit serializes"),
                None => format!("no visit ({:?})", record.outcome),
            };
            if crawled != vm {
                report.divergences.push(EngineDivergence {
                    rank,
                    detail: format!("crawl {crawled}\nvm {vm}"),
                });
            }
        }
        Ok::<(), Infallible>(())
    };
    let Ok(_) = Crawler::new(config.clone()).stream_prepared(
        RankSource::Live(population),
        &BTreeSet::new(),
        &CrawlTelemetry::new(config.workers),
        &prepare,
        deliver,
    );
    report
}

fn gate(size: u64, adversarial: bool, interaction: bool) {
    let population =
        WebPopulation::new(PopulationConfig { seed: 7, size }).with_adversarial(adversarial);
    let config = CrawlConfig {
        browser: BrowserConfig {
            interaction,
            ..BrowserConfig::default()
        },
        ..CrawlConfig::default()
    };
    let report = compare_engines(&population, &config);
    let label = format!("{size} ranks, adversarial {adversarial}, interaction {interaction}");
    assert_eq!(report.ranks, size, "{label}");
    assert!(
        report.divergences.is_empty(),
        "{label}: {} divergences:\n{}",
        report.divergences.len(),
        report
            .divergences
            .iter()
            .take(3)
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Most ranks succeed first time, so the crawl comparison is not
    // vacuous, and the hostile pages do make scripts fail.
    assert!(report.crawled * 2 > size, "{label}: {report:?}");
    if adversarial {
        assert!(report.script_failures > 0, "{label}: {report:?}");
    }
}

#[test]
fn vm_and_reference_visits_match_each_other_and_the_crawl() {
    gate(300, false, false);
    gate(300, true, false);
    gate(300, false, true);
}

#[test]
#[ignore = "CI-scale; run with --ignored in release"]
fn ci_engine_gate() {
    gate(20_000, false, false);
    gate(2_000, true, false);
    gate(2_000, false, true);
}
