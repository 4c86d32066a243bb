//! The crawl loop: work distribution, visiting, classification,
//! fault tolerance.
//!
//! Fault model (mirrors what the paper's §4 crawl funnel absorbed at
//! scale):
//!
//! * **Panic isolation** — every visit attempt runs under
//!   `catch_unwind`; a panicking visit (injected via
//!   [`netsim::FaultSpec`] or a real bug) becomes a
//!   [`SiteOutcome::CrawlerError`] record instead of taking the whole
//!   worker pool down.
//! * **Bounded retries** — transient failures (`Unreachable`,
//!   `LoadTimeout`) are re-attempted up to [`CrawlConfig::max_retries`]
//!   times with exponential backoff *on the simulated clock*, so
//!   retries cost simulated time, never wall-clock sleeps, and results
//!   stay deterministic.
//! * **Checkpoint/resume** — the streaming/range crawls can skip ranks
//!   already persisted by an earlier interrupted run (see
//!   [`crate::resume_jsonl`]); re-crawling the remainder reproduces the
//!   uninterrupted dataset byte for byte.
//! * **Telemetry** — workers update a lock-free [`CrawlTelemetry`]
//!   (outcome counters, latency histogram, retry totals, per-worker
//!   utilization, cache hit rates) that can be polled mid-crawl.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use browser::{Browser, BrowserConfig, PageVisit, VisitError, VisitOutcome};
use netsim::{
    CachingNetwork, FaultSpec, FaultyNetwork, Network, RecordingNetwork, ReplayNetwork, SimClock,
    SimNetwork, TapeHandle,
};
use serde::{Deserialize, Serialize};
use webgen::WebPopulation;

use crate::bundle::{BundleRecorder, ReplayBundle, SiteBundle};
use crate::funnel::{CrawlFunnel, Tally};
use crate::telemetry::CrawlTelemetry;

/// Crawl configuration.
#[derive(Debug, Clone)]
pub struct CrawlConfig {
    /// Parallel crawler workers (the paper used 40).
    pub workers: usize,
    /// Browser configuration for every visit.
    pub browser: BrowserConfig,
    /// Interaction-mode extras: also navigate up to this many same-origin
    /// links per site (0 in the main measurement; Appendix A.3's manual
    /// protocol visits multiple paths).
    pub navigate_links: usize,
    /// Per-visit response-cache capacity (0 = no caching). Browsers cache
    /// shared tracker scripts; the crawl is stateless *across* sites like
    /// the paper's (C11: headful stateless browser), so the cache lives
    /// only within one visit.
    pub cache_capacity: usize,
    /// Re-attempts allowed after a transient failure (`Unreachable` /
    /// `LoadTimeout`). The synthetic population's failures are permanent
    /// per rank, so retries change outcomes only when the network layer
    /// injects transient faults — but every retry is recorded on
    /// [`SiteRecord::attempts`] either way.
    pub max_retries: u32,
    /// Backoff before retry `n` (1-based): `retry_backoff_ms << (n - 1)`
    /// simulated milliseconds, with the shift capped and the result
    /// clamped to one hour so huge `--retries` budgets cannot overflow.
    pub retry_backoff_ms: u64,
    /// Deterministic fault injection (disabled by default). Faults are
    /// keyed by site rank, so they are independent of worker count and
    /// visit order.
    pub faults: FaultSpec,
}

impl Default for CrawlConfig {
    fn default() -> CrawlConfig {
        CrawlConfig {
            workers: 8,
            browser: BrowserConfig::default(),
            navigate_links: 0,
            cache_capacity: 64,
            max_retries: 2,
            retry_backoff_ms: 500,
            faults: FaultSpec::disabled(),
        }
    }
}

/// Final classification of one origin's visit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SiteOutcome {
    /// Complete visit; the record carries data.
    Success,
    /// DNS / connection failure.
    Unreachable,
    /// Load-event timeout.
    LoadTimeout,
    /// Ephemeral-content collection error.
    Ephemeral,
    /// Crawler crash.
    CrawlerError,
    /// Page-budget timeout — data partial, excluded from analysis.
    Excluded,
}

/// One origin's crawl record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteRecord {
    /// Rank in the origin list (1-based).
    pub rank: u64,
    /// The origin visited.
    pub origin: String,
    /// Outcome classification.
    pub outcome: SiteOutcome,
    /// Collected data for successful (and excluded-partial) visits.
    pub visit: Option<PageVisit>,
    /// Simulated milliseconds spent on this origin, including retries
    /// and backoff.
    pub elapsed_ms: u64,
    /// Visit attempts consumed (1 = no retries). 0 in records written
    /// before attempt tracking existed.
    #[serde(default)]
    pub attempts: u32,
}

/// A completed crawl.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CrawlDataset {
    /// One record per attempted origin, rank order.
    pub records: Vec<SiteRecord>,
}

impl CrawlDataset {
    /// Funnel accounting over the records.
    pub fn funnel(&self) -> CrawlFunnel {
        let mut funnel = CrawlFunnel {
            attempted: self.records.len() as u64,
            ..CrawlFunnel::default()
        };
        for record in &self.records {
            funnel.count_record(record);
        }
        funnel
    }

    /// Successful visits only (the analysis population).
    pub fn successes(&self) -> impl Iterator<Item = &SiteRecord> {
        self.records
            .iter()
            .filter(|r| r.outcome == SiteOutcome::Success)
    }

    /// Total simulated crawl time across all origins (single-worker
    /// equivalent), in milliseconds.
    pub fn total_simulated_ms(&self) -> u64 {
        self.records.iter().map(|r| r.elapsed_ms).sum()
    }
}

/// What one isolated visit attempt produced.
struct AttemptOutcome {
    outcome: SiteOutcome,
    visit: Option<PageVisit>,
    cache_hits: u64,
    cache_misses: u64,
    panicked: bool,
}

/// Where a streamed crawl's records come from.
#[derive(Clone, Copy)]
pub enum RankSource<'a> {
    /// Visit the live population.
    Live(&'a WebPopulation),
    /// Replay a loaded bundle store; the generator is never invoked.
    Replay(&'a ReplayBundle),
}

/// The crawler.
pub struct Crawler {
    config: CrawlConfig,
    /// When set, every visit's network exchanges are captured into this
    /// bundle store (see [`crate::bundle`]).
    recorder: Option<Arc<BundleRecorder>>,
}

impl Crawler {
    /// Creates a crawler.
    pub fn new(config: CrawlConfig) -> Crawler {
        Crawler {
            config,
            recorder: None,
        }
    }

    /// Records every visit's network exchanges into `recorder`'s bundle
    /// store while crawling normally.
    pub fn with_recorder(mut self, recorder: Arc<BundleRecorder>) -> Crawler {
        self.recorder = Some(recorder);
        self
    }

    /// The attached bundle recorder, if any.
    pub fn recorder(&self) -> Option<&Arc<BundleRecorder>> {
        self.recorder.as_ref()
    }

    /// Visits one origin and classifies the result, retrying transient
    /// failures per the config.
    pub fn visit_one(&self, population: &WebPopulation, rank: u64) -> SiteRecord {
        self.visit_observed(population, rank, None)
    }

    /// [`visit_one`](Crawler::visit_one), reporting to `telemetry` as
    /// worker `worker` when given. Shared with the job engine
    /// ([`crate::jobs`]), whose lease workers drive it directly.
    pub(crate) fn visit_observed(
        &self,
        population: &WebPopulation,
        rank: u64,
        telemetry: Option<(&CrawlTelemetry, usize)>,
    ) -> SiteRecord {
        let origin = population.origin(rank);
        let faulty = |attempt: u32| {
            FaultyNetwork::new(
                SimNetwork::new(population),
                &self.config.faults,
                rank,
                attempt,
            )
        };
        if let Some(recorder) = &self.recorder {
            // Tape handles are created out here, outside the attempt's
            // panic isolation, so exchanges recorded before an injected
            // crash survive the unwind.
            let mut handles: Vec<TapeHandle> = Vec::new();
            let record = self.visit_loop(rank, &origin, telemetry, |attempt| {
                let handle = TapeHandle::new();
                handles.push(handle.clone());
                RecordingNetwork::new(faulty(attempt), handle)
            });
            let bundle = SiteBundle {
                rank,
                origin: origin.to_string(),
                synthesized: false,
                attempts: handles.iter().map(TapeHandle::take).collect(),
            };
            if let Err(e) = recorder.submit(bundle) {
                panic!("bundle store write failed for rank {rank}: {e}");
            }
            record
        } else {
            self.visit_loop(rank, &origin, telemetry, faulty)
        }
    }

    /// Replays one recorded origin: the same retry loop and
    /// classification as [`visit_one`](Crawler::visit_one), but every
    /// attempt's network is served from the bundle's tapes — the page
    /// generator is never consulted.
    pub fn replay_one(&self, bundle: &ReplayBundle, rank: u64) -> SiteRecord {
        self.replay_observed(bundle, rank, None)
    }

    /// [`replay_one`](Crawler::replay_one) with telemetry reporting.
    pub(crate) fn replay_observed(
        &self,
        bundle: &ReplayBundle,
        rank: u64,
        telemetry: Option<(&CrawlTelemetry, usize)>,
    ) -> SiteRecord {
        let Some(manifest) = bundle.manifest(rank) else {
            panic!("replay divergence: the bundle store has no manifest for rank {rank}");
        };
        if manifest.synthesized {
            // The recording job quarantined this rank without visiting:
            // reproduce the synthesized record it wrote.
            let record = SiteRecord {
                rank,
                origin: manifest.origin,
                outcome: SiteOutcome::CrawlerError,
                visit: None,
                elapsed_ms: 0,
                attempts: 0,
            };
            if let Some((telemetry, worker)) = telemetry {
                telemetry.record_visit(worker, record.outcome, 0, 0);
            }
            return record;
        }
        let origin = weburl::Url::parse(&manifest.origin)
            .unwrap_or_else(|e| panic!("recorded origin {:?} unparseable: {e:?}", manifest.origin));
        let mut tapes = bundle.tapes(manifest).into_iter();
        self.visit_loop(rank, &origin, telemetry, |attempt| {
            ReplayNetwork::new(tapes.next().unwrap_or_else(|| {
                panic!("replay divergence: rank {rank} has no recorded attempt {attempt}")
            }))
        })
    }

    /// The shared retry loop: attempts visits over networks produced by
    /// `network_for` (live, recording, or replay) until the outcome is
    /// final, then classifies and reports.
    fn visit_loop<N: Network>(
        &self,
        rank: u64,
        origin: &weburl::Url,
        telemetry: Option<(&CrawlTelemetry, usize)>,
        mut network_for: impl FnMut(u32) -> N,
    ) -> SiteRecord {
        let mut clock = SimClock::new();
        let mut attempts: u32 = 0;
        let outcome = loop {
            let network = network_for(attempts);
            let attempt = self.drive_attempt(network, origin, &mut clock);
            attempts += 1;
            if let Some((telemetry, _)) = telemetry {
                telemetry.record_cache(attempt.cache_hits, attempt.cache_misses);
                if attempt.panicked {
                    telemetry.record_panic_caught();
                }
            }
            let transient = matches!(
                attempt.outcome,
                SiteOutcome::Unreachable | SiteOutcome::LoadTimeout
            );
            if transient && attempts <= self.config.max_retries {
                // Exponential backoff, paid in simulated time; the
                // shared schedule caps the user-controlled exponent and
                // clamps the advance (see `netsim::capped_backoff_ms`).
                clock.advance(netsim::capped_backoff_ms(
                    self.config.retry_backoff_ms,
                    attempts,
                ));
                continue;
            }
            break attempt;
        };
        let record = SiteRecord {
            rank,
            origin: origin.to_string(),
            outcome: outcome.outcome,
            visit: outcome.visit,
            elapsed_ms: clock.now_ms(),
            attempts,
        };
        if let Some((telemetry, worker)) = telemetry {
            telemetry.record_visit(worker, record.outcome, record.elapsed_ms, attempts);
            if let Some(visit) = &record.visit {
                if !visit.degradations.is_empty() {
                    telemetry.record_degradations(visit.degradations.len() as u64);
                }
            }
        }
        record
    }

    /// Runs one visit attempt in panic isolation: a panicking visit
    /// (injected fault or real bug) classifies as `CrawlerError` instead
    /// of unwinding into the worker pool. The response cache is layered
    /// on here so recording networks sit beneath it (tapes hold cache
    /// misses only) and replay rebuilds identical hit/miss accounting.
    fn drive_attempt<N: Network>(
        &self,
        inner: N,
        origin: &weburl::Url,
        clock: &mut SimClock,
    ) -> AttemptOutcome {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let network = CachingNetwork::new(inner, self.config.cache_capacity);
            let mut browser = Browser::new(network, self.config.browser.clone());
            let (outcome, visit) = match browser.visit(origin, clock) {
                Ok(mut visit) => {
                    // Interaction-mode navigation: follow same-origin links
                    // and merge their frames (Appendix A.3 manual protocol).
                    if self.config.navigate_links > 0 {
                        let base = visit.top_frame().and_then(|top| top.url.clone());
                        debug_assert!(
                            !matches!(base.as_deref(), Some("")),
                            "top frame carries an empty URL"
                        );
                        // A frame-less or URL-less page has nothing to
                        // navigate relative to; skip rather than fabricate
                        // links from an empty base.
                        if let Some(base) = base.filter(|b| !b.is_empty()) {
                            for link in html_links(&base, self.config.navigate_links) {
                                if let Ok(link_url) = weburl::Url::parse(&link) {
                                    if let Ok(extra) = browser.visit(&link_url, clock) {
                                        merge_visits(&mut visit, extra);
                                    }
                                }
                            }
                        }
                    }
                    let outcome = match visit.outcome {
                        VisitOutcome::Success => SiteOutcome::Success,
                        VisitOutcome::EphemeralContext => SiteOutcome::Ephemeral,
                        VisitOutcome::CrawlerCrash => SiteOutcome::CrawlerError,
                        VisitOutcome::PageTimeout => SiteOutcome::Excluded,
                    };
                    (outcome, Some(visit))
                }
                Err(VisitError::Unreachable) => (SiteOutcome::Unreachable, None),
                Err(VisitError::LoadTimeout) => (SiteOutcome::LoadTimeout, None),
            };
            let network = browser.into_network();
            AttemptOutcome {
                outcome,
                visit,
                cache_hits: network.hits(),
                cache_misses: network.misses(),
                panicked: false,
            }
        }));
        result.unwrap_or(AttemptOutcome {
            outcome: SiteOutcome::CrawlerError,
            visit: None,
            cache_hits: 0,
            cache_misses: 0,
            panicked: true,
        })
    }

    /// Crawls the whole population with the configured worker pool.
    pub fn crawl(&self, population: &WebPopulation) -> CrawlDataset {
        self.crawl_range(population, 1, population.config().size)
    }

    /// Crawls the population, invoking `sink` for every completed record
    /// in rank order as soon as it (and all earlier ranks) finished —
    /// the paper's C14 requirement: data is persisted per site, not at
    /// the end of the run.
    pub fn crawl_streaming<F>(&self, population: &WebPopulation, sink: F) -> CrawlFunnel
    where
        F: FnMut(SiteRecord) + Send,
    {
        let telemetry = CrawlTelemetry::new(self.config.workers);
        self.crawl_streaming_observed(population, &BTreeSet::new(), &telemetry, sink)
    }

    /// [`crawl_streaming`](Crawler::crawl_streaming) with resume and
    /// observability: ranks in `completed` (persisted by an earlier,
    /// interrupted run) are skipped — never re-visited, never passed to
    /// `sink` — and workers report to `telemetry`. The returned funnel
    /// covers only the ranks visited by *this* run.
    pub fn crawl_streaming_observed<F>(
        &self,
        population: &WebPopulation,
        completed: &BTreeSet<u64>,
        telemetry: &CrawlTelemetry,
        mut sink: F,
    ) -> CrawlFunnel
    where
        F: FnMut(SiteRecord) + Send,
    {
        let source = RankSource::Live(population);
        self.stream_prepared(
            source,
            completed,
            telemetry,
            &|record| record,
            |_, record| sink(record),
        )
    }

    /// Streams a recorded crawl back out of a bundle store: the same
    /// worker pool, in-order delivery, and resume semantics as
    /// [`crawl_streaming_observed`](Crawler::crawl_streaming_observed),
    /// with every record replayed from tape instead of generated.
    pub fn replay_streaming_observed<F>(
        &self,
        bundle: &ReplayBundle,
        completed: &BTreeSet<u64>,
        telemetry: &CrawlTelemetry,
        mut sink: F,
    ) -> CrawlFunnel
    where
        F: FnMut(SiteRecord) + Send,
    {
        let source = RankSource::Replay(bundle);
        self.stream_prepared(
            source,
            completed,
            telemetry,
            &|record| record,
            |_, record| sink(record),
        )
    }

    /// The streaming pool behind every streamed crawl: visits the ranks
    /// of `source` not in `completed` and hands `deliver` each rank's
    /// prepared record in rank order.
    ///
    /// The worker that visited a rank runs `prepare` on its record (for
    /// a shard, [`crate::Prepared::new`] encodes it) before the in-order
    /// drain. The drain is one mutex over the reorder buffer, the rank
    /// cursor and `deliver`, so `deliver` should only append what was
    /// prepared.
    pub fn stream_prepared<T, D>(
        &self,
        source: RankSource<'_>,
        completed: &BTreeSet<u64>,
        telemetry: &CrawlTelemetry,
        prepare: &(dyn Fn(SiteRecord) -> T + Sync),
        deliver: D,
    ) -> CrawlFunnel
    where
        T: Send,
        D: FnMut(u64, T) + Send,
    {
        match source {
            RankSource::Live(population) => self.stream_observed(
                population.config().size,
                completed,
                prepare,
                deliver,
                &|rank, worker| self.visit_observed(population, rank, Some((telemetry, worker))),
            ),
            RankSource::Replay(bundle) => self.stream_observed(
                bundle.sites(),
                completed,
                prepare,
                deliver,
                &|rank, worker| self.replay_observed(bundle, rank, Some((telemetry, worker))),
            ),
        }
    }

    /// The shared streaming pool: visits ranks `1..=to` via `visit`,
    /// delivering prepared records in rank order.
    fn stream_observed<T, D>(
        &self,
        to: u64,
        completed: &BTreeSet<u64>,
        prepare: &(dyn Fn(SiteRecord) -> T + Sync),
        deliver: D,
        visit: &(dyn Fn(u64, usize) -> SiteRecord + Sync),
    ) -> CrawlFunnel
    where
        T: Send,
        D: FnMut(u64, T) + Send,
    {
        /// The in-order drain: everything the delivery lock covers.
        struct Drain<T, D> {
            /// Prepared records waiting for the cursor.
            pending: BTreeMap<u64, (Tally, T)>,
            /// Next rank to deliver.
            cursor: u64,
            funnel: CrawlFunnel,
            deliver: D,
        }

        let workers = self.config.workers.max(1);
        let next_rank = AtomicU64::new(1);
        let drain = Mutex::new(Drain {
            pending: BTreeMap::new(),
            cursor: 1,
            funnel: CrawlFunnel {
                attempted: (1..=to).filter(|r| !completed.contains(r)).count() as u64,
                ..CrawlFunnel::default()
            },
            deliver,
        });

        std::thread::scope(|scope| {
            let next_rank = &next_rank;
            let drain = &drain;
            for worker in 0..workers {
                scope.spawn(move || loop {
                    let rank = next_rank.fetch_add(1, Ordering::Relaxed);
                    if rank > to {
                        break;
                    }
                    if completed.contains(&rank) {
                        continue;
                    }
                    let record = visit(rank, worker);
                    let tally = Tally::of(&record);
                    let prepared = prepare(record);
                    let mut guard = drain.lock().expect("drain lock");
                    let drain = &mut *guard;
                    drain.pending.insert(rank, (tally, prepared));
                    // Deliver the in-order prefix (checkpointed ranks
                    // count as already delivered).
                    while drain.cursor <= to {
                        let cursor = drain.cursor;
                        if completed.contains(&cursor) {
                            drain.cursor += 1;
                            continue;
                        }
                        let Some((tally, prepared)) = drain.pending.remove(&cursor) else {
                            break;
                        };
                        drain.funnel.count_tally(tally);
                        (drain.deliver)(cursor, prepared);
                        drain.cursor += 1;
                    }
                });
            }
        });
        drain.into_inner().expect("drain lock").funnel
    }

    /// Crawls ranks `from..=to` (1-based, inclusive).
    pub fn crawl_range(&self, population: &WebPopulation, from: u64, to: u64) -> CrawlDataset {
        let telemetry = CrawlTelemetry::new(self.config.workers);
        self.crawl_range_observed(population, from, to, &BTreeSet::new(), &telemetry)
    }

    /// [`crawl_range`](Crawler::crawl_range) with resume and
    /// observability: ranks in `skip` are omitted from the visit plan
    /// and from the returned dataset (which stays in rank order).
    pub fn crawl_range_observed(
        &self,
        population: &WebPopulation,
        from: u64,
        to: u64,
        skip: &BTreeSet<u64>,
        telemetry: &CrawlTelemetry,
    ) -> CrawlDataset {
        let workers = self.config.workers.max(1);
        let ranks: Vec<u64> = (from..=to).filter(|r| !skip.contains(r)).collect();
        let mut records: Vec<Option<SiteRecord>> = Vec::new();
        records.resize_with(ranks.len(), || None);
        let results = Mutex::new(records);
        let next = AtomicUsize::new(0);

        std::thread::scope(|scope| {
            let ranks = &ranks;
            let results = &results;
            let next = &next;
            for worker in 0..workers {
                scope.spawn(move || loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&rank) = ranks.get(idx) else {
                        break;
                    };
                    let record = self.visit_observed(population, rank, Some((telemetry, worker)));
                    results.lock().expect("results lock")[idx] = Some(record);
                });
            }
        });

        CrawlDataset {
            records: results
                .into_inner()
                .expect("results lock")
                .into_iter()
                .map(|r| r.expect("every rank visited"))
                .collect(),
        }
    }
}

/// Same-origin inner links the interaction crawl follows. The synthetic
/// sites expose `/about` and `/contact`.
fn html_links(base: &str, max: usize) -> Vec<String> {
    let base = base.trim_end_matches('/');
    ["/about", "/contact"]
        .iter()
        .take(max)
        .map(|p| format!("{base}{p}"))
        .collect()
}

/// Merges an extra page visit's frames into the main visit (interaction
/// mode aggregates per-site observations across paths).
///
/// The merged document must not introduce a second top-level frame —
/// and a non-top frame must keep a parent ("no parent ⇒ top-level" is a
/// dataset invariant) — so the extra page's top frame is reparented
/// under the main visit's top frame, and depths are recomputed along
/// the (already-merged) parent chain.
fn merge_visits(main: &mut PageVisit, extra: PageVisit) {
    let offset = main.frames.len();
    let mut main_top = main
        .frames
        .iter()
        .find(|f| f.is_top_level)
        .map(|f| f.frame_id);
    for mut prompt in extra.prompts {
        prompt.frame_id += offset;
        main.prompts.push(prompt);
    }
    for mut frame in extra.frames {
        frame.frame_id += offset;
        frame.parent = frame.parent.map(|p| p + offset);
        if frame.is_top_level {
            match main_top {
                // Only the original landing page is the site's top-level
                // document; the navigated page hangs off it like a child.
                Some(top) => {
                    frame.is_top_level = false;
                    frame.parent = Some(top);
                }
                // The main visit never produced a top-level frame (e.g.
                // its page timed out before one was recorded). Demoting
                // this frame would leave it parentless yet non-top,
                // breaking the "no parent ⇒ top-level" invariant — so
                // it becomes the merged document's top frame instead.
                None => main_top = Some(frame.frame_id),
            }
        }
        // Parents precede children (parent id < frame id), so the
        // parent's recomputed depth is already in place.
        frame.depth = match frame.parent {
            Some(parent) => main.frames[parent].depth + 1,
            None => 0,
        };
        main.frames.push(frame);
    }
    for mut event in extra.degradations {
        event.frame_id += offset;
        main.degradations.push(event);
    }
    main.schema_version = if main.degradations.is_empty() {
        0
    } else {
        browser::SCHEMA_VERSION
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use webgen::PopulationConfig;

    fn small_population() -> WebPopulation {
        WebPopulation::new(PopulationConfig { seed: 7, size: 120 })
    }

    #[test]
    fn crawl_visits_every_rank_once() {
        let pop = small_population();
        let dataset = Crawler::new(CrawlConfig::default()).crawl(&pop);
        assert_eq!(dataset.records.len(), 120);
        for (i, r) in dataset.records.iter().enumerate() {
            assert_eq!(r.rank, i as u64 + 1);
            assert!(r.attempts >= 1, "rank {} records its attempts", r.rank);
        }
    }

    #[test]
    fn parallel_and_serial_crawls_agree() {
        let pop = small_population();
        let serial = Crawler::new(CrawlConfig {
            workers: 1,
            ..CrawlConfig::default()
        })
        .crawl(&pop);
        let parallel = Crawler::new(CrawlConfig {
            workers: 6,
            ..CrawlConfig::default()
        })
        .crawl(&pop);
        for (a, b) in serial.records.iter().zip(&parallel.records) {
            assert_eq!(a.outcome, b.outcome, "rank {}", a.rank);
            assert_eq!(
                a.visit.as_ref().map(|v| v.frames.len()),
                b.visit.as_ref().map(|v| v.frames.len()),
                "rank {}",
                a.rank
            );
        }
    }

    #[test]
    fn funnel_covers_all_outcomes() {
        let pop = WebPopulation::new(PopulationConfig { seed: 7, size: 800 });
        let dataset = Crawler::new(CrawlConfig::default()).crawl(&pop);
        let funnel = dataset.funnel();
        assert_eq!(funnel.attempted, 800);
        let sum = funnel.succeeded
            + funnel.unreachable
            + funnel.load_timeouts
            + funnel.ephemeral
            + funnel.crawler_errors
            + funnel.excluded;
        assert_eq!(sum, 800);
        // Shape: successes dominate; every major failure class present.
        assert!(funnel.success_rate() > 0.7, "{}", funnel.report());
        assert!(funnel.unreachable > 0);
        assert!(funnel.ephemeral > funnel.unreachable / 4);
    }

    #[test]
    fn interaction_mode_collects_more() {
        let pop = small_population();
        // Find a healthy rank.
        let plain = Crawler::new(CrawlConfig::default());
        let rank = (1..=120u64)
            .find(|&r| plain.visit_one(&pop, r).outcome == SiteOutcome::Success)
            .unwrap();
        let without = plain.visit_one(&pop, rank);
        let with = Crawler::new(CrawlConfig {
            navigate_links: 2,
            browser: BrowserConfig {
                interaction: true,
                ..BrowserConfig::default()
            },
            ..CrawlConfig::default()
        })
        .visit_one(&pop, rank);
        let frames = |r: &SiteRecord| r.visit.as_ref().unwrap().frames.len();
        assert!(frames(&with) >= frames(&without));
    }

    #[test]
    fn average_visit_time_is_realistic() {
        // §4: ~35 simulated seconds per website (load + 20 s settle).
        let pop = small_population();
        let dataset = Crawler::new(CrawlConfig::default()).crawl(&pop);
        let succeeded: Vec<_> = dataset.successes().collect();
        let avg_ms =
            succeeded.iter().map(|r| r.elapsed_ms).sum::<u64>() / succeeded.len().max(1) as u64;
        assert!(
            (20_000..60_000).contains(&avg_ms),
            "avg visit time {avg_ms} ms"
        );
    }

    #[test]
    fn retries_are_bounded_and_recorded() {
        let pop = small_population();
        let crawler = Crawler::new(CrawlConfig::default());
        let dataset = crawler.crawl(&pop);
        for record in &dataset.records {
            match record.outcome {
                // Permanent transient-class failures burn the full budget.
                SiteOutcome::Unreachable | SiteOutcome::LoadTimeout => {
                    assert_eq!(record.attempts, 1 + CrawlConfig::default().max_retries)
                }
                _ => assert_eq!(record.attempts, 1, "rank {}", record.rank),
            }
        }
    }

    #[test]
    fn huge_retry_budget_does_not_overflow_backoff() {
        // --retries is user-settable; 64 retries means backoff shifts up
        // to 63, which used to overflow `retry_backoff_ms << (n - 1)`
        // (panic in debug, wrap in release). The crawl must complete with
        // the full attempt count and a sane, clamped elapsed time.
        let pop = small_population();
        let probe = Crawler::new(CrawlConfig::default());
        let rank = (1..=120u64)
            .find(|&r| probe.visit_one(&pop, r).outcome == SiteOutcome::Unreachable)
            .expect("population contains an unreachable rank");
        let record = Crawler::new(CrawlConfig {
            max_retries: 64,
            ..CrawlConfig::default()
        })
        .visit_one(&pop, rank);
        assert_eq!(record.outcome, SiteOutcome::Unreachable);
        assert_eq!(record.attempts, 65);
        // Every backoff is clamped to MAX_BACKOFF_MS, so the total can't
        // have wrapped into nonsense.
        assert!(
            record.elapsed_ms <= 65 * netsim::MAX_BACKOFF_MS,
            "{}",
            record.elapsed_ms
        );
    }

    #[test]
    fn merge_onto_topless_visit_keeps_invariants() {
        fn frame(frame_id: usize, parent: Option<usize>, top: bool) -> browser::FrameRecord {
            browser::FrameRecord {
                frame_id,
                parent,
                depth: if top { 0 } else { 1 },
                url: Some(format!("https://example.test/{frame_id}")),
                origin: "https://example.test".to_string(),
                site: Some("example.test".to_string()),
                is_top_level: top,
                is_local_document: false,
                iframe_attrs: None,
                permissions_policy_header: None,
                feature_policy_header: None,
                csp_header: None,
                invocations: Vec::new(),
                scripts: Vec::new(),
                allowed_features: Vec::new(),
            }
        }
        fn visit(frames: Vec<browser::FrameRecord>) -> PageVisit {
            PageVisit {
                requested_url: "https://example.test/".to_string(),
                frames,
                prompts: Vec::new(),
                outcome: VisitOutcome::Success,
                elapsed_ms: 0,
                schema_version: 0,
                degradations: Vec::new(),
            }
        }
        // A main visit that never recorded a top-level frame (e.g. the
        // page timed out before one landed). Merging used to demote the
        // extra page's top frame to parent=None + is_top_level=false.
        let mut main = visit(Vec::new());
        merge_visits(
            &mut main,
            visit(vec![frame(0, None, true), frame(1, Some(0), false)]),
        );
        // A second merge must reparent under the newly promoted top.
        merge_visits(&mut main, visit(vec![frame(0, None, true)]));
        let tops = main.frames.iter().filter(|f| f.is_top_level).count();
        assert_eq!(tops, 1, "exactly one top-level frame after merges");
        for frame in &main.frames {
            match frame.parent {
                Some(parent) => {
                    assert!(parent < frame.frame_id);
                    assert_eq!(frame.depth, main.frames[parent].depth + 1);
                }
                None => {
                    assert!(frame.is_top_level, "no parent ⇒ top-level");
                    assert_eq!(frame.depth, 0);
                }
            }
        }
    }

    #[test]
    fn merged_visits_keep_frame_invariants() {
        let pop = small_population();
        let crawler = Crawler::new(CrawlConfig {
            navigate_links: 2,
            ..CrawlConfig::default()
        });
        let mut checked = 0;
        for rank in 1..=40u64 {
            let record = crawler.visit_one(&pop, rank);
            let Some(visit) = record.visit else { continue };
            let tops = visit.frames.iter().filter(|f| f.is_top_level).count();
            assert_eq!(tops, 1, "rank {rank}: exactly one top-level frame");
            for frame in &visit.frames {
                match frame.parent {
                    Some(parent) => {
                        assert!(parent < frame.frame_id, "rank {rank}");
                        assert_eq!(frame.depth, visit.frames[parent].depth + 1, "rank {rank}");
                    }
                    None => {
                        assert!(frame.is_top_level, "rank {rank}: no parent ⇒ top-level");
                        assert_eq!(frame.depth, 0, "rank {rank}");
                    }
                }
            }
            checked += 1;
        }
        assert!(checked > 0, "at least one visit with data");
    }
}

#[cfg(test)]
mod streaming_tests {
    use super::*;
    use webgen::PopulationConfig;

    #[test]
    fn streaming_delivers_in_rank_order_and_matches_batch() {
        let pop = WebPopulation::new(PopulationConfig { seed: 7, size: 90 });
        let crawler = Crawler::new(CrawlConfig {
            workers: 4,
            ..CrawlConfig::default()
        });
        let mut streamed: Vec<SiteRecord> = Vec::new();
        let funnel = crawler.crawl_streaming(&pop, |record| streamed.push(record));
        assert_eq!(streamed.len(), 90);
        for (i, r) in streamed.iter().enumerate() {
            assert_eq!(r.rank, i as u64 + 1, "in-order delivery");
        }
        let batch = crawler.crawl(&pop);
        assert_eq!(funnel, batch.funnel());
        for (a, b) in streamed.iter().zip(&batch.records) {
            assert_eq!(a.outcome, b.outcome);
        }
    }

    #[test]
    fn streaming_skips_completed_ranks() {
        let pop = WebPopulation::new(PopulationConfig { seed: 7, size: 40 });
        let crawler = Crawler::new(CrawlConfig {
            workers: 3,
            ..CrawlConfig::default()
        });
        let completed: BTreeSet<u64> = (1..=25).collect();
        let telemetry = CrawlTelemetry::new(3);
        let mut streamed: Vec<u64> = Vec::new();
        let funnel = crawler.crawl_streaming_observed(&pop, &completed, &telemetry, |record| {
            streamed.push(record.rank)
        });
        assert_eq!(streamed, (26..=40).collect::<Vec<u64>>());
        assert_eq!(funnel.attempted, 15);
        assert_eq!(telemetry.completed(), 15);
    }
}
