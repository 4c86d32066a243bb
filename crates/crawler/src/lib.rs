//! The measurement pipeline.
//!
//! The Rust counterpart of the paper's Playwright wrapper (§3.2 /
//! Appendix A.2): it walks the ranked origin list with a pool of parallel
//! crawler workers (the paper used 40), visits each origin once through
//! the simulated browser, classifies failures into the §4 crawl-funnel
//! taxonomy, and stores one record per site in an in-memory dataset
//! and/or a JSONL database — the same shape the paper's pipeline wrote to
//! its database after each site.
//!
//! Because the population, network and browser are all deterministic, a
//! crawl with the same seed and worker count always produces the same
//! dataset (workers only affect wall-clock time, not results).
//!
//! # Example
//!
//! ```
//! use crawler::{CrawlConfig, Crawler};
//! use webgen::{PopulationConfig, WebPopulation};
//!
//! let population = WebPopulation::new(PopulationConfig { seed: 7, size: 50 });
//! let dataset = Crawler::new(CrawlConfig::default()).crawl(&population);
//! assert_eq!(dataset.records.len(), 50);
//! let funnel = dataset.funnel();
//! assert_eq!(funnel.attempted, 50);
//! assert!(funnel.succeeded > 30);
//! ```

/// Coverage instrumentation for the fuzzable bundle-manifest decoder:
/// compiled away unless the `coverage` feature is on.
#[cfg(feature = "coverage")]
macro_rules! cov {
    ($site:expr) => {
        covmap::hit(covmap::CRAWLER_BASE, $site)
    };
}
#[cfg(not(feature = "coverage"))]
macro_rules! cov {
    ($site:expr) => {};
}

mod bundle;
mod colsh;
mod db;
mod follow;
mod funnel;
mod jobs;
mod run;
mod shard;
mod telemetry;

pub use bundle::{
    digest128, is_bundle_store, AttemptRef, BundleMeta, BundleRecorder, BundleStat, ExchangeRef,
    OutcomeRef, ReplayBundle, SiteBundle, SiteManifest, BLOB_MAGIC, BUNDLE_BLOBS_FILE,
    BUNDLE_MANIFESTS_FILE, BUNDLE_META_FILE, BUNDLE_VERSION, MANIFEST_MAGIC,
};
pub use colsh::{
    read_colsh, resume_colsh, write_colsh, ColshAppendState, ColshStream, ColshWriter, ColumnSet,
    COLSH_MAGIC, COLSH_VERSION, DEFAULT_DICT_EPOCH_GROUPS, DEFAULT_GROUP_RECORDS,
};
pub use db::{
    detect_db_format, expand_db_paths, read_jsonl, read_jsonl_lenient, refuse_mixed_bundle_dir,
    resume_jsonl, shard_index, shard_path, write_jsonl, AnyRecordStream, DbFormat, RecordStream,
    ResumeState, SkipReport, StreamMode, SKIP_REPORT_LINES,
};
pub use follow::{ShardFollower, ShardFrontier};
pub use funnel::CrawlFunnel;
pub use jobs::{
    job_resume, job_start, read_status, JobError, JobManifest, JobOptions, JobReport, JobState,
    JobStatus, DEFAULT_LEASE_RECORDS, MANIFEST_FILE, MANIFEST_VERSION, STATUS_FILE,
};
pub use netsim::FaultSpec;
pub use run::{CrawlConfig, CrawlDataset, Crawler, RankSource, SiteOutcome, SiteRecord};
pub use shard::{Prepared, ShardSink};
pub use telemetry::{CrawlTelemetry, TelemetrySnapshot, LATENCY_BOUNDS_MS};
