//! The resumable crawl job engine.
//!
//! Everything before this module ran a crawl as one batch CLI
//! invocation; a 1M-origin measurement (the paper's real substrate)
//! needs a *job*: a crawl that survives kills, reports its health, and
//! never holds more than a bounded window of work in memory. The
//! engine layers four pieces over the existing [`Crawler`] /
//! [`CrawlTelemetry`] / shard-writer machinery:
//!
//! * **A persistent work queue.** A job directory holds a write-once
//!   [`JobManifest`] (every parameter that determines the dataset
//!   bytes, checksummed, written atomically via temp-file rename) and
//!   the rank-striped shard files themselves. Progress is *derived*,
//!   never separately journaled: because records are persisted in rank
//!   order, each shard's completed ranks are always a prefix of its
//!   stripe, so a killed process recomputes exactly which ranks remain
//!   from per-shard high-water marks measured by the existing
//!   JSONL/.colsh resume machinery ([`crate::resume_jsonl`] /
//!   [`crate::resume_colsh`]). There is no checkpoint file to corrupt.
//! * **Leases with bounded in-flight work.** Remaining ranks are
//!   chopped into contiguous lease batches; workers pull leases from a
//!   shared queue and push finished records into a *bounded* channel.
//!   When the shard writer stalls, workers block on the channel instead
//!   of buffering records — backpressure keeps RSS flat no matter how
//!   large the population is. The writer reorders arrivals into global
//!   rank order before appending, and failed leases are re-queued at
//!   the *front* so the rank cursor unstalls quickly and the reorder
//!   buffer stays bounded by `workers × lease_records + channel`.
//! * **Supervision.** A lease that panics outside the per-visit
//!   isolation (or is made to, by the deterministic chaos hooks) is
//!   retried with the shared capped sim-clock backoff schedule
//!   ([`netsim::capped_backoff_ms`]); after
//!   [`JobOptions::max_lease_failures`] failures it is quarantined —
//!   its unvisited ranks are recorded as structured
//!   [`SiteOutcome::CrawlerError`] records, so a poison lease can cost
//!   data quality but never a lost rank. A stop file (or the test stop
//!   hook) triggers graceful shutdown: workers finish or wind down
//!   their current lease, the writer drains, sinks checkpoint at a
//!   clean boundary, and the run exits reporting [`JobState::Stopped`].
//! * **A health surface.** The writer periodically rewrites
//!   `status.json` (atomic temp-file rename): outcome counters,
//!   per-worker throughput, lease-queue depth, writer reorder-buffer
//!   depth and peak, sustained records/sec and ETA — all derived from
//!   [`TelemetrySnapshot`] with the zero-division guards that type
//!   provides.
//!
//! Crash-safety contract, enforced by the chaos harness in
//! `tests/job_engine.rs` and the ci.sh crash gate: for *any* byte
//! prefix of any shard file (a kill tears JSONL lines, `.colsh` row
//! groups and block headers alike), resuming the job reproduces the
//! uninterrupted shard files byte for byte.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};
use webgen::{PopulationConfig, WebPopulation};

use crate::bundle::{BundleMeta, BundleRecorder, SiteBundle};
use crate::colsh::crc32;
use crate::db::{shard_index, shard_path, DbFormat, StreamMode};
use crate::funnel::{CrawlFunnel, Tally};
use crate::run::{CrawlConfig, Crawler, SiteOutcome, SiteRecord};
use crate::shard::{Prepared, ShardSink};
use crate::telemetry::{CrawlTelemetry, TelemetrySnapshot};

/// Manifest schema version.
pub const MANIFEST_VERSION: u32 = 1;

/// The job manifest's file name inside a job directory.
pub const MANIFEST_FILE: &str = "job.json";

/// The health surface's file name inside a job directory.
pub const STATUS_FILE: &str = "status.json";

/// Default ranks per lease batch.
pub const DEFAULT_LEASE_RECORDS: u64 = 256;

/// Everything that determines a job's dataset bytes, persisted once at
/// `crawl-job start` as `job.json` (JSON line + `crc32:` trailer,
/// written via temp-file rename so a kill can never leave a torn
/// manifest behind — only a stale temp file, which resume ignores).
///
/// Deliberately absent: worker count, lease size, channel capacity and
/// every other knob that affects only wall-clock — those live in
/// [`JobOptions`] and may change freely between resumes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobManifest {
    /// Manifest schema version ([`MANIFEST_VERSION`]).
    pub version: u32,
    /// Population seed.
    pub seed: u64,
    /// Population size (ranks 1..=size).
    pub size: u64,
    /// Rank-striped output shards.
    pub shards: usize,
    /// On-disk shard format.
    pub format: DbFormat,
    /// Hostile-site mode (see [`webgen::adversarial`]).
    pub adversarial: bool,
    /// Per-visit transient-failure retry budget.
    pub max_retries: u32,
    /// Base of the shared capped backoff schedule, simulated ms.
    pub retry_backoff_ms: u64,
    /// Injected visit-panic rate, per mille (deterministic, rank-keyed).
    pub fault_panics_per_mille: u32,
    /// Injected transient-failure rate, per mille.
    pub fault_transients_per_mille: u32,
    /// Script engine the job's browsers run. Both engines produce
    /// byte-identical datasets (ci.sh gates on it), so this is a speed
    /// knob that still lives in the manifest for provenance. Defaults
    /// (also for pre-field manifests) to the VM.
    #[serde(default)]
    pub js_engine: browser::ExecEngine,
    /// Record every network exchange into a content-addressed bundle
    /// store (`bundle/` inside the job directory) alongside the
    /// dataset, so the whole crawl can later be replayed byte-for-byte
    /// with the generator never invoked. Affects the bundle store's
    /// bytes, never the dataset's. Defaults (also for pre-field
    /// manifests) to off.
    #[serde(default)]
    pub record_bundle: bool,
}

impl JobManifest {
    /// A manifest for a plain (fault-free, non-adversarial) crawl of
    /// `size` origins with `shards` shards in `format`.
    pub fn new(seed: u64, size: u64, shards: usize, format: DbFormat) -> JobManifest {
        let defaults = CrawlConfig::default();
        JobManifest {
            version: MANIFEST_VERSION,
            seed,
            size,
            shards: shards.max(1),
            format,
            adversarial: false,
            max_retries: defaults.max_retries,
            retry_backoff_ms: defaults.retry_backoff_ms,
            fault_panics_per_mille: 0,
            fault_transients_per_mille: 0,
            js_engine: browser::ExecEngine::default(),
            record_bundle: false,
        }
    }

    /// The bundle-store directory inside `dir` (used when
    /// [`JobManifest::record_bundle`] is on).
    pub fn bundle_dir(dir: &Path) -> PathBuf {
        dir.join("bundle")
    }

    /// The manifest's path inside `dir`.
    pub fn path(dir: &Path) -> PathBuf {
        dir.join(MANIFEST_FILE)
    }

    /// Atomically writes the manifest into `dir` (temp file + rename).
    pub fn store(&self, dir: &Path) -> std::io::Result<()> {
        let mut text = serde_json::to_string(self)
            .map_err(|e| std::io::Error::other(format!("encoding job manifest: {e}")))?;
        text.push('\n');
        let crc = crc32(text.as_bytes());
        text.push_str(&format!("crc32:{crc:08x}\n"));
        let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
        std::fs::write(&tmp, &text)?;
        std::fs::rename(&tmp, JobManifest::path(dir))
    }

    /// Loads and verifies the manifest from `dir`. A torn or corrupt
    /// manifest (truncated JSON, checksum mismatch, missing trailer) is
    /// a loud error naming the file — it can be rewritten with
    /// [`JobManifest::store`] from the original `start` parameters, and
    /// the shard data is untouched either way.
    pub fn load(dir: &Path) -> std::io::Result<JobManifest> {
        let path = JobManifest::path(dir);
        let text = std::fs::read_to_string(&path).map_err(|e| {
            std::io::Error::new(
                e.kind(),
                format!(
                    "no readable job manifest at {}: {e}; `crawl-job start` creates one",
                    path.display()
                ),
            )
        })?;
        let torn = |detail: &str| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "job manifest {} is torn or corrupt ({detail}); \
                     rewrite it with the original `crawl-job start` parameters \
                     — the shard data itself is unaffected",
                    path.display()
                ),
            )
        };
        let Some((body, trailer)) = text.split_once('\n').and_then(|(body, rest)| {
            let trailer = rest.strip_suffix('\n').unwrap_or(rest);
            trailer.strip_prefix("crc32:").map(|t| (body, t))
        }) else {
            return Err(torn("missing checksum trailer"));
        };
        let mut line = body.to_string();
        line.push('\n');
        let expected = u32::from_str_radix(trailer, 16).map_err(|_| torn("bad checksum"))?;
        if crc32(line.as_bytes()) != expected {
            return Err(torn("checksum mismatch"));
        }
        let manifest: JobManifest =
            serde_json::from_str(body).map_err(|e| torn(&format!("unparseable: {e}")))?;
        if manifest.version != MANIFEST_VERSION {
            return Err(torn(&format!(
                "unsupported manifest version {}",
                manifest.version
            )));
        }
        if manifest.shards == 0 || manifest.size == 0 {
            return Err(torn("zero shards or size"));
        }
        Ok(manifest)
    }

    /// The population this job crawls.
    pub fn population(&self) -> WebPopulation {
        WebPopulation::new(PopulationConfig {
            seed: self.seed,
            size: self.size,
        })
        .with_adversarial(self.adversarial)
    }

    /// The crawl configuration this job visits with.
    pub fn crawl_config(&self, workers: usize) -> CrawlConfig {
        CrawlConfig {
            workers,
            max_retries: self.max_retries,
            retry_backoff_ms: self.retry_backoff_ms,
            browser: browser::BrowserConfig {
                js_engine: self.js_engine,
                ..browser::BrowserConfig::default()
            },
            faults: netsim::FaultSpec {
                seed: self.seed,
                panic_per_mille: self.fault_panics_per_mille,
                transient_per_mille: self.fault_transients_per_mille,
                transient_failures: 2,
            },
            ..CrawlConfig::default()
        }
    }

    /// The job's shard file paths inside `dir`, in shard order.
    pub fn shard_files(&self, dir: &Path) -> Vec<PathBuf> {
        let ext = match self.format {
            DbFormat::Jsonl => "jsonl",
            DbFormat::Colsh => "colsh",
        };
        let base = dir.join(format!("crawl.{ext}"));
        if self.shards == 1 {
            vec![base]
        } else {
            (0..self.shards).map(|i| shard_path(&base, i)).collect()
        }
    }
}

/// Run-time knobs (never persisted — changing them between resumes
/// cannot change the dataset bytes) plus the deterministic chaos hooks
/// the crash harness drives.
#[derive(Debug, Clone)]
pub struct JobOptions {
    /// Parallel visit workers.
    pub workers: usize,
    /// Bounded record channel between visit workers and the shard
    /// writer — the backpressure window. Workers block when it fills.
    pub channel_capacity: usize,
    /// Ranks per lease batch.
    pub lease_records: u64,
    /// Records between `status.json` rewrites (and progress lines).
    pub status_every: u64,
    /// Graceful-shutdown trigger: checked between leases; when the file
    /// exists, workers wind down, the writer drains and checkpoints,
    /// and the run reports [`JobState::Stopped`].
    pub stop_file: Option<PathBuf>,
    /// Lease failures tolerated before quarantine.
    pub max_lease_failures: u32,
    /// Print progress lines to stderr.
    pub progress: bool,
    /// `.colsh` row-group size override (tests exercise group
    /// boundaries on small datasets; `None` = the format default).
    pub colsh_group_records: Option<usize>,
    /// `.colsh` dictionary-epoch length override, in row groups
    /// (`None` = [`crate::colsh::DEFAULT_DICT_EPOCH_GROUPS`]; `Some(0)`
    /// disables epochs, restoring the unbounded pre-epoch dictionary).
    pub colsh_dict_epoch_groups: Option<u64>,
    /// Chaos hook: per-mille of (rank, lease-attempt) pairs whose lease
    /// processing panics *outside* the per-visit isolation, exercising
    /// lease retry and quarantine. Deterministic in the manifest seed.
    pub lease_fault_per_mille: u32,
    /// Chaos hook: abort the engine abruptly after writing this many
    /// records — no drain, no flush, no END markers, simulating a kill
    /// mid-write. The run returns [`JobError::Aborted`].
    pub abort_after_records: Option<u64>,
    /// Test hook: trip the graceful-stop flag after writing this many
    /// records (a deterministic stand-in for the stop file appearing).
    pub stop_after_records: Option<u64>,
}

impl Default for JobOptions {
    fn default() -> JobOptions {
        JobOptions {
            workers: 8,
            channel_capacity: 256,
            lease_records: DEFAULT_LEASE_RECORDS,
            status_every: 1_000,
            stop_file: None,
            max_lease_failures: 3,
            progress: false,
            colsh_group_records: None,
            colsh_dict_epoch_groups: None,
            lease_fault_per_mille: 0,
            abort_after_records: None,
            stop_after_records: None,
        }
    }
}

/// How a finished run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Every rank is persisted.
    Complete,
    /// Graceful shutdown: progress checkpointed, remainder pending.
    Stopped,
}

/// What a job run accomplished.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// How the run ended.
    pub state: JobState,
    /// Funnel over this run's visit plan (`attempted` = ranks that were
    /// not already on disk when the run started).
    pub funnel: CrawlFunnel,
    /// Final telemetry counters for this run.
    pub snapshot: TelemetrySnapshot,
    /// Records handed to shard sinks by this run.
    pub written: u64,
    /// Records durable on disk across all shards, including prior runs
    /// (a graceful `.colsh` checkpoint may drop a partial tail group,
    /// so this can trail `written` by less than one row group/shard).
    pub durable: u64,
    /// Population size (ranks 1..=size).
    pub size: u64,
    /// Peak depth of the writer's rank-reorder buffer.
    pub peak_writer_pending: u64,
    /// Lease attempts that failed and were re-queued.
    pub leases_retried: u64,
    /// Leases quarantined after exhausting their failure budget.
    pub leases_quarantined: u64,
    /// Simulated ms charged to lease-retry backoff.
    pub lease_backoff_ms: u64,
    /// Wall-clock seconds this run spent.
    pub wall_secs: f64,
}

impl JobReport {
    /// Human-readable run summary.
    pub fn render(&self) -> String {
        format!(
            "job {}: {} written ({} durable of {}), {:.0} records/sec, \
             peak writer queue {}, leases retried {} / quarantined {}\n{}\n{}",
            match self.state {
                JobState::Complete => "complete",
                JobState::Stopped => "stopped (resumable)",
            },
            self.written,
            self.durable,
            self.size,
            self.snapshot.rate_per_sec(self.wall_secs),
            self.peak_writer_pending,
            self.leases_retried,
            self.leases_quarantined,
            self.funnel.report(),
            self.snapshot.report(),
        )
    }
}

/// Why a job run failed.
#[derive(Debug)]
pub enum JobError {
    /// Filesystem or database error.
    Io(std::io::Error),
    /// Manifest problem (missing, torn, or conflicting with `start`).
    Manifest(String),
    /// The chaos hook killed the engine mid-write.
    Aborted {
        /// Records handed to sinks before the abort.
        written: u64,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Io(e) => write!(f, "{e}"),
            JobError::Manifest(m) => write!(f, "{m}"),
            JobError::Aborted { written } => {
                write!(f, "chaos abort after {written} records (simulated kill)")
            }
        }
    }
}

impl std::error::Error for JobError {}

impl From<std::io::Error> for JobError {
    fn from(e: std::io::Error) -> JobError {
        JobError::Io(e)
    }
}

/// The periodically rewritten `status.json` payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobStatus {
    /// `running`, `complete`, `stopped`, or `failed`.
    pub state: String,
    /// Population size.
    pub size: u64,
    /// Ranks persisted before this run started.
    pub resumed_from: u64,
    /// Ranks this run planned to visit.
    pub planned: u64,
    /// Records written by this run so far.
    pub written: u64,
    /// Ranks still unwritten.
    pub remaining: u64,
    /// Sustained records/sec over this run's wall clock.
    pub rate_per_sec: f64,
    /// Estimated seconds to completion (`null`-free: infinity encodes
    /// as a very large number upstream of JSON, so we clamp it).
    pub eta_secs: f64,
    /// Lease batches still queued.
    pub lease_queue_depth: u64,
    /// Records in the writer's reorder buffer right now.
    pub writer_pending: u64,
    /// Peak reorder-buffer depth so far.
    pub writer_peak_pending: u64,
    /// Lease attempts re-queued after a failure.
    pub leases_retried: u64,
    /// Leases quarantined.
    pub leases_quarantined: u64,
    /// Per-outcome visit counts, [`SiteOutcome`] declaration order.
    pub outcomes: Vec<u64>,
    /// Visit re-attempts.
    pub retries: u64,
    /// Visit attempts that panicked and were isolated.
    pub panics_caught: u64,
    /// Visits carrying degradation events.
    pub degraded_visits: u64,
    /// Total degradation events.
    pub degradation_events: u64,
    /// Visits completed per worker.
    pub worker_visits: Vec<u64>,
    /// Simulated ms spent per worker.
    pub worker_sim_ms: Vec<u64>,
    /// Wall-clock seconds this run has spent.
    pub wall_secs: f64,
}

/// Reads the job's `status.json`.
///
/// The writer replaces the file atomically (temp file + rename), but on
/// some filesystems a concurrent reader can still observe the file
/// absent or torn in the window around the rename. A status read races
/// the writer by design — live followers poll it while the job runs —
/// so transient `NotFound`/`InvalidData` results are retried briefly
/// before the error is surfaced. A job directory that genuinely has no
/// status still fails within ~100 ms.
pub fn read_status(dir: &Path) -> std::io::Result<JobStatus> {
    let path = dir.join(STATUS_FILE);
    let mut last_err = None;
    for attempt in 0..50 {
        if attempt > 0 {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        match try_read_status(&path) {
            Ok(status) => return Ok(status),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::NotFound | std::io::ErrorKind::InvalidData
                ) =>
            {
                last_err = Some(e);
            }
            Err(e) => return Err(e),
        }
    }
    Err(last_err.expect("at least one read attempt"))
}

/// One attempt at parsing `status.json`, no retries.
fn try_read_status(path: &Path) -> std::io::Result<JobStatus> {
    let text = std::fs::read_to_string(path)?;
    serde_json::from_str(&text).map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    })
}

/// Atomically rewrites the job's `status.json` (temp file + rename, so
/// a kill mid-rewrite never leaves a torn status behind).
fn write_status(dir: &Path, status: &JobStatus) -> std::io::Result<()> {
    let mut text = serde_json::to_string(status)
        .map_err(|e| std::io::Error::other(format!("encoding status: {e}")))?;
    text.push('\n');
    let tmp = dir.join(format!("{STATUS_FILE}.tmp"));
    std::fs::write(&tmp, &text)?;
    std::fs::rename(&tmp, dir.join(STATUS_FILE))
}

/// Starts a fresh job in `dir`: writes the manifest and runs until
/// complete (or stopped/killed). Refuses a directory that already holds
/// a manifest or shard files — resume those with [`job_resume`].
pub fn job_start(
    dir: &Path,
    manifest: &JobManifest,
    opts: &JobOptions,
) -> Result<JobReport, JobError> {
    std::fs::create_dir_all(dir).map_err(JobError::Io)?;
    if JobManifest::path(dir).exists() {
        return Err(JobError::Manifest(format!(
            "{} already holds a job manifest; use `crawl-job resume`",
            dir.display()
        )));
    }
    for path in manifest.shard_files(dir) {
        if path.exists() {
            return Err(JobError::Manifest(format!(
                "{} already exists; `crawl-job start` needs a fresh job directory",
                path.display()
            )));
        }
    }
    manifest.store(dir)?;
    run_job(dir, manifest, opts, false)
}

/// Resumes the job persisted in `dir`: re-derives per-shard high-water
/// marks from the shard files (truncating torn tails) and crawls the
/// remaining ranks. A no-op returning [`JobState::Complete`] when
/// everything is already on disk.
pub fn job_resume(dir: &Path, opts: &JobOptions) -> Result<JobReport, JobError> {
    let manifest = JobManifest::load(dir)?;
    run_job(dir, &manifest, opts, true)
}

/// Scan result for one shard: an open, appendable sink plus the number
/// of this shard's leading ranks already durable.
struct ShardScan {
    sink: ShardSink,
    completed: u64,
}

/// Opens (or resumes) one shard file, validating that whatever is on
/// disk is a rank-ordered prefix of the shard's stripe — the invariant
/// that lets the whole job checkpoint reduce to one integer per shard.
fn scan_shard(
    manifest: &JobManifest,
    opts: &JobOptions,
    path: &Path,
    shard: usize,
    resume: bool,
) -> std::io::Result<ShardScan> {
    let group = opts
        .colsh_group_records
        .unwrap_or(crate::colsh::DEFAULT_GROUP_RECORDS);
    let epoch = opts
        .colsh_dict_epoch_groups
        .unwrap_or(crate::colsh::DEFAULT_DICT_EPOCH_GROUPS);
    if !(resume && path.exists()) {
        let sink = ShardSink::create(path, manifest.format)?.with_colsh_layout(group, epoch);
        return Ok(ShardScan { sink, completed: 0 });
    }
    let (sink, completed) = ShardSink::resume(path, manifest.format)?;
    let sink = sink.with_colsh_layout(group, epoch);
    // The stripe prefix check: shard `s` holds ranks s+1, s+1+S, … in
    // order, so its completed set must be exactly the first k of those.
    let stride = manifest.shards as u64;
    for (position, &rank) in completed.iter().enumerate() {
        let expected = shard as u64 + 1 + position as u64 * stride;
        if rank != expected {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "{} is not a rank-ordered stripe prefix (found rank {rank} where \
                     {expected} belongs); it was not written by this job",
                    path.display()
                ),
            ));
        }
    }
    Ok(ShardScan {
        completed: completed.len() as u64,
        sink,
    })
}

/// What a lease worker sends the shard writer for one rank.
type Delivery = (u64, Tally, Prepared);

/// One contiguous batch of ranks a worker leases.
#[derive(Debug)]
struct Lease {
    hi: u64,
    /// Next rank to visit — survives a failed attempt, so retries never
    /// re-send records that already reached the writer.
    next: u64,
    attempts: u32,
}

/// How processing one lease ended.
enum LeaseRun {
    Done,
    Failed,
    Stopped,
    WriterGone,
}

/// Per-shard high-water marks: `marks[s]` leading ranks of shard `s`
/// are durable. O(shards) memory no matter the population size.
struct HighWater {
    marks: Vec<u64>,
    shards: u64,
}

impl HighWater {
    fn is_done(&self, rank: u64) -> bool {
        let shard = shard_index(rank, self.marks.len());
        (rank - 1) / self.shards < self.marks[shard]
    }

    fn total(&self) -> u64 {
        self.marks.iter().sum()
    }
}

/// Deterministic chaos: does lease processing panic at `rank` on lease
/// attempt `attempt`? Keyed so retries of the same rank usually pass
/// (progress) while `per_mille == 1000` never does (poison lease).
fn lease_fault_fires(per_mille: u32, seed: u64, rank: u64, attempt: u32) -> bool {
    if per_mille == 0 {
        return false;
    }
    let mut x = seed
        ^ rank.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (u64::from(attempt)).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x % 1000 < u64::from(per_mille)
}

/// Re-captures bundle tapes for dataset-durable ranks the store lost to
/// a kill (see the resume comment in [`run_job`]). Streams the shard
/// files — already truncated to their durable prefixes by
/// [`scan_shard`] — and submits, in rank order, a synthesized bundle
/// for quarantine records (`attempts == 0`: no visit ever ran) or a
/// deterministic re-visit's tape for everything else.
fn backfill_bundle(
    recorder: &BundleRecorder,
    crawler: &Crawler,
    population: &WebPopulation,
    manifest: &JobManifest,
    dir: &Path,
    high_water: &HighWater,
) -> std::io::Result<()> {
    let prefix = recorder.durable_prefix();
    let mut missing: BTreeMap<u64, SiteRecord> = BTreeMap::new();
    for path in manifest.shard_files(dir) {
        if !path.exists() {
            continue;
        }
        // Resume mode: a mid-resume `.colsh` shard has already had its
        // end marker stripped so the writer can append.
        for record in crate::db::AnyRecordStream::open(&path, StreamMode::Resume)? {
            let record = record?;
            if record.rank > prefix && high_water.is_done(record.rank) {
                missing.insert(record.rank, record);
            }
        }
    }
    for (rank, record) in missing {
        if record.attempts == 0 {
            recorder.submit(SiteBundle::synthesized(rank, record.origin))?;
        } else {
            // Submits the re-captured tape through the crawler's own
            // recorder hook; the record itself is already durable.
            crawler.visit_observed(population, rank, None);
        }
    }
    Ok(())
}

/// The engine proper. `resume` selects fresh-create vs scan-and-append
/// shard handling; everything else is identical for start and resume.
fn run_job(
    dir: &Path,
    manifest: &JobManifest,
    opts: &JobOptions,
    resume: bool,
) -> Result<JobReport, JobError> {
    let started = Instant::now();
    let population = manifest.population();
    let workers = opts.workers.max(1);
    let mut crawler = Crawler::new(manifest.crawl_config(workers));
    let recorder = if manifest.record_bundle {
        let meta = BundleMeta::for_crawl(
            &manifest.crawl_config(workers),
            manifest.seed,
            manifest.size,
            manifest.adversarial,
        );
        let bundle_dir = JobManifest::bundle_dir(dir);
        let recorder = if resume {
            BundleRecorder::resume(&bundle_dir, &meta)
        } else {
            BundleRecorder::create(&bundle_dir, &meta)
        }
        .map(Arc::new)
        .map_err(JobError::Io)?;
        crawler = crawler.with_recorder(Arc::clone(&recorder));
        Some(recorder)
    } else {
        None
    };
    let shard_files = manifest.shard_files(dir);

    let mut sinks = Vec::with_capacity(shard_files.len());
    let mut marks = Vec::with_capacity(shard_files.len());
    for (shard, path) in shard_files.iter().enumerate() {
        let scan = scan_shard(manifest, opts, path, shard, resume)
            .map_err(|e| JobError::Io(std::io::Error::new(e.kind(), format!("{e}"))))?;
        sinks.push(scan.sink);
        marks.push(scan.completed);
    }
    let high_water = HighWater {
        marks,
        shards: manifest.shards as u64,
    };
    let resumed_from = high_water.total();
    let planned = manifest.size - resumed_from;

    // A resumed recording backfills captures for ranks already durable
    // in the dataset but not yet in the bundle store (the shard writer
    // and the recorder flush independently, so a kill can leave either
    // side ahead). Visits are deterministic, so re-driving them
    // reproduces the lost tapes exactly; quarantine records (no visit
    // ever ran) are re-synthesized.
    if resume {
        if let Some(recorder) = &recorder {
            backfill_bundle(recorder, &crawler, &population, manifest, dir, &high_water)
                .map_err(JobError::Io)?;
        }
    }

    // The lease queue: contiguous rank batches with at least one
    // unvisited rank. Fully-durable batches never enter the queue.
    let lease_records = opts.lease_records.max(1);
    let mut queue = VecDeque::new();
    let mut lo = 1u64;
    while lo <= manifest.size {
        let hi = (lo + lease_records - 1).min(manifest.size);
        if (lo..=hi).any(|r| !high_water.is_done(r)) {
            queue.push_back(Lease {
                hi,
                next: lo,
                attempts: 0,
            });
        }
        lo = hi + 1;
    }
    let queue_depth = AtomicU64::new(queue.len() as u64);
    let queue = Mutex::new(queue);
    let stop = AtomicBool::new(false);
    let telemetry = CrawlTelemetry::new(workers);
    let leases_retried = AtomicU64::new(0);
    let leases_quarantined = AtomicU64::new(0);
    let lease_backoff_ms = AtomicU64::new(0);

    // Workers send each rank's record prepared for its shard (a JSONL
    // line is already encoded), so the writer only reorders and appends.
    let (sender, receiver) =
        std::sync::mpsc::sync_channel::<Delivery>(opts.channel_capacity.max(1));

    // Writer-side state, mutated only by the scope's own thread.
    let mut pending: BTreeMap<u64, (Tally, Prepared)> = BTreeMap::new();
    let mut peak_pending = 0u64;
    let mut cursor = 1u64;
    let mut funnel = CrawlFunnel {
        attempted: planned,
        ..CrawlFunnel::default()
    };
    let mut written = 0u64;
    let mut writer_error: Option<JobError> = None;

    let make_status = |state: &str,
                       snapshot: &TelemetrySnapshot,
                       written: u64,
                       writer_pending: u64,
                       peak: u64| {
        let wall_secs = started.elapsed().as_secs_f64();
        let remaining = planned.saturating_sub(written);
        JobStatus {
            state: state.to_string(),
            size: manifest.size,
            resumed_from,
            planned,
            written,
            remaining,
            rate_per_sec: snapshot.rate_per_sec(wall_secs),
            // JSON has no Infinity literal; clamp the not-yet-measurable
            // case to a sentinel the reader can recognize.
            eta_secs: snapshot.eta_secs(remaining, wall_secs).min(f64::MAX),
            lease_queue_depth: queue_depth.load(Ordering::Relaxed),
            writer_pending,
            writer_peak_pending: peak,
            leases_retried: leases_retried.load(Ordering::Relaxed),
            leases_quarantined: leases_quarantined.load(Ordering::Relaxed),
            outcomes: snapshot.outcomes.to_vec(),
            retries: snapshot.retries,
            panics_caught: snapshot.panics_caught,
            degraded_visits: snapshot.degraded_visits,
            degradation_events: snapshot.degradation_events,
            worker_visits: snapshot.worker_visits.clone(),
            worker_sim_ms: snapshot.worker_sim_ms.clone(),
            wall_secs,
        }
    };

    std::thread::scope(|scope| {
        let queue = &queue;
        let queue_depth = &queue_depth;
        let stop = &stop;
        let telemetry = &telemetry;
        let crawler = &crawler;
        let population = &population;
        let high_water = &high_water;
        let leases_retried = &leases_retried;
        let leases_quarantined = &leases_quarantined;
        let lease_backoff_ms = &lease_backoff_ms;

        for worker in 0..workers {
            let sender = sender.clone();
            scope.spawn(move || {
                let pop_lease = || {
                    let mut q = queue.lock().expect("lease queue");
                    let lease = q.pop_front();
                    queue_depth.store(q.len() as u64, Ordering::Relaxed);
                    lease
                };
                let requeue_front = |lease: Lease| {
                    let mut q = queue.lock().expect("lease queue");
                    q.push_front(lease);
                    queue_depth.store(q.len() as u64, Ordering::Relaxed);
                };
                let deliver = |sender: &SyncSender<Delivery>, rank: u64, record: SiteRecord| {
                    let tally = Tally::of(&record);
                    sender
                        .send((rank, tally, Prepared::new(manifest.format, record)))
                        .is_err()
                };
                let process = |lease: &mut Lease, sender: &SyncSender<Delivery>| {
                    while lease.next <= lease.hi {
                        if stop.load(Ordering::Relaxed) {
                            return LeaseRun::Stopped;
                        }
                        let rank = lease.next;
                        if high_water.is_done(rank) {
                            lease.next += 1;
                            continue;
                        }
                        // The closure reports only whether the writer is
                        // gone (true), not the rejected record itself.
                        let attempt =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                if lease_fault_fires(
                                    opts.lease_fault_per_mille,
                                    manifest.seed,
                                    rank,
                                    lease.attempts,
                                ) {
                                    panic!("chaos: injected lease fault at rank {rank}");
                                }
                                let record = crawler.visit_observed(
                                    population,
                                    rank,
                                    Some((telemetry, worker)),
                                );
                                deliver(sender, rank, record)
                            }));
                        match attempt {
                            Err(_) => return LeaseRun::Failed,
                            Ok(true) => return LeaseRun::WriterGone,
                            Ok(false) => lease.next += 1,
                        }
                    }
                    LeaseRun::Done
                };
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Some(stop_file) = &opts.stop_file {
                        if stop_file.exists() {
                            stop.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                    let Some(mut lease) = pop_lease() else { break };
                    match process(&mut lease, &sender) {
                        LeaseRun::Done => {}
                        LeaseRun::Stopped | LeaseRun::WriterGone => break,
                        LeaseRun::Failed => {
                            lease.attempts += 1;
                            leases_retried.fetch_add(1, Ordering::Relaxed);
                            lease_backoff_ms.fetch_add(
                                netsim::capped_backoff_ms(
                                    manifest.retry_backoff_ms,
                                    lease.attempts,
                                ),
                                Ordering::Relaxed,
                            );
                            if lease.attempts > opts.max_lease_failures {
                                // Poison lease: quarantine the unvisited
                                // remainder as structured CrawlerError
                                // records — a rank is never lost.
                                leases_quarantined.fetch_add(1, Ordering::Relaxed);
                                let mut writer_gone = false;
                                for rank in lease.next..=lease.hi {
                                    if high_water.is_done(rank) {
                                        continue;
                                    }
                                    let record = SiteRecord {
                                        rank,
                                        origin: population.origin(rank).to_string(),
                                        outcome: SiteOutcome::CrawlerError,
                                        visit: None,
                                        elapsed_ms: 0,
                                        attempts: 0,
                                    };
                                    telemetry.record_visit(worker, SiteOutcome::CrawlerError, 0, 1);
                                    if let Some(recorder) = crawler.recorder() {
                                        if let Err(e) = recorder.submit(SiteBundle::synthesized(
                                            rank,
                                            record.origin.clone(),
                                        )) {
                                            panic!(
                                                "bundle store write failed for rank {rank}: {e}"
                                            );
                                        }
                                    }
                                    if deliver(&sender, rank, record) {
                                        writer_gone = true;
                                        break;
                                    }
                                }
                                if writer_gone {
                                    break;
                                }
                            } else {
                                // Front of the queue: the rank cursor is
                                // stalled on this lease, so it must run
                                // next to keep the reorder buffer flat.
                                requeue_front(lease);
                            }
                        }
                    }
                }
            });
        }
        drop(sender);

        // The shard writer: reorder into global rank order, append,
        // checkpoint the health surface.
        'writer: for (rank, tally, prepared) in receiver.iter() {
            pending.insert(rank, (tally, prepared));
            peak_pending = peak_pending.max(pending.len() as u64);
            while cursor <= manifest.size {
                if high_water.is_done(cursor) {
                    cursor += 1;
                    continue;
                }
                let Some((tally, prepared)) = pending.remove(&cursor) else {
                    break;
                };
                funnel.count_tally(tally);
                let shard = shard_index(cursor, sinks.len());
                if let Err(e) = sinks[shard].append(prepared) {
                    writer_error = Some(JobError::Io(std::io::Error::new(
                        e.kind(),
                        format!("writing {}: {e}", shard_files[shard].display()),
                    )));
                    stop.store(true, Ordering::Relaxed);
                    break 'writer;
                }
                written += 1;
                cursor += 1;
                if opts.abort_after_records == Some(written) {
                    writer_error = Some(JobError::Aborted { written });
                    stop.store(true, Ordering::Relaxed);
                    break 'writer;
                }
                if opts.stop_after_records == Some(written) {
                    stop.store(true, Ordering::Relaxed);
                }
                if written.is_multiple_of(opts.status_every.max(1)) {
                    let snapshot = telemetry.snapshot();
                    if opts.progress {
                        eprintln!("{}", snapshot.progress_line(planned));
                    }
                    let status = make_status(
                        "running",
                        &snapshot,
                        written,
                        pending.len() as u64,
                        peak_pending,
                    );
                    if let Err(e) = write_status(dir, &status) {
                        writer_error = Some(JobError::Io(e));
                        stop.store(true, Ordering::Relaxed);
                        break 'writer;
                    }
                }
            }
        }
        // Disconnect the channel so any still-blocked sender unblocks
        // and its worker exits, then let the scope join them.
        drop(receiver);
    });

    let snapshot = telemetry.snapshot();
    if let Some(error) = writer_error {
        if !matches!(error, JobError::Aborted { .. }) {
            // Best-effort: a real writer failure still updates the
            // health surface. A chaos abort is a simulated kill and
            // must leave the directory exactly as a kill would.
            let status = make_status(
                "failed",
                &snapshot,
                written,
                pending.len() as u64,
                peak_pending,
            );
            let _ = write_status(dir, &status);
        }
        return Err(error);
    }

    let stopped = stop.load(Ordering::Relaxed);
    let mut durable = 0u64;
    for (sink, path) in sinks.into_iter().zip(&shard_files) {
        let in_file = if stopped {
            sink.finish_checkpoint()
        } else {
            sink.finish().map(|()| 0)
        }
        .map_err(|e| {
            JobError::Io(std::io::Error::new(
                e.kind(),
                format!("finishing {}: {e}", path.display()),
            ))
        })?;
        durable += in_file;
    }
    if !stopped {
        durable = resumed_from + written;
    }
    if let Some(recorder) = &recorder {
        // Complete runs must have captured every rank (a gap is a bug);
        // graceful stops checkpoint whatever prefix is committed and
        // leave the rest for the resume backfill.
        if stopped {
            recorder.checkpoint()
        } else {
            recorder.finish()
        }
        .map_err(JobError::Io)?;
    }
    let state = if stopped {
        JobState::Stopped
    } else {
        JobState::Complete
    };
    let status = make_status(
        match state {
            JobState::Complete => "complete",
            JobState::Stopped => "stopped",
        },
        &snapshot,
        written,
        0,
        peak_pending,
    );
    write_status(dir, &status)?;
    Ok(JobReport {
        state,
        funnel,
        snapshot,
        written,
        durable,
        size: manifest.size,
        peak_writer_pending: peak_pending,
        leases_retried: leases_retried.load(Ordering::Relaxed),
        leases_quarantined: leases_quarantined.load(Ordering::Relaxed),
        lease_backoff_ms: lease_backoff_ms.load(Ordering::Relaxed),
        wall_secs: started.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_job_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("permodyssey-jobs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn manifest_round_trips_with_checksum() {
        let dir = temp_job_dir("manifest");
        let mut manifest = JobManifest::new(7, 500, 4, DbFormat::Colsh);
        manifest.adversarial = true;
        manifest.fault_panics_per_mille = 3;
        manifest.store(&dir).unwrap();
        assert_eq!(JobManifest::load(&dir).unwrap(), manifest);
        let text = std::fs::read_to_string(JobManifest::path(&dir)).unwrap();
        assert!(text.contains("crc32:"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_manifest_is_loud_and_names_the_file() {
        let dir = temp_job_dir("torn-manifest");
        let manifest = JobManifest::new(7, 100, 2, DbFormat::Jsonl);
        manifest.store(&dir).unwrap();
        let path = JobManifest::path(&dir);
        let bytes = std::fs::read(&path).unwrap();
        for cut in [1, bytes.len() / 2, bytes.len() - 2] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let err = JobManifest::load(&dir).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("job.json"), "{msg}");
            assert!(msg.contains("torn or corrupt"), "{msg}");
        }
        // A flipped byte inside otherwise-intact JSON fails the checksum.
        let mut flipped = bytes.clone();
        let seed_pos = flipped.windows(4).position(|w| w == b"7,\"s");
        if let Some(p) = seed_pos {
            flipped[p] = b'8';
            std::fs::write(&path, &flipped).unwrap();
            let err = JobManifest::load(&dir).unwrap_err();
            assert!(err.to_string().contains("checksum"), "{err}");
        }
        // Rewriting the manifest recovers the job without touching data.
        manifest.store(&dir).unwrap();
        assert_eq!(JobManifest::load(&dir).unwrap(), manifest);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn high_water_marks_match_striping() {
        let hw = HighWater {
            marks: vec![2, 1, 0],
            shards: 3,
        };
        // Shard 0 holds ranks 1, 4, 7…: first two durable.
        assert!(hw.is_done(1));
        assert!(hw.is_done(4));
        assert!(!hw.is_done(7));
        // Shard 1 holds ranks 2, 5…: first one durable.
        assert!(hw.is_done(2));
        assert!(!hw.is_done(5));
        // Shard 2 holds ranks 3, 6…: nothing durable.
        assert!(!hw.is_done(3));
        assert_eq!(hw.total(), 3);
    }

    #[test]
    fn lease_faults_are_deterministic_and_attempt_keyed() {
        assert!(!lease_fault_fires(0, 7, 1, 0));
        for rank in 1..=2000u64 {
            for attempt in 0..3 {
                assert_eq!(
                    lease_fault_fires(250, 7, rank, attempt),
                    lease_fault_fires(250, 7, rank, attempt),
                );
                // Per-mille 1000 always fires: the poison-lease case.
                assert!(lease_fault_fires(1000, 7, rank, attempt));
            }
        }
        // Roughly a quarter fire at 250‰.
        let fired = (1..=2000u64)
            .filter(|&r| lease_fault_fires(250, 7, r, 0))
            .count();
        assert!((300..700).contains(&fired), "{fired}");
    }

    #[test]
    fn status_round_trips_through_json() {
        let dir = temp_job_dir("status");
        let status = JobStatus {
            state: "running".to_string(),
            size: 100,
            resumed_from: 10,
            planned: 90,
            written: 40,
            remaining: 50,
            rate_per_sec: 123.5,
            eta_secs: 0.5,
            lease_queue_depth: 3,
            writer_pending: 2,
            writer_peak_pending: 9,
            leases_retried: 1,
            leases_quarantined: 0,
            outcomes: vec![30, 4, 3, 2, 1, 0],
            retries: 7,
            panics_caught: 0,
            degraded_visits: 2,
            degradation_events: 5,
            worker_visits: vec![20, 20],
            worker_sim_ms: vec![1000, 900],
            wall_secs: 1.25,
        };
        write_status(&dir, &status).unwrap();
        let back = read_status(&dir).unwrap();
        assert_eq!(back.state, "running");
        assert_eq!(back.written, 40);
        assert_eq!(back.outcomes, status.outcomes);
        assert_eq!(back.worker_visits, status.worker_visits);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_status_survives_a_hammering_writer() {
        // The live follower polls status.json while the job rewrites it;
        // the rename window can expose a missing or torn file to the
        // reader on some filesystems. Hammer reads against a loop of
        // rewrites (plus deliberate remove/recreate churn, which is
        // strictly harsher than the rename) and require every read to
        // return a fully parsed status.
        let dir = temp_job_dir("status-hammer");
        let mut status = JobStatus {
            state: "running".to_string(),
            size: 100,
            resumed_from: 0,
            planned: 100,
            written: 0,
            remaining: 100,
            rate_per_sec: 0.0,
            eta_secs: 0.0,
            lease_queue_depth: 0,
            writer_pending: 0,
            writer_peak_pending: 0,
            leases_retried: 0,
            leases_quarantined: 0,
            outcomes: vec![0; 6],
            retries: 0,
            panics_caught: 0,
            degraded_visits: 0,
            degradation_events: 0,
            worker_visits: vec![0],
            worker_sim_ms: vec![0],
            wall_secs: 0.0,
        };
        write_status(&dir, &status).unwrap();
        std::thread::scope(|scope| {
            let writer_dir = dir.clone();
            let writer = scope.spawn(move || {
                for written in 1..=400u64 {
                    status.written = written;
                    // Make the absent-file window real, not just possible.
                    if written.is_multiple_of(10) {
                        let _ = std::fs::remove_file(writer_dir.join(STATUS_FILE));
                    }
                    write_status(&writer_dir, &status).unwrap();
                }
            });
            for _ in 0..400 {
                let back = read_status(&dir).expect("status must always be readable");
                assert_eq!(back.state, "running");
                assert_eq!(back.size, 100);
                assert_eq!(back.outcomes.len(), 6);
            }
            writer.join().unwrap();
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn start_refuses_existing_manifest_or_shards() {
        let dir = temp_job_dir("start-refuses");
        let manifest = JobManifest::new(7, 40, 1, DbFormat::Jsonl);
        manifest.store(&dir).unwrap();
        let err = job_start(&dir, &manifest, &JobOptions::default()).unwrap_err();
        assert!(err.to_string().contains("resume"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_shard_content_fails_the_stripe_check() {
        let dir = temp_job_dir("stripe-check");
        let manifest = JobManifest::new(7, 40, 2, DbFormat::Jsonl);
        manifest.store(&dir).unwrap();
        // Shard 0 of a 2-way stripe must start with rank 1, not rank 2.
        let population = manifest.population();
        let record = Crawler::new(manifest.crawl_config(1)).visit_one(&population, 2);
        let mut line = String::new();
        serde_json::to_string_into(&record, &mut line);
        line.push('\n');
        std::fs::write(&manifest.shard_files(&dir)[0], line).unwrap();
        let err = job_resume(&dir, &JobOptions::default()).unwrap_err();
        assert!(err.to_string().contains("stripe prefix"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
