//! The benchmark's tracer.
//!
//! It composes each visit from the repository's public parts —
//! `WebPopulation` as a `ContentProvider` behind `SimNetwork` (or a
//! `ReplayNetwork` tape), a `CachingNetwork`, and `Browser::visit`
//! inside the crawler's retry loop — wraps the layer boundaries in
//! timing spans, and reports per-layer time and counts per record.
//! Records then go through the same encoder the workload's CLI path
//! uses, and each is digested so the run can prove it produced the
//! very bytes the untraced CLI run produced.
//!
//! ```text
//! perfbench-tracer crawl   --seed S --size N --workers W --out DIR [--trace]
//!                          [--spans FILE] [--compare FILE...]
//! perfbench-tracer replay  --store DIR --workers W --out DIR [--trace]
//!                          [--record-into DIR] [--spans FILE] [--compare FILE...]
//! perfbench-tracer analyze --workers W --jsonl FILE... --colsh FILE... --out DIR
//!                          [--expect FILE] [--trace] [--spans FILE]
//! perfbench-tracer check   --shards S --size N --files FILE...
//! perfbench-tracer measure [--stdout FILE] [--stderr FILE] -- PROGRAM ARGS...
//! ```
//!
//! Every subcommand prints one JSON object on stdout.

mod retime;
mod shims;
mod spans;

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use browser::{Browser, VisitError, VisitOutcome};
use crawler::{CrawlConfig, SiteOutcome, SiteRecord};
use netsim::{CachingNetwork, FaultyNetwork, Network, SimClock, SimNetwork};
use weburl::Url;

use shims::{FetchLog, TracedNetwork, TracedProvider};
use spans::{Name, Span, Totals};

/// Counts gathered where the work happens, summed over threads.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub records: u64,
    pub attempts: u64,
    pub degradations: u64,
    pub panics: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub frames: u64,
    pub html_bytes: u64,
    pub scripts: u64,
    pub steps: u64,
    pub ic_hits: u64,
    pub ic_misses: u64,
    pub policy_mismatches: u64,
    pub invocation_mismatches: u64,
}

impl Counters {
    fn add(&mut self, o: &Counters) {
        self.records += o.records;
        self.attempts += o.attempts;
        self.degradations += o.degradations;
        self.panics += o.panics;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.frames += o.frames;
        self.html_bytes += o.html_bytes;
        self.scripts += o.scripts;
        self.steps += o.steps;
        self.ic_hits += o.ic_hits;
        self.ic_misses += o.ic_misses;
        self.policy_mismatches += o.policy_mismatches;
        self.invocation_mismatches += o.invocation_mismatches;
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("crawl") => cmd_crawl(&Args(&args[1..])),
        Some("replay") => cmd_replay(&Args(&args[1..])),
        Some("analyze") => cmd_analyze(&Args(&args[1..])),
        Some("check") => cmd_check(&Args(&args[1..])),
        Some("measure") => cmd_measure(&args[1..]),
        _ => {
            Err("usage: perfbench-tracer crawl|replay|analyze|check|measure [options]".to_string())
        }
    };
    match result {
        Ok(json) => println!("{json}"),
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
    }
}

/// `--name value` and `--name v1 v2 …` lookups over an argument list.
struct Args<'a>(&'a [String]);

impl Args<'_> {
    fn value(&self, name: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn list(&self, name: &str) -> Vec<PathBuf> {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return Vec::new();
        };
        self.0[i + 1..]
            .iter()
            .take_while(|a| !a.starts_with("--"))
            .map(PathBuf::from)
            .collect()
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn parse<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let value = self.value(name).ok_or(format!("missing {name}"))?;
        value
            .parse()
            .map_err(|_| format!("invalid value for {name}: {value}"))
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |acc, b| {
        (acc ^ u64::from(*b)).wrapping_mul(0x1_0000_0000_01b3)
    })
}

/// The record's JSONL line, exactly as the shard writers append it.
fn jsonl_line(record: &SiteRecord, line: &mut String) {
    line.clear();
    serde_json::to_string_into(record, line);
    line.push('\n');
}

// ---------------------------------------------------------------------
// The worker pool: a closed loop over ranks, one companion thread per
// worker for the re-timing.
// ---------------------------------------------------------------------

type Job = Box<dyn FnOnce(&mut Counters) + Send>;

/// Jobs handed to a companion at once.
const BATCH: usize = 32;

/// A worker's lockstep companion. Jobs queue up in order; every
/// [`BATCH`] jobs the worker hands them over and waits until they are
/// done, so the two threads never compete for a CPU and the companion
/// sees the worker's inputs in the worker's order.
struct Companion {
    jobs: mpsc::Sender<Vec<Job>>,
    done: mpsc::Receiver<()>,
    queued: std::cell::RefCell<Vec<Job>>,
}

impl Companion {
    fn run(&self, job: Job) {
        let full = {
            let mut queued = self.queued.borrow_mut();
            queued.push(job);
            queued.len() >= BATCH
        };
        if full {
            self.flush();
        }
    }

    fn flush(&self) {
        let jobs = std::mem::take(&mut *self.queued.borrow_mut());
        if jobs.is_empty() {
            return;
        }
        self.jobs.send(jobs).expect("companion alive");
        self.done.recv().expect("companion alive");
    }
}

/// What one worker thread hands back.
struct WorkerOut<S> {
    state: S,
    counters: Counters,
    spans: Vec<Span>,
    companion_counters: Counters,
    companion_spans: Vec<Span>,
}

/// Runs `work` for every item `1..=total`, each worker pulling its next
/// item only when its last one is finished.
fn pool<S: Send>(
    workers: usize,
    total: u64,
    trace: bool,
    epoch: Instant,
    make: impl Fn(usize) -> S + Sync,
    work: impl Fn(&mut S, u64, &mut Counters, &Companion) + Sync,
) -> Vec<WorkerOut<S>> {
    let next = AtomicU64::new(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|w| {
                let (next, make, work) = (&next, &make, &work);
                scope.spawn(move || {
                    let (job_tx, job_rx) = mpsc::channel::<Vec<Job>>();
                    let (done_tx, done_rx) = mpsc::channel::<()>();
                    let helper = std::thread::spawn(move || {
                        if trace {
                            spans::start_thread(epoch);
                        }
                        let mut counters = Counters::default();
                        for jobs in job_rx {
                            for job in jobs {
                                job(&mut counters);
                            }
                            let _ = done_tx.send(());
                        }
                        (counters, spans::finish_thread())
                    });
                    let companion = Companion {
                        jobs: job_tx,
                        done: done_rx,
                        queued: Default::default(),
                    };
                    if trace {
                        spans::start_thread(epoch);
                    }
                    let mut state = make(w);
                    let mut counters = Counters::default();
                    loop {
                        let item = next.fetch_add(1, Ordering::Relaxed);
                        if item > total {
                            break;
                        }
                        spans::set_id(item);
                        work(&mut state, item, &mut counters, &companion);
                    }
                    companion.flush();
                    let spans = spans::finish_thread();
                    drop(companion);
                    let (companion_counters, companion_spans) =
                        helper.join().expect("companion thread");
                    WorkerOut {
                        state,
                        counters,
                        spans,
                        companion_counters,
                        companion_spans,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread"))
            .collect()
    })
}

/// Span totals, counters and per-record visit latencies of a pool run.
struct Collected {
    totals: Totals,
    counters: Counters,
    visit_ns: Vec<u64>,
}

/// Merges the workers' outputs; returns their states and the totals.
fn collect<S>(
    outs: Vec<WorkerOut<S>>,
    spans_file: Option<&Path>,
) -> Result<(Vec<S>, Collected), String> {
    let mut totals = Totals::default();
    let mut counters = Counters::default();
    let mut per_record: HashMap<u64, u64> = HashMap::new();
    let mut file = match spans_file {
        Some(path) => Some(std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?,
        )),
        None => None,
    };
    let mut states = Vec::new();
    for (w, out) in outs.into_iter().enumerate() {
        totals.add_thread(&out.spans);
        totals.add_thread(&out.companion_spans);
        counters.add(&out.counters);
        counters.add(&out.companion_counters);
        spans::per_id_inclusive(&out.spans, Name::Visit, &mut per_record);
        if let Some(file) = &mut file {
            spans::write_tsv(file, 2 * w, &out.spans).map_err(|e| e.to_string())?;
            spans::write_tsv(file, 2 * w + 1, &out.companion_spans).map_err(|e| e.to_string())?;
        }
        states.push(out.state);
    }
    if let Some(mut file) = file {
        file.flush().map_err(|e| e.to_string())?;
    }
    let mut visit_ns: Vec<u64> = per_record.into_values().collect();
    visit_ns.sort_unstable();
    Ok((
        states,
        Collected {
            totals,
            counters,
            visit_ns,
        },
    ))
}

// ---------------------------------------------------------------------
// One visit, mirroring the crawler's retry loop.
// ---------------------------------------------------------------------

/// Visits `origin` over networks from `network_for` (one per attempt)
/// until the outcome is final, exactly as the crawler's loop does, and
/// returns the record plus the documents the last attempt received.
fn visit_record<N: Network>(
    rank: u64,
    origin: &Url,
    config: &CrawlConfig,
    keep_documents: bool,
    counters: &mut Counters,
    mut network_for: impl FnMut(u32) -> N,
) -> (SiteRecord, Option<FetchLog>) {
    let mut clock = SimClock::new();
    let mut attempts: u32 = 0;
    let (outcome, visit, log) = loop {
        let network = network_for(attempts);
        let (outcome, visit, log) = drive_attempt(
            network,
            origin,
            config,
            &mut clock,
            keep_documents,
            counters,
        );
        attempts += 1;
        let transient = matches!(outcome, SiteOutcome::Unreachable | SiteOutcome::LoadTimeout);
        if transient && attempts <= config.max_retries {
            clock.advance(netsim::capped_backoff_ms(config.retry_backoff_ms, attempts));
            continue;
        }
        break (outcome, visit, log);
    };
    let record = SiteRecord {
        rank,
        origin: origin.to_string(),
        outcome,
        visit,
        elapsed_ms: clock.now_ms(),
        attempts,
    };
    counters.records += 1;
    counters.attempts += u64::from(attempts);
    if let Some(visit) = &record.visit {
        counters.degradations += visit.degradations.len() as u64;
    }
    (record, log)
}

/// One attempt in panic isolation, under a `browser.visit` span.
fn drive_attempt<N: Network>(
    inner: N,
    origin: &Url,
    config: &CrawlConfig,
    clock: &mut SimClock,
    keep_documents: bool,
    counters: &mut Counters,
) -> (SiteOutcome, Option<browser::PageVisit>, Option<FetchLog>) {
    let depth = spans::depth();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        spans::enter(Name::Visit);
        let network = TracedNetwork::new(
            CachingNetwork::new(inner, config.cache_capacity),
            Name::Fetch,
            keep_documents,
        );
        let mut browser = Browser::new(network, config.browser.clone());
        let result = browser.visit(origin, clock);
        let network = browser.into_network();
        spans::exit();
        (
            result,
            network.log,
            network.inner.hits(),
            network.inner.misses(),
        )
    }));
    let Ok((result, log, hits, misses)) = result else {
        spans::close_to(depth);
        counters.panics += 1;
        return (SiteOutcome::CrawlerError, None, None);
    };
    counters.cache_hits += hits;
    counters.cache_misses += misses;
    match result {
        Ok(visit) => {
            let outcome = match visit.outcome {
                VisitOutcome::Success => SiteOutcome::Success,
                VisitOutcome::EphemeralContext => SiteOutcome::Ephemeral,
                VisitOutcome::CrawlerCrash => SiteOutcome::CrawlerError,
                VisitOutcome::PageTimeout => SiteOutcome::Excluded,
            };
            (outcome, Some(visit), log)
        }
        Err(VisitError::Unreachable) => (SiteOutcome::Unreachable, None, log),
        Err(VisitError::LoadTimeout) => (SiteOutcome::LoadTimeout, None, log),
    }
}

// ---------------------------------------------------------------------
// Per-worker record sinks.
// ---------------------------------------------------------------------

/// One worker's JSONL output file plus its digests of every record it
/// wrote.
struct Sink {
    path: PathBuf,
    out: std::io::BufWriter<std::fs::File>,
    line: String,
    digests: Vec<(u64, u64)>,
}

impl Sink {
    fn create(dir: &Path, worker: usize) -> Sink {
        let path = dir.join(format!("worker-{worker}.jsonl"));
        let out =
            std::io::BufWriter::new(std::fs::File::create(&path).expect("create worker output"));
        Sink {
            path,
            out,
            line: String::new(),
            digests: Vec::new(),
        }
    }

    /// Encodes and appends one record under the encoder's span.
    fn push(&mut self, record: &SiteRecord) {
        spans::enter(Name::JsonlEncode);
        jsonl_line(record, &mut self.line);
        self.out
            .write_all(self.line.as_bytes())
            .expect("write worker output");
        spans::exit();
    }

    /// Digests the line `push` just encoded; called outside every span.
    fn digest(&mut self, record: &SiteRecord) {
        self.digests
            .push((record.rank, fnv1a(self.line.as_bytes())));
    }

    /// Flushes the file; returns its size.
    fn finish(mut self) -> (u64, Vec<(u64, u64)>) {
        self.out.flush().expect("flush worker output");
        let size = std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0);
        (size, self.digests)
    }
}

/// Compares the traced digests with the records in `files` (the
/// untraced CLI run's output, any format): returns (compared, mismatched).
fn compare(digests: &HashMap<u64, u64>, files: &[PathBuf]) -> Result<(u64, u64), String> {
    let mut compared = 0;
    let mut mismatched = 0;
    let mut line = String::new();
    for path in files {
        let stream = crawler::AnyRecordStream::open(path, crawler::StreamMode::Strict)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        for record in stream {
            let record = record.map_err(|e| format!("{}: {e}", path.display()))?;
            jsonl_line(&record, &mut line);
            compared += 1;
            if digests.get(&record.rank) != Some(&fnv1a(line.as_bytes())) {
                mismatched += 1;
            }
        }
    }
    // A traced record the untraced run never wrote is a mismatch too.
    mismatched += (digests.len() as u64).saturating_sub(compared);
    Ok((compared, mismatched))
}

// ---------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------

struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    fn new() -> Metrics {
        Metrics(BTreeMap::new())
    }

    fn set(&mut self, name: &str, value: f64) {
        self.0.insert(
            name.to_string(),
            if value.is_finite() { value } else { 0.0 },
        );
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn us_per(ns: u64, n: u64) -> f64 {
    ratio(ns, n) / 1_000.0
}

/// The visit-side per-layer metrics of one traced pool run.
fn visit_metrics(m: &mut Metrics, c: &Collected) {
    let (t, k) = (&c.totals, &c.counters);
    let n = k.records;
    m.set(
        "webgen.resolve_us_per_rec",
        us_per(t.self_ns(Name::Resolve), n),
    );
    m.set("webgen.resolves_per_rec", ratio(t.count(Name::Resolve), n));
    m.set(
        "netsim.fetch_self_us_per_rec",
        us_per(t.self_ns(Name::Fetch), n),
    );
    m.set("netsim.fetches_per_rec", ratio(t.count(Name::Fetch), n));
    m.set(
        "netsim.cache_hit_ratio",
        ratio(k.cache_hits, k.cache_hits + k.cache_misses),
    );
    m.set("netsim.tape_us_per_rec", us_per(t.self_ns(Name::Tape), n));
    m.set("html.scan_us_per_rec", us_per(t.self_ns(Name::HtmlScan), n));
    m.set("html.bytes_per_rec", ratio(k.html_bytes, n));
    m.set(
        "policy.parse_us_per_rec",
        us_per(t.self_ns(Name::PolicyParse), n),
    );
    m.set(
        "policy.eval_us_per_rec",
        us_per(t.self_ns(Name::PolicyEval), n),
    );
    m.set("policy.frames_per_rec", ratio(k.frames, n));
    let js_ns = t.self_ns(Name::JslandRun);
    m.set("jsland.run_us_per_rec", us_per(js_ns, n));
    m.set("jsland.steps_per_rec", ratio(k.steps, n));
    m.set("jsland.steps_per_s", ratio(k.steps, js_ns) * 1e9);
    m.set("jsland.scripts_per_rec", ratio(k.scripts, n));
    m.set(
        "jsland.ic_hit_ratio",
        ratio(k.ic_hits, k.ic_hits + k.ic_misses),
    );
    m.set(
        "browser.visit_p50_us",
        spans::percentile(&c.visit_ns, 50.0) as f64 / 1_000.0,
    );
    let (tail_pct, tail_ns) = spans::tail(&c.visit_ns).unwrap_or((0.0, 0));
    m.set("browser.visit_tail_us", tail_ns as f64 / 1_000.0);
    m.set("browser.visit_tail_pct", tail_pct);
    let retimed = t.self_ns(Name::HtmlScan)
        + t.self_ns(Name::PolicyParse)
        + t.self_ns(Name::PolicyEval)
        + t.self_ns(Name::JslandRun);
    // Signed: a re-timing slower than the visit itself shows as < 0.
    m.set(
        "browser.other_us_per_rec",
        (t.self_ns(Name::Visit) as f64 - retimed as f64) / n.max(1) as f64 / 1_000.0,
    );
    m.set("browser.attempts_per_rec", ratio(k.attempts, n));
    m.set("browser.degradations_per_rec", ratio(k.degradations, n));
    m.set(
        "trace.retime_mismatched_frames",
        (k.policy_mismatches + k.invocation_mismatches) as f64,
    );
}

/// Per-record accounting: the traced time per record and the part no
/// layer span claims (the record span's own self time).
fn record_metrics(m: &mut Metrics, c: &Collected) {
    let n = c.counters.records;
    m.set(
        "trace.record_us_per_rec",
        us_per(c.totals.inclusive_ns(Name::Record), n),
    );
    m.set(
        "trace.remainder_us_per_rec",
        us_per(c.totals.self_ns(Name::Record), n),
    );
}

/// The metrics of the encoder a pass wrote with (its span and metric
/// prefix); `bytes` is its output.
fn encode_metrics(m: &mut Metrics, c: &Collected, span: Name, prefix: &str, bytes: u64) {
    let n = c.counters.records;
    m.set(
        &format!("{prefix}_encode_us_per_rec"),
        us_per(c.totals.self_ns(span), n),
    );
    m.set(&format!("{prefix}_bytes_per_rec"), ratio(bytes, n));
}

fn result_json(wall_s: f64, metrics: &Metrics, extra: &[(&str, f64)]) -> String {
    let mut out = format!("{{\"wall_s\": {wall_s}");
    for (k, v) in extra {
        out.push_str(&format!(", \"{k}\": {v}"));
    }
    out.push_str(&format!(", \"metrics\": {}}}", metrics.to_json()));
    out
}

// ---------------------------------------------------------------------
// Subcommands.
// ---------------------------------------------------------------------

/// Live crawl of the generated population.
fn cmd_crawl(args: &Args) -> Result<String, String> {
    let seed: u64 = args.parse("--seed")?;
    let size: u64 = args.parse("--size")?;
    let workers: usize = args.parse("--workers")?;
    let out_dir = PathBuf::from(args.value("--out").ok_or("missing --out")?);
    let trace = args.flag("--trace");
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;

    // The job engine's own configuration for this population.
    let manifest = crawler::JobManifest::new(seed, size, 1, crawler::DbFormat::Jsonl);
    let population = manifest.population();
    let config = manifest.crawl_config(workers);

    let epoch = Instant::now();
    let outs = pool(
        workers,
        size,
        trace,
        epoch,
        |w| Sink::create(&out_dir, w),
        |sink, rank, counters, companion| {
            let origin = population.origin(rank);
            spans::enter(Name::Record);
            let (mut record, log) =
                visit_record(rank, &origin, &config, trace, counters, |attempt| {
                    FaultyNetwork::new(
                        SimNetwork::new(TracedProvider { inner: &population }),
                        &config.faults,
                        rank,
                        attempt,
                    )
                });
            sink.push(&record);
            spans::exit();
            sink.digest(&record);
            if trace {
                retime_on(companion, rank, record.visit.take(), log, &config);
            }
        },
    );
    let wall_s = epoch.elapsed().as_secs_f64();
    let (sinks, collected) = collect(outs, args.value("--spans").map(Path::new))?;
    let (bytes, digests) = finish_sinks(sinks);
    let mut m = Metrics::new();
    visit_metrics(&mut m, &collected);
    record_metrics(&mut m, &collected);
    encode_metrics(
        &mut m,
        &collected,
        Name::JsonlEncode,
        "crawler.jsonl",
        bytes,
    );
    let (compared, mismatched) = compare(&digests, &args.list("--compare"))?;
    Ok(result_json(
        wall_s,
        &m,
        &[
            ("records", collected.counters.records as f64),
            ("panics", collected.counters.panics as f64),
            ("compared", compared as f64),
            ("mismatched", mismatched as f64),
        ],
    ))
}

/// Sends one record's visit to the companion for re-timing.
fn retime_on(
    companion: &Companion,
    rank: u64,
    visit: Option<browser::PageVisit>,
    log: Option<FetchLog>,
    config: &CrawlConfig,
) {
    let (Some(visit), Some(log)) = (visit, log) else {
        return;
    };
    let browser_config = config.browser.clone();
    companion.run(Box::new(move |counters| {
        spans::set_id(rank);
        spans::timed(Name::Retime, || {
            retime::retime_visit(&visit, &log, &browser_config, counters)
        });
    }));
}

/// Finishes every worker's sink: total bytes on disk and the digests.
fn finish_sinks(sinks: Vec<Sink>) -> (u64, HashMap<u64, u64>) {
    let mut bytes = 0;
    let mut digests = HashMap::new();
    for sink in sinks {
        let (size, list) = sink.finish();
        bytes += size;
        digests.extend(list);
    }
    (bytes, digests)
}

/// Replay from a bundle store, optionally after re-recording the store's
/// population into a second store (which times `BundleRecorder::submit`).
fn cmd_replay(args: &Args) -> Result<String, String> {
    let store = PathBuf::from(args.value("--store").ok_or("missing --store")?);
    let workers: usize = args.parse("--workers")?;
    let out_dir = PathBuf::from(args.value("--out").ok_or("missing --out")?);
    let trace = args.flag("--trace");
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let mut m = Metrics::new();
    if let Some(into) = args.value("--record-into") {
        record_pass(&store, Path::new(into), workers, trace, &mut m)?;
    }

    let epoch = Instant::now();
    let bundle = crawler::ReplayBundle::load(&store).map_err(|e| e.to_string())?;
    m.set("crawler.bundle_load_s", epoch.elapsed().as_secs_f64());
    let config = bundle.meta().replay_config(workers);
    let outs = pool(
        workers,
        bundle.sites(),
        trace,
        epoch,
        |w| Sink::create(&out_dir, w),
        |sink, rank, counters, companion| {
            let manifest = bundle.manifest(rank).expect("a manifest for every rank");
            spans::enter(Name::Record);
            let (mut record, log) = if manifest.synthesized {
                // A rank the recording job quarantined: its record is
                // reproduced without a visit, as the crawler does.
                counters.records += 1;
                let record = SiteRecord {
                    rank,
                    origin: manifest.origin.clone(),
                    outcome: SiteOutcome::CrawlerError,
                    visit: None,
                    elapsed_ms: 0,
                    attempts: 0,
                };
                (record, None)
            } else {
                let origin = Url::parse(&manifest.origin).expect("recorded origin parses");
                visit_record(rank, &origin, &config, trace, counters, |attempt| {
                    let tape = bundle
                        .tape(rank, attempt as usize)
                        .expect("a tape for every recorded attempt");
                    TracedNetwork::new(netsim::ReplayNetwork::new(tape), Name::Tape, false)
                })
            };
            sink.push(&record);
            spans::exit();
            sink.digest(&record);
            if trace {
                retime_on(companion, rank, record.visit.take(), log, &config);
            }
        },
    );
    let wall_s = epoch.elapsed().as_secs_f64();
    let (sinks, collected) = collect(outs, args.value("--spans").map(Path::new))?;
    let (bytes, digests) = finish_sinks(sinks);
    visit_metrics(&mut m, &collected);
    record_metrics(&mut m, &collected);
    encode_metrics(
        &mut m,
        &collected,
        Name::JsonlEncode,
        "crawler.jsonl",
        bytes,
    );
    let (compared, mismatched) = compare(&digests, &args.list("--compare"))?;
    Ok(result_json(
        wall_s,
        &m,
        &[
            ("records", collected.counters.records as f64),
            ("panics", collected.counters.panics as f64),
            ("compared", compared as f64),
            ("mismatched", mismatched as f64),
        ],
    ))
}

/// Records the population behind `store` again into `into`, live, the
/// way `crawl --record` does, timing each `BundleRecorder::submit`.
fn record_pass(
    store: &Path,
    into: &Path,
    workers: usize,
    trace: bool,
    m: &mut Metrics,
) -> Result<(), String> {
    let stored = crawler::BundleMeta::load(store).map_err(|e| e.to_string())?;
    let config = CrawlConfig {
        workers,
        faults: netsim::FaultSpec {
            seed: stored.seed,
            panic_per_mille: 0,
            transient_per_mille: 0,
            transient_failures: 2,
        },
        ..CrawlConfig::default()
    };
    let meta =
        crawler::BundleMeta::for_crawl(&config, stored.seed, stored.size, stored.adversarial);
    if meta != stored {
        return Err(format!(
            "{} was not recorded by a plain `crawl --record`",
            store.display()
        ));
    }
    let population = webgen::WebPopulation::new(webgen::PopulationConfig {
        seed: stored.seed,
        size: stored.size,
    })
    .with_adversarial(stored.adversarial);
    let recorder = crawler::BundleRecorder::create(into, &meta).map_err(|e| e.to_string())?;
    let outs = pool(
        workers,
        stored.size,
        trace,
        Instant::now(),
        |_| (),
        |_, rank, counters, _| {
            let origin = population.origin(rank);
            spans::enter(Name::Record);
            let mut handles: Vec<netsim::TapeHandle> = Vec::new();
            let (_record, _) = visit_record(rank, &origin, &config, false, counters, |attempt| {
                let handle = netsim::TapeHandle::new();
                handles.push(handle.clone());
                netsim::RecordingNetwork::new(
                    FaultyNetwork::new(
                        SimNetwork::new(TracedProvider { inner: &population }),
                        &config.faults,
                        rank,
                        attempt,
                    ),
                    handle,
                )
            });
            let bundle = crawler::SiteBundle {
                rank,
                origin: origin.to_string(),
                synthesized: false,
                attempts: handles.iter().map(netsim::TapeHandle::take).collect(),
            };
            spans::timed(Name::BundleSubmit, || recorder.submit(bundle)).expect("bundle submit");
            spans::exit();
        },
    );
    recorder.finish().map_err(|e| e.to_string())?;
    let (_, collected) = collect(outs, None)?;
    let n = collected.counters.records;
    m.set(
        "crawler.bundle_submit_us_per_rec",
        us_per(collected.totals.self_ns(Name::BundleSubmit), n),
    );
    let stat =
        crawler::BundleStat::scan(into, crawler::StreamMode::Strict).map_err(|e| e.to_string())?;
    m.set("crawler.bundle_dedup_ratio", stat.dedup_ratio());
    Ok(())
}

/// `analyze --table all` over JSONL shards and `.colsh` shards, folded
/// per shard on a pool like the CLI's, with decoding and folding timed
/// per record and the static scan re-timed on the companion.
fn cmd_analyze(args: &Args) -> Result<String, String> {
    let workers: usize = args.parse("--workers")?;
    let trace = args.flag("--trace");
    let selection = analysis::stream::TableSelection::all();
    let mut m = Metrics::new();
    let mut rendered: Vec<String> = Vec::new();
    let mut totals = Totals::default();
    let mut counters = Counters::default();
    let mut per_format: Vec<(Name, u64, u64)> = Vec::new();
    let mut finish_s = 0.0;
    let epoch = Instant::now();
    for (decode, files) in [
        (Name::JsonlDecode, args.list("--jsonl")),
        (Name::ColshDecode, args.list("--colsh")),
    ] {
        if files.is_empty() {
            return Err("analyze needs --jsonl and --colsh shard files".to_string());
        }
        let outs = pool(
            workers,
            files.len() as u64,
            trace,
            epoch,
            |_| Vec::new(),
            |folded, item, counters, companion| {
                let path = &files[item as usize - 1];
                let mut stream = crawler::AnyRecordStream::open_projected(
                    path,
                    crawler::StreamMode::Strict,
                    selection.columns(),
                )
                .expect("open shard");
                let mut acc = analysis::stream::TableSet::new(selection);
                let mut seq = item << 32;
                loop {
                    seq += 1;
                    spans::set_id(seq);
                    spans::enter(Name::Record);
                    let next = spans::timed(decode, || stream.next());
                    let Some(record) = next else {
                        spans::exit();
                        break;
                    };
                    let record = record.expect("decode record");
                    spans::timed(Name::Fold, || {
                        analysis::stream::Accumulator::fold(&mut acc, &record)
                    });
                    spans::exit();
                    counters.records += 1;
                    if trace {
                        companion.run(Box::new(move |_| {
                            spans::set_id(seq);
                            retime::retime_static(&record);
                        }));
                    }
                }
                folded.push((item, acc));
            },
        );
        let (states, collected) = collect(outs, None)?;
        let started = Instant::now();
        let mut shards: Vec<(u64, analysis::stream::TableSet)> =
            states.into_iter().flatten().collect();
        shards.sort_by_key(|(item, _)| *item);
        let mut merged = analysis::stream::TableSet::new(selection);
        for (_, acc) in shards {
            analysis::stream::Accumulator::merge(&mut merged, acc);
        }
        let tables = analysis::stream::Accumulator::finish(merged);
        rendered.push(analysis::report::render_tables(&tables, "all", 10));
        finish_s += started.elapsed().as_secs_f64();
        per_format.push((
            decode,
            collected.totals.self_ns(decode),
            collected.counters.records,
        ));
        totals.add_totals(&collected.totals);
        counters.add(&collected.counters);
    }
    let wall_s = epoch.elapsed().as_secs_f64();
    let n = counters.records;
    let converted_identical = convert_pass(args, workers, trace, &mut m)?;
    for (decode, ns, records) in per_format {
        let key = if decode == Name::JsonlDecode {
            "crawler.jsonl_decode_us_per_rec"
        } else {
            "crawler.colsh_decode_us_per_rec"
        };
        m.set(key, us_per(ns, records));
    }
    let scan_ns = totals.self_ns(Name::StaticScan);
    m.set("staticscan.scan_us_per_rec", us_per(scan_ns, n));
    // The fold's own time, less the static scan it calls.
    m.set(
        "analysis.fold_us_per_rec",
        (totals.self_ns(Name::Fold) as f64 - scan_ns as f64) / n.max(1) as f64 / 1_000.0,
    );
    m.set("analysis.finish_ms", finish_s * 1_000.0 / 2.0);
    m.set(
        "trace.record_us_per_rec",
        us_per(totals.inclusive_ns(Name::Record), n),
    );
    m.set(
        "trace.remainder_us_per_rec",
        us_per(totals.self_ns(Name::Record), n),
    );
    let same = rendered[0] == rendered[1];
    let expected = match args.value("--expect") {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))? == rendered[0]
        }
        None => true,
    };
    Ok(result_json(
        wall_s,
        &m,
        &[
            ("records", n as f64),
            ("formats_agree", f64::from(u8::from(same))),
            ("matches_expected", f64::from(u8::from(expected))),
            (
                "converted_identical",
                f64::from(u8::from(converted_identical)),
            ),
        ],
    ))
}

/// The write side of the analyze inputs: re-encodes every JSONL shard
/// to `.colsh` as `convert` does, timing each `ColshWriter::push`, and
/// reports whether the result is byte-identical to the `--colsh` files.
fn convert_pass(args: &Args, workers: usize, trace: bool, m: &mut Metrics) -> Result<bool, String> {
    let (jsonl, colsh) = (args.list("--jsonl"), args.list("--colsh"));
    let out_dir = PathBuf::from(args.value("--out").ok_or("missing --out")?);
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let outs = pool(
        workers,
        jsonl.len() as u64,
        trace,
        Instant::now(),
        |_| Vec::new(),
        |identical, item, counters, _| {
            let i = item as usize - 1;
            let out = out_dir.join(format!("convert-{i}.colsh"));
            let stream = crawler::AnyRecordStream::open(&jsonl[i], crawler::StreamMode::Strict)
                .expect("open shard");
            let mut writer =
                crawler::ColshWriter::create_grouped(&out, crawler::DEFAULT_GROUP_RECORDS)
                    .expect("create .colsh")
                    .with_dict_epoch_groups(crawler::DEFAULT_DICT_EPOCH_GROUPS);
            for record in stream {
                let record = record.expect("decode record");
                spans::set_id(record.rank);
                spans::timed(Name::ColshEncode, || writer.push(&record)).expect("encode record");
                counters.records += 1;
            }
            spans::timed(Name::ColshEncode, || writer.finish()).expect("finish .colsh");
            let same = std::fs::read(&out).ok() == std::fs::read(&colsh[i]).ok();
            identical.push(same);
        },
    );
    let (states, collected) = collect(outs, None)?;
    let bytes: u64 = colsh
        .iter()
        .map(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
        .sum();
    encode_metrics(m, &collected, Name::ColshEncode, "crawler.colsh", bytes);
    Ok(states.iter().flatten().all(|same| *same) && states.iter().flatten().count() == colsh.len())
}

/// Checks a sharded dataset: every rank `1..=size` exactly once, each in
/// its stripe `(rank - 1) % shards` and in order. Prints the record
/// count, a digest of the records' JSONL form in rank order (the same
/// for either format), and how many records are quarantine stand-ins.
fn cmd_check(args: &Args) -> Result<String, String> {
    let shards: usize = args.parse("--shards")?;
    let size: u64 = args.parse("--size")?;
    let files = args.list("--files");
    if files.len() != shards {
        return Err(format!(
            "expected {shards} shard files, got {}",
            files.len()
        ));
    }
    let mut streams = Vec::new();
    for path in &files {
        streams.push(
            crawler::AnyRecordStream::open(path, crawler::StreamMode::Strict)
                .map_err(|e| format!("{}: {e}", path.display()))?,
        );
    }
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut bytes = 0u64;
    let mut records = 0u64;
    let mut quarantined = 0u64;
    let mut problem = String::new();
    let mut line = String::new();
    for rank in 1..=size {
        let shard = crawler::shard_index(rank, shards);
        let record = match streams[shard].next() {
            Some(Ok(record)) => record,
            Some(Err(e)) => return Err(format!("{}: {e}", files[shard].display())),
            None => {
                problem = format!("rank {rank} missing from {}", files[shard].display());
                break;
            }
        };
        if record.rank != rank {
            problem = format!("found rank {} where rank {rank} belongs", record.rank);
            break;
        }
        records += 1;
        if record.outcome == SiteOutcome::CrawlerError && record.attempts == 0 {
            quarantined += 1;
        }
        jsonl_line(&record, &mut line);
        bytes += line.len() as u64;
        hash = line.bytes().fold(hash, |acc, b| {
            (acc ^ u64::from(b)).wrapping_mul(0x1_0000_0000_01b3)
        });
    }
    if problem.is_empty() {
        if let Some(i) = streams.iter_mut().position(|s| s.next().is_some()) {
            problem = format!("{} holds records beyond rank {size}", files[i].display());
        }
    }
    Ok(format!(
        "{{\"records\": {records}, \"ok\": {}, \"problem\": {:?}, \"digest\": \"{hash:016x}-{bytes}\", \"quarantined\": {quarantined}}}",
        problem.is_empty(),
        problem
    ))
}

/// Runs one program and reports its wall time, CPU time and peak RSS.
/// Measuring from this small process keeps the peak RSS the program's
/// own: Linux carries a parent's high-water mark into a spawned child
/// until it execs, which would report a large launcher's RSS instead.
fn cmd_measure(args: &[String]) -> Result<String, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("measure needs -- PROGRAM")?;
    let (opts, argv) = (Args(&args[..split]), &args[split + 1..]);
    let program = argv.first().ok_or("measure needs -- PROGRAM")?;
    let sink = |name: &str, append: bool| -> Result<std::process::Stdio, String> {
        match opts.value(name) {
            Some(path) => std::fs::OpenOptions::new()
                .create(true)
                .write(true)
                .append(append)
                .truncate(!append)
                .open(path)
                .map(std::process::Stdio::from)
                .map_err(|e| format!("{path}: {e}")),
            None => Ok(std::process::Stdio::null()),
        }
    };
    // The sinks are opened before the clock starts: opening a file can
    // wait on the disk, which is not the child's work.
    let (stdout, stderr) = (sink("--stdout", false)?, sink("--stderr", true)?);
    let started = Instant::now();
    let status = std::process::Command::new(program)
        .args(&argv[1..])
        .stdin(std::process::Stdio::null())
        .stdout(stdout)
        .stderr(stderr)
        .status()
        .map_err(|e| format!("{program}: {e}"))?;
    let wall_s = started.elapsed().as_secs_f64();
    let usage = children_usage();
    let code = {
        use std::os::unix::process::ExitStatusExt;
        status
            .code()
            .unwrap_or_else(|| 128 + status.signal().unwrap_or(0))
    };
    Ok(format!(
        "{{\"wall_s\": {wall_s}, \"cpu_s\": {}, \"peak_rss_kib\": {}, \"status\": {code}}}",
        usage.utime.seconds() + usage.stime.seconds(),
        usage.maxrss
    ))
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

impl Timeval {
    fn seconds(&self) -> f64 {
        self.sec as f64 + self.usec as f64 / 1e6
    }
}

/// `struct rusage` on 64-bit Linux.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Resource usage of this process's waited-for children (here: one).
fn children_usage() -> Rusage {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage`.
    unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    usage
}
