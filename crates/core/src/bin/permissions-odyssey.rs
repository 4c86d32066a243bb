//! The `permissions-odyssey` command-line tool.
//!
//! ```text
//! permissions-odyssey crawl    --size 20000 --seed 7 --out crawl.jsonl
//! permissions-odyssey analyze  --db crawl.jsonl [--table t4]
//! permissions-odyssey lint     "camera 'none'; microphone 'none'"
//! permissions-odyssey generate --preset disable-powerful
//! permissions-odyssey matrix
//! permissions-odyssey poc
//! ```

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use permissions_odyssey::prelude::*;
use permissions_odyssey::tools;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "crawl" => cmd_crawl(&args[1..]),
        "crawl-job" => cmd_crawl_job(&args[1..]),
        "bundle" => cmd_bundle(&args[1..]),
        "analyze" => cmd_analyze(&args[1..]),
        "convert" => cmd_convert(&args[1..]),
        "lint" => cmd_lint(&args[1..]),
        "generate" => cmd_generate(&args[1..]),
        "matrix" => cmd_matrix(),
        "poc" => cmd_poc(),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
permissions-odyssey — browser permission ecosystem measurement

USAGE:
  permissions-odyssey crawl    [--size N] [--seed S] [--workers W] [--out FILE]
                               [--shards N] [--resume] [--retries R]
                               [--format jsonl|columnar] [--adversarial]
                               [--fault-panics PM] [--fault-transients PM]
                               [--js-engine vm|interp]
                               [--record DIR | --replay DIR]
  permissions-odyssey bundle stat DIR [--lenient]
  permissions-odyssey crawl-job start  --dir DIR [--size N] [--seed S]
                               [--shards N] [--format jsonl|columnar]
                               [--workers W] [--lease N] [--retries R]
                               [--adversarial] [--fault-panics PM]
                               [--fault-transients PM] [--stop-file FILE]
                               [--status-every N] [--max-rss-mb M]
                               [--js-engine vm|interp] [--record]
  permissions-odyssey crawl-job resume --dir DIR [--workers W] [--lease N]
                               [--stop-file FILE] [--status-every N]
                               [--max-rss-mb M]
  permissions-odyssey crawl-job status --dir DIR
  permissions-odyssey crawl-job analyze --dir DIR [--follow] [--table NAME]
                               [--top N] [--interval-ms MS]
  permissions-odyssey analyze  --db FILE|DIR|GLOB [--table NAME] [--top N]
                               [--lenient] [--workers W] [--follow]
  permissions-odyssey convert  --in FILE --out FILE [--format jsonl|columnar]
                               [--group N] [--dict-epoch N]
  permissions-odyssey lint     <Permissions-Policy header value>
  permissions-odyssey generate [--preset disable-all|disable-powerful]
  permissions-odyssey matrix
  permissions-odyssey poc

FORMATS: databases are JSONL (interchange) or columnar `.colsh` (fast
  selective analysis). `analyze` sniffs each shard's format; `crawl` and
  `convert` infer the format from the output extension unless --format
  is given.

TABLES (analyze --table): funnel census completeness t3 t4 t5 t6 summary
  t7 t8 directives f2 t9 misconfig t10 groups exposure all (default)

JOBS: `crawl-job` runs a crawl as a resumable job — a directory holding
  a checksummed manifest, rank-striped shards, and a live status.json.
  Kill it at any point and `crawl-job resume` reproduces the
  uninterrupted dataset byte for byte; touch the --stop-file for a
  graceful checkpointed shutdown (exit 0). Prefer it over the older
  `crawl --resume` flow for anything long-running.

BUNDLES: `crawl --record DIR` captures every network exchange of the
  crawl into a content-addressed bundle store (bodies and header
  templates deduplicated by digest); `crawl --replay DIR` re-drives the
  identical crawl from the store — byte-identical dataset, generator
  never invoked, no other parameters needed. `crawl-job start --record`
  does the same for resumable jobs (store at DIR/bundle, kill/resume
  safe); `bundle stat` prints store accounting and the dedup ratio.

LIVE ANALYSIS: `crawl-job analyze` folds the analysis tables over a
  job's shards up to a consistent frontier (last complete line / row
  group) without racing the writer — run it while the job crawls. With
  --follow it keeps re-folding only the appended delta until the job
  finishes, writing each snapshot under DIR/tables/. `analyze --follow
  --db DIR` is the same thing spelled from the analyze side.";

/// Resolves `--format`, falling back to the output file's extension
/// (`.colsh` → columnar, anything else → JSONL).
fn out_format(args: &[String], out: &std::path::Path) -> Result<crawler::DbFormat, String> {
    match flag(args, "--format").as_deref() {
        Some("jsonl") => Ok(crawler::DbFormat::Jsonl),
        Some("columnar") | Some("colsh") => Ok(crawler::DbFormat::Colsh),
        Some(other) => Err(format!("unknown format `{other}` (jsonl|columnar)")),
        None => Ok(
            if out.extension().and_then(|e| e.to_str()) == Some("colsh") {
                crawler::DbFormat::Colsh
            } else {
                crawler::DbFormat::Jsonl
            },
        ),
    }
}

/// Extracts `--name value` from an argument list.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        Some(value) => value
            .parse()
            .map_err(|_| format!("invalid value for {name}: {value}")),
        None => Ok(default),
    }
}

fn cmd_crawl(args: &[String]) -> Result<(), String> {
    let record_dir = flag(args, "--record").map(PathBuf::from);
    let replay_dir = flag(args, "--replay").map(PathBuf::from);
    if record_dir.is_some() && replay_dir.is_some() {
        return Err("--record and --replay are mutually exclusive".to_string());
    }
    let workers: usize = parse_flag(args, "--workers", 8)?;
    let shards: usize = parse_flag(args, "--shards", 1)?;
    if shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }
    let resume = args.iter().any(|a| a == "--resume");
    if resume && record_dir.is_some() {
        return Err("--record needs a fresh crawl \
                    (use `crawl-job start --record` for a resumable recording)"
            .to_string());
    }
    let adversarial = args.iter().any(|a| a == "--adversarial");

    // A replay takes every dataset-determining parameter from the
    // bundle store's metadata; a live crawl parses them from flags.
    let replay = match &replay_dir {
        Some(dir) => Some(crawler::ReplayBundle::load(dir).map_err(|e| e.to_string())?),
        None => None,
    };
    let (size, seed, fault_panics) = match &replay {
        Some(bundle) => {
            let meta = bundle.meta();
            (meta.size, meta.seed, meta.fault_panics_per_mille)
        }
        None => (
            parse_flag(args, "--size", 20_000)?,
            parse_flag(args, "--seed", 7)?,
            parse_flag(args, "--fault-panics", 0)?,
        ),
    };
    let out: PathBuf = match flag(args, "--out") {
        Some(out) => out.into(),
        // Default file name follows the requested format.
        None => match flag(args, "--format").as_deref() {
            Some("columnar") | Some("colsh") => "crawl.colsh".into(),
            _ => "crawl.jsonl".into(),
        },
    };
    let format = out_format(args, &out)?;

    // The generator is never invoked on the replay path.
    let population = replay
        .is_none()
        .then(|| WebPopulation::new(PopulationConfig { seed, size }).with_adversarial(adversarial));
    if adversarial && replay.is_none() {
        eprintln!("adversarial-site mode: hostile origins enabled");
    }

    // Rank-striped shard files: rank r lands in shard (r - 1) % shards.
    // With one shard the database is the plain --out file.
    let shard_files: Vec<PathBuf> = if shards == 1 {
        vec![out.clone()]
    } else {
        (0..shards).map(|i| crawler::shard_path(&out, i)).collect()
    };

    // With --resume, recover the ranks an interrupted run already
    // persisted (per shard), drop any torn tail, and append.
    let mut completed = std::collections::BTreeSet::new();
    let mut writers: Vec<crawler::ShardSink> = Vec::with_capacity(shard_files.len());
    for path in &shard_files {
        let sink = if resume && path.exists() {
            let (sink, done) = crawler::ShardSink::resume(path, format)
                .map_err(|e| format!("resuming from {}: {e}", path.display()))?;
            completed.extend(done);
            sink
        } else {
            crawler::ShardSink::create(path, format)
                .map_err(|e| format!("creating {}: {e}", path.display()))?
        };
        writers.push(sink);
    }
    if resume && !completed.is_empty() {
        eprintln!(
            "resuming: {} of {size} origins already on disk",
            completed.len()
        );
    }
    let remaining = (1..=size).filter(|r| !completed.contains(r)).count() as u64;

    // Injected panics — live-injected or replayed from tape — are
    // caught and classified by the crawler; don't let the default hook
    // print a backtrace for each simulated crash. (Without fault
    // injection the hook stays untouched, so real bugs still report
    // loudly.)
    if fault_panics > 0 {
        quiet_injected_panics();
    }

    let config = match &replay {
        Some(bundle) => bundle.meta().replay_config(workers),
        None => {
            let retries: u32 = parse_flag(args, "--retries", CrawlConfig::default().max_retries)?;
            let fault_transients: u32 = parse_flag(args, "--fault-transients", 0)?;
            let js_engine: browser::ExecEngine =
                parse_flag(args, "--js-engine", browser::ExecEngine::default())?;
            CrawlConfig {
                workers,
                max_retries: retries,
                browser: BrowserConfig {
                    js_engine,
                    ..BrowserConfig::default()
                },
                faults: netsim::FaultSpec {
                    seed,
                    panic_per_mille: fault_panics,
                    transient_per_mille: fault_transients,
                    transient_failures: 2,
                },
                ..CrawlConfig::default()
            }
        }
    };
    let mut crawler = Crawler::new(config.clone());
    let recorder = match &record_dir {
        Some(dir) => {
            let meta = crawler::BundleMeta::for_crawl(&config, seed, size, adversarial);
            let recorder = std::sync::Arc::new(
                crawler::BundleRecorder::create(dir, &meta)
                    .map_err(|e| format!("creating bundle store: {e}"))?,
            );
            crawler = crawler.with_recorder(std::sync::Arc::clone(&recorder));
            Some(recorder)
        }
        None => None,
    };

    let doing = if replay.is_some() {
        "replaying"
    } else {
        "crawling"
    };
    eprintln!("{doing} {remaining} origins (seed {seed}, {workers} workers)…");
    let started = std::time::Instant::now();
    let telemetry = crawler::CrawlTelemetry::new(workers);
    let progress_every = (remaining / 10).max(1);
    let mut last_milestone = 0;
    // Stream records to disk as they complete (the paper's per-site
    // persistence, Appendix A.2 C14). Workers encode; this only appends.
    let mut write_error: Option<String> = None;
    let sink = |rank: u64, prepared: crawler::Prepared| {
        if write_error.is_some() {
            return;
        }
        let shard = crawler::shard_index(rank, writers.len());
        if let Err(e) = writers[shard].append(prepared) {
            write_error = Some(format!("{}: {e}", shard_files[shard].display()));
        }
        let milestone = telemetry.completed() / progress_every;
        if milestone > last_milestone {
            last_milestone = milestone;
            eprintln!("{}", telemetry.snapshot().progress_line(remaining));
        }
    };
    let source = match (&replay, &population) {
        (Some(bundle), _) => crawler::RankSource::Replay(bundle),
        (None, Some(population)) => crawler::RankSource::Live(population),
        (None, None) => unreachable!("a live crawl always has a population"),
    };
    let prepare = |record| crawler::Prepared::new(format, record);
    let funnel = crawler.stream_prepared(source, &completed, &telemetry, &prepare, sink);
    for writer in writers {
        writer.finish().map_err(|e| e.to_string())?;
    }
    if let Some(e) = write_error {
        return Err(format!("writing {e}"));
    }
    if let Some(recorder) = &recorder {
        let sites = recorder
            .finish()
            .map_err(|e| format!("finishing bundle store: {e}"))?;
        eprintln!(
            "bundle store recorded to {} ({sites} sites)",
            recorder.dir().display()
        );
    }
    eprintln!(
        "{} in {:.1}s",
        funnel.report(),
        started.elapsed().as_secs_f64()
    );
    eprintln!("{}", telemetry.snapshot().report());
    if shards == 1 {
        eprintln!("database written to {}", out.display());
    } else {
        eprintln!(
            "database written to {} shards: {} … {}",
            shards,
            shard_files[0].display(),
            shard_files[shards - 1].display()
        );
    }
    Ok(())
}

/// Silences the default panic hook while injected visit faults are
/// active — the crawler catches and classifies those panics on purpose,
/// and a backtrace per simulated crash would drown the progress output.
fn quiet_injected_panics() {
    std::panic::set_hook(Box::new(|info| {
        let detail = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("visit panicked");
        eprintln!("caught: {detail}");
    }));
}

/// Peak resident set size of this process in MiB, from Linux's
/// `VmHWM` accounting. `None` where procfs is unavailable.
fn peak_rss_mb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024)
}

/// Run-time job options shared by `crawl-job start` and `resume`.
fn job_options(args: &[String]) -> Result<crawler::JobOptions, String> {
    let defaults = crawler::JobOptions::default();
    Ok(crawler::JobOptions {
        workers: parse_flag(args, "--workers", defaults.workers)?,
        lease_records: parse_flag(args, "--lease", defaults.lease_records)?,
        status_every: parse_flag(args, "--status-every", defaults.status_every)?,
        stop_file: flag(args, "--stop-file").map(PathBuf::from),
        colsh_dict_epoch_groups: match flag(args, "--dict-epoch") {
            Some(n) => Some(
                n.parse()
                    .map_err(|_| format!("invalid value for --dict-epoch: {n}"))?,
            ),
            None => None,
        },
        abort_after_records: match flag(args, "--chaos-abort") {
            Some(n) => Some(
                n.parse()
                    .map_err(|_| format!("invalid value for --chaos-abort: {n}"))?,
            ),
            None => None,
        },
        progress: true,
        ..defaults
    })
}

/// Renders a finished job run and enforces the optional RSS ceiling.
fn finish_job_run(
    args: &[String],
    dir: &std::path::Path,
    report: crawler::JobReport,
) -> Result<(), String> {
    eprintln!("{}", report.render());
    if let Some(peak) = peak_rss_mb() {
        eprintln!("peak rss: {peak} MiB");
        let cap: u64 = parse_flag(args, "--max-rss-mb", 0)?;
        if cap > 0 && peak > cap {
            return Err(format!(
                "peak rss {peak} MiB exceeded the --max-rss-mb {cap} ceiling"
            ));
        }
    }
    if report.state == crawler::JobState::Stopped {
        eprintln!(
            "stopped gracefully; continue with: permissions-odyssey crawl-job resume --dir {}",
            dir.display()
        );
    }
    Ok(())
}

fn cmd_crawl_job(args: &[String]) -> Result<(), String> {
    let Some(verb) = args.first() else {
        return Err(format!("crawl-job requires start|resume|status\n{USAGE}"));
    };
    let rest = &args[1..];
    let dir: PathBuf = flag(rest, "--dir")
        .ok_or("crawl-job requires --dir DIR")?
        .into();
    match verb.as_str() {
        "start" => {
            let size: u64 = parse_flag(rest, "--size", 20_000)?;
            let seed: u64 = parse_flag(rest, "--seed", 7)?;
            let shards: usize = parse_flag(rest, "--shards", 1)?;
            if shards == 0 || size == 0 {
                return Err("--shards and --size must be at least 1".to_string());
            }
            let format = match flag(rest, "--format").as_deref() {
                None | Some("jsonl") => crawler::DbFormat::Jsonl,
                Some("columnar") | Some("colsh") => crawler::DbFormat::Colsh,
                Some(other) => return Err(format!("unknown format `{other}` (jsonl|columnar)")),
            };
            let mut manifest = crawler::JobManifest::new(seed, size, shards, format);
            manifest.record_bundle = rest.iter().any(|a| a == "--record");
            manifest.adversarial = rest.iter().any(|a| a == "--adversarial");
            manifest.max_retries = parse_flag(rest, "--retries", manifest.max_retries)?;
            manifest.fault_panics_per_mille = parse_flag(rest, "--fault-panics", 0)?;
            manifest.fault_transients_per_mille = parse_flag(rest, "--fault-transients", 0)?;
            manifest.js_engine = parse_flag(rest, "--js-engine", manifest.js_engine)?;
            if manifest.fault_panics_per_mille > 0 {
                quiet_injected_panics();
            }
            let opts = job_options(rest)?;
            eprintln!(
                "starting job in {}: {size} origins, {} shard(s), {} worker(s)…",
                dir.display(),
                shards,
                opts.workers
            );
            let report = crawler::job_start(&dir, &manifest, &opts).map_err(|e| e.to_string())?;
            finish_job_run(rest, &dir, report)
        }
        "resume" => {
            let manifest = crawler::JobManifest::load(&dir).map_err(|e| e.to_string())?;
            if manifest.fault_panics_per_mille > 0 {
                quiet_injected_panics();
            }
            let opts = job_options(rest)?;
            eprintln!(
                "resuming job in {}: {} origins, {} worker(s)…",
                dir.display(),
                manifest.size,
                opts.workers
            );
            let report = crawler::job_resume(&dir, &opts).map_err(|e| e.to_string())?;
            finish_job_run(rest, &dir, report)
        }
        "status" => {
            let status = crawler::read_status(&dir)
                .map_err(|e| format!("no readable status for the job in {}: {e}", dir.display()))?;
            println!(
                "state:     {}\nprogress:  {}/{} written this run \
                 ({} resumed, {} remaining)\nrate:      {:.0} records/sec, eta {:.0}s\n\
                 queues:    {} leases pending, writer buffer {} (peak {})\n\
                 leases:    {} retried, {} quarantined\n\
                 visits:    {} retries, {} panics caught, {} degraded",
                status.state,
                status.written,
                status.planned,
                status.resumed_from,
                status.remaining,
                status.rate_per_sec,
                status.eta_secs.min(86_400_000.0),
                status.lease_queue_depth,
                status.writer_pending,
                status.writer_peak_pending,
                status.leases_retried,
                status.leases_quarantined,
                status.retries,
                status.panics_caught,
                status.degraded_visits,
            );
            Ok(())
        }
        "analyze" => {
            let table = flag(rest, "--table").unwrap_or_else(|| "all".to_string());
            let top: usize = parse_flag(rest, "--top", 10)?;
            let follow = rest.iter().any(|a| a == "--follow");
            let interval_ms: u64 = parse_flag(rest, "--interval-ms", 500)?;
            run_live_analyze(&dir, &table, top, follow, interval_ms)
        }
        other => Err(format!("unknown crawl-job verb `{other}`\n{USAGE}")),
    }
}

/// `bundle stat DIR`: accounting for a record/replay bundle store —
/// site/attempt/exchange counts, blob dedup, and on-disk size.
fn cmd_bundle(args: &[String]) -> Result<(), String> {
    let Some(verb) = args.first() else {
        return Err(format!("bundle requires stat\n{USAGE}"));
    };
    let rest = &args[1..];
    match verb.as_str() {
        "stat" => {
            let dir: PathBuf = match flag(rest, "--dir") {
                Some(dir) => dir.into(),
                None => rest
                    .iter()
                    .find(|a| !a.starts_with("--"))
                    .cloned()
                    .ok_or("bundle stat requires a store directory")?
                    .into(),
            };
            if !crawler::is_bundle_store(&dir) {
                return Err(format!("{} is not a bundle store", dir.display()));
            }
            let mode = if rest.iter().any(|a| a == "--lenient") {
                crawler::StreamMode::Lenient
            } else {
                crawler::StreamMode::Strict
            };
            let stat = crawler::BundleStat::scan(&dir, mode).map_err(|e| e.to_string())?;
            // Ignore write errors: piping into `head` must not panic.
            let _ = writeln!(
                std::io::stdout(),
                "sites:       {} ({} synthesized)\n\
                 attempts:    {}\n\
                 exchanges:   {}\n\
                 blobs:       {} unique, {} bytes stored\n\
                 referenced:  {} bytes before dedup\n\
                 dedup ratio: {:.2}\n\
                 store size:  {} bytes on disk",
                stat.sites,
                stat.synthesized,
                stat.attempts,
                stat.exchanges,
                stat.unique_blobs,
                stat.stored_bytes,
                stat.referenced_bytes,
                stat.dedup_ratio(),
                stat.store_file_bytes,
            );
            let _ = std::io::stdout().flush();
            if stat.blob_skips.skipped > 0 || stat.manifest_skips.skipped > 0 {
                eprintln!(
                    "lenient: skipped {} blob record(s), {} manifest record(s)",
                    stat.blob_skips.skipped, stat.manifest_skips.skipped
                );
            }
            Ok(())
        }
        other => Err(format!("unknown bundle verb `{other}`\n{USAGE}")),
    }
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let db = flag(args, "--db").ok_or("analyze requires --db FILE|DIR|GLOB")?;
    let table = flag(args, "--table").unwrap_or_else(|| "all".to_string());
    let top: usize = parse_flag(args, "--top", 10)?;
    let lenient = args.iter().any(|a| a == "--lenient");

    // `--follow` reads --db as a job directory and hands off to the
    // live frontier loop (the same thing as `crawl-job analyze`).
    if args.iter().any(|a| a == "--follow") {
        let interval_ms: u64 = parse_flag(args, "--interval-ms", 500)?;
        return run_live_analyze(std::path::Path::new(&db), &table, top, true, interval_ms);
    }

    // One streaming pass per shard: the selected tables fold record by
    // record, so peak memory never depends on the dataset size.
    let paths = crawler::expand_db_paths(&db).map_err(|e| format!("resolving {db}: {e}"))?;
    let workers: usize = parse_flag(args, "--workers", paths.len().min(8))?;
    let selection = analysis::stream::TableSelection::named(&table)
        .ok_or_else(|| format!("unknown table `{table}`\n{USAGE}"))?;
    let mode = if lenient {
        crawler::StreamMode::Lenient
    } else {
        crawler::StreamMode::Strict
    };
    let started = std::time::Instant::now();
    let (tables, telemetry) = analysis::stream::analyze_shards(&paths, mode, workers, selection)
        .map_err(|e| format!("reading {e}"))?;
    for (path, skip) in &telemetry.skipped {
        if skip.skipped > 0 {
            eprintln!(
                "lenient: skipped {} corrupt line(s) in {} ({})",
                skip.skipped,
                path.display(),
                skip.describe()
            );
        }
        if skip.torn_tail {
            eprintln!(
                "lenient: {} ends mid-record (torn live tail, treated as end of data)",
                path.display()
            );
        }
    }
    eprintln!(
        "analyzed {} records from {} shard(s) in {:.1}s ({} worker(s))",
        telemetry.records,
        telemetry.shards,
        started.elapsed().as_secs_f64(),
        workers.clamp(1, telemetry.shards.max(1)),
    );

    // Ignore write errors: piping into `head` must not panic the tool.
    let rendered = analysis::report::render_tables(&tables, &table, top);
    let _ = write!(std::io::stdout(), "{rendered}");
    Ok(())
}

/// The live analysis loop behind `crawl-job analyze` and
/// `analyze --follow`: folds the selected tables over a job's shards up
/// to a consistent frontier, then (with `follow`) keeps re-folding only
/// the appended delta until the job reaches a terminal state or the
/// frontier covers the whole population.
///
/// Every snapshot is written under `DIR/tables/`:
/// `frontier-<records>/tables.txt` plus a `frontier.json` tag, and
/// `tables/latest.txt` (atomically replaced) always holds the newest
/// snapshot — byte-identical to what a batch `analyze` at the same
/// frontier prints, which is what the ci.sh gate `diff`s.
fn run_live_analyze(
    dir: &std::path::Path,
    table: &str,
    top: usize,
    follow: bool,
    interval_ms: u64,
) -> Result<(), String> {
    // With --follow the job may not have written its manifest yet —
    // wait a bounded while for it instead of racing the starter.
    let manifest = {
        let mut attempt = 0;
        loop {
            match crawler::JobManifest::load(dir) {
                Ok(manifest) => break manifest,
                Err(_) if follow && attempt < 100 => {
                    attempt += 1;
                    std::thread::sleep(std::time::Duration::from_millis(100));
                }
                Err(e) => return Err(e.to_string()),
            }
        }
    };
    let selection = analysis::stream::TableSelection::named(table)
        .ok_or_else(|| format!("unknown table `{table}`\n{USAGE}"))?;
    let shard_files = manifest.shard_files(dir);
    let mut live = analysis::stream::LiveAnalysis::new(&shard_files, manifest.format, selection);
    let tables_dir = dir.join("tables");
    std::fs::create_dir_all(&tables_dir)
        .map_err(|e| format!("creating {}: {e}", tables_dir.display()))?;
    let started = std::time::Instant::now();
    let mut last_records: Option<u64> = None;
    loop {
        // Read the job state *before* folding: a frontier taken after a
        // terminal status is durable covers everything the job wrote,
        // so this tick's snapshot is the final one.
        let state = crawler::read_status(dir)
            .map(|s| s.state)
            .unwrap_or_else(|_| "unknown".to_string());
        let terminal = matches!(state.as_str(), "complete" | "stopped" | "failed");
        let frontier = live
            .tick()
            .map_err(|e| format!("following {}: {e}", dir.display()))?;
        let records = frontier.records();
        if last_records != Some(records) {
            last_records = Some(records);
            let tables = live.snapshot();
            let rendered = analysis::report::render_tables(&tables, table, top);
            write_snapshot(&tables_dir, &frontier, &rendered, table, top)
                .map_err(|e| format!("writing snapshot under {}: {e}", tables_dir.display()))?;
            eprintln!(
                "[{:7.1}s] frontier: {} records, {} bytes, job {}",
                started.elapsed().as_secs_f64(),
                records,
                frontier.bytes(),
                state
            );
            if !follow {
                let _ = write!(std::io::stdout(), "{rendered}");
                return Ok(());
            }
        }
        if !follow || terminal || records >= manifest.size {
            eprintln!(
                "final frontier: {} of {} records ({})",
                records, manifest.size, state
            );
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// Persists one live snapshot: a per-frontier directory with the
/// rendered tables and a frontier tag, plus `latest.txt` swapped in via
/// a temp file + rename so concurrent readers never see a torn file.
fn write_snapshot(
    tables_dir: &std::path::Path,
    frontier: &analysis::stream::JobFrontier,
    rendered: &str,
    table: &str,
    top: usize,
) -> std::io::Result<()> {
    let snap_dir = tables_dir.join(format!("frontier-{:09}", frontier.records()));
    std::fs::create_dir_all(&snap_dir)?;
    std::fs::write(snap_dir.join("tables.txt"), rendered)?;
    // The frontier tag lives next to the tables, not in them, so
    // `tables.txt` / `latest.txt` stay byte-comparable to batch output.
    let mut tag = String::new();
    tag.push_str("{\n");
    tag.push_str(&format!("  \"records\": {},\n", frontier.records()));
    tag.push_str(&format!("  \"bytes\": {},\n", frontier.bytes()));
    tag.push_str(&format!("  \"table\": \"{table}\",\n"));
    tag.push_str(&format!("  \"top\": {top},\n"));
    tag.push_str("  \"shards\": [\n");
    for (i, shard) in frontier.shards.iter().enumerate() {
        let comma = if i + 1 == frontier.shards.len() {
            ""
        } else {
            ","
        };
        tag.push_str(&format!(
            "    {{ \"records\": {}, \"bytes\": {} }}{comma}\n",
            shard.records, shard.bytes
        ));
    }
    tag.push_str("  ]\n}\n");
    std::fs::write(snap_dir.join("frontier.json"), tag)?;
    let tmp = tables_dir.join("latest.txt.tmp");
    std::fs::write(&tmp, rendered)?;
    std::fs::rename(&tmp, tables_dir.join("latest.txt"))
}

/// `convert --in FILE --out FILE [--format jsonl|columnar]`: re-encodes
/// one database file between the interchange (JSONL) and analysis
/// (columnar) formats, streaming record by record. The source format is
/// sniffed; the target format follows `--format` or the output
/// extension. A JSONL → columnar → JSONL round trip is byte-identical
/// (the ci.sh gate `cmp`s it).
fn cmd_convert(args: &[String]) -> Result<(), String> {
    let input: PathBuf = flag(args, "--in")
        .ok_or("convert requires --in FILE")?
        .into();
    let out: PathBuf = flag(args, "--out")
        .ok_or("convert requires --out FILE")?
        .into();
    let format = out_format(args, &out)?;
    // A directory mixing a bundle store with record shards is refused
    // loudly rather than silently re-encoding only the shard half.
    crawler::refuse_mixed_bundle_dir(&input).map_err(|e| e.to_string())?;
    let group: usize = parse_flag(args, "--group", crawler::DEFAULT_GROUP_RECORDS)?;
    let epoch: u64 = parse_flag(args, "--dict-epoch", crawler::DEFAULT_DICT_EPOCH_GROUPS)?;
    let stream = crawler::AnyRecordStream::open(&input, crawler::StreamMode::Strict)
        .map_err(|e| format!("opening {}: {e}", input.display()))?;
    let mut sink = crawler::ShardSink::create(&out, format)
        .map_err(|e| format!("creating {}: {e}", out.display()))?
        .with_colsh_layout(group, epoch);
    let mut records = 0u64;
    for record in stream {
        let record = record.map_err(|e| format!("reading {}: {e}", input.display()))?;
        sink.append(crawler::Prepared::new(format, record))
            .map_err(|e| format!("writing {}: {e}", out.display()))?;
        records += 1;
    }
    sink.finish()
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    eprintln!(
        "converted {records} records: {} -> {}",
        input.display(),
        out.display()
    );
    Ok(())
}

fn cmd_lint(args: &[String]) -> Result<(), String> {
    let header = args.join(" ");
    if header.trim().is_empty() {
        return Err("lint requires a header value".to_string());
    }
    let findings = tools::linter::lint(&header);
    if findings.is_empty() {
        println!("✓ header is well-formed");
        return Ok(());
    }
    for finding in findings {
        println!("✗ {}", finding.problem);
        println!("  fix: {}", finding.suggestion);
    }
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let preset = match flag(args, "--preset").as_deref() {
        None | Some("disable-powerful") => tools::generator::Preset::DisablePowerful,
        Some("disable-all") => tools::generator::Preset::DisableAll,
        Some(other) => return Err(format!("unknown preset `{other}`")),
    };
    println!(
        "Permissions-Policy: {}",
        tools::generator::permissions_policy_value(&preset)
    );
    println!(
        "Feature-Policy:     {}",
        tools::generator::feature_policy_value(&preset)
    );
    Ok(())
}

fn cmd_matrix() -> Result<(), String> {
    let _ = write!(std::io::stdout(), "{}", tools::support_matrix::render());
    Ok(())
}

fn cmd_poc() -> Result<(), String> {
    println!("{}", tools::poc::render_delegation_matrix());
    println!("{}", tools::poc::render_local_scheme_issue());
    Ok(())
}
