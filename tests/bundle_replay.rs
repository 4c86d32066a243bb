//! Record/replay bundle-store properties.
//!
//! The content-addressed bundle store must make a crawl perfectly
//! reproducible without the generator: for *arbitrary* crawl
//! parameters — injected panics mid-visit, transient failures eating
//! retries, adversarial populations, degraded visits — recording a
//! crawl and replaying the store must emit byte-identical records.
//! Damage must never pass silently: truncating either pack file at any
//! byte offset is a strict-mode error or a valid shorter prefix (never
//! an invented record), lenient mode counts what it skips, and a
//! flipped byte anywhere in `blobs.bin` trips a frame checksum.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crawler::{
    BundleMeta, BundleRecorder, BundleStat, CrawlConfig, Crawler, ReplayBundle, SiteRecord,
    StreamMode, BUNDLE_BLOBS_FILE, BUNDLE_MANIFESTS_FILE,
};
use proptest::prelude::*;
use webgen::{PopulationConfig, WebPopulation};

/// A unique scratch directory per call — proptest cases run on several
/// threads inside one process.
fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("po-bundle-replay-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Silences the default panic hook once: injected visit faults panic on
/// purpose (and replay reproduces those panics), and a backtrace per
/// simulated crash would drown the test output.
fn quiet_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        std::panic::set_hook(Box::new(|_| {}));
    });
}

fn jsonl(records: &[SiteRecord]) -> Vec<String> {
    records
        .iter()
        .map(|r| serde_json::to_string(r).expect("encode record"))
        .collect()
}

/// Records a crawl of `size` origins into a fresh store, returning the
/// store directory and the live records in rank order.
fn record_crawl(
    tag: &str,
    config: &CrawlConfig,
    seed: u64,
    size: u64,
    adversarial: bool,
) -> (PathBuf, Vec<SiteRecord>) {
    let dir = scratch(tag);
    let meta = BundleMeta::for_crawl(config, seed, size, adversarial);
    let recorder = Arc::new(BundleRecorder::create(&dir, &meta).expect("create store"));
    let crawler = Crawler::new(config.clone()).with_recorder(Arc::clone(&recorder));
    let population =
        WebPopulation::new(PopulationConfig { seed, size }).with_adversarial(adversarial);
    let mut live = Vec::new();
    crawler.crawl_streaming(&population, |record| live.push(record));
    let recorded = recorder.finish().expect("finish store");
    assert_eq!(recorded, size, "every rank must be captured");
    (dir, live)
}

/// Replays a store, returning the records in rank order.
fn replay_crawl(dir: &std::path::Path, workers: usize) -> Vec<SiteRecord> {
    let bundle = ReplayBundle::load(dir).expect("load store");
    let crawler = Crawler::new(bundle.meta().replay_config(workers));
    let mut replayed = Vec::new();
    let telemetry = crawler::CrawlTelemetry::new(workers);
    crawler.replay_streaming_observed(
        &bundle,
        &std::collections::BTreeSet::new(),
        &telemetry,
        |record| replayed.push(record),
    );
    replayed
}

proptest! {
    /// Record → replay is byte-identical for arbitrary crawl
    /// parameters, including faulted, retried and adversarial visits,
    /// and regardless of the replaying worker count. Each case records
    /// and replays a whole (small) crawl, so sizes stay single-digit.
    #[test]
    fn record_replay_round_trip_is_byte_identical(
        seed in 0u64..1_000_000,
        size in 1u64..9,
        panic_per_mille in prop_oneof![Just(0u32), Just(60), Just(250)],
        transient_per_mille in prop_oneof![Just(0u32), Just(120), Just(400)],
        max_retries in 0u32..3,
        adversarial in prop::bool::ANY,
        replay_workers in 1usize..4,
    ) {
        quiet_panics();
        let config = CrawlConfig {
            workers: 2,
            max_retries,
            faults: crawler::FaultSpec {
                seed,
                panic_per_mille,
                transient_per_mille,
                transient_failures: 2,
            },
            ..CrawlConfig::default()
        };
        let (dir, live) = record_crawl("rt", &config, seed, size, adversarial);
        let replayed = replay_crawl(&dir, replay_workers);
        prop_assert_eq!(jsonl(&replayed), jsonl(&live));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A flipped byte anywhere in `blobs.bin` is a strict-mode error
    /// (frame checksum, digest verification, or magic check — nothing
    /// passes silently), and lenient mode still terminates.
    #[test]
    fn blob_corruption_trips_checksums(
        seed in 0u64..100_000,
        offset_frac in 0.0f64..1.0,
        flip in 1u32..256,
    ) {
        quiet_panics();
        let config = CrawlConfig { workers: 1, ..CrawlConfig::default() };
        let (dir, _) = record_crawl("flip", &config, seed, 3, false);
        let path = dir.join(BUNDLE_BLOBS_FILE);
        let mut bytes = std::fs::read(&path).expect("read blobs");
        let at = ((bytes.len() - 1) as f64 * offset_frac) as usize;
        bytes[at] ^= flip as u8;
        std::fs::write(&path, &bytes).expect("write corrupt blobs");
        prop_assert!(
            ReplayBundle::load(&dir).is_err(),
            "flipping byte {at} of {} must fail a strict load",
            bytes.len()
        );
        prop_assert!(BundleStat::scan(&dir, StreamMode::Strict).is_err());
        // Lenient never panics and never invents data beyond the damage.
        BundleStat::scan(&dir, StreamMode::Lenient).expect("lenient scan terminates");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Truncating either pack file at *every* byte offset is loud in Strict
/// mode — either an outright error or a valid shorter store whose
/// replay still matches the corresponding prefix of the live records —
/// and lenient accounting always terminates without inventing sites.
#[test]
fn truncation_at_every_byte_is_loud_or_counted() {
    quiet_panics();
    let config = CrawlConfig {
        workers: 1,
        faults: crawler::FaultSpec {
            seed: 11,
            panic_per_mille: 150,
            transient_per_mille: 200,
            transient_failures: 2,
        },
        ..CrawlConfig::default()
    };
    let (dir, live) = record_crawl("trunc", &config, 11, 4, false);
    let live_jsonl = jsonl(&live);
    for file in [BUNDLE_BLOBS_FILE, BUNDLE_MANIFESTS_FILE] {
        let path = dir.join(file);
        let full = std::fs::read(&path).expect("read pack file");
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).expect("write truncated");
            match ReplayBundle::load(&dir) {
                Err(_) => {} // loud: torn frame, dangling ref, bad magic
                Ok(bundle) => {
                    // A frame-boundary truncation of manifests.bin is a
                    // valid shorter store (exactly what a checkpointed
                    // recording leaves); it must replay its prefix
                    // byte-identically and never invent sites.
                    let sites = bundle.sites();
                    assert!(
                        sites < live.len() as u64,
                        "{file} cut at {cut}: truncation kept all {sites} sites"
                    );
                    let replayed = replay_crawl(&dir, 1);
                    assert_eq!(
                        jsonl(&replayed),
                        live_jsonl[..sites as usize],
                        "{file} cut at {cut}: prefix replay diverged"
                    );
                }
            }
            let stat =
                BundleStat::scan(&dir, StreamMode::Lenient).expect("lenient scan terminates");
            assert!(
                stat.sites <= live.len() as u64,
                "{file} cut at {cut}: lenient invented sites"
            );
        }
        std::fs::write(&path, &full).expect("restore pack file");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The recorded store is smaller than the JSONL dataset it reproduces:
/// shared scripts and header templates dedup across the population.
#[test]
fn store_is_smaller_than_jsonl_dataset() {
    let config = CrawlConfig {
        workers: 2,
        ..CrawlConfig::default()
    };
    let (dir, live) = record_crawl("size", &config, 7, 40, false);
    let jsonl_bytes: u64 = jsonl(&live).iter().map(|l| l.len() as u64 + 1).sum();
    let stat = BundleStat::scan(&dir, StreamMode::Strict).expect("scan store");
    assert!(
        stat.store_file_bytes < jsonl_bytes,
        "store ({} bytes) must be smaller than the JSONL dataset ({jsonl_bytes} bytes)",
        stat.store_file_bytes
    );
    assert!(
        stat.dedup_ratio() > 1.0,
        "a multi-site crawl must share blobs (ratio {})",
        stat.dedup_ratio()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Workers hash blobs and encode manifests concurrently before the
/// recorder commits them in rank order, so the store's bytes must not
/// depend on how many workers recorded it.
#[test]
fn store_bytes_do_not_depend_on_recording_workers() {
    let store = |workers: usize| {
        let config = CrawlConfig {
            workers,
            ..CrawlConfig::default()
        };
        let (dir, _) = record_crawl(&format!("workers{workers}"), &config, 7, 60, true);
        let bytes: Vec<Vec<u8>> = [BUNDLE_BLOBS_FILE, BUNDLE_MANIFESTS_FILE]
            .iter()
            .map(|file| std::fs::read(dir.join(file)).expect("read pack file"))
            .collect();
        std::fs::remove_dir_all(&dir).ok();
        bytes
    };
    let serial = store(1);
    for workers in [2, 8] {
        assert!(
            store(workers) == serial,
            "a store recorded by {workers} workers differs from a serial recording"
        );
    }
}
