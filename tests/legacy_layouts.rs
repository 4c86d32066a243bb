//! Files written by older releases still load.
//!
//! Job manifests (`job.json`) and bundle-store metadata (`bundle.json`)
//! once carried a `"js_engine"` field naming the script engine a crawl
//! ran on. The engine is no longer a choice, and the field is gone; the
//! record decoder ignores unknown fields, so a job started by an older
//! release resumes, and a store it recorded replays, byte for byte.

use std::path::{Path, PathBuf};

use crawler::{
    job_resume, job_start, AnyRecordStream, CrawlTelemetry, Crawler, DbFormat, JobError,
    JobManifest, JobOptions, JobState, ReplayBundle, StreamMode, BUNDLE_META_FILE,
};

const SIZE: u64 = 120;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("po-legacy-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn manifest() -> JobManifest {
    let mut manifest = JobManifest::new(7, SIZE, 3, DbFormat::Jsonl);
    manifest.fault_transients_per_mille = 60;
    manifest
}

fn options() -> JobOptions {
    JobOptions {
        workers: 2,
        lease_records: 16,
        ..JobOptions::default()
    }
}

fn shard_bytes(manifest: &JobManifest, dir: &Path) -> Vec<Vec<u8>> {
    manifest
        .shard_files(dir)
        .iter()
        .map(|path| std::fs::read(path).unwrap())
        .collect()
}

/// Bitwise IEEE CRC-32, the checksum of the `crc32:` trailer that
/// `job.json` and `bundle.json` carry.
fn ieee_crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in bytes {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// Rewrites a checksummed JSON file with `field` inserted before
/// `before` and the trailer recomputed: the layout an older release
/// wrote.
fn insert_field(path: &Path, before: &str, field: &str) {
    let text = std::fs::read_to_string(path).unwrap();
    let (body, _trailer) = text.split_once('\n').unwrap();
    assert!(body.contains(before), "{body}");
    let line = format!(
        "{}\n",
        body.replacen(before, &format!("{field}{before}"), 1)
    );
    let crc = ieee_crc32(line.as_bytes());
    std::fs::write(path, format!("{line}crc32:{crc:08x}\n")).unwrap();
}

#[test]
fn job_manifest_with_a_script_engine_field_resumes_byte_identically() {
    let manifest = manifest();
    let reference_dir = temp_dir("job-ref");
    let report = job_start(&reference_dir, &manifest, &options()).unwrap();
    assert_eq!(report.state, JobState::Complete);
    let reference = shard_bytes(&manifest, &reference_dir);
    std::fs::remove_dir_all(&reference_dir).ok();

    let dir = temp_dir("job");
    let mut opts = options();
    opts.abort_after_records = Some(40);
    let err = job_start(&dir, &manifest, &opts).unwrap_err();
    assert!(matches!(err, JobError::Aborted { .. }), "{err}");
    insert_field(
        &JobManifest::path(&dir),
        ",\"record_bundle\":",
        ",\"js_engine\":\"Interp\"",
    );
    assert_eq!(JobManifest::load(&dir).unwrap(), manifest);
    let report = job_resume(&dir, &options()).unwrap();
    assert_eq!(report.state, JobState::Complete);
    assert_eq!(shard_bytes(&manifest, &dir), reference);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bundle_meta_with_a_script_engine_field_replays_byte_identically() {
    let mut manifest = manifest();
    manifest.record_bundle = true;
    let dir = temp_dir("store");
    let report = job_start(&dir, &manifest, &options()).unwrap();
    assert_eq!(report.state, JobState::Complete);
    let mut dataset = Vec::new();
    for path in manifest.shard_files(&dir) {
        for record in AnyRecordStream::open(&path, StreamMode::Strict).unwrap() {
            dataset.push(record.unwrap());
        }
    }
    dataset.sort_by_key(|record| record.rank);
    let dataset: Vec<String> = dataset
        .iter()
        .map(|record| serde_json::to_string(record).unwrap())
        .collect();

    let store = JobManifest::bundle_dir(&dir);
    let meta = ReplayBundle::load(&store).unwrap().meta().clone();
    insert_field(&store.join(BUNDLE_META_FILE), "}", ",\"js_engine\":\"Vm\"");
    let bundle = ReplayBundle::load(&store).unwrap();
    assert_eq!(bundle.meta(), &meta);
    let mut replayed = Vec::new();
    Crawler::new(bundle.meta().replay_config(2)).replay_streaming_observed(
        &bundle,
        &std::collections::BTreeSet::new(),
        &CrawlTelemetry::new(2),
        |record| replayed.push(serde_json::to_string(&record).unwrap()),
    );
    assert_eq!(replayed, dataset);
    std::fs::remove_dir_all(&dir).ok();
}
