//! Robustness: the whole pipeline must hold up across arbitrary seeds,
//! sizes and configurations — no panics, conserved invariants.

use permissions_odyssey::prelude::*;
use permissions_odyssey::{browser, crawler};

#[test]
fn pipeline_survives_many_seeds() {
    for seed in [0u64, 1, 2, 0xdead_beef, u64::MAX] {
        let population = WebPopulation::new(PopulationConfig { seed, size: 120 });
        let dataset = Crawler::new(CrawlConfig::default()).crawl(&population);
        let funnel = dataset.funnel();
        assert_eq!(funnel.attempted, 120, "seed {seed}");
        let sum = funnel.succeeded
            + funnel.unreachable
            + funnel.load_timeouts
            + funnel.ephemeral
            + funnel.crawler_errors
            + funnel.excluded;
        assert_eq!(sum, 120, "funnel partitions attempts (seed {seed})");
        // Every analysis runs without panicking.
        let report = analysis::report::full_report(
            &dataset,
            &analysis::report::ReportConfig {
                top_n: 5,
                extensions: true,
            },
        );
        assert!(report.contains("Table 9"), "seed {seed}");
    }
}

#[test]
fn tiny_and_single_site_populations_work() {
    for size in [1u64, 2, 3] {
        let population = WebPopulation::new(PopulationConfig { seed: 9, size });
        let dataset = Crawler::new(CrawlConfig {
            workers: 4, // more workers than sites
            ..CrawlConfig::default()
        })
        .crawl(&population);
        assert_eq!(dataset.records.len(), size as usize);
        let _ = analysis::usage::usage_summary(&dataset);
    }
}

#[test]
fn frame_invariants_hold_everywhere() {
    let population = WebPopulation::new(PopulationConfig { seed: 3, size: 250 });
    let dataset = Crawler::new(CrawlConfig::default()).crawl(&population);
    for record in dataset.successes() {
        let visit = record.visit.as_ref().unwrap();
        let n = visit.frames.len();
        let mut top_seen = 0;
        for frame in &visit.frames {
            // Frame ids are dense and parents precede children.
            assert!(frame.frame_id < n);
            if let Some(parent) = frame.parent {
                assert!(parent < frame.frame_id, "parent precedes child");
                assert!(frame.depth > 0);
            } else {
                assert!(frame.is_top_level);
            }
            if frame.is_top_level {
                top_seen += 1;
                assert_eq!(frame.depth, 0);
            }
            // Local documents never carry headers.
            if frame.is_local_document {
                assert!(frame.permissions_policy_header.is_none());
                assert!(frame.feature_policy_header.is_none());
            }
            // Invocation dedup invariant: no duplicate
            // (api, permissions, script) triples within a frame.
            for (i, a) in frame.invocations.iter().enumerate() {
                for b in &frame.invocations[i + 1..] {
                    assert!(
                        !(a.api_path == b.api_path
                            && a.script_url == b.script_url
                            && a.permissions == b.permissions),
                        "duplicate invocation record"
                    );
                }
            }
        }
        assert_eq!(top_seen, 1, "exactly one top-level frame per visit");
        // Prompts reference existing frames and powerful permissions.
        for prompt in &visit.prompts {
            assert!(prompt.frame_id < n);
            assert!(prompt.permission.info().powerful);
        }
    }
}

/// The hardening acceptance test: an adversarial population (hostile
/// iframes, runaway/malformed/oversized scripts, oversized headers,
/// redirect loops) crawls to completion with zero caught panics, every
/// degraded visit carries at least one structured degradation event, and
/// same-seed reruns are byte-identical.
#[test]
fn adversarial_crawl_degrades_gracefully_and_deterministically() {
    use std::collections::BTreeSet;

    let crawl_once = || {
        let population = WebPopulation::new(PopulationConfig {
            seed: 11,
            size: 300,
        })
        .with_adversarial(true);
        let telemetry = crawler::CrawlTelemetry::new(4);
        let mut records = Vec::new();
        let funnel = Crawler::new(CrawlConfig::default()).crawl_streaming_observed(
            &population,
            &BTreeSet::new(),
            &telemetry,
            |record| records.push(record),
        );
        records.sort_by_key(|r| r.rank);
        (CrawlDataset { records }, funnel, telemetry.snapshot())
    };

    let (dataset, funnel, snapshot) = crawl_once();

    // No content-layer panic escaped into the catch-all.
    assert_eq!(snapshot.panics_caught, 0, "hostile input caused a panic");

    // The hostile slice actually degraded visits, every one of them
    // carries at least one event, and telemetry agrees with the records.
    let mut degraded_visits = 0u64;
    let mut total_events = 0u64;
    let mut kinds = BTreeSet::new();
    for record in &dataset.records {
        let Some(visit) = &record.visit else { continue };
        if visit.degradations.is_empty() {
            assert_eq!(visit.schema_version, 0, "clean visits keep the v1 layout");
            continue;
        }
        degraded_visits += 1;
        total_events += visit.degradations.len() as u64;
        assert_eq!(visit.schema_version, browser::SCHEMA_VERSION);
        for event in &visit.degradations {
            assert!(event.frame_id < visit.frames.len().max(1) + 64);
            kinds.insert(event.kind);
        }
    }
    assert!(
        degraded_visits > 0,
        "adversarial mode produced no degradation"
    );
    assert!(
        kinds.len() >= 4,
        "expected several degradation kinds, got {kinds:?}"
    );
    assert_eq!(snapshot.degraded_visits, degraded_visits);
    assert_eq!(snapshot.degradation_events, total_events);
    assert_eq!(funnel.minor_errors, degraded_visits);

    // Degradation events serialize: the dataset round-trips to JSONL and
    // same-seed reruns are byte-identical.
    let dir = std::env::temp_dir().join("odyssey-adversarial-test");
    std::fs::create_dir_all(&dir).unwrap();
    let (path_a, path_b) = (dir.join("a.jsonl"), dir.join("b.jsonl"));
    crawler::write_jsonl(&dataset, &path_a).unwrap();
    let (rerun, _, _) = crawl_once();
    crawler::write_jsonl(&rerun, &path_b).unwrap();
    let bytes_a = std::fs::read(&path_a).unwrap();
    let bytes_b = std::fs::read(&path_b).unwrap();
    assert_eq!(
        bytes_a, bytes_b,
        "same-seed adversarial crawls must be byte-identical"
    );
    let reread = crawler::read_jsonl(&path_a).unwrap();
    assert_eq!(reread.records.len(), dataset.records.len());
    let _ = std::fs::remove_dir_all(&dir);

    // With adversarial mode off, the same population is entirely clean:
    // the governor's caps are headroom for calibrated sites, not a tax.
    let baseline_pop = WebPopulation::new(PopulationConfig {
        seed: 11,
        size: 300,
    });
    let baseline = Crawler::new(CrawlConfig::default()).crawl(&baseline_pop);
    for record in &baseline.records {
        if let Some(visit) = &record.visit {
            assert!(
                visit.degradations.is_empty(),
                "baseline visit degraded at rank {}",
                record.rank
            );
            assert_eq!(visit.schema_version, 0);
        }
    }
}

#[test]
fn worker_counts_never_change_results() {
    let population = WebPopulation::new(PopulationConfig { seed: 77, size: 60 });
    let summaries: Vec<String> = [1usize, 3, 7]
        .iter()
        .map(|&workers| {
            let dataset = Crawler::new(CrawlConfig {
                workers,
                ..CrawlConfig::default()
            })
            .crawl(&population);
            analysis::report::full_report(
                &dataset,
                &analysis::report::ReportConfig {
                    top_n: 10,
                    extensions: true,
                },
            )
        })
        .collect();
    assert_eq!(summaries[0], summaries[1]);
    assert_eq!(summaries[1], summaries[2]);
}

#[test]
fn adversarial_shard_streams_are_identical_at_any_worker_count() {
    use crawler::{DbFormat, Prepared, RankSource, ShardSink};
    use std::collections::BTreeSet;

    // Hostile origins make visit times uneven, so workers finish ranks
    // far out of order. The in-order drain must still write every shard
    // byte for byte the same, in rank order, at any worker count.
    const SIZE: u64 = 200;
    const SHARDS: usize = 4;
    let population = WebPopulation::new(PopulationConfig {
        seed: 11,
        size: SIZE,
    })
    .with_adversarial(true);
    let batch = Crawler::new(CrawlConfig::default()).crawl(&population);
    let dir =
        std::env::temp_dir().join(format!("odyssey-adversarial-shards-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (format, ext) in [(DbFormat::Jsonl, "jsonl"), (DbFormat::Colsh, "colsh")] {
        let mut reference: Option<Vec<Vec<u8>>> = None;
        for workers in [1usize, 2, 8] {
            let base = dir.join(format!("w{workers}.{ext}"));
            let paths: Vec<_> = (0..SHARDS).map(|i| crawler::shard_path(&base, i)).collect();
            let mut sinks: Vec<ShardSink> = paths
                .iter()
                .map(|path| ShardSink::create(path, format).unwrap())
                .collect();
            let mut delivered = Vec::new();
            let funnel = Crawler::new(CrawlConfig {
                workers,
                ..CrawlConfig::default()
            })
            .stream_prepared(
                RankSource::Live(&population),
                &BTreeSet::new(),
                &crawler::CrawlTelemetry::new(workers),
                &|record| Prepared::new(format, record),
                |rank, prepared| {
                    delivered.push(rank);
                    let shard = crawler::shard_index(rank, SHARDS);
                    sinks[shard].append(prepared).unwrap();
                },
            );
            for sink in sinks {
                sink.finish().unwrap();
            }
            assert_eq!(
                delivered,
                (1..=SIZE).collect::<Vec<_>>(),
                "{workers} workers"
            );
            assert_eq!(funnel, batch.funnel(), "{workers} workers");
            // Each shard holds its stripe, in rank order, and exactly the
            // records a batch crawl produces.
            for (shard, path) in paths.iter().enumerate() {
                let records: Vec<_> =
                    crawler::AnyRecordStream::open(path, crawler::StreamMode::Strict)
                        .unwrap()
                        .map(|record| record.unwrap())
                        .collect();
                let stripe: Vec<_> = batch
                    .records
                    .iter()
                    .filter(|r| crawler::shard_index(r.rank, SHARDS) == shard)
                    .cloned()
                    .collect();
                assert!(records == stripe, "{ext} shard {shard}, {workers} workers");
                if format == DbFormat::Jsonl {
                    let mut lines = String::new();
                    for record in &stripe {
                        lines.push_str(&serde_json::to_string(record).unwrap());
                        lines.push('\n');
                    }
                    assert!(
                        std::fs::read(path).unwrap() == lines.as_bytes(),
                        "JSONL shard {shard} bytes, {workers} workers"
                    );
                }
            }
            let bytes: Vec<Vec<u8>> = paths.iter().map(|p| std::fs::read(p).unwrap()).collect();
            match &reference {
                None => reference = Some(bytes),
                Some(reference) => assert!(
                    reference == &bytes,
                    "{ext} shards differ between 1 and {workers} workers"
                ),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
