//! Rank-striped shard output, shared by `crawl` and the job engine.
//!
//! Delivery is split in two. The worker that visited a rank prepares
//! its record with [`Prepared::new`]: a JSONL line is encoded there,
//! and the record is dropped before the in-order writer is involved.
//! The in-order writer then only appends prepared bytes to the rank's
//! [`ShardSink`]. A `.colsh` record passes through unencoded, because
//! the columnar dictionaries assign ids in record order.

use std::collections::BTreeSet;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::Path;

use crate::colsh::{resume_colsh, ColshWriter};
use crate::db::{resume_jsonl, DbFormat};
use crate::run::SiteRecord;

/// A record made ready for its shard by the worker that visited it.
pub enum Prepared {
    /// A JSONL line, newline included.
    Line(Vec<u8>),
    /// A record bound for a `.colsh` shard, encoded by the in-order
    /// writer.
    Record(SiteRecord),
}

impl Prepared {
    /// Prepares `record` for a shard in `format`, consuming it.
    pub fn new(format: DbFormat, record: SiteRecord) -> Prepared {
        match format {
            DbFormat::Jsonl => {
                let mut line = String::new();
                serde_json::to_string_into(&record, &mut line);
                line.push('\n');
                Prepared::Line(line.into_bytes())
            }
            DbFormat::Colsh => Prepared::Record(record),
        }
    }
}

/// One shard's record sink, in either database format.
// One sink exists per shard, so the size gap between variants is moot.
#[allow(clippy::large_enum_variant)]
pub enum ShardSink {
    /// A JSONL shard and the number of records in it.
    Jsonl {
        /// The shard file.
        out: BufWriter<File>,
        /// Records in the file, including those found on resume.
        records: u64,
    },
    /// A `.colsh` shard.
    Colsh(ColshWriter),
}

impl ShardSink {
    /// Creates a fresh shard at `path`, replacing any file there.
    pub fn create(path: &Path, format: DbFormat) -> std::io::Result<ShardSink> {
        Ok(match format {
            DbFormat::Jsonl => ShardSink::Jsonl {
                out: BufWriter::new(File::create(path)?),
                records: 0,
            },
            DbFormat::Colsh => ShardSink::Colsh(ColshWriter::create(path)?),
        })
    }

    /// Reopens the shard at `path` after an interrupted run: truncates
    /// any torn tail and returns the sink, positioned to append, with
    /// the ranks already complete on disk.
    pub fn resume(path: &Path, format: DbFormat) -> std::io::Result<(ShardSink, BTreeSet<u64>)> {
        Ok(match format {
            DbFormat::Jsonl => {
                let state = resume_jsonl(path)?;
                let file = OpenOptions::new().append(true).open(path)?;
                file.set_len(state.valid_len)?;
                let sink = ShardSink::Jsonl {
                    out: BufWriter::new(file),
                    records: state.completed.len() as u64,
                };
                (sink, state.completed)
            }
            DbFormat::Colsh => {
                let (state, append) = resume_colsh(path)?;
                let writer = ColshWriter::append(path, state.valid_len, append)?;
                (ShardSink::Colsh(writer), state.completed)
            }
        })
    }

    /// Overrides a `.colsh` shard's row-group size and dictionary-epoch
    /// length (see [`ColshWriter::with_group_records`] and
    /// [`ColshWriter::with_dict_epoch_groups`]); a JSONL shard is
    /// returned unchanged.
    pub fn with_colsh_layout(self, group_records: usize, dict_epoch_groups: u64) -> ShardSink {
        match self {
            ShardSink::Colsh(writer) => ShardSink::Colsh(
                writer
                    .with_group_records(group_records)
                    .with_dict_epoch_groups(dict_epoch_groups),
            ),
            jsonl => jsonl,
        }
    }

    /// Appends one record prepared for this shard's format.
    pub fn append(&mut self, prepared: Prepared) -> std::io::Result<()> {
        match (self, prepared) {
            (ShardSink::Jsonl { out, records }, Prepared::Line(line)) => {
                out.write_all(&line)?;
                *records += 1;
                Ok(())
            }
            (ShardSink::Colsh(writer), Prepared::Record(record)) => writer.push(&record),
            _ => panic!("a record prepared for one database format went to a shard of the other"),
        }
    }

    /// Completes the shard (flushes everything; columnar writes END).
    pub fn finish(self) -> std::io::Result<()> {
        match self {
            ShardSink::Jsonl { mut out, .. } => out.flush(),
            ShardSink::Colsh(writer) => writer.finish(),
        }
    }

    /// Graceful-shutdown checkpoint: flushes to a clean resume point
    /// and returns how many records are durable in the file. JSONL
    /// loses nothing; columnar drops a partial tail row group so the
    /// resumed file stays byte-identical to an uninterrupted one.
    pub fn finish_checkpoint(self) -> std::io::Result<u64> {
        match self {
            ShardSink::Jsonl { mut out, records } => {
                out.flush()?;
                Ok(records)
            }
            ShardSink::Colsh(writer) => writer.finish_checkpoint(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{CrawlConfig, Crawler};
    use webgen::{PopulationConfig, WebPopulation};

    #[test]
    fn prepared_lines_match_the_record_encoding() {
        let population = WebPopulation::new(PopulationConfig { seed: 7, size: 30 });
        let crawler = Crawler::new(CrawlConfig::default());
        for rank in 1..=30 {
            let record = crawler.visit_one(&population, rank);
            let mut expected = serde_json::to_string(&record).unwrap();
            expected.push('\n');
            match Prepared::new(DbFormat::Jsonl, record.clone()) {
                Prepared::Line(line) => assert_eq!(line, expected.as_bytes(), "rank {rank}"),
                Prepared::Record(_) => panic!("JSONL prepares a line"),
            }
            match Prepared::new(DbFormat::Colsh, record.clone()) {
                Prepared::Record(passed) => assert_eq!(passed, record),
                Prepared::Line(_) => panic!(".colsh passes the record through"),
            }
        }
    }
}
