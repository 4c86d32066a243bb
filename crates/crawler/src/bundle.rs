//! Content-addressed record/replay crawl bundles — the storage-scale
//! counterpart of `netsim`'s visit tapes.
//!
//! A recording crawl captures every network exchange of every visit
//! attempt (request URL, response headers, body, redirect chain,
//! fetch errors, injected panics, simulated-clock timing) into a
//! per-site **bundle** inside one store directory:
//!
//! ```text
//! bundle.json     store metadata: the crawl parameters a replay needs
//!                 (seed, size, retries, fault rates, JS engine, …),
//!                 JSON + `crc32:` trailer like `job.json`
//! blobs.bin       magic b"PBNDLB1\n", then content-addressed blobs:
//!                 [len: u32 LE][crc32: u32 LE][digest: 16][bytes]
//! manifests.bin   magic b"PBNDLM1\n", then one binary site manifest
//!                 per rank, in rank order:
//!                 [len: u32 LE][crc32: u32 LE][payload]
//! ```
//!
//! Bodies and header templates are hashed (128-bit FNV-1a) and stored
//! once; manifests reference them by digest, so the dramatic sharing in
//! the synthetic population (tracker scripts, header templates, shared
//! page archetypes) collapses into a store far smaller than the dataset
//! it reproduces. Both binary files are CRC-framed and torn-tail
//! recoverable exactly like `.colsh`: a killed recording resumes by
//! truncating each file at its last valid record boundary, and the
//! deterministic commit order (manifests strictly in rank order, blobs
//! in first-reference order) makes the resumed store byte-identical to
//! an uninterrupted one.
//!
//! [`ReplayBundle`] loads a store and serves every visit byte-for-byte
//! through [`netsim::ReplayNetwork`] — original timing, faults and
//! crashes included — so a replayed crawl reproduces the recorded
//! dataset exactly, with the page generator never invoked.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use bytes::Bytes;
use netsim::{Exchange, ExchangeOutcome, FetchError, PostFetchProbe, VisitTape};
use serde::{Deserialize, Serialize};

use crate::colsh::crc32;
use crate::db::{SkipReport, StreamMode};
use crate::run::CrawlConfig;

/// Store metadata file (JSON + checksum trailer).
pub const BUNDLE_META_FILE: &str = "bundle.json";
/// Content-addressed blob pack.
pub const BUNDLE_BLOBS_FILE: &str = "blobs.bin";
/// Per-site manifest pack.
pub const BUNDLE_MANIFESTS_FILE: &str = "manifests.bin";
/// First eight bytes of `blobs.bin`.
pub const BLOB_MAGIC: [u8; 8] = *b"PBNDLB1\n";
/// First eight bytes of `manifests.bin`.
pub const MANIFEST_MAGIC: [u8; 8] = *b"PBNDLM1\n";
/// Bundle format version recorded in [`BundleMeta`].
pub const BUNDLE_VERSION: u32 = 1;

/// Whether `dir` looks like (or contains) a bundle store: any of the
/// three store files present.
pub fn is_bundle_store(dir: &Path) -> bool {
    [BUNDLE_META_FILE, BUNDLE_BLOBS_FILE, BUNDLE_MANIFESTS_FILE]
        .iter()
        .any(|f| dir.join(f).exists())
}

/// 128-bit FNV-1a over `bytes`. Not cryptographic — the store hashes
/// its own deterministic simulator output, never adversarial content —
/// but 128 bits make accidental collisions across a 1M-site population
/// a non-event.
pub fn digest128(bytes: &[u8]) -> [u8; 16] {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= b as u128;
        hash = hash.wrapping_mul(PRIME);
    }
    hash.to_le_bytes()
}

fn invalid<T>(message: String) -> std::io::Result<T> {
    Err(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        message,
    ))
}

// --- store metadata -------------------------------------------------------

/// Everything a replay needs to reconstruct the recording crawl's
/// configuration, written at store creation so `crawl --replay DIR`
/// takes no other parameters (and cannot be mis-parameterized).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BundleMeta {
    /// Bundle format version.
    pub version: u32,
    /// Population seed of the recorded crawl.
    pub seed: u64,
    /// Number of ranked origins recorded.
    pub size: u64,
    /// Whether the population ran in adversarial mode.
    pub adversarial: bool,
    /// Retry budget of the recording crawl.
    pub max_retries: u32,
    /// Retry backoff base of the recording crawl.
    pub retry_backoff_ms: u64,
    /// Injected panic rate (provenance only; faults replay from tape).
    pub fault_panics_per_mille: u32,
    /// Injected transient-failure rate (provenance only).
    pub fault_transients_per_mille: u32,
    /// Per-visit response-cache capacity.
    pub cache_capacity: usize,
    /// Interaction-mode link budget.
    pub navigate_links: usize,
    /// Script engine of the recording crawl.
    pub js_engine: browser::ExecEngine,
}

impl BundleMeta {
    /// Metadata describing a crawl under `config` over (`seed`, `size`,
    /// `adversarial`).
    pub fn for_crawl(config: &CrawlConfig, seed: u64, size: u64, adversarial: bool) -> BundleMeta {
        BundleMeta {
            version: BUNDLE_VERSION,
            seed,
            size,
            adversarial,
            max_retries: config.max_retries,
            retry_backoff_ms: config.retry_backoff_ms,
            fault_panics_per_mille: config.faults.panic_per_mille,
            fault_transients_per_mille: config.faults.transient_per_mille,
            cache_capacity: config.cache_capacity,
            navigate_links: config.navigate_links,
            js_engine: config.browser.js_engine,
        }
    }

    /// The crawl configuration a faithful replay must run under.
    /// Faults stay disabled: recorded faults replay from the tapes.
    pub fn replay_config(&self, workers: usize) -> CrawlConfig {
        CrawlConfig {
            workers,
            browser: browser::BrowserConfig {
                js_engine: self.js_engine,
                ..browser::BrowserConfig::default()
            },
            navigate_links: self.navigate_links,
            cache_capacity: self.cache_capacity,
            max_retries: self.max_retries,
            retry_backoff_ms: self.retry_backoff_ms,
            faults: netsim::FaultSpec::disabled(),
        }
    }

    /// Atomically writes the metadata into `dir` (temp file + rename),
    /// with the same checksum-trailer idiom as `job.json`.
    pub fn store(&self, dir: &Path) -> std::io::Result<()> {
        let mut text = serde_json::to_string(self)
            .map_err(|e| std::io::Error::other(format!("encoding bundle metadata: {e}")))?;
        text.push('\n');
        let crc = crc32(text.as_bytes());
        text.push_str(&format!("crc32:{crc:08x}\n"));
        let tmp = dir.join(format!("{BUNDLE_META_FILE}.tmp"));
        std::fs::write(&tmp, &text)?;
        std::fs::rename(&tmp, dir.join(BUNDLE_META_FILE))
    }

    /// Loads and verifies the metadata from `dir`; a torn or corrupt
    /// file is a loud error naming the path.
    pub fn load(dir: &Path) -> std::io::Result<BundleMeta> {
        let path = dir.join(BUNDLE_META_FILE);
        let text = std::fs::read_to_string(&path).map_err(|e| {
            std::io::Error::new(
                e.kind(),
                format!(
                    "no readable bundle metadata at {}: {e}; `crawl --record` creates one",
                    path.display()
                ),
            )
        })?;
        let torn = |detail: &str| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "bundle metadata {} is torn or corrupt ({detail}); \
                     re-record the bundle to regenerate it",
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
        let meta: BundleMeta =
            serde_json::from_str(body).map_err(|e| torn(&format!("unparseable: {e}")))?;
        if meta.version != BUNDLE_VERSION {
            return Err(torn(&format!(
                "unsupported bundle version {}",
                meta.version
            )));
        }
        Ok(meta)
    }
}

// --- site manifests (binary codec) ----------------------------------------

/// One recorded exchange, with body and headers replaced by blob
/// references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangeRef {
    /// The requested URL.
    pub url: String,
    /// Simulated milliseconds the fetch advanced the clock.
    pub advance_ms: u64,
    /// The recorded outcome.
    pub outcome: OutcomeRef,
}

/// [`ExchangeOutcome`] with content swapped for digests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutcomeRef {
    /// A served response.
    Content {
        /// Status code.
        status: u16,
        /// Digest of the encoded header template blob.
        headers: [u8; 16],
        /// Digest of the body blob.
        body: [u8; 16],
        /// URL after redirects.
        final_url: String,
        /// Redirects followed.
        redirects: u32,
    },
    /// A fetch error.
    Error(FetchError),
    /// An injected panic with its recorded message.
    Panic(String),
}

/// One visit attempt: exchanges plus post-fetch probes, in call order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttemptRef {
    /// Fetches (cache misses), in order.
    pub exchanges: Vec<ExchangeRef>,
    /// Post-fetch failure probes, in order.
    pub probes: Vec<PostFetchProbe>,
}

/// One site's recorded visit: every attempt's tape, by reference into
/// the blob store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteManifest {
    /// Rank in the origin list (1-based).
    pub rank: u64,
    /// The origin visited.
    pub origin: String,
    /// Quarantined by the job engine: the dataset carries a synthesized
    /// `CrawlerError` record and no visit ever ran — replay synthesizes
    /// the same record without a network.
    pub synthesized: bool,
    /// Visit attempts, in order (empty iff `synthesized`).
    pub attempts: Vec<AttemptRef>,
}

const FETCH_ERROR_CODES: [FetchError; 6] = [
    FetchError::DnsFailure,
    FetchError::ConnectionFailure,
    FetchError::ResponseTimeout,
    FetchError::TooManyRedirects,
    FetchError::EphemeralContext,
    FetchError::CrawlerCrash,
];

fn fetch_error_code(err: FetchError) -> u8 {
    FETCH_ERROR_CODES
        .iter()
        .position(|&e| e == err)
        .expect("every FetchError variant has a code") as u8
}

fn wu16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn wu32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn wu64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn wstr(buf: &mut Vec<u8>, s: &str) {
    wu32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Byte cursor for the manifest decoder. Every read is bounds-checked;
/// a short buffer is a decode error, never a panic.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| format!("truncated at byte {} (need {n} more)", self.at))?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn digest(&mut self) -> Result<[u8; 16], String> {
        Ok(self.take(16)?.try_into().unwrap())
    }

    fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| format!("non-UTF-8 string at byte {}", self.at))
    }
}

impl SiteManifest {
    /// A manifest for a quarantined rank (no visit ran).
    pub fn synthesized(rank: u64, origin: String) -> SiteManifest {
        SiteManifest {
            rank,
            origin,
            synthesized: true,
            attempts: Vec::new(),
        }
    }

    /// Canonical binary encoding. [`SiteManifest::decode`] is its exact
    /// inverse: `decode(encode(m)) == m` and, on every accepted input,
    /// `encode(decode(bytes)) == bytes`.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        wu64(&mut buf, self.rank);
        wstr(&mut buf, &self.origin);
        buf.push(self.synthesized as u8);
        wu32(&mut buf, self.attempts.len() as u32);
        for attempt in &self.attempts {
            wu32(&mut buf, attempt.exchanges.len() as u32);
            for exchange in &attempt.exchanges {
                wstr(&mut buf, &exchange.url);
                wu64(&mut buf, exchange.advance_ms);
                match &exchange.outcome {
                    OutcomeRef::Content {
                        status,
                        headers,
                        body,
                        final_url,
                        redirects,
                    } => {
                        buf.push(0);
                        wu16(&mut buf, *status);
                        buf.extend_from_slice(headers);
                        buf.extend_from_slice(body);
                        wstr(&mut buf, final_url);
                        wu32(&mut buf, *redirects);
                    }
                    OutcomeRef::Error(err) => {
                        buf.push(1);
                        buf.push(fetch_error_code(*err));
                    }
                    OutcomeRef::Panic(message) => {
                        buf.push(2);
                        wstr(&mut buf, message);
                    }
                }
            }
            wu32(&mut buf, attempt.probes.len() as u32);
            for probe in &attempt.probes {
                wstr(&mut buf, &probe.url);
                match probe.failure {
                    None => buf.push(0),
                    Some(err) => {
                        buf.push(1);
                        buf.push(fetch_error_code(err));
                    }
                }
            }
        }
        buf
    }

    /// Decodes a manifest, rejecting trailing bytes, unknown tag codes,
    /// and non-canonical flags — so every accepted input re-encodes to
    /// the same bytes (the property the fuzz target enforces).
    pub fn decode(bytes: &[u8]) -> Result<SiteManifest, String> {
        let mut c = Cursor { bytes, at: 0 };
        cov!(0);
        let rank = c.u64()?;
        let origin = c.str()?;
        let synthesized = match c.u8()? {
            0 => false,
            1 => {
                cov!(1);
                true
            }
            flag => return Err(format!("bad synthesized flag {flag}")),
        };
        let n_attempts = c.u32()?;
        let mut attempts = Vec::new();
        for _ in 0..n_attempts {
            cov!(2);
            let n_exchanges = c.u32()?;
            let mut exchanges = Vec::new();
            for _ in 0..n_exchanges {
                let url = c.str()?;
                let advance_ms = c.u64()?;
                let outcome = match c.u8()? {
                    0 => {
                        cov!(3);
                        OutcomeRef::Content {
                            status: c.u16()?,
                            headers: c.digest()?,
                            body: c.digest()?,
                            final_url: c.str()?,
                            redirects: c.u32()?,
                        }
                    }
                    1 => {
                        cov!(4);
                        let code = c.u8()? as usize;
                        OutcomeRef::Error(
                            *FETCH_ERROR_CODES
                                .get(code)
                                .ok_or_else(|| format!("bad fetch-error code {code}"))?,
                        )
                    }
                    2 => {
                        cov!(5);
                        OutcomeRef::Panic(c.str()?)
                    }
                    kind => return Err(format!("bad exchange kind {kind}")),
                };
                exchanges.push(ExchangeRef {
                    url,
                    advance_ms,
                    outcome,
                });
            }
            let n_probes = c.u32()?;
            let mut probes = Vec::new();
            for _ in 0..n_probes {
                cov!(6);
                let url = c.str()?;
                let failure = match c.u8()? {
                    0 => None,
                    1 => {
                        let code = c.u8()? as usize;
                        Some(
                            *FETCH_ERROR_CODES
                                .get(code)
                                .ok_or_else(|| format!("bad probe fetch-error code {code}"))?,
                        )
                    }
                    tag => return Err(format!("bad probe tag {tag}")),
                };
                probes.push(PostFetchProbe { url, failure });
            }
            attempts.push(AttemptRef { exchanges, probes });
        }
        if c.at != bytes.len() {
            cov!(7);
            return Err(format!(
                "{} trailing bytes after manifest",
                bytes.len() - c.at
            ));
        }
        if synthesized && !attempts.is_empty() {
            cov!(8);
            return Err("synthesized manifest carries attempts".to_string());
        }
        cov!(9);
        Ok(SiteManifest {
            rank,
            origin,
            synthesized,
            attempts,
        })
    }
}

/// Canonical header-template blob: count then `(name, value)` pairs.
fn encode_headers(headers: &[(String, String)]) -> Vec<u8> {
    let mut buf = Vec::new();
    wu32(&mut buf, headers.len() as u32);
    for (name, value) in headers {
        wstr(&mut buf, name);
        wstr(&mut buf, value);
    }
    buf
}

fn decode_headers(bytes: &[u8]) -> Result<Vec<(String, String)>, String> {
    let mut c = Cursor { bytes, at: 0 };
    let count = c.u32()?;
    let mut headers = Vec::new();
    for _ in 0..count {
        headers.push((c.str()?, c.str()?));
    }
    if c.at != bytes.len() {
        return Err("trailing bytes after header template".to_string());
    }
    Ok(headers)
}

// --- framed pack files ----------------------------------------------------

/// One scanned record: where its frame starts in the file, and where its
/// payload lies in the file buffer.
struct Framed {
    offset: u64,
    payload: Range<usize>,
}

/// A pack file read into memory once, with its valid records located.
#[derive(Default)]
struct Pack {
    bytes: Vec<u8>,
    records: Vec<Framed>,
    report: SkipReport,
    /// Length of the valid prefix (where an append resumes).
    valid_len: u64,
}

impl Pack {
    fn payload(&self, record: &Framed) -> &[u8] {
        &self.bytes[record.payload.clone()]
    }
}

/// Reads a CRC-framed pack file. `Strict` makes any damage (bad magic,
/// checksum mismatch, torn tail) a loud error naming the path and byte
/// offset; `Lenient` skips corrupt records it can frame past and counts
/// them, flagging a torn tail; `Resume` stops cleanly at the first
/// damage and reports `valid_len` — the truncation point an append
/// resumes from.
fn read_pack(path: &Path, magic: [u8; 8], mode: StreamMode) -> std::io::Result<Pack> {
    let bytes = std::fs::read(path)?;
    let name = path.display();
    let mut report = SkipReport::default();
    let mut records = Vec::new();
    if bytes.len() < 8 || bytes[..8] != magic {
        return match mode {
            StreamMode::Strict => invalid(format!("{name}: missing or wrong pack magic")),
            _ => {
                report.torn_tail = true;
                Ok(Pack {
                    bytes,
                    report,
                    ..Pack::default()
                })
            }
        };
    }
    let mut at = 8usize;
    let mut valid_len = at as u64;
    while at < bytes.len() {
        let header_end = at + 8;
        let frame = header_end
            .checked_add(u32::from_le_bytes(
                bytes.get(at..at + 4).unwrap_or(&[0; 4]).try_into().unwrap(),
            ) as usize)
            .filter(|&end| header_end <= bytes.len() && end <= bytes.len());
        let Some(end) = frame else {
            // Torn tail: the record header or payload runs past EOF.
            match mode {
                StreamMode::Strict => {
                    return invalid(format!("{name}: torn record at byte {at}"));
                }
                StreamMode::Lenient => {
                    report.torn_tail = true;
                    break;
                }
                StreamMode::Resume => break,
            }
        };
        let expected = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
        if crc32(&bytes[header_end..end]) != expected {
            match mode {
                StreamMode::Strict => {
                    return invalid(format!("{name}: checksum mismatch at byte {at}"));
                }
                StreamMode::Lenient => {
                    // The frame is intact, only the payload is damaged:
                    // skip this record and keep going.
                    report.record(records.len() as u64 + report.skipped + 1);
                    at = end;
                    continue;
                }
                StreamMode::Resume => break,
            }
        }
        records.push(Framed {
            offset: at as u64,
            payload: header_end..end,
        });
        at = end;
        valid_len = at as u64;
    }
    Ok(Pack {
        bytes,
        records,
        report,
        valid_len,
    })
}

fn write_framed(writer: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    writer.write_all(&(payload.len() as u32).to_le_bytes())?;
    writer.write_all(&crc32(payload).to_le_bytes())?;
    writer.write_all(payload)
}

// --- recording ------------------------------------------------------------

/// One site's recorded visit, as submitted by the crawler: the raw
/// per-attempt tapes before content addressing.
#[derive(Debug, Clone)]
pub struct SiteBundle {
    /// Rank in the origin list (1-based).
    pub rank: u64,
    /// The origin visited.
    pub origin: String,
    /// Quarantined — no visit ran (see [`SiteManifest::synthesized`]).
    pub synthesized: bool,
    /// One tape per visit attempt, in order.
    pub attempts: Vec<VisitTape>,
}

impl SiteBundle {
    /// A bundle for a quarantined rank.
    pub fn synthesized(rank: u64, origin: String) -> SiteBundle {
        SiteBundle {
            rank,
            origin,
            synthesized: true,
            attempts: Vec::new(),
        }
    }
}

/// One site made ready to commit by the worker that submitted it: every
/// content hash and the manifest encoding happen outside the recorder
/// lock, leaving only the dedup check and the writes under it.
struct PreparedSite {
    rank: u64,
    /// The site's blobs with their digests, in first-reference order
    /// (per exchange: header template, then body).
    blobs: Vec<([u8; 16], Bytes)>,
    /// The manifest, framed (length, CRC, payload) for `manifests.bin`.
    manifest_frame: Vec<u8>,
}

impl PreparedSite {
    fn new(bundle: SiteBundle) -> PreparedSite {
        let mut blobs = Vec::new();
        let mut blob = |bytes: Bytes| {
            let digest = digest128(&bytes);
            blobs.push((digest, bytes));
            digest
        };
        let attempts = bundle
            .attempts
            .into_iter()
            .map(|tape| AttemptRef {
                exchanges: tape
                    .exchanges
                    .into_iter()
                    .map(|exchange| ExchangeRef {
                        url: exchange.url,
                        advance_ms: exchange.advance_ms,
                        outcome: match exchange.outcome {
                            ExchangeOutcome::Content {
                                status,
                                headers,
                                body,
                                final_url,
                                redirects,
                            } => OutcomeRef::Content {
                                status,
                                headers: blob(Bytes::from(encode_headers(&headers))),
                                body: blob(body),
                                final_url,
                                redirects,
                            },
                            ExchangeOutcome::Error(err) => OutcomeRef::Error(err),
                            ExchangeOutcome::Panic(message) => OutcomeRef::Panic(message),
                        },
                    })
                    .collect(),
                probes: tape.probes,
            })
            .collect();
        let manifest = SiteManifest {
            rank: bundle.rank,
            origin: bundle.origin,
            synthesized: bundle.synthesized,
            attempts,
        };
        let mut manifest_frame = Vec::new();
        write_framed(&mut manifest_frame, &manifest.encode())
            .expect("writing to a Vec cannot fail");
        PreparedSite {
            rank: manifest.rank,
            blobs,
            manifest_frame,
        }
    }
}

struct RecorderInner {
    blobs: BufWriter<File>,
    manifests: BufWriter<File>,
    /// Digests already durable in `blobs.bin`.
    index: HashSet<[u8; 16]>,
    /// Next rank to commit; ranks below it are already durable.
    cursor: u64,
    /// Ranks durable in `manifests.bin` when the store was opened.
    durable_prefix: u64,
    /// Out-of-order submissions waiting for the cursor.
    pending: BTreeMap<u64, PreparedSite>,
}

/// Append-side of a bundle store. Workers submit completed sites in any
/// order; the recorder commits them strictly in rank order (manifests
/// are a rank-contiguous sequence, blobs land in first-reference
/// order), so the store's bytes are independent of worker count and any
/// crash leaves a valid prefix of the uninterrupted store.
pub struct BundleRecorder {
    dir: PathBuf,
    inner: Mutex<RecorderInner>,
}

impl BundleRecorder {
    /// Creates a fresh store in `dir` (created if missing); refuses a
    /// directory that already holds one.
    pub fn create(dir: &Path, meta: &BundleMeta) -> std::io::Result<BundleRecorder> {
        std::fs::create_dir_all(dir)?;
        if is_bundle_store(dir) {
            return invalid(format!(
                "refusing to record into {}: it already holds a bundle store \
                 (resume it or choose an empty directory)",
                dir.display()
            ));
        }
        meta.store(dir)?;
        let mut blobs = BufWriter::new(File::create(dir.join(BUNDLE_BLOBS_FILE))?);
        blobs.write_all(&BLOB_MAGIC)?;
        let mut manifests = BufWriter::new(File::create(dir.join(BUNDLE_MANIFESTS_FILE))?);
        manifests.write_all(&MANIFEST_MAGIC)?;
        Ok(BundleRecorder {
            dir: dir.to_path_buf(),
            inner: Mutex::new(RecorderInner {
                blobs,
                manifests,
                index: HashSet::new(),
                cursor: 1,
                durable_prefix: 0,
                pending: BTreeMap::new(),
            }),
        })
    }

    /// Opens `dir` for appending, creating a fresh store if none exists.
    /// An existing store must match `meta` (same crawl parameters), and
    /// both pack files are truncated at their last valid record — with
    /// manifests additionally rolled back past any record whose blobs
    /// did not survive, so "manifest durable ⇒ blobs durable" holds no
    /// matter where a kill landed.
    pub fn resume(dir: &Path, meta: &BundleMeta) -> std::io::Result<BundleRecorder> {
        if !is_bundle_store(dir) {
            return BundleRecorder::create(dir, meta);
        }
        let stored = BundleMeta::load(dir)?;
        if &stored != meta {
            return invalid(format!(
                "bundle store {} was recorded under different crawl parameters; \
                 refusing to mix recordings",
                dir.display()
            ));
        }
        let blobs_path = dir.join(BUNDLE_BLOBS_FILE);
        let manifests_path = dir.join(BUNDLE_MANIFESTS_FILE);
        let blob_pack = if blobs_path.exists() {
            read_pack(&blobs_path, BLOB_MAGIC, StreamMode::Resume)?
        } else {
            Pack::default()
        };
        let blobs_valid = blob_pack.valid_len;
        let mut index = HashSet::new();
        for record in &blob_pack.records {
            let payload = blob_pack.payload(record);
            if payload.len() < 16 {
                break; // treat as damage: truncate here
            }
            let digest: [u8; 16] = payload[..16].try_into().expect("16 bytes make a digest");
            index.insert(digest);
        }
        let manifest_pack = if manifests_path.exists() {
            read_pack(&manifests_path, MANIFEST_MAGIC, StreamMode::Resume)?
        } else {
            Pack::default()
        };
        let mut manifests_valid = manifest_pack.valid_len;
        let mut durable_prefix = 0u64;
        for record in &manifest_pack.records {
            let Ok(manifest) = SiteManifest::decode(manifest_pack.payload(record)) else {
                manifests_valid = record.offset;
                break;
            };
            let refs_resolve = manifest.attempts.iter().all(|attempt| {
                attempt.exchanges.iter().all(|e| match &e.outcome {
                    OutcomeRef::Content { headers, body, .. } => {
                        index.contains(headers) && index.contains(body)
                    }
                    _ => true,
                })
            });
            if manifest.rank != durable_prefix + 1 || !refs_resolve {
                manifests_valid = record.offset;
                break;
            }
            durable_prefix = manifest.rank;
        }
        let reopen = |path: &Path, magic: &[u8], valid: u64| -> std::io::Result<BufWriter<File>> {
            let file = OpenOptions::new().read(true).write(true).open(path)?;
            file.set_len(valid.max(magic.len() as u64))?;
            let mut file = file;
            use std::io::Seek;
            if valid < magic.len() as u64 {
                file.set_len(0)?;
                file.write_all(magic)?;
            }
            file.seek(std::io::SeekFrom::End(0))?;
            Ok(BufWriter::new(file))
        };
        let blobs = if blobs_path.exists() {
            reopen(&blobs_path, &BLOB_MAGIC, blobs_valid)?
        } else {
            let mut w = BufWriter::new(File::create(&blobs_path)?);
            w.write_all(&BLOB_MAGIC)?;
            w
        };
        let manifests = if manifests_path.exists() {
            reopen(&manifests_path, &MANIFEST_MAGIC, manifests_valid)?
        } else {
            let mut w = BufWriter::new(File::create(&manifests_path)?);
            w.write_all(&MANIFEST_MAGIC)?;
            w
        };
        Ok(BundleRecorder {
            dir: dir.to_path_buf(),
            inner: Mutex::new(RecorderInner {
                blobs,
                manifests,
                index,
                cursor: durable_prefix + 1,
                durable_prefix,
                pending: BTreeMap::new(),
            }),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Ranks already durable when the store was opened (a resumed
    /// recording backfills captures for dataset ranks above this).
    pub fn durable_prefix(&self) -> u64 {
        self.inner.lock().expect("recorder lock").durable_prefix
    }

    /// Submits one completed site. Sites may arrive in any order;
    /// commits happen strictly at the rank cursor. Re-submissions of
    /// already-durable ranks are dropped. The site's digests and its
    /// manifest are computed on the calling thread, before the lock.
    pub fn submit(&self, bundle: SiteBundle) -> std::io::Result<()> {
        let site = PreparedSite::new(bundle);
        let mut inner = self.inner.lock().expect("recorder lock");
        let inner = &mut *inner;
        if site.rank < inner.cursor {
            return Ok(());
        }
        inner.pending.insert(site.rank, site);
        while let Some(site) = inner.pending.remove(&inner.cursor) {
            commit_site(inner, &site)?;
            inner.cursor += 1;
        }
        Ok(())
    }

    /// Flushes the store and returns the number of durable sites. Errs
    /// if submissions left a gap (a rank never arrived).
    pub fn finish(&self) -> std::io::Result<u64> {
        let mut inner = self.inner.lock().expect("recorder lock");
        if let Some((&rank, _)) = inner.pending.iter().next() {
            let cursor = inner.cursor;
            return invalid(format!(
                "bundle store {} has a gap: rank {cursor} never arrived \
                 but rank {rank} is pending",
                self.dir.display()
            ));
        }
        inner.blobs.flush()?;
        inner.manifests.flush()?;
        Ok(inner.cursor - 1)
    }

    /// Graceful-shutdown checkpoint: flushes every committed frame (the
    /// durable store is then exactly a prefix of the uninterrupted
    /// store's bytes) and returns the number of durable sites. Unlike
    /// [`BundleRecorder::finish`] this tolerates gaps — out-of-order
    /// submissions still pending stay in memory and are re-captured by
    /// the resume backfill.
    pub fn checkpoint(&self) -> std::io::Result<u64> {
        let mut inner = self.inner.lock().expect("recorder lock");
        inner.blobs.flush()?;
        inner.manifests.flush()?;
        Ok(inner.cursor - 1)
    }
}

/// Appends one site at the rank cursor: its blobs not yet in the store,
/// flushed before the manifest that references them (a manifest record
/// is the site's commit point).
fn commit_site(inner: &mut RecorderInner, site: &PreparedSite) -> std::io::Result<()> {
    for (digest, bytes) in &site.blobs {
        if inner.index.insert(*digest) {
            let mut payload = Vec::with_capacity(16 + bytes.len());
            payload.extend_from_slice(digest);
            payload.extend_from_slice(bytes);
            write_framed(&mut inner.blobs, &payload)?;
        }
    }
    inner.blobs.flush()?;
    inner.manifests.write_all(&site.manifest_frame)
}

// --- replay ---------------------------------------------------------------

/// A fully loaded bundle store, ready to serve visits.
///
/// Each pack file is read once. Blobs are zero-copy slices of the
/// `blobs.bin` buffer. Manifests stay encoded in the `manifests.bin`
/// buffer as validated byte ranges, and the worker replaying a rank
/// decodes its manifest.
#[derive(Debug)]
pub struct ReplayBundle {
    meta: BundleMeta,
    blobs: HashMap<[u8; 16], Bytes>,
    /// The `manifests.bin` buffer.
    manifest_file: Vec<u8>,
    /// Rank `r`'s manifest payload in `manifest_file`, at index `r - 1`.
    manifests: Vec<Range<usize>>,
}

impl ReplayBundle {
    /// Strict load: any damage — bad magic, checksum mismatch, torn
    /// tail, a blob that does not hash to its digest, an undecodable
    /// manifest, rank gap, dangling blob reference — is a loud error
    /// naming the file and the byte offset. The two pack files are
    /// verified on two threads; references are resolved once both are.
    pub fn load(dir: &Path) -> std::io::Result<ReplayBundle> {
        let meta = BundleMeta::load(dir)?;
        let blobs_path = dir.join(BUNDLE_BLOBS_FILE);
        let manifests_path = dir.join(BUNDLE_MANIFESTS_FILE);
        let (blobs, manifests) = std::thread::scope(|scope| {
            let blobs = scope.spawn(|| load_blobs(&blobs_path));
            let manifests = load_manifests(&manifests_path);
            let blobs = blobs
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (blobs, manifests)
        });
        // Blob damage is reported before manifest damage, whichever
        // thread finished first, so the error does not depend on timing.
        let blobs = blobs?;
        let manifests = manifests?;
        // The first reference (in file order) to a missing blob.
        let dangling = manifests
            .references
            .iter()
            .filter(|(digest, _)| !blobs.contains_key(*digest))
            .map(|(_, first)| first)
            .min_by_key(|(offset, _)| *offset);
        if let Some((offset, rank)) = dangling {
            return invalid(format!(
                "{}: manifest at byte {offset} (rank {rank}) references a blob \
                 missing from {}",
                manifests_path.display(),
                blobs_path.display()
            ));
        }
        Ok(ReplayBundle {
            meta,
            blobs,
            manifest_file: manifests.pack.bytes,
            manifests: manifests
                .pack
                .records
                .into_iter()
                .map(|record| record.payload)
                .collect(),
        })
    }

    /// The recorded crawl's metadata.
    pub fn meta(&self) -> &BundleMeta {
        &self.meta
    }

    /// Sites in the store (contiguous ranks `1..=sites()`).
    pub fn sites(&self) -> u64 {
        self.manifests.len() as u64
    }

    /// One site's manifest, if recorded, decoded from the store.
    pub fn manifest(&self, rank: u64) -> Option<SiteManifest> {
        let index = usize::try_from(rank.checked_sub(1)?).ok()?;
        let payload = &self.manifest_file[self.manifests.get(index)?.clone()];
        Some(SiteManifest::decode(payload).expect("strict load decoded every manifest"))
    }

    /// Rebuilds the raw visit tape for one attempt of one rank.
    pub fn tape(&self, rank: u64, attempt: usize) -> Option<VisitTape> {
        let manifest = self.manifest(rank)?;
        self.tapes(manifest).into_iter().nth(attempt)
    }

    /// Rebuilds every attempt's raw visit tape from a decoded manifest of
    /// this store, moving its strings into the tapes.
    pub(crate) fn tapes(&self, manifest: SiteManifest) -> Vec<VisitTape> {
        manifest
            .attempts
            .into_iter()
            .map(|attempt| VisitTape {
                exchanges: attempt
                    .exchanges
                    .into_iter()
                    .map(|exchange| Exchange {
                        url: exchange.url,
                        advance_ms: exchange.advance_ms,
                        outcome: match exchange.outcome {
                            OutcomeRef::Content {
                                status,
                                headers,
                                body,
                                final_url,
                                redirects,
                            } => ExchangeOutcome::Content {
                                status,
                                headers: decode_headers(&self.blobs[&headers])
                                    .expect("strict load verified every header blob's digest"),
                                body: self.blobs[&body].clone(),
                                final_url,
                                redirects,
                            },
                            OutcomeRef::Error(err) => ExchangeOutcome::Error(err),
                            OutcomeRef::Panic(message) => ExchangeOutcome::Panic(message),
                        },
                    })
                    .collect(),
                probes: attempt.probes,
            })
            .collect()
    }
}

/// Strict-loads `blobs.bin`: frames and CRCs, then each blob's digest,
/// keyed by digest as slices of the one file buffer.
fn load_blobs(path: &Path) -> std::io::Result<HashMap<[u8; 16], Bytes>> {
    let Pack { bytes, records, .. } = read_pack(path, BLOB_MAGIC, StreamMode::Strict)?;
    let file = Bytes::from(bytes);
    let mut blobs = HashMap::with_capacity(records.len());
    for record in records {
        let payload = &file[record.payload.clone()];
        if payload.len() < 16 {
            return invalid(format!(
                "{}: blob record at byte {} shorter than its digest",
                path.display(),
                record.offset
            ));
        }
        let digest: [u8; 16] = payload[..16].try_into().expect("16 bytes make a digest");
        if digest128(&payload[16..]) != digest {
            return invalid(format!(
                "{}: blob at byte {} does not hash to its stored digest",
                path.display(),
                record.offset
            ));
        }
        blobs.insert(
            digest,
            file.slice(record.payload.start + 16..record.payload.end),
        );
    }
    Ok(blobs)
}

/// `manifests.bin` after a strict load.
struct LoadedManifests {
    /// The file, with one record per rank in rank order.
    pack: Pack,
    /// Every blob digest the manifests reference, with the frame offset
    /// and rank of the first manifest referencing it.
    references: HashMap<[u8; 16], (u64, u64)>,
}

/// Strict-loads `manifests.bin`: frames and CRCs, canonical decode and
/// contiguous ranks from 1, and the blob digests referenced.
fn load_manifests(path: &Path) -> std::io::Result<LoadedManifests> {
    let pack = read_pack(path, MANIFEST_MAGIC, StreamMode::Strict)?;
    let mut references = HashMap::new();
    for (index, record) in pack.records.iter().enumerate() {
        let manifest = SiteManifest::decode(pack.payload(record)).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "{}: bad site manifest at byte {}: {e}",
                    path.display(),
                    record.offset
                ),
            )
        })?;
        let expected = index as u64 + 1;
        if manifest.rank != expected {
            return invalid(format!(
                "{}: manifest at byte {} has rank {} where {expected} was expected",
                path.display(),
                record.offset,
                manifest.rank
            ));
        }
        for attempt in &manifest.attempts {
            for exchange in &attempt.exchanges {
                if let OutcomeRef::Content { headers, body, .. } = &exchange.outcome {
                    for digest in [headers, body] {
                        references
                            .entry(*digest)
                            .or_insert((record.offset, manifest.rank));
                    }
                }
            }
        }
    }
    Ok(LoadedManifests { pack, references })
}

// --- stat -----------------------------------------------------------------

/// Store accounting for `bundle stat`: sizes, counts, and the dedup
/// ratio (bytes the manifests reference vs bytes the store holds).
#[derive(Debug, Clone, Default)]
pub struct BundleStat {
    /// Recorded sites.
    pub sites: u64,
    /// Quarantined (synthesized) sites among them.
    pub synthesized: u64,
    /// Visit attempts across all sites.
    pub attempts: u64,
    /// Recorded exchanges across all attempts.
    pub exchanges: u64,
    /// Unique blobs in the store.
    pub unique_blobs: u64,
    /// Blob content bytes actually stored (after dedup).
    pub stored_bytes: u64,
    /// Blob content bytes the manifests reference (before dedup).
    pub referenced_bytes: u64,
    /// Total store size on disk (all three files).
    pub store_file_bytes: u64,
    /// Damage skipped in `blobs.bin` (Lenient only).
    pub blob_skips: SkipReport,
    /// Damage skipped in `manifests.bin` (Lenient only).
    pub manifest_skips: SkipReport,
}

impl BundleStat {
    /// Scans a store. `Strict` errors loudly on any damage; `Lenient`
    /// counts skipped records instead.
    pub fn scan(dir: &Path, mode: StreamMode) -> std::io::Result<BundleStat> {
        let mut stat = BundleStat::default();
        let blobs_path = dir.join(BUNDLE_BLOBS_FILE);
        let manifests_path = dir.join(BUNDLE_MANIFESTS_FILE);
        let blob_pack = read_pack(&blobs_path, BLOB_MAGIC, mode)?;
        stat.blob_skips = blob_pack.report.clone();
        let mut sizes: HashMap<[u8; 16], u64> = HashMap::new();
        for record in &blob_pack.records {
            let payload = blob_pack.payload(record);
            if payload.len() < 16 {
                match mode {
                    StreamMode::Strict => {
                        return invalid(format!(
                            "{}: blob record at byte {} shorter than its digest",
                            blobs_path.display(),
                            record.offset
                        ));
                    }
                    _ => {
                        stat.blob_skips.skipped += 1;
                        continue;
                    }
                }
            }
            let digest: [u8; 16] = payload[..16].try_into().expect("16 bytes make a digest");
            let len = (payload.len() - 16) as u64;
            sizes.insert(digest, len);
            stat.stored_bytes += len;
        }
        stat.unique_blobs = sizes.len() as u64;
        let manifest_pack = read_pack(&manifests_path, MANIFEST_MAGIC, mode)?;
        stat.manifest_skips = manifest_pack.report.clone();
        for record in &manifest_pack.records {
            let manifest = match SiteManifest::decode(manifest_pack.payload(record)) {
                Ok(manifest) => manifest,
                Err(e) => match mode {
                    StreamMode::Strict => {
                        return invalid(format!(
                            "{}: bad site manifest at byte {}: {e}",
                            manifests_path.display(),
                            record.offset
                        ));
                    }
                    _ => {
                        stat.manifest_skips.skipped += 1;
                        continue;
                    }
                },
            };
            stat.sites += 1;
            stat.synthesized += manifest.synthesized as u64;
            stat.attempts += manifest.attempts.len() as u64;
            for attempt in &manifest.attempts {
                stat.exchanges += attempt.exchanges.len() as u64;
                for exchange in &attempt.exchanges {
                    if let OutcomeRef::Content { headers, body, .. } = &exchange.outcome {
                        for digest in [headers, body] {
                            match sizes.get(digest) {
                                Some(len) => stat.referenced_bytes += len,
                                None if mode == StreamMode::Strict => {
                                    return invalid(format!(
                                        "{}: manifest at byte {} (rank {}) references \
                                         a blob missing from {}",
                                        manifests_path.display(),
                                        record.offset,
                                        manifest.rank,
                                        blobs_path.display()
                                    ));
                                }
                                None => stat.manifest_skips.skipped += 1,
                            }
                        }
                    }
                }
            }
        }
        for file in [BUNDLE_META_FILE, BUNDLE_BLOBS_FILE, BUNDLE_MANIFESTS_FILE] {
            if let Ok(meta) = std::fs::metadata(dir.join(file)) {
                stat.store_file_bytes += meta.len();
            }
        }
        Ok(stat)
    }

    /// Referenced bytes per stored byte (≥ 1.0; higher = more sharing).
    pub fn dedup_ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            return 1.0;
        }
        self.referenced_bytes as f64 / self.stored_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_manifest() -> SiteManifest {
        SiteManifest {
            rank: 3,
            origin: "https://site-3.example/".to_string(),
            synthesized: false,
            attempts: vec![
                AttemptRef {
                    exchanges: vec![
                        ExchangeRef {
                            url: "https://site-3.example/".to_string(),
                            advance_ms: 155,
                            outcome: OutcomeRef::Content {
                                status: 200,
                                headers: digest128(b"h"),
                                body: digest128(b"b"),
                                final_url: "https://site-3.example/".to_string(),
                                redirects: 1,
                            },
                        },
                        ExchangeRef {
                            url: "https://cdn.example/t.js".to_string(),
                            advance_ms: 35,
                            outcome: OutcomeRef::Error(FetchError::ConnectionFailure),
                        },
                        ExchangeRef {
                            url: "https://site-3.example/x".to_string(),
                            advance_ms: 0,
                            outcome: OutcomeRef::Panic(
                                "injected fault: simulated crawler crash fetching x".to_string(),
                            ),
                        },
                    ],
                    probes: vec![PostFetchProbe {
                        url: "https://site-3.example/".to_string(),
                        failure: Some(FetchError::EphemeralContext),
                    }],
                },
                AttemptRef::default(),
            ],
        }
    }

    #[test]
    fn manifest_codec_round_trips() {
        let manifest = sample_manifest();
        let bytes = manifest.encode();
        let decoded = SiteManifest::decode(&bytes).expect("decodes");
        assert_eq!(decoded, manifest);
        assert_eq!(decoded.encode(), bytes, "re-encode is byte-identical");
    }

    #[test]
    fn manifest_decode_is_total_and_canonical() {
        let bytes = sample_manifest().encode();
        // Truncation at every byte must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            assert!(
                SiteManifest::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        // Trailing garbage is rejected (full-consumption decode).
        let mut long = bytes.clone();
        long.push(0);
        assert!(SiteManifest::decode(&long).is_err());
        // Non-canonical flag bytes are rejected.
        let mut manifest = sample_manifest();
        manifest.attempts.clear();
        let mut flagged = manifest.encode();
        let flag_at = 8 + 4 + manifest.origin.len();
        flagged[flag_at] = 2;
        assert!(SiteManifest::decode(&flagged).is_err());
    }

    #[test]
    fn synthesized_manifests_carry_no_attempts() {
        let ok = SiteManifest::synthesized(9, "https://q.example/".to_string());
        assert_eq!(SiteManifest::decode(&ok.encode()).unwrap(), ok);
        let mut bad = sample_manifest();
        bad.synthesized = true;
        assert!(SiteManifest::decode(&bad.encode()).is_err());
    }

    #[test]
    fn header_template_codec_round_trips() {
        let headers = vec![
            ("content-type".to_string(), "text/html".to_string()),
            ("permissions-policy".to_string(), "camera=()".to_string()),
        ];
        let blob = encode_headers(&headers);
        assert_eq!(decode_headers(&blob).unwrap(), headers);
        assert!(decode_headers(&blob[..blob.len() - 1]).is_err());
    }

    #[test]
    fn store_round_trips_and_dedups() {
        let dir = std::env::temp_dir().join(format!("permodyssey-bundle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = BundleMeta::for_crawl(&CrawlConfig::default(), 7, 2, false);
        let recorder = BundleRecorder::create(&dir, &meta).expect("create");
        let body = Bytes::copy_from_slice(b"<html>shared</html>");
        let tape = |url: &str| VisitTape {
            exchanges: vec![Exchange {
                url: url.to_string(),
                advance_ms: 155,
                outcome: ExchangeOutcome::Content {
                    status: 200,
                    headers: vec![("content-type".to_string(), "text/html".to_string())],
                    body: body.clone(),
                    final_url: url.to_string(),
                    redirects: 0,
                },
            }],
            probes: vec![PostFetchProbe {
                url: url.to_string(),
                failure: None,
            }],
        };
        // Out-of-order submission: rank 2 first.
        recorder
            .submit(SiteBundle {
                rank: 2,
                origin: "https://b.example/".to_string(),
                synthesized: false,
                attempts: vec![tape("https://b.example/")],
            })
            .unwrap();
        recorder
            .submit(SiteBundle {
                rank: 1,
                origin: "https://a.example/".to_string(),
                synthesized: false,
                attempts: vec![tape("https://a.example/")],
            })
            .unwrap();
        assert_eq!(recorder.finish().unwrap(), 2);

        let bundle = ReplayBundle::load(&dir).expect("strict load");
        assert_eq!(bundle.sites(), 2);
        assert_eq!(
            bundle.tape(1, 0).unwrap(),
            tape("https://a.example/"),
            "tape survives the store round trip"
        );
        let stat = BundleStat::scan(&dir, StreamMode::Strict).unwrap();
        assert_eq!(stat.sites, 2);
        assert_eq!(stat.unique_blobs, 2, "shared body + shared headers");
        assert!(stat.dedup_ratio() > 1.5, "ratio {}", stat.dedup_ratio());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_is_loud_in_strict_and_counted_in_lenient() {
        let dir =
            std::env::temp_dir().join(format!("permodyssey-bundle-cor-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = BundleMeta::for_crawl(&CrawlConfig::default(), 7, 1, false);
        let recorder = BundleRecorder::create(&dir, &meta).unwrap();
        recorder
            .submit(SiteBundle::synthesized(1, "https://a.example/".to_string()))
            .unwrap();
        recorder.finish().unwrap();
        // Flip a byte inside the manifest payload.
        let path = dir.join(BUNDLE_MANIFESTS_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = ReplayBundle::load(&dir).unwrap_err();
        assert!(
            err.to_string().contains(&path.display().to_string()),
            "strict error names the file: {err}"
        );
        let stat = BundleStat::scan(&dir, StreamMode::Lenient).unwrap();
        assert_eq!(stat.sites, 0);
        assert_eq!(stat.manifest_skips.skipped, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A finished two-site store: both sites share one header template,
    /// each has its own body, so `blobs.bin` holds three blobs (headers,
    /// rank 1's body, rank 2's body) and `manifests.bin` two manifests.
    fn two_site_store(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("permodyssey-bundle-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = BundleMeta::for_crawl(&CrawlConfig::default(), 7, 2, false);
        let recorder = BundleRecorder::create(&dir, &meta).unwrap();
        for (rank, host) in [(1, "a"), (2, "b")] {
            let url = format!("https://{host}.example/");
            recorder
                .submit(SiteBundle {
                    rank,
                    origin: url.clone(),
                    synthesized: false,
                    attempts: vec![VisitTape {
                        exchanges: vec![Exchange {
                            url: url.clone(),
                            advance_ms: 155,
                            outcome: ExchangeOutcome::Content {
                                status: 200,
                                headers: vec![(
                                    "content-type".to_string(),
                                    "text/html".to_string(),
                                )],
                                body: Bytes::from(format!("<html>{host}</html>")),
                                final_url: url,
                                redirects: 0,
                            },
                        }],
                        probes: Vec::new(),
                    }],
                })
                .unwrap();
        }
        recorder.finish().unwrap();
        dir
    }

    /// A pack file's frames as `(offset, payload)` pairs.
    fn frames(path: &Path) -> Vec<(usize, Vec<u8>)> {
        let bytes = std::fs::read(path).unwrap();
        let mut at = 8;
        let mut out = Vec::new();
        while at < bytes.len() {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            out.push((at, bytes[at + 8..at + 8 + len].to_vec()));
            at += 8 + len;
        }
        out
    }

    /// Rewrites a pack file from payloads, each framed with a valid CRC.
    fn write_pack(path: &Path, magic: [u8; 8], payloads: &[Vec<u8>]) {
        let mut bytes = magic.to_vec();
        for payload in payloads {
            write_framed(&mut bytes, payload).unwrap();
        }
        std::fs::write(path, bytes).unwrap();
    }

    /// Asserts a strict load fails naming `file` and `byte {offset}`.
    fn assert_load_names(dir: &Path, file: &str, offset: usize) -> String {
        let err = ReplayBundle::load(dir).unwrap_err().to_string();
        assert!(
            err.contains(&dir.join(file).display().to_string()),
            "error names {file}: {err}"
        );
        assert!(
            err.contains(&format!("byte {offset}")),
            "error names byte {offset}: {err}"
        );
        err
    }

    #[test]
    fn reframed_blob_with_changed_bytes_fails_its_digest() {
        let dir = two_site_store("redigest");
        let path = dir.join(BUNDLE_BLOBS_FILE);
        let mut blobs = frames(&path);
        let (offset, payload) = &mut blobs[1];
        let offset = *offset;
        let last = payload.len() - 1;
        payload[last] ^= 0x20;
        let payloads: Vec<Vec<u8>> = blobs.into_iter().map(|(_, p)| p).collect();
        write_pack(&path, BLOB_MAGIC, &payloads);
        let err = assert_load_names(&dir, BUNDLE_BLOBS_FILE, offset);
        assert!(err.contains("does not hash to its stored digest"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_referenced_blob_is_a_dangling_reference() {
        let dir = two_site_store("dangling");
        let path = dir.join(BUNDLE_BLOBS_FILE);
        let mut blobs = frames(&path);
        assert_eq!(blobs.len(), 3, "headers, body 1, body 2");
        // Rank 2's body is the last blob: drop it.
        blobs.pop();
        let payloads: Vec<Vec<u8>> = blobs.into_iter().map(|(_, p)| p).collect();
        write_pack(&path, BLOB_MAGIC, &payloads);
        let rank2_offset = frames(&dir.join(BUNDLE_MANIFESTS_FILE))[1].0;
        let err = assert_load_names(&dir, BUNDLE_MANIFESTS_FILE, rank2_offset);
        assert!(err.contains("references a blob missing"), "{err}");
        assert!(err.contains(&path.display().to_string()), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn swapped_manifest_frames_are_a_rank_gap() {
        let dir = two_site_store("swapped");
        let path = dir.join(BUNDLE_MANIFESTS_FILE);
        let mut manifests: Vec<Vec<u8>> = frames(&path).into_iter().map(|(_, p)| p).collect();
        manifests.swap(0, 1);
        write_pack(&path, MANIFEST_MAGIC, &manifests);
        let err = assert_load_names(&dir, BUNDLE_MANIFESTS_FILE, 8);
        assert!(err.contains("has rank 2 where 1 was expected"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn blob_frame_shorter_than_its_digest_is_rejected() {
        let dir = two_site_store("short");
        let path = dir.join(BUNDLE_BLOBS_FILE);
        let offset = std::fs::metadata(&path).unwrap().len() as usize;
        let mut payloads: Vec<Vec<u8>> = frames(&path).into_iter().map(|(_, p)| p).collect();
        payloads.push(vec![0xAB; 15]);
        write_pack(&path, BLOB_MAGIC, &payloads);
        let err = assert_load_names(&dir, BUNDLE_BLOBS_FILE, offset);
        assert!(err.contains("shorter than its digest"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_truncates_torn_tails_and_rolls_back_blobless_manifests() {
        let dir =
            std::env::temp_dir().join(format!("permodyssey-bundle-res-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = BundleMeta::for_crawl(&CrawlConfig::default(), 7, 2, false);
        let recorder = BundleRecorder::create(&dir, &meta).unwrap();
        let tape = VisitTape {
            exchanges: vec![Exchange {
                url: "https://a.example/".to_string(),
                advance_ms: 155,
                outcome: ExchangeOutcome::Content {
                    status: 200,
                    headers: vec![("content-type".to_string(), "text/html".to_string())],
                    body: Bytes::copy_from_slice(b"<html>a</html>"),
                    final_url: "https://a.example/".to_string(),
                    redirects: 0,
                },
            }],
            probes: Vec::new(),
        };
        recorder
            .submit(SiteBundle {
                rank: 1,
                origin: "https://a.example/".to_string(),
                synthesized: false,
                attempts: vec![tape],
            })
            .unwrap();
        recorder.finish().unwrap();
        // Shred the blob pack: rank 1's manifest now references blobs
        // that no longer exist, so resume must roll the manifest back.
        let blobs_path = dir.join(BUNDLE_BLOBS_FILE);
        let len = std::fs::metadata(&blobs_path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&blobs_path).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);
        let resumed = BundleRecorder::resume(&dir, &meta).unwrap();
        assert_eq!(resumed.durable_prefix(), 0, "manifest rolled back");
        std::fs::remove_dir_all(&dir).ok();
    }
}
