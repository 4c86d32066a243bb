//! In-memory spans and the arithmetic over them.
//!
//! A span is a named interval on one thread, with the span that caused
//! it as its parent. Every span of one record carries the record's rank
//! as its id. Spans are pushed into a thread-local buffer while tracing
//! is on and handed to the caller when the thread finishes; nothing is
//! written until the run ends.

use std::cell::RefCell;
use std::time::Instant;

/// The span names, one per layer boundary the tracer wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One record end to end: the visit retry loop plus encoding.
    Record,
    /// One `Browser::visit` attempt, including its network.
    Visit,
    /// One `Network::fetch` through the response cache.
    Fetch,
    /// One `ContentProvider::resolve` of the generated population.
    Resolve,
    /// One `ReplayNetwork::fetch` from a recorded tape.
    Tape,
    /// JSONL encoding and append of one record.
    JsonlEncode,
    /// `.colsh` encoding and append of one record.
    ColshEncode,
    /// `BundleRecorder::submit` of one site.
    BundleSubmit,
    /// Decoding one record from a JSONL shard.
    JsonlDecode,
    /// Decoding one record from a `.colsh` shard.
    ColshDecode,
    /// Folding one record into the analysis accumulators.
    Fold,
    /// The re-timing of one record's layer inputs (a root of its own).
    Retime,
    /// `html::scan` of one document.
    HtmlScan,
    /// Header and `allow` parsing of one frame.
    PolicyParse,
    /// Policy construction and feature evaluation of one frame.
    PolicyEval,
    /// Script execution of one frame on the VM.
    JslandRun,
    /// `staticscan::scan_script` of one record's scripts.
    StaticScan,
}

/// Every name, in the order [`Name::index`] numbers them.
pub const NAMES: [Name; 17] = [
    Name::Record,
    Name::Visit,
    Name::Fetch,
    Name::Resolve,
    Name::Tape,
    Name::JsonlEncode,
    Name::ColshEncode,
    Name::BundleSubmit,
    Name::JsonlDecode,
    Name::ColshDecode,
    Name::Fold,
    Name::Retime,
    Name::HtmlScan,
    Name::PolicyParse,
    Name::PolicyEval,
    Name::JslandRun,
    Name::StaticScan,
];

impl Name {
    /// Position in [`NAMES`], which lists the names in declaration order.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The name written to the span file.
    pub fn label(self) -> &'static str {
        match self {
            Name::Record => "record",
            Name::Visit => "browser.visit",
            Name::Fetch => "netsim.fetch",
            Name::Resolve => "webgen.resolve",
            Name::Tape => "netsim.tape",
            Name::JsonlEncode => "crawler.jsonl_encode",
            Name::ColshEncode => "crawler.colsh_encode",
            Name::BundleSubmit => "crawler.bundle_submit",
            Name::JsonlDecode => "crawler.jsonl_decode",
            Name::ColshDecode => "crawler.colsh_decode",
            Name::Fold => "analysis.fold",
            Name::Retime => "retime",
            Name::HtmlScan => "html.scan",
            Name::PolicyParse => "policy.parse",
            Name::PolicyEval => "policy.eval",
            Name::JslandRun => "jsland.run",
            Name::StaticScan => "staticscan.scan",
        }
    }
}

/// Marks a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The record the span belongs to (its rank).
    pub id: u64,
    pub name: Name,
    pub start: u64,
    pub end: u64,
    /// Index of the parent span in the same thread's buffer.
    pub parent: u32,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

struct ThreadTrace {
    on: bool,
    epoch: Option<Instant>,
    id: u64,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static TRACE: RefCell<ThreadTrace> = const {
        RefCell::new(ThreadTrace {
            on: false,
            epoch: None,
            id: 0,
            spans: Vec::new(),
            open: Vec::new(),
        })
    };
}

/// Turns tracing on for this thread, timing against `epoch`.
pub fn start_thread(epoch: Instant) {
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        t.on = true;
        t.epoch = Some(epoch);
    });
}

/// Turns tracing off and hands back this thread's spans.
pub fn finish_thread() -> Vec<Span> {
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        t.on = false;
        t.open.clear();
        std::mem::take(&mut t.spans)
    })
}

/// Sets the id that new spans on this thread carry.
pub fn set_id(id: u64) {
    TRACE.with(|t| t.borrow_mut().id = id);
}

/// Opens a span under the innermost open one.
pub fn enter(name: Name) {
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return;
        }
        let now = elapsed_ns(t.epoch);
        let parent = t.open.last().copied().unwrap_or(NO_PARENT);
        let index = t.spans.len() as u32;
        let id = t.id;
        t.spans.push(Span {
            id,
            name,
            start: now,
            end: now,
            parent,
        });
        t.open.push(index);
    });
}

/// Closes the innermost open span.
pub fn exit() {
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return;
        }
        let now = elapsed_ns(t.epoch);
        if let Some(index) = t.open.pop() {
            t.spans[index as usize].end = now;
        }
    });
}

/// How many spans are open; a panic that unwinds past open spans is
/// repaired with [`close_to`].
pub fn depth() -> usize {
    TRACE.with(|t| t.borrow().open.len())
}

/// Closes open spans until only `depth` remain.
pub fn close_to(depth: usize) {
    while self::depth() > depth {
        exit();
    }
}

/// Runs `f` inside a span.
pub fn timed<T>(name: Name, f: impl FnOnce() -> T) -> T {
    enter(name);
    let out = f();
    exit();
    out
}

fn elapsed_ns(epoch: Option<Instant>) -> u64 {
    epoch.map_or(0, |e| e.elapsed().as_nanos() as u64)
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Per-name totals over one thread's spans: inclusive time, self time
/// (duration minus the union of the children's intervals) and count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Totals {
    pub inclusive_ns: [u64; NAMES.len()],
    pub self_ns: [u64; NAMES.len()],
    pub count: [u64; NAMES.len()],
}

impl Totals {
    /// Adds one thread's spans. `spans[i].parent` indexes into `spans`.
    pub fn add_thread(&mut self, spans: &[Span]) {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for span in spans {
            if span.parent != NO_PARENT {
                children[span.parent as usize].push((span.start, span.end));
            }
        }
        for (span, kids) in spans.iter().zip(children.iter_mut()) {
            let i = span.name.index();
            let covered = covered(span.start, span.end, kids);
            self.inclusive_ns[i] += span.duration();
            self.self_ns[i] += span.duration() - covered;
            self.count[i] += 1;
        }
    }

    /// Adds another set of totals.
    pub fn add_totals(&mut self, other: &Totals) {
        for i in 0..NAMES.len() {
            self.inclusive_ns[i] += other.inclusive_ns[i];
            self.self_ns[i] += other.self_ns[i];
            self.count[i] += other.count[i];
        }
    }

    pub fn self_ns(&self, name: Name) -> u64 {
        self.self_ns[name.index()]
    }

    pub fn inclusive_ns(&self, name: Name) -> u64 {
        self.inclusive_ns[name.index()]
    }

    pub fn count(&self, name: Name) -> u64 {
        self.count[name.index()]
    }
}

/// Sums the inclusive time of spans named `name` per id.
pub fn per_id_inclusive(
    spans: &[Span],
    name: Name,
    into: &mut std::collections::HashMap<u64, u64>,
) {
    for span in spans.iter().filter(|s| s.name == name) {
        *into.entry(span.id).or_default() += span.duration();
    }
}

/// The 1-based nearest rank of percentile `p` among `n` samples, in
/// integer basis points so that e.g. p99.9 of 20,000 is exactly 19,980.
fn nearest_rank(p: f64, n: usize) -> usize {
    let basis_points = (p * 100.0).round() as usize;
    (basis_points * n).div_ceil(10_000)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `sorted`.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[nearest_rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// The highest of the candidate percentiles with at least ten samples
/// beyond it, and its value. `None` with fewer than 20 samples.
pub fn tail(sorted: &[u64]) -> Option<(f64, u64)> {
    const CANDIDATES: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 50.0];
    CANDIDATES.iter().find_map(|&p| {
        let at = nearest_rank(p, sorted.len());
        (sorted.len().saturating_sub(at) >= 10).then(|| (p, percentile(sorted, p)))
    })
}

/// Writes spans as tab-separated lines: id, name, start, end, parent.
pub fn write_tsv(
    out: &mut impl std::io::Write,
    thread: usize,
    spans: &[Span],
) -> std::io::Result<()> {
    for span in spans {
        let parent = if span.parent == NO_PARENT {
            "-".to_string()
        } else {
            format!("{thread}:{}", span.parent)
        };
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            span.id,
            span.name.label(),
            span.start,
            span.end,
            parent
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, start: u64, end: u64, parent: u32) -> Span {
        Span {
            id: 1,
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span(Name::Visit, 0, 100, NO_PARENT),
            span(Name::Fetch, 10, 20, 0),
            span(Name::Fetch, 50, 80, 0),
        ];
        let mut totals = Totals::default();
        totals.add_thread(&spans);
        assert_eq!(totals.self_ns(Name::Visit), 60);
        assert_eq!(totals.inclusive_ns(Name::Visit), 100);
        assert_eq!(totals.self_ns(Name::Fetch), 40);
        assert_eq!(totals.count(Name::Fetch), 2);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two children overlapping on [30, 40] cover [20, 50] in all.
        let spans = [
            span(Name::Visit, 0, 100, NO_PARENT),
            span(Name::Fetch, 20, 40, 0),
            span(Name::Resolve, 30, 50, 0),
        ];
        let mut totals = Totals::default();
        totals.add_thread(&spans);
        assert_eq!(totals.self_ns(Name::Visit), 70);
    }

    #[test]
    fn child_contained_in_a_sibling_adds_nothing() {
        let spans = [
            span(Name::Visit, 0, 100, NO_PARENT),
            span(Name::Fetch, 10, 60, 0),
            span(Name::Resolve, 20, 30, 0),
        ];
        let mut totals = Totals::default();
        totals.add_thread(&spans);
        assert_eq!(totals.self_ns(Name::Visit), 50);
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        // record ⊃ visit ⊃ fetch ⊃ resolve.
        let spans = [
            span(Name::Record, 0, 100, NO_PARENT),
            span(Name::Visit, 10, 90, 0),
            span(Name::Fetch, 20, 60, 1),
            span(Name::Resolve, 30, 50, 2),
        ];
        let mut totals = Totals::default();
        totals.add_thread(&spans);
        assert_eq!(totals.self_ns(Name::Record), 20);
        assert_eq!(totals.self_ns(Name::Visit), 40);
        assert_eq!(totals.self_ns(Name::Fetch), 20);
        assert_eq!(totals.self_ns(Name::Resolve), 20);
        let all: u64 = NAMES.iter().map(|n| totals.self_ns(*n)).sum();
        assert_eq!(
            all, 100,
            "self times of a tree add up to the root's duration"
        );
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span(Name::Visit, 10, 50, NO_PARENT),
            span(Name::Fetch, 0, 20, 0),
            span(Name::Fetch, 40, 70, 0),
        ];
        let mut totals = Totals::default();
        totals.add_thread(&spans);
        assert_eq!(totals.self_ns(Name::Visit), 20);
    }

    #[test]
    fn recorder_nests_by_open_span() {
        start_thread(Instant::now());
        set_id(7);
        enter(Name::Record);
        timed(Name::Fetch, || timed(Name::Resolve, || ()));
        enter(Name::Visit);
        close_to(0);
        let spans = finish_thread();
        let names: Vec<Name> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [Name::Record, Name::Fetch, Name::Resolve, Name::Visit]
        );
        let parents: Vec<u32> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [NO_PARENT, 0, 1, 0]);
        assert!(spans.iter().all(|s| s.id == 7 && s.end >= s.start));
        enter(Name::Record);
        assert!(finish_thread().is_empty(), "tracing is off after finish");
    }

    #[test]
    fn names_are_listed_in_declaration_order() {
        for (i, name) in NAMES.iter().enumerate() {
            assert_eq!(name.index(), i, "{}", name.label());
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 90.0), 90);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile(&sorted, 100.0), 100);
        assert_eq!(percentile(&[5], 50.0), 5);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let sorted: Vec<u64> = (1..=100).collect();
        // p99 leaves 1 beyond, p95 leaves 5, p90 leaves exactly 10.
        assert_eq!(tail(&sorted), Some((90.0, 90)));
        let sorted: Vec<u64> = (1..=20_000).collect();
        // p99.9 leaves 20 beyond, p99.99 leaves 2.
        assert_eq!(tail(&sorted), Some((99.9, 19_980)));
        assert_eq!(tail(&(1..=19).collect::<Vec<u64>>()), None);
    }
}
