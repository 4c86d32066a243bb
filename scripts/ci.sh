#!/usr/bin/env bash
# Full local CI: build, tests, formatting, lints.
#
#   scripts/ci.sh
#
# Everything runs offline against the vendored dependency stand-ins
# (see vendor/README.md); no network access is required.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# The benchmark's tracer is its own cargo workspace over the crates'
# public APIs, so nothing above compiles it; build it here so an API
# change that breaks the benchmark fails CI rather than the next
# benchmark run. Its build output goes under target/ with the rest.
echo "==> benchmark tracer builds against the current crates"
cargo build -q --release --manifest-path perfbench/tracer/Cargo.toml \
    --target-dir target/perfbench-tracer

echo "==> fuzz suites (hostile-input hardening)"
cargo test -q -p html -p jsland -p policy --test proptests

echo "==> hardened test pass (debug assertions + overflow checks)"
RUSTFLAGS="-C debug-assertions -C overflow-checks" \
    cargo test -q -p html -p jsland -p policy -p browser -p webgen -p netsim

echo "==> streaming equivalence at full scale (release, 20k sites)"
cargo test -q --release --test streaming_equivalence

echo "==> serde byte-identity gate (20k sites, streaming vs value-tree)"
cargo build --release --example reencode
BIN=target/release/permissions-odyssey
IDENT=$(mktemp -d)
trap 'rm -rf "$IDENT"' EXIT
"$BIN" crawl --size 20000 --seed 7 --out "$IDENT/crawl.jsonl" 2>/dev/null
target/release/examples/reencode \
    --db "$IDENT/crawl.jsonl" --out "$IDENT/streaming.jsonl" --codec streaming
target/release/examples/reencode \
    --db "$IDENT/crawl.jsonl" --out "$IDENT/value-tree.jsonl" --codec value-tree
cmp "$IDENT/crawl.jsonl" "$IDENT/streaming.jsonl"
cmp "$IDENT/streaming.jsonl" "$IDENT/value-tree.jsonl"
rm -rf "$IDENT"
echo "    crawl, streaming re-encode, and value-tree re-encode are byte-identical"

echo "==> js-engine byte-identity gate (20k sites, interp vs vm)"
BIN=target/release/permissions-odyssey
ENG=$(mktemp -d)
trap 'rm -rf "$ENG"' EXIT
"$BIN" crawl --size 20000 --seed 7 --js-engine vm --out "$ENG/vm.jsonl" 2>/dev/null
"$BIN" crawl --size 20000 --seed 7 --js-engine interp --out "$ENG/interp.jsonl" 2>/dev/null
cmp "$ENG/vm.jsonl" "$ENG/interp.jsonl"
rm -rf "$ENG"
echo "    bytecode-VM and tree-walker crawls are byte-identical"

echo "==> sharded round-trip smoke (crawl --shards 4 vs unsharded)"
BIN=target/release/permissions-odyssey
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
"$BIN" crawl --size 2000 --seed 7 --out "$SMOKE/flat.jsonl" 2>/dev/null
mkdir -p "$SMOKE/sharded"
"$BIN" crawl --size 2000 --seed 7 --shards 4 --out "$SMOKE/sharded/crawl.jsonl" 2>/dev/null
"$BIN" analyze --db "$SMOKE/flat.jsonl" >"$SMOKE/flat.out" 2>/dev/null
"$BIN" analyze --db "$SMOKE/sharded" --workers 4 >"$SMOKE/sharded.out" 2>/dev/null
diff -u "$SMOKE/flat.out" "$SMOKE/sharded.out"
echo "    sharded analyze output is byte-identical"

echo "==> columnar format gate (20k sites, JSONL vs .colsh)"
BIN=target/release/permissions-odyssey
COL=$(mktemp -d)
trap 'rm -rf "$COL"' EXIT
"$BIN" crawl --size 20000 --seed 7 --out "$COL/crawl.jsonl" 2>/dev/null
"$BIN" crawl --size 20000 --seed 7 --format columnar --out "$COL/crawl.colsh" 2>/dev/null
"$BIN" convert --in "$COL/crawl.jsonl" --out "$COL/converted.colsh" 2>/dev/null
cmp "$COL/crawl.colsh" "$COL/converted.colsh"
"$BIN" convert --in "$COL/crawl.colsh" --out "$COL/back.jsonl" 2>/dev/null
cmp "$COL/crawl.jsonl" "$COL/back.jsonl"
echo "    direct columnar crawl, convert round-trip, and JSONL are byte-identical"
# Dictionary epochs (bounded writer dictionaries) must be invisible to
# readers: an epoched encoding converts back to the exact JSONL bytes
# and analyzes identically.
"$BIN" convert --in "$COL/crawl.jsonl" --out "$COL/epoch.colsh" --dict-epoch 4 2>/dev/null
"$BIN" convert --in "$COL/epoch.colsh" --out "$COL/epoch-back.jsonl" 2>/dev/null
cmp "$COL/crawl.jsonl" "$COL/epoch-back.jsonl"
"$BIN" analyze --db "$COL/crawl.jsonl" >"$COL/epoch-ref.out" 2>/dev/null
"$BIN" analyze --db "$COL/epoch.colsh" >"$COL/epoch.out" 2>/dev/null
diff -u "$COL/epoch-ref.out" "$COL/epoch.out"
echo "    dictionary-epoch encoding round-trips and analyzes byte-identically"
for table in funnel census completeness t3 t4 t5 t6 summary t7 t8 directives \
             f2 t9 misconfig t10 groups exposure; do
    for workers in 1 4; do
        "$BIN" analyze --db "$COL/crawl.jsonl" --table "$table" --workers "$workers" \
            >"$COL/jsonl.out" 2>/dev/null
        "$BIN" analyze --db "$COL/crawl.colsh" --table "$table" --workers "$workers" \
            >"$COL/colsh.out" 2>/dev/null
        diff -u "$COL/jsonl.out" "$COL/colsh.out"
    done
done
echo "    every table renders byte-identically from columnar at 1 and 4 workers"
mkdir -p "$COL/sharded"
"$BIN" crawl --size 20000 --seed 7 --shards 4 --format columnar \
    --out "$COL/sharded/crawl.colsh" 2>/dev/null
"$BIN" analyze --db "$COL/crawl.jsonl" >"$COL/flat.out" 2>/dev/null
"$BIN" analyze --db "$COL/sharded" --workers 4 >"$COL/shard.out" 2>/dev/null
diff -u "$COL/flat.out" "$COL/shard.out"
rm -rf "$COL"
echo "    sharded columnar analyze output is byte-identical"

echo "==> record/replay bundle gate (20k sites, generator never invoked)"
BIN=target/release/permissions-odyssey
REC=$(mktemp -d)
trap 'rm -rf "$REC"' EXIT
"$BIN" crawl --size 20000 --seed 7 --record "$REC/bundle" --out "$REC/live.jsonl" 2>/dev/null
"$BIN" crawl --replay "$REC/bundle" --out "$REC/replayed.jsonl" 2>/dev/null
cmp "$REC/live.jsonl" "$REC/replayed.jsonl"
"$BIN" crawl --replay "$REC/bundle" --workers 1 --out "$REC/replayed-w1.jsonl" 2>/dev/null
cmp "$REC/live.jsonl" "$REC/replayed-w1.jsonl"
"$BIN" crawl --size 20000 --seed 7 --format columnar --out "$REC/live.colsh" 2>/dev/null
"$BIN" crawl --replay "$REC/bundle" --format columnar --out "$REC/replayed.colsh" 2>/dev/null
cmp "$REC/live.colsh" "$REC/replayed.colsh"
mkdir -p "$REC/live4" "$REC/replayed4"
"$BIN" crawl --size 20000 --seed 7 --shards 4 --out "$REC/live4/crawl.jsonl" 2>/dev/null
"$BIN" crawl --replay "$REC/bundle" --shards 4 --out "$REC/replayed4/crawl.jsonl" 2>/dev/null
for i in 000 001 002 003; do
    cmp "$REC/live4/crawl-$i.jsonl" "$REC/replayed4/crawl-$i.jsonl"
done
echo "    recorded 20k crawl replays byte-identically in JSONL (8 and 1 workers, 1 and 4 shards) and .colsh"
# A store with one blob byte flipped must fail before any output file
# is created. Byte 40 lies in the first blob's content (after the
# 8-byte magic, the 8-byte frame header and the 16-byte digest).
cp -r "$REC/bundle" "$REC/damaged"
byte=$(od -An -tu1 -j 40 -N1 "$REC/damaged/blobs.bin" | tr -d ' ')
printf "\\$(printf '%03o' $((byte ^ 1)))" |
    dd of="$REC/damaged/blobs.bin" bs=1 seek=40 conv=notrunc 2>/dev/null
cmp -s "$REC/bundle/blobs.bin" "$REC/damaged/blobs.bin" && {
    echo "the damaged store copy is unchanged" >&2
    exit 1
}
if "$BIN" crawl --replay "$REC/damaged" --out "$REC/damaged.jsonl" 2>"$REC/damaged.err"; then
    echo "replaying a damaged bundle store unexpectedly succeeded" >&2
    exit 1
fi
grep -q "blobs.bin" "$REC/damaged.err"
if [ -e "$REC/damaged.jsonl" ]; then
    echo "replaying a damaged bundle store created its output file" >&2
    exit 1
fi
echo "    a store with one flipped blob byte fails loudly and writes no output"
# The content-addressed store must actually dedup: ratio >= 1.5 (2.11
# measured, see EXPERIMENTS.md) and a store strictly smaller than the
# JSONL dataset it reproduces.
"$BIN" bundle stat "$REC/bundle" >"$REC/stat.txt"
ratio=$(awk '/dedup ratio:/ {print $3}' "$REC/stat.txt")
awk -v r="$ratio" 'BEGIN { exit !(r >= 1.5) }' || {
    echo "bundle dedup ratio $ratio fell below the 1.5 floor" >&2
    exit 1
}
store_bytes=$(awk '/store size:/ {print $3}' "$REC/stat.txt")
jsonl_bytes=$(wc -c <"$REC/live.jsonl")
if [ "$store_bytes" -ge "$jsonl_bytes" ]; then
    echo "bundle store ($store_bytes B) is not smaller than the JSONL dataset ($jsonl_bytes B)" >&2
    exit 1
fi
rm -rf "$REC"
echo "    bundle store dedup ratio $ratio (>= 1.5), store smaller than JSONL"

echo "==> job engine: deterministic kill-and-resume chaos harness (release)"
cargo test -q --release -p crawler --test job_engine

echo "==> job engine: CLI crash gate (chaos kill mid-write, resume, cmp)"
BIN=target/release/permissions-odyssey
JOB=$(mktemp -d)
trap 'rm -rf "$JOB"' EXIT
for format in jsonl columnar; do
    ext=jsonl; [ "$format" = columnar ] && ext=colsh
    "$BIN" crawl-job start --dir "$JOB/ref-$ext" --size 20000 --seed 7 --shards 3 \
        --format "$format" --fault-transients 40 2>/dev/null
    # The chaos hook aborts the engine mid-write without flushing — the
    # start MUST fail — and the tails are shredded further by truncation
    # (every SIGKILL state is some byte prefix of the uninterrupted file).
    if "$BIN" crawl-job start --dir "$JOB/chaos-$ext" --size 20000 --seed 7 --shards 3 \
        --format "$format" --fault-transients 40 --chaos-abort 7300 2>/dev/null; then
        echo "chaos-abort run unexpectedly succeeded" >&2
        exit 1
    fi
    truncate -s 41231 "$JOB/chaos-$ext/crawl-000.$ext"
    truncate -s 5 "$JOB/chaos-$ext/crawl-001.$ext"
    "$BIN" crawl-job resume --dir "$JOB/chaos-$ext" 2>/dev/null
    for i in 0 1 2; do
        cmp "$JOB/ref-$ext/crawl-00$i.$ext" "$JOB/chaos-$ext/crawl-00$i.$ext"
    done
    # Capture status before grepping: `status | grep -q` lets grep close
    # the pipe at first match, which EPIPE-panics the still-printing
    # binary and trips pipefail.
    "$BIN" crawl-job status --dir "$JOB/chaos-$ext" >"$JOB/status-$ext.txt"
    grep -q "state:     complete" "$JOB/status-$ext.txt"
done
echo "    killed-and-resumed 20k jobs are byte-identical in both formats"

echo "==> live analysis gate (analyze-while-crawling, both formats)"
LIVE=$(mktemp -d)
trap 'rm -rf "$LIVE"' EXIT
for format in jsonl columnar; do
    ext=jsonl; [ "$format" = columnar ] && ext=colsh
    "$BIN" crawl-job start --dir "$LIVE/job-$ext" --size 20000 --seed 7 --shards 3 \
        --format "$format" 2>/dev/null &
    crawl_pid=$!
    # The follower starts before the manifest may even exist, folds the
    # growing shards at each frontier, and exits when the job completes.
    "$BIN" crawl-job analyze --dir "$LIVE/job-$ext" --follow --interval-ms 100 \
        >/dev/null 2>"$LIVE/follow-$ext.log"
    wait "$crawl_pid"
    "$BIN" analyze --db "$LIVE/job-$ext" >"$LIVE/batch-$ext.out" 2>/dev/null
    diff -u "$LIVE/job-$ext/tables/latest.txt" "$LIVE/batch-$ext.out"
done
rm -rf "$LIVE"
echo "    final live snapshot is byte-identical to batch analyze in both formats"

echo "==> job engine: bounded-memory soak smoke (100k origins, RSS ceiling)"
"$BIN" crawl-job start --dir "$JOB/soak" --size 100000 --shards 4 \
    --status-every 20000 --max-rss-mb 192 2>/dev/null
grep -q '"state":"complete"' "$JOB/soak/status.json"
rm -rf "$JOB"
echo "    100k-origin job stayed under the 192 MiB peak-RSS ceiling"

echo "==> difftest: spec-oracle differential gate (>=10k seeded scenarios)"
cargo test -q --release -p difftest
cargo test -q --release -p difftest --test differential -- --ignored

echo "==> difftest: interp-vs-VM lockstep differential (>=10k seeded scenarios)"
cargo test -q --release -p difftest --lib -- --ignored
echo "    zero engine divergences"

echo "==> difftest: record/replay determinism gate (>=10k scenarios from bundles)"
cargo test -q --release -p difftest --test replay -- --ignored
echo "    zero replay divergences"

echo "==> difftest: coverage-guided fuzz smoke (fixed iteration budget)"
cargo test -q --release -p difftest --test fuzz -- --ignored
echo "    zero divergences, zero fuzz findings, deterministic replay"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> ci OK"
