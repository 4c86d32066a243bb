#!/usr/bin/env python3
"""Benchmark of the permissions-odyssey production paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. It builds the release
`permissions-odyssey` CLI and the tracer under perfbench/tracer
(into $CARGO_TARGET_DIR, default .bench_build), sets up the workload's
inputs from --seed, then:

  --trace 0  times the CLI on the workload, repeating it until S seconds
             of timed work are done, checks every output, and reports the
             end-to-end metrics as medians over the repetitions;
  --trace 1  runs the tracer on the same inputs (plus the untimed
             CLI runs it is compared with) and reports per-layer metrics.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The line before it holds the run's
provenance and every raw reading; the same object is written under
.bench_results/. The workloads and the metrics with their units are
the ones BENCHMARK.json names; the reasoning behind them is in
perfbench/README.md.
"""

import argparse
import filecmp
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

# Population sizes per workload. Shard counts are fixed (not derived
# from the CPU count) so that output bytes do not depend on the host.
SIZES = {
    "paper_crawl": {"origins": 20000, "shards": 4},
    "replay": {"origins": 20000},
    "analyze": {"origins": 20000, "shards": 4},
}
SETUP_REPEATS = 5
MIN_REPS = 3

CLI = "permissions-odyssey"
TRACER = "perfbench-tracer"
RESULTS = ".bench_results"
SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def metric_units(section):
    """{name: unit} of the metrics in one section of BENCHMARK.json
    (`end_to_end` or `per_layer`), in the order it lists them."""
    with open(SPEC) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


# ---------------------------------------------------------------------
# Arithmetic (tested in perfbench/test_run.py).
# ---------------------------------------------------------------------

def quartile_spread(values):
    """(q1, median, q3, (q3 - q1) / median) as statistics.quantiles gives
    them; the spread is 0 for fewer than two values or a zero median."""
    med = statistics.median(values)
    if len(values) < 2:
        return values[0], med, values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    share = (q3 - q1) / med if med else 0.0
    return q1, med, q3, share


def failed_share(attempted, failed):
    return failed / attempted if attempted else 0.0


# ---------------------------------------------------------------------
# Processes.
# ---------------------------------------------------------------------

class Reading:
    """Wall time, CPU time and peak RSS of one child process."""

    def __init__(self, wall, cpu, rss_kib, status):
        self.wall = wall
        self.cpu = cpu
        self.rss_kib = rss_kib
        self.status = status

    def ok(self):
        return self.status == 0

    def raw(self):
        return {"wall_s": self.wall, "cpu_s": self.cpu, "peak_rss_kib": self.rss_kib, "status": self.status}


def fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def dir_bytes(paths):
    return sum(os.path.getsize(p) for p in paths)


# ---------------------------------------------------------------------
# The bench context: build, tools, provenance.
# ---------------------------------------------------------------------

class Bench:
    def __init__(self, args):
        self.args = args
        self.root = os.getcwd()
        self.nproc = len(os.sched_getaffinity(0))
        self.workers = self.nproc
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        self.target = os.path.abspath(target)
        self.bin = os.path.join(self.target, "release")
        self.work = os.path.join(self.root, ".bench_work")
        self.log = fresh(os.path.join(self.work, "log"))
        self.attempted = 0
        self.failed = 0
        self.checks = {}
        self.launches = 0

    def cli(self, *args):
        return [os.path.join(self.bin, CLI)] + [str(a) for a in args]

    def tracer(self, *args):
        return [os.path.join(self.bin, TRACER)] + [str(a) for a in args]

    def build(self):
        env = dict(os.environ, CARGO_TARGET_DIR=self.target)
        for argv in (
            ["cargo", "build", "--release", "--offline", "-p", CLI, "--bin", CLI],
            ["cargo", "build", "--release", "--offline", "--manifest-path",
             os.path.join("perfbench", "tracer", "Cargo.toml")],
        ):
            done = subprocess.run(argv, env=env, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                sys.exit(f"perfbench: build failed: {' '.join(argv)}")

    def run(self, argv, stdout_path=None):
        """Runs argv to completion under the tracer's `measure` launcher,
        which reads the child's own wall time, CPU time and peak RSS.

        The child's output goes to files that do not exist yet. On ext4
        a file that is truncated and written again is flushed when it is
        closed, and truncating it once more waits for that write: reusing
        an output file would add a disk round trip to every timing."""
        self.launches += 1
        launcher = self.tracer("measure", "--stderr", os.path.join(self.log, f"{self.launches:05}.err"))
        if stdout_path:
            if os.path.exists(stdout_path):
                os.remove(stdout_path)
            launcher += ["--stdout", stdout_path]
        done = subprocess.run(launcher + ["--"] + argv, capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(f"perfbench: cannot run {argv[0]}: {done.stderr.strip()}")
        m = json.loads(done.stdout)
        return Reading(m["wall_s"], m["cpu_s"], m["peak_rss_kib"], m["status"])

    def run_json(self, argv):
        """Runs a tool that prints one JSON object; returns (reading, object)."""
        path = os.path.join(self.log, "tool.out")
        reading = self.run(argv, stdout_path=path)
        with open(path) as f:
            lines = f.read().strip().splitlines()
        try:
            return reading, json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            return reading, None

    def spans_file(self):
        """Where the traced run keeps its spans (the last repetition's)."""
        os.makedirs(RESULTS, exist_ok=True)
        return os.path.join(self.root, RESULTS, f"{self.args.workload}-seed{self.args.seed}-spans.tsv")

    def check(self, ok, what):
        """Records one output check; a failed one fails the run."""
        tally = self.checks.setdefault(what, {"passed": 0, "failed": 0})
        tally["passed" if ok else "failed"] += 1
        if not ok:
            print(f"perfbench: check failed: {what}", file=sys.stderr)
        return bool(ok)

    def count(self, records, lost):
        self.attempted += records
        self.failed += min(lost, records)

    def provenance(self):
        def tool(argv):
            try:
                done = subprocess.run(argv, capture_output=True, text=True, timeout=20)
                return done.stdout.strip() if done.returncode == 0 else None
            except (OSError, subprocess.TimeoutExpired):
                return None
        return {
            "nproc": self.nproc,
            "workers": self.workers,
            "git_rev": tool(["git", "rev-parse", "HEAD"]),
            "source_digest": source_digest(self.root),
            "rustc": tool(["rustc", "-V"]),
            "cargo": tool(["cargo", "-V"]),
            "python": sys.version.split()[0],
            "machine": os.uname().machine,
        }


def source_digest(root):
    """SHA-256 over the paths and bytes of the sources the build reads:
    it identifies the code when the checkout is not a git repository."""
    digest = hashlib.sha256()
    tops = ["Cargo.toml", "crates", "vendor", "perfbench"]
    for top in tops:
        start = os.path.join(root, top)
        if os.path.isfile(start):
            files = [start]
        else:
            files = []
            for dirpath, dirnames, filenames in os.walk(start):
                dirnames[:] = sorted(d for d in dirnames if d not in ("target", "__pycache__"))
                files.extend(os.path.join(dirpath, f) for f in sorted(filenames) if f != "Cargo.lock")
        for path in files:
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                digest.update(hashlib.sha256(f.read()).digest())
    return digest.hexdigest()


# ---------------------------------------------------------------------
# Shared steps.
# ---------------------------------------------------------------------

def shard_files(dir_, ext, shards):
    return [os.path.join(dir_, f"crawl-{i:03}.{ext}") for i in range(shards)]


def check_dataset(b, files, size, shards, label):
    """Runs the tracer's dataset check: every rank once, striped and in
    order. Returns (ok, digest, quarantined)."""
    _, out = b.run_json(b.tracer("check", "--shards", shards, "--size", size, "--files", *files))
    ok = out is not None and out["ok"] and out["records"] == size
    b.check(ok, f"{label}: {size} records, every rank once and in order"
            + ("" if out is None or out["ok"] else f" ({out['problem']})"))
    if out is None:
        return False, None, 0
    return ok, out["digest"], out["quarantined"]


def sharded_crawl(b, dir_, seed, size, shards):
    """`crawl --shards` of the population into dir_/crawl-NNN.jsonl."""
    return b.run(b.cli("crawl", "--size", size, "--seed", seed, "--shards", shards,
                       "--workers", b.workers, "--out", os.path.join(dir_, "crawl.jsonl")))


def job_status(dir_):
    try:
        with open(os.path.join(dir_, "status.json")) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError):
        return None


def checked_job(b, dir_, seed, spec, workers, label, reference):
    """One `crawl-job start` plus every check on its output, including
    that it wrote the `reference` shards byte for byte. Returns the
    reading, the shard files and the job's status.json."""
    size, shards = spec["origins"], spec["shards"]
    shutil.rmtree(dir_, ignore_errors=True)
    reading = b.run(b.cli("crawl-job", "start", "--dir", dir_, "--size", size, "--seed", seed,
                          "--shards", shards, "--workers", workers))
    files = shard_files(dir_, "jsonl", shards)
    status = job_status(dir_)
    ok = b.check(reading.ok(), f"{label}: exit status 0")
    ok = b.check(status is not None and status["state"] == "complete"
                 and status["written"] == size, f"{label}: status.json complete") and ok
    data_ok, _, quarantined = check_dataset(b, files, size, shards, label) if ok else (False, None, 0)
    data_ok = b.check(data_ok and all(filecmp.cmp(f, r, shallow=False) for f, r in zip(files, reference)),
                      f"{label}: shards byte-identical to the reference crawl's") and data_ok
    panics = status["panics_caught"] if status else 0
    b.check(panics == 0, f"{label}: no visit panicked")
    if not (ok and data_ok):
        lost = size
    else:
        lost = quarantined + panics
    b.count(size, lost)
    return reading, files, status


def timed_loop(seconds, body):
    """Calls body() until `seconds` of timed work are done (at least
    MIN_REPS times unless that would take more than twice as long).
    body() returns the seconds it timed, or None to count all of it."""
    timed = 0.0
    started = time.perf_counter()
    reps = 0
    while timed < seconds or (reps < MIN_REPS and time.perf_counter() - started < 2 * seconds):
        began = time.perf_counter()
        spent = body()
        timed += time.perf_counter() - began if spent is None else spent
        reps += 1


def summarize(values_by_metric, result_metrics, spreads):
    for name, values in values_by_metric.items():
        q1, med, q3, share = quartile_spread(values)
        result_metrics[name] = med
        spreads[name] = {"q1": q1, "median": med, "q3": q3, "iqr_share": share, "n": len(values)}


# ---------------------------------------------------------------------
# Set-up per workload. Each returns the inputs the timed phase reads.
# ---------------------------------------------------------------------

def setup_crawl(b, name, seed):
    """A crawl reads no inputs. Its set-up writes the reference dataset
    that every timed crawl, and in the traced run every `crawl-job`,
    must reproduce byte for byte; the set-up time is that crawl's wall
    time."""
    spec = SIZES[name]
    size, shards = spec["origins"], spec["shards"]
    ref = fresh(os.path.join(b.work, "reference"))
    reading = sharded_crawl(b, ref, seed, size, shards)
    b.check(reading.ok(), f"{name} set-up: `crawl --shards {shards}` exit status 0")
    files = shard_files(ref, "jsonl", shards)
    ok, digest, quarantined = check_dataset(b, files, size, shards, f"{name} set-up: reference crawl")
    b.count(size, size if not (ok and reading.ok()) else quarantined)
    return reading.wall, {"reference": files, "digest": digest, "quarantined": quarantined}


def setup_replay(b, name, seed):
    """Records the paper population into a bundle store with
    `crawl --record`; the recorded crawl's output is the reference the
    replay must reproduce byte for byte."""
    size = SIZES[name]["origins"]
    store = os.path.join(b.work, "store")
    recorded = os.path.join(b.work, "recorded.jsonl")
    # Fresh files every time: ext4 flushes a file rewritten over a
    # truncated one when it is closed, which would time the disk.
    shutil.rmtree(store, ignore_errors=True)
    if os.path.exists(recorded):
        os.remove(recorded)
    reading = b.run(b.cli("crawl", "--record", store, "--size", size, "--seed", seed,
                          "--workers", b.workers, "--out", recorded))
    b.check(reading.ok(), "replay set-up: `crawl --record` exit status 0")
    ok, digest, quarantined = check_dataset(b, [recorded], size, 1, "replay set-up: recorded crawl")
    b.count(size, size if not (ok and reading.ok()) else quarantined)
    return reading.wall, {"store": store, "recorded": recorded, "digest": digest}


def setup_analyze(b, name, seed):
    """Crawls the paper population into four JSONL shards with
    `crawl --shards`, then converts each shard to `.colsh` with
    `convert`: the same records in both formats. The set-up time is the
    sum of the wall times of those CLI runs; the checks between them are
    not timed."""
    spec = SIZES[name]
    size, shards = spec["origins"], spec["shards"]
    jdir = fresh(os.path.join(b.work, "jsonl"))
    cdir = fresh(os.path.join(b.work, "colsh"))
    reading = sharded_crawl(b, jdir, seed, size, shards)
    b.check(reading.ok(), f"analyze set-up: `crawl --shards {shards}` exit status 0")
    jfiles = shard_files(jdir, "jsonl", shards)
    ok, digest, quarantined = check_dataset(b, jfiles, size, shards, "analyze set-up: JSONL shards")
    b.count(size, size if not (ok and reading.ok()) else quarantined)
    wall = reading.wall
    cfiles = shard_files(cdir, "colsh", shards)
    for src, dst in zip(jfiles, cfiles):
        conv = b.run(b.cli("convert", "--in", src, "--out", dst))
        b.check(conv.ok(), f"analyze set-up: convert {os.path.basename(src)}")
        wall += conv.wall
    ok, cdigest, _ = check_dataset(b, cfiles, spec["origins"], spec["shards"], "analyze set-up: .colsh copy")
    b.check(ok and cdigest == digest, "analyze set-up: .colsh copy holds the JSONL records")
    return wall, {"jdir": jdir, "cdir": cdir, "jfiles": jfiles, "cfiles": cfiles}


SETUPS = {
    "paper_crawl": setup_crawl,
    "replay": setup_replay,
    "analyze": setup_analyze,
}


# ---------------------------------------------------------------------
# Timed phases (--trace 0).
# ---------------------------------------------------------------------

def timed_crawl(b, name, seed, inputs, values, raw):
    """Times `crawl --shards`; every repetition must write the reference
    shards byte for byte. `crawl-job` runs only in the traced run: its
    wall time is mostly the disk's (perfbench/README.md)."""
    spec = SIZES[name]
    size, shards = spec["origins"], spec["shards"]
    digests = {inputs["digest"]}
    dir_ = os.path.join(b.work, "crawl")

    def body():
        reading = sharded_crawl(b, fresh(dir_), seed, size, shards)
        files = shard_files(dir_, "jsonl", shards)
        b.check(reading.ok(), f"{name}: exit status 0")
        same = b.check(reading.ok() and all(os.path.exists(f) and filecmp.cmp(f, r, shallow=False)
                                            for f, r in zip(files, inputs["reference"])),
                       f"{name}: shards byte-identical to the reference crawl's")
        lost = inputs["quarantined"] if same else size
        b.count(size, lost)
        digest = inputs["digest"] if same else None
        digests.add(digest)
        add_reading(values, raw, reading, size, dir_bytes(files) if same else 0, lost, digest)
        shutil.rmtree(dir_, ignore_errors=True)
        return reading.wall

    timed_loop(b.args.seconds, body)
    b.check(len(digests) == 1, f"{name}: output digest identical in every repetition and to the reference's")


def timed_replay(b, name, seed, inputs, values, raw):
    size = SIZES[name]["origins"]
    out = os.path.join(b.work, "replayed.jsonl")
    store_bytes = dir_bytes(os.path.join(inputs["store"], f) for f in os.listdir(inputs["store"]))
    digests = set()

    def body():
        reading = b.run(b.cli("crawl", "--replay", inputs["store"], "--workers", b.workers, "--out", out))
        written = os.path.exists(out)
        same = reading.ok() and written and filecmp.cmp(out, inputs["recorded"], shallow=False)
        b.check(reading.ok(), "replay: exit status 0")
        b.check(same, "replay: output byte-identical to the recorded crawl's")
        lost = 0 if same else size
        b.count(size, lost)
        digest = inputs["digest"] if same else None
        digests.add(digest)
        add_reading(values, raw, reading, size, store_bytes + (os.path.getsize(out) if written else 0),
                    lost, digest)
        if written:
            os.remove(out)
        return reading.wall

    timed_loop(b.args.seconds, body)
    b.check(len(digests) == 1, "replay: identical output digest in every repetition")


def timed_analyze(b, name, seed, inputs, values, raw):
    size = SIZES[name]["origins"]
    read_bytes = dir_bytes(inputs["jfiles"]) + dir_bytes(inputs["cfiles"])
    digests = set()

    def body():
        outs, readings = [], []
        for db, label in ((inputs["jdir"], "jsonl"), (inputs["cdir"], "colsh")):
            path = os.path.join(b.work, f"tables-{label}.txt")
            readings.append(b.run(b.cli("analyze", "--db", db, "--table", "all", "--workers", b.workers),
                                  stdout_path=path))
            with open(path, "rb") as f:
                outs.append(f.read())
        ok = b.check(all(r.ok() for r in readings), "analyze: exit status 0")
        ok = b.check(ok and outs[0] == outs[1] and len(outs[0]) > 0,
                     "analyze: identical tables from the JSONL and .colsh copies") and ok
        lost = 0 if ok else 2 * size
        b.count(2 * size, lost)
        digest = hashlib.sha256(outs[0]).hexdigest() if ok else None
        digests.add(digest)
        combined = Reading(sum(r.wall for r in readings), sum(r.cpu for r in readings),
                           max(r.rss_kib for r in readings), max(abs(r.status) for r in readings))
        add_reading(values, raw, combined, 2 * size, read_bytes, lost, digest)
        return combined.wall

    timed_loop(b.args.seconds, body)
    b.check(len(digests) == 1, "analyze: identical tables digest in every repetition")


TIMED = {
    "paper_crawl": timed_crawl,
    "replay": timed_replay,
    "analyze": timed_analyze,
}


def add_reading(values, raw, reading, records, bytes_, lost, digest):
    raw.append(dict(reading.raw(), records=records, bytes=bytes_, lost=lost, digest=digest))
    if not reading.ok() or reading.wall <= 0:
        return
    values["records_per_s"].append(records / reading.wall)
    values["cpu_ms_per_krec"].append(reading.cpu * 1000.0 / (records / 1000.0))
    values["peak_rss_mib"].append(reading.rss_kib / 1024.0)
    values["disk_bytes_per_rec"].append(bytes_ / records)


# ---------------------------------------------------------------------
# Traced phases (--trace 1).
# ---------------------------------------------------------------------

# Per-layer metrics of layers a workload's path never enters: reported
# as 0 there. Every other per-layer metric must come from the trace.
VISIT_LAYERS = ("webgen.", "netsim.", "html.", "policy.", "jsland.", "browser.",
                "trace.retime_mismatched_frames", "crawler.jsonl_encode", "crawler.jsonl_bytes")
NOT_ON_PATH = {
    "paper_crawl": ("netsim.tape", "crawler.colsh_", "crawler.jsonl_decode", "crawler.bundle_",
                    "analysis.", "staticscan."),
    "replay": ("webgen.", "crawler.colsh_", "crawler.jsonl_decode", "crawler.job_",
               "analysis.", "staticscan."),
    "analyze": VISIT_LAYERS + ("crawler.bundle_", "crawler.job_"),
}

def traced_tool(b, argv, label):
    """Runs the tracer twice on the same inputs, without and with spans.
    Returns (traced output, untraced wall, traced wall), or Nones."""
    plain, plain_out = b.run_json(b.tracer(*argv))
    traced, out = b.run_json(b.tracer(*argv, "--trace", "--spans", b.spans_file()))
    ok = b.check(plain.ok() and traced.ok() and out is not None and plain_out is not None,
                 f"{label}: tracer exit status 0")
    if not ok:
        return None, None, None
    return out, plain_out["wall_s"], out["wall_s"]


def check_traced(b, out, label, expect):
    """Trace fidelity: every traced record serialized byte-identically to
    the untraced CLI run's record of the same rank, and every re-timed
    frame agreed with its record, so the per-layer times are of the work
    the visit did."""
    ok = b.check(out["compared"] == expect and out["mismatched"] == 0,
                 f"{label}: {expect} traced records byte-identical to the untraced run's")
    b.check(out["panics"] == 0, f"{label}: no traced visit panicked")
    b.check(out["metrics"]["trace.retime_mismatched_frames"] == 0,
            f"{label}: every re-timed frame agrees with its record")
    b.count(expect, 0 if ok else expect)
    return ok


def trace_crawl(b, name, seed, inputs, values):
    spec = SIZES[name]
    size, shards = spec["origins"], spec["shards"]
    job = os.path.join(b.work, "job")

    def body():
        reading, files, status = checked_job(b, job, seed, spec, b.workers, f"{name} job",
                                             inputs["reference"])
        argv = ["crawl", "--seed", seed, "--size", size, "--workers", b.workers,
                "--out", fresh(os.path.join(b.work, "traced")), "--compare", *files]
        out, wall_plain, wall_traced = traced_tool(b, argv, f"{name} trace")
        if out is None or not reading.ok():
            return None
        check_traced(b, out, f"{name} trace", size)
        m = out["metrics"]
        work_s = m["trace.record_us_per_rec"] * size / 1e6
        m["crawler.job_wait_share"] = 1.0 - work_s / (reading.wall * b.workers)
        m["crawler.job_peak_writer_pending"] = float(status["writer_peak_pending"])
        m["process.busy_share"] = reading.cpu / (reading.wall * b.nproc)
        m["trace.overhead_share"] = wall_traced / wall_plain - 1.0
        # The single-worker baseline, and the `crawl` front-end timed
        # again beside this repetition's job: both must write the
        # reference dataset.
        single, _, _ = checked_job(b, os.path.join(b.work, "job1"), seed, spec, 1,
                                         f"{name} single worker", reference=inputs["reference"])
        m["crawler.job_speedup_1_to_n"] = single.wall / reading.wall
        cdir = fresh(os.path.join(b.work, "crawl"))
        crawl = sharded_crawl(b, cdir, seed, size, shards)
        cfiles = shard_files(cdir, "jsonl", shards)
        same = crawl.ok() and all(os.path.exists(c) and filecmp.cmp(c, r, shallow=False)
                                  for c, r in zip(cfiles, inputs["reference"]))
        b.check(same, f"{name}: `crawl --shards {shards}` writes the reference shards again")
        b.count(size, 0 if same else size)
        m["crawler.job_gap_ratio"] = reading.wall / crawl.wall
        for key, value in m.items():
            values.setdefault(key, []).append(value)
        return None

    timed_loop(b.args.seconds, body)


def trace_replay(b, name, seed, inputs, values):
    size = SIZES[name]["origins"]
    out_path = os.path.join(b.work, "replayed.jsonl")

    def body():
        reading = b.run(b.cli("crawl", "--replay", inputs["store"], "--workers", b.workers, "--out", out_path))
        same = reading.ok() and filecmp.cmp(out_path, inputs["recorded"], shallow=False)
        b.check(same, "replay: output byte-identical to the recorded crawl's")
        b.count(size, 0 if same else size)
        rerecorded = os.path.join(b.work, "rerecorded")
        shutil.rmtree(rerecorded, ignore_errors=True)
        argv = ["replay", "--store", inputs["store"], "--workers", b.workers,
                "--out", fresh(os.path.join(b.work, "traced")), "--compare", out_path]
        plain, plain_out = b.run_json(b.tracer(*argv))
        traced, out = b.run_json(b.tracer(*argv, "--trace", "--record-into", rerecorded,
                                          "--spans", b.spans_file()))
        if not b.check(plain.ok() and traced.ok() and out and plain_out, "replay trace: exit status 0"):
            return None
        check_traced(b, out, "replay trace", size)
        b.check(all(filecmp.cmp(os.path.join(inputs["store"], f), os.path.join(rerecorded, f), shallow=False)
                    for f in os.listdir(inputs["store"])),
                "replay trace: re-recorded store byte-identical to `crawl --record`'s")
        m = out["metrics"]
        m["process.busy_share"] = reading.cpu / (reading.wall * b.nproc)
        m["trace.overhead_share"] = out["wall_s"] / plain_out["wall_s"] - 1.0
        for key, value in m.items():
            values.setdefault(key, []).append(value)
        return None

    timed_loop(b.args.seconds, body)


def trace_analyze(b, name, seed, inputs, values):
    size = SIZES[name]["origins"]

    def body():
        expect = os.path.join(b.work, "tables-cli.txt")
        reading = b.run(b.cli("analyze", "--db", inputs["jdir"], "--table", "all", "--workers", b.workers),
                        stdout_path=expect)
        b.check(reading.ok(), "analyze: exit status 0")
        argv = ["analyze", "--workers", b.workers, "--jsonl", *inputs["jfiles"],
                "--colsh", *inputs["cfiles"], "--expect", expect,
                "--out", fresh(os.path.join(b.work, "traced"))]
        out, wall_plain, wall_traced = traced_tool(b, argv, "analyze trace")
        if out is None:
            return None
        ok = b.check(out["records"] == 2 * size and out["formats_agree"] == 1 and out["matches_expected"] == 1,
                     "analyze trace: traced tables identical from both formats and to the CLI's")
        ok = b.check(out["converted_identical"] == 1,
                     "analyze trace: traced .colsh encoding byte-identical to `convert`'s") and ok
        b.count(2 * size, 0 if ok else 2 * size)
        m = out["metrics"]
        m["process.busy_share"] = reading.cpu / (reading.wall * b.nproc)
        m["trace.overhead_share"] = wall_traced / wall_plain - 1.0
        for key, value in m.items():
            values.setdefault(key, []).append(value)
        return None

    timed_loop(b.args.seconds, body)


TRACED = {
    "paper_crawl": trace_crawl,
    "replay": trace_replay,
    "analyze": trace_analyze,
}


# ---------------------------------------------------------------------
# Main.
# ---------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description="permissions-odyssey production-path benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (os.path.isfile("Cargo.toml") and os.path.isdir(os.path.join("crates", "core"))):
        sys.exit("perfbench: run from the root of a permissions-odyssey source checkout "
                 "(Cargo.toml and crates/ not found)")

    b = Bench(args)
    b.build()
    name, seed = args.workload, args.seed

    setup_walls, inputs = [], {}
    for _ in range(1 if args.trace else SETUP_REPEATS):
        wall, inputs = SETUPS[name](b, name, seed)
        setup_walls.append(wall)

    metrics, spreads, raw = {}, {}, []
    if args.trace:
        units = metric_units("per_layer")
        values = {}
        TRACED[name](b, name, seed, inputs, values)
        summarize(values, metrics, spreads)
        metrics["failed_share"] = failed_share(b.attempted, b.failed)
        for m in units:
            if m.startswith(NOT_ON_PATH[name]):
                metrics[m] = 0.0
        missing = [m for m in units if m not in metrics]
        b.check(not missing, f"trace reports every per-layer metric on the path (missing: {missing})")
    else:
        units = metric_units("end_to_end")
        values = {m: [] for m in units if m != "setup_s"}
        TIMED[name](b, name, seed, inputs, values, raw)
        b.check(all(values[m] for m in values), f"{name}: at least one successful timed repetition")
        summarize({m: v for m, v in values.items() if v}, metrics, spreads)
        summarize({"setup_s": setup_walls}, metrics, spreads)

    correct = all(c["failed"] == 0 for c in b.checks.values())
    result = {
        "correct": correct,
        "attempted": max(b.attempted, 1),
        "failed": b.failed if correct else max(b.attempted, 1),
        "metrics": {m: {"value": float(metrics.get(m, 0.0)), "unit": units[m]} for m in units},
    }
    provenance = dict(
        b.provenance(),
        workload=name, seed=seed, trace=args.trace, run_seconds=args.seconds,
        sizes=SIZES[name], failed_share=failed_share(result["attempted"], result["failed"]),
        setup_readings_s=setup_walls, readings=raw, spreads=spreads,
        checks=b.checks, per_layer_values=values if args.trace else None,
    )
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{name}-seed{seed}-trace{args.trace}.json"), "w") as f:
        json.dump({"result": result, "provenance": provenance}, f, indent=1)
    shutil.rmtree(b.work, ignore_errors=True)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
