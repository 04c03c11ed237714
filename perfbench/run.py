#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the BPS reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload local-io --seed 1 --seconds 10 --trace 0

It builds `perfbench` (a package of its own over the repository's crates)
with cargo, then runs closed-loop passes of the `reproduce` scenario
engine, one fresh process per pass, so that no case is served from an
earlier pass's memo or store. `--trace 0` prints the end-to-end metrics
of untraced passes; `--trace 1` runs the traced process and prints the
per-layer metrics. The last line of stdout is the result as JSON. See
perfbench/README.md for what every metric means.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("local-io", "parallel-io", "warm-replay")

# (name, unit) of every metric, in output order.
END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("cases_per_s", "1/s"),
    ("ns_per_record", "ns"),
    ("ns_per_wake", "ns"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("bps_cc_min", "cc"),
]

PER_LAYER = [
    ("sim.engine.wakes", "count"),
    ("sim.engine.floor_ns_per_wake", "ns"),
    ("sim.engine.headroom", "ratio"),
    ("sim.device.ops", "count"),
    ("sim.device.bytes", "bytes"),
    ("sim.device.busy_s", "s"),
    ("sim.device.ns_per_op", "ns"),
    ("fs.ops", "count"),
    ("fs.bytes", "bytes"),
    ("fs.chunks_per_op", "ratio"),
    ("fs.ns_per_map", "ns"),
    ("net.transfers", "count"),
    ("net.ns_per_transfer", "ns"),
    ("middleware.app_bytes", "bytes"),
    ("middleware.amplification", "ratio"),
    ("sink.records", "count"),
    ("sink.batches", "count"),
    ("sink.records_per_batch", "ratio"),
    ("sink.ns_per_record", "ns"),
    ("sink.share", "ratio"),
    ("fault.injected", "count"),
    ("retry.attempts", "count"),
    ("retry.exhausted", "count"),
    ("retry.useful_frac", "ratio"),
    ("engine.expand_ms", "ms"),
    ("engine.score_ms", "ms"),
    ("report.render_ms", "ms"),
    ("cache.l1.hits", "count"),
    ("cache.l1.misses", "count"),
    ("cache.l2.hits", "count"),
    ("cache.l2.misses", "count"),
    ("cache.l2.writes", "count"),
    ("cache.l2.us_per_lookup", "us"),
    ("cache.l2.us_per_write", "us"),
    ("cache.l2.bytes", "bytes"),
    ("cache.hit_frac", "ratio"),
    ("sweep.units", "count"),
    ("sweep.unit_ms.p50", "ms"),
    ("sweep.unit_ms.p95", "ms"),
    ("sweep.unit_samples", "count"),
    ("sweep.efficiency", "ratio"),
    ("sweep.critical_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_share", "ratio"),
]

# Per-layer counts that are exact: they must equal expected.json at the
# default seed.
EXACT_LAYERS = [
    "sim.engine.wakes",
    "sim.device.ops",
    "sim.device.bytes",
    "fs.ops",
    "fs.bytes",
    "net.transfers",
    "middleware.app_bytes",
    "sink.records",
    "sink.batches",
    "fault.injected",
    "retry.attempts",
    "retry.exhausted",
    "cache.l1.hits",
    "cache.l1.misses",
    "cache.l2.hits",
    "cache.l2.misses",
    "cache.l2.writes",
    "sweep.units",
]

# Pass fields that must repeat exactly in every pass of a run.
EXACT_PASS = ["cases", "units", "failed_units", "l1_hits", "l1_misses",
              "l2_hits", "l2_misses", "l2_writes"]

MIN_PASSES = 5
FILLS = 3      # cold fills timed for warm-replay's set-up
REF_PASSES = 3  # untraced passes a traced run compares against


class BenchError(Exception):
    """The benchmark could not run (as opposed to wrong output)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root):
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(root, ".bench_build"))
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest]
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise BenchError("cargo build failed")
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    binary = os.path.join(target, "release", "perfbench")
    if not os.path.isfile(binary):
        raise BenchError(f"no binary at {binary}")
    return binary


class Runner:
    def __init__(self, binary, work, args, threads):
        self.binary = binary
        self.work = work
        self.args = args
        self.threads = threads
        self.runs = 5 if args.scale == "quick" else 2  # Scale::runs
        self.dirs = 0

    def fresh_dir(self, tag):
        self.dirs += 1
        return os.path.join(self.work, f"{tag}{self.dirs}")

    def spawn(self, sub, extra):
        """Run one perfbench process; return (json, wall_s, cpu_s)."""
        out_path = self.fresh_dir("out") + ".json"
        argv = [self.binary, sub, "--workload", self.args.workload,
                "--seed", str(self.args.seed), "--scale", self.args.scale,
                "--threads", str(self.threads)] + extra
        if sub == "pass":
            argv += ["--spawned-ns", str(time.time_ns())]
        t0 = time.perf_counter()
        with open(out_path, "w") as out:
            proc = subprocess.Popen(argv, stdout=out, stderr=sys.stderr)
            _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as f:
            text = f.read()
        os.remove(out_path)
        if proc.returncode != 0:
            return None, wall, 0.0
        return json.loads(text), wall, usage.ru_utime + usage.ru_stime

    def run_pass(self, store, *flags):
        data, wall, cpu = self.spawn("pass", ["--store", store] + list(flags))
        if data is None:
            raise BenchError("perfbench pass failed")
        data["process_wall_s"] = wall
        data["cpu_s"] = cpu
        return data


def load_expected(args):
    """Digests and exact counts at the default seed, recorded on the
    tree that introduced the benchmark; None where they do not apply."""
    if args.seed != 1 or args.scale != "quick":
        return None
    with open(os.path.join(HERE, "expected.json")) as f:
        return json.load(f)[args.workload]


class Checker:
    """Counts failed units against units attempted. A unit fails when
    its sweep unit failed, or when any output check of its scenario or
    pass fails: an expectation violation, a report digest that differs
    from the run's reference or from expected.json, or an exact count
    that drifts."""

    def __init__(self, expected, runs):
        self.expected = expected
        self.runs = runs
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def problem(self, msg):
        if len(self.problems) < 20:
            self.problems.append(msg)

    def check_pass(self, data, reference, measured=True):
        """Check one pass against the run's reference pass (and, for a
        measured pass at the default seed, against expected.json)."""
        self.attempted += data["units"]
        bad = data["failed_units"]
        for s, ref in zip(data["scenarios"], reference["scenarios"]):
            reasons = list(s["violations"])
            if s["digest"] != ref["digest"]:
                reasons.append(f"digest {s['digest']} != this run's {ref['digest']}")
            if self.expected is not None and s["digest"] != self.expected["digests"][s["name"]]:
                reasons.append(f"digest {s['digest']} != expected {self.expected['digests'][s['name']]}")
            if reasons:
                bad += s["cases"] * self.runs
                self.problem(f"{s['name']}: " + "; ".join(reasons))
        drift = [k for k in EXACT_PASS if data[k] != reference[k]]
        if measured and self.expected is not None:
            drift += [k for k, want in self.expected["pass"].items() if data[k] != want]
        if drift:
            bad = data["units"]
            self.problem("exact counts drifted: " + ", ".join(f"{k}={data[k]}" for k in drift))
        self.failed += min(bad, data["units"])

    def check_exact(self, got, want_key, keys):
        if self.expected is None:
            return
        want = self.expected[want_key]
        drift = [k for k in keys if got[k] != want[k]]
        if drift:
            self.failed += 1
            self.problem("exact counts drifted: " + ", ".join(f"{k}={got[k]} (expected {want[k]})" for k in drift))


def median(xs):
    return statistics.median(xs)


def spread(xs):
    if len(xs) < 2:
        return (xs[0], xs[0])
    q = statistics.quantiles(xs, n=4)
    return (q[0], q[2])


def summary_line(name, xs, unit):
    lo, hi = spread(xs)
    return f"  {name:<16} median {median(xs):.6g} {unit}  (q1 {lo:.6g}, q3 {hi:.6g}, n={len(xs)})"


def run_untraced(r, args):
    warm = args.workload == "warm-replay"
    check = Checker(load_expected(args), r.runs)
    # The count pass: one pass with telemetry on, for the exact record
    # and wake counts the per-record and per-wake metrics divide by. For
    # the warm replay it is the cold pass that fills a store.
    count = r.run_pass(r.fresh_dir("store"), "--count", *(["--fill"] if warm else []))
    check.check_pass(count, count, measured=not warm)
    counts = {k: count[k] for k in ("records", "wakes", "batches")}
    check.check_exact(counts, "counts", counts.keys())

    fills = []
    store = None
    if warm:
        for _ in range(FILLS):
            store = r.fresh_dir("store")
            fill = r.run_pass(store, "--fill")
            check.check_pass(fill, count, measured=False)
            fills.append(fill["process_wall_s"])

    passes = []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - started < args.seconds:
        pass_store = store if warm else r.fresh_dir("store")
        data = r.run_pass(pass_store)
        if not warm:
            shutil.rmtree(pass_store, ignore_errors=True)
        # Warm passes read the store instead of filling it, so their
        # cache counts are checked against the first warm pass.
        if warm:
            reference = dict(passes[0] if passes else data, scenarios=count["scenarios"])
        else:
            reference = count
        check.check_pass(data, reference)
        if warm and data["l2_hits"] != data["cases"]:
            check.problem(f"warm pass served {data['l2_hits']} of {data['cases']} cases from the store")
        passes.append(data)

    wall = [p["wall_s"] for p in passes]
    cpu = [p["cpu_s"] for p in passes]
    setup = [p["setup_s"] for p in passes]
    metrics = {
        "wall_s": median(wall),
        "cpu_s": median(cpu),
        "cases_per_s": median([p["cases"] / p["wall_s"] for p in passes]),
        "ns_per_record": median([c * 1e9 / counts["records"] for c in cpu]),
        "ns_per_wake": median([c * 1e9 / counts["wakes"] for c in cpu]),
        "peak_rss_mb": median([p["peak_rss_kb"] / 1024.0 for p in passes]),
        "setup_s": median(setup) + (median(fills) if fills else 0.0),
        "bps_cc_min": passes[0]["bps_cc_min"],
    }
    if metrics["bps_cc_min"] is None:
        check.problem("a CC scenario has no BPS CC")
    print(f"workload {args.workload}, seed {args.seed}, {r.threads} sweep thread(s), "
          f"{len(passes)} passes; a cold pass emits {counts['records']} records in "
          f"{counts['wakes']} wakes")
    print(summary_line("wall_s", wall, "s"))
    print(summary_line("cpu_s", cpu, "s"))
    print(summary_line("setup (start)", setup, "s"))
    if fills:
        print(summary_line("setup (fill)", fills, "s"))
    return metrics, check


def run_traced(r, args):
    warm = args.workload == "warm-replay"
    check = Checker(load_expected(args), r.runs)
    points = r.fresh_dir("points") + ".txt"
    store = None
    if warm:
        store = r.fresh_dir("store")
        fill = r.run_pass(store, "--fill")
    refs = []
    for i in range(REF_PASSES):
        pass_store = store if warm else r.fresh_dir("store")
        refs.append(r.run_pass(pass_store, *(["--points", points] if i == 0 else [])))
        if not warm:
            shutil.rmtree(pass_store, ignore_errors=True)
    for data in refs:
        check.check_pass(data, refs[0])

    trace_store = store if warm else r.fresh_dir("store")
    data, _, _ = r.spawn("trace", ["--store", trace_store, "--probe-store",
                                      r.fresh_dir("probe"), "--points", points])
    if data is None:
        check.problem("traced run failed: its points differ from the untraced pass or it crashed")
        check.failed += refs[0]["units"]
        return None, check
    check.check_pass(data, refs[0])
    layers = data["layers"]
    untraced_wall = median([p["wall_s"] for p in refs])
    # Achieved ns/wake of the cold simulation: the measured passes for
    # the cold workloads, the cold fill for the warm replay.
    achieved_cpu = fill["cpu_s"] if warm else median([p["cpu_s"] for p in refs])
    wakes = layers["sim.engine.wakes"]
    floor = layers["sim.engine.floor_ns_per_wake"]
    layers["sim.engine.headroom"] = (achieved_cpu * 1e9 / wakes) / floor if wakes and floor else 0.0
    layers["trace.overhead_frac"] = data["traced_wall_s"] / untraced_wall - 1.0
    check.check_exact(layers, "layers", EXACT_LAYERS)
    print(f"workload {args.workload}, seed {args.seed}, traced run; replay figures "
          f"re-issue captured requests on fresh instances (not in situ)")
    print(f"  untraced wall {untraced_wall:.6g} s, traced wall {data['traced_wall_s']:.6g} s")
    return layers, check


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("quick", "tiny"), default="quick",
                    help="volume preset (tiny is for the self-test)")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    root = os.getcwd()
    work = os.path.join(root, ".bench_run", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        binary = build(root)
        r = Runner(binary, work, args, threads=min(os.cpu_count() or 1, 2))
        if args.trace:
            values, check = run_traced(r, args)
            table = PER_LAYER
        else:
            values, check = run_untraced(r, args)
            table = END_TO_END
    except BenchError as e:
        log(f"run.py: {e}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, ".bench_run"))
        except OSError:
            pass
    for p in check.problems:
        print(f"  CHECK FAILED: {p}")
    metrics = {}
    if values is not None:
        for name, unit in table:
            metrics[name] = {"value": values[name], "unit": unit}
    result = {
        "correct": check.failed == 0 and not check.problems and values is not None,
        "attempted": max(check.attempted, 1),
        "failed": check.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
