"""Benchmark of the cantorconj deciders: one workload per run.

    python3 bench/run.py --workload zoo --seed 1 --seconds 10 --trace 0

Runs whole passes of the workload (see workloads.py) until --seconds of
wall time have passed and at least MIN_OPS operations were timed, checks
every answer, and prints one JSON object as the last line of standard
output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
run first times one untraced pass, then installs spans (spans.py) and
reports the per-layer metrics and the tracing overhead.  Timings are in
calibrated seconds (calib.py); the raw wall figures go to standard error.

    python3 bench/run.py --write-manifest    # (re)writes BENCHMARK.json

The program is imported from src/ of the checkout this file sits in and
nowhere else; without it the run stops with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)

import calib  # noqa: E402

MIN_OPS = 100
SETUP_REPEATS = 3  # this process plus two fresh interpreters

WORKLOAD_WHY = {
    "zoo": "named, fixed and seeded random systems on every ordered pair: the "
    "invariant layers (invariants, fieldpoly, dimgroup); the ladder search is almost never entered",
    "telescope": "each 2x2 system and odometer against its own telescoping: the ladder "
    "search and its audit in classify, heights and composed incidences in bratteli",
    "resolution": "odometer conjugators at resolution and seeded block bijections: the only "
    "workload that works fullgroup, tower_map and dimgroup positivity and push",
}

# Bounds from bench/steady.py over ten seeds per workload (see README).
END_TO_END = [
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_s", "s", "lower", 0.25),
    ("op_p90_s", "s", "lower", 0.25),
    ("decided", "count", "higher", 0.1),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]


def manifest():
    import spans

    per_layer = [
        {"name": name, "unit": "count" if kind != "self_s" else "s",
         "better": "lower"}
        for name, (kind, _) in spans.METRICS.items()
    ]
    per_layer += [
        {"name": "cli.import_s", "unit": "s", "better": "lower"},
        {"name": "cli.sympy_import_s", "unit": "s", "better": "lower"},
        {"name": "cli.sympy_loaded", "unit": "count", "better": "lower"},
        {"name": "trace.overhead_pct", "unit": "%", "better": "lower"},
    ]
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": 6,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOAD_WHY.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": per_layer,
    }


def fail(message):
    print("bench: " + message, file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import cantorconj, and sympy, from this checkout's src/ only."""
    if not os.path.isfile(os.path.join(SRC, "cantorconj", "__init__.py")):
        fail("no program source at %s" % os.path.relpath(SRC, ROOT))
    sys.path.insert(0, SRC)
    import cantorconj.cli  # noqa: F401
    import sympy  # noqa: F401

    here = os.path.dirname(os.path.abspath(cantorconj.__file__))
    if os.path.realpath(here) != os.path.realpath(os.path.join(SRC, "cantorconj")):
        fail("cantorconj imported from %s, not from this checkout" % here)


def set_up(workload, seed, cal):
    """Imports, inputs and one untimed warm-up operation, sampling the
    reference throughout; returns the workload and the calibrated set-up
    seconds."""
    import workloads

    with cal.running():
        t0 = time.perf_counter()
        import_program()
        work = workloads.WORKLOADS[workload](seed)
        work.warm_up()
        t1 = time.perf_counter()
    cal.sample(calib.Calibrator.NEAR)
    return work, (t1 - t0 - cal.busy(t0, t1)) * cal.scale(t0, t1)


def setup_child(workload, seed):
    """Set up in a fresh interpreter; returns its calibrated set-up seconds."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail("set-up child failed: %s" % proc.stderr.strip()[-500:])
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_passes(work, runner, seconds, min_ops, tracer=None):
    """Whole passes until `seconds` have passed and `min_ops` ops were timed."""
    t0 = time.perf_counter()
    passes = 0
    with runner.cal.running():
        while passes == 0 or time.perf_counter() - t0 < seconds or len(runner.ops) < min_ops:
            start = len(runner.ops)
            work.run_pass(runner)
            if any(rec.state is None for rec in runner.ops[start:]):
                raise AssertionError("an operation was left unchecked")
            passes += 1
            if tracer is not None:
                tracer.end_pass()
    return passes


def quantile(values, q, grid=20000):
    """Harrell-Davis estimate of the q-quantile: a Beta(q(n+1), (1-q)(n+1))
    weighted mean of all order statistics.

    Operation times here are mixtures of a few clusters (fast and slow
    deciders), and a single order statistic at a gap between clusters
    jumps with the noise of the two operations beside the gap; the
    weighted mean does not.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t):
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    # cumulative Beta distribution on a grid (trapezoid), read at i/n
    cdf, acc, prev = [0.0], 0.0, density(0.0)
    for k in range(1, grid + 1):
        cur = density(k / grid)
        acc += (prev + cur) / (2 * grid)
        cdf.append(acc)
        prev = cur
    total = cdf[-1]
    at = lambda i: cdf[i * grid // n] / total
    return sum((at(i + 1) - at(i)) * x for i, x in enumerate(xs))


def report(ops, passes, cal):
    from workloads import DECIDED, FAILED

    times = [rec.wall * cal.scale(rec.start, rec.start + rec.wall) for rec in ops]
    failed = [rec for rec in ops if rec.state == FAILED]
    return {
        "attempted": len(ops),
        "failed": len(failed),
        "unknown_failures": [rec for rec in failed if not rec.known],
        "ops_per_s": len(ops) / sum(times),
        "op_p50_s": quantile(times, 0.5),
        "op_p90_s": quantile(times, 0.9),
        "decided": sum(1 for rec in ops if rec.state == DECIDED) / passes,
        "calibrated_total_s": sum(times),
        "raw_total_s": sum(rec.wall for rec in ops),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOAD_WHY))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-manifest", action="store_true")
    args = ap.parse_args()

    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest(), fh, indent=2)
            fh.write("\n")
        return
    if not args.workload:
        ap.error("--workload is required")

    cal = calib.Calibrator()
    cal.sample(calib.Calibrator.NEAR)
    if args.setup_only:
        print(json.dumps({"setup_s": set_up(args.workload, args.seed, cal)[1]}))
        return

    os.makedirs(OUT, exist_ok=True)
    work, setup_s = set_up(args.workload, args.seed, cal)
    setups = [setup_s]
    if not args.trace:
        setups += [setup_child(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]

    import workloads

    runner = workloads.Runner(cal)
    tracer = None
    if args.trace:
        import spans

        base = workloads.Runner(cal)
        run_passes(work, base, 0, 0)
        tracer = spans.Tracer()
        tracer.install()
    passes = run_passes(work, runner, args.seconds, MIN_OPS, tracer)
    rep = report(runner.ops, passes, cal)
    if args.trace:  # the untraced pass's answers are checked too
        rep["unknown_failures"] += report(base.ops, 1, cal)["unknown_failures"]

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for rec in rep["unknown_failures"][:20]:
        print("bench: unexpected failure in %s: %s" % (rec.name, rec.note), file=sys.stderr)
    print(
        "bench: %s seed %d: %d passes, %d ops, %d failed; op time raw %.3f s, "
        "calibrated %.3f s; run R0/R %.4f; set-up %s s"
        % (args.workload, args.seed, passes, rep["attempted"], rep["failed"],
           rep["raw_total_s"], rep["calibrated_total_s"], cal.ratio(),
           " ".join("%.3f" % x for x in sorted(setups))),
        file=sys.stderr,
    )

    if args.trace:
        scale = cal.ratio()
        metrics = {
            k: {"value": v, "unit": u} for k, (v, u) in tracer.metrics(passes, cal).items()
        }
        workdir = os.path.join(OUT, "cli-%d" % os.getpid())
        try:
            pkg, sym, loaded = spans.cli_probe(SRC, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        metrics["cli.import_s"] = {"value": pkg * scale, "unit": "s"}
        metrics["cli.sympy_import_s"] = {"value": sym * scale, "unit": "s"}
        metrics["cli.sympy_loaded"] = {"value": loaded, "unit": "count"}
        untraced = report(base.ops, 1, cal)["calibrated_total_s"]
        traced = rep["calibrated_total_s"] / passes
        metrics["trace.overhead_pct"] = {"value": 100.0 * (traced / untraced - 1), "unit": "%"}
        tracer.write(os.path.join(OUT, "spans-%s-%d.jsonl.gz" % (args.workload, args.seed)))
    else:
        metrics = {
            "ops_per_s": {"value": rep["ops_per_s"], "unit": "1/s"},
            "op_p50_s": {"value": rep["op_p50_s"], "unit": "s"},
            "op_p90_s": {"value": rep["op_p90_s"], "unit": "s"},
            "decided": {"value": rep["decided"], "unit": "count"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    print(json.dumps({
        "correct": not rep["unknown_failures"],
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
