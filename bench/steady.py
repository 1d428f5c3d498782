"""Steadiness mode: repeat workloads over seeds, one run at a time.

    python3 bench/steady.py --workloads zoo telescope --seeds 1-10 --seconds 10

Runs `run.py` once per (workload, seed), sequentially, and prints for every
end-to-end metric the median, the quartiles (statistics.quantiles, n=4)
and the quartile spread as a share of the median, next to the bound
BENCHMARK.json sets, plus the share of failed operations of every run.
The bounds in BENCHMARK.json were set from this output: each spread
should stay below a third of its bound.  All results are also written to
bench/out/steady-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d failed:\n%s" % (workload, seed, proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["summary"] = proc.stderr.strip().splitlines()[-1]  # raw wall figures
    return result


def summarize(workload, results, bounds):
    print("== %s: %d runs" % (workload, len(results)))
    shares = sorted({"%d/%d" % (r["failed"], r["attempted"]) for r in results})
    exact = {r["failed"] / r["attempted"] for r in results}
    print("   failed/attempted: %s (%d distinct shares)" % (", ".join(shares), len(exact)))
    print("   correct: %s" % all(r["correct"] for r in results))
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above a third of the bound"
        print("   %-12s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.3f  bound %s%s"
              % (name, med, q1, q3, spread, bound, flag))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length; defaults to run_seconds of BENCHMARK.json")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    seconds = args.seconds or manifest["run_seconds"]
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    for workload in args.workloads:
        results = []
        for seed in parse_seeds(args.seeds):
            res = run_once(workload, seed, seconds)
            res["seed"] = seed
            results.append(res)
            print("   %s seed %d: %s" % (workload, seed, json.dumps(
                {k: round(v["value"], 6) for k, v in res["metrics"].items()})), flush=True)
            print("      " + res["summary"], flush=True)
        with open(os.path.join(HERE, "out", "steady-%s.json" % workload), "w") as fh:
            json.dump(results, fh, indent=1)
        summarize(workload, results, bounds)


if __name__ == "__main__":
    main()
