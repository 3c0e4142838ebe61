#!/usr/bin/env python3
"""Steadiness check: run workloads k times with different seeds and print,
per metric, the median, the quartiles and the quartile spread
((q3 - q1) / median), next to the bound BENCHMARK.json sets.

    python3 perfbench/steady.py --runs 10 [--workloads a,b]

Seeds run from 1 to --runs; each run lasts BENCHMARK.json's run_seconds.
The spread of every end-to-end metric must stay within its bound; the
bounds in BENCHMARK.json are set from this output. A spread above a third
of its bound is marked `~`, one above the bound `!`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(names))
    a = ap.parse_args()
    runs = {}
    for w in a.workloads.split(","):
        runs[w] = []
        for seed in range(1, a.runs + 1):
            out = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                sys.exit(f"{w} seed {seed}: exit {out.returncode}")
            r = json.loads(out.stdout.strip().splitlines()[-1])
            runs[w].append(r)
            print(f"{w} seed {seed}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']}", file=sys.stderr, flush=True)
    print(f"{'workload':14} {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for w, rs in runs.items():
        shares = sorted({r["failed"] / r["attempted"] for r in rs})
        print(f"{w:14} {'failed share':28} {', '.join(f'{s:g}' for s in shares)}")
        for m in rs[0]["metrics"]:
            vals = [r["metrics"][m]["value"] for r in rs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, 0, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(m)
            flag = "" if bound is None or spread <= bound / 3 else \
                " !" if spread > bound else " ~"
            print(f"{w:14} {m:28} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} "
                  f"{'' if bound is None else bound:>6}{flag}")


if __name__ == "__main__":
    main()
