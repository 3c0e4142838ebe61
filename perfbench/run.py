#!/usr/bin/env python3
"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark program from source (dune, build directory
.bench_build/dune), writes the workload's inputs for the seed under
.bench_build/inputs, runs the program on one OCaml domain and passes its
output through: a `facts` line (nproc, domains, OCaml version, commit,
seed), then, as the last line, one JSON object with the keys correct,
attempted, failed and metrics. Exits non-zero, without a result, if the
build, the input generation or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["centaur-caida", "bgp-caida", "centaur-churn", "analyze-5k"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATE = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(STATE, "dune", "default", "perfbench", "bin", "perfbench.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(STATE, exist_ok=True)
    cmd = ["dune", "build", "--root", ".", "--build-dir", os.path.join(STATE, "dune"),
           "--profile", "release", "--cache", "disabled", "-j", "2",
           "./perfbench/bin/perfbench.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail(f"cannot run dune: {e}")
    if done.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def commit():
    """The git commit, or a digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha1()
    for d, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(x for x in dirs if not x.startswith((".", "_")))
        for f in sorted(files):
            if f.endswith((".ml", ".mli")) or f in ("dune", "dune-project"):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = ap.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1")
    build()
    inputs = os.path.join(STATE, "inputs", f"{a.workload}-{a.seed}")
    os.makedirs(inputs, exist_ok=True)
    gen = subprocess.run([EXE, "gen", "--workload", a.workload, "--seed", str(a.seed),
                          "--dir", inputs], stdout=sys.stderr, stderr=sys.stderr)
    if gen.returncode != 0:
        fail("input generation failed")
    env = dict(os.environ, CENTAUR_DOMAINS="1")
    cmd = [EXE, "run", "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace), "--dir", inputs,
           "--commit", commit()]
    try:
        out = subprocess.run(cmd, env=env, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        fail(f"run failed (exit {out.returncode})")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if a.trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metrics do not match BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
