"""Benchmark entry point.

    python3 bench/run.py --workload scan --seed 1 --seconds 10 --trace 0

Builds the program from this checkout's sources (byte-compiles ``src``),
generates the seeded job list (``jobs.py``), times set-up in several fresh
workload processes, then runs the workload in
one more fresh process (``workload.py``) and prints, as the last line of
stdout, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. Exits 2 without a result when the checkout has
no stabkit sources.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import pickle
import statistics
import subprocess
import sys
import time

import jobs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD = os.path.join(HERE, "workload.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_PROBES = 20    # set-up-only processes; the measured run adds one more
DEADLINE_S = 170.0   # the whole run, set-up probes included


def launch(plan, extra):
    """Start a workload process; return (process, seconds until READY)."""
    cmd = [sys.executable, WORKLOAD, "--plan", plan, *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        if line.strip() != "READY":
            raise RuntimeError(f"workload process did not get ready: {line!r}")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, ready


def finish(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("workload process ran past the deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return out


def probe(plan, count, deadline):
    """Set-up times of ``count`` fresh processes that stop after set-up."""
    times = []
    for _ in range(count):
        proc, ready = launch(plan, ["--probe"])
        finish(proc, deadline)
        times.append(ready)
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="stabkit CLI benchmark")
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "stabkit", "__init__.py")):
        print(f"bench: no stabkit sources under {SRC}; nothing to measure", file=sys.stderr)
        return 2
    if not compileall.compile_dir(SRC, quiet=1):
        print("bench: byte-compiling the sources failed", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    plan = os.path.join(OUT_DIR, f"plan-{args.workload}-{args.seed}-{os.getpid()}.pkl")
    with open(plan, "wb") as f:
        pickle.dump(jobs.build(args.workload, args.seed), f)
    try:
        # half of the set-up probes run before the measured process and half
        # after it, so that one noisy moment cannot move the median
        setups = probe(plan, SETUP_PROBES // 2, deadline)
        proc, ready = launch(plan, ["--seconds", str(args.seconds),
                                    "--trace", str(args.trace)])
        setups.append(ready)
        out = finish(proc, deadline)
        setups += probe(plan, SETUP_PROBES - SETUP_PROBES // 2, deadline)
    finally:
        os.unlink(plan)
    result = json.loads(out.strip().splitlines()[-1])
    info = result.pop("info")
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        print(f"bench: {args.workload} seed {args.seed}: {info['passes']} passes of "
              f"{info['jobs_per_pass']} jobs; job_tail_s is the p{info['tail_percentile']:g} "
              f"of {info['samples']} job latencies; setup_s is the median of "
              f"{len(setups)} fresh processes; passes took {info['pass_s']} s")
    else:
        print(f"bench: {args.workload} seed {args.seed}: spans in {info['trace_file']}")
    if info["problems"]:
        print(f"bench: {info['problems']} check(s) failed; see stderr", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
