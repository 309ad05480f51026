"""One workload in one fresh process, as a closed loop: one client, one job
at a time, no extra threads.

Launched by ``run.py``, which generates the job list and hands it over as
a pickled plan. Setup (interpreter start, ``import stabkit.cli``, loading
the plan and writing the input files) ends when the process prints
``READY``; ``run.py`` times that line from launch. Then one untimed warm-up
pass runs, followed by timed passes over the job list until ``--seconds``
have passed (and at least ``MIN_PASSES``). Every job is a full CLI
invocation through ``stabkit.cli.main(argv)`` with ``--out`` to a file in
the work directory. After the timed passes the outputs of the last pass are
checked against computations made apart from the program (``checks.py``).
The last line on stdout is the result as JSON.

With ``--trace 1`` untraced and traced passes alternate (``spans.py``);
the per-layer metrics come from the traced passes and the tracing overhead
from the difference of the two sides.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# Every run makes at least this many timed passes; the tail percentile is
# fixed from it so that at least ten jobs always lie beyond it.
MIN_PASSES = 3
TAIL_GRID = (99.0, 98.0, 95.0, 90.0, 85.0, 80.0, 75.0, 50.0)


def import_program():
    """Import stabkit from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "stabkit", "__init__.py")):
        raise SystemExit(f"no stabkit sources under {SRC}")
    sys.path.insert(0, SRC)
    import stabkit.cli as cli
    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != SRC:
        raise SystemExit(f"stabkit was imported from {cli.__file__}, not {SRC}")
    return cli


class _Sink:
    """Swallows the one-line summaries the CLI prints to stderr."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


class Runner:
    def __init__(self, cli, workload):
        self.cli = cli
        self.jobs = workload.jobs
        self.exit_codes = {}
        self.errors = []
        self.sink = _Sink()

    def run_job(self, job):
        argv = job.full_argv
        # a CLI process sees its own argv; the manifest reads it from sys.argv
        sys.argv = ["stabkit", *argv]
        try:
            rc = self.cli.main(argv)
        except Exception as exc:  # a crash is a failed job, reported below
            rc = -1
            self.errors.append(f"{job.name}: {type(exc).__name__}: {exc}")
        return rc

    def run_pass(self, latencies, tracer=None):
        # Every pass writes fresh files. Truncating a file written by the
        # previous pass makes ext4 (auto_da_alloc) flush it on close, about
        # 75 ms per job on the reference machine: disk cost, not the program's.
        for job in self.jobs:
            if os.path.exists(job.out):
                os.unlink(job.out)
        failed = 0
        real_stderr = sys.stderr
        sys.stderr = self.sink
        try:
            for job in self.jobs:
                if tracer is not None:
                    tracer.begin_job(job.name)
                t0 = time.perf_counter()
                rc = self.run_job(job)
                latencies.append(time.perf_counter() - t0)
                if tracer is not None:
                    tracer.end_job()
                self.exit_codes.setdefault(job.name, set()).add(rc)
                failed += rc != 0
        finally:
            sys.stderr = real_stderr
        return failed

    def run_for(self, seconds, min_passes, tracer=None):
        latencies = []
        pass_s = []
        failed = 0
        t0 = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            failed += self.run_pass(latencies, tracer)
            pass_s.append(time.perf_counter() - t_pass)
            if len(pass_s) >= min_passes and time.perf_counter() - t0 >= seconds:
                break
        return {"elapsed": time.perf_counter() - t0, "passes": len(pass_s),
                "pass_s": pass_s, "failed": failed, "latencies": latencies}


def run_alternating(runner, seconds, tracer):
    """Untraced and traced passes in the order U T T U U T T U ..., until
    ``seconds`` have passed and both sides have run as many passes. Drift of
    the host over the run then falls on both sides alike, and the tracing
    overhead is not mostly drift. Returns (untraced, traced) totals."""
    import spans

    sides = [{"elapsed": 0.0, "passes": 0, "failed": 0, "latencies": []} for _ in range(2)]
    t0 = time.perf_counter()
    i = 0
    while i % 2 or i == 0 or time.perf_counter() - t0 < seconds:
        traced = i % 4 in (1, 2)
        if traced:
            spans.install(tracer)
        try:
            one = runner.run_for(0, 1, tracer if traced else None)
        finally:
            spans.uninstall()
        side = sides[traced]
        for key in ("elapsed", "passes", "failed"):
            side[key] += one[key]
        side["latencies"] += one["latencies"]
        i += 1
    return sides[0], sides[1]


def tail_percentile(jobs_per_pass: int) -> float:
    """Highest percentile of the grid with at least ten jobs beyond it in a
    run of MIN_PASSES passes (more passes only add samples beyond it)."""
    n = jobs_per_pass * MIN_PASSES
    for p in TAIL_GRID:
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    raise ValueError("too few jobs per pass for a tail percentile")


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile."""
    k = max(0, math.ceil(p / 100.0 * len(sorted_values)) - 1)
    return sorted_values[k]


def end_to_end(timed, jobs_per_pass):
    lat = sorted(timed["latencies"])
    p = tail_percentile(jobs_per_pass)
    return {
        "jobs_per_s": len(lat) / timed["elapsed"],
        "job_p50_s": statistics.median(lat),
        "job_tail_s": percentile(lat, p),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, {"tail_percentile": p, "samples": len(lat), "passes": timed["passes"],
        "pass_s": [round(x, 4) for x in timed["pass_s"]]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--plan", required=True,
                    help="pickled jobs.Workload written by run.py")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="stop after setup (used to time setup)")
    args = ap.parse_args(argv)

    cli = import_program()
    with open(args.plan, "rb") as f:  # unpickling imports jobs from this directory
        workload = pickle.load(f)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-{workload.seed}-", dir=OUT_DIR)
    try:
        os.chdir(workdir)
        for name, doc in workload.files.items():
            with open(name, "w", encoding="utf-8") as f:
                json.dump(doc, f)
        print("READY", flush=True)
        if args.probe:
            return 0
        return measure(cli, workload, args)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)


def measure(cli, workload, args) -> int:
    import checks  # here, not at the top, so that set-up probes skip it

    runner = Runner(cli, workload)
    runner.run_pass([])  # warm-up: lazy imports and first-call costs
    n_jobs = len(workload.jobs)
    if args.trace:
        import spans
        tracer = spans.Tracer()
        untraced, traced = run_alternating(runner, args.seconds, tracer)
        runs = [untraced, traced]
        path = os.path.join(OUT_DIR, f"trace-{workload.name}-{workload.seed}.jsonl")
        tracer.write(path)
        metrics = spans.layer_metrics(tracer, workload, traced["passes"])
        untraced_jps = len(untraced["latencies"]) / untraced["elapsed"]
        traced_jps = len(traced["latencies"]) / traced["elapsed"]
        metrics["trace.untraced_jobs_per_s"] = (untraced_jps, "1/s")
        metrics["trace.traced_jobs_per_s"] = (traced_jps, "1/s")
        metrics["trace.overhead"] = (100.0 * (untraced_jps - traced_jps) / untraced_jps, "%")
        info = {"trace_file": os.path.relpath(path, ROOT)}
    else:
        timed = runner.run_for(args.seconds, MIN_PASSES)
        runs = [timed]
        values, info = end_to_end(timed, n_jobs)
        units = {"jobs_per_s": "1/s", "job_p50_s": "s", "job_tail_s": "s",
                 "peak_rss_mb": "MB"}
        metrics = {k: (v, units[k]) for k, v in values.items()}

    problems = list(runner.errors)
    for job in workload.jobs:
        codes = runner.exit_codes.get(job.name, set())
        want_fail = job.expect_fail
        if want_fail and codes != {2}:
            problems.append(f"{job.name}: expected exit 2 on every pass, got {sorted(codes)}")
        if not want_fail and codes != {0}:
            problems.append(f"{job.name}: failed with exit codes {sorted(codes)}")
    problems += checks.check(workload)
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(len(r["latencies"]) for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": {**info, "jobs_per_pass": n_jobs, "problems": len(problems)},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
