"""Harness smoke check, well under a second; not part of the test suite.

    python3 bench/smoke.py

It builds every workload twice (same seed, same jobs), runs a few cheap
jobs of each through the real runner and the real output checks, and
traces one of them.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time

import checks
import jobs
import spans
from workload import MIN_PASSES, OUT_DIR, ROOT, Runner, import_program, tail_percentile


def cheap_subset(wl):
    """A few cheap jobs of the workload (chambers jobs bring their walls job)."""
    def cheap(job):
        if wl.name == "scan":
            walls_job = job.meta.get("walls_job", job.name)
            return next(j for j in wl.jobs if j.name == walls_job).meta["lattice"] == "h2"
        if wl.name == "classify":
            return job.kind in ("nef", "lagrangian")
        if wl.name == "support":
            return job.meta["lattice"] == "s1a"
        return job.meta["size"] <= 6

    return jobs.Workload(wl.name, wl.seed, wl.files, [j for j in wl.jobs if cheap(j)])


def quick() -> list:
    problems = []
    cli = import_program()
    os.makedirs(OUT_DIR, exist_ok=True)
    for name in jobs.WORKLOADS:
        wl = jobs.build(name, 0)
        if [j.full_argv for j in wl.jobs] != [j.full_argv for j in jobs.build(name, 0).jobs]:
            problems.append(f"{name}: the same seed gave different job lists")
        p = tail_percentile(len(wl.jobs))
        if len(wl.jobs) * MIN_PASSES * (100 - p) / 100 < 10:
            problems.append(f"{name}: fewer than ten jobs beyond p{p}")
        sub = cheap_subset(wl)
        workdir = tempfile.mkdtemp(prefix=f"smoke-{name}-", dir=OUT_DIR)
        try:
            os.chdir(workdir)
            for fname, doc in sub.files.items():
                with open(fname, "w", encoding="utf-8") as f:
                    json.dump(doc, f)
            runner = Runner(cli, sub)
            tracer = spans.install(spans.Tracer()) if name == "classify" else None
            try:
                runner.run_pass([], tracer)
            finally:
                spans.uninstall()
            if tracer is not None and not tracer.calls().get("nef.omega_class"):
                problems.append("classify: the tracer saw no nef.omega_class call")
            if tracer is not None and sorted(s[2] for s in tracer.spans if s[1] < 0) != sorted(
                    j.name for j in sub.jobs):
                problems.append("classify: the tracer did not give every job its own span")
            bad = {j.name: c for j, c in ((j, runner.exit_codes[j.name]) for j in sub.jobs)
                   if c != ({2} if j.expect_fail else {0})}
            if bad or runner.errors:
                problems.append(f"{name}: unexpected exit codes {bad} {runner.errors}")
            problems += [f"{name}: {p}" for p in checks.check(sub)]
        finally:
            os.chdir(ROOT)
            shutil.rmtree(workdir, ignore_errors=True)
    return problems


def main() -> int:
    t0 = time.perf_counter()
    problems = quick()
    for p in problems:
        print(f"SMOKE FAILED: {p}")
    print(f"smoke: {'ok' if not problems else 'FAILED'} in {time.perf_counter() - t0:.2f}s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
