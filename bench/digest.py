"""Digest of every job's output, for comparing two commits.

    python3 bench/digest.py --seed 1 --out before.json      # on commit A
    python3 bench/digest.py --seed 1 --out after.json       # on commit B
    python3 bench/digest.py --compare before.json after.json

Runs one untimed pass of each workload's job list and records, per job,
its exit code and the SHA-256 of its JSON output with the ``"timestamp"``
line stripped: the ROADMAP asks for byte-identical CLI JSON across a
speed-up. ``--compare`` lists the jobs whose digests
differ. It reports and gates nothing: the exit code is 0 either way.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile

import jobs
from workload import OUT_DIR, ROOT, Runner, import_program


def digest_workload(cli, name: str, seed: int):
    wl = jobs.build(name, seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"digest-{name}-", dir=OUT_DIR)
    try:
        os.chdir(workdir)
        for fname, doc in wl.files.items():
            with open(fname, "w", encoding="utf-8") as f:
                json.dump(doc, f)
        runner = Runner(cli, wl)
        runner.run_pass([])
        out = {}
        for job in wl.jobs:
            entry = {"argv": " ".join(job.argv),
                     "exit": sorted(runner.exit_codes[job.name])[0], "sha256": None}
            if os.path.exists(job.out):
                with open(job.out, "rb") as f:
                    lines = [ln for ln in f.read().split(b"\n") if b'"timestamp"' not in ln]
                entry["sha256"] = hashlib.sha256(b"\n".join(lines)).hexdigest()
            out[f"{name}/{job.name}"] = entry
        return out
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)


def compare(path_a: str, path_b: str) -> None:
    with open(path_a, encoding="utf-8") as f:
        a = json.load(f)
    with open(path_b, encoding="utf-8") as f:
        b = json.load(f)
    if a["seed"] != b["seed"]:
        print("note: digests were taken with different seeds")
    names = sorted(set(a["jobs"]) | set(b["jobs"]))
    differ = [n for n in names if a["jobs"].get(n) != b["jobs"].get(n)]
    for n in differ:
        ea, eb = a["jobs"].get(n), b["jobs"].get(n)
        print(f"DIFFERS {n}: {ea and ea['argv']}\n  A: {ea and (ea['exit'], ea['sha256'])}"
              f"\n  B: {eb and (eb['exit'], eb['sha256'])}")
    print(f"{len(differ)} of {len(names)} job outputs differ")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", help="write the digest here (default: stdout)")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    cli = import_program()
    doc = {"seed": args.seed, "jobs": {}}
    for name in jobs.WORKLOADS:
        doc["jobs"].update(digest_workload(cli, name, args.seed))
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
