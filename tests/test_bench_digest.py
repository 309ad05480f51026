"""The CLI bytes of the benchmark's own traffic are pinned: every job of
``bench/digest.py --seed 1`` must keep the exit code and the output digest
(timestamp line stripped) recorded in ``tests/data/digest-seed-1.json``. A
change to any command's output shows up here, job by job. To accept an
intended output change, regenerate the file with
``python3 bench/digest.py --seed 1 --out tests/data/digest-seed-1.json``
and say why in CHANGES.md."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_job_outputs_match_the_pinned_digest():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "digest.py"), "--seed", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)["jobs"]
    want = json.loads((ROOT / "tests" / "data" / "digest-seed-1.json").read_text())["jobs"]
    differ = [f"{name}: {want.get(name)} != {got.get(name)}"
              for name in sorted(set(want) | set(got)) if want.get(name) != got.get(name)]
    assert not differ, f"{len(differ)} of {len(want)} job outputs differ:\n" + "\n".join(differ)
