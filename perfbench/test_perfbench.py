"""Fast checks of the benchmark itself, built on its smoke mode."""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _smoke():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_smoke_runs_every_workload_and_repeats_its_counts():
    first, second = _smoke(), _smoke()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [r["workload"] for r in first] == [w["name"] for w in bench["workloads"]]
    assert all(r["ok"] for r in first)
    assert [r["counts"] for r in first] == [r["counts"] for r in second]

