"""The benchmark harness runs on this checkout; checks names, never timings."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ledger_benchmark_reports_its_end_to_end_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    argv = [sys.executable, "bench/run.py", "--workload", "ledger", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])
