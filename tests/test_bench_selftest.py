"""The benchmark's independent answer checkers, run as `python bench/selftest.py`
from the repository root: each must accept a genuine answer of the library
and reject corrupted copies of it."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_checkers_behave():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "all checkers behave" in proc.stdout
