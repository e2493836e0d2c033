"""The benchmark's own calls into scatterlab, run at small size."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_tiny_runs_clean():
    # Every workload once at small size; exits 1 unless all output checks pass.
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
