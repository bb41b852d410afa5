import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    # bench/tracer.py patches functions in src/ by name; the smoke run fails
    # when a rename leaves one of them behind.
    run = subprocess.run([sys.executable, "bench/smoke.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
