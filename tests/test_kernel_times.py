"""`scripts/kernel_times.py` runs and prints one per-call time for each kernel."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "kernel_times.py"
KERNELS = ("point guidance", "amplitude only", "guidance Jacobian",
           "batched guidance, 1e5 points", "batched amplitude, 1e5 points", "diamagnetic rhs",
           "diamagnetic tangent rhs", "monodromy rhs", "dense query, one time")


def test_kernel_times_prints_every_kernel_once():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--repeats", "1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line[:30].rstrip() for line in lines] == list(KERNELS)
    for line in lines:
        value, unit = line[30:].split()
        assert unit == "us" and float(value) > 0.0
