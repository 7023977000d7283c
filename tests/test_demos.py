"""Demos 01 and 04 run to exit 0: they are the only callers of w_trick and
print count_ap_primes and weighted_ap_average at the sizes users see."""

import os
from pathlib import Path
import subprocess
import sys

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["01_sieves_and_prime_weights.py", "04_counting_prime_progressions.py"])
def test_demo_exits_0(name):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], capture_output=True,
                          text=True, timeout=300, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
