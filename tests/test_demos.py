"""Every demo runs to exit 0. No command or acceptance item calls w_trick,
random_control_set, completion_probability, quadratic_embedding,
eval_nilsequence or gluing_defect; the demos do, so a rename or a deletion
that breaks one of them fails here."""

import os
from pathlib import Path
import subprocess
import sys

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_0(name):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], capture_output=True,
                          text=True, timeout=300, env={**env, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
