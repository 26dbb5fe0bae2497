"""Each demo under ``demos/`` runs to completion and prints what it printed
when its capture in ``tests/golden/demo_<name>.txt`` was made."""

import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(__file__)
ROOT = os.path.abspath(os.path.join(HERE, ".."))
DEMOS = sorted(f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_output(demo):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONIOENCODING="utf-8")
    done = subprocess.run([sys.executable, os.path.join("demos", demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, encoding="utf-8", timeout=120)
    assert done.returncode == 0, done.stderr
    stem = os.path.splitext(demo)[0]
    with open(os.path.join(HERE, "golden", f"demo_{stem}.txt"), encoding="utf-8",
              newline="") as fh:
        assert done.stdout == fh.read()
