"""Smoke test: every script in demos/ runs to completion without a warning."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ixysense

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    # a RuntimeWarning (overflow, invalid value) is an error in a demo
    src = str(Path(ixysense.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "Traceback" not in out.stderr
    assert out.stdout.strip()
