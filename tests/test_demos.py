"""The narrative demos run to completion with clean output."""

import os
import pathlib
import subprocess
import sys

import pytest

from conftest import time_ceiling

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(demo):
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    with time_ceiling(30):
        proc = subprocess.run(
            [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=ROOT
        )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert proc.stderr == ""
