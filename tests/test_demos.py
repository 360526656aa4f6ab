"""Smoke test: every narrative script in demos/ runs to exit 0.

Each demo runs in its own process from an empty working directory, since
some of them write files (scan.cfg, lab_out/, ball_points.csv) there.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import isoplab

DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("*.py"))
SRC = str(pathlib.Path(isoplab.__file__).resolve().parents[1])


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    res = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         text=True, env=env, cwd=tmp_path)
    assert res.returncode == 0, res.stderr
