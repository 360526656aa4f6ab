"""The benchmark's traced run still finds every function it wraps, and
its oracle cells still run.

perfbench/layers.py wraps isoplab functions and field methods by name from
outside the package; a name removed from isoplab breaks the traced run.
perfbench/worker.py calls the sampler factories and the Jacobian scan for
the oracle_crosscheck workload.  This runs the wrapper installation, one
small co-area check, one field gradient and one small cell of each oracle
kind in a fresh interpreter, as the benchmark does, and reads the span
names and cells.
The benchmark refuses a traced run whose output differs from an untraced
one, so another fresh interpreter runs every check on a one-cell grid
before and after the wrappers are installed and compares the out dirs.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

SCRIPT = """
import json
import layers
import spans
tracer = spans.Tracer()
layers.install(tracer)
from isoplab.inequality_suite import coarea_plan, run_cell
run_cell(1.5, 3, [coarea_plan(1.5, 3, None)], 2000, 5)
# the checks derive gradient norms from set scalars through
# grad_norm_from_scalar, which layers.py does not wrap; a gradient call of
# one field still shows that the field method wrappers record
import numpy as np
from isoplab.fields import LinearRamp
LinearRamp(np.eye(3)[0], 0.0, 0.5).grad(np.zeros((4, 3)))
import worker
cells = [worker.ks_cell(1.5, 1.5, 3, 2000, 1, 2),
         worker.jacobian_cell(1.5, 8, 500, 3)]
print(json.dumps({"spans": sorted({s.name for s in tracer.spans}),
                  "cells": cells}))
"""

# every check on one (p, n) cell, untraced and then traced, in one
# interpreter; the file names whose bytes differ
CELL_SCRIPT = """
import json
import os
import sys
import isoplab.cli
import layers
import spans

def one_cell(out_dir):
    cfg = isoplab.cli.RunConfig(p_grid=[1.5], n_grid=[3], samples=2000,
                                out_dir=os.path.join(sys.argv[1], out_dir))
    assert isoplab.cli.run(cfg) == 0
    return {name: open(os.path.join(cfg.out_dir, name), "rb").read()
            for name in sorted(os.listdir(cfg.out_dir))}

untraced = one_cell("untraced")
layers.install(spans.Tracer())
traced = one_cell("traced")
print(json.dumps({"files": sorted(untraced),
                  "differ": [name for name in untraced
                             if traced.get(name) != untraced[name]]}))
"""


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")])
    res = subprocess.run([sys.executable, "-c", script, *args],
                         capture_output=True, text=True, env=env, cwd=ROOT,
                         timeout=300)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def test_traced_coarea_reaches_the_wrapped_layers():
    out = _run(SCRIPT)
    names = set(out["spans"])
    assert {"fields.grad", "montecarlo.integrate_grad"} <= names, names
    # a raising cell would be recorded as an error, i.e. a failed operation
    ks, jacobian = out["cells"]
    assert "error" not in ks and ks["kind"] == "ks", ks
    assert "error" not in jacobian and jacobian["kind"] == "jacobian", jacobian


def test_traced_cell_writes_the_untraced_bytes(tmp_path):
    out = _run(CELL_SCRIPT, str(tmp_path))
    assert len(out["files"]) == 33     # a CSV and a plot CSV per check
    assert out["differ"] == []
