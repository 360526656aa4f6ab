"""The benchmark's traced run still finds every function it wraps, and
its oracle cells still run.

perfbench/layers.py wraps isoplab functions and field methods by name from
outside the package; a name removed from isoplab breaks the traced run.
perfbench/worker.py calls the sampler factories and the Jacobian scan for
the oracle_crosscheck workload.  This runs the wrapper installation, one
small co-area check and one small cell of each oracle kind in a fresh
interpreter, as the benchmark does, and reads the span names and cells.
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
from isoplab.inequality_suite import check_coarea
check_coarea(1.5, 3, None, 2000, 5)
import worker
cells = [worker.ks_cell(1.5, 1.5, 3, 2000, 1, 2),
         worker.jacobian_cell(1.5, 8, 500, 3)]
print(json.dumps({"spans": sorted({s.name for s in tracer.spans}),
                  "cells": cells}))
"""


def test_traced_coarea_reaches_the_wrapped_layers():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")])
    res = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                         text=True, env=env, cwd=ROOT, timeout=300)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.splitlines()[-1])
    names = set(out["spans"])
    assert {"fields.grad", "montecarlo.integrate_grad"} <= names, names
    # a raising cell would be recorded as an error, i.e. a failed operation
    ks, jacobian = out["cells"]
    assert "error" not in ks and ks["kind"] == "ks", ks
    assert "error" not in jacobian and jacobian["kind"] == "jacobian", jacobian
