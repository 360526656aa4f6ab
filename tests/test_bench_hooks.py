"""The benchmark's traced run still finds every function it wraps.

perfbench/layers.py wraps isoplab functions and field methods by name from
outside the package; a name removed from isoplab breaks the traced run.
This runs the wrapper installation and one small co-area check in a fresh
interpreter, as the traced benchmark does, and reads the span names.
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
print(json.dumps(sorted({s.name for s in tracer.spans})))
"""


def test_traced_coarea_reaches_the_wrapped_layers():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")])
    res = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                         text=True, env=env, cwd=ROOT, timeout=300)
    assert res.returncode == 0, res.stderr
    names = set(json.loads(res.stdout.splitlines()[-1]))
    assert {"fields.grad", "montecarlo.integrate_grad"} <= names, names
