"""Self-time arithmetic of the span recorder, and wrapper installation."""

import json
import os
import subprocess
import sys
import threading

import pytest

import layers
from conftest import BENCH, ROOT
from spans import Stat, Tracer, summarize


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _at(clock, t, action, *args):
    clock.now = t
    return action(*args)


def _in_thread(fn):
    t = threading.Thread(target=fn)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()


def test_self_time_with_nested_spans_from_two_threads():
    clock = Clock()
    tr = Tracer(clock)
    root = _at(clock, 0.0, tr.begin, "root")

    def job(request, start, leaf_start, leaf_end, end):
        span = _at(clock, start, tr.begin, "job", request)
        leaf = _at(clock, leaf_start, tr.begin, "leaf")
        _at(clock, leaf_end, tr.end, leaf)
        _at(clock, end, tr.end, span)

    # two jobs on pool threads whose clock intervals overlap: [1, 5], [3, 8]
    _in_thread(lambda: job(("a", 1.0, 2), 1.0, 2.0, 3.0, 5.0))
    _in_thread(lambda: job(("b", 2.0, 4), 3.0, 4.0, 6.0, 8.0))
    _at(clock, 10.0, tr.end, root)

    stats = summarize(tr.spans)
    assert stats["root"] == Stat(calls=1, busy_s=10.0, self_s=10.0 - 7.0)
    assert stats["job"] == Stat(calls=2, busy_s=4.0 + 5.0,
                                self_s=(4.0 - 1.0) + (5.0 - 2.0))
    assert stats["leaf"] == Stat(calls=2, busy_s=3.0, self_s=3.0)
    leaves = [s for s in tr.spans if s.name == "leaf"]
    assert [s.request for s in leaves] == [("a", 1.0, 2), ("b", 2.0, 4)]
    assert all(s.thread != threading.get_ident() for s in leaves)
    assert all(tr.spans[s.parent].name == "root"
               for s in tr.spans if s.name == "job")


def test_recursive_spans_count_busy_once():
    clock = Clock()
    tr = Tracer(clock)
    outer = _at(clock, 0.0, tr.begin, "f")
    inner = _at(clock, 1.0, tr.begin, "f")
    _at(clock, 2.0, tr.end, inner)
    _at(clock, 4.0, tr.end, outer)
    assert summarize(tr.spans)["f"] == Stat(calls=2, busy_s=4.0, self_s=4.0)


def test_out_of_order_close_raises():
    tr = Tracer()
    a = tr.begin("a")
    tr.begin("b")
    with pytest.raises(RuntimeError):
        tr.end(a)


def test_per_layer_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer"]
    assert declared == layers.metric_specs()
    derived = {name: 0.0 for name, _, _ in layers._DERIVED}
    emitted = layers.layer_metrics({}, derived)
    assert list(emitted) == [m["name"] for m in declared]


_PROBE = """
import json, sys
import isoplab
import layers
from spans import Tracer, summarize
tr = Tracer()
layers.install(tr)
from isoplab import inequality_suite as iq
iq.check_coarea(1.5, 3, None, 2000, 5)
by_id = {s.id: s for s in tr.spans}
lp_parents = sorted({by_id[s.parent].name for s in tr.spans
                     if s.name == "geometry.lp_norm" and s.parent is not None})
print(json.dumps({"names": sorted(summarize(tr.spans)), "lp_parents": lp_parents}))
"""


def test_wrappers_reach_every_namespace():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), BENCH]))
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    seen = json.loads(out.stdout.splitlines()[-1])
    for name in ("montecarlo.content_from_batch", "montecarlo.integrate_grad",
                 "sampling.sample_ball", "sampling.sample_product",
                 "geometry.bgmn_map", "geometry.lp_norm", "fields.grad"):
        assert name in seen["names"]
    # lp_norm is called through sampling's and montecarlo's own imports
    assert "sampling.sample_ball" in seen["lp_parents"]
