"""Which functions of isoplab the traced run wraps, and the per-layer
metrics it derives from their spans.

The wrappers are installed from outside the package: ``src/`` is not
changed.  Modules import each other's functions by name
(``inequality_suite`` holds its own reference to ``content_from_batch``,
``sampling`` to ``lp_norm``), so each wrapper replaces the original in
every isoplab module namespace that holds it; otherwise spans would be
silently missed.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys

from spans import Stat, Tracer
from workloads import CHECKS

FUNCTIONS = {
    "montecarlo": ("content_from_batch", "integrate_grad", "estimate_tail",
                   "estimate_median_and_phi"),
    "sampling": ("sample_product", "sample_ball", "rejection_sample_ball"),
    "geometry": ("lp_norm", "bgmn_map", "jacobian_op_norms", "marginal_isf",
                 "marginal_quantile"),
    "measures1d": ("bobkov_profile", "profile_comparison"),
}
# work counts: points drawn by the samplers, points of the Jacobian scan
ROWS = {
    "sampling.sample_product": lambda batch: batch.count,
    "sampling.sample_ball": lambda batch: batch.count,
    "sampling.rejection_sample_ball": lambda batch: batch.count,
    "geometry.jacobian_op_norms": lambda result: len(result[0]),
}
# factories whose laws get a traced ``quantile`` (the root-finding path)
LAW_FACTORIES = ("make_mu_p", "make_nu_p", "make_gamma", "make_exponential")


def _replace_everywhere(original, replacement):
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "isoplab"
                                  or name.startswith("isoplab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer):
    """Wrap the traced functions of an imported isoplab in spans."""
    cli = importlib.import_module("isoplab.cli")
    _replace_everywhere(cli.run, tracer.wrap(cli.run, "cli.run"))
    for check, (tag, runner) in list(cli.REGISTRY.items()):
        cli.REGISTRY[check] = (tag, tracer.wrap(
            runner, f"inequality_suite.{check}",
            request=lambda args, check=check: (check, args[1], args[2])))

    for module_name, names in FUNCTIONS.items():
        module = sys.modules[f"isoplab.{module_name}"]
        for name in names:
            original = getattr(module, name)
            span = f"{module_name}.{name}"
            _replace_everywhere(original,
                                tracer.wrap(original, span, ROWS.get(span)))

    fields = sys.modules["isoplab.fields"]
    for cls in list(vars(fields).values()):
        if not (isinstance(cls, type) and cls.__module__ == fields.__name__):
            continue
        for method, span in (("__call__", "fields.eval"),
                             ("grad", "fields.grad")):
            if method in vars(cls):
                setattr(cls, method, tracer.wrap(vars(cls)[method], span))

    measures1d = sys.modules["isoplab.measures1d"]
    for name in LAW_FACTORIES:
        _replace_everywhere(getattr(measures1d, name),
                            _traced_law_factory(tracer, getattr(measures1d, name)))


def _traced_law_factory(tracer: Tracer, make):
    def factory(*args, **kwargs):
        law = make(*args, **kwargs)
        return dataclasses.replace(
            law, quantile=tracer.wrap(law.quantile, "measures1d.quantile"))
    return factory


# ---------------------------------------------------------------------------
# per-layer metric names, units and directions
# ---------------------------------------------------------------------------

_TIMES = ("busy_s", "self_s")
_COUNTED = ("calls",) + _TIMES


def _span_metrics() -> list[tuple[str, str, str]]:
    """(metric, span name, stat) for every span-derived metric."""
    out = [("cli.run.busy_s", "cli.run", "busy_s"),
           ("cli.run.self_s", "cli.run", "self_s")]
    for check in CHECKS:
        span = f"inequality_suite.{check}"
        out += [(f"{span}.{stat}", span, stat) for stat in _TIMES]
    for module_name, names in FUNCTIONS.items():
        for name in names:
            span = f"{module_name}.{name}"
            stats = list(_COUNTED)
            if span in ROWS:
                stats.insert(1, "rows")
            out += [(f"{span}.{stat}", span, stat) for stat in stats]
    for span in ("measures1d.quantile", "fields.eval", "fields.grad"):
        out += [(f"{span}.{stat}", span, stat) for stat in _COUNTED]
    return out


_UNITS = {"calls": "count", "rows": "count", "busy_s": "s", "self_s": "s"}
_DERIVED = (
    ("cli.jobs", "count", "lower"),
    ("cli.parallelism", "ratio", "higher"),
    ("inequality_suite.inconclusive_share", "share", "lower"),
    ("import.isoplab_s", "s", "lower"),
    ("import.scipy_integrate_s", "s", "lower"),
    ("import.scipy_optimize_s", "s", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def metric_specs() -> list[dict]:
    """The per-layer metrics of a traced run, as BENCHMARK.json lists them."""
    specs = [{"name": metric, "unit": _UNITS[stat], "better": "lower"}
             for metric, _, stat in _span_metrics()]
    specs += [{"name": n, "unit": u, "better": b} for n, u, b in _DERIVED]
    return specs


def layer_metrics(stats: dict[str, Stat], derived: dict[str, float]) -> dict:
    """Metric name -> {"value", "unit"} from span stats plus the values the
    harness measures itself (import times, CPU, overhead, verdict shares)."""
    out = {}
    for metric, span, stat in _span_metrics():
        out[metric] = {"value": getattr(stats.get(span, Stat()), stat),
                       "unit": _UNITS[stat]}
    jobs = [stats.get(f"inequality_suite.{c}", Stat()) for c in CHECKS]
    run_busy = stats.get("cli.run", Stat()).busy_s
    values = dict(derived)
    values["cli.jobs"] = sum(j.calls for j in jobs)
    values["cli.parallelism"] = (sum(j.busy_s for j in jobs) / run_busy
                                 if run_busy > 0 else 0.0)
    for name, unit, _ in _DERIVED:
        out[name] = {"value": values[name], "unit": unit}
    return out
