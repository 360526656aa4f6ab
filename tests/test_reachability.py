"""Every function of ``src/isoplab`` runs in a CLI run, ``--list`` or a
demo, or is on ALLOWED with the one reason it stays.

The runs are traced in a fresh interpreter whose profile hook is set
before ``import isoplab``, on the main thread and on every pool thread, so
a function reached only at import, only from a cell thread or only through
a cache that a test warmed still counts as reached.  A function a change
leaves unreached fails the test until it is deleted or given a reason; an
allowed function that starts running fails it too, so the list stays
exact.
"""

import json
import pathlib
import subprocess
import sys
import types

import isoplab

SRC = pathlib.Path(isoplab.__file__).resolve().parent
DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("*.py"))

# the three reasons a function no run reaches may stay in src/
ORACLE = "a test compares another function's result against it"
PLAN_ARG = "it serves a plan argument that tests exercise"
PERFBENCH = "perfbench looks it up by name"

_CHAIN = ("test_inequality_suite.py::"
          "test_cutoff_chain_rows_equal_the_composed_fields")
_RAMP_MASS = ("test_montecarlo.py::"
              "test_ramp_mass_from_its_count_is_the_column_mean")
_INDICATOR_LOOP = ("test_montecarlo.py::"
                   "test_content_counts_on_exact_ties_match_indicator_loop")
_DISTANCE_RAMP = ("test_geometry.py::"
                  "test_distance_ramp_gradient_indicator_and_superlevel")
_OP_NORMS = ("test_geometry.py::"
             "test_operator_norm_bound_holds_on_product_samples")
_MARGINALS = ("test_sampling.py::"
              "test_product_marginals_match_the_one_dim_laws")
_LAWS = "perfbench/layers.py LAW_FACTORIES"
_FUNCTIONALS = ("test_inequality_suite.py::"
                "test_sz_concentration_of_the_other_catalog_functionals")
ALLOWED = {
    # the composed fields behind the cut-off chain's closed form
    "fields.CutoffH1Field.from_norm": (ORACLE, _CHAIN),
    "fields.CutoffH1Field.value_and_grad": (ORACLE, _CHAIN),
    "fields.CutoffH2Field.from_norm": (ORACLE, _CHAIN),
    "fields.CutoffH2Field.value_and_grad": (ORACLE, _CHAIN),
    "fields.ProductField.__init__": (ORACLE, _CHAIN),
    "fields.ProductField.value_and_grad": (ORACLE, _CHAIN),
    "fields.PushForwardField.__init__": (ORACLE, _CHAIN),
    "fields.PushForwardField.value_and_grad": (ORACLE, _CHAIN),
    "fields.product_value_and_grad": (ORACLE, _CHAIN),
    "fields.push_forward_grad": (ORACLE, _CHAIN),
    "fields._Field.__call__": (ORACLE, _CHAIN),
    # gradient rows, the column a ramp's count-based mass is checked on
    "fields._Field.grad": (ORACLE, _RAMP_MASS),
    "fields.LinearRamp.value_and_grad": (ORACLE, _RAMP_MASS),
    "fields.RadialRamp.value_and_grad": (ORACLE, _RAMP_MASS),
    "fields.DistanceRamp.value_and_grad": (ORACLE, _RAMP_MASS),
    "geometry.HalfSpace.dist_and_grad": (ORACLE, _RAMP_MASS),
    "geometry.BallComplement.dist_and_grad": (ORACLE, _RAMP_MASS),
    "montecarlo.GradSum.__init__": (ORACLE, _RAMP_MASS),
    "montecarlo.GradSum.add": (ORACLE, _RAMP_MASS),
    # distances and memberships the streamed counts are checked on
    "geometry.HalfSpace.dist": (ORACLE, _DISTANCE_RAMP),
    "geometry.BallComplement.dist": (ORACLE, _DISTANCE_RAMP),
    "geometry.HalfSpace.indicator": (ORACLE, _INDICATOR_LOOP),
    "geometry.BallComplement.indicator": (ORACLE, _INDICATOR_LOOP),
    # the one-point differential behind the batched operator norms
    "geometry.jacobian_T": (ORACLE, _OP_NORMS),
    "geometry.JacobianResult.__post_init__": (ORACLE, _OP_NORMS),
    # the factor laws the sampled coordinates are tested against
    "measures1d.make_mu_p.<locals>.cdf": (ORACLE, _MARGINALS),
    "measures1d.make_nu_p.<locals>.cdf": (ORACLE, _MARGINALS),
    # sets without a closed form, phi catalogs and functionals
    "inequality_suite._Contents.tally": (
        PLAN_ARG, "bobkov_plan sets; test_inequality_suite.py::"
        "test_enlargement_sorts_each_shared_scalar_once"),
    "montecarlo.estimate_measure": (
        PLAN_ARG, "bobkov_plan sets; test_inequality_suite.py::"
        "test_enlargement_sorts_each_shared_scalar_once"),
    "geometry.BallComplement.analytic_measure": (
        PLAN_ARG, "bobkov_plan sets; test_inequality_suite.py::"
        "test_ball_complement_off_the_ball_takes_the_exact_path"),
    "geometry.BallComplement.enlarged": (
        PLAN_ARG, "functional_equivalence_plan sets; test_inequality_suite.py"
        "::test_functional_equivalence_without_closed_form"),
    "fields.DistanceRamp.superlevel": (
        PLAN_ARG, "coarea_plan catalogs; test_inequality_suite.py::"
        "test_coarea_rhs_matches_per_level_indicator_loop"),
    "fields.DirectionalFunctional.__init__": (
        PLAN_ARG, "sz_concentration_plan functionals; " + _FUNCTIONALS),
    "fields.DirectionalFunctional.__call__": (
        PLAN_ARG, "sz_concentration_plan functionals; " + _FUNCTIONALS),
    "fields.EuclideanNorm.__init__": (
        PLAN_ARG, "sz_concentration_plan functionals; " + _FUNCTIONALS),
    "fields.EuclideanNorm.__call__": (
        PLAN_ARG, "sz_concentration_plan functionals; " + _FUNCTIONALS),
    # names the benchmark looks up
    "geometry.bgmn_map": (PERFBENCH, "perfbench/layers.py FUNCTIONS"),
    "sampling.sample_product": (PERFBENCH, "perfbench/layers.py FUNCTIONS"),
    "sampling._product_rows": (PERFBENCH, "sample_product's fill"),
    "sampling.child_seed": (PERFBENCH, "perfbench/worker.py oracle_cells"),
    "measures1d.make_exponential": (PERFBENCH, _LAWS),
    "measures1d.make_gamma": (PERFBENCH, _LAWS),
    "measures1d.make_gamma.<locals>.cdf": (PERFBENCH, _LAWS),
    "measures1d.make_gamma.<locals>.log_density": (PERFBENCH, _LAWS),
    "measures1d.make_gamma.<locals>.quantile": (PERFBENCH, _LAWS),
    "_special.gammaincinv": (PERFBENCH, "make_gamma's quantile"),
}

# run ``code`` in a fresh interpreter with sys.argv[1:] = the arguments
# after it and the profile hook set on every thread, and write where each
# function it called under ``root`` is defined
_TRACE = r"""
import json, sys, threading
out, root, code = sys.argv[1:4]
del sys.argv[1:4]
seen = {}

def hook(frame, event, arg):
    if event == "call":
        seen[id(frame.f_code)] = frame.f_code

sys.setprofile(hook)
threading.setprofile(hook)
exec(compile(code, "<workload>", "exec"), {"__name__": "__workload__"})
sys.setprofile(None)
threading.setprofile(None)
keys = {(c.co_filename, c.co_firstlineno, c.co_name) for c in seen.values()
        if c.co_filename.startswith(root)}
with open(out, "w") as fh:
    json.dump(sorted(keys), fh)
"""

# the default grid, the large-n grid, --list and every demo, each demo in
# its own working directory; argv: a scratch directory, then the demos
_WORKLOAD = r"""
import os, runpy, sys
from isoplab import cli

tmp, demos = sys.argv[1], sys.argv[2:]
large = os.path.join(tmp, "large.cfg")
with open(large, "w") as fh:
    fh.write("n_grid = 256, 1024\nsamples = 1000\nthreads = 2\n")
codes = [cli.main(["--out-dir", os.path.join(tmp, "default")]),
         cli.main(["--config", large,
                   "--out-dir", os.path.join(tmp, "large")]),
         cli.main(["--list"])]
assert set(codes) <= {0, 2}, codes
for k, demo in enumerate(demos):
    os.makedirs(os.path.join(tmp, f"demo{k}"))
    os.chdir(os.path.join(tmp, f"demo{k}"))
    runpy.run_path(demo, run_name="__main__")
"""


def _functions(root: pathlib.Path) -> dict:
    """(file, first line, name) -> "module.qualname" of every ``def`` under
    root, nested ones included; lambdas, comprehensions and class bodies
    are not functions here."""
    out = {}

    def walk(code, module, prefix):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            qualname = prefix + const.co_name
            if not const.co_flags & 0x1:  # CO_OPTIMIZED unset: a class body
                walk(const, module, qualname + ".")
            elif not const.co_name.startswith("<"):
                out[(const.co_filename, const.co_firstlineno,
                     const.co_name)] = f"{module}.{qualname}"
                walk(const, module, qualname + ".<locals>.")

    for path in sorted(root.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.stem, "")
    return out


def _unreached(root: pathlib.Path, code: str, args, tmp_path) -> set:
    """The functions under root that ``code``, run with sys.argv[1:] = args
    in a traced fresh interpreter, never calls."""
    out = tmp_path / "reached.json"
    res = subprocess.run(
        [sys.executable, "-c", _TRACE, str(out), str(root), code, *args],
        capture_output=True, text=True, cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    reached = {tuple(key) for key in json.loads(out.read_text())}
    return {name for key, name in _functions(root).items()
            if key not in reached}


def test_every_unreached_function_is_allowed_for_one_reason(tmp_path):
    unreached = _unreached(SRC, _WORKLOAD,
                           [str(tmp_path)] + [str(d) for d in DEMOS], tmp_path)
    assert not unreached - set(ALLOWED), (
        "unreached and not allowed: delete them or give a reason",
        sorted(unreached - set(ALLOWED)))
    assert not set(ALLOWED) - unreached, (
        "allowed but reached: take them off ALLOWED",
        sorted(set(ALLOWED) - unreached))


def test_a_function_nothing_calls_is_reported(tmp_path):
    # negative control: of a module whose import calls one function and
    # starts a thread that calls a method and a nested function, only the
    # function that nothing calls is unreached, however it is nested
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        "import threading\n"
        "def used():\n"
        "    def inner():\n        pass\n"
        "    def orphan():\n        pass\n"
        "    inner()\n"
        "class C:\n"
        "    def method(self):\n        pass\n"
        "    def orphan(self):\n        pass\n"
        "def orphan():\n    pass\n"
        "used()\n"
        "t = threading.Thread(target=C().method)\nt.start()\nt.join()\n")
    code = f"import sys; sys.path.insert(0, {str(pkg)!r}); import mod\n"
    assert _unreached(pkg, code, [], tmp_path) == {
        "mod.orphan", "mod.C.orphan", "mod.used.<locals>.orphan"}
