"""Batch runner: executes selected checks over a (p, n) grid and writes
one CSV of graded rows per check, a plot-friendly companion CSV, and a
JSON summary of fitted constants and verdict counts.

Exit codes: 0 when no row FAILs, 2 when any row FAILs, 3 for configuration
errors (unknown check, malformed config, a grid, seed or big_c value the
checks reject, empty selection, bad out dir).

Config files use ``key = value`` lines with ``#`` comments; list values
are comma-separated.  r_grid and eps_ladder are multipliers of the
boundary-layer width n^{-(2-p)/(2p)}; t_grid entries are quantile levels.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import inequality_suite as iq
from .geometry import CutoffParams, PBallParams, coordinate_half_space
from .montecarlo import FAIL, EstimateCI, _ladder
from .sampling import child_seed

LEMMA5_EPS = (0.05, 0.1, 0.2)
LEMMA5_N = (4, 16)


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    experiments: list = field(default_factory=list)  # empty = all checks
    p_grid: list = field(default_factory=lambda: [1.0, 1.5, 2.0])
    n_grid: list = field(default_factory=lambda: [2, 4])
    a_grid: list = field(default_factory=lambda: [0.1, 0.25, 0.5])
    t_grid: list = field(default_factory=lambda: [0.5, 0.75, 0.9])
    r_grid: list = field(default_factory=lambda: [0.5, 1.0, 2.0])
    eps_ladder: list = field(default_factory=lambda: [0.1, 0.05, 0.02, 0.01])
    samples: int = 5000
    seed: int = 20260817
    threads: int = 1
    out_dir: str = "lab_out"
    big_c: float = 4.0

    def selected(self) -> list:
        return list(self.experiments) if self.experiments else sorted(REGISTRY)

    def validate(self):
        for name in self.experiments:
            if name not in REGISTRY:
                raise ConfigError(f"unknown check {name!r}; "
                                  f"--list shows the available names")
        if self.experiments == [] and "experiments" in getattr(
                self, "_explicit", ()):
            raise ConfigError("no experiments selected")
        for grid_name in ("p_grid", "n_grid", "a_grid", "t_grid",
                          "r_grid", "eps_ladder"):
            if not getattr(self, grid_name):
                raise ConfigError(f"{grid_name} must not be empty")
        for p in self.p_grid:
            if not 1.0 <= p <= 2.0:
                raise ConfigError(f"p = {p} outside [1, 2]")
        for n in self.n_grid:
            if n < 1:
                raise ConfigError(f"n = {n} must be a positive integer")
        try:
            iq._validate_levels(self.a_grid, "a_grid")
            iq._quantile_levels(self.t_grid, "t_grid")
            iq._radii(self.r_grid)
            _ladder(self.eps_ladder)
            iq._validate_big_c(self.big_c)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if self.samples < 1000:
            raise ConfigError("samples must be at least 1000")
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")


# ---------------------------------------------------------------------------
# config file parsing
# ---------------------------------------------------------------------------

_LIST_KEYS = {"experiments", "p_grid", "n_grid", "a_grid", "t_grid",
              "r_grid", "eps_ladder"}
_INT_KEYS = {"samples", "seed", "threads"}
_FLOAT_KEYS = {"big_c"}
_STR_KEYS = {"out_dir"}


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    explicit = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        explicit.add(key)
        if key in _LIST_KEYS:
            items = [v.strip() for v in value.split(",") if v.strip()]
            if key == "experiments":
                parsed = items
            elif key == "n_grid":
                parsed = [_parse_int(key, lineno, v) for v in items]
            else:
                parsed = [_parse_float(key, lineno, v) for v in items]
            setattr(cfg, key, parsed)
        elif key in _INT_KEYS:
            setattr(cfg, key, _parse_int(key, lineno, value))
        elif key in _FLOAT_KEYS:
            setattr(cfg, key, _parse_float(key, lineno, value))
        elif key in _STR_KEYS:
            setattr(cfg, key, value)
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    cfg._explicit = explicit
    return cfg


def _parse_int(key, lineno, value) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} needs an integer, "
                          f"got {value!r}")


def _parse_float(key, lineno, value) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} needs a number, "
                          f"got {value!r}")


# ---------------------------------------------------------------------------
# check registry and per-job runners
# ---------------------------------------------------------------------------

def _scaled(grid, p, n) -> list:
    w = n ** (-iq._kappa(p))
    return [m * w for m in grid]


def _default_sets(p, n, a_grid) -> list:
    params = PBallParams(p, n)
    return [coordinate_half_space(params, a) for a in a_grid]


def _run_theorem1(cfg, p, n, seed):
    return iq.check_theorem1(p, n, cfg.a_grid, None, cfg.samples, seed)


def _run_product(cfg, p, n, seed):
    return iq.check_product_isoperimetry(p, n, cfg.a_grid)


def _run_bobkov(cfg, p, n, seed):
    return iq.check_bobkov_inequality(
        p, n, _default_sets(p, n, cfg.a_grid), _scaled(cfg.r_grid, p, n),
        cfg.samples, seed, eps_ladder=_scaled(cfg.eps_ladder, p, n))


def _run_barthe(cfg, p, n, seed):
    return iq.check_barthe_dimensional(
        p, n, _default_sets(p, n, cfg.a_grid), _scaled(cfg.r_grid, p, n),
        cfg.samples, seed, eps_ladder=_scaled(cfg.eps_ladder, p, n))


def _run_sz_tail(cfg, p, n, seed):
    return iq.check_sz_tail(p, n, cfg.t_grid, cfg.samples, seed)


def _run_sz_concentration(cfg, p, n, seed):
    return iq.check_sz_concentration(p, n, "coordinate", cfg.t_grid,
                                     cfg.samples, seed)


def _run_concentration(cfg, p, n, seed):
    c_hat = iq.check_theorem1(p, n, cfg.a_grid).constants["c_hat"]
    curve = iq.concentration_from_isoperimetry(c_hat, p, n, cfg.a_grid)
    name = "concentration_from_isoperimetry"
    rows = tuple(iq._row(name, p, n, u, 0.0, EstimateCI.exact(num), bound,
                         "PASS")
                 for u, num, bound in zip(curve.u_grid, curve.psi_numeric,
                                          curve.psi_closed_form))
    return iq.CheckReport(name, rows, {"c_hat": c_hat})


def _run_lemma4(cfg, p, n, seed):
    return iq.check_lemma4(p, n, cfg.samples, seed)


def _run_lemma5(cfg, p, n, seed):
    # here n is the number of summands and p identifies the coordinate law
    alpha = (p - 1.0) / p
    a_const = 1.0 / math.gamma(1.0 - alpha)
    return iq.check_lemma5(a_const, alpha, n, list(LEMMA5_EPS),
                           cfg.samples, seed)


def _run_coarea(cfg, p, n, seed):
    return iq.check_coarea(p, n, None, cfg.samples, seed)


def _run_equivalence(cfg, p, n, seed):
    set_ = coordinate_half_space(PBallParams(p, n), 0.5)
    r, s = _scaled((0.0025, 0.05), p, n)
    return iq.check_functional_equivalence(p, n, set_, r, s, cfg.samples, seed)


def _run_l2_form(cfg, p, n, seed):
    grid = [a for a in cfg.a_grid if 0.0 < a < 0.5]
    if not grid:
        return iq.CheckReport("check_l2_form", (), {})
    return iq.check_l2_form(p, n, grid, cfg.samples, seed)


def _run_chain(cfg, p, n, seed):
    return iq.verify_cutoff_chain(p, n, None, CutoffParams(), cfg.samples,
                                  seed, big_c=cfg.big_c)


def _run_isotropy(cfg, p, n, seed):
    consts = iq.isotropy_constants(p, n)
    name = "isotropy_constants"
    rows = tuple(iq._row(name, p, n, k, 0.0, EstimateCI.exact(value), 0.0,
                         "PASS" if value > 0 else "FAIL")
                 for k, value in enumerate((consts.c_np, consts.l_k)))
    return iq.CheckReport(name, rows, {"c_np": consts.c_np,
                                       "l_k": consts.l_k})


def _run_kls(cfg, p, n, seed):
    return iq.check_kls(p, n, cfg.a_grid)


def _run_paouris(cfg, p, n, seed):
    return iq.check_paouris_tail(p, n, cfg.t_grid, cfg.samples, seed)


REGISTRY = {
    "check_theorem1": (
        "profile lower bound via half-space boundary mass", _run_theorem1),
    "check_product_isoperimetry": (
        "dimension-free profile bound for the product law", _run_product),
    "check_bobkov_inequality": (
        "log-concave enlargement lower bound on boundary content",
        _run_bobkov),
    "check_barthe_dimensional": (
        "dimensional enlargement lower bound on boundary content",
        _run_barthe),
    "check_sz_tail": (
        "Euclidean-norm tail decay exp(-c n t^p) on the ball", _run_sz_tail),
    "check_sz_concentration": (
        "Lipschitz concentration around the median on the ball",
        _run_sz_concentration),
    "concentration_from_isoperimetry": (
        "deviation curve integrated from the fitted profile constant",
        _run_concentration),
    "check_lemma4": (
        "calibration of the two localization small-probability events",
        _run_lemma4),
    "check_lemma5": (
        "small-sum probability bound for bounded-density variables",
        _run_lemma5),
    "check_coarea": (
        "gradient mass against the layer-cake of boundary contents",
        _run_coarea),
    "check_functional_equivalence": (
        "distance-ramp gradient mass converging to boundary content",
        _run_equivalence),
    "check_l2_form": (
        "Dirichlet energy of plateau ramps against the dyadic bound",
        _run_l2_form),
    "verify_cutoff_chain": (
        "every link of the localization chain on one product batch",
        _run_chain),
    "isotropy_constants": (
        "volume-one rescaling factor and isotropic constant", _run_isotropy),
    "check_kls": (
        "half-space Cheeger ratios on the isotropic rescaling", _run_kls),
    "check_paouris_tail": (
        "Euclidean-norm tail exp(-c t / L_K) on the isotropic rescaling",
        _run_paouris),
}


def list_checks() -> list:
    """Alphabetized (name, description) pairs of every registered check."""
    return [(name, REGISTRY[name][0]) for name in sorted(REGISTRY)]


# ---------------------------------------------------------------------------
# the run loop
# ---------------------------------------------------------------------------

def _jobs(cfg: RunConfig) -> list:
    jobs = []
    for name in cfg.selected():
        if name == "check_lemma5":
            for p in sorted(set(cfg.p_grid)):
                for n in LEMMA5_N:
                    jobs.append((name, float(p), int(n)))
        else:
            for p in sorted(set(cfg.p_grid)):
                for n in sorted(set(cfg.n_grid)):
                    jobs.append((name, float(p), int(n)))
    return sorted(jobs)


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    return repr(float(x))


def _write_check_csv(path: str, reports: list):
    lines = ["check,p,n,param1,param2,lhs,lhs_stderr,rhs,ratio,verdict"]
    for r in reports:
        p, n, p1, p2 = r.params
        lines.append(",".join([
            r.check_name, _fmt(p), _fmt(int(n)), _fmt(p1), _fmt(p2),
            _fmt(r.lhs.mean), _fmt(r.lhs.std_err), _fmt(r.rhs),
            _fmt(r.ratio), r.verdict]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_plot_csv(path: str, reports: list):
    lines = ["x,lhs,rhs,ci_lo,ci_hi"]
    for r in reports:
        lines.append(",".join([
            _fmt(r.params[2]), _fmt(r.lhs.mean), _fmt(r.rhs),
            _fmt(r.lhs.lo), _fmt(r.lhs.hi)]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _config_echo(cfg: RunConfig) -> dict:
    # out_dir and threads are execution details, not part of the experiment
    out = {}
    for f in fields(cfg):
        if f.name in ("out_dir", "threads"):
            continue
        out[f.name] = getattr(cfg, f.name)
    out["experiments"] = cfg.selected()
    return out


def run(cfg: RunConfig) -> int:
    """Execute the configured checks; returns the process exit code."""
    cfg.validate()
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
        probe = os.path.join(cfg.out_dir, ".write_probe")
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        raise ConfigError(f"cannot write to out dir {cfg.out_dir!r}: {exc}")

    jobs = _jobs(cfg)
    if not jobs:
        raise ConfigError("no experiments selected")

    def execute(item):
        index, (name, p, n) = item
        runner = REGISTRY[name][1]
        return runner(cfg, p, n, child_seed(cfg.seed, index))

    indexed = list(enumerate(jobs))
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(execute, indexed))
    else:
        results = [execute(item) for item in indexed]

    by_check = {}
    summary_checks = {}
    for (name, p, n), rep in zip(jobs, results):
        by_check.setdefault(name, []).extend(rep.reports)
        entry = summary_checks.setdefault(name, {"constants": {},
                                                 "verdicts": Counter()})
        entry["constants"][f"p={p:g},n={n:d}"] = rep.constants
        entry["verdicts"].update(rep.verdicts())

    any_fail = any(entry["verdicts"][FAIL] > 0
                   for entry in summary_checks.values())
    for name, reports in by_check.items():
        _write_check_csv(os.path.join(cfg.out_dir, f"{name}.csv"), reports)
        _write_plot_csv(os.path.join(cfg.out_dir, f"{name}_plot.csv"),
                        reports)

    exit_code = 2 if any_fail else 0
    summary = {
        "config": _config_echo(cfg),
        "checks": summary_checks,
        "exit_code": exit_code,
    }
    with open(os.path.join(cfg.out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")
    return exit_code


def _jsonable(x):
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, np.integer):
        return int(x)
    raise TypeError(f"not JSON serializable: {type(x)}")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_config(argv) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="isoplab",
        description="grade isoperimetric-type inequalities on l_p balls")
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--experiment", action="append", default=None,
                        help="check to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--out-dir", default=None)
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--list", action="store_true",
                        help="list available checks and exit")
    args = parser.parse_args(argv)

    if args.list:
        for name, tag in list_checks():
            print(f"{name}: {tag}")
        raise SystemExit(0)

    if args.config is not None:
        try:
            with open(args.config) as fh:
                cfg = parse_config(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}")
    else:
        cfg = RunConfig()

    if args.experiment is not None:
        cfg.experiments = args.experiment
    if args.seed is not None:
        cfg.seed = args.seed
    if args.samples is not None:
        cfg.samples = args.samples
    if args.threads is not None:
        cfg.threads = args.threads
    if args.out_dir is not None:
        cfg.out_dir = args.out_dir
    elif "out_dir" not in getattr(cfg, "_explicit", ()):
        env_dir = os.environ.get("LAB_OUT_DIR")
        if env_dir:
            cfg.out_dir = env_dir
    return cfg


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = build_config(argv)
        return run(cfg)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that slot means FAIL here
        return 0 if not exc.code else 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
