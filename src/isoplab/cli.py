"""Batch runner: executes selected checks over a (p, n) grid and writes
one CSV of graded rows per check, a plot-friendly companion CSV, and a
JSON summary of fitted constants and verdict counts.

Each (check, p, n) job's runner reads the config, p and n, and either runs
an exact check or returns the plan of a sampled one (or theorem1_plan,
which draws nothing on its default sets); the plans of each (p, n) cell
then run together on the cell's two streams (``inequality_suite.run_cell``),
seeded by (seed, p, n) alone.  The sample count and seed reach a check
only through run_cell.  So a check's rows do not depend on which other
checks are selected, nor on the order the cells run in.  At ``threads =
k`` one pool of k threads runs the runners and then up to k cells at
once, each holding its own columns, and the output stays the same bytes.

Exit codes: 0 when no row FAILs, 2 when any row FAILs, 3 for configuration
errors (unknown check or key, malformed config, a grid or seed value the
checks reject, empty selection, bad out dir).

Config files use ``key = value`` lines with ``#`` comments; list values
are comma-separated.  A run is set by its (p, n, samples) grid: the set
measures ``A_GRID``, the quantile levels ``T_GRID`` and the radii
``R_GRID`` (multipliers of the boundary-layer width n^{-(2-p)/(2p)}) are
module constants.  A boundary content with no closed form is estimated
on ``inequality_suite.default_eps_ladder(p, n)``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import inequality_suite as iq
from .geometry import PBallParams, coordinate_half_space, kappa
from .montecarlo import FAIL

LEMMA5_EPS = (0.05, 0.1, 0.2)
LEMMA5_N = (4, 16)
A_GRID = (0.1, 0.25, 0.5)  # set measures
T_GRID = (0.5, 0.75, 0.9)  # quantile levels of the tail thresholds
R_GRID = (0.5, 1.0, 2.0)  # radii, in units of n^{-(2-p)/(2p)}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    experiments: list = field(default_factory=list)  # empty = all checks
    p_grid: list = field(default_factory=lambda: [1.0, 1.5, 2.0])
    n_grid: list = field(default_factory=lambda: [2, 4])
    samples: int = 5000
    seed: int = 20260817
    threads: int = 1
    out_dir: str = "lab_out"

    def selected(self) -> list:
        # a check named twice runs once, in first-seen order
        if self.experiments:
            return list(dict.fromkeys(self.experiments))
        return sorted(REGISTRY)

    def validate(self):
        for name in self.experiments:
            if name not in REGISTRY:
                raise ConfigError(f"unknown check {name!r}; "
                                  f"--list shows the available names")
        for grid_name in ("p_grid", "n_grid"):
            if not getattr(self, grid_name):
                raise ConfigError(f"{grid_name} must not be empty")
        for p in self.p_grid:
            if not 1.0 <= p <= 2.0:
                raise ConfigError(f"p = {p} outside [1, 2]")
        for n in self.n_grid:
            if n < 1:
                raise ConfigError(f"n = {n} must be a positive integer")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if self.samples < 1000:
            raise ConfigError("samples must be at least 1000")
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")


# ---------------------------------------------------------------------------
# config file parsing
# ---------------------------------------------------------------------------

_LIST_KEYS = {"experiments", "p_grid", "n_grid"}
_INT_KEYS = {"samples", "seed", "threads"}
_STR_KEYS = {"out_dir"}


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in _LIST_KEYS:
            items = [v.strip() for v in value.split(",") if v.strip()]
            # an empty list is an error: as "experiments =" it would
            # otherwise read as "every check"
            if not items:
                raise ConfigError(f"line {lineno}: {key} has no items")
            if key == "experiments":
                parsed = items
            elif key == "n_grid":
                parsed = [_parse_int(key, lineno, v) for v in items]
            else:
                parsed = [_parse_float(key, lineno, v) for v in items]
            setattr(cfg, key, parsed)
        elif key in _INT_KEYS:
            setattr(cfg, key, _parse_int(key, lineno, value))
        elif key in _STR_KEYS:
            setattr(cfg, key, value)
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
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
    w = n ** -kappa(p)
    return [m * w for m in grid]


def _default_sets(p, n) -> list:
    params = PBallParams(p, n)
    return [coordinate_half_space(params, a) for a in A_GRID]


def _run_theorem1(cfg, p, n):
    return iq.theorem1_plan(p, n, A_GRID)


def _run_product(cfg, p, n):
    return iq.check_product_isoperimetry(p, n, A_GRID)


def _run_bobkov(cfg, p, n):
    return iq.bobkov_plan(p, n, _default_sets(p, n), _scaled(R_GRID, p, n))


def _run_barthe(cfg, p, n):
    return iq.barthe_plan(p, n, _default_sets(p, n), _scaled(R_GRID, p, n))


def _run_sz_tail(cfg, p, n):
    return iq.sz_tail_plan(p, n, T_GRID)


def _run_sz_concentration(cfg, p, n):
    return iq.sz_concentration_plan(p, n, "coordinate", T_GRID)


def _run_concentration(cfg, p, n):
    return iq.concentration_report(p, n, A_GRID)


def _run_lemma4(cfg, p, n):
    return iq.lemma4_plan(p, n)


def _run_lemma5(cfg, p, n):
    # here n is the number of summands and p identifies the coordinate law
    return iq.check_lemma5(p, n, LEMMA5_EPS)


def _run_coarea(cfg, p, n):
    return iq.coarea_plan(p, n)


def _run_equivalence(cfg, p, n):
    set_ = coordinate_half_space(PBallParams(p, n), 0.5)
    r, s = _scaled((0.0025, 0.05), p, n)
    return iq.functional_equivalence_plan(p, n, set_, r, s)


def _run_l2_form(cfg, p, n):
    return iq.l2_form_plan(p, n, [a for a in A_GRID if a < 0.5])


def _run_chain(cfg, p, n):
    return iq.cutoff_chain_plan(p, n)


def _run_isotropy(cfg, p, n):
    return iq.isotropy_report(p, n)


def _run_kls(cfg, p, n):
    return iq.check_kls(p, n, A_GRID)


def _run_paouris(cfg, p, n):
    return iq.paouris_tail_plan(p, n, T_GRID)


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

    def execute(job):
        name, p, n = job
        return REGISTRY[name][1](cfg, p, n)

    def run_cell(cell):
        (p, n), ks = cell
        return iq.run_cell(p, n, [results[k] for k in ks], cfg.samples,
                           cfg.seed)

    # the runners build the sampled checks' plans and run the exact checks;
    # then each (p, n) cell runs its plans, up to ``threads`` cells at once,
    # each holding its own columns
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        map_ = pool.map if cfg.threads > 1 else map
        results = list(map_(execute, jobs))
        cells = {}
        for k, ((_, p, n), result) in enumerate(zip(jobs, results)):
            if isinstance(result, iq.CellPlan):
                cells.setdefault((p, n), []).append(k)
        # larger n first: a cell's cost grows with n, and the pool ends
        # sooner when the cells left for last are the small ones
        order = sorted(cells.items(), key=lambda cell: -cell[0][1])
        for (_, ks), reports in zip(order, map_(run_cell, order)):
            for k, rep in zip(ks, reports):
                results[k] = rep

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
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return exit_code


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
