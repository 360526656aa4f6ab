"""The verification suite: every operation grades one inequality on a
parameter grid and returns a CheckReport.

Conventions shared by all checks:

* a report row carries params = (p, n, param1, param2) plus lhs, rhs and a
  verdict; param1/param2 meanings are documented per check;
* PASS/FAIL/INCONCLUSIVE follow the interval semantics of ``montecarlo``;
  a true inequality can only FAIL through an implementation bug, so the
  default grids are expected to produce zero FAIL verdicts;
* unknown universal constants are never asserted numerically: each check
  fits the best empirical constant and records it in CheckReport.constants;
* one grading batch per call, drawn from seed through child_seed (a ball
  batch at child 0, a product batch at child 1) and read by every row;
  ball points beside a product batch Z are T(Z), exactly uniform on
  B_p^n.  Only thresholds placed on held-out points (the three tail
  checks, check_coarea's radial radii at p != 2) come from one more
  batch.  Reports are reproducible bit for bit;
* batches are streamed, never held: a check reads its draws block by
  block (``sampling.ball_blocks`` / ``product_blocks``) and keeps only
  per-point columns of count values (set scalars, |x|_2, gradient norms,
  link terms), from which every row is estimated.  Its memory is those
  columns plus one block, whatever n is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy import special

from . import measures1d
from .fields import (
    CutoffH1Field,
    CutoffH2Field,
    DistanceRamp,
    LinearRamp,
    RadialRamp,
    functional_catalog,
    product_value_and_grad,
    push_forward_grad,
)
from .geometry import (
    BallComplement,
    CutoffParams,
    PBallParams,
    ball_log_volume,
    block_rows,
    coordinate_half_space,
    jacobian_op_norms,
    lp_norm,
    map_row_blocks,
    marginal_isf,
    marginal_level_density,
    marginal_second_moment,
    row_sum,
)
from .montecarlo import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    EstimateCI,
    PairRows,
    bernoulli_ci,
    content_from_batch,
    estimate_measure,
    estimate_median_and_phi,
    estimate_tail,
    integrate_grad,
    lipschitz_pairs,
    mean_ci,
    verdict_geq,
    verdict_leq,
)
from .sampling import ball_blocks, child_seed, product_blocks

__all__ = [
    "InequalityReport",
    "CheckReport",
    "ConcentrationCurve",
    "IsotropyConstants",
    "default_eps_ladder",
    "theorem1_rhs",
    "check_theorem1",
    "check_product_isoperimetry",
    "check_bobkov_inequality",
    "check_barthe_dimensional",
    "check_sz_tail",
    "check_sz_concentration",
    "concentration_from_isoperimetry",
    "check_lemma4",
    "lemma5_constant",
    "check_lemma5",
    "check_coarea",
    "check_functional_equivalence",
    "check_l2_form",
    "verify_cutoff_chain",
    "isotropy_constants",
    "check_kls",
    "check_paouris_tail",
]

# advisory lower end of the tail regime, in units of n^{-(2-p)/(2p)}
SZ_T0 = 2.0
# Euclidean-norm tail threshold floor, in units of L_K sqrt(n)
PAOURIS_T0 = 0.8
# ladder of candidate constants for the two small-probability bounds
LEMMA4_LADDER = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)


@dataclass(frozen=True)
class InequalityReport:
    """One graded inequality instance.

    lhs is an EstimateCI on every row; an exact oracle value is one with
    std_err 0 (``EstimateCI.exact``).  rhs is always a real number.  FAIL
    is only issued when the interval lies strictly on the violating side.
    """

    check_name: str
    params: tuple  # (p, n, param1, param2)
    lhs: EstimateCI
    rhs: float
    verdict: str

    def __post_init__(self):
        if self.verdict not in (PASS, FAIL, INCONCLUSIVE):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if len(self.params) != 4:
            raise ValueError("params must be (p, n, param1, param2)")

    @property
    def ratio(self) -> float:
        return self.lhs.mean / self.rhs if self.rhs > 0.0 else float("nan")


@dataclass(frozen=True)
class CheckReport:
    """All rows of one check plus its fitted constants."""

    name: str
    reports: tuple
    constants: dict

    def verdicts(self) -> dict:
        out = {PASS: 0, FAIL: 0, INCONCLUSIVE: 0}
        for r in self.reports:
            out[r.verdict] += 1
        return out


def _row(name, p, n, p1, p2, lhs, rhs, verdict) -> InequalityReport:
    return InequalityReport(name, (float(p), int(n), float(p1), float(p2)),
                            lhs, float(rhs), verdict)


def default_eps_ladder(p: float, n: int) -> list:
    """Enlargement ladder scaled to the n^{-(2-p)/(2p)} boundary-layer width."""
    scale = n ** (-(2.0 - p) / (2.0 * p))
    return [m * scale for m in (0.1, 0.05, 0.02, 0.01)]


def _kappa(p: float) -> float:
    return (2.0 - p) / (2.0 * p)


def _ball_stream(params: PBallParams, count: int, seed: int, child: int):
    return ball_blocks(params, count, child_seed(seed, child))


def _shares_scalar(a, b) -> bool:
    return type(a) is type(b) and np.array_equal(getattr(a, "xi", None),
                                                 getattr(b, "xi", None))


def scalar_groups(sets) -> list:
    """Indices of ``sets`` grouped by the one scalar each thresholds, in
    order of first appearance; the sets of a group share one column and
    one ``content_from_batch`` call."""
    groups = []
    for k, set_ in enumerate(sets):
        for group in groups:
            if _shares_scalar(sets[group[0]], set_):
                group.append(k)
                break
        else:
            groups.append([k])
    return groups


def _set_scalars(sets, stream, count: int) -> list:
    """One scalar column per set, filled in one pass over ``stream``; sets
    sharing a scalar share its column."""
    groups = scalar_groups(sets)
    cols = map_row_blocks(lambda X: [sets[g[0]].scalar(X) for g in groups],
                          stream, count)
    out = [None] * len(sets)
    for col, group in zip(cols, groups):
        for k in group:
            out[k] = col
    return out


def _contents(sets, scalars, ladder) -> list:
    """ContentEstimate per set, one ``content_from_batch`` call (one sort)
    per shared scalar column."""
    out = [None] * len(sets)
    for group in scalar_groups(sets):
        ests = content_from_batch(scalars[group[0]],
                                  [sets[k].threshold for k in group], ladder)
        for k, est in zip(group, ests):
            out[k] = est
    return out


# ---------------------------------------------------------------------------
# profile lower bound on the ball (order-sharpness scan)
# ---------------------------------------------------------------------------

def theorem1_rhs(p: float, n: int, a: float) -> float:
    """n^{1/p} a log^{1-1/p}(1/a), the conjectured-order profile bound."""
    return float(n ** (1.0 / p) * a * np.log(1.0 / a) ** (1.0 - 1.0 / p))


def _validate_levels(a_grid, where: str) -> list:
    grid = [float(a) for a in a_grid]
    if not grid or any(not 0.0 < a <= 0.5 for a in grid):
        raise ValueError(f"{where} must be a nonempty subset of (0, 1/2]")
    return grid


def check_theorem1(p: float, n: int, a_grid, sets=None,
                   count: int = 10 ** 4, seed: int = 0) -> CheckReport:
    """Ratio of half-space boundary mass to n^{1/p} a log^{1-1/p}(1/a).

    With the default coordinate family the left side is the exact marginal
    oracle, so this is an order-sharpness scan: each ratio witnesses an
    admissible constant, and the fitted c_hat is their minimum.  Explicit
    ``sets`` (a list of (label, a -> TestSet) families) switch the left
    side to Monte Carlo content and additionally record whether coordinate
    half-spaces attain the family minimum (within CI) at each level.  The
    Monte Carlo rows of every level and family read one batch.

    Rows: param1 = a, param2 = family index.
    """
    params = PBallParams(p, n)
    grid = _validate_levels(a_grid, "a_grid")
    families = sets
    if families is None:
        families = [("coordinate", lambda a: coordinate_half_space(params, a))]
    name = "check_theorem1"
    ladder = default_eps_ladder(p, n)
    level_sets = [[family(a) for _, family in families] for a in grid]
    exact = {}
    for set_ in (s for row in level_sets for s in row):
        oracle = getattr(set_, "analytic_boundary", None)
        exact[id(set_)] = None if oracle is None else oracle(params)
    mc_sets = [s for row in level_sets for s in row if exact[id(s)] is None]
    contents = {}
    if mc_sets:
        scalars = _set_scalars(mc_sets, _ball_stream(params, count, seed, 0),
                               count)
        contents = {id(s): ce for s, ce in
                    zip(mc_sets, _contents(mc_sets, scalars, ladder))}
    reports = []
    ratios = []
    argmin_hits = 0
    for a, row_sets in zip(grid, level_sets):
        rhs = theorem1_rhs(p, n, a)
        level_rows = []
        for fi, set_ in enumerate(row_sets):
            if exact[id(set_)] is not None:
                lhs = EstimateCI.exact(exact[id(set_)])
                verdict = PASS if lhs.mean > 0.0 else FAIL
                ratios.append(lhs.mean / rhs)
            else:
                ce = contents[id(set_)]
                lhs = ce.extrapolated
                verdict = (INCONCLUSIVE if ce.inconclusive
                           else verdict_geq(lhs, 0.0, "strict"))
                ratios.append(lhs.mean / rhs)
            level_rows.append(_row(name, p, n, a, fi, lhs, rhs, verdict))
        if len(families) > 1:
            # coordinate family is near-extremal: record whether any family
            # confidently undercuts family 0 at this level
            base = level_rows[0]
            undercut = any(r.lhs.hi < base.lhs.lo for r in level_rows[1:])
            argmin_hits += 0 if undercut else 1
        reports.extend(level_rows)
    constants = {
        "c_hat": min(ratios),
        "ratio_max": max(ratios),
        "band": max(ratios) / min(ratios),
    }
    if len(families) > 1:
        constants["argmin_coordinate_share"] = argmin_hits / len(grid)
    return CheckReport(name, tuple(reports), constants)


def check_product_isoperimetry(p: float, n: int, a_grid) -> CheckReport:
    """Coordinate half-spaces in the product space against a log^{1-1/p}(1/a).

    Exact throughout: the boundary mass of {z_i >= t} under the product law
    is the factor density at the quantile.  param2 = 0 grades the mu_p
    factor (coordinates 1..n, all identical), param2 = 1 the nu_p factor.
    The fitted constant is dimension-free by construction.
    """
    PBallParams(p, n)  # range validation only
    grid = _validate_levels(a_grid, "a_grid")
    mu = measures1d.make_mu_p(p)
    nu = measures1d.make_nu_p(p)
    name = "check_product_isoperimetry"
    reports = []
    ratios = []
    for a in grid:
        rhs = float(a * np.log(1.0 / a) ** (1.0 - 1.0 / p))
        for tag, law in ((0, mu), (1, nu)):
            lhs = float(law.density(law.quantile(1.0 - a)))
            ratios.append(lhs / rhs)
            reports.append(_row(name, p, n, a, tag, EstimateCI.exact(lhs),
                                rhs, PASS if lhs > 0.0 else FAIL))
    return CheckReport(name, tuple(reports),
                       {"c_hat": min(ratios), "ratio_max": max(ratios)})


# ---------------------------------------------------------------------------
# enlargement lower bounds (log-concave and dimensional forms)
# ---------------------------------------------------------------------------

def _entropy_term(a: float) -> float:
    # a log(1/a) + (1-a) log(1/(1-a)), continuous at 0 and 1
    return float(-special.xlogy(a, a) - special.xlogy(1.0 - a, 1.0 - a))


def _ball_mass(norms: Optional[np.ndarray], params: PBallParams,
               r: float) -> float:
    """V{|x|_2 <= r}: exact for p = 2, otherwise empirical from the batch's
    column of Euclidean norms (which p = 2 does not need, and may pass as
    None)."""
    if params.p == 2.0:
        return min(r, 1.0) ** params.n if r > 0.0 else 0.0
    return float((norms <= r).mean())


def _radii(r_grid) -> list:
    radii = [float(r) for r in r_grid]
    if not radii or any(not r > 0.0 for r in radii):
        raise ValueError("r_grid entries must be positive")
    return radii


def _check_enlargement_bound(name: str, p: float, n: int, sets, r_grid,
                             count: int, seed: int, dimensional: bool,
                             eps_ladder=None) -> CheckReport:
    params = PBallParams(p, n)
    r_grid = _radii(r_grid)
    ladder = list(eps_ladder) if eps_ladder is not None else \
        default_eps_ladder(p, n)
    # one pass: a scalar column per shared scalar of the sets, and |x|_2
    # (as one more "set", the ball complement's scalar) unless p = 2
    stream = _ball_stream(params, count, seed, 0)
    norms = None
    if p == 2.0:
        scalars = _set_scalars(sets, stream, count)
    else:
        *scalars, norms = _set_scalars([*sets, BallComplement(1.0)], stream,
                                       count)
    masses = [_ball_mass(norms, params, r) for r in r_grid]
    reports = []
    slacks = []
    for set_, scalar, ce in zip(sets, scalars,
                                _contents(sets, scalars, ladder)):
        a = set_.analytic_measure(params)
        if a is None:
            a = estimate_measure(scalar, set_.threshold).mean
        lhs = ce.extrapolated
        for r, mass in zip(r_grid, masses):
            if mass <= 0.0:
                reports.append(_row(name, p, n, r, a, lhs, 0.0, INCONCLUSIVE))
                continue
            if dimensional:
                beta = 1.0 - 1.0 / n
                rhs = (n / (2.0 * r)) * (
                    (a ** beta + (1.0 - a) ** beta) * mass ** (1.0 / n) - 1.0)
            else:
                rhs = (_entropy_term(a) + math.log(mass)) / (2.0 * r)
            verdict = (INCONCLUSIVE if ce.inconclusive
                       else verdict_geq(lhs, rhs, "consistent"))
            if rhs > 0.0:
                slacks.append(lhs.mean / rhs)
            reports.append(_row(name, p, n, r, a, lhs, rhs, verdict))
    constants = {"min_slack": min(slacks)} if slacks else {}
    return CheckReport(name, tuple(reports), constants)


def check_bobkov_inequality(p: float, n: int, sets, r_grid,
                            count: int, seed: int,
                            eps_ladder=None) -> CheckReport:
    """Boundary content against the log-concave enlargement bound

        content(A) >= (1/2r)[a log(1/a) + (1-a) log(1/(1-a)) + log V{|x|_2 <= r}].

    ``sets`` is a list of test sets, read from one batch.  Rows: param1 =
    r, param2 = the set's measure a; verdicts are consistency-graded (the
    bound can be met with equality up to noise).
    A vanishing ball-mass estimate makes the row INCONCLUSIVE.
    """
    return _check_enlargement_bound("check_bobkov_inequality", p, n, sets,
                                    r_grid, count, seed, dimensional=False,
                                    eps_ladder=eps_ladder)


def check_barthe_dimensional(p: float, n: int, sets, r_grid,
                             count: int, seed: int,
                             eps_ladder=None) -> CheckReport:
    """Dimensional refinement of the enlargement bound,

        content(A) >= (n/2r){[a^{1-1/n} + (1-a)^{1-1/n}] V{|x|_2<=r}^{1/n} - 1}.

    Same row layout and grading as check_bobkov_inequality.
    """
    return _check_enlargement_bound("check_barthe_dimensional", p, n, sets,
                                    r_grid, count, seed, dimensional=True,
                                    eps_ladder=eps_ladder)


# ---------------------------------------------------------------------------
# norm tails and Lipschitz concentration
# ---------------------------------------------------------------------------

def _quantile_levels(t_grid, where: str) -> list:
    levels = [float(q) for q in t_grid]
    if not levels or any(not 0.0 < q < 1.0 for q in levels):
        raise ValueError(f"{where} entries are quantile levels in (0, 1)")
    return levels


def check_sz_tail(p: float, n: int, t_grid, count: int, seed: int) -> CheckReport:
    """Euclidean-norm tail P{|x|_2 >= t} against exp(-c n t^p).

    t_grid holds quantile levels in (0, 1); absolute thresholds are placed
    at those empirical quantiles (calibration batch), which keeps every
    tail estimate strictly inside (0, 1) across all (p, n).  c_hat is the
    largest constant consistent with every non-rare threshold, i.e. the
    minimum of -log P^ / (n t^p).  Rows: param1 = t, param2 = 1 when t is
    inside the advisory regime t >= 2 n^{-(2-p)/(2p)}.
    """
    params = PBallParams(p, n)
    levels = _quantile_levels(t_grid, "t_grid")

    def radii(child):
        return map_row_blocks(lambda X: (lp_norm(X, 2.0),),
                              _ball_stream(params, count, seed, child),
                              count)[0]

    thresholds = np.quantile(radii(0), levels)
    tails = estimate_tail(radii(1), thresholds)
    name = "check_sz_tail"
    t_lo = SZ_T0 * n ** (-_kappa(p))
    slopes = []
    for t, est, rare in tails:
        if not rare and t > 0.0 and est.mean < 1.0:
            slopes.append(-math.log(est.mean) / (n * t ** p))
        elif not rare and t > 0.0:
            slopes.append(0.0)  # no observed decay: forces c_hat to 0
    c_hat = min(slopes) if slopes else None
    reports = []
    for t, est, rare in tails:
        in_range = 1.0 if t >= t_lo else 0.0
        if rare:
            reports.append(_row(name, p, n, t, in_range, est, 0.0, INCONCLUSIVE))
            continue
        if t <= 0.0:
            reports.append(_row(name, p, n, t, in_range, est, 1.0, PASS))
            continue
        rhs = math.exp(-c_hat * n * t ** p)
        reports.append(_row(name, p, n, t, in_range, est, rhs,
                            verdict_leq(est, rhs, "consistent")))
    constants = {"c_hat": c_hat, "thresholds": [float(t) for t in thresholds]}
    return CheckReport(name, tuple(reports), constants)


def _gathering(stream, index: np.ndarray, out: np.ndarray):
    """Pass ``stream`` through, copying its rows at the sorted row indices
    ``index`` into ``out`` on the way."""
    for lo, block in stream:
        lo_k, hi_k = np.searchsorted(index, [lo, lo + block.shape[0]])
        out[lo_k:hi_k] = block[index[lo_k:hi_k] - lo]
        yield lo, block


def check_sz_concentration(p: float, n: int, functional, t_grid,
                           count: int, seed: int) -> CheckReport:
    """Upper-tail curve of a 1-Lipschitz functional around its median,

        phi(h) = V{F > Med F + h}  vs  (1/2) exp(-c1 n h^p).

    ``functional`` is a catalog name or a catalog field.  t_grid holds
    quantile levels; offsets h are placed at (calibration quantile - median),
    so the level 0.5 lands at h = 0 and grades the trivial phi(0) <= 1/2 row.
    c1_hat = min over positive-offset rows of -log(2 phi^)/(n h^p).
    Rows: param1 = h, param2 = 1 for rows entering the fit.
    """
    params = PBallParams(p, n)
    if isinstance(functional, str):
        functional = functional_catalog(functional, n)
    levels = _quantile_levels(t_grid, "t_grid")

    def values(X):
        return (functional(X),)

    vals, = map_row_blocks(values, _ball_stream(params, count, seed, 0), count)
    if vals.max() == vals.min():
        raise ValueError("functional is constant on the sample; "
                         "no concentration to measure")
    med0 = float(np.median(vals))
    h_grid = [float(np.quantile(vals, q)) - med0 for q in levels]
    # the grading batch keeps its F column and only the rows that the
    # Lipschitz spot check's pairs index
    i, j = lipschitz_pairs(child_seed(seed, 1), count)
    want = np.union1d(i, j)
    rows = np.empty((want.size, n))
    vals, = map_row_blocks(
        values, _gathering(_ball_stream(params, count, seed, 1), want, rows),
        count)
    pairs = PairRows(i, j, rows[np.searchsorted(want, i)],
                     rows[np.searchsorted(want, j)])
    _, curve = estimate_median_and_phi(vals, functional, h_grid, pairs)
    name = "check_sz_concentration"
    slopes = []
    for h, est, rare in curve:
        if h > 0.0 and not rare and est.mean > 0.0:
            slopes.append(-math.log(2.0 * est.mean) / (n * h ** p))
    c1_hat = min(slopes) if slopes else None
    reports = []
    for h, est, rare in curve:
        if rare:
            reports.append(_row(name, p, n, h, 0.0, est, 0.0, INCONCLUSIVE))
        elif h < 0.0:
            # no claim below the median
            reports.append(_row(name, p, n, h, 0.0, est, 1.0, PASS))
        elif h == 0.0 or c1_hat is None:
            reports.append(_row(name, p, n, h, 0.0, est, 0.5,
                                verdict_leq(est, 0.5, "consistent")))
        else:
            rhs = 0.5 * math.exp(-c1_hat * n * h ** p)
            reports.append(_row(name, p, n, h, 1.0, est, rhs,
                                verdict_leq(est, rhs, "consistent")))
    return CheckReport(name, tuple(reports), {"c1_hat": c1_hat})


# ---------------------------------------------------------------------------
# concentration from the profile bound (the psi ODE)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcentrationCurve:
    """Exact deviation curve psi against its closed-form upper bound.

    psi solves psi'(u) = -[c n^{1/p} u log^{1-1/p}(1/u)]^{-1} with
    psi(1/2) = 0, so psi(u) = p/(c n^{1/p}) [log^{1/p}(1/u) - log^{1/p} 2];
    the bound column is [log(1/2u)/(c1 n)]^{1/p} with c1 = (c/p)^p.
    """

    u_grid: np.ndarray
    psi_numeric: np.ndarray
    psi_closed_form: np.ndarray

    def __post_init__(self):
        if not (len(self.u_grid) == len(self.psi_numeric)
                == len(self.psi_closed_form)):
            raise ValueError("curve columns must have equal length")


def concentration_from_isoperimetry(c: float, p: float, n: int,
                                    u_grid) -> ConcentrationCurve:
    """Evaluate the deviation curve psi and verify the closed-form bound.

    Raises RuntimeError if psi exceeds the bound by more than 1e-6 relative
    slack anywhere (it cannot, by concavity of t -> t^{1/p}).
    """
    if c <= 0.0:
        raise ValueError("profile constant c must be positive")
    PBallParams(p, n)
    u_grid = np.asarray([float(u) for u in u_grid])
    if u_grid.size == 0 or np.any(u_grid <= 0.0) or np.any(u_grid > 0.5):
        raise ValueError("u grid must lie in (0, 1/2]")
    # log^{1/p}(1/u) - log^{1/p} 2 with d = log(1/2u) factored out, so that
    # psi(1/2) = 0 exactly and nothing cancels near u = 1/2
    d = np.log(1.0 / (2.0 * u_grid))
    log2 = math.log(2.0)
    psi = (p / (c * n ** (1.0 / p)) * log2 ** (1.0 / p)
           * np.expm1(np.log1p(d / log2) / p))
    bound = (d / ((c / p) ** p * n)) ** (1.0 / p)
    over = np.flatnonzero(psi > bound * (1.0 + 1e-6) + 1e-15)
    if over.size:
        i = over[0]
        raise RuntimeError(
            f"deviation curve exceeds its closed-form bound at u={u_grid[i]}: "
            f"{psi[i]!r} > {bound[i]!r}")
    return ConcentrationCurve(u_grid, psi, bound)


# ---------------------------------------------------------------------------
# the two small-probability estimates
# ---------------------------------------------------------------------------

def check_lemma4(p: float, n: int, count: int, seed: int) -> CheckReport:
    """Calibrate the constant C2 making both localization events small:

        V{|x|_2 >= C2 n^{-(2-p)/(2p)}}  and  mu{|z|_p <= n^{1/p}/C2}

    against the target exp(-C1 n^{p/2}).  Rows never FAIL: the statement
    asserts existence of a large-enough C2, so an undersized rung is merely
    not yet good enough (INCONCLUSIVE).  Rows: param1 = C2, param2 = 0 for
    the ball event, 1 for the product event; rhs is the C1 = 1 target.
    constants records the smallest calibrated rung per C1 in {1, 2}, or
    None when the target sits below Monte Carlo resolution.  Both events
    read one product batch Z: the ball points are x = T(z), exactly
    uniform on B_p^n, so |x|_2 = |z_{1..n}|_2 / |z|_p.
    """
    params = PBallParams(p, n)

    def norms(Z):
        nzp = lp_norm(Z, p)
        return nzp, lp_norm(Z[:, :-1], 2.0) / nzp

    normsp, norms2 = map_row_blocks(
        norms, product_blocks(params, count, child_seed(seed, 1)), count)
    kappa = _kappa(p)
    name = "check_lemma4"
    reports = []
    ests = {}
    for c2 in LEMMA4_LADDER:
        e_ball = bernoulli_ci(int((norms2 >= c2 * n ** (-kappa)).sum()), count)
        e_prod = bernoulli_ci(int((normsp <= n ** (1.0 / p) / c2).sum()), count)
        ests[c2] = (e_ball, e_prod)
        target1 = math.exp(-1.0 * n ** (p / 2.0))
        for tag, est in ((0, e_ball), (1, e_prod)):
            verdict = PASS if est.hi <= target1 else INCONCLUSIVE
            reports.append(_row(name, p, n, c2, tag, est, target1, verdict))
    constants = {}
    for c1 in (1.0, 2.0):
        target = math.exp(-c1 * n ** (p / 2.0))
        good = [c2 for c2 in LEMMA4_LADDER
                if ests[c2][0].hi <= target and ests[c2][1].hi <= target]
        constants[f"C2_for_C1={c1:g}"] = min(good) if good else None
    return CheckReport(name, tuple(reports), constants)


def lemma5_constant(A: float, alpha: float) -> float:
    """C(A, alpha) = e/(1-alpha) * [A Gamma(1-alpha)]^{1/(1-alpha)}."""
    if A <= 0.0 or not 0.0 <= alpha < 1.0:
        raise ValueError("need A > 0 and alpha in [0, 1)")
    return float(math.e / (1.0 - alpha)
                 * (A * special.gamma(1.0 - alpha)) ** (1.0 / (1.0 - alpha)))


def check_lemma5(A: float, alpha: float, N: int, eps_grid,
                 trials: int, seed: int) -> CheckReport:
    """Small-sum probability P{X_1 + ... + X_N <= N eps} vs [C(A,alpha) eps]^{(1-alpha)N}.

    The variable catalog holds Gamma(1-alpha, 1), whose density is bounded
    by A x^{-alpha} exactly when A = 1/Gamma(1-alpha); alpha = 0 is Exp(1)
    and alpha = (p-1)/p is the Gamma(1/p, 1) coordinate law.  Because the
    sum is Gamma((1-alpha)N, 1), the exact small-sum probability is kept in
    constants as a cross-oracle.  Rows: param1 = eps, param2 = 1 when the
    bound is vacuous (>= 1, still PASS); report p = 1/(1-alpha), n = N.
    """
    c_bound = lemma5_constant(A, alpha)
    shape = 1.0 - alpha
    if abs(A * special.gamma(shape) - 1.0) > 1e-9:
        raise ValueError(
            f"no catalog variable with density bound {A!r} x^-{alpha!r}; "
            f"expected A = 1/Gamma(1-alpha)")
    if N < 1 or trials < 1:
        raise ValueError("N and trials must be positive")
    eps_grid = [float(e) for e in eps_grid]
    if any(e <= 0.0 for e in eps_grid):
        raise ValueError("eps grid must be positive")
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(0,))))
    # the (trials, N) Gamma matrix in row blocks from the one generator,
    # which fills them in C order: the values of one whole draw
    step = block_rows(N)
    blocks = ((lo, rng.gamma(shape, 1.0, size=(min(step, trials - lo), N)))
              for lo in range(0, trials, step))
    sums, = map_row_blocks(lambda G: (row_sum(G),), blocks, trials)
    name = "check_lemma5"
    p_report = 1.0 / shape
    reports = []
    constants = {"C": c_bound}
    for eps in eps_grid:
        k = int((sums <= N * eps).sum())
        est = bernoulli_ci(k, trials)
        bound = (c_bound * eps) ** (shape * N)
        vacuous = bound >= 1.0
        verdict = PASS if vacuous else verdict_leq(est, bound, "consistent")
        reports.append(_row(name, p_report, N, eps, 1.0 if vacuous else 0.0,
                            est, bound, verdict))
        constants[f"exact_eps={eps:g}"] = float(special.gammainc(shape * N,
                                                                 N * eps))
    return CheckReport(name, tuple(reports), constants)


# ---------------------------------------------------------------------------
# co-area, plateau functions, and the L2 form
# ---------------------------------------------------------------------------

def _default_plateau_catalog(params: PBallParams, count: int, seed: int) -> list:
    """Half-space ramp plus a radial ramp with radii at volume quantiles."""
    p, n = params.p, params.n
    xi = np.zeros(n)
    xi[0] = 1.0
    fields = [LinearRamp(xi, 0.0, float(marginal_isf(params, 0.2)))]
    if p == 2.0:
        lo, hi = 0.3 ** (1.0 / n), 0.7 ** (1.0 / n)
    else:
        radii, = map_row_blocks(lambda X: (lp_norm(X, 2.0),),
                                _ball_stream(params, count, seed, 10 ** 6),
                                count)
        lo, hi = np.quantile(radii, [0.3, 0.7])
    fields.append(RadialRamp(n, float(lo), float(hi)))
    return fields


def check_coarea(p: float, n: int, phi_catalog=None,
                 count: int = 10 ** 4, seed: int = 0) -> CheckReport:
    """Gradient mass against the layer-cake of boundary contents,

        integral |grad phi|_2 dV  >=  integral_0^1 content{phi > u} du,

    the u-integral taken over a 64-point midpoint grid of content
    estimates.  Both sides of every field read one batch.  The superlevel
    sets of one field share one scalar, so the batch is sorted once per
    field for all 64 levels.  For the plateau catalog both sides agree (the
    inequality is an identity there), so rows are consistency-graded.
    Rows: param1 = catalog index, param2 = 0.
    """
    params = PBallParams(p, n)
    if phi_catalog is None:
        phi_catalog = _default_plateau_catalog(params, count, seed)
    ladder = default_eps_ladder(p, n)
    name = "check_coarea"
    live_sets = []
    for phi in phi_catalog:
        levels = [phi.superlevel((k + 0.5) / 64.0) for k in range(64)]
        live_sets.append([(k, s) for k, s in enumerate(levels)
                          if s is not None])

    def per_point(X):
        # per field: |grad phi|_2, then its levels' shared scalar
        out = []
        for phi, live in zip(phi_catalog, live_sets):
            out.append(lp_norm(phi.grad(X), 2.0))
            if live:
                out.append(live[0][1].scalar(X))
        return out

    cols = iter(map_row_blocks(per_point, _ball_stream(params, count, seed, 0),
                               count))
    reports = []
    for i, (phi, live) in enumerate(zip(phi_catalog, live_sets)):
        lhs = integrate_grad(next(cols))
        vals = np.zeros(64)
        errs = np.zeros(64)
        if live:
            ests = content_from_batch(next(cols),
                                      [s.threshold for _, s in live], ladder)
            for (k, _), ce in zip(live, ests):
                vals[k] = ce.extrapolated.mean
                errs[k] = ce.extrapolated.std_err
        # contents at nearby levels share the batch, so errors are summed
        # rather than combined as a root sum of squares
        rhs = EstimateCI(float(vals.mean()), float(errs.mean()), count)
        reports.append(_row(name, p, n, i, 0.0, lhs, rhs.mean,
                            verdict_geq(lhs, rhs, "consistent")))
    return CheckReport(name, tuple(reports), {})


def check_functional_equivalence(p: float, n: int, set_, r: float, s: float,
                                 count: int, seed: int) -> CheckReport:
    """Gradient mass of the proof's plateau function as a content estimator.

    phi = clip(1 - (dist(x, A_r))/s) satisfies integral |grad phi| dV =
    (1/s) V{r < dist <= r + s} exactly; along the internal ladder
    (s 2^j, r 4^j), j = 3..0, the value converges to the boundary content
    of A.  Ladder rows (param1 = r_j, param2 = s_j) grade the structural
    identity, every rung on one batch.  The summary row (param1 = param2 = 0)
    grades the finest rung, with 3 sigma + 3% slack, against its exact
    expectation [V(A_{r+s}) - V(A_r)]/s when the set's enlargements have
    closed-form measures; this shell value sits below the boundary mass by
    a bias of order (n-1)/p (r + s/2), which alone made the row FAIL on a
    few seeds.  Without closed-form measures the row falls back to the
    analytic boundary mass, and without that to the Monte Carlo content of
    the batch.  constants["reference"] is that boundary value in every case.
    """
    params = PBallParams(p, n)
    if r <= 0.0 or s <= 0.0:
        raise ValueError("enlargement offsets r, s must be positive")
    name = "check_functional_equivalence"
    rungs = [DistanceRamp(set_, n, r * 4 ** j, s * 2 ** j) for j in (3, 2, 1, 0)]
    reference = set_.analytic_boundary(params)

    def per_point(X):
        # per rung |grad phi|_2, then A's scalar when the reference is the
        # batch's own content
        out = [lp_norm(phi.grad(X), 2.0) for phi in rungs]
        return out + ([set_.scalar(X)] if reference is None else [])

    cols = map_row_blocks(per_point, _ball_stream(params, count, seed, 0),
                          count)
    reports = []
    for phi, norms in zip(rungs, cols):
        lhs = integrate_grad(norms)
        # the gradient, -grad dist / s, is nonzero exactly on the shell
        # r < dist < r + s, almost everywhere
        shell = float((norms > 0.0).mean()) / phi.s
        reports.append(_row(name, p, n, phi.r, phi.s, lhs, shell,
                            verdict_geq(lhs, shell, "consistent")))
    # the loop ends on j = 0: lhs is the finest rung's
    final = lhs
    if reference is None:
        ce, = content_from_batch(cols[-1], [set_.threshold],
                                 default_eps_ladder(p, n))
        reference = ce.extrapolated.mean
    inner = set_.enlarged(r).analytic_measure(params)
    outer = set_.enlarged(r + s).analytic_measure(params)
    target = reference if inner is None or outer is None else (outer - inner) / s
    gap = abs(final.mean - target)
    ok = gap <= 3.0 * final.std_err + 0.03 * target
    reports.append(_row(name, p, n, 0.0, 0.0, final, target,
                        PASS if ok else FAIL))
    return CheckReport(name, tuple(reports), {"limit": final.mean,
                                              "reference": float(reference)})


def _dyadic_sum(p: float, a: float) -> float:
    # sum over 1 <= i <= ceil(log2(1/a)) of 2^i (i ln 2)^{-(2-2/p)}
    top = int(math.ceil(math.log2(1.0 / a)))
    expo = 2.0 - 2.0 / p
    return float(sum(2.0 ** i / (i * math.log(2.0)) ** expo
                     for i in range(1, top + 1)))


def check_l2_form(p: float, n: int, a_grid, count: int, seed: int) -> CheckReport:
    """Dirichlet energy of the plateau ramp against the dyadic lower bound.

    For each a < 1/2, phi ramps from the median hyperplane to the level-a
    quantile, so V{phi = 0} = 1/2 and V{phi = 1} = a.  lhs is the Monte
    Carlo integral of |grad phi|^2 over one batch shared by all levels;
    rhs chains the fitted profile constant through the dyadic
    decomposition: rhs = c_hat^2 n^{2/p} / S(a) with S(a) the dyadic sum.
    Each level implies c1 = lhs / [n^{2/p} a log^{2-2/p}(1/a)], and
    c1_hat is their minimum.  Rows: param1 = a.
    """
    params = PBallParams(p, n)
    grid = [float(a) for a in a_grid]
    if not grid or any(not 0.0 < a < 0.5 for a in grid):
        raise ValueError("no plateau field with zero-set mass >= 1/2 "
                         "for levels outside (0, 1/2)")
    c_hat = check_theorem1(p, n, grid).constants["c_hat"]
    xi = np.zeros(n)
    xi[0] = 1.0
    name = "check_l2_form"
    ramps = [LinearRamp(xi, 0.0, float(marginal_isf(params, a))) for a in grid]
    norms = map_row_blocks(
        lambda X: [lp_norm(phi.grad(X), 2.0) for phi in ramps],
        _ball_stream(params, count, seed, 0), count)
    reports = []
    fitted = []
    for a, phi, col in zip(grid, ramps, norms):
        lhs = integrate_grad(col, power=2)
        rhs = c_hat ** 2 * n ** (2.0 / p) / _dyadic_sum(p, a)
        fitted.append(lhs.mean / (n ** (2.0 / p) * a
                                  * math.log(1.0 / a) ** (2.0 - 2.0 / p)))
        reports.append(_row(name, p, n, a, 0.0, lhs, rhs,
                            verdict_geq(lhs, rhs, "strict")))
    return CheckReport(name, tuple(reports),
                       {"c1_hat": min(fitted), "c_from_profile": c_hat})


# ---------------------------------------------------------------------------
# the cut-off chain
# ---------------------------------------------------------------------------

def _validate_big_c(big_c) -> float:
    # a = exp(-big_c n^{p/2}) is a small probability only for big_c > 0
    big_c = float(big_c)
    if not (math.isfinite(big_c) and big_c > 0.0):
        raise ValueError(f"big_c must be finite and positive, got {big_c!r}")
    return big_c


def verify_cutoff_chain(p: float, n: int, f=None,
                        c: CutoffParams = CutoffParams(),
                        count: int = 10 ** 4, seed: int = 0,
                        big_c: float = 4.0) -> CheckReport:
    """Grade every link of the localization chain on one product batch.

    With h1 the large-|x|_2 cut-off on the ball, h2 the small-|z|_p cut-off
    on the product space, g = (f h1) o T and kappa = (2-p)/(2p):

      link 1:  int |grad f| dV >= int |grad(f h1)| dV
                                   - c1 n^kappa V{|x|_2 >= 1/(c1 n^kappa)}
      link 2:  int |grad(f h1)| dV >= c3 int |grad g| |z|_p dmu,
               c3 = c1/(c1 + 2)
      link 3:  int |grad g| |z|_p dmu >= (n^{1/p}/c2) int |grad(g h2)| dmu
                                   - 2 n^kappa mu{|z|_p <= 2 n^{1/p}/c2}
      link 4:  links 2 + 3 combined with c4 = c3/c2
      link 5:  int |grad f| dV >= c4 n^{1/p} int |grad(g h2)| dmu - a/2,
               a = exp(-C n^{p/2}) with C = big_c, finite and positive

    Links 1-4 hold pointwise almost everywhere, so their same-batch
    difference estimators are nonnegative samplewise and the strict verdict
    is decisive even at equality; link 5 is graded on the mean.  Extra rows:
    param1 = 6 the plateau mass mu{g h2 = 1} >= a/2, param1 = 7 the zero
    mass mu{g h2 = 0} >= 1/2, param1 = 8 the pointwise gradient transfer
    |grad g(z)| <= |D*T(z)| |grad(f h1)(T z)| on up to 10^4 points (PASS
    only with zero violations).

    Ball integrals read X = T(Z) of the product batch Z, exactly uniform
    on B_p^n (Barthe, Guedon, Mendelson and Naor).  f is a field on R^n
    with ``value_and_grad`` (see ``fields``), by default a ramp along the
    first coordinate; like every field it must be row-wise.  Each field is
    evaluated once per point: the chain's own |z|_p gives T(Z), g and g h2
    are assembled from the factor passes.  Z is streamed
    (``product_blocks``, at most BLOCK_ROWS * 4 values per block) and never
    held: each block's link differences and flags go into per-point
    columns, from which the means and counts are taken, and the Jacobian
    scan runs on the first 10^4 rows as they stream past.
    """
    params = PBallParams(p, n)
    big_c = _validate_big_c(big_c)
    if f is None:
        xi = np.zeros(n)
        xi[0] = 1.0
        f = LinearRamp(xi, 0.0, float(marginal_isf(params, 0.2)))
    h1 = CutoffH1Field(p, n, c)
    h2 = CutoffH2Field(p, n, c)

    kappa = _kappa(p)
    slope1 = c.c1 * n ** kappa
    c3 = c.c1 / (c.c1 + 2.0)
    c4 = c3 / c.c2
    a_level = math.exp(-big_c * n ** (p / 2.0))
    scale2 = 2.0 * n ** (1.0 / p) / c.c2
    m = min(count, 10 ** 4)

    def scanned(stream):
        # the Jacobian scan's operator norms ride along with the first m rows
        for lo, Zb in stream:
            ops = jacobian_op_norms(Zb[:m - lo], p)[0] if lo < m else np.empty(0)
            yield lo, (Zb, ops)

    def per_point(Zb, ops):
        # f, h1 and h2 are each evaluated once per point; f h1, its
        # push-forward g and g h2 are formed from those passes with the
        # arithmetic of ProductField and PushForwardField, which gives the
        # same bits as the composed fields.  T(Z) shares the one |z|_p pass.
        nzp = lp_norm(Zb, p)
        XT = Zb[:, :-1] / nzp[:, None]
        fv, fg = f.value_and_grad(XT)
        f_one = fv >= 1.0 - 1e-12
        gf_T = lp_norm(fg, 2.0)
        gv, fg = product_value_and_grad((fv, fg), h1.value_and_grad(XT))
        gfh1_T = lp_norm(fg, 2.0)
        gg_rows = push_forward_grad(Zb, XT, nzp, fg, p)
        plateau, gh2_rows = product_value_and_grad((gv, gg_rows),
                                                   h2.value_and_grad(Zb))
        gg, ggh2 = lp_norm(gg_rows, 2.0), lp_norm(gh2_rows, 2.0)
        err1 = slope1 * (lp_norm(XT, 2.0) >= 1.0 / slope1)
        err2 = 2.0 * n ** kappa * (nzp <= scale2)
        d2 = gfh1_T - c3 * gg * nzp
        d3 = gg * nzp - (n ** (1.0 / p) / c.c2) * ggh2 + err2
        transfer_rhs = ops * gfh1_T[:ops.size]
        bad = np.zeros(nzp.size, dtype=bool)
        bad[:ops.size] = gg[:ops.size] > transfer_rhs + 1e-9 * (1.0 + transfer_rhs)
        return (gf_T - gfh1_T + err1, d2, d3, d2 + c3 * d3,
                gf_T - c4 * n ** (1.0 / p) * ggh2 + 0.5 * a_level,
                plateau >= 1.0 - 1e-12, plateau <= 1e-12, f_one, bad)

    # the product batch is streamed block by block (fields are row-wise),
    # so only one block of it and of its gradient rows is alive; the rows
    # read these columns: the five link differences, then four flags
    *diffs, plateau_one, plateau_zero, f_one, transfer_bad = map_row_blocks(
        per_point, scanned(product_blocks(params, count, child_seed(seed, 1))),
        count)

    name = "verify_cutoff_chain"
    reports = []
    for link, diff in enumerate(diffs, start=1):
        est = mean_ci(diff)
        reports.append(_row(name, p, n, link, 0.0, est, 0.0,
                            verdict_geq(est, 0.0, "strict")))

    m_one = bernoulli_ci(int(plateau_one.sum()), count)
    m_zero = bernoulli_ci(int(plateau_zero.sum()), count)
    reports.append(_row(name, p, n, 6, 0.0, m_one, 0.5 * a_level,
                        verdict_geq(m_one, 0.5 * a_level, "strict")))
    reports.append(_row(name, p, n, 7, 0.0, m_zero, 0.5,
                        verdict_geq(m_zero, 0.5, "strict")))

    bad = int(transfer_bad.sum())
    reports.append(_row(name, p, n, 8, 0.0, bernoulli_ci(bad, m), 0.0,
                        PASS if bad == 0 else FAIL))

    v_f1 = float(f_one.mean())
    # the plateau mass has a closed form: T(z) and |z|_p are independent,
    # and |z|_p^p is Gamma(n/p + 1, 1)
    plateau_oracle = v_f1 * float(special.gammaincc(n / p + 1.0, scale2 ** p))
    constants = {
        "c3": c3,
        "c4": c4,
        "plateau_target": 0.5 * a_level,
        "plateau_oracle": plateau_oracle,
        "transfer_violations": bad,
    }
    return CheckReport(name, tuple(reports), constants)


# ---------------------------------------------------------------------------
# isotropic rescaling: KLS-type and Euclidean-tail bounds
# ---------------------------------------------------------------------------

class IsotropyConstants(NamedTuple):
    c_np: float
    l_k: float


def isotropy_constants(p: float, n: int) -> IsotropyConstants:
    """Rescaling factor C(n,p) = Vol(B_p^n)^{-1/n} and isotropic constant.

    C(n,p) B_p^n has volume 1; its covariance is (C(n,p) sigma)^2 I with
    sigma^2 the marginal second moment, so L_K = C(n,p) sigma.
    """
    sigma2 = marginal_second_moment(PBallParams(p, n))
    c_np = math.exp(-ball_log_volume(p, n) / n)
    return IsotropyConstants(float(c_np), float(c_np * math.sqrt(sigma2)))


def check_kls(p: float, n: int, a_grid) -> CheckReport:
    """Half-space Cheeger ratios on the isotropically rescaled ball vs a/L_K.

    Exact oracle: rescaling by C(n,p) divides boundary mass by C(n,p), so
    lhs = f(t_a)/C(n,p), f(t_a) = ``marginal_level_density(a)``, and the
    ratio sigma f(t_a)/a is scale-invariant.  Rows: param1 = a; fitted c0_hat = min ratio.
    """
    params = PBallParams(p, n)
    grid = _validate_levels(a_grid, "a_grid")
    c_np, l_k = isotropy_constants(p, n)
    name = "check_kls"
    reports = []
    ratios = []
    for a in grid:
        lhs = marginal_level_density(params, a) / c_np
        rhs = a / l_k
        ratios.append(lhs / rhs)
        reports.append(_row(name, p, n, a, 0.0, EstimateCI.exact(lhs), rhs,
                            PASS if lhs > 0.0 else FAIL))
    return CheckReport(name, tuple(reports),
                       {"c0_hat": min(ratios), "l_k": l_k, "c_np": c_np})


def check_paouris_tail(p: float, n: int, t_grid, count: int,
                       seed: int) -> CheckReport:
    """Euclidean-norm tail on the rescaled ball vs exp(-c t / L_K).

    t_grid holds quantile levels; thresholds below the regime floor
    t0 L_K sqrt(n) (t0 = 0.8) carry no claim and stay INCONCLUSIVE.
    c_hat = min over eligible thresholds of L_K (-log P^)/t.
    Rows: param1 = t, param2 = 1 when t is in regime.
    """
    params = PBallParams(p, n)
    levels = _quantile_levels(t_grid, "t_grid")
    c_np, l_k = isotropy_constants(p, n)

    def radii(child):
        return map_row_blocks(lambda X: (lp_norm(X * c_np, 2.0),),
                              _ball_stream(params, count, seed, child),
                              count)[0]

    thresholds = np.quantile(radii(0), levels)
    tails = estimate_tail(radii(1), thresholds)
    t_min = PAOURIS_T0 * l_k * math.sqrt(n)
    slopes = [l_k * (-math.log(est.mean)) / t
              for t, est, rare in tails
              if not rare and t >= t_min and 0.0 < est.mean < 1.0]
    c_hat = min(slopes) if slopes else None
    name = "check_paouris_tail"
    reports = []
    for t, est, rare in tails:
        in_range = 1.0 if t >= t_min else 0.0
        if rare or not in_range or c_hat is None:
            reports.append(_row(name, p, n, t, in_range, est, 0.0,
                                INCONCLUSIVE))
            continue
        rhs = math.exp(-c_hat * t / l_k)
        reports.append(_row(name, p, n, t, in_range, est, rhs,
                            verdict_leq(est, rhs, "consistent")))
    return CheckReport(name, tuple(reports),
                       {"c_hat": c_hat, "l_k": l_k, "c_np": c_np,
                        "t_min": t_min})
