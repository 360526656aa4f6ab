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
* the (p, n) cell is the unit of sampled work: a sampled check is a
  ``CellPlan``, and ``run_cell`` runs the plans of one cell on two
  streams, a grading stream read by every row and a held-out stream that
  only thresholds and the co-area radial radii are placed on.  Each
  stream yields product rows Z beside their ball points X = T(Z), exactly
  uniform on B_p^n (Barthe, Guedon, Mendelson and Naor), from one draw,
  and is seeded by ``cell_seed(seed, p, n, role)`` alone.  Count and
  seed reach a check only through ``run_cell``: no plan takes them, and a
  plan reads no rows but those its passes hand it.  So a check's rows do
  not depend on which other checks share its cell, and a public
  ``check_*(..., count, seed)`` is a cell of its one plan.  The exact
  checks (check_product_isoperimetry, check_lemma5, check_kls, and
  check_theorem1 on its default sets) draw nothing, nor do the default
  Bobkov and Barthe cells at p = 2.  Reports are reproducible bit for bit;
* a set's boundary content is its closed form (``analytic_boundary``)
  where it has one; only a set without one is estimated, by extrapolating
  its enlargement quotients on ``default_eps_ladder`` (``_Contents``);
* summaries, never batches: a cell reads each stream block by block and
  folds every block into what its plans keep.  The held-out pass keeps
  columns, sorted once, because the thresholds placed on it are order
  statistics.  The grading pass keeps per-block summaries (see
  ``montecarlo``): integer counts at thresholds fixed before it
  (``Tally``: content rungs, tails, set and ball masses, Lemma 4), in
  flags (the chain's plateau and Jacobian-scan counts) or on a ramp
  (``RampSum``: the gradient masses of the co-area, functional-equivalence
  and L2-form ramps), and moments merged in row order (``MomentSum``: the
  chain's links).  So a cell's memory does not grow with its count but
  for the two held-out columns, |x|_2 and the sz-concentration
  functional, and one preallocated grading column, the functional again:
  its median is an order statistic of the grading stream, and placing it
  on the held-out stream instead would make each h = 0 row a test at
  about 2 sigma;
* one scalar per point: a value several plans read is computed once per
  block (``CellBlock``), and every per-point quantity is a function of
  such scalars, so the grading pass forms no gradient row.  A ramp's
  |grad phi| is its slope on the ramp and 0 elsewhere
  (``grad_norm_from_scalar``), so its gradient mass is its slope times
  the share of points on the ramp, read off its sets' scalar
  (``on_ramp``); the chain's gradient norms are closed forms in six
  scalars per point (``cutoff_chain_norms``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import _special as special
from . import measures1d
from .fields import (
    CUTOFF_C1,
    CUTOFF_C2,
    CutoffH1Field,
    CutoffH2Field,
    DistanceRamp,
    LinearRamp,
    RadialRamp,
    functional_catalog,
)
from .geometry import (
    BallComplement,
    PBallParams,
    ball_log_volume,
    coordinate_half_space,
    jacobian_op_norms,
    kappa,
    lp_dual,
    map_row_blocks,
    marginal_isf,
    marginal_level_density,
    marginal_second_moment,
    pow_p,
    row_sum,
)
from .montecarlo import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    EstimateCI,
    MomentSum,
    RampSum,
    Tally,
    bernoulli_ci,
    content_from_batch,
    content_tally,
    estimate_measure,
    estimate_median_and_phi,
    estimate_tail,
    integrate_grad,
    mean_ci,
    verdict_geq,
    verdict_leq,
)
from .sampling import product_ball_blocks

__all__ = [
    "InequalityReport",
    "CheckReport",
    "CellPlan",
    "CellBlock",
    "GRADING",
    "HELD_OUT",
    "cell_seed",
    "run_cell",
    "ConcentrationCurve",
    "IsotropyConstants",
    "default_eps_ladder",
    "theorem1_rhs",
    "check_theorem1",
    "theorem1_plan",
    "check_product_isoperimetry",
    "check_bobkov_inequality",
    "bobkov_plan",
    "check_barthe_dimensional",
    "barthe_plan",
    "check_sz_tail",
    "sz_tail_plan",
    "check_sz_concentration",
    "sz_concentration_plan",
    "concentration_from_isoperimetry",
    "concentration_report",
    "check_lemma4",
    "lemma4_plan",
    "lemma5_constant",
    "check_lemma5",
    "check_coarea",
    "coarea_plan",
    "check_functional_equivalence",
    "functional_equivalence_plan",
    "check_l2_form",
    "l2_form_plan",
    "verify_cutoff_chain",
    "cutoff_chain_plan",
    "cutoff_chain_norms",
    "isotropy_constants",
    "isotropy_report",
    "check_kls",
    "check_paouris_tail",
    "paouris_tail_plan",
]

# advisory lower end of the tail regime, in units of n^{-(2-p)/(2p)}
SZ_T0 = 2.0
# Euclidean-norm tail threshold floor, in units of L_K sqrt(n)
PAOURIS_T0 = 0.8
# ladder of candidate constants for the two small-probability bounds
LEMMA4_LADDER = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)
# leading grading rows of the chain's pointwise gradient-transfer scan
TRANSFER_ROWS = 10 ** 4
# C of the chain's small probability a = exp(-C n^{p/2})
CHAIN_C = 4.0
# leading grading rows of the Lipschitz spot check of check_sz_concentration
LIPSCHITZ_ROWS = 200


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
    scale = n ** -kappa(p)
    return [m * scale for m in (0.1, 0.05, 0.02, 0.01)]


def _scalar_key(set_) -> tuple:
    """Sets with one key threshold one scalar: the same type and the same
    direction, if they have one."""
    return type(set_), getattr(set_, "xi", np.empty(0)).tobytes()


def scalar_groups(sets) -> list:
    """Indices of ``sets`` grouped by the one scalar each thresholds, in
    order of first appearance; the sets of a group share one tally and
    one ``content_from_batch`` call."""
    groups = {}
    for k, set_ in enumerate(sets):
        groups.setdefault(_scalar_key(set_), []).append(k)
    return list(groups.values())


# ---------------------------------------------------------------------------
# the (p, n) cell: two streams, the passes over them, and the plans
# ---------------------------------------------------------------------------

# roles of a cell's streams
GRADING, HELD_OUT = 0, 1


def cell_seed(seed: int, p: float, n: int, role: int) -> int:
    """64-bit seed of the (p, n) cell's stream in ``role``, keyed by
    (seed, p, n, role) alone."""
    p_bits = int(np.float64(p).view(np.uint64))
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(p_bits, int(n), role))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


class CellBlock:
    """Rows lo, lo + 1, ... of a cell stream: product rows Z, their ball
    points X = T(Z) and norms zp = |z|_p from the draw, and the per-row
    values several plans read, each computed once per block."""

    def __init__(self, lo: int, Z: np.ndarray, X: np.ndarray, zp: np.ndarray):
        self.lo, self.Z, self.X, self.zp = lo, Z, X, zp
        self._scalars = {}
        self._sorted = {}

    def __len__(self) -> int:
        return self.X.shape[0]

    def scalar(self, set_) -> np.ndarray:
        """``set_.scalar(X)``: one array for all the sets sharing it."""
        key = _scalar_key(set_)
        if key not in self._scalars:
            self._scalars[key] = set_.scalar(self.X)
        return self._scalars[key]

    def sorted(self, set_) -> np.ndarray:
        """``scalar(set_)`` sorted, for every tally that counts it."""
        key = _scalar_key(set_)
        if key not in self._sorted:
            self._sorted[key] = np.sort(self.scalar(set_))
        return self._sorted[key]

    @property
    def norm2(self) -> np.ndarray:
        """|x|_2, the scalar of every ball complement."""
        return self.scalar(BallComplement(1.0))

    @property
    def sorted_norm2(self) -> np.ndarray:
        """|x|_2 sorted."""
        return self.sorted(BallComplement(1.0))


def _norm2(b: CellBlock) -> tuple:
    return (b.norm2,)


class CellPlan(NamedTuple):
    """A sampled check's work on one (p, n) cell, run by ``run_cell``.

    ``held_out`` holds functions of a held-out CellBlock, each returning a
    sequence of per-row values.  ``grading`` takes their columns, one per
    value in order, each sorted (a held-out column only places thresholds,
    at its order statistics), and returns the plan's ``fold`` and
    ``report``: ``fold`` takes the grading CellBlocks in row order and
    folds each into the plan's summaries (None when the plan reads no
    grading rows), and ``report()`` makes the check's CheckReport from
    them.  ``grading`` makes new summaries at each call, so a plan can run
    on any number of cells.
    """

    held_out: tuple
    grading: Callable


def _cell_pass(params: PBallParams, count: int, seed: int, role: int):
    """The CellBlocks of one pass over the cell's stream in ``role``."""
    stream = product_ball_blocks(params, count,
                                 cell_seed(seed, params.p, params.n, role))
    return (CellBlock(lo, Z, X, zp) for lo, (Z, X, zp) in stream)


def _held_out_columns(params: PBallParams, count: int, seed: int,
                      plan_columns: list) -> list:
    """Per plan, the columns of its held-out functions from one
    ``map_row_blocks`` pass over the cell's held-out stream, which is
    drawn only when some plan has a function, each sorted once: plans
    read order statistics off them.  An array that several functions
    return for a block, such as a shared set scalar, is one column."""
    if not any(plan_columns):
        return [[] for _ in plan_columns]
    layout = []

    def union(block):
        values, slot, block_layout = [], {}, []
        for fns in plan_columns:
            slots = []
            for fn in fns:
                for v in fn(block):
                    if id(v) not in slot:
                        slot[id(v)] = len(values)
                        values.append(v)
                    slots.append(slot[id(v)])
            block_layout.append(slots)
        if not layout:
            layout.extend(block_layout)
        elif block_layout != layout:
            raise ValueError("a block shares its columns unlike the first")
        return values

    blocks = _cell_pass(params, count, seed, HELD_OUT)
    cols = map_row_blocks(union, ((b.lo, b) for b in blocks), count)
    for col in cols:
        col.sort()
    return [[cols[k] for k in slots] for slots in layout]


def run_cell(p: float, n: int, plans, count: int, seed: int) -> list:
    """The CheckReport of each of ``plans`` on the (p, n) cell, every
    stream count points long.

    One pass over the held-out stream fills every plan's sorted held-out
    columns, which its ``grading`` turns into thresholds, a fold and a
    report; one pass over the grading stream hands each block to
    every fold in turn, and each report is made from its plan's
    summaries.  A stream no plan reads is not drawn, so a cell of exact
    checks draws nothing.
    """
    params = PBallParams(p, n)
    held = _held_out_columns(params, count, seed,
                             [plan.held_out for plan in plans])
    graded = [plan.grading(cols) for plan, cols in zip(plans, held)]
    held = None     # the plans keep what they took from it
    folds = [fold for fold, _ in graded if fold is not None]
    if folds:
        for block in _cell_pass(params, count, seed, GRADING):
            for fold in folds:
                fold(block)
    return [report() for _, report in graded]


def _one_plan_cell(p: float, n: int, plan: CellPlan, count: int,
                   seed: int) -> CheckReport:
    return run_cell(p, n, [plan], count, seed)[0]


class _Contents:
    """The boundary content of each of ``sets`` on the ball of ``params``:
    its closed form (``analytic_boundary``) where it has one, else the
    ``default_eps_ladder`` extrapolation of a content tally per scalar
    those sets share (``scalar_groups``), folded from the grading blocks."""

    def __init__(self, params: PBallParams, sets):
        self.sets = sets
        self.ladder = default_eps_ladder(params.p, params.n)
        self.exact = [set_.analytic_boundary(params) for set_ in sets]
        groups = ([k for k in group if self.exact[k] is None]
                  for group in scalar_groups(sets))
        self.groups = [group for group in groups if group]
        self.tallies = [content_tally([sets[k].threshold for k in group],
                                      self.ladder) for group in self.groups]

    def add(self, block: CellBlock) -> None:
        for group, tally in zip(self.groups, self.tallies):
            tally.add_sorted(block.sorted(self.sets[group[0]]))

    def tally(self, k: int) -> Tally:
        """The tally of set k's scalar; set k has no closed-form boundary."""
        return next(tally for group, tally in zip(self.groups, self.tallies)
                    if k in group)

    def estimates(self) -> list:
        """(lhs EstimateCI, inconclusive) per set: ``EstimateCI.exact`` of
        a closed form, never inconclusive, or the ladder's extrapolation
        and its empty-enlargement flag, one ``content_from_batch`` call
        per shared scalar."""
        out = [None if value is None else (EstimateCI.exact(value), False)
               for value in self.exact]
        for group, tally in zip(self.groups, self.tallies):
            ests = content_from_batch(
                tally, [self.sets[k].threshold for k in group], self.ladder)
            for k, est in zip(group, ests):
                out[k] = est.extrapolated, est.inconclusive
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
    ``sets`` (a list of (label, a -> TestSet) families) also record whether
    coordinate half-spaces attain the family minimum (within CI) at each
    level; a set's content is its closed form where it has one, else the
    ladder estimate of the grading stream (``default_eps_ladder``).

    Rows: param1 = a, param2 = family index.
    """
    return _one_plan_cell(p, n, theorem1_plan(p, n, a_grid, sets), count,
                          seed)


def theorem1_plan(p: float, n: int, a_grid, sets=None) -> CellPlan:
    """The plan of ``check_theorem1``."""
    params = PBallParams(p, n)
    grid = _validate_levels(a_grid, "a_grid")
    families = sets
    if families is None:
        families = [("coordinate", lambda a: coordinate_half_space(params, a))]
    name = "check_theorem1"
    level_sets = [family(a) for a in grid for _, family in families]

    def grading(held):
        contents = _Contents(params, level_sets)
        fold = contents.add if contents.tallies else None
        return fold, lambda: report(contents.estimates())

    def report(estimates) -> CheckReport:
        reports = []
        ratios = []
        argmin_hits = 0
        for k, a in enumerate(grid):
            rhs = theorem1_rhs(p, n, a)
            level_rows = []
            row = estimates[k * len(families):(k + 1) * len(families)]
            for fi, (lhs, inconclusive) in enumerate(row):
                if inconclusive:
                    verdict = INCONCLUSIVE
                elif lhs.std_err == 0.0:  # a closed form
                    verdict = PASS if lhs.mean > 0.0 else FAIL
                else:
                    verdict = verdict_geq(lhs, 0.0, "strict")
                ratios.append(lhs.mean / rhs)
                level_rows.append(_row(name, p, n, a, fi, lhs, rhs, verdict))
            if len(families) > 1:
                # coordinate family is near-extremal: record whether any
                # family confidently undercuts family 0 at this level
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

    return CellPlan((), grading)


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


def _ball_mass(norms: Optional[Tally], params: PBallParams,
               r: float) -> float:
    """V{|x|_2 <= r}: exact for p = 2, otherwise empirical from a Tally of
    the grading stream's Euclidean norms at r (which p = 2 does not need,
    and may pass as None)."""
    if params.p == 2.0:
        return min(r, 1.0) ** params.n if r > 0.0 else 0.0
    return int(norms.at_most(r)) / norms.count


def _radii(r_grid) -> list:
    radii = [float(r) for r in r_grid]
    if not radii or any(not r > 0.0 for r in radii):
        raise ValueError("r_grid entries must be positive")
    return radii


def _enlargement_plan(name: str, p: float, n: int, sets, r_grid,
                      dimensional: bool) -> CellPlan:
    params = PBallParams(p, n)
    r_grid = _radii(r_grid)

    def grading(held):
        # tallies of the sets' scalars where they have no closed form, and
        # of |x|_2 unless p = 2, where the ball masses are exact
        contents = _Contents(params, sets)
        norms = None if p == 2.0 else Tally(r_grid)

        def fold(b):
            contents.add(b)
            if norms is not None:
                norms.add_sorted(b.sorted_norm2)

        drawn = contents.tallies or norms is not None
        return (fold if drawn else None), lambda: report(contents, norms)

    def report(contents, norms) -> CheckReport:
        masses = [_ball_mass(norms, params, r) for r in r_grid]
        reports = []
        slacks = []
        for k, (set_, (lhs, inconclusive)) in enumerate(
                zip(sets, contents.estimates())):
            # a set with a closed-form boundary has a closed-form measure
            a = set_.analytic_measure(params)
            if a is None:
                a = estimate_measure(contents.tally(k), set_.threshold).mean
            for r, mass in zip(r_grid, masses):
                if mass <= 0.0:
                    reports.append(_row(name, p, n, r, a, lhs, 0.0,
                                        INCONCLUSIVE))
                    continue
                if dimensional:
                    beta = 1.0 - 1.0 / n
                    rhs = (n / (2.0 * r)) * (
                        (a ** beta + (1.0 - a) ** beta) * mass ** (1.0 / n)
                        - 1.0)
                else:
                    rhs = (_entropy_term(a) + math.log(mass)) / (2.0 * r)
                verdict = (INCONCLUSIVE if inconclusive
                           else verdict_geq(lhs, rhs, "consistent"))
                if rhs > 0.0:
                    slacks.append(lhs.mean / rhs)
                reports.append(_row(name, p, n, r, a, lhs, rhs, verdict))
        constants = {"min_slack": min(slacks)} if slacks else {}
        return CheckReport(name, tuple(reports), constants)

    return CellPlan((), grading)


def check_bobkov_inequality(p: float, n: int, sets, r_grid,
                            count: int, seed: int) -> CheckReport:
    """Boundary content against the log-concave enlargement bound

        content(A) >= (1/2r)[a log(1/a) + (1-a) log(1/(1-a)) + log V{|x|_2 <= r}].

    ``sets`` is a list of test sets; a set's content is its closed form
    where it has one, else the ladder estimate of the grading stream.
    Rows: param1 = r, param2 = the set's measure a; verdicts are
    consistency-graded (the bound can be met with equality up to noise).
    A vanishing ball-mass estimate makes the row INCONCLUSIVE.
    """
    return _one_plan_cell(p, n, bobkov_plan(p, n, sets, r_grid), count, seed)


def bobkov_plan(p: float, n: int, sets, r_grid) -> CellPlan:
    """The plan of ``check_bobkov_inequality``."""
    return _enlargement_plan("check_bobkov_inequality", p, n, sets, r_grid,
                             False)


def check_barthe_dimensional(p: float, n: int, sets, r_grid,
                             count: int, seed: int) -> CheckReport:
    """Dimensional refinement of the enlargement bound,

        content(A) >= (n/2r){[a^{1-1/n} + (1-a)^{1-1/n}] V{|x|_2<=r}^{1/n} - 1}.

    Same row layout and grading as check_bobkov_inequality.
    """
    return _one_plan_cell(p, n, barthe_plan(p, n, sets, r_grid), count, seed)


def barthe_plan(p: float, n: int, sets, r_grid) -> CellPlan:
    """The plan of ``check_barthe_dimensional``."""
    return _enlargement_plan("check_barthe_dimensional", p, n, sets, r_grid,
                             True)


# ---------------------------------------------------------------------------
# norm tails and Lipschitz concentration
# ---------------------------------------------------------------------------

def _quantile_levels(t_grid, where: str) -> list:
    levels = [float(q) for q in t_grid]
    if not levels or any(not 0.0 < q < 1.0 for q in levels):
        raise ValueError(f"{where} entries are quantile levels in (0, 1)")
    return levels


def _sorted_quantiles(s: np.ndarray, levels) -> list:
    """``np.quantile(s, levels)`` (numpy's linear method) of a sorted
    column, read off its order statistics, bit for bit."""
    top = s.size - 1
    out = []
    for q in levels:
        v = top * q
        i = math.floor(v)
        g = v - i
        lo, hi = float(s[i]), float(s[min(i + 1, top)])
        d = hi - lo
        out.append(hi - d * (1.0 - g) if g >= 0.5 else lo + d * g)
    return out


def check_sz_tail(p: float, n: int, t_grid, count: int, seed: int) -> CheckReport:
    """Euclidean-norm tail P{|x|_2 >= t} against exp(-c n t^p).

    t_grid holds quantile levels in (0, 1); absolute thresholds are placed
    at those empirical quantiles of the held-out stream, which keeps every
    tail estimate strictly inside (0, 1) across all (p, n).  c_hat is the
    largest constant consistent with every non-rare threshold, i.e. the
    minimum of -log P^ / (n t^p).  Rows: param1 = t, param2 = 1 when t is
    inside the advisory regime t >= 2 n^{-(2-p)/(2p)}.
    """
    return _one_plan_cell(p, n, sz_tail_plan(p, n, t_grid), count, seed)


def sz_tail_plan(p: float, n: int, t_grid) -> CellPlan:
    """The plan of ``check_sz_tail``."""
    PBallParams(p, n)
    levels = _quantile_levels(t_grid, "t_grid")
    name = "check_sz_tail"
    t_lo = SZ_T0 * n ** -kappa(p)

    def grading(held):
        thresholds = _sorted_quantiles(held[0], levels)
        norms = Tally(thresholds)

        def report() -> CheckReport:
            tails = estimate_tail(norms, thresholds)
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
                    reports.append(_row(name, p, n, t, in_range, est, 0.0,
                                        INCONCLUSIVE))
                    continue
                if t <= 0.0:
                    reports.append(_row(name, p, n, t, in_range, est, 1.0,
                                        PASS))
                    continue
                rhs = math.exp(-c_hat * n * t ** p)
                reports.append(_row(name, p, n, t, in_range, est, rhs,
                                    verdict_leq(est, rhs, "consistent")))
            constants = {"c_hat": c_hat, "thresholds": thresholds}
            return CheckReport(name, tuple(reports), constants)

        return (lambda b: norms.add_sorted(b.sorted_norm2)), report

    return CellPlan((_norm2,), grading)


def check_sz_concentration(p: float, n: int, functional, t_grid,
                           count: int, seed: int) -> CheckReport:
    """Upper-tail curve of a 1-Lipschitz functional around its median,

        phi(h) = V{F > Med F + h}  vs  (1/2) exp(-c1 n h^p).

    ``functional`` is a catalog name or a catalog field.  t_grid holds
    quantile levels; offsets h are placed at (held-out quantile - held-out
    median), so the level 0.5 lands at h = 0 and grades the trivial
    phi(0) <= 1/2 row.  c1_hat = min over positive-offset rows of
    -log(2 phi^)/(n h^p).  Rows: param1 = h, param2 = 1 for rows entering
    the fit.

    Lipschitz continuity is the caller's promise.  The grading pass
    spot-checks it on consecutive row pairs within each block among the
    stream's first LIPSCHITZ_ROWS rows, which are iid, so those pairs are
    as random as any; a violation raises ValueError.
    """
    return _one_plan_cell(p, n, sz_concentration_plan(p, n, functional,
                                                      t_grid), count, seed)


def _lipschitz_spot_check(functional, X: np.ndarray, vals: np.ndarray):
    """Raise ValueError where F differs by more than its Lipschitz constant
    times |x - y|_2 between consecutive rows x, y of X; vals is F(X)."""
    lip = float(getattr(functional, "lipschitz_constant", 1.0))
    gaps = np.abs(np.diff(vals))
    dists = np.linalg.norm(np.diff(X, axis=0), axis=1)
    bad = gaps > lip * dists + 1e-9 * (1.0 + np.abs(vals[:-1]))
    if np.any(bad):
        w = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"functional violates its Lipschitz constant {lip}: "
            f"|df| = {float(gaps[w])!r} over |dx| = {float(dists[w])!r}")


def sz_concentration_plan(p: float, n: int, functional, t_grid) -> CellPlan:
    """The plan of ``check_sz_concentration``."""
    PBallParams(p, n)
    if isinstance(functional, str):
        functional = functional_catalog(functional, n)
    levels = _quantile_levels(t_grid, "t_grid")
    name = "check_sz_concentration"

    def values(b):
        return (functional(b.X),)

    def grading(held):
        vals, = held
        if vals[0] == vals[-1]:
            raise ValueError("functional is constant on the sample; "
                             "no concentration to measure")
        # np.median of the sorted column
        med0 = 0.5 * float(vals[(vals.size - 1) // 2] + vals[vals.size // 2])
        h_grid = [q - med0 for q in _sorted_quantiles(vals, levels)]

        # the grading column of F, for its median (an order statistic);
        # the grading stream is as long as the held-out one
        column = np.empty(vals.size)

        def fold(b):
            F = functional(b.X)
            head = LIPSCHITZ_ROWS - b.lo
            if head > 1:
                _lipschitz_spot_check(functional, b.X[:head], F[:head])
            column[b.lo:b.lo + len(b)] = F

        def report() -> CheckReport:
            _, curve = estimate_median_and_phi(column, h_grid)
            slopes = []
            for h, est, rare in curve:
                if h > 0.0 and not rare and est.mean > 0.0:
                    slopes.append(-math.log(2.0 * est.mean) / (n * h ** p))
            c1_hat = min(slopes) if slopes else None
            reports = []
            for h, est, rare in curve:
                if rare:
                    reports.append(_row(name, p, n, h, 0.0, est, 0.0,
                                        INCONCLUSIVE))
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

        return fold, report

    return CellPlan((values,), grading)


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
    if not c > 0.0:
        raise ValueError("profile constant c must be positive")
    PBallParams(p, n)
    u_grid = np.asarray([float(u) for u in u_grid])
    if u_grid.size == 0 or not np.all((u_grid > 0.0) & (u_grid <= 0.5)):
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


def concentration_report(p: float, n: int, a_grid) -> CheckReport:
    """The deviation curve psi from the profile constant c_hat that
    ``check_theorem1`` fits on a_grid, at u = a_grid, as PASS rows (a
    curve over its bound raises instead).  Rows: param1 = u, lhs = psi(u),
    rhs = its closed-form bound."""
    c_hat = check_theorem1(p, n, a_grid).constants["c_hat"]
    curve = concentration_from_isoperimetry(c_hat, p, n, a_grid)
    name = "concentration_from_isoperimetry"
    rows = tuple(_row(name, p, n, u, 0.0, EstimateCI.exact(psi), bound, PASS)
                 for u, psi, bound in zip(curve.u_grid, curve.psi_numeric,
                                          curve.psi_closed_form))
    return CheckReport(name, rows, {"c_hat": c_hat})


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
    read the grading stream: the ball event its points x = T(z), exactly
    uniform on B_p^n, the product event their product rows z.
    """
    return _one_plan_cell(p, n, lemma4_plan(p, n), count, seed)


def lemma4_plan(p: float, n: int) -> CellPlan:
    """The plan of ``check_lemma4``."""
    PBallParams(p, n)
    name = "check_lemma4"
    # the events |x|_2 >= ball[k] and |z|_p <= prod[k], k along the ladder
    ball = [c2 * n ** -kappa(p) for c2 in LEMMA4_LADDER]
    prod = [n ** (1.0 / p) / c2 for c2 in LEMMA4_LADDER]

    def grading(held):
        norms2, normsp = Tally(ball), Tally(prod)

        def fold(b):
            norms2.add_sorted(b.sorted_norm2)
            normsp.add(b.zp)

        return fold, lambda: report(norms2.at_least(ball).tolist(),
                                    normsp.at_most(prod).tolist(),
                                    norms2.count)

    def report(ball_hits, prod_hits, count) -> CheckReport:
        reports = []
        ests = {}
        for c2, k_ball, k_prod in zip(LEMMA4_LADDER, ball_hits, prod_hits):
            e_ball = bernoulli_ci(k_ball, count)
            e_prod = bernoulli_ci(k_prod, count)
            ests[c2] = (e_ball, e_prod)
            target1 = math.exp(-1.0 * n ** (p / 2.0))
            for tag, est in ((0, e_ball), (1, e_prod)):
                verdict = PASS if est.hi <= target1 else INCONCLUSIVE
                reports.append(_row(name, p, n, c2, tag, est, target1,
                                    verdict))
        constants = {}
        for c1 in (1.0, 2.0):
            target = math.exp(-c1 * n ** (p / 2.0))
            good = [c2 for c2 in LEMMA4_LADDER
                    if ests[c2][0].hi <= target and ests[c2][1].hi <= target]
            constants[f"C2_for_C1={c1:g}"] = min(good) if good else None
        return CheckReport(name, tuple(reports), constants)

    return CellPlan((), grading)


def lemma5_constant(A: float, alpha: float) -> float:
    """C(A, alpha) = e/(1-alpha) * [A Gamma(1-alpha)]^{1/(1-alpha)}."""
    if not A > 0.0 or not 0.0 <= alpha < 1.0:
        raise ValueError("need A > 0 and alpha in [0, 1)")
    return float(math.e / (1.0 - alpha)
                 * (A * math.gamma(1.0 - alpha)) ** (1.0 / (1.0 - alpha)))


def check_lemma5(p: float, N: int, eps_grid) -> CheckReport:
    """Small-sum probability P{X_1 + ... + X_N <= N eps} vs [C(A,alpha) eps]^{(1-alpha)N}.

    The summands are the Gamma(1/p, 1) coordinate law, whose density is
    bounded by A x^{-alpha} with alpha = 1 - 1/p and A = 1/Gamma(1/p); p = 1
    is Exp(1).  Their sum is Gamma(N/p, 1), so every lhs is the exact
    gammainc(N/p, N eps) and nothing is drawn.  Each row is graded on the
    scale-free ratio lhs/bound <= 1, which the absolute tolerance floor of a
    direct comparison would pass at any bound below 1e-12; Chernoff's bound
    puts the ratio at or below exp(-N eps).  Rows: param1 = eps, param2 = 1
    when the bound is vacuous (>= 1); report n = N.
    """
    if not p >= 1.0:
        raise ValueError(f"need p >= 1, got {p!r}")
    if N < 1:
        raise ValueError("N must be positive")
    eps_grid = [float(e) for e in eps_grid]
    if any(not e > 0.0 for e in eps_grid):
        raise ValueError("eps grid must be positive")
    alpha = 1.0 - 1.0 / p
    c_bound = lemma5_constant(1.0 / math.gamma(1.0 / p), alpha)
    name = "check_lemma5"
    reports = []
    for eps in eps_grid:
        exact = special.gammainc(N / p, N * eps)
        # past double range the ratio keeps its direction: a bound that
        # overflows leaves 0, one that underflows under a positive lhs inf,
        # and both sides underflowing NaN (INCONCLUSIVE)
        with np.errstate(all="ignore"):
            bound = np.float64(c_bound * eps) ** (N / p)
            ratio = exact / bound
        verdict = verdict_leq(EstimateCI.exact(ratio), 1.0, "strict")
        reports.append(_row(name, p, N, eps, 1.0 if bound >= 1.0 else 0.0,
                            EstimateCI.exact(exact), bound, verdict))
    return CheckReport(name, tuple(reports), {"C": c_bound})


# ---------------------------------------------------------------------------
# co-area, plateau functions, and the L2 form
# ---------------------------------------------------------------------------

def _default_plateau_catalog(params: PBallParams, radii=None) -> list:
    """Half-space ramp plus a radial ramp with radii at volume quantiles:
    exact at p = 2, otherwise those of ``radii``, a sorted held-out column
    of |x|_2."""
    p, n = params.p, params.n
    xi = np.zeros(n)
    xi[0] = 1.0
    fields = [LinearRamp(xi, 0.0, float(marginal_isf(params, 0.2)))]
    if p == 2.0:
        lo, hi = 0.3 ** (1.0 / n), 0.7 ** (1.0 / n)
    else:
        lo, hi = _sorted_quantiles(radii, [0.3, 0.7])
    fields.append(RadialRamp(n, lo, hi))
    return fields


def check_coarea(p: float, n: int, phi_catalog=None,
                 count: int = 10 ** 4, seed: int = 0) -> CheckReport:
    """Gradient mass against the layer-cake of boundary contents,

        integral |grad phi|_2 dV  >=  integral_0^1 content{phi > u} du,

    the u-integral taken over a 64-point midpoint grid of contents: closed
    forms where the level sets have them (coordinate half-spaces; ball
    complements at p = 2), else ladder estimates from one grading-stream
    tally of the scalar a field's level sets share.  Each catalog field is
    a ramp, whose |grad phi| is its slope on the ramp and 0 elsewhere, so
    the lhs is its slope times the share of grading points on the ramp,
    counted off that scalar block by block (``on_ramp``, ``RampSum``).
    For the plateau catalog both sides agree (the inequality is an
    identity there), so rows are consistency-graded.  The default
    catalog's radial radii come from the held-out stream at p != 2.
    Rows: param1 = catalog index, param2 = 0.
    """
    return _one_plan_cell(p, n, coarea_plan(p, n, phi_catalog), count, seed)


def coarea_plan(p: float, n: int, phi_catalog=None) -> CellPlan:
    """The plan of ``check_coarea``."""
    params = PBallParams(p, n)
    name = "check_coarea"

    def grading(held):
        catalog = phi_catalog
        if catalog is None:
            catalog = _default_plateau_catalog(params, *held)
        level_sets = [[phi.superlevel((k + 0.5) / 64.0) for k in range(64)]
                      for phi in catalog]
        # per field, the contents of its superlevel sets, tallying the
        # scalar they share where they have no closed form, and the count
        # of its on-ramp points, read off that scalar
        contents = [_Contents(params, sets) for sets in level_sets]
        grads = [RampSum(phi.slope) for phi in catalog]

        def fold(b):
            for phi, sets, content, grad in zip(catalog, level_sets,
                                                contents, grads):
                content.add(b)
                grad.add(phi.on_ramp(b.scalar(sets[0])))

        def report() -> CheckReport:
            reports = []
            for i, (content, grad) in enumerate(zip(contents, grads)):
                lhs = integrate_grad(grad)
                ests = [est for est, _ in content.estimates()]
                vals = np.array([est.mean for est in ests])
                errs = np.array([est.std_err for est in ests])
                # contents at nearby levels share the stream, so errors are
                # summed rather than combined as a root sum of squares
                rhs = EstimateCI(float(vals.mean()), float(errs.mean()),
                                 lhs.n_samples)
                reports.append(_row(name, p, n, i, 0.0, lhs, rhs.mean,
                                    verdict_geq(lhs, rhs, "consistent")))
            return CheckReport(name, tuple(reports), {})

        return fold, report

    held_out = (_norm2,) if phi_catalog is None and p != 2.0 else ()
    return CellPlan(held_out, grading)


def check_functional_equivalence(p: float, n: int, set_, r: float, s: float,
                                 count: int, seed: int) -> CheckReport:
    """Gradient mass of the proof's plateau function as a content estimator.

    phi = clip(1 - (dist(x, A_r))/s) satisfies integral |grad phi| dV =
    (1/s) V{r < dist <= r + s} exactly; along the internal ladder
    (s 2^j, r 4^j), j = 3..0, the value converges to the boundary content
    of A.  Ladder rows (param1 = r_j, param2 = s_j) grade the structural
    identity, every rung on the grading stream.  The summary row (param1 =
    param2 = 0) grades the finest rung, with 3 sigma + 3% slack, against
    its exact expectation [V(A_{r+s}) - V(A_r)]/s when the set's
    enlargements have closed-form measures; this shell value sits below
    the boundary mass by a bias of order (n-1)/p (r + s/2), which alone
    made the row FAIL on a few seeds.  Without closed-form measures the
    row falls back to A's boundary content, its closed form or else the
    ladder estimate of the grading stream.  constants["reference"] is
    that boundary value in every case.  The rungs are distance ramps of
    one set, so every rung's shell count k is read off one scalar, A's,
    block by block, and a ladder row's lhs and rhs are both k/(N s), N
    the grading count (the lhs with the standard error of the 1/s
    column).
    """
    return _one_plan_cell(p, n, functional_equivalence_plan(p, n, set_, r, s),
                          count, seed)


def functional_equivalence_plan(p: float, n: int, set_, r: float,
                                s: float) -> CellPlan:
    """The plan of ``check_functional_equivalence``."""
    params = PBallParams(p, n)
    if not (r > 0.0 and s > 0.0):
        raise ValueError("enlargement offsets r, s must be positive")
    name = "check_functional_equivalence"
    rungs = [DistanceRamp(set_, n, r * 4 ** j, s * 2 ** j) for j in (3, 2, 1, 0)]

    def grading(held):
        # from A's scalar: the count of every rung's shell, where its
        # gradient is nonzero, and A's reference content
        grads = [RampSum(phi.slope) for phi in rungs]
        content = _Contents(params, [set_])

        def fold(b):
            scalar = b.scalar(set_)
            for phi, grad in zip(rungs, grads):
                grad.add(phi.on_ramp(scalar))
            content.add(b)

        return fold, lambda: report(grads, content)

    def report(grads, content) -> CheckReport:
        reports = []
        for phi, grad in zip(rungs, grads):
            lhs = integrate_grad(grad)
            # the gradient, -grad dist / s, is nonzero exactly on the shell
            # r < dist < r + s, almost everywhere
            shell = grad.on / grad.count / phi.s
            reports.append(_row(name, p, n, phi.r, phi.s, lhs, shell,
                                verdict_geq(lhs, shell, "consistent")))
        # the loop ends on j = 0: lhs is the finest rung's
        final = lhs
        (est, _), = content.estimates()
        reference = est.mean
        inner = set_.enlarged(r).analytic_measure(params)
        outer = set_.enlarged(r + s).analytic_measure(params)
        target = (reference if inner is None or outer is None
                  else (outer - inner) / s)
        gap = abs(final.mean - target)
        ok = gap <= 3.0 * final.std_err + 0.03 * target
        reports.append(_row(name, p, n, 0.0, 0.0, final, target,
                            PASS if ok else FAIL))
        return CheckReport(name, tuple(reports), {
            "limit": final.mean, "reference": float(reference)})

    return CellPlan((), grading)


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
    Carlo integral of |grad phi|^2 over the grading stream, shared by all
    levels; rhs chains the fitted profile constant through the dyadic
    decomposition: rhs = c_hat^2 n^{2/p} / S(a) with S(a) the dyadic sum.
    Each level implies c1 = lhs / [n^{2/p} a log^{2-2/p}(1/a)], and
    c1_hat is their minimum.  The ramps share one scalar, x_1, off which
    each level's on-ramp count is read block by block; its |grad phi|^2
    is its squared slope there and 0 elsewhere.  Rows: param1 = a.
    """
    return _one_plan_cell(p, n, l2_form_plan(p, n, a_grid), count, seed)


def l2_form_plan(p: float, n: int, a_grid) -> CellPlan:
    """The plan of ``check_l2_form``."""
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

    def grading(held):
        grads = [RampSum(phi.slope, power=2) for phi in ramps]

        def fold(b):
            # the ramps share one scalar, x_1
            for phi, grad in zip(ramps, grads):
                grad.add(phi.on_ramp(b.scalar(phi.superlevel(0.0))))

        return fold, lambda: report(grads)

    def report(grads) -> CheckReport:
        reports = []
        fitted = []
        for a, grad in zip(grid, grads):
            lhs = integrate_grad(grad, power=2)
            rhs = c_hat ** 2 * n ** (2.0 / p) / _dyadic_sum(p, a)
            fitted.append(lhs.mean / (n ** (2.0 / p) * a
                                      * math.log(1.0 / a) ** (2.0 - 2.0 / p)))
            reports.append(_row(name, p, n, a, 0.0, lhs, rhs,
                                verdict_geq(lhs, rhs, "strict")))
        return CheckReport(name, tuple(reports),
                           {"c1_hat": min(fitted), "c_from_profile": c_hat})

    return CellPlan((), grading)


# ---------------------------------------------------------------------------
# the cut-off chain
# ---------------------------------------------------------------------------

def verify_cutoff_chain(p: float, n: int, count: int = 10 ** 4,
                        seed: int = 0) -> CheckReport:
    """Grade every link of the localization chain on one product batch.

    With h1 the large-|x|_2 cut-off on the ball, h2 the small-|z|_p cut-off
    on the product space, g = (f h1) o T, kappa = (2-p)/(2p) and the
    cut-off constants c1 = CUTOFF_C1 = 1 and c2 = CUTOFF_C2 = 1:

      link 1:  int |grad f| dV >= int |grad(f h1)| dV
                                   - c1 n^kappa V{|x|_2 >= 1/(c1 n^kappa)}
      link 2:  int |grad(f h1)| dV >= c3 int |grad g| |z|_p dmu,
               c3 = c1/(c1 + 2)
      link 3:  int |grad g| |z|_p dmu >= (n^{1/p}/c2) int |grad(g h2)| dmu
                                   - 2 n^kappa mu{|z|_p <= 2 n^{1/p}/c2}
      link 4:  links 2 + 3 combined with c4 = c3/c2
      link 5:  int |grad f| dV >= c4 n^{1/p} int |grad(g h2)| dmu - a/2,
               a = exp(-C n^{p/2}) with C = CHAIN_C = 4

    Links 1-4 hold pointwise almost everywhere, so their same-batch
    difference estimators are nonnegative samplewise and the strict verdict
    is decisive even at equality; link 5 is graded on the mean.  Extra rows:
    param1 = 6 the plateau mass mu{g h2 = 1} >= a/2, param1 = 7 the zero
    mass mu{g h2 = 0} >= 1/2, param1 = 8 the pointwise gradient transfer
    |grad g(z)| <= |D*T(z)| |grad(f h1)(T z)| on up to 10^4 points (PASS
    only with zero violations).

    Ball integrals read X = T(Z) of the grading stream's product rows Z,
    exactly uniform on B_p^n (Barthe, Guedon, Mendelson and Naor).  f is
    the ramp along the first coordinate from x_1 = 0 up to the level-0.2
    half-space {x_1 >= t}, V{x_1 >= t} = 0.2.  No gradient row is
    formed: every value and gradient norm is a closed form in six scalars
    per point (``cutoff_chain_norms``), x_1 and |x|_2 of the cell, the
    draw's |z|_p, and z_{n+1}^p, |lp_dual(z)|_2^2 and lp_dual(z)_1 of the
    product row, of which only |lp_dual(z)|_2^2 at 1 < p < 2 takes a pass
    over the row.  Z is streamed and never held: each block's link
    differences fold into merged moments (link 4's formed per point from
    those of links 2 and 3) and its flags into counts, and the Jacobian
    scan, row 8's own path, runs ``jacobian_op_norms`` on the first
    TRANSFER_ROWS rows as they stream past.
    """
    return _one_plan_cell(p, n, cutoff_chain_plan(p, n), count, seed)


def cutoff_chain_norms(f, h1, h2, x1, r, zp, e, W, w1) -> tuple:
    """The cut-off chain at points z of the product stream and their ball
    points x = T(z), in closed form from six scalars per point: x_1,
    r = |x|_2, N = |z|_p, E = z_{n+1}^p, W = |w|_2^2 and w_1, where
    w = ``lp_dual(z, p)``.  f is a ``LinearRamp`` along e_1 and h1, h2 are
    the ``CutoffH1Field`` and ``CutoffH2Field``.  Returns the values f(x)
    and (g h2)(z) and the gradient norms |grad f|_2, |grad(f h1)|_2 at x
    and |grad g|_2, |grad(g h2)|_2 at z.

    With alpha = -c1 n^kappa f / r on h1's ramp and beta = h1 |grad f| on
    f's ramp (each 0 elsewhere), v = grad(f h1) = alpha x + beta e_1, so

        |v|^2 = alpha^2 (r^2 - x_1^2) + (alpha x_1 + beta)^2.

    The push-forward g = (f h1) o T has grad g = v/N - c w with
    c = x.v / N^p (``fields.push_forward_grad``), where x.v = alpha r^2 +
    beta x_1 and v.w = alpha (N^p - E)/N + beta w_1, since the first n
    terms of z.w sum to N^p - E.  So

        |grad g|^2 = |v|^2/N^2 - 2c (v.w)/N + c^2 W.

    grad h2 = k w with k = c2 n^{-1/p} / N^{p-1} on h2's ramp (else 0),
    and w.grad g = (v.w)/N - c W, so

        |grad(g h2)|^2 = (g k)^2 W + 2 g h2 k (w.grad g) + h2^2 |grad g|^2.

    The values keep their fields' arithmetic, bit for bit; the norms agree
    with the composed fields' gradient rows (``ProductField``,
    ``PushForwardField``) to rounding.
    """
    p = h2.p
    fv = np.clip((x1 - f.lo) / f.width, 0.0, 1.0)
    h1v = np.clip(2.0 - h1.slope * r, 0.0, 1.0)
    h2v = np.clip(h2.scale * zp - 1.0, 0.0, 1.0)
    gv = fv * h1v
    grad_f = f.grad_norm_from_scalar(x1)
    alpha = np.divide(-h1.slope * fv, r, out=np.zeros_like(r),
                      where=h1.on_ramp(r))
    beta = h1v * grad_f
    # |v|^2; r >= |x_1| up to rounding
    fh1 = alpha * alpha * np.maximum(r * r - x1 * x1, 0.0)
    fh1 += np.square(alpha * x1 + beta)
    zpp = pow_p(zp, p)
    c = (alpha * (r * r) + beta * x1) / zpp
    vw = (alpha * ((zpp - e) / zp) + beta * w1) / zp     # (v.w)/N
    g = fh1 / (zp * zp) - 2.0 * c * vw + c * c * W
    wg = vw - c * W
    gk = gv * np.where(h2.on_ramp(zp), h2.scale / zp ** (p - 1.0), 0.0)
    gh2 = gk * gk * W + 2.0 * gk * h2v * wg + h2v * h2v * g
    # a norm that rounds below 0 is 0
    return (fv, gv * h2v, grad_f, np.sqrt(fh1), np.sqrt(np.maximum(g, 0.0)),
            np.sqrt(np.maximum(gh2, 0.0)))


def cutoff_chain_plan(p: float, n: int) -> CellPlan:
    """The plan of ``verify_cutoff_chain``."""
    params = PBallParams(p, n)
    xi = np.zeros(n)
    xi[0] = 1.0
    f = LinearRamp(xi, 0.0, float(marginal_isf(params, 0.2)))
    x1_set = f.superlevel(0.0)      # a set whose scalar is x_1
    h1 = CutoffH1Field(p, n)
    h2 = CutoffH2Field(p, n)

    c3 = CUTOFF_C1 / (CUTOFF_C1 + 2.0)
    c4 = c3 / CUTOFF_C2
    a_level = math.exp(-CHAIN_C * n ** (p / 2.0))
    scale2 = 2.0 * n ** (1.0 / p) / CUTOFF_C2
    name = "verify_cutoff_chain"

    def fold(b, links, flags):
        # every link reads per-point scalars (``cutoff_chain_norms``): the
        # cell's x_1 and |x|_2, the draw's |z|_p, and three of Z; only
        # W = |lp_dual(z)|_2^2 takes a pass over the rows, and only at
        # 1 < p < 2.  The Jacobian scan's operator norms ride along with
        # the first TRANSFER_ROWS rows.
        Z, zp, r = b.Z, b.zp, b.norm2
        ops = (jacobian_op_norms(Z[:TRANSFER_ROWS - b.lo], p)[0]
               if b.lo < TRANSFER_ROWS else np.empty(0))
        if p == 1.0:
            W = float(n + 1)    # n + 1 signs, nonzero almost surely
        elif p == 2.0:
            W = zp * zp
        else:
            W = np.abs(Z)
            W **= 2.0 * p - 2.0
            W = row_sum(W)
        fv, plateau, gf, gfh1, gg, ggh2 = cutoff_chain_norms(
            f, h1, h2, b.scalar(x1_set), r, zp, pow_p(Z[:, -1], p), W,
            lp_dual(Z[:, 0], p))
        err1 = h1.slope * (r >= h1.lo)
        err2 = 2.0 * n ** kappa(p) * (zp <= scale2)
        d2 = gfh1 - c3 * gg * zp
        d3 = gg * zp - (n ** (1.0 / p) / CUTOFF_C2) * ggh2 + err2
        transfer_rhs = ops * gfh1[:ops.size]
        # links 1 to 5, link 4 being links 2 and 3 combined per point
        for link, diff in zip(links, (
                gf - gfh1 + err1, d2, d3, d2 + c3 * d3,
                gf - c4 * n ** (1.0 / p) * ggh2 + 0.5 * a_level)):
            link.add(diff)
        for flag, hits in (
                ("plateau_one", plateau >= 1.0 - 1e-12),
                ("plateau_zero", plateau <= 1e-12),
                ("f_one", fv >= 1.0 - 1e-12),
                ("transfer_bad", gg[:ops.size]
                 > transfer_rhs + 1e-9 * (1.0 + transfer_rhs))):
            flags[flag] += int(np.count_nonzero(hits))
        flags["rows"] += zp.size
        flags["scanned"] += ops.size

    def grading(held):
        links = [MomentSum() for _ in range(5)]
        flags = dict.fromkeys(("rows", "scanned", "plateau_one",
                               "plateau_zero", "f_one", "transfer_bad"), 0)
        return (lambda b: fold(b, links, flags)), lambda: report(links, flags)

    def report(links, flags) -> CheckReport:
        count = flags["rows"]
        reports = []
        for link, diffs in enumerate(links, start=1):
            est = mean_ci(diffs)
            reports.append(_row(name, p, n, link, 0.0, est, 0.0,
                                verdict_geq(est, 0.0, "strict")))

        m_one = bernoulli_ci(flags["plateau_one"], count)
        m_zero = bernoulli_ci(flags["plateau_zero"], count)
        reports.append(_row(name, p, n, 6, 0.0, m_one, 0.5 * a_level,
                            verdict_geq(m_one, 0.5 * a_level, "strict")))
        reports.append(_row(name, p, n, 7, 0.0, m_zero, 0.5,
                            verdict_geq(m_zero, 0.5, "strict")))

        bad = flags["transfer_bad"]
        reports.append(_row(name, p, n, 8, 0.0,
                            bernoulli_ci(bad, flags["scanned"]),
                            0.0, PASS if bad == 0 else FAIL))

        v_f1 = flags["f_one"] / count
        # the plateau mass has a closed form: T(z) and |z|_p are
        # independent, and |z|_p^p is Gamma(n/p + 1, 1)
        plateau_oracle = v_f1 * float(special.gammaincc(n / p + 1.0,
                                                        scale2 ** p))
        constants = {
            "c3": c3,
            "c4": c4,
            "plateau_target": 0.5 * a_level,
            "plateau_oracle": plateau_oracle,
            "transfer_violations": bad,
        }
        return CheckReport(name, tuple(reports), constants)

    return CellPlan((), grading)


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


def isotropy_report(p: float, n: int) -> CheckReport:
    """``isotropy_constants`` as rows: param1 = 0 for C(n,p), 1 for L_K,
    each PASS when positive."""
    consts = isotropy_constants(p, n)
    name = "isotropy_constants"
    rows = tuple(_row(name, p, n, k, 0.0, EstimateCI.exact(value), 0.0,
                      PASS if value > 0 else FAIL)
                 for k, value in enumerate(consts))
    return CheckReport(name, rows, consts._asdict())


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

    t_grid holds quantile levels, placed on the held-out stream's
    |C(n,p) x|_2; thresholds below the regime floor t0 L_K sqrt(n)
    (t0 = 0.8) carry no claim and stay INCONCLUSIVE.  c_hat = min over
    eligible thresholds of L_K (-log P^)/t.  Rows: param1 = t, param2 = 1
    when t is in regime.
    """
    return _one_plan_cell(p, n, paouris_tail_plan(p, n, t_grid), count, seed)


def paouris_tail_plan(p: float, n: int, t_grid) -> CellPlan:
    """The plan of ``check_paouris_tail``: the radii |C(n,p) x|_2 are
    C(n,p) |x|_2 of the cell's shared |x|_2 values."""
    PBallParams(p, n)
    levels = _quantile_levels(t_grid, "t_grid")
    c_np, l_k = isotropy_constants(p, n)
    t_min = PAOURIS_T0 * l_k * math.sqrt(n)
    name = "check_paouris_tail"

    def grading(held):
        thresholds = _sorted_quantiles(c_np * held[0], levels)
        radii = Tally(thresholds)

        def report() -> CheckReport:
            tails = estimate_tail(radii, thresholds)
            slopes = [l_k * (-math.log(est.mean)) / t
                      for t, est, rare in tails
                      if not rare and t >= t_min and 0.0 < est.mean < 1.0]
            c_hat = min(slopes) if slopes else None
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

        # scaling by c_np > 0 keeps the sorted order
        return (lambda b: radii.add_sorted(c_np * b.sorted_norm2)), report

    return CellPlan((_norm2,), grading)
