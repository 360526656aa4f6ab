"""Monte Carlo estimators with explicit confidence intervals and verdicts.

Every estimate is an EstimateCI whose interval is mean +/- 3 std_err (99.7%
normal coverage).  Statements "lhs >= rhs" are graded three ways: PASS when
the interval sits on the good side, FAIL when it sits strictly on the bad
side, INCONCLUSIVE when it straddles the bound.  A randomized test of a true
inequality must never FAIL; INCONCLUSIVE signals insufficient resolution,
not a counterexample.

Boundary mass is measured by the lower Minkowski content with Euclidean
distance and one-sided enlargement,

    content(A) = lim_{eps -> 0+} (mu{dist(., A) <= eps} - mu(A)) / eps,

approximated on a decreasing epsilon ladder with a weighted-least-squares
intercept standing in for the limit.  A set {s >= t} is given by the
column of its per-point scalar s and its threshold t; its eps-enlargement
is {s >= t - eps}, so the column is sorted once and every rung count of
every threshold is read off the sorted array.

Estimators draw nothing and see neither points nor sets: each takes a
per-point column (a 1-D array of the values of a scalar, gradient norm or
functional at every drawn point) and plain numbers.  The caller fills the
column in its own pass over a block stream (``sampling.ball_blocks``)
with every other column it needs, so a (params, count, seed) batch is
drawn once however many estimates read it, and only its columns persist.
A 2-D array or a SampleBatch is rejected rather than read as values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "PASS",
    "FAIL",
    "INCONCLUSIVE",
    "EstimateCI",
    "mean_ci",
    "bernoulli_ci",
    "verdict_geq",
    "verdict_leq",
    "estimate_measure",
    "ContentEstimate",
    "content_from_batch",
    "TailPoint",
    "estimate_tail",
    "PhiPoint",
    "MedianEstimate",
    "estimate_median_and_phi",
    "integrate_grad",
    "lipschitz_pairs",
    "PairRows",
    "RARE_COUNT",
]

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

# tail probabilities backed by fewer empirical hits are flagged RARE
RARE_COUNT = 10

_CI_WIDTH = 3.0  # half-width in standard errors


@dataclass(frozen=True)
class EstimateCI:
    """Point estimate with a 3-sigma interval; an exact value is one with
    std_err 0 (``EstimateCI.exact``)."""

    mean: float
    std_err: float
    n_samples: int

    @classmethod
    def exact(cls, value) -> "EstimateCI":
        return cls(float(value), 0.0, 0)

    def __neg__(self) -> "EstimateCI":
        return EstimateCI(-self.mean, self.std_err, self.n_samples)

    @property
    def lo(self) -> float:
        return self.mean - _CI_WIDTH * self.std_err

    @property
    def hi(self) -> float:
        return self.mean + _CI_WIDTH * self.std_err


def mean_ci(values) -> EstimateCI:
    """Sample mean of an array with its standard error."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        raise ValueError("cannot average an empty sample")
    se = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return EstimateCI(float(values.mean()), se, n)


def bernoulli_ci(k: int, n: int) -> EstimateCI:
    """Binomial proportion with a never-zero standard error.

    At k = 0 or k = n the plug-in variance vanishes, which would make rare
    events look infinitely certain; the variance is then taken at the
    shrunk proportion (k + 1/2)/(n + 1) instead, while the mean stays k/n.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    mean = k / n
    q = (k + 0.5) / (n + 1) if k in (0, n) else mean
    se = float(np.sqrt(q * (1.0 - q) / n))
    return EstimateCI(mean, se, n)


def verdict_geq(lhs: EstimateCI, rhs, mode: str = "strict") -> str:
    """Grade the statement lhs >= rhs from interval positions; rhs is a
    number or an EstimateCI.

    strict: PASS needs the whole lhs interval above the rhs interval;
    consistent: anything short of a confident violation is PASS (used for
    inequalities whose two sides are estimated at an equality point, where
    strict grading could never PASS).  In both modes a NaN end on either
    side is INCONCLUSIVE: NaN compares false with everything, so no
    interval position can be read from it.
    """
    if mode not in ("strict", "consistent"):
        raise ValueError(f"unknown verdict mode {mode!r}")
    if not isinstance(rhs, EstimateCI):
        rhs = EstimateCI.exact(rhs)
    if any(math.isnan(end) for end in (lhs.lo, lhs.hi, rhs.lo, rhs.hi)):
        return INCONCLUSIVE
    # ends added per side: negating both sides keeps the sum (verdict_leq)
    tol = 1e-12 * (1.0 + (abs(lhs.lo) + abs(lhs.hi))
                   + (abs(rhs.lo) + abs(rhs.hi)))
    if mode == "consistent":
        return FAIL if lhs.hi < rhs.lo - tol else PASS
    if lhs.lo >= rhs.hi - tol:
        return PASS
    if lhs.hi < rhs.lo - tol:
        return FAIL
    return INCONCLUSIVE


def verdict_leq(lhs: EstimateCI, rhs, mode: str = "strict") -> str:
    """Grade lhs <= rhs as -lhs >= -rhs."""
    return verdict_geq(-lhs, -rhs, mode)


# ---------------------------------------------------------------------------
# set measures and boundary content
# ---------------------------------------------------------------------------

def _column(values) -> np.ndarray:
    """``values`` itself when it is a 1-D array of per-point values; points
    (a SampleBatch or a 2-D array) raise ValueError."""
    if not (isinstance(values, np.ndarray) and values.ndim == 1):
        shape = getattr(values, "shape", type(values).__name__)
        raise ValueError(f"expected a 1-D per-point column, got {shape}")
    return values


def estimate_measure(column, threshold: float) -> EstimateCI:
    """Empirical measure of {s >= threshold} from the column s of one
    batch."""
    s = _column(column)
    return bernoulli_ci(int((s >= threshold).sum()), s.size)


@dataclass(frozen=True)
class ContentEstimate:
    """Ladder of one-sided enlargement quotients and their extrapolation.

    per_epsilon pairs each ladder value with the quotient
    (mu{dist <= eps} - mu(A))/eps; extrapolated is the weighted-least-squares
    intercept at eps = 0 (the smallest-eps quotient when the ladder has a
    single rung).  inconclusive marks an all-zero enlargement count.
    """

    per_epsilon: tuple = field(repr=False)
    extrapolated: EstimateCI = None
    inconclusive: bool = False


def _wls_intercept(xs: np.ndarray, ys: np.ndarray, ses: np.ndarray) -> tuple[float, float]:
    """Intercept of y = b0 + b1 x by least squares with weights 1/se^2, and
    its standard error, in closed form from sums centred at the weighted
    mean of x: b1 = sum w dx y / sum w dx^2, b0 = ybar - b1 xbar, and
    var b0 = 1/sum w + xbar^2 / sum w dx^2."""
    w = 1.0 / np.square(ses)
    sw = w.sum()
    xbar = (w @ xs) / sw
    dx = xs - xbar
    sxx = w @ np.square(dx)
    b1 = (w * dx) @ ys / sxx
    b0 = (w @ ys) / sw - b1 * xbar
    return float(b0), float(np.sqrt(1.0 / sw + xbar * xbar / sxx))


def _ladder(eps_ladder) -> np.ndarray:
    """The ladder as an array; ValueError unless it is nonempty, finite,
    positive and strictly decreasing."""
    eps = np.asarray(list(eps_ladder), dtype=float)
    if (eps.size == 0 or not np.all(np.isfinite(eps) & (eps > 0.0))
            or np.any(np.diff(eps) >= 0.0)):
        raise ValueError("eps ladder must be finite, positive and strictly "
                         "decreasing")
    return eps


def content_from_batch(column, thresholds: Sequence[float],
                       eps_ladder: Sequence[float]) -> list:
    """Enlargement quotients of one batch for every ladder epsilon, one
    ContentEstimate per threshold t, from the column s of the scalar that
    the sets {s >= t} share.

    The eps-enlargement of {s >= t} is {s >= t - eps}, so with s sorted
    once the rung count #{t - eps <= s < t} is

        searchsorted(s, t, "left") - searchsorted(s, t - eps, "left"),

    the same integer as comparing every point against both thresholds.
    """
    eps = _ladder(eps_ladder)
    s = np.sort(_column(column))
    tops = np.asarray(thresholds, dtype=float)
    counts = (np.searchsorted(s, tops, "left")[:, None]
              - np.searchsorted(s, tops[:, None] - eps, "left"))
    return [_content_from_counts(eps, row, s.size) for row in counts]


def _content_from_counts(eps: np.ndarray, counts: np.ndarray,
                         n: int) -> ContentEstimate:
    rungs = []
    for e, k in zip(eps, counts):
        ci = bernoulli_ci(int(k), n)
        rungs.append((float(e), EstimateCI(ci.mean / e, ci.std_err / e, n)))
    if len(rungs) >= 2:
        xs = eps
        ys = np.array([r[1].mean for r in rungs])
        ses = np.array([r[1].std_err for r in rungs])
        b0, se0 = _wls_intercept(xs, ys, ses)
        extrapolated = EstimateCI(b0, se0, n)
    else:
        extrapolated = rungs[-1][1]
    return ContentEstimate(tuple(rungs), extrapolated,
                           inconclusive=not counts.any())


# ---------------------------------------------------------------------------
# tails, medians, concentration curves
# ---------------------------------------------------------------------------

class TailPoint(NamedTuple):
    t: float
    estimate: EstimateCI
    rare: bool


def estimate_tail(values, thresholds: Sequence[float]) -> list[TailPoint]:
    """P{F >= t} for each threshold, from the per-point values F of one
    batch; sparse counts are flagged rare."""
    thresholds = [float(t) for t in thresholds]
    if not all(np.isfinite(thresholds)):
        raise ValueError("thresholds must be finite")
    vals = _column(values)
    count = vals.size
    out = []
    for t in thresholds:
        k = int((vals >= t).sum())
        out.append(TailPoint(t, bernoulli_ci(k, count), k < RARE_COUNT))
    return out


class PhiPoint(NamedTuple):
    h: float
    estimate: EstimateCI
    rare: bool


@dataclass(frozen=True)
class MedianEstimate:
    """Empirical median with an order-statistic confidence interval."""

    value: float
    ci_lo: float
    ci_hi: float
    n_samples: int


class PairRows(NamedTuple):
    """The pairs of the Lipschitz spot check in one batch: row indices i
    and j (``lipschitz_pairs``) and the points at those rows."""

    i: np.ndarray
    j: np.ndarray
    rows_i: np.ndarray
    rows_j: np.ndarray


def lipschitz_pairs(seed: int, count: int, pairs: int = 100):
    """Row indices (i, j) of the spot check's pairs in a batch of count
    points drawn from seed."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(10 ** 6,)))
    return (rng.integers(0, count, size=pairs),
            rng.integers(0, count, size=pairs))


def estimate_median_and_phi(values, functional, h_grid: Sequence[float],
                            pairs: PairRows
                            ) -> tuple[MedianEstimate, list[PhiPoint]]:
    """Empirical median of a 1-Lipschitz functional over one batch and its
    upper-tail curve phi(h) = P{F > median + h}.

    ``values`` is the column of F over a batch drawn from a seed, and
    ``pairs`` that batch's rows at ``lipschitz_pairs(seed, count)``.
    Lipschitz continuity is the caller's promise; it is spot-checked on
    those ~100 sample pairs, and a violation raises ValueError.
    """
    vals = _column(values)
    count = vals.size
    _lipschitz_spot_check(functional, vals, pairs)
    order = np.sort(vals)
    med = 0.5 * (order[(count - 1) // 2] + order[count // 2])
    half = 0.5 * count
    delta = _CI_WIDTH * 0.5 * np.sqrt(count)
    k_lo = max(0, int(np.floor(half - delta)))
    k_hi = min(count - 1, int(np.ceil(half + delta)))
    median = MedianEstimate(float(med), float(order[k_lo]), float(order[k_hi]),
                            count)
    curve = []
    for h in h_grid:
        k = int((vals > med + float(h)).sum())
        curve.append(PhiPoint(float(h), bernoulli_ci(k, count), k < RARE_COUNT))
    return median, curve


def _lipschitz_spot_check(functional, vals: np.ndarray, pairs: PairRows):
    lip = float(getattr(functional, "lipschitz_constant", 1.0))
    vi, vj = vals[pairs.i], vals[pairs.j]
    gaps = np.abs(vi - vj)
    dists = np.linalg.norm(pairs.rows_i - pairs.rows_j, axis=1)
    bad = gaps > lip * dists + 1e-9 * (1.0 + np.abs(vi))
    if np.any(bad):
        w = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"functional violates its Lipschitz constant {lip}: "
            f"|df| = {gaps[w]!r} over |dx| = {dists[w]!r}")


# ---------------------------------------------------------------------------
# gradient integrals
# ---------------------------------------------------------------------------

def integrate_grad(norms, power: int = 1) -> EstimateCI:
    """Monte Carlo estimate of the integral of |grad f|_2^power: its mean
    over one batch, from the column of |grad f|_2 at the batch's points
    (a field's exact gradient rows reduced to norms by the caller's pass).

    Samples with a non-finite gradient are dropped, and more than 0.1% of
    them aborts the estimate.
    """
    norms = _column(norms)
    count = norms.size
    finite = np.isfinite(norms)
    bad = count - int(finite.sum())
    if bad > 1e-3 * count:
        raise RuntimeError(
            f"non-finite gradient at {bad} of {count} samples "
            f"({100.0 * bad / count:.2f}%)")
    kept = norms[finite]
    if power != 1:
        kept = kept ** power
    return mean_ci(kept)
