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
column in its own pass over a block stream (a cell's
``sampling.product_ball_blocks``) with every other column it needs, or
derives it from one it holds (a ramp's gradient norms from its scalar),
so a (params, count, seed) batch is drawn once however many estimates
read it, and only its columns persist.  No estimator takes a seed, a
functional or a point, so whatever needs the points, such as the
Lipschitz spot check of ``inequality_suite.check_sz_concentration``, runs
in the caller's pass.  A 2-D array or a SampleBatch is rejected rather
than read as values.
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
    "estimate_median_and_phi",
    "integrate_grad",
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


def _finite_size(est: EstimateCI) -> float:
    """|lo| + |hi| over the finite ends of an interval."""
    return sum(abs(end) for end in (est.lo, est.hi) if math.isfinite(end))


def verdict_geq(lhs: EstimateCI, rhs, mode: str = "strict") -> str:
    """Grade the statement lhs >= rhs from interval positions; rhs is a
    number or an EstimateCI.

    strict: PASS needs the whole lhs interval above the rhs interval;
    consistent: anything short of a confident violation is PASS (used for
    inequalities whose two sides are estimated at an equality point, where
    strict grading could never PASS).  In both modes a NaN end on either
    side is INCONCLUSIVE: NaN compares false with everything, so no
    interval position can be read from it.  An infinite end is graded like
    any other; it adds nothing to the relative tolerance.
    """
    if mode not in ("strict", "consistent"):
        raise ValueError(f"unknown verdict mode {mode!r}")
    if not isinstance(rhs, EstimateCI):
        rhs = EstimateCI.exact(rhs)
    if any(math.isnan(end) for end in (lhs.lo, lhs.hi, rhs.lo, rhs.hi)):
        return INCONCLUSIVE
    # ends added per side: negating both sides keeps the sum (verdict_leq);
    # an infinite tolerance would pass every comparison
    tol = 1e-12 * (1.0 + _finite_size(lhs) + _finite_size(rhs))
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


def content_from_batch(column, thresholds: Sequence[float],
                       eps_ladder: Sequence[float]) -> list:
    """Enlargement quotients of one batch for every ladder epsilon, one
    ContentEstimate per threshold t, from the column s of the scalar that
    the sets {s >= t} share.

    The eps-enlargement of {s >= t} is {s >= t - eps}, so with s sorted
    once the rung count #{t - eps <= s < t} is

        searchsorted(s, t, "left") - searchsorted(s, t - eps, "left"),

    the same integer as comparing every point against both thresholds.
    Each rung is ``bernoulli_ci(k, n)`` divided by its eps, computed with
    the same arithmetic for every (threshold, rung) at once; only the
    intercept is fitted threshold by threshold.  The ladder must be
    nonempty, finite, positive and strictly decreasing.
    """
    eps = np.asarray(list(eps_ladder), dtype=float)
    if (eps.size == 0 or not np.all(np.isfinite(eps) & (eps > 0.0))
            or np.any(np.diff(eps) >= 0.0)):
        raise ValueError("eps ladder must be finite, positive and strictly "
                         "decreasing")
    s = np.sort(_column(column))
    n = s.size
    if n == 0:
        raise ValueError("cannot estimate content from an empty column")
    tops = np.asarray(thresholds, dtype=float)
    counts = (np.searchsorted(s, tops, "left")[:, None]
              - np.searchsorted(s, tops[:, None] - eps, "left"))
    mean = counts / n
    q = np.where((counts == 0) | (counts == n), (counts + 0.5) / (n + 1),
                 mean)
    quotients = mean / eps
    ses = np.sqrt(q * (1.0 - q) / n) / eps
    ladder = eps.tolist()
    empty = (~counts.any(axis=1)).tolist()
    out = []
    for ys, se, inconclusive in zip(quotients, ses, empty):
        rungs = tuple((e, EstimateCI(y, d, n))
                      for e, y, d in zip(ladder, ys.tolist(), se.tolist()))
        if len(rungs) >= 2:
            extrapolated = EstimateCI(*_wls_intercept(eps, ys, se), n)
        else:
            extrapolated = rungs[-1][1]
        out.append(ContentEstimate(rungs, extrapolated, inconclusive))
    return out


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


def estimate_median_and_phi(values, h_grid: Sequence[float]
                            ) -> tuple[float, list[TailPoint]]:
    """Empirical median of a functional F over one batch, as a float, and
    its upper-tail curve phi(h) = P{F > median + h}, from the column of F
    over the batch; each curve point's first field is the offset h.
    """
    vals = _column(values)
    count = vals.size
    mid = np.partition(vals, [(count - 1) // 2, count // 2])
    med = float(0.5 * (mid[(count - 1) // 2] + mid[count // 2]))
    curve = []
    for h in h_grid:
        k = int((vals > med + float(h)).sum())
        curve.append(TailPoint(float(h), bernoulli_ci(k, count), k < RARE_COUNT))
    return med, curve


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
    # with nothing dropped the column itself holds the same values in order
    kept = norms[finite] if bad else norms
    if power != 1:
        kept = kept ** power
    return mean_ci(kept)
