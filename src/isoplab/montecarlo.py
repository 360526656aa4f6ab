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
intercept standing in for the limit.  A set {s >= t} is given by its
per-point scalar s and its threshold t; its eps-enlargement is
{s >= t - eps}, so every rung of every threshold is a count of s against
thresholds fixed before any point is drawn.

Estimators draw nothing and see neither points nor sets.  Each reads a
summary of a stream of per-point values (a scalar, gradient norm or
functional at every drawn point) that the caller folds block by block in
its own pass over the stream (a cell's ``sampling.cell_blocks``),
and plain numbers.  A statistic is one of two kinds, and so is its
summary:

* a count at thresholds fixed before the pass (content rungs, tails, set
  and ball masses) reads a ``Tally``, which adds up each block's counts
  below and at or below every threshold;
* a mean and its standard error (``mean_ci``, ``integrate_grad``) reads a
  ``MomentSum`` or a ``GradSum``: count, mean and sum of squared
  deviations M2, taken over runs of MOMENT_ROWS values and merged in
  order (Chan, Golub and LeVeque, Amer. Statist. 37, 1983).  The runs are
  fixed by the values' positions, not by the blocks, so the result does
  not depend on how the stream is cut; a ``MomentSum`` of several streams
  reduces the whole runs of all of them together.

A ramp's gradient mass is a count too: its |grad f|_2 is its slope
on the ramp and 0 elsewhere, so ``integrate_grad`` reads a ``RampSum``,
the count of on-ramp points, and forms that column's mean and standard
error from the count.

A summary holds O(1) memory however long the stream is.  Each estimator
also takes a per-point column (a 1-D array) in place of its summary,
which it folds as one block, so a column and a stream of the same values
give the same bits.  The one statistic that is neither kind is the
median of ``estimate_median_and_phi``, an order statistic, which reads a
column.  A 2-D array or a SampleBatch is rejected rather than read as
values.  No estimator takes a seed, a functional or a point, so whatever
needs the points, such as the Lipschitz spot check of
``inequality_suite.sz_concentration_plan``, runs in the caller's pass.
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
    "Moments",
    "MomentSum",
    "GradSum",
    "RampSum",
    "Tally",
    "MOMENT_ROWS",
    "mean_ci",
    "bernoulli_ci",
    "verdict_geq",
    "verdict_leq",
    "estimate_measure",
    "ContentEstimate",
    "content_tally",
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


# values per run of a MomentSum: the runs, and so the merged moments, are
# fixed by the values' positions in the stream, whatever its blocks are
MOMENT_ROWS = 4096


class Moments(NamedTuple):
    """Count, mean and sum of squared deviations M2 of some values."""

    count: int
    mean: float
    m2: float

    @classmethod
    def of(cls, values: np.ndarray) -> "Moments":
        """The moments of a nonempty 1-D array, with numpy's arithmetic:
        the mean is ``values.mean()`` and m2 / (count - 1) is
        ``values.var(ddof=1)``, bit for bit."""
        mean = np.add.reduce(values) / values.size
        dev = values - mean
        np.multiply(dev, dev, out=dev)
        return cls(values.size, float(mean), float(np.add.reduce(dev)))

    def merge(self, other: "Moments") -> "Moments":
        """The moments of these values followed by ``other``'s (Chan, Golub
        and LeVeque): the means are pulled together by their difference,
        and M2 gains its square weighted by the counts."""
        if not other.count:
            return self
        if not self.count:
            return other
        count = self.count + other.count
        delta = other.mean - self.mean
        return Moments(count, self.mean + delta * (other.count / count),
                       self.m2 + other.m2
                       + delta * delta * (self.count * other.count / count))


class MomentSum:
    """The moments of a stream of values added block by block, or of
    ``streams`` streams side by side, added as the rows of blocks.

    The values are cut into runs of MOMENT_ROWS, counted from the
    stream's first value; each run's moments come from numpy
    (``Moments.of``) and are merged in order.  A run that spans blocks is
    gathered in a buffer of one run first, so the result depends only on
    the values and their order, and a stream of at most MOMENT_ROWS
    values gives numpy's mean and variance of them, bit for bit.  The
    whole runs of a block, of every stream, are reduced in one numpy call
    per step: a reduction along the last axis sums each run as one 1-D
    array, so each run's moments are ``Moments.of`` it, bit for bit.
    """

    def __init__(self, streams: int = 1):
        self.streams = streams
        # of the whole runs so far, per stream
        self._totals = [Moments(0, 0.0, 0.0)] * streams
        self._run = None    # the next run's first values, a row per stream
        self._fill = 0

    def add(self, values: np.ndarray, overwrite: bool = False) -> None:
        """Fold the streams' next values: a 1-D array of one stream's, or a
        (streams, m) array whose row k continues stream k.  The open run is
        filled first, the whole runs that follow are reduced together, and
        the rest opens the next run.  With ``overwrite`` the deviations of
        the whole runs are formed in ``values`` itself, which a caller that
        no longer needs them saves a copy by."""
        contiguous = np.ascontiguousarray(values, dtype=float)
        overwrite = overwrite and contiguous is values
        values = contiguous.reshape(self.streams, -1)
        if self._fill:
            take = min(MOMENT_ROWS - self._fill, values.shape[1])
            self._run[:, self._fill:self._fill + take] = values[:, :take]
            self._fill += take
            values = values[:, take:]
            if self._fill < MOMENT_ROWS:
                return
            self._fill = 0
            self._merge(self._run)
        size = values.shape[1]
        whole = size - size % MOMENT_ROWS
        if whole < size:
            if self._run is None:
                self._run = np.empty((self.streams, MOMENT_ROWS))
            self._run[:, :size - whole] = values[:, whole:]
        if whole:
            self._merge(values[:, :whole], overwrite)
        self._fill = size - whole

    def _merge(self, runs: np.ndarray, overwrite: bool = False) -> None:
        """Merge the whole runs of row k of ``runs`` into stream k, their
        deviations formed in ``runs`` itself with ``overwrite``."""
        runs = runs.reshape(self.streams, -1, MOMENT_ROWS)
        means = np.add.reduce(runs, axis=-1) / MOMENT_ROWS
        dev = np.subtract(runs, means[..., None],
                          out=runs if overwrite else None)
        np.multiply(dev, dev, out=dev)
        for k, (run_means, run_m2) in enumerate(zip(
                means.tolist(), np.add.reduce(dev, axis=-1).tolist())):
            total = self._totals[k]
            for mean, m2 in zip(run_means, run_m2):
                total = total.merge(Moments(MOMENT_ROWS, mean, m2))
            self._totals[k] = total

    def stream_moments(self) -> list:
        """The moments of every value added so far, per stream."""
        if not self._fill:
            return list(self._totals)
        return [total.merge(Moments.of(run[:self._fill]))
                for total, run in zip(self._totals, self._run)]


def mean_ci(values) -> EstimateCI:
    """Sample mean with its standard error, from the Moments of the values,
    a one-stream MomentSum, or an array of values, folded as one block."""
    if not isinstance(values, (Moments, MomentSum)):
        column = MomentSum()
        column.add(np.ravel(np.asarray(values, dtype=float)))
        values = column
    if isinstance(values, MomentSum):
        values, = values.stream_moments()
    m = values
    if m.count == 0:
        raise ValueError("cannot average an empty sample")
    se = (math.sqrt(m.m2 / (m.count - 1)) / math.sqrt(m.count)
          if m.count > 1 else 0.0)
    return EstimateCI(m.mean, se, m.count)


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


class Tally:
    """Counts of a stream of values against thresholds fixed before it.

    For every threshold t it was made with, a Tally answers #{v < t},
    #{v >= t} and #{v <= t} exactly.  A block is sorted and the thresholds
    are placed in it by ``searchsorted``, which gives the block's counts
    below and at or below each of them at once; the counts of the blocks
    add up, so they are the integers that comparing every value with
    every threshold gives, however the stream is cut.  A NaN value counts
    above every threshold, as numpy sorts it.
    """

    def __init__(self, thresholds):
        t = np.sort(np.ravel(np.asarray(thresholds, dtype=float)))
        # the distinct thresholds (np.unique would import numpy.ma)
        distinct = np.ones(t.size, dtype=bool)
        distinct[1:] = t[1:] != t[:-1]
        self.edges = t[distinct]
        self._below = np.zeros(self.edges.size, dtype=np.int64)
        self._at_most = np.zeros(self.edges.size, dtype=np.int64)
        self.count = 0

    def add(self, values: np.ndarray) -> None:
        """Count a 1-D array of the stream's next values."""
        self.add_sorted(np.sort(values))

    def add_sorted(self, values: np.ndarray) -> None:
        """Count the stream's next values, given as a sorted 1-D array
        (a caller that counts one block in several tallies sorts it
        once)."""
        self._below += np.searchsorted(values, self.edges, "left")
        self._at_most += np.searchsorted(values, self.edges, "right")
        self.count += values.size

    def _at(self, thresholds) -> np.ndarray:
        t = np.asarray(thresholds, dtype=float)
        at = np.searchsorted(self.edges, t)
        if not np.array_equal(np.take(self.edges, at, mode="clip"), t):
            raise ValueError("a threshold the tally was not made with")
        return at

    def below(self, thresholds) -> np.ndarray:
        """#{v < t} for each t, which must be one of the thresholds."""
        return self._below[self._at(thresholds)]

    def at_least(self, thresholds) -> np.ndarray:
        """#{v >= t} for each t."""
        return self.count - self.below(thresholds)

    def at_most(self, thresholds) -> np.ndarray:
        """#{v <= t} for each t."""
        return self._at_most[self._at(thresholds)]


def _tally(values, thresholds) -> Tally:
    """``values`` itself when it is a Tally, else a Tally of ``thresholds``
    over the column ``values``, counted as one block."""
    if isinstance(values, Tally):
        return values
    tally = Tally(thresholds)
    tally.add(_column(values))
    return tally


def estimate_measure(values, threshold: float) -> EstimateCI:
    """Empirical measure of {s >= threshold}, from a Tally of s or the
    column s of one batch."""
    tally = _tally(values, [threshold])
    return bernoulli_ci(int(tally.at_least(threshold)), tally.count)


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
    eps = np.asarray(list(eps_ladder), dtype=float)
    if (eps.size == 0 or not np.all(np.isfinite(eps) & (eps > 0.0))
            or np.any(np.diff(eps) >= 0.0)):
        raise ValueError("eps ladder must be finite, positive and strictly "
                         "decreasing")
    return eps


def _rung_thresholds(thresholds, eps: np.ndarray) -> tuple:
    """The thresholds t and the rows of rung thresholds t - eps."""
    tops = np.asarray(thresholds, dtype=float)
    return tops, tops[:, None] - eps


def content_tally(thresholds: Sequence[float],
                  eps_ladder: Sequence[float]) -> Tally:
    """An empty Tally of every threshold t and rung threshold t - eps that
    ``content_from_batch`` reads for ``thresholds`` on ``eps_ladder``;
    the ladder must be nonempty, finite, positive and strictly
    decreasing."""
    tops, lows = _rung_thresholds(thresholds, _ladder(eps_ladder))
    return Tally(np.concatenate([tops, lows.ravel()]))


def content_from_batch(values, thresholds: Sequence[float],
                       eps_ladder: Sequence[float]) -> list:
    """Enlargement quotients of one batch for every ladder epsilon, one
    ContentEstimate per threshold t, from the scalar s that the sets
    {s >= t} share: its ``content_tally`` of the stream, or its column.

    The eps-enlargement of {s >= t} is {s >= t - eps}, so the rung count
    is #{t - eps <= s < t} = #{s < t} - #{s < t - eps}, the same integer
    as comparing every point against both thresholds.  Each rung is
    ``bernoulli_ci(k, n)`` divided by its eps, computed with the same
    arithmetic for every (threshold, rung) at once; only the intercept is
    fitted threshold by threshold.  The ladder must be nonempty, finite,
    positive and strictly decreasing.
    """
    eps = _ladder(eps_ladder)
    tops, lows = _rung_thresholds(thresholds, eps)
    if not isinstance(values, Tally):
        values = _tally(values, np.concatenate([tops, lows.ravel()]))
    n = values.count
    if n == 0:
        raise ValueError("cannot estimate content from an empty column")
    counts = values.below(tops)[:, None] - values.below(lows)
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
    """P{F >= t} for each threshold, from a Tally of the per-point values F
    or their column over one batch; sparse counts are flagged rare."""
    thresholds = [float(t) for t in thresholds]
    if not all(np.isfinite(thresholds)):
        raise ValueError("thresholds must be finite")
    tally = _tally(values, thresholds)
    out = []
    for t, k in zip(thresholds, tally.at_least(thresholds).tolist()):
        out.append(TailPoint(t, bernoulli_ci(k, tally.count), k < RARE_COUNT))
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

class GradSum:
    """The summary that ``integrate_grad`` reads for any field: over a
    stream of gradient norms |grad f|_2, the moments of the finite ones
    raised to ``power``, the count of the others, and the count of all."""

    def __init__(self, power: int = 1):
        self.power = power
        self.kept = MomentSum()
        self.count = 0
        self.nonfinite = 0

    def add(self, norms: np.ndarray) -> None:
        """Fold a 1-D array of the stream's next gradient norms."""
        finite = np.isfinite(norms)
        bad = norms.size - int(np.count_nonzero(finite))
        self.count += norms.size
        self.nonfinite += bad
        # with nothing dropped the block itself holds the same values
        kept = norms[finite] if bad else norms
        self.kept.add(kept if self.power == 1 else kept ** self.power)


class RampSum:
    """The summary that ``integrate_grad`` reads for a ramp, whose
    |grad f|_2 is its ``slope`` on the ramp and 0 elsewhere: the count of
    on-ramp points and the count of all.  The column of |grad f|_2^power
    is then slope^power at k of N points and 0 at the others, so its mean
    and standard error follow from k and N."""

    def __init__(self, slope: float, power: int = 1):
        self.slope = float(slope)
        self.power = power
        self.on = 0
        self.count = 0

    def add(self, on: np.ndarray) -> None:
        """Count a 1-D boolean array: which of the stream's next points
        lie on the ramp."""
        self.on += int(np.count_nonzero(on))
        self.count += on.size


def _ramp_mass(ramp: RampSum) -> EstimateCI:
    """``mean_ci`` of a column holding h = slope^power at k of N points
    and 0 elsewhere, up to rounding: the mean h k/N and the standard error
    h sqrt(k (N - k) / (N (N - 1))) / sqrt(N)."""
    k, count = ramp.on, ramp.count
    if count == 0:
        raise ValueError("cannot average an empty sample")
    height = ramp.slope ** ramp.power
    se = (height * math.sqrt(k * (count - k) / (count * (count - 1)))
          / math.sqrt(count) if count > 1 else 0.0)
    return EstimateCI(height * (k / count), se, count)


def integrate_grad(norms, power: int = 1) -> EstimateCI:
    """Monte Carlo estimate of the integral of |grad f|_2^power: its mean
    over one batch, from a GradSum of the stream of |grad f|_2 or a
    RampSum of a ramp's on-ramp points (either made with this power), or
    the column of |grad f|_2 at the batch's points (a field's exact
    gradient rows reduced to norms by the caller's pass).

    Samples with a non-finite gradient are dropped, and more than 0.1% of
    all the stream's samples aborts the estimate; a ramp has none.
    """
    if isinstance(norms, (GradSum, RampSum)):
        if norms.power != power:
            raise ValueError(f"a {type(norms).__name__} of power "
                             f"{norms.power} read at power {power}")
        if isinstance(norms, RampSum):
            return _ramp_mass(norms)
        grads = norms
    else:
        grads = GradSum(power)
        grads.add(_column(norms))
    bad, count = grads.nonfinite, grads.count
    if bad > 1e-3 * count:
        raise RuntimeError(
            f"non-finite gradient at {bad} of {count} samples "
            f"({100.0 * bad / count:.2f}%)")
    return mean_ci(grads.kept)
