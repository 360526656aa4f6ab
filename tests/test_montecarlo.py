"""Estimators: interval coverage, verdict grading, content extrapolation
against exact boundary values, tail and median machinery, gradient integrals,
and the stream summaries they read.

An estimator reads a summary folded block by block from a stream, or a
per-point column, which it folds as one block; each test fills its
columns from drawn points block by block, as the checks do from their
streams, and the summary tests fold columns over random block partitions.
"""

import functools
import math

import numpy as np
import pytest

from isoplab.fields import (
    CutoffH1Field,
    CutoffH2Field,
    DistanceRamp,
    EuclideanNorm,
    LinearRamp,
    ProductField,
    PushForwardField,
    RadialRamp,
)
from isoplab.geometry import (
    BLOCK_ROWS,
    BallComplement,
    HalfSpace,
    PBallParams,
    coordinate_half_space,
    lp_norm,
    map_row_blocks,
)
from isoplab.montecarlo import (
    FAIL,
    INCONCLUSIVE,
    MOMENT_ROWS,
    PASS,
    RARE_COUNT,
    ContentEstimate,
    EstimateCI,
    GradSum,
    Moments,
    MomentSum,
    RampSum,
    Tally,
    _wls_intercept,
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
from isoplab.sampling import (
    SampleBatch,
    sample_ball,
    sample_product,
)


def _column(fn, points):
    """fn's value at every row of points, filled one row block at a time."""
    out, = map_row_blocks(lambda X: (fn(X),), [points], points.shape[0])
    return out


def _grad_norms(f, points):
    return _column(lambda X: lp_norm(f.grad(X), 2.0), points)


def test_estimate_ci_interval():
    e = EstimateCI(1.0, 0.1, 100)
    assert e.lo == pytest.approx(0.7)
    assert e.hi == pytest.approx(1.3)


def test_mean_ci_basics():
    e = mean_ci([2.0, 4.0, 6.0])
    assert e.mean == pytest.approx(4.0)
    assert e.std_err == pytest.approx(2.0 / np.sqrt(3.0))
    assert mean_ci([5.0]).std_err == 0.0
    with pytest.raises(ValueError):
        mean_ci([])


def test_bernoulli_ci_rare_floor():
    e = bernoulli_ci(0, 1000)
    assert e.mean == 0.0
    assert e.std_err > 0.0  # shrunk variance keeps rare events uncertain
    q = 0.5 / 1001
    assert e.std_err == pytest.approx(np.sqrt(q * (1 - q) / 1000))
    full = bernoulli_ci(1000, 1000)
    assert full.mean == 1.0 and full.std_err > 0.0
    mid = bernoulli_ci(300, 1000)
    assert mid.std_err == pytest.approx(np.sqrt(0.3 * 0.7 / 1000))
    with pytest.raises(ValueError):
        bernoulli_ci(5, 4)


def test_bernoulli_coverage():
    # 3-sigma intervals cover the true proportion in >= 99% of repetitions
    rng = np.random.default_rng(99)
    truth = 0.3
    hits = 0
    reps = 1000
    for _ in range(reps):
        k = rng.binomial(500, truth)
        e = bernoulli_ci(int(k), 500)
        hits += e.lo <= truth <= e.hi
    assert hits >= 0.99 * reps


def test_verdict_geq_strict_branches():
    assert verdict_geq(EstimateCI(1.0, 0.01, 10), 0.5) == PASS
    assert verdict_geq(EstimateCI(0.2, 0.01, 10), 0.5) == FAIL
    assert verdict_geq(EstimateCI(0.5, 0.05, 10), 0.5) == INCONCLUSIVE
    # exact equality with zero spread counts as PASS through the float tol
    assert verdict_geq(EstimateCI(0.5, 0.0, 10), 0.5) == PASS
    with pytest.raises(ValueError):
        verdict_geq(EstimateCI(1.0, 0.1, 10), 0.5, mode="bogus")


def test_verdict_geq_consistent_branches():
    assert verdict_geq(EstimateCI(0.45, 0.05, 10), 0.5, "consistent") == PASS
    assert verdict_geq(EstimateCI(0.2, 0.01, 10), 0.5, "consistent") == FAIL


@pytest.mark.parametrize("mode", ["strict", "consistent"])
def test_a_nan_side_is_inconclusive(mode):
    # NaN compares false with everything, so "no confident violation"
    # would read a NaN side as PASS in consistent mode
    nan = float("nan")
    assert verdict_geq(EstimateCI(nan, 0.0, 1), 0.0, mode) == INCONCLUSIVE
    assert verdict_leq(EstimateCI(nan, 0.0, 1), 0.0, mode) == INCONCLUSIVE
    assert verdict_geq(EstimateCI(0.5, 0.1, 1), nan, mode) == INCONCLUSIVE


@pytest.mark.parametrize("mode", ["strict", "consistent"])
def test_an_infinite_side_is_graded(mode):
    # an infinite end once made the tolerance infinite, so inf <= 1 PASSed
    inf = math.inf
    assert verdict_leq(EstimateCI.exact(inf), 1.0, mode) == FAIL
    assert verdict_leq(EstimateCI.exact(0.5), inf, mode) == PASS
    assert verdict_geq(EstimateCI.exact(0.5), inf, mode) == FAIL
    assert verdict_geq(EstimateCI.exact(-inf), 1.0, mode) == FAIL
    assert verdict_geq(EstimateCI.exact(inf), inf, mode) == PASS


def _leq_direct(lhs, rhs, mode):
    # lhs <= rhs graded by its own comparisons, the mirror of verdict_geq's
    r_lo, r_hi = ((rhs.lo, rhs.hi) if isinstance(rhs, EstimateCI)
                  else (rhs, rhs))
    tol = 1e-12 * (1.0 + (abs(lhs.lo) + abs(lhs.hi)) + (abs(r_lo) + abs(r_hi)))
    if mode == "consistent":
        return FAIL if lhs.lo > r_hi + tol else PASS
    if lhs.hi <= r_lo + tol:
        return PASS
    if lhs.lo > r_hi + tol:
        return FAIL
    return INCONCLUSIVE


def test_verdict_leq_mirrors_geq():
    assert verdict_leq(EstimateCI(0.2, 0.01, 10), 0.5) == PASS
    assert verdict_leq(EstimateCI(1.0, 0.01, 10), 0.5) == FAIL
    assert verdict_leq(EstimateCI(0.5, 0.05, 10), 0.5) == INCONCLUSIVE
    assert verdict_leq(EstimateCI(0.55, 0.05, 10), 0.5, "consistent") == PASS
    assert verdict_leq(EstimateCI(0.9, 0.01, 10), 0.5, "consistent") == FAIL
    # interval-valued right-hand sides participate in the tolerance
    assert verdict_leq(EstimateCI(0.5, 0.01, 10),
                       EstimateCI(0.8, 0.01, 10)) == PASS
    # verdict_leq is verdict_geq of the negated sides; its comparisons are
    # those of the direct rule below, ties at the interval ends included
    rng = np.random.default_rng(67)
    for _ in range(500):
        lhs = EstimateCI(rng.normal(), rng.choice([0.0, 1e-3, 0.1]), 10)
        bounds = [lhs.lo, lhs.hi, lhs.mean, rng.normal(),
                  np.nextafter(lhs.hi, np.inf), np.nextafter(lhs.lo, -np.inf)]
        bounds += [EstimateCI(b, rng.choice([0.0, 0.05]), 10) for b in bounds]
        for rhs in bounds:
            for mode in ("strict", "consistent"):
                assert verdict_leq(lhs, rhs, mode) == _leq_direct(lhs, rhs,
                                                                  mode)


def test_estimate_measure_half_space():
    params = PBallParams(2.0, 2)
    batch = sample_ball(params, 50000, seed=3)
    hs = coordinate_half_space(params, 0.3)
    est = estimate_measure(_column(hs.scalar, batch.points), hs.threshold)
    assert abs(est.mean - 0.3) <= 4.0 * est.std_err
    # a set of another dimension has no column on these points
    with pytest.raises(ValueError):
        _column(HalfSpace(np.array([1.0, 0.0, 0.0]), 0.1).scalar, batch.points)


def test_content_matches_exact_boundary_value():
    params = PBallParams(2.0, 2)
    batch = sample_ball(params, 200000, seed=11)
    hs = coordinate_half_space(params, 0.5)
    ladder = [0.04, 0.02, 0.01, 0.005]
    est, = content_from_batch(_column(hs.scalar, batch.points),
                              [hs.threshold], ladder)
    # the half-disc's exact boundary mass is 2/pi; the estimate lies within
    # 3 standard errors plus 2% of it
    exact = hs.analytic_boundary(params)
    assert exact == pytest.approx(2.0 / np.pi)
    slack = 3.0 * est.extrapolated.std_err + 0.02 * exact
    assert abs(est.extrapolated.mean - exact) <= slack
    assert len(est.per_epsilon) == 4
    assert not est.inconclusive


def test_content_single_rung_and_quotient_values():
    params = PBallParams(2.0, 2)
    batch = sample_ball(params, 20000, seed=13)
    hs = coordinate_half_space(params, 0.25)
    one, = content_from_batch(_column(hs.scalar, batch.points),
                              [hs.threshold], [0.02])
    assert one.extrapolated == one.per_epsilon[0][1]
    # quotient = (measure growth) / eps, by hand
    base = hs.indicator(batch.points).sum()
    grown = hs.enlarged(0.02).indicator(batch.points).sum()
    assert one.per_epsilon[0][1].mean == pytest.approx(
        (grown - base) / 20000 / 0.02)


def test_content_empty_enlargement_is_inconclusive():
    params = PBallParams(2.0, 2)
    batch = sample_ball(params, 1000, seed=17)
    far = HalfSpace(np.array([1.0, 0.0]), 5.0)
    est, = content_from_batch(_column(far.scalar, batch.points),
                              [far.threshold], [0.02, 0.01])
    assert est.inconclusive
    assert est.extrapolated.mean == 0.0


def test_content_ladder_validation():
    params = PBallParams(2.0, 2)
    batch = sample_ball(params, 100, seed=1)
    hs = coordinate_half_space(params, 0.5)
    scalars = _column(hs.scalar, batch.points)
    for bad in ([], [0.0, -0.1], [0.01, 0.02], [0.02, 0.02], [0.02, np.nan],
                [np.inf, 0.02]):
        with pytest.raises(ValueError):
            content_from_batch(scalars, [hs.threshold], bad)
    # an empty column has no proportions
    with pytest.raises(ValueError):
        content_from_batch(scalars[:0], [hs.threshold], [0.02])


def _tie_batch(set_, ladder, embed):
    """Points whose scalar lies exactly on the set's threshold and on every
    rung's lower threshold, next to them and between them, with a different
    multiplicity at each tie so that a wrong searchsorted side shows."""
    top = set_.threshold
    lows = [set_.enlarged(e).threshold for e in ladder]
    values = [top] * 3 + [np.nextafter(top, -np.inf)] * 2
    values += [np.nextafter(top, np.inf), top + 1.0, lows[-1] - 1.0]
    for j, low in enumerate(lows):
        values += [low] * (j + 1)
        values += [np.nextafter(low, -np.inf), np.nextafter(low, np.inf),
                   0.5 * (low + top)]
    X = np.array([embed(v) for v in values])
    batch = SampleBatch("V_PN", X.shape[1], X.shape[0], 0, X)
    # the ties are real: the set's own scalar hits every threshold exactly
    assert set([top] + lows) <= set(set_.scalar(X).tolist())
    return batch


def _loop_counts(batch, set_, ladder):
    # the per-rung indicator loop content_from_batch once ran, as reference
    X = batch.points
    return [int((set_.enlarged(e).indicator(X) & ~set_.indicator(X)).sum())
            for e in ladder]


def _rung_counts(est, n):
    return [round(q.mean * e * n) for e, q in est.per_epsilon]


@pytest.mark.parametrize("set_, embed", [
    (HalfSpace(np.array([1.0, 0.0]), 0.3), lambda v: [v, 0.25]),
    (HalfSpace(np.array([0.0, -1.0]), -0.2), lambda v: [0.5, -v]),
    (BallComplement(0.6), lambda v: [0.0, v]),
])
def test_content_counts_on_exact_ties_match_indicator_loop(set_, embed):
    ladder = [0.2, 0.1, 0.05, 0.01]
    batch = _tie_batch(set_, ladder, embed)
    est, = content_from_batch(_column(set_.scalar, batch.points),
                              [set_.threshold], ladder)
    reference = _loop_counts(batch, set_, ladder)
    assert _rung_counts(est, batch.count) == reference
    assert min(reference) > 0


def test_content_shared_scalar_sets_match_one_at_a_time():
    params = PBallParams(1.5, 3)
    batch = sample_ball(params, 3000, seed=53)
    ladder = [0.04, 0.02, 0.01]
    hs = coordinate_half_space(params, 0.4)
    families = [
        LinearRamp(np.array([0.6, 0.0, 0.8]), -0.2, 0.3),
        RadialRamp(3, 0.4, 0.7),
        DistanceRamp(hs, 3, 0.05, 0.2),
        DistanceRamp(BallComplement(0.7), 3, 0.05, 0.2),
    ]
    for phi in families:
        levels = [phi.superlevel((k + 0.5) / 8.0) for k in range(8)]
        scalars = _column(levels[0].scalar, batch.points)
        together = content_from_batch(scalars,
                                      [s.threshold for s in levels], ladder)
        assert len(together) == len(levels)
        for level, est in zip(levels, together):
            alone, = content_from_batch(_column(level.scalar, batch.points),
                                        [level.threshold], ladder)
            assert est == alone
            assert _rung_counts(est, batch.count) == _loop_counts(
                batch, level, ladder)


def _content_loop(column, thresholds, ladder):
    # the per-threshold loop content_from_batch once ran, as reference:
    # one bernoulli_ci per rung, then the intercept
    eps = np.asarray(ladder, dtype=float)
    out, counts = [], []
    for t in thresholds:
        ks = [int(((column >= t - e) & (column < t)).sum()) for e in eps]
        rungs = []
        for e, k in zip(eps, ks):
            ci = bernoulli_ci(k, column.size)
            rungs.append((float(e), EstimateCI(ci.mean / e, ci.std_err / e,
                                               column.size)))
        if len(rungs) >= 2:
            ys = np.array([q.mean for _, q in rungs])
            ses = np.array([q.std_err for _, q in rungs])
            extrapolated = EstimateCI(*_wls_intercept(eps, ys, ses),
                                      column.size)
        else:
            extrapolated = rungs[-1][1]
        out.append(ContentEstimate(tuple(rungs), extrapolated,
                                   inconclusive=not any(ks)))
        counts += ks
    return out, counts


def test_content_arrays_equal_the_per_threshold_loop():
    rng = np.random.default_rng(2024)
    saw_zero = saw_all = False
    seen_rungs = set()
    for trial in range(300):
        n = int(rng.integers(1, 400))
        rungs = 1 + trial % 4
        ladder = sorted(rng.uniform(1e-3, 0.5, rungs).tolist(), reverse=True)
        if trial % 5 == 0:
            # every point inside every rung: counts of n
            column = np.full(n, rng.normal())
            thresholds = [column[0] + 0.5 * ladder[-1]]
        else:
            column = rng.normal(size=n)
            if trial % 2:
                column = np.round(column, 1)    # ties on the thresholds
            thresholds = rng.normal(size=int(rng.integers(1, 70))).tolist()
            thresholds += [column[0], 9.0]      # 9.0: counts of 0
        reference, counts = _content_loop(column, thresholds, ladder)
        assert content_from_batch(column, thresholds, ladder) == reference
        saw_zero |= 0 in counts
        saw_all |= n in counts
        seen_rungs.add(rungs)
    assert saw_zero and saw_all and {1, 4} <= seen_rungs


@pytest.mark.parametrize("seed", range(5))
def test_wls_intercept_matches_lstsq_on_weighted_rows(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 9))
    xs = np.sort(rng.uniform(1e-3, 0.2, k))[::-1]
    ys = rng.normal(0.5, 0.1, k)
    ses = rng.uniform(0.01, 0.3, k)
    # rows of the design and the data scaled by sqrt(w) = 1/se
    design = np.column_stack([np.ones(k), xs]) / ses[:, None]
    beta = np.linalg.lstsq(design, ys / ses, rcond=None)[0]
    cov = np.linalg.inv(design.T @ design)
    b0, se0 = _wls_intercept(xs, ys, ses)
    assert b0 == pytest.approx(beta[0], rel=1e-12, abs=1e-12)
    assert se0 == pytest.approx(np.sqrt(cov[0, 0]), rel=1e-12)


def test_estimators_reject_points():
    # points are not a column: read as one, a (rows, dim) array would be
    # sorted and counted as rows * dim values
    params = PBallParams(1.5, 3)
    batch = sample_ball(params, 200, seed=59)
    hs = coordinate_half_space(params, 0.3)
    F = EuclideanNorm(3)
    estimators = [
        lambda v: estimate_measure(v, hs.threshold),
        lambda v: content_from_batch(v, [hs.threshold], [0.04, 0.02]),
        lambda v: integrate_grad(v),
        lambda v: estimate_median_and_phi(v, [0.0]),
        lambda v: estimate_tail(v, [0.5]),
    ]
    for estimate in estimators:
        estimate(_column(F, batch.points))
        for points in (batch, batch.points):
            with pytest.raises(ValueError):
                estimate(points)


def test_estimate_tail_levels_and_rare_flag():
    params = PBallParams(2.0, 2)
    radii = np.linalg.norm(sample_ball(params, 5000, seed=23).points, axis=1)
    pts = estimate_tail(radii, [0.5, 0.9999])
    # exact radial law: P{|x| >= t} = 1 - t^2
    assert abs(pts[0].estimate.mean - 0.75) <= 4.0 * pts[0].estimate.std_err
    assert not pts[0].rare
    assert pts[1].rare  # expected count ~ 1
    with pytest.raises(ValueError):
        estimate_tail(radii[:100], [np.inf])


def test_median_of_radius_on_the_disc():
    batch = sample_ball(PBallParams(2.0, 2), 40000, seed=29)
    F = EuclideanNorm(2)
    med, curve = estimate_median_and_phi(_column(F, batch.points),
                                         [0.0, 0.1])
    # P{|x| <= t} = t^2, so the median radius is 1/sqrt(2)
    assert abs(med - 2.0 ** -0.5) < 0.01
    assert abs(curve[0].estimate.mean - 0.5) < 0.01  # phi(0) ~ 1/2
    assert curve[1].estimate.mean < 0.5


def test_integrate_grad_exact_for_linear_ramp():
    # |grad| of a full-width ramp is constant, so the estimate is exact
    batch = sample_ball(PBallParams(2.0, 2), 2000, seed=37)
    ramp = LinearRamp(np.array([1.0, 0.0]), -2.0, 2.0)
    norms = _grad_norms(ramp, batch.points)
    est = integrate_grad(norms)
    assert est.mean == pytest.approx(0.25)
    assert est.std_err == 0.0
    sq = integrate_grad(norms, power=2)
    assert sq.mean == pytest.approx(0.0625)


def _every_field_class(p, n):
    xi = np.zeros(n)
    xi[0] = 1.0
    ramp = LinearRamp(xi, 0.0, 0.3)
    h1 = CutoffH1Field(p, n)
    on_ball = [ramp, RadialRamp(n, 0.3, 0.7),
               DistanceRamp(HalfSpace(xi, 0.2), n, 0.05, 0.1),
               DistanceRamp(BallComplement(0.6), n, 0.05, 0.1), h1,
               ProductField(ramp, h1)]
    on_product = [CutoffH2Field(p, n), PushForwardField(ProductField(ramp, h1), p)]
    return on_ball, on_product


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_grad_mass_is_the_mean_of_whole_batch_gradient_norms(p):
    # two row blocks and a partial one: blocked gradients give the bits of
    # one whole-batch grad call (np.linalg.norm equals lp_norm(., 2) bitwise)
    n, count = 3, 2 * BLOCK_ROWS + 17
    params = PBallParams(p, n)
    ball = sample_ball(params, count, seed=47)
    prod = sample_product(params, count, seed=48)
    on_ball, on_product = _every_field_class(p, n)
    for batch, fields in ((ball, on_ball), (prod, on_product)):
        for f in fields:
            want = mean_ci(np.linalg.norm(f.grad(batch.points), axis=1))
            assert integrate_grad(_grad_norms(f, batch.points)) == want, \
                type(f).__name__


@pytest.mark.parametrize("power", [1, 2])
@pytest.mark.parametrize("ramp", [
    LinearRamp(np.array([1.0, 0.0, 0.0]), 0.0, 0.3),
    LinearRamp(np.array([0.48, 0.6, 0.64]), -0.2, 0.4),
    RadialRamp(3, 0.3, 0.7),
    DistanceRamp(HalfSpace(np.array([1.0, 0.0, 0.0]), 0.2), 3, 0.05, 0.1),
    DistanceRamp(BallComplement(0.8), 3, 0.05, 0.2),
], ids=["ramp", "oblique_ramp", "radial", "half_space_shell", "ball_shell"])
def test_ramp_mass_from_its_count_is_the_column_mean(ramp, power):
    # a ramp's |grad f|_2 is its slope on the ramp and 0 elsewhere, so the
    # count of its on-ramp points, folded block by block, gives the mean
    # and standard error of the gradient-norm column to rounding
    count = 2 * BLOCK_ROWS + 17
    X = sample_ball(PBallParams(1.5, 3), count, seed=53).points
    scalar = ramp.superlevel(0.0).scalar(X)
    ramps = RampSum(ramp.slope, power)
    for lo in range(0, count, 5000):
        ramps.add(ramp.on_ramp(scalar[lo:lo + 5000]))
    assert 0 < ramps.on < ramps.count == count
    got = integrate_grad(ramps, power=power)
    want = integrate_grad(lp_norm(ramp.grad(X), 2.0), power=power)
    assert got.n_samples == want.n_samples
    assert got.mean == pytest.approx(want.mean, rel=1e-14, abs=0.0)
    assert got.std_err == pytest.approx(want.std_err, rel=1e-14, abs=0.0)
    with pytest.raises(ValueError):
        integrate_grad(ramps, power=3 - power)


def test_integrate_grad_drops_zero_gradient_fields():
    batch = sample_ball(PBallParams(2.0, 2), 500, seed=41)
    # flat on the ball: <x, e1> <= 1 < 2
    flat = LinearRamp(np.array([1.0, 0.0]), 2.0, 3.0)
    est = integrate_grad(_grad_norms(flat, batch.points))
    assert est.mean == 0.0


def test_integrate_grad_aborts_on_non_finite():
    class Broken:
        dim = 2

        def __call__(self, X):
            return np.zeros(len(X))

        def grad(self, X):
            return np.full_like(np.asarray(X, dtype=float), np.nan)

    batch = sample_ball(PBallParams(2.0, 2), 1000, seed=43)
    with pytest.raises(RuntimeError):
        integrate_grad(_grad_norms(Broken(), batch.points))


def test_rare_count_constant():
    assert RARE_COUNT == 10


# ---------------------------------------------------------------------------
# stream summaries: merged moments and threshold tallies
# ---------------------------------------------------------------------------

def _random_blocks(values, rng, cap):
    """values cut at random into consecutive blocks of 1 to cap rows, with
    a run of 1-row blocks at the start."""
    blocks, lo = [], 0
    while lo < values.size:
        rows = 1 if lo < 5 else int(rng.integers(1, cap + 1))
        blocks.append(values[lo:lo + rows])
        lo += rows
    return blocks


@pytest.mark.parametrize("seed", range(4))
def test_merged_moments_match_numpy_over_random_partitions(seed):
    # Chan, Golub and LeVeque's merge of per-block moments, 1-row blocks
    # included, agrees with numpy's one pass over the whole column
    rng = np.random.default_rng(seed)
    for count, cap in ((7, 3), (3000, 40), (3 * MOMENT_ROWS + 5, 3000)):
        col = 3.0 + 2.0 * rng.standard_normal(count)
        m = Moments(0, 0.0, 0.0)
        for block in _random_blocks(col, rng, cap):
            m = m.merge(Moments.of(block))
        assert m.count == count
        assert m.mean == pytest.approx(col.mean(), rel=1e-14)
        assert math.sqrt(m.m2 / (count - 1)) == pytest.approx(
            col.std(ddof=1), rel=1e-14)


def test_moment_sum_depends_on_the_values_not_the_blocks():
    # runs of MOMENT_ROWS values are fixed by position, so any block
    # partition gives the bits of the column folded as one block, and a
    # column of at most MOMENT_ROWS values gives numpy's mean and std
    rng = np.random.default_rng(5)
    col = rng.exponential(size=2 * MOMENT_ROWS + 17)
    want = mean_ci(col)
    for cap in (1, 97, MOMENT_ROWS, 3 * MOMENT_ROWS):
        sums = MomentSum()
        for block in _random_blocks(col, rng, cap):
            sums.add(block)
        assert mean_ci(sums) == want, cap
    short = col[:MOMENT_ROWS]
    est = mean_ci(short)
    assert est.mean == float(short.mean())
    assert est.std_err == float(short.std(ddof=1) / np.sqrt(short.size))
    # five streams side by side, their whole runs reduced together and
    # their deviations formed in the blocks themselves: per stream, the
    # bits of Moments.of on each run merged in order, whatever the blocks
    rows = rng.exponential(size=(5, 3 * MOMENT_ROWS + 17))
    runs = [functools.reduce(Moments.merge, (
        Moments.of(row[lo:lo + MOMENT_ROWS])
        for lo in range(0, row.size, MOMENT_ROWS))) for row in rows]
    for cap in (1, 97, MOMENT_ROWS, 3 * MOMENT_ROWS + 17):
        sums, lo = MomentSum(5), 0
        for block in _random_blocks(rows[0], rng, cap):
            sums.add(np.ascontiguousarray(rows[:, lo:lo + block.size]),
                     overwrite=True)
            lo += block.size
        assert sums.stream_moments() == runs, cap
    # a Moments gives the interval of its values
    assert [mean_ci(m) for m in runs] == [mean_ci(row) for row in rows]


def test_one_value_keeps_a_zero_std_err():
    sums = MomentSum()
    sums.add(np.array([2.5]))
    assert mean_ci(sums) == EstimateCI(2.5, 0.0, 1)
    assert mean_ci(np.array([2.5])) == EstimateCI(2.5, 0.0, 1)
    assert Moments(0, 0.0, 0.0).merge(Moments.of(np.array([2.5]))) == \
        Moments(1, 2.5, 0.0)
    with pytest.raises(ValueError):
        mean_ci(MomentSum())


def test_streamed_tallies_equal_searchsorted_on_the_sorted_column():
    # counts at thresholds fixed before the stream are the integers that
    # the sorted whole column gives, exactly, ties included
    rng = np.random.default_rng(11)
    col = rng.integers(0, 50, 5000).astype(float) / 7.0
    thresholds = np.concatenate([col[:20], [-1.0, 0.0, 3.5, 100.0]])
    tally = Tally(thresholds)
    for block in _random_blocks(col, rng, 300):
        tally.add(block)
    s = np.sort(col)
    assert tally.count == col.size
    assert np.array_equal(tally.below(thresholds),
                          np.searchsorted(s, thresholds, "left"))
    assert np.array_equal(tally.at_least(thresholds),
                          col.size - np.searchsorted(s, thresholds, "left"))
    assert np.array_equal(tally.at_most(thresholds),
                          np.searchsorted(s, thresholds, "right"))
    with pytest.raises(ValueError):
        tally.below([0.5])


def test_content_from_a_streamed_tally_equals_the_column():
    params = PBallParams(1.5, 3)
    x1 = sample_ball(params, 5000, seed=61).points[:, 0]
    tops = [coordinate_half_space(params, a).threshold for a in (0.1, 0.3)]
    ladder = [0.04, 0.02, 0.01]
    tally = content_tally(tops, ladder)
    for lo in range(0, x1.size, 333):
        tally.add(x1[lo:lo + 333])
    assert content_from_batch(tally, tops, ladder) == \
        content_from_batch(x1, tops, ladder)
    assert estimate_measure(tally, tops[0]) == estimate_measure(x1, tops[0])


def test_integrate_grad_counts_non_finite_values_over_the_stream():
    # one non-finite norm in a 10-row block is 10% of the block but 0.01%
    # of a 10^4-row stream: dropped, not an abort; 11 of them abort
    norms = np.full(10 ** 4, 0.5)
    norms[3] = np.nan
    grads = GradSum()
    for lo in range(0, norms.size, 10):
        grads.add(norms[lo:lo + 10])
    est = integrate_grad(grads)
    assert est == mean_ci(norms[np.isfinite(norms)])
    assert est.n_samples == 10 ** 4 - 1
    norms[100:110] = np.inf
    grads = GradSum()
    for lo in range(0, norms.size, 10):
        grads.add(norms[lo:lo + 10])
    with pytest.raises(RuntimeError):
        integrate_grad(grads)
    with pytest.raises(ValueError):
        integrate_grad(GradSum(power=2))
