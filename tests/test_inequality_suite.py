"""Inequality checks: frozen closed-form oracles, verdict discipline, and
the structural identities each check is built on.

Monte Carlo rows here use small counts; the acceptance suite reruns the
expensive grids at full sample sizes.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

import isoplab._special
import isoplab.fields
import isoplab.geometry
import isoplab.inequality_suite
from isoplab.fields import (
    CutoffH1Field,
    CutoffH2Field,
    DistanceRamp,
    LinearRamp,
    ProductField,
    PushForwardField,
    push_forward_grad,
)
from isoplab.geometry import (
    BLOCK_ROWS,
    BallComplement,
    HalfSpace,
    PBallParams,
    block_rows,
    coordinate_half_space,
    jacobian_op_norms,
    lp_dual,
    lp_norm,
    map_row_blocks,
    marginal_density,
    marginal_isf,
    marginal_level_density,
)
from isoplab.inequality_suite import (
    FAIL,
    GRADING,
    HELD_OUT,
    INCONCLUSIVE,
    LIPSCHITZ_ROWS,
    PASS,
    CheckReport,
    ConcentrationCurve,
    _default_plateau_catalog,
    _sorted_quantiles,
    InequalityReport,
    barthe_plan,
    bobkov_plan,
    check_kls,
    check_lemma5,
    check_product_isoperimetry,
    cell_seed,
    coarea_plan,
    concentration_from_isoperimetry,
    cutoff_chain_plan,
    default_eps_ladder,
    functional_equivalence_plan,
    isotropy_constants,
    l2_form_plan,
    lemma4_plan,
    lemma5_constant,
    paouris_tail_plan,
    run_cell,
    scalar_groups,
    sz_concentration_plan,
    sz_tail_plan,
    theorem1_plan,
    theorem1_rhs,
    TRANSFER_ROWS,
    cutoff_chain_norms,
)
from isoplab.montecarlo import (
    EstimateCI,
    _wls_intercept,
    bernoulli_ci,
    content_from_batch,
    estimate_median_and_phi,
    estimate_tail,
    mean_ci,
)
from isoplab.sampling import product_ball_blocks, sample_ball, sample_product


def _column(fn, points):
    """fn's value at every row of points, filled one row block at a time."""
    out, = map_row_blocks(lambda X: (fn(X),), [points], points.shape[0])
    return out


def _stream_batch(sample, params, count, seed, role=GRADING):
    """The whole batch of the (p, n) cell's stream in ``role``, ball points
    (``sample_ball``) or product rows (``sample_product``)."""
    return sample(params, count, cell_seed(seed, params.p, params.n, role))


def _stream_zp(params, count, seed, role=GRADING):
    """|z|_p of the (p, n) cell's stream in ``role`` as the draw gives it,
    s^{1/p} of the s = |z|_p^p that T divides by."""
    blocks = product_ball_blocks(params, count,
                                 cell_seed(seed, params.p, params.n, role))
    return np.concatenate([zp for _, (_, _, zp) in blocks])


# ---------------------------------------------------------------------------
# report containers
# ---------------------------------------------------------------------------

def test_report_validation():
    with pytest.raises(ValueError):
        InequalityReport("x", (1.0, 2, 0.1, 0.0), 1.0, 1.0, "MAYBE")
    with pytest.raises(ValueError):
        InequalityReport("x", (1.0, 2, 0.1), 1.0, 1.0, PASS)
    r = InequalityReport("x", (1.0, 2, 0.1, 0.0), EstimateCI(0.5, 0.1, 9),
                         0.0, PASS)
    assert r.lhs.mean == 0.5
    assert r.lhs.std_err == 0.1
    assert math.isnan(r.ratio)  # rhs <= 0 has no meaningful ratio
    plain = InequalityReport("x", (1.0, 2, 0.1, 0.0), EstimateCI.exact(0.6),
                             0.3, PASS)
    assert plain.lhs.std_err == 0.0
    assert plain.lhs.lo == plain.lhs.hi == 0.6
    assert plain.ratio == pytest.approx(2.0)


def test_check_report_verdict_counts():
    rows = tuple(
        InequalityReport("x", (1.0, 2, 0.1, 0.0), 1.0, 0.5, v)
        for v in (PASS, PASS, INCONCLUSIVE))
    rep = CheckReport("x", rows, {})
    assert rep.verdicts() == {PASS: 2, FAIL: 0, INCONCLUSIVE: 1}


def test_default_eps_ladder_scaling():
    assert default_eps_ladder(2.0, 7) == [0.1, 0.05, 0.02, 0.01]
    np.testing.assert_allclose(default_eps_ladder(1.0, 4),
                               [0.05, 0.025, 0.01, 0.005])


# ---------------------------------------------------------------------------
# profile ratio scans (exact oracles)
# ---------------------------------------------------------------------------

def test_theorem1_rhs_value():
    assert theorem1_rhs(2.0, 2, 0.5) == pytest.approx(
        math.sqrt(2.0) * 0.5 * math.sqrt(math.log(2.0)), rel=1e-15)
    assert theorem1_rhs(1.0, 4, 0.1) == pytest.approx(0.4, rel=1e-15)


def test_theorem1_exact_ratio_on_the_disc():
    # p = 2, n = 2, a = 1/2: boundary mass is the marginal density at 0,
    # which is 2/pi; everything else is the closed-form denominator
    rep = run_cell(2.0, 2, [theorem1_plan(2.0, 2, [0.5])], 10 ** 4, 0)[0]
    row = rep.reports[0]
    assert row.lhs.mean == pytest.approx(2.0 / np.pi, rel=1e-14)
    expected = (2.0 / np.pi) / theorem1_rhs(2.0, 2, 0.5)
    assert rep.constants["c_hat"] == pytest.approx(expected, rel=1e-12)
    assert row.verdict == PASS


def test_theorem1_closed_form_at_p_one():
    # p = 1: the ratio is (2a)^(-1/n) exactly
    for n, a in [(2, 0.5), (4, 0.1), (8, 0.25)]:
        rep = run_cell(1.0, n, [theorem1_plan(1.0, n, [a])], 10 ** 4, 0)[0]
        assert rep.constants["c_hat"] == pytest.approx(
            (2.0 * a) ** (-1.0 / n), rel=1e-12)
    rep = run_cell(1.0, 6, [theorem1_plan(1.0, 6, [0.5])], 10 ** 4, 0)[0]
    assert rep.constants["c_hat"] == pytest.approx(1.0)


def test_theorem1_band_constants():
    rep = run_cell(1.5, 4, [theorem1_plan(1.5, 4, [0.1, 0.25, 0.5])],
                   10 ** 4, 0)[0]
    assert len(rep.reports) == 3
    assert rep.constants["band"] >= 1.0
    assert rep.constants["c_hat"] > 0.0
    assert rep.constants["ratio_max"] == pytest.approx(
        rep.constants["c_hat"] * rep.constants["band"])
    assert rep.verdicts()[FAIL] == 0


def test_theorem1_and_kls_hold_down_to_the_smallest_levels():
    # t_a rounds to 1 below a ~ 1e-17 at these (p, n); the exact rows
    # still read the boundary mass at level a (p = 2, n = 4, a = 1e-80
    # used to raise ZeroDivisionError)
    grid = [1e-300, 1e-80, 1e-30, 0.5]
    for p, n in ((2.0, 4), (1.0, 2), (1.5, 1024)):
        params = PBallParams(p, n)
        for rep in (run_cell(p, n, [theorem1_plan(p, n, grid)], 10 ** 4, 0)[0],
                    check_kls(p, n, grid)):
            assert rep.verdicts() == {PASS: 4, FAIL: 0, INCONCLUSIVE: 0}
            assert all(r.lhs.mean > 0.0 for r in rep.reports)
        rows = run_cell(p, n, [theorem1_plan(p, n, grid)], 10 ** 4,
                        0)[0].reports
        assert [r.lhs.mean for r in rows] == [
            marginal_level_density(params, a) for a in grid]


def test_theorem1_level_validation():
    with pytest.raises(ValueError):
        theorem1_plan(2.0, 2, [0.6])
    with pytest.raises(ValueError):
        theorem1_plan(2.0, 2, [])


def test_theorem1_with_explicit_families():
    # second family: the same half-spaces rotated 45 degrees; at p = 2 the
    # ball is rotation-invariant so the coordinate family stays minimal
    params = PBallParams(2.0, 2)
    diag = np.array([1.0, 1.0]) / math.sqrt(2.0)

    def coordinate(a):
        return coordinate_half_space(params, a)

    def rotated(a):
        return HalfSpace(diag, float(marginal_isf(params, a)))

    rep = run_cell(2.0, 2, [theorem1_plan(
        2.0, 2, [0.25, 0.5],
        sets=[("coordinate", coordinate), ("rotated", rotated)])], 4000, 1)[0]
    assert len(rep.reports) == 4
    assert rep.constants["argmin_coordinate_share"] == 1.0
    # family index is recorded in param2
    assert [r.params[3] for r in rep.reports] == [0.0, 1.0, 0.0, 1.0]
    # on B_1^2, <x, diag> is uniform on [-1/sqrt 2, 1/sqrt 2], so the
    # diagonal half-space of measure a has threshold (1 - 2a)/sqrt 2 and
    # boundary mass 1/sqrt 2 at every a; the coordinate one has sqrt(2a):
    # 0.447 at a = 0.1, where it is the minimum, and 1 at a = 1/2, where
    # the diagonal undercuts it
    params = PBallParams(1.0, 2)

    def diagonal(a):
        return HalfSpace(diag, (1.0 - 2.0 * a) / math.sqrt(2.0))

    for seed in (1, 2, 3):
        rep = run_cell(1.0, 2, [theorem1_plan(
            1.0, 2, [0.1, 0.5],
            sets=[("coordinate", coordinate), ("diagonal", diagonal)])],
            20000, seed)[0]
        assert rep.constants["argmin_coordinate_share"] == 0.5, seed


def test_product_isoperimetry_exact_ratios():
    for p in (1.0, 1.5, 2.0):
        rep = check_product_isoperimetry(p, 3, [0.1, 0.25, 0.5])
        nu_rows = [r for r in rep.reports if r.params[3] == 1.0]
        # one-sided factor: density at the (1-a)-quantile is exactly
        # p a log^((p-1)/p)(1/a), so the model ratio is exactly p
        for r in nu_rows:
            assert r.ratio == pytest.approx(p, rel=1e-10)
    mu_rows = [r for r in check_product_isoperimetry(1.0, 5, [0.3]).reports
               if r.params[3] == 0.0]
    assert mu_rows[0].ratio == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# enlargement bounds
# ---------------------------------------------------------------------------

def test_bobkov_rhs_closed_form_on_the_disc():
    params = PBallParams(2.0, 2)
    rep = run_cell(2.0, 2, [bobkov_plan(
        2.0, 2, [coordinate_half_space(params, 0.5)], r_grid=[1.0])],
        20000, 3)[0]
    row = rep.reports[0]
    # a = 1/2 and V{|x|_2 <= 1} = 1: rhs = log(2) / 2
    assert row.rhs == pytest.approx(math.log(2.0) / 2.0, rel=1e-12)
    assert row.params[3] == pytest.approx(0.5)  # the set's measure
    assert row.verdict == PASS
    assert rep.constants["min_slack"] > 1.0  # 2/pi well above log(2)/2


def test_barthe_rhs_closed_form_on_the_disc():
    params = PBallParams(2.0, 2)
    rep = run_cell(2.0, 2, [barthe_plan(
        2.0, 2, [coordinate_half_space(params, 0.5)], r_grid=[1.0])],
        20000, 3)[0]
    row = rep.reports[0]
    # (n/2r)[(2 (1/2)^(1-1/n)) mass^(1/n) - 1] = sqrt(2) - 1 here
    assert row.rhs == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-12)
    assert row.verdict == PASS


def test_enlargement_r_grid_validation():
    params = PBallParams(2.0, 2)
    hs = coordinate_half_space(params, 0.5)
    with pytest.raises(ValueError):
        bobkov_plan(2.0, 2, [hs], r_grid=[])
    with pytest.raises(ValueError):
        bobkov_plan(2.0, 2, [hs], r_grid=[-1.0])


def test_enlargement_sorts_each_shared_scalar_once(monkeypatch):
    # the sets with no closed-form boundary that threshold one scalar, here
    # three oblique half-spaces on one direction, share one column, one
    # sort and one content_from_batch call, with the same estimates as one
    # set at a time; the coordinate sets read their closed form
    p, n, count, seed = 1.5, 3, 5000, 7
    params = PBallParams(p, n)
    xi = np.array([0.6, 0.8, 0.0])
    sets = [HalfSpace(xi, 0.3), coordinate_half_space(params, 0.1),
            BallComplement(0.6), HalfSpace(xi, 0.1),
            coordinate_half_space(params, 0.3, axis=1), HalfSpace(xi, -0.1),
            coordinate_half_space(params, 0.25)]
    ladder = default_eps_ladder(p, n)
    calls = []
    real = isoplab.inequality_suite.content_from_batch

    def counting(source, thresholds, eps):
        calls.append(len(thresholds))
        return real(source, thresholds, eps)

    monkeypatch.setattr(isoplab.inequality_suite, "content_from_batch",
                        counting)
    rep = run_cell(p, n, [bobkov_plan(p, n, sets, [1.0])], count, seed)[0]
    assert calls == [3, 1]
    batch = _stream_batch(sample_ball, params, count, seed)
    for row, set_ in zip(rep.reports, sets):
        exact = set_.analytic_boundary(params)
        if exact is None:
            assert row.lhs == real(_column(set_.scalar, batch.points),
                                   [set_.threshold], ladder)[0].extrapolated
        else:
            assert isinstance(set_, HalfSpace) and set_.level is not None
            assert row.lhs == EstimateCI.exact(exact)
            assert row.lhs.mean == exact


def test_ball_complement_off_the_ball_takes_the_exact_path():
    # at p = 2, {|x|_2 >= 1.5} has boundary content 0: the row reads it and
    # PASSes, where the ladder's empty enlargements made it INCONCLUSIVE
    rep = run_cell(2.0, 3, [bobkov_plan(2.0, 3, [BallComplement(1.5)], [0.5])],
                   2000, 3)[0]
    row, = rep.reports
    assert row.lhs == EstimateCI.exact(0.0)
    assert row.verdict == PASS


@dataclass(frozen=True)
class _HalfSpaceStatedAtAHalf(HalfSpace):
    # a half-space that states measure 1/2 whatever its threshold
    def analytic_measure(self, params):
        return 0.5


@pytest.mark.parametrize("plan", [bobkov_plan, barthe_plan],
                         ids=["check_bobkov_inequality",
                              "check_barthe_dimensional"])
def test_enlargement_fails_on_a_misstated_measure(plan):
    # negative control: a half-space of measure 0.02 stated at 1/2 has
    # content about 0.17 at p = 1, n = 2, r = n^-kappa, against a bound of
    # 0.32 (Bobkov) or 0.36 (Barthe); stated truly, the same cell passes
    p, n = 1.0, 2
    good = coordinate_half_space(PBallParams(p, n), 0.02)
    bad = _HalfSpaceStatedAtAHalf(good.xi, good.t)
    r_grid = [n ** -0.5]  # kappa = 1/2 at p = 1
    row, = run_cell(p, n, [plan(p, n, [bad], r_grid)], 5000, 3)[0].reports
    assert row.params[3] == 0.5
    assert row.verdict == FAIL
    row, = run_cell(p, n, [plan(p, n, [good], r_grid)], 5000, 3)[0].reports
    assert row.verdict == PASS


def test_scalar_groups_follow_the_shared_scalar():
    e0, e1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    sets = [HalfSpace(e0, 0.1), BallComplement(0.5), HalfSpace(e1, 0.2),
            HalfSpace(e0, -0.3), BallComplement(0.9)]
    assert scalar_groups(sets) == [[0, 3], [1, 4], [2]]


def test_bobkov_never_fails_on_defaults():
    params = PBallParams(1.0, 2)
    sets = [coordinate_half_space(params, a) for a in (0.1, 0.25, 0.5)]
    rep = run_cell(1.0, 2, [bobkov_plan(1.0, 2, sets, r_grid=[0.5, 1.0])],
                   20000, 5)[0]
    assert len(rep.reports) == 6
    assert rep.verdicts()[FAIL] == 0


# ---------------------------------------------------------------------------
# tails and concentration
# ---------------------------------------------------------------------------

def test_sz_tail_matches_exact_radial_law():
    # p = 2: P{|x|_2 >= t} = 1 - t^n exactly
    n = 3
    rep = run_cell(2.0, n, [sz_tail_plan(2.0, n, [0.25, 0.5, 0.75])], 20000,
                   7)[0]
    assert rep.constants["c_hat"] > 0.0
    for row in rep.reports:
        t = row.params[2]
        exact = 1.0 - t ** n
        assert abs(row.lhs.mean - exact) <= 4.0 * row.lhs.std_err + 1e-4
        assert row.verdict != FAIL
        # the regime flag is a pure function of the threshold
        assert row.params[3] == (1.0 if t >= 2.0 else 0.0)


def test_sz_tail_level_validation():
    with pytest.raises(ValueError):
        sz_tail_plan(2.0, 2, [0.0])
    with pytest.raises(ValueError):
        sz_tail_plan(2.0, 2, [1.5])


def test_sz_concentration_shape():
    rep = run_cell(2.0, 4, [sz_concentration_plan(
        2.0, 4, "coordinate", [0.25, 0.5, 0.9])], 20000, 9)[0]
    assert rep.constants["c1_hat"] > 0.0
    assert rep.verdicts()[FAIL] == 0
    by_h = {round(r.params[2], 12): r for r in rep.reports}
    # the median level lands at h = 0 and grades phi(0) <= 1/2
    zero = by_h[0.0]
    assert zero.rhs == 0.5 and zero.verdict == PASS
    # below-median offsets carry no claim
    below = [r for r in rep.reports if r.params[2] < 0.0]
    assert all(r.verdict == PASS and r.rhs == 1.0 for r in below)


@pytest.mark.parametrize("functional", ["diagonal", "euclidean_norm"])
def test_sz_concentration_of_the_other_catalog_functionals(functional):
    # Schechtman-Zinn holds for every 1-Lipschitz functional, not only a
    # coordinate; on the Euclidean ball of R^4 both tails are exact:
    # <x, theta> has a coordinate's law, and P{|x|_2 > r} = 1 - r^4
    levels = [0.25, 0.5, 0.75, 0.9]
    rep = run_cell(2.0, 4, [sz_concentration_plan(
        2.0, 4, functional, levels)], 20000, 9)[0]
    assert rep.constants["c1_hat"] > 0.0
    assert rep.verdicts()[FAIL] == 0
    if functional == "diagonal":
        coord = run_cell(2.0, 4, [sz_concentration_plan(
            2.0, 4, "coordinate", levels)], 20000, 9)[0]
        for r, c in zip(rep.reports, coord.reports):
            gap = abs(r.lhs.mean - c.lhs.mean)
            assert gap <= 5.0 * (r.lhs.std_err + c.lhs.std_err) + 0.01
    else:
        med = 0.5 ** 0.25
        for r in rep.reports:
            exact = 1.0 - min(med + r.params[2], 1.0) ** 4
            assert abs(r.lhs.mean - exact) <= 5.0 * r.lhs.std_err + 0.01


def test_sorted_quantiles_equal_numpy_linear_quantiles():
    # the held-out thresholds come off the sorted column: the bits of
    # np.quantile's linear method, ties and one- and two-point columns too
    rng = np.random.default_rng(5)
    levels = [1e-9, 0.01, 0.25, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0 - 1e-12]
    for count in (1, 2, 3, 10, 999, 4096):
        for col in (rng.standard_normal(count),
                    rng.integers(0, 4, count).astype(float)):
            col = np.sort(col)
            assert _sorted_quantiles(col, levels) == \
                np.quantile(col, levels).tolist(), count


def test_scaled_sorted_quantiles_equal_those_of_the_scaled_column():
    # the Paouris thresholds scale the two order statistics each level
    # reads, c s[i] being (c s)[i]: the bits of the scaled column's
    # quantiles, with no copy of the column
    rng = np.random.default_rng(6)
    levels = [1e-9, 0.01, 0.5, 0.75, 0.9, 0.99, 1.0 - 1e-12]
    for p, n in ((1.0, 2), (1.25, 3), (1.5, 4), (2.0, 256)):
        c_np = isotropy_constants(p, n).c_np
        for count in (1, 2, 999, 10 ** 5):
            col = np.sort(rng.random(count))
            assert _sorted_quantiles(col, levels, c_np) == \
                _sorted_quantiles(c_np * col, levels), (p, n, count)


# two row blocks and a partial one of the n = 3 streams
STREAM_COUNT = 2 * BLOCK_ROWS + 17


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_streamed_tail_checks_equal_the_batch_recipe(p):
    # the checks read their draws block by block; the rows must be those of
    # the same recipe on whole sample_ball batches of the cell's held-out
    # and grading streams
    n, count, seed, levels = 3, STREAM_COUNT, 37, [0.5, 0.9, 0.99]
    params = PBallParams(p, n)
    calib, batch = (
        _stream_batch(sample_ball, params, count, seed, role).points
        for role in (HELD_OUT, GRADING))
    rep = run_cell(p, n, [sz_tail_plan(p, n, levels)], count, seed)[0]
    want = estimate_tail(lp_norm(batch, 2.0),
                         np.quantile(lp_norm(calib, 2.0), levels))
    assert [r.lhs for r in rep.reports] == [t.estimate for t in want]
    c_np = isotropy_constants(p, n).c_np
    rep = run_cell(p, n, [paouris_tail_plan(p, n, levels)], count, seed)[0]
    want = estimate_tail(c_np * lp_norm(batch, 2.0),
                         np.quantile(c_np * lp_norm(calib, 2.0), levels))
    assert [r.lhs for r in rep.reports] == [t.estimate for t in want]
    F = isoplab.fields.CoordinateFunctional(n)
    rep = run_cell(p, n, [sz_concentration_plan(p, n, "coordinate", levels)],
                   count, seed)[0]
    med0 = float(np.median(F(calib)))
    _, curve = estimate_median_and_phi(
        _column(F, batch),
        [float(np.quantile(F(calib), q)) - med0 for q in levels])
    assert [r.lhs for r in rep.reports] == [c.estimate for c in curve]


def test_sz_concentration_spot_checks_the_streamed_pairs():
    class Liar(isoplab.fields.CoordinateFunctional):
        def __call__(self, X):
            return 5.0 * super().__call__(X)

    with pytest.raises(ValueError, match="Lipschitz"):
        run_cell(1.5, 3, [sz_concentration_plan(1.5, 3, Liar(3), [0.5, 0.9])],
                 STREAM_COUNT, 41)[0]


def test_lipschitz_spot_check_catches_liars():
    # a functional that is no catalog field is spot-checked all the same
    class Liar:
        lipschitz_constant = 1.0
        dim = 2

        def __call__(self, X):
            return 5.0 * np.asarray(X)[:, 0]

    with pytest.raises(ValueError, match="Lipschitz"):
        run_cell(2.0, 2, [sz_concentration_plan(2.0, 2, Liar(), [0.5, 0.9])],
                 2000, 31)[0]


def test_sz_concentration_spot_checks_within_every_leading_block():
    # at n = 256 a block has 127 rows, so the first LIPSCHITZ_ROWS rows of
    # the grading stream span two blocks; a functional that lies only on
    # the second block's rows raises, and one that lies only past
    # LIPSCHITZ_ROWS is not seen
    p, n, count, seed = 1.5, 256, 400, 41
    step = block_rows(n + 1)
    assert step == 127 and step < LIPSCHITZ_ROWS < 2 * step
    rows = _stream_batch(sample_ball, PBallParams(p, n), count, seed).points

    class BlockLiar(isoplab.fields.CoordinateFunctional):
        # 100 x_1 on the given rows: a coordinate differs by about
        # n^{-1/p} = 0.025 between two points, which lie about 0.6 apart
        def __init__(self, lying):
            super().__init__(n)
            self.lying = {x.tobytes() for x in lying}

        def __call__(self, X):
            F = super().__call__(X)
            lie = np.array([x.tobytes() in self.lying for x in X])
            return np.where(lie, 100.0 * F, F)

    levels = [0.5, 0.9]
    with pytest.raises(ValueError, match="Lipschitz"):
        run_cell(p, n, [sz_concentration_plan(
            p, n, BlockLiar(rows[step:2 * step]), levels)], count, seed)[0]
    rep = run_cell(p, n, [sz_concentration_plan(
        p, n, BlockLiar(rows[2 * step:3 * step]), levels)], count, seed)[0]
    assert len(rep.reports) == len(levels)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_streamed_lemma4_equals_the_batch_recipe(p):
    # the ball event reads the grading stream's ball points, the product
    # event their product rows
    n, count, seed = 3, STREAM_COUNT, 43
    params = PBallParams(p, n)
    normsp = _stream_zp(params, count, seed)
    norms2 = lp_norm(_stream_batch(sample_ball, params, count, seed).points,
                     2.0)
    rep = run_cell(p, n, [lemma4_plan(p, n)], count, seed)[0]
    kappa = (2.0 - p) / (2.0 * p)
    want = []
    for c2 in (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0):
        want += [bernoulli_ci(int((norms2 >= c2 * n ** -kappa).sum()), count),
                 bernoulli_ci(int((normsp <= n ** (1.0 / p) / c2).sum()), count)]
    assert [r.lhs for r in rep.reports] == want


def test_sz_concentration_rejects_constant_functionals():
    with pytest.raises(ValueError):
        run_cell(2.0, 3, [sz_concentration_plan(
            2.0, 3, lambda X: np.full(len(X), 0.3), [0.5])], 2000, 0)[0]


def test_concentration_curve_p1_closed_form():
    # p = 1: psi(u) = log(1/2u)/(c n) and the bound is identical
    curve = concentration_from_isoperimetry(0.7, 1.0, 5, [0.4, 0.1, 0.01])
    expected = np.log(1.0 / (2.0 * curve.u_grid)) / (0.7 * 5)
    np.testing.assert_allclose(curve.psi_numeric, expected, rtol=1e-10)
    np.testing.assert_allclose(curve.psi_closed_form, expected, rtol=1e-12)


def test_concentration_curve_p2_antiderivative():
    # p = 2: psi(u) = (2/(c sqrt(n)))(sqrt(log(1/u)) - sqrt(log 2))
    c, n = 1.3, 4
    us = np.array([0.4, 0.2, 0.05, 0.001])
    curve = concentration_from_isoperimetry(c, 2.0, n, us)
    expected = 2.0 / (c * math.sqrt(n)) * (np.sqrt(np.log(1.0 / us))
                                           - math.sqrt(math.log(2.0)))
    np.testing.assert_allclose(curve.psi_numeric, expected, rtol=1e-10)
    assert np.all(curve.psi_numeric <= curve.psi_closed_form * (1 + 1e-9))
    # psi(1/2) = 0
    at_half = concentration_from_isoperimetry(c, 2.0, n, [0.5])
    assert abs(at_half.psi_numeric[0]) < 1e-14


@pytest.mark.parametrize("p", [1.25, 1.5])
def test_concentration_curve_against_quadrature(p):
    # psi(u) = integral over [u, 1/2] of 1/(c n^{1/p} v log^{1-1/p}(1/v))
    c, n = 0.9, 3
    scale = c * n ** (1.0 / p)
    us = [0.45, 0.25, 0.1, 0.01, 1e-4]
    curve = concentration_from_isoperimetry(c, p, n, us)
    for u, psi in zip(us, curve.psi_numeric):
        val, _ = quad(lambda v: 1.0 / (scale * v * np.log(1.0 / v)
                                       ** (1.0 - 1.0 / p)),
                      u, 0.5, epsabs=1e-14, epsrel=1e-12, limit=400)
        assert abs(psi - val) <= 1e-10 * val, (u, psi, val)
    assert np.all(curve.psi_numeric <= curve.psi_closed_form)


def test_concentration_curve_validation():
    with pytest.raises(ValueError):
        concentration_from_isoperimetry(0.0, 2.0, 4, [0.1])
    with pytest.raises(ValueError):
        concentration_from_isoperimetry(1.0, 2.0, 4, [0.6])
    with pytest.raises(ValueError):
        concentration_from_isoperimetry(1.0, 2.0, 4, [])
    with pytest.raises(ValueError):
        ConcentrationCurve(np.array([0.1]), np.array([1.0, 2.0]),
                           np.array([1.0]))


# ---------------------------------------------------------------------------
# the two small-probability estimates
# ---------------------------------------------------------------------------

def test_lemma4_never_fails_and_is_monotone():
    rep = run_cell(1.0, 2, [lemma4_plan(1.0, 2)], 20000, 11)[0]
    assert rep.verdicts()[FAIL] == 0
    ball_means = [r.lhs.mean for r in rep.reports if r.params[3] == 0.0]
    prod_means = [r.lhs.mean for r in rep.reports if r.params[3] == 1.0]
    assert ball_means == sorted(ball_means, reverse=True)
    assert prod_means == sorted(prod_means, reverse=True)
    for key in ("C2_for_C1=1", "C2_for_C1=2"):
        val = rep.constants[key]
        assert val is None or val in (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)


def test_lemma5_constant_frozen_values():
    assert lemma5_constant(1.0, 0.0) == pytest.approx(math.e, rel=1e-12)
    # alpha = 1/2, A = 1/Gamma(1/2): C = 2e
    a_half = 1.0 / math.sqrt(math.pi)
    assert lemma5_constant(a_half, 0.5) == pytest.approx(2.0 * math.e,
                                                         rel=1e-12)
    with pytest.raises(ValueError):
        lemma5_constant(-1.0, 0.0)
    with pytest.raises(ValueError):
        lemma5_constant(1.0, 1.0)


def _assert_exact_lemma5_rows(rep, p, N, eps_grid, trials, seed):
    # each lhs is the Gamma(N/p) law and sits inside the interval of a Monte
    # Carlo copy of the Gamma(1/p) sums drawn here (the check draws nothing)
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(0,))))
    sums = rng.gamma(1.0 / p, 1.0, size=(trials, N)).sum(axis=1)
    for row, eps in zip(rep.reports, eps_grid):
        est = bernoulli_ci(int((sums <= N * eps).sum()), trials)
        assert row.params[2] == eps
        assert row.lhs.std_err == 0.0
        assert row.lhs.mean == pytest.approx(
            float(special.gammainc(N / p, N * eps)), rel=1e-12)
        assert abs(row.lhs.mean - est.mean) <= 3.0 * est.std_err + 1e-9


def test_lemma5_exponential_case():
    eps_grid = [0.05, 0.1, 0.2]
    rep = check_lemma5(1.0, N=4, eps_grid=eps_grid)
    assert rep.verdicts()[FAIL] == 0
    assert rep.constants == {"C": pytest.approx(math.e, rel=1e-12)}
    _assert_exact_lemma5_rows(rep, 1.0, 4, eps_grid, trials=20000, seed=13)
    for row in rep.reports:
        assert row.params[0] == 1.0
        assert row.params[1] == 4


def test_lemma5_vacuous_bound_flag():
    rep = check_lemma5(1.0, N=2, eps_grid=[0.5])
    row = rep.reports[0]
    assert row.rhs >= 1.0
    assert row.params[3] == 1.0
    assert row.verdict == PASS


def test_lemma5_catalog_mismatch():
    with pytest.raises(ValueError):
        check_lemma5(0.5, N=4, eps_grid=[0.1])
    with pytest.raises(ValueError):
        check_lemma5(1.0, N=4, eps_grid=[-0.1])
    with pytest.raises(ValueError):
        check_lemma5(1.0, N=0, eps_grid=[0.1])


def test_lemma5_gamma_half_case():
    eps_grid = [0.05, 0.2]
    rep = check_lemma5(2.0, N=4, eps_grid=eps_grid)
    assert rep.verdicts()[FAIL] == 0
    assert rep.reports[0].params[0] == 2.0
    _assert_exact_lemma5_rows(rep, 2.0, 4, eps_grid, trials=20000, seed=19)


@pytest.mark.parametrize("p", [1.0, 1.25, 1.3, 1.5, 1.75, 2.0])
def test_lemma5_reports_the_callers_p(p):
    # 1/(1 - (p-1)/p) gave 1.4999999999999998 for p = 1.5
    for row in check_lemma5(p, 4, [0.05, 0.1, 0.2]).reports:
        assert row.params[0].hex() == p.hex()


def test_lemma5_ratio_sits_under_the_chernoff_margin():
    # P{Gamma(k) <= x} <= (ex/k)^k e^{-x} with k = N/p, x = N eps: the
    # bound times e^{-N eps}, so every default row PASSes with that margin
    for p in (1.0, 1.5, 2.0):
        for N in (4, 16):
            rep = check_lemma5(p, N, [0.05, 0.1, 0.2])
            for row in rep.reports:
                assert row.verdict == PASS
                assert row.ratio <= math.exp(-N * row.params[2]) * (1 + 1e-12)


def test_lemma5_grades_bounds_past_double_range(monkeypatch):
    # an overflowing bound is vacuous; both sides underflowing leave no ratio
    row, = check_lemma5(1.0, 3000, [0.5]).reports
    assert (row.rhs, row.params[3], row.verdict) == (math.inf, 1.0, PASS)
    row, = check_lemma5(1.0, 1000, [0.05]).reports
    assert (row.lhs.mean, row.rhs, row.verdict) == (0.0, 0.0, INCONCLUSIVE)
    # a bound that underflows under a positive lhs is a violation
    real = isoplab.inequality_suite.lemma5_constant
    monkeypatch.setattr(isoplab.inequality_suite, "lemma5_constant",
                        lambda A, alpha: real(A, alpha) / 1e3)
    row, = check_lemma5(2.0, 200, [0.05]).reports
    assert row.rhs == 0.0 < row.lhs.mean
    assert row.verdict == FAIL


def test_lemma5_negative_control_fails_with_a_third_of_c(monkeypatch):
    # C/3 shrinks the bound by 3^{N/p}; graded on the ratio, the eps = 0.05
    # row FAILs at every default job, also at p = 1, N = 16 (6.3e-16 vs
    # 3.2e-22), which a direct comparison would pass on its 1e-12 floor
    real = isoplab.inequality_suite.lemma5_constant
    monkeypatch.setattr(isoplab.inequality_suite, "lemma5_constant",
                        lambda A, alpha: real(A, alpha) / 3.0)
    for p in (1.0, 1.5, 2.0):
        for N in (4, 16):
            row = check_lemma5(p, N, [0.05, 0.1, 0.2]).reports[0]
            assert row.params[2] == 0.05
            assert row.verdict == FAIL, (p, N, row.lhs.mean, row.rhs)


# ---------------------------------------------------------------------------
# co-area and plateau identities
# ---------------------------------------------------------------------------

def test_coarea_default_catalog():
    rep = run_cell(2.0, 2, [coarea_plan(2.0, 2)], 4000, 21)[0]
    assert len(rep.reports) == 2  # half-space ramp and radial ramp
    assert rep.verdicts()[FAIL] == 0


def _loop_content_mean(batch, set_, ladder) -> float:
    # extrapolated content with rung counts from a per-rung indicator loop
    X = batch.points
    base = set_.indicator(X)
    eps = np.asarray(ladder, dtype=float)
    ys, ses = [], []
    for e in eps:
        k = int((set_.enlarged(float(e)).indicator(X) & ~base).sum())
        ci = bernoulli_ci(k, batch.count)
        ys.append(ci.mean / e)
        ses.append(ci.std_err / e)
    return _wls_intercept(eps, np.array(ys), np.array(ses))[0]


@pytest.mark.parametrize("catalog", ["default", "distance_ramp"])
def test_coarea_rhs_matches_per_level_indicator_loop(catalog):
    p, n, count, seed = 1.5, 3, 3000, 27
    params = PBallParams(p, n)
    if catalog == "default":
        # the radial radii are quantiles of the held-out stream's |x|_2
        held_out = _stream_batch(sample_ball, params, count, seed, HELD_OUT)
        phis = _default_plateau_catalog(
            params, np.sort(lp_norm(held_out.points, 2.0)))
        rep = run_cell(p, n, [coarea_plan(p, n, None)], count, seed)[0]
    else:
        phis = [DistanceRamp(coordinate_half_space(params, 0.5), n, 0.05, 0.2),
                DistanceRamp(BallComplement(0.8), n, 0.05, 0.2)]
        rep = run_cell(p, n, [coarea_plan(p, n, phis)], count, seed)[0]
    ladder = default_eps_ladder(p, n)
    assert len(rep.reports) == len(phis)
    # a level set with a closed-form boundary (the half-spaces) reads it;
    # the others (the ball complements at p = 1.5) are estimated on the
    # grading stream, which the gradient side reads too
    batch = _stream_batch(sample_ball, params, count, seed)
    for phi, row in zip(phis, rep.reports):
        vals = np.zeros(64)
        for k in range(64):
            level = phi.superlevel((k + 0.5) / 64.0)
            exact = level.analytic_boundary(params)
            vals[k] = (_loop_content_mean(batch, level, ladder)
                       if exact is None else exact)
        assert row.rhs > 0.0
        assert row.rhs == float(vals.mean())


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_coarea_agrees_at_large_n(p):
    # at n = 1024 the ladder overshot the exact half-space contents by about
    # 25% and FAILed the half-space ramp (lhs/rhs 0.75-0.82), and read the
    # p = 2 radial ramp's exact contents at 1/22.6 of the gradient mass
    rep = run_cell(p, 1024, [coarea_plan(p, 1024)], 5000, 7)[0]
    half_space, radial = rep.reports
    assert half_space.verdict == PASS
    if p == 2.0:
        assert radial.ratio == pytest.approx(1.0, abs=0.05)


@dataclass(frozen=True)
class _OverstatedHalfSpace(HalfSpace):
    # a half-space whose closed-form boundary content is 10% too large
    def analytic_boundary(self, params):
        return 1.1 * super().analytic_boundary(params)


class _OverstatedRamp(LinearRamp):
    def superlevel(self, u):
        level = super().superlevel(u)
        return _OverstatedHalfSpace(level.xi, level.t)


def test_coarea_fails_on_an_overstated_content():
    # negative control of the exact path: the layer-cake of superlevel
    # contents 10% too large sits above the gradient mass by more than its
    # 3 sigma; the honest ramp passes in the same cell
    p, n = 1.5, 4
    params = PBallParams(p, n)
    xi = np.zeros(n)
    xi[0] = 1.0
    hi = float(marginal_isf(params, 0.2))
    for ramp, verdict in ((LinearRamp(xi, 0.0, hi), PASS),
                          (_OverstatedRamp(xi, 0.0, hi), FAIL)):
        row, = run_cell(p, n, [coarea_plan(p, n, [ramp])], 10 ** 4,
                        7)[0].reports
        assert row.verdict == verdict, row


def test_functional_equivalence_identity_rows():
    params = PBallParams(2.0, 2)
    hs = coordinate_half_space(params, 0.5)
    w = 1.0  # n^(-kappa) = 1 at p = 2
    rep = run_cell(2.0, 2, [functional_equivalence_plan(
        2.0, 2, hs, r=0.0025 * w, s=0.05 * w)], 40000, 25)[0]
    assert len(rep.reports) == 5  # four ladder rungs plus the summary row
    for row in rep.reports[:4]:
        # same batch on both sides: the identity holds to round-off
        assert abs(row.lhs.mean - row.rhs) <= 1e-9 * max(row.rhs, 1.0)
        assert row.verdict == PASS
    summary = rep.reports[4]
    # the summary row grades against the finest rung's exact shell value
    r, s = 0.0025 * w, 0.05 * w
    shell = (hs.enlarged(r + s).analytic_measure(params)
             - hs.enlarged(r).analytic_measure(params)) / s
    assert summary.rhs == pytest.approx(shell, rel=1e-12)
    assert summary.verdict == PASS
    assert rep.constants["reference"] == pytest.approx(2.0 / np.pi)
    assert rep.constants["limit"] == pytest.approx(2.0 / np.pi, rel=0.05)


def _cli_equivalence(p, n, set_, count, seed):
    # the CLI's offsets: r = 0.0025 w and s = 0.05 w, w = n^(-kappa)
    w = n ** (-(2.0 - p) / (2.0 * p))
    return run_cell(p, n, [functional_equivalence_plan(
        p, n, set_, 0.0025 * w, 0.05 * w)], count, seed)[0]


@pytest.mark.parametrize("seed", [10010, 10017])
def test_functional_equivalence_summary_is_unbiased(seed):
    # at p = 1, n = 4 the finest rung's expectation is 0.9595 times the
    # boundary mass; graded against the boundary mass these seeds FAILed
    params = PBallParams(1.0, 4)
    hs = coordinate_half_space(params, 0.5)
    rep = _cli_equivalence(1.0, 4, hs, 10 ** 5, seed)
    summary = rep.reports[-1]
    assert summary.verdict == PASS
    assert summary.rhs == pytest.approx(
        0.9595 * hs.analytic_boundary(params), rel=1e-4)
    assert rep.constants["reference"] == hs.analytic_boundary(params)


@dataclass(frozen=True)
class _MisstatedHalfSpace(HalfSpace):
    # a half-space whose closed-form measure is 10% too large
    def analytic_measure(self, params):
        return 1.1 * super().analytic_measure(params)

    def enlarged(self, eps):
        return _MisstatedHalfSpace(self.xi, self.t - eps)


def test_functional_equivalence_summary_fails_on_a_wrong_measure():
    params = PBallParams(1.0, 4)
    good = coordinate_half_space(params, 0.5)
    bad = _MisstatedHalfSpace(good.xi, good.t)
    rep = _cli_equivalence(1.0, 4, bad, 10 ** 5, 10000)
    assert rep.reports[-1].verdict == FAIL


@pytest.mark.parametrize("set_", [BallComplement(0.6),
                                  HalfSpace(np.array([0.6, 0.8]), 0.1)])
def test_functional_equivalence_without_closed_form(set_):
    p, n, count, seed = 1.5, 2, 4000, 29
    params = PBallParams(p, n)
    assert set_.analytic_boundary(params) is None
    rep = run_cell(p, n, [functional_equivalence_plan(
        p, n, set_, r=0.002, s=0.04)], count, seed)[0]
    # the reference is the content of the grading stream
    batch = _stream_batch(sample_ball, params, count, seed)
    ref, = content_from_batch(_column(set_.scalar, batch.points),
                              [set_.threshold], default_eps_ladder(p, n))
    summary = rep.reports[-1]
    assert summary.params[2:] == (0.0, 0.0)
    assert summary.rhs == ref.extrapolated.mean
    assert rep.constants["reference"] == ref.extrapolated.mean


def test_functional_equivalence_offset_validation():
    params = PBallParams(2.0, 2)
    hs = coordinate_half_space(params, 0.5)
    with pytest.raises(ValueError):
        functional_equivalence_plan(2.0, 2, hs, r=0.0, s=0.1)


_HS = coordinate_half_space(PBallParams(1.5, 3), 0.5)
NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda: functional_equivalence_plan(1.5, 3, _HS, NAN, 0.05),
    lambda: functional_equivalence_plan(1.5, 3, _HS, 0.0025, NAN),
    lambda: concentration_from_isoperimetry(NAN, 2.0, 4, [0.1]),
    lambda: concentration_from_isoperimetry(1.0, 2.0, 4, [0.1, NAN]),
    lambda: check_lemma5(1.0, 4, [0.05, NAN]),
    lambda: lemma5_constant(NAN, 0.3),
    lambda: DistanceRamp(_HS, 3, NAN, 0.1),
    lambda: DistanceRamp(_HS, 3, 0.0, NAN),
], ids=["equivalence_r", "equivalence_s", "concentration_c",
        "concentration_u", "lemma5_eps", "lemma5_constant_A",
        "distance_ramp_r", "distance_ramp_s"])
def test_nan_arguments_raise(call):
    # NaN compares false either way, so each guard reads "not x > 0"
    with pytest.raises(ValueError):
        call()


def test_l2_form_levels_and_verdicts():
    with pytest.raises(ValueError):
        l2_form_plan(2.0, 4, [0.5])
    rep = run_cell(2.0, 4, [l2_form_plan(2.0, 4, [0.1, 0.25])], 20000, 27)[0]
    assert rep.verdicts()[FAIL] == 0
    assert rep.constants["c1_hat"] > 0.0
    assert rep.constants["c_from_profile"] > 0.0
    # the ramp's squared gradient integrates to (1/2 - a)/width^2 exactly
    params = PBallParams(2.0, 4)
    for row, a in zip(rep.reports, (0.1, 0.25)):
        width = float(marginal_isf(params, a))
        expected = (0.5 - a) / width ** 2
        assert abs(row.lhs.mean - expected) <= 5.0 * row.lhs.std_err


# ---------------------------------------------------------------------------
# the cut-off chain
# ---------------------------------------------------------------------------

def test_cutoff_chain_no_failures():
    rep = run_cell(2.0, 4, [cutoff_chain_plan(2.0, 4)], 20000, 29)[0]
    assert rep.verdicts()[FAIL] == 0
    assert rep.constants["c3"] == pytest.approx(1.0 / 3.0)
    assert rep.constants["c4"] == pytest.approx(1.0 / 3.0)
    assert rep.constants["transfer_violations"] == 0
    by_link = {int(r.params[2]): r for r in rep.reports}
    assert set(by_link) == {1, 2, 3, 4, 5, 6, 7, 8}
    # p = 2 with c1 = 1: h1 is identically 1 on the ball, so link 1 is an
    # exact equality and the strict verdict still passes through the tol
    assert by_link[1].lhs.mean == 0.0
    assert by_link[1].verdict == PASS
    # zero-mass row: mu{g h2 = 0} >= 1/2 strictly
    assert by_link[7].verdict == PASS
    # plateau row may be unresolvable at this count but must never FAIL
    assert by_link[6].verdict in (PASS, INCONCLUSIVE)
    assert rep.constants["plateau_oracle"] >= 0.0


def test_cutoff_chain_p1():
    rep = run_cell(1.0, 2, [cutoff_chain_plan(1.0, 2)], 20000, 31)[0]
    assert rep.verdicts()[FAIL] == 0
    assert rep.constants["transfer_violations"] == 0


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_cutoff_chain_rows_equal_the_composed_fields(p):
    # reference: every gradient from the composed field objects, each
    # evaluated on its own over the whole batch, with the ball points read
    # as X = T(Z) of the product batch; the chain's closed form rounds
    # otherwise, so its norms, link means and errors agree to 1e-12 and
    # its counts exactly, in one block and across two blocks plus a
    # partial one
    for count in (4000, 2 * BLOCK_ROWS + 17):
        _assert_chain_rows_equal_composed_fields(p, count)


def _assert_chain_rows_equal_composed_fields(p, count):
    n, seed = 3, 17
    params = PBallParams(p, n)
    rep = run_cell(p, n, [cutoff_chain_plan(p, n)], count, seed)[0]
    xi = np.zeros(n)
    xi[0] = 1.0
    f = LinearRamp(xi, 0.0, float(marginal_isf(params, 0.2)))
    h1 = CutoffH1Field(p, n)
    h2 = CutoffH2Field(p, n)
    fh1 = ProductField(f, h1)
    Z = _stream_batch(sample_product, params, count, seed).points
    nzp = _stream_zp(params, count, seed)
    # the cell's ball points X = T(Z), drawn from the same stream
    X = _stream_batch(sample_ball, params, count, seed).points

    class PushForwardAtX(PushForwardField):
        # fh1 o T with T(Z) read from the stream's X, as the cell reads it
        def value_and_grad(self, Zr):
            values, v = self.f.value_and_grad(X)
            return values, push_forward_grad(lp_dual(Zr, p), X, nzp, v, p)

    class H2AtNorm(CutoffH2Field):
        # h2 with |z|_p read from the stream, as the cell reads it
        def value_and_grad(self, Zr):
            return self.from_norm(nzp, lp_dual(Zr, p))

    g = PushForwardAtX(fh1, p)
    gh2 = ProductField(g, H2AtNorm(p, n))

    def norms(field, pts):
        return np.linalg.norm(field.grad(pts), axis=1)

    gf, gfh1, gg, ggh2 = norms(f, X), norms(fh1, X), norms(g, Z), norms(gh2, Z)
    # the closed form from the six scalars, point by point
    w = lp_dual(Z, p)
    fv, plateau, *closed = cutoff_chain_norms(
        f, h1, h2, X[:, 0], lp_norm(X, 2.0), nzp, Z[:, -1] ** p,
        (w * w).sum(axis=1), w[:, 0])
    assert np.array_equal(fv, f(X))
    assert np.array_equal(plateau, gh2(Z))
    assert np.array_equal(closed[0], gf)
    step = block_rows(n + 1)
    for got, want in zip(closed[1:], (gfh1, gg, ggh2)):
        assert np.count_nonzero(want) > 0
        for lo in range(0, count, step):
            rows = slice(lo, lo + step)
            np.testing.assert_allclose(got[rows], want[rows], rtol=1e-12,
                                       atol=1e-12 * want[rows].max())

    kappa = (2.0 - p) / (2.0 * p)
    c3 = 1.0 / 3.0
    err1 = h1.slope * (lp_norm(X, 2.0) >= 1.0 / h1.slope)
    err2 = 2.0 * n ** kappa * (nzp <= 2.0 * n ** (1.0 / p))
    diffs = {
        1: gf - gfh1 + err1,
        2: gfh1 - c3 * gg * nzp,
        3: gg * nzp - n ** (1.0 / p) * ggh2 + err2,
    }
    diffs[4] = diffs[2] + c3 * diffs[3]
    diffs[5] = (gf - c3 * n ** (1.0 / p) * ggh2
                + 0.5 * math.exp(-4.0 * n ** (p / 2.0)))
    by_link = {int(r.params[2]): r for r in rep.reports}
    for link, diff in diffs.items():
        want = mean_ci(diff)
        got = by_link[link].lhs
        assert got.n_samples == count
        assert got.mean == pytest.approx(want.mean, rel=1e-12, abs=0.0)
        assert got.std_err == pytest.approx(want.std_err, rel=1e-12, abs=0.0)
    if p == 2.0:
        # h1 is identically 1 on the ball: link 1 is an exact equality
        assert by_link[1].lhs.mean == 0.0
    assert by_link[6].lhs == bernoulli_ci(
        int((plateau >= 1.0 - 1e-12).sum()), count)
    assert by_link[7].lhs == bernoulli_ci(int((plateau <= 1e-12).sum()), count)
    v_f1 = int((f(X) >= 1.0 - 1e-12).sum()) / count
    scale2 = 2.0 * n ** (1.0 / p)
    assert rep.constants["plateau_oracle"] == v_f1 * float(
        isoplab._special.gammaincc(n / p + 1.0, scale2 ** p))
    # the Jacobian scan on the leading rows, against the composed norms
    ops = jacobian_op_norms(Z[:TRANSFER_ROWS], p)[0]
    rhs = ops * gfh1[:ops.size]
    bad = int(np.count_nonzero(gg[:ops.size] > rhs + 1e-9 * (1.0 + rhs)))
    assert rep.constants["transfer_violations"] == bad
    assert by_link[8].lhs == bernoulli_ci(bad, min(count, TRANSFER_ROWS))


def test_cutoff_chain_forms_no_gradient_row(monkeypatch):
    # the chain reads per-point scalars only: neither the product rule
    # nor the push-forward's adjoint, each of which builds (rows, dim)
    # gradient rows, nor any field's value_and_grad runs
    def forbidden(*args):
        raise AssertionError("the chain formed a gradient row")

    for name in ("product_value_and_grad", "push_forward_grad"):
        monkeypatch.setattr(isoplab.fields, name, forbidden)
        assert not hasattr(isoplab.inequality_suite, name)
    for cls in vars(isoplab.fields).values():
        if isinstance(cls, type) and "value_and_grad" in vars(cls):
            monkeypatch.setattr(cls, "value_and_grad", forbidden)
    for p in (1.0, 1.5, 2.0):
        rep = run_cell(p, 3, [cutoff_chain_plan(p, 3)], 3000, 5)[0]
        assert len(rep.reports) == 8


def test_cutoff_chain_evaluates_each_norm_of_the_product_batch_once(monkeypatch):
    # |z|_p passes over the (count, n + 1) product batch: the Jacobian
    # scan's only, as the draw gives the cell its |z|_p (which gives the
    # push-forward's gradient and the h2 cut-off); a pass of the cell's
    # own made 2, the h2 cut-off's own pass 3, and recomputing |z|_p per
    # field and per method took 9
    p, n, count = 1.5, 4, 3000
    real = isoplab.geometry.lp_norm
    calls = []

    def counting(x, p_):
        calls.append((np.shape(x), p_))
        return real(x, p_)

    for module in (isoplab.fields, isoplab.inequality_suite, isoplab.geometry):
        if hasattr(module, "lp_norm"):
            monkeypatch.setattr(module, "lp_norm", counting)
    rep = run_cell(p, n, [cutoff_chain_plan(p, n)], count, 5)[0]
    assert len(rep.reports) == 8
    assert calls.count(((count, n + 1), p)) == 1


# ---------------------------------------------------------------------------
# isotropic rescaling
# ---------------------------------------------------------------------------

def test_isotropy_constants_frozen():
    c_np, l_k = isotropy_constants(2.0, 2)
    assert c_np == pytest.approx(np.pi ** -0.5, rel=1e-12)
    assert l_k == pytest.approx(0.5 * np.pi ** -0.5, rel=1e-10)
    c_np1, l_k1 = isotropy_constants(1.0, 1)
    assert c_np1 == pytest.approx(0.5, rel=1e-12)
    assert l_k1 == pytest.approx(0.5 / math.sqrt(3.0), rel=1e-10)


def test_kls_frozen_minimum_on_the_disc():
    rep = check_kls(2.0, 2, [0.1, 0.25, 0.5])
    assert rep.verdicts() == {PASS: 3, FAIL: 0, INCONCLUSIVE: 0}
    # ratio sigma f(t_a)/a is minimized at a = 1/2 where it equals 2/pi
    assert rep.constants["c0_hat"] == pytest.approx(2.0 / np.pi, rel=1e-12)
    assert rep.constants["l_k"] == pytest.approx(0.5 * np.pi ** -0.5,
                                                 rel=1e-10)


def test_kls_rows_are_scale_invariant():
    rep = check_kls(1.5, 3, [0.2, 0.4])
    params = PBallParams(1.5, 3)
    c_np = rep.constants["c_np"]
    l_k = rep.constants["l_k"]
    for row, a in zip(rep.reports, (0.2, 0.4)):
        t = marginal_isf(params, a)
        assert row.lhs.mean == pytest.approx(
            float(marginal_density(params, t)) / c_np, rel=1e-12)
        assert row.rhs == pytest.approx(a / l_k, rel=1e-12)


def test_paouris_tail_has_eligible_rows():
    rep = run_cell(2.0, 4, [paouris_tail_plan(2.0, 4, [0.5, 0.9, 0.99])],
                   20000, 33)[0]
    assert rep.verdicts()[FAIL] == 0
    assert rep.constants["c_hat"] is not None and rep.constants["c_hat"] > 0.0
    eligible = [r for r in rep.reports if r.params[3] == 1.0]
    assert eligible
    for r in eligible:
        assert r.params[2] >= rep.constants["t_min"]
