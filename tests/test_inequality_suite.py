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

import isoplab.fields
import isoplab.geometry
import isoplab.inequality_suite
from isoplab.fields import (
    ConstantField,
    CutoffH1Field,
    CutoffH2Field,
    DistanceRamp,
    LinearRamp,
    ProductField,
    PushForwardField,
)
from isoplab.geometry import (
    BLOCK_ROWS,
    BallComplement,
    CutoffParams,
    HalfSpace,
    PBallParams,
    coordinate_half_space,
    lp_norm,
    map_row_blocks,
    marginal_density,
    marginal_isf,
    marginal_level_density,
)
from isoplab.inequality_suite import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    CheckReport,
    ConcentrationCurve,
    _default_plateau_catalog,
    InequalityReport,
    check_barthe_dimensional,
    check_bobkov_inequality,
    check_coarea,
    check_functional_equivalence,
    check_kls,
    check_l2_form,
    check_lemma4,
    check_lemma5,
    check_paouris_tail,
    check_product_isoperimetry,
    check_sz_concentration,
    check_sz_tail,
    check_theorem1,
    concentration_from_isoperimetry,
    default_eps_ladder,
    isotropy_constants,
    lemma5_constant,
    scalar_groups,
    theorem1_rhs,
    verify_cutoff_chain,
)
from isoplab.montecarlo import (
    EstimateCI,
    PairRows,
    _wls_intercept,
    bernoulli_ci,
    content_from_batch,
    estimate_median_and_phi,
    estimate_tail,
    lipschitz_pairs,
    mean_ci,
)
from isoplab.sampling import child_seed, sample_ball, sample_product


def _column(fn, points):
    """fn's value at every row of points, filled one row block at a time."""
    out, = map_row_blocks(lambda X: (fn(X),), [points], points.shape[0])
    return out


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
    rep = check_theorem1(2.0, 2, [0.5])
    row = rep.reports[0]
    assert row.lhs.mean == pytest.approx(2.0 / np.pi, rel=1e-14)
    expected = (2.0 / np.pi) / theorem1_rhs(2.0, 2, 0.5)
    assert rep.constants["c_hat"] == pytest.approx(expected, rel=1e-12)
    assert row.verdict == PASS


def test_theorem1_closed_form_at_p_one():
    # p = 1: the ratio is (2a)^(-1/n) exactly
    for n, a in [(2, 0.5), (4, 0.1), (8, 0.25)]:
        rep = check_theorem1(1.0, n, [a])
        assert rep.constants["c_hat"] == pytest.approx(
            (2.0 * a) ** (-1.0 / n), rel=1e-12)
    assert check_theorem1(1.0, 6, [0.5]).constants["c_hat"] == pytest.approx(1.0)


def test_theorem1_band_constants():
    rep = check_theorem1(1.5, 4, [0.1, 0.25, 0.5])
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
        for rep in (check_theorem1(p, n, grid), check_kls(p, n, grid)):
            assert rep.verdicts() == {PASS: 4, FAIL: 0, INCONCLUSIVE: 0}
            assert all(r.lhs.mean > 0.0 for r in rep.reports)
        rows = check_theorem1(p, n, grid).reports
        assert [r.lhs.mean for r in rows] == [
            marginal_level_density(params, a) for a in grid]


def test_theorem1_level_validation():
    with pytest.raises(ValueError):
        check_theorem1(2.0, 2, [0.6])
    with pytest.raises(ValueError):
        check_theorem1(2.0, 2, [])


def test_theorem1_with_explicit_families():
    # second family: the same half-spaces rotated 45 degrees; at p = 2 the
    # ball is rotation-invariant so the coordinate family stays minimal
    params = PBallParams(2.0, 2)
    diag = np.array([1.0, 1.0]) / math.sqrt(2.0)

    def coordinate(a):
        return coordinate_half_space(params, a)

    def rotated(a):
        return HalfSpace(diag, float(marginal_isf(params, a)))

    rep = check_theorem1(2.0, 2, [0.25, 0.5],
                         sets=[("coordinate", coordinate), ("rotated", rotated)],
                         count=4000, seed=1)
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
        rep = check_theorem1(1.0, 2, [0.1, 0.5],
                             sets=[("coordinate", coordinate),
                                   ("diagonal", diagonal)],
                             count=20000, seed=seed)
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
    rep = check_bobkov_inequality(2.0, 2, [coordinate_half_space(params, 0.5)],
                                  r_grid=[1.0], count=20000, seed=3)
    row = rep.reports[0]
    # a = 1/2 and V{|x|_2 <= 1} = 1: rhs = log(2) / 2
    assert row.rhs == pytest.approx(math.log(2.0) / 2.0, rel=1e-12)
    assert row.params[3] == pytest.approx(0.5)  # the set's measure
    assert row.verdict == PASS
    assert rep.constants["min_slack"] > 1.0  # 2/pi well above log(2)/2


def test_barthe_rhs_closed_form_on_the_disc():
    params = PBallParams(2.0, 2)
    rep = check_barthe_dimensional(2.0, 2,
                                   [coordinate_half_space(params, 0.5)],
                                   r_grid=[1.0], count=20000, seed=3)
    row = rep.reports[0]
    # (n/2r)[(2 (1/2)^(1-1/n)) mass^(1/n) - 1] = sqrt(2) - 1 here
    assert row.rhs == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-12)
    assert row.verdict == PASS


def test_enlargement_r_grid_validation():
    params = PBallParams(2.0, 2)
    hs = coordinate_half_space(params, 0.5)
    with pytest.raises(ValueError):
        check_bobkov_inequality(2.0, 2, [hs], r_grid=[], count=1000, seed=0)
    with pytest.raises(ValueError):
        check_bobkov_inequality(2.0, 2, [hs], r_grid=[-1.0], count=1000,
                                seed=0)


def test_enlargement_sorts_each_shared_scalar_once(monkeypatch):
    # the CLI's half-spaces all threshold x_1: one column and one sort for
    # the three of them, and the same estimates as one set at a time
    p, n, count, seed = 1.5, 3, 5000, 7
    params = PBallParams(p, n)
    sets = [coordinate_half_space(params, a) for a in (0.1, 0.25, 0.5)]
    sets += [BallComplement(0.6), coordinate_half_space(params, 0.3, axis=1)]
    ladder = default_eps_ladder(p, n)
    calls = []
    real = isoplab.inequality_suite.content_from_batch

    def counting(source, thresholds, eps):
        calls.append(len(thresholds))
        return real(source, thresholds, eps)

    monkeypatch.setattr(isoplab.inequality_suite, "content_from_batch",
                        counting)
    rep = check_bobkov_inequality(p, n, sets, [1.0], count, seed)
    assert calls == [3, 1, 1]
    batch = sample_ball(params, count, child_seed(seed, 0))
    for row, set_ in zip(rep.reports, sets):
        assert row.lhs == real(_column(set_.scalar, batch.points),
                               [set_.threshold], ladder)[0].extrapolated


def test_scalar_groups_follow_the_shared_scalar():
    e0, e1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    sets = [HalfSpace(e0, 0.1), BallComplement(0.5), HalfSpace(e1, 0.2),
            HalfSpace(e0, -0.3), BallComplement(0.9)]
    assert scalar_groups(sets) == [[0, 3], [1, 4], [2]]


def test_bobkov_never_fails_on_defaults():
    params = PBallParams(1.0, 2)
    sets = [coordinate_half_space(params, a) for a in (0.1, 0.25, 0.5)]
    rep = check_bobkov_inequality(1.0, 2, sets, r_grid=[0.5, 1.0],
                                  count=20000, seed=5)
    assert len(rep.reports) == 6
    assert rep.verdicts()[FAIL] == 0


# ---------------------------------------------------------------------------
# tails and concentration
# ---------------------------------------------------------------------------

def test_sz_tail_matches_exact_radial_law():
    # p = 2: P{|x|_2 >= t} = 1 - t^n exactly
    n = 3
    rep = check_sz_tail(2.0, n, [0.25, 0.5, 0.75], count=20000, seed=7)
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
        check_sz_tail(2.0, 2, [0.0], count=1000, seed=0)
    with pytest.raises(ValueError):
        check_sz_tail(2.0, 2, [1.5], count=1000, seed=0)


def test_sz_concentration_shape():
    rep = check_sz_concentration(2.0, 4, "coordinate", [0.25, 0.5, 0.9],
                                 count=20000, seed=9)
    assert rep.constants["c1_hat"] > 0.0
    assert rep.verdicts()[FAIL] == 0
    by_h = {round(r.params[2], 12): r for r in rep.reports}
    # the median level lands at h = 0 and grades phi(0) <= 1/2
    zero = by_h[0.0]
    assert zero.rhs == 0.5 and zero.verdict == PASS
    # below-median offsets carry no claim
    below = [r for r in rep.reports if r.params[2] < 0.0]
    assert all(r.verdict == PASS and r.rhs == 1.0 for r in below)


# two row blocks and a partial one of the n = 3 streams
STREAM_COUNT = 2 * BLOCK_ROWS + 17


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_streamed_tail_checks_equal_the_batch_recipe(p):
    # the checks read their draws block by block; the rows must be those of
    # the same recipe on whole sample_ball batches of the same child seeds
    n, count, seed, levels = 3, STREAM_COUNT, 37, [0.5, 0.9, 0.99]
    params = PBallParams(p, n)
    calib, batch = (sample_ball(params, count, child_seed(seed, k)).points
                    for k in (0, 1))
    rep = check_sz_tail(p, n, levels, count, seed)
    want = estimate_tail(lp_norm(batch, 2.0),
                         np.quantile(lp_norm(calib, 2.0), levels))
    assert [r.lhs for r in rep.reports] == [t.estimate for t in want]
    F = isoplab.fields.CoordinateFunctional(n)
    rep = check_sz_concentration(p, n, "coordinate", levels, count, seed)
    med0 = float(np.median(F(calib)))
    i, j = lipschitz_pairs(child_seed(seed, 1), count)
    _, curve = estimate_median_and_phi(
        _column(F, batch), F,
        [float(np.quantile(F(calib), q)) - med0 for q in levels],
        PairRows(i, j, batch[i], batch[j]))
    assert [r.lhs for r in rep.reports] == [c.estimate for c in curve]


def test_sz_concentration_spot_checks_the_streamed_pairs():
    class Liar(isoplab.fields.CoordinateFunctional):
        def __call__(self, X):
            return 5.0 * super().__call__(X)

    with pytest.raises(ValueError, match="Lipschitz"):
        check_sz_concentration(1.5, 3, Liar(3), [0.5, 0.9], STREAM_COUNT, 41)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_streamed_lemma4_equals_the_batch_recipe(p):
    n, count, seed = 3, STREAM_COUNT, 43
    Z = sample_product(PBallParams(p, n), count, child_seed(seed, 1)).points
    normsp = lp_norm(Z, p)
    norms2 = lp_norm(Z[:, :-1], 2.0) / normsp
    rep = check_lemma4(p, n, count, seed)
    kappa = (2.0 - p) / (2.0 * p)
    want = []
    for c2 in (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0):
        want += [bernoulli_ci(int((norms2 >= c2 * n ** -kappa).sum()), count),
                 bernoulli_ci(int((normsp <= n ** (1.0 / p) / c2).sum()), count)]
    assert [r.lhs for r in rep.reports] == want


def test_sz_concentration_rejects_constant_functionals():
    with pytest.raises(ValueError):
        check_sz_concentration(2.0, 3, ConstantField(3, 0.3), [0.5],
                               count=2000, seed=0)


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
    rep = check_lemma4(1.0, 2, count=20000, seed=11)
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


def test_lemma5_exponential_case():
    rep = check_lemma5(1.0, 0.0, N=4, eps_grid=[0.05, 0.1, 0.2],
                       trials=20000, seed=13)
    assert rep.verdicts()[FAIL] == 0
    assert rep.constants["C"] == pytest.approx(math.e, rel=1e-12)
    # the Erlang oracle sits inside each Monte Carlo interval
    for row in rep.reports:
        eps = row.params[2]
        exact = rep.constants[f"exact_eps={eps:g}"]
        assert exact == pytest.approx(
            float(special.gammainc(4.0, 4.0 * eps)), rel=1e-12)
        assert abs(row.lhs.mean - exact) <= 3.0 * row.lhs.std_err + 1e-9
        assert row.params[0] == 1.0  # p = 1/(1 - alpha)
        assert row.params[1] == 4


def test_lemma5_vacuous_bound_flag():
    rep = check_lemma5(1.0, 0.0, N=2, eps_grid=[0.5], trials=2000, seed=17)
    row = rep.reports[0]
    assert row.rhs >= 1.0
    assert row.params[3] == 1.0
    assert row.verdict == PASS


def test_lemma5_catalog_mismatch():
    with pytest.raises(ValueError):
        check_lemma5(0.5, 0.5, N=4, eps_grid=[0.1], trials=100, seed=0)
    with pytest.raises(ValueError):
        check_lemma5(1.0, 0.0, N=4, eps_grid=[-0.1], trials=100, seed=0)
    with pytest.raises(ValueError):
        check_lemma5(1.0, 0.0, N=0, eps_grid=[0.1], trials=100, seed=0)


def test_lemma5_gamma_half_case():
    a_half = 1.0 / math.sqrt(math.pi)
    rep = check_lemma5(a_half, 0.5, N=4, eps_grid=[0.05, 0.2],
                       trials=20000, seed=19)
    assert rep.verdicts()[FAIL] == 0
    assert rep.reports[0].params[0] == pytest.approx(2.0)  # 1/(1-alpha)
    for row in rep.reports:
        eps = row.params[2]
        exact = rep.constants[f"exact_eps={eps:g}"]
        assert abs(row.lhs.mean - exact) <= 3.0 * row.lhs.std_err + 1e-9


# ---------------------------------------------------------------------------
# co-area and plateau identities
# ---------------------------------------------------------------------------

def test_coarea_default_catalog():
    rep = check_coarea(2.0, 2, count=4000, seed=21)
    assert len(rep.reports) == 2  # half-space ramp and radial ramp
    assert rep.verdicts()[FAIL] == 0


def test_coarea_constant_field_row():
    rep = check_coarea(2.0, 2, phi_catalog=[ConstantField(2, 0.4)],
                       count=1000, seed=23)
    row = rep.reports[0]
    assert row.lhs.mean == 0.0
    assert row.rhs == 0.0
    assert row.verdict == PASS


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
        phis = _default_plateau_catalog(params, count, seed)
        rep = check_coarea(p, n, None, count, seed)
    else:
        phis = [DistanceRamp(coordinate_half_space(params, 0.5), n, 0.05, 0.2),
                DistanceRamp(BallComplement(0.8), n, 0.05, 0.2)]
        rep = check_coarea(p, n, phis, count, seed)
    ladder = default_eps_ladder(p, n)
    assert len(rep.reports) == len(phis)
    # both sides of every field read the check's one batch, child seed 0
    batch = sample_ball(params, count, child_seed(seed, 0))
    for phi, row in zip(phis, rep.reports):
        vals = np.zeros(64)
        for k in range(64):
            vals[k] = _loop_content_mean(
                batch, phi.superlevel((k + 0.5) / 64.0), ladder)
        assert row.rhs > 0.0
        assert row.rhs == float(vals.mean())


def test_functional_equivalence_identity_rows():
    params = PBallParams(2.0, 2)
    hs = coordinate_half_space(params, 0.5)
    w = 1.0  # n^(-kappa) = 1 at p = 2
    rep = check_functional_equivalence(2.0, 2, hs, r=0.0025 * w, s=0.05 * w,
                                       count=40000, seed=25)
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
    return check_functional_equivalence(p, n, set_, 0.0025 * w, 0.05 * w,
                                        count, seed)


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
    rep = check_functional_equivalence(p, n, set_, r=0.002, s=0.04,
                                       count=count, seed=seed)
    # the reference is the content of the check's one batch, child seed 0
    batch = sample_ball(params, count, child_seed(seed, 0))
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
        check_functional_equivalence(2.0, 2, hs, r=0.0, s=0.1,
                                     count=100, seed=0)


def test_l2_form_levels_and_verdicts():
    with pytest.raises(ValueError):
        check_l2_form(2.0, 4, [0.5], count=100, seed=0)
    rep = check_l2_form(2.0, 4, [0.1, 0.25], count=20000, seed=27)
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
    rep = verify_cutoff_chain(2.0, 4, count=20000, seed=29)
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
    rep = verify_cutoff_chain(1.0, 2, count=20000, seed=31)
    assert rep.verdicts()[FAIL] == 0
    assert rep.constants["transfer_violations"] == 0


@pytest.mark.parametrize("big_c", [-1.0, 0.0, float("nan"), float("inf")])
def test_cutoff_chain_rejects_a_bad_big_c(big_c):
    # a = exp(-big_c n^{p/2}) is a small probability only for a finite
    # positive big_c; -1 put the plateau target above 1
    with pytest.raises(ValueError, match="big_c must be finite and positive"):
        verify_cutoff_chain(1.5, 2, count=1000, seed=0, big_c=big_c)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_cutoff_chain_rows_equal_the_composed_fields(p):
    # reference: every gradient from the composed field objects, each
    # evaluated on its own over the whole batch, with the ball points read
    # as X = T(Z) of the product batch; the chain's shared, row-blocked
    # passes must give the same bits, in one block and across two blocks
    # plus a partial one
    for count in (4000, 2 * BLOCK_ROWS + 17):
        _assert_chain_rows_equal_composed_fields(p, count)


def _assert_chain_rows_equal_composed_fields(p, count):
    n, seed = 3, 17
    params = PBallParams(p, n)
    rep = verify_cutoff_chain(p, n, count=count, seed=seed)
    xi = np.zeros(n)
    xi[0] = 1.0
    f = LinearRamp(xi, 0.0, float(marginal_isf(params, 0.2)))
    h1 = CutoffH1Field(p, n, CutoffParams())
    fh1 = ProductField(f, h1)
    g = PushForwardField(fh1, p)
    gh2 = ProductField(g, CutoffH2Field(p, n, CutoffParams()))
    Z = sample_product(params, count, child_seed(seed, 1)).points
    nzp = lp_norm(Z, p)
    X = Z[:, :-1] / nzp[:, None]

    def norms(field, pts):
        return np.linalg.norm(field.grad(pts), axis=1)

    kappa = (2.0 - p) / (2.0 * p)
    c3 = 1.0 / 3.0
    gg = norms(g, Z)
    ggh2 = norms(gh2, Z)
    err1 = h1.slope * (lp_norm(X, 2.0) >= 1.0 / h1.slope)
    err2 = 2.0 * n ** kappa * (nzp <= 2.0 * n ** (1.0 / p))
    diffs = {
        1: norms(f, X) - norms(fh1, X) + err1,
        2: norms(fh1, X) - c3 * gg * nzp,
        3: gg * nzp - n ** (1.0 / p) * ggh2 + err2,
    }
    diffs[4] = diffs[2] + c3 * diffs[3]
    diffs[5] = (norms(f, X) - c3 * n ** (1.0 / p) * ggh2
                + 0.5 * math.exp(-4.0 * n ** (p / 2.0)))
    by_link = {int(r.params[2]): r for r in rep.reports}
    for link, diff in diffs.items():
        assert by_link[link].lhs == mean_ci(diff)
    plateau = gh2(Z)
    assert by_link[6].lhs == bernoulli_ci(
        int((plateau >= 1.0 - 1e-12).sum()), count)
    assert by_link[7].lhs == bernoulli_ci(int((plateau <= 1e-12).sum()), count)
    v_f1 = float((f(X) >= 1.0 - 1e-12).mean())
    assert rep.constants["plateau_oracle"] == v_f1 * float(
        special.gammaincc(n / p + 1.0, (2.0 * n ** (1.0 / p)) ** p))


def test_cutoff_chain_evaluates_each_norm_of_the_product_batch_once(monkeypatch):
    # |z|_p passes over the (count, n + 1) product batch: the chain's own
    # (which also gives T(Z) and the push-forward's gradient), the h2
    # cut-off's and the Jacobian scan's; recomputing |z|_p per field and
    # per method took 9
    p, n, count = 1.5, 4, 3000
    real = isoplab.geometry.lp_norm
    calls = []

    def counting(x, p_):
        calls.append((np.shape(x), p_))
        return real(x, p_)

    for module in (isoplab.fields, isoplab.inequality_suite, isoplab.geometry):
        monkeypatch.setattr(module, "lp_norm", counting)
    rep = verify_cutoff_chain(p, n, count=count, seed=5)
    assert len(rep.reports) == 8
    assert calls.count(((count, n + 1), p)) == 3


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
    rep = check_paouris_tail(2.0, 4, [0.5, 0.9, 0.99], count=20000, seed=33)
    assert rep.verdicts()[FAIL] == 0
    assert rep.constants["c_hat"] is not None and rep.constants["c_hat"] > 0.0
    eligible = [r for r in rep.reports if r.params[3] == 1.0]
    assert eligible
    for r in eligible:
        assert r.params[2] >= rep.constants["t_min"]
