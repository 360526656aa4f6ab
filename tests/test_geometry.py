"""Geometry layer: volumes, marginals, test sets, the normalization map and
its differential, cut-offs, and the plateau fields built on top of them.

Closed-form oracles are evaluated inline (scipy.special / quad); finite
differences validate every analytic gradient away from kink sets.
"""

import math

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from isoplab import geometry
from isoplab.fields import (
    CutoffH1Field,
    CutoffH2Field,
    DirectionalFunctional,
    DistanceRamp,
    LinearRamp,
    ProductField,
    PushForwardField,
    RadialRamp,
    functional_catalog,
)
from isoplab.geometry import (
    BALL_TOL,
    BLOCK_ROWS,
    BallComplement,
    HalfSpace,
    KinkError,
    PBallParams,
    _differential_terms,
    _lp_norm_direct,
    _op_norms_and_bounds,
    ball_log_volume,
    ball_volume,
    bgmn_map,
    block_rows,
    coordinate_half_space,
    jacobian_T,
    jacobian_op_norms,
    kappa,
    lp_dual,
    lp_norm,
    marginal_cdf,
    marginal_density,
    marginal_isf,
    marginal_level_density,
    marginal_quantile,
    marginal_second_moment,
    map_row_blocks,
    marginal_sf,
    pow_p,
    row_dot,
    row_sum,
)
from isoplab.sampling import ball_blocks, sample_ball, sample_product


# ---------------------------------------------------------------------------
# volumes and marginals
# ---------------------------------------------------------------------------

def test_frozen_ball_volumes():
    assert abs(ball_volume(1.0, 2) - 2.0) < 1e-12
    assert abs(ball_volume(2.0, 2) - np.pi) < 1e-12
    assert abs(ball_volume(2.0, 3) - 4.0 * np.pi / 3.0) < 1e-12
    assert abs(ball_volume(1.0, 3) - 4.0 / 3.0) < 1e-12
    for p in (1.0, 1.3, 1.7, 2.0):
        assert abs(ball_volume(p, 1) - 2.0) < 1e-12


@pytest.mark.parametrize("p", [1.0, 1.3, 1.7, 2.0])
def test_planar_volume_by_quadrature(p):
    # Vol(B_p^2) = 4 * int_0^1 (1 - t^p)^(1/p) dt, independent of gammaln
    val, err = quad(lambda t: (1.0 - t ** p) ** (1.0 / p), 0.0, 1.0)
    assert abs(ball_volume(p, 2) - 4.0 * val) < 1e-9


def test_log_volume_matches_volume():
    for p, n in [(1.0, 8), (1.5, 5), (2.0, 12)]:
        assert abs(np.log(ball_volume(p, n)) - ball_log_volume(p, n)) < 1e-12


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("n", [2, 5, 16])
def test_marginal_density_normalization(p, n):
    params = PBallParams(p, n)
    val, err = quad(lambda t: marginal_density(params, t), -1.0, 1.0,
                    epsabs=1e-13, limit=200)
    assert abs(val - 1.0) < 1e-10


def test_marginal_log_norm_matches_mpmath():
    # Vol(B_p^n) / Vol(B_p^{n-1}) in 40 digits; differencing the two ball
    # log-volumes in floats is off by 3.6e-12 at (1, 4096)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    for p in (1.0, 1.5, 2.0):
        q = 1 / mp.mpf(p)
        for n in (1, 2, 3, 4, 16, 64, 256, 1024, 2048, 4096):
            want = (mp.log(2 * mp.gamma(1 + q)) - mp.loggamma(1 + n * q)
                    + mp.loggamma(1 + (n - 1) * q))
            got = geometry._marginal_log_norm(p, n)
            assert abs(got - want) <= 2e-15, (p, n, got)


def test_marginal_cdf_against_quadrature():
    params = PBallParams(1.5, 4)
    for t in (-0.8, -0.3, 0.0, 0.2, 0.9):
        val, err = quad(lambda s: marginal_density(params, s), -1.0, t,
                        epsabs=1e-13, limit=200)
        assert abs(marginal_cdf(params, t) - val) < 1e-10


def test_marginal_cdf_endpoints_and_symmetry():
    params = PBallParams(1.0, 3)
    assert marginal_cdf(params, -1.0) == 0.0
    assert marginal_cdf(params, 0.0) == 0.5
    assert marginal_cdf(params, 1.0) == 1.0
    for t in (-0.7, 0.1, 0.4):
        assert abs(marginal_sf(params, t) - marginal_cdf(params, -t)) < 1e-15


def test_marginal_quantile_round_trip():
    for p, n in [(1.0, 2), (1.5, 4), (2.0, 8)]:
        params = PBallParams(p, n)
        for a in (1e-6, 0.01, 0.3, 0.5, 0.77, 1 - 1e-6):
            assert abs(marginal_cdf(params, marginal_quantile(params, a)) - a) < 1e-10
        assert abs(marginal_sf(params, marginal_isf(params, 0.2)) - 0.2) < 1e-10


TAIL_LEVELS = (1e-300, 1e-30, 1e-18)


def test_marginal_upper_tail_keeps_relative_accuracy():
    params = PBallParams(1.5, 16)
    b = 15.0 / 1.5 + 1.0
    for t in (0.9, 0.97, 0.99):
        expected = 0.5 * special.betaincc(1.0 / 1.5, b, t ** 1.5)
        val, err = quad(lambda s: marginal_density(params, s), t, 1.0,
                        epsabs=0.0, epsrel=1e-12)
        assert abs(val - expected) <= 1e-10 * expected
        assert abs(marginal_sf(params, t) - expected) <= 1e-13 * expected
        assert marginal_cdf(params, -t) == marginal_sf(params, t)


def test_marginal_quantile_tails_round_trip():
    params = PBallParams(1.5, 16)
    for a in TAIL_LEVELS[1:]:
        t = marginal_quantile(params, a)
        assert abs(marginal_cdf(params, t) - a) <= 1e-12 * a
        assert marginal_isf(params, a) == -t
        assert abs(marginal_sf(params, -t) - a) <= 1e-12 * a
    # |t| = 1 - O(1e-27) rounds to 1, which is the nearest float
    assert marginal_quantile(params, 1e-300) == -1.0
    assert marginal_isf(params, 1e-300) == 1.0
    # p = 1, n = 2: the marginal is the tent, F(t) = (1 + t)^2 / 2 for t <= 0
    tent = PBallParams(1.0, 2)
    for a in TAIL_LEVELS + (1e-6, 0.3):
        assert abs(marginal_quantile(tent, a) - (np.sqrt(2.0 * a) - 1.0)) < 1e-15
        assert abs(marginal_isf(tent, a) - (1.0 - np.sqrt(2.0 * a))) < 1e-15


@pytest.mark.parametrize("p", [1.0, 1.05, 1.25, 1.5, 2.0])
def test_marginal_quantile_finite_at_the_smallest_levels(p):
    for n in (1, 2, 5, 8, 16, 64):
        t = marginal_quantile(PBallParams(p, n), np.array(TAIL_LEVELS))
        assert np.all(np.isfinite(t)) and np.all((-1.0 <= t) & (t < 0.0))
        assert np.all(np.diff(t) >= 0.0)


def test_marginal_quantile_level_validation():
    with pytest.raises(ValueError):
        marginal_quantile(PBallParams(2.0, 2), 0.0)
    with pytest.raises(ValueError):
        marginal_quantile(PBallParams(2.0, 2), 1.0)


def test_marginal_density_domain():
    params = PBallParams(1.5, 3)
    with pytest.raises(ValueError):
        marginal_density(params, 1.0 + 2 * BALL_TOL)
    # sampler overshoot within BALL_TOL clamps to density 0
    assert marginal_density(params, 1.0 + 0.5 * BALL_TOL) == 0.0


def _ball3_boundary(a):
    # p = 2, n = 3: density 3/4 (1 - t^2) and tail a = v^2 (3 - v) / 4 with
    # v = 1 - t; that cubic's root in (0, 1] is v = sqrt(3) sin d + 2
    # sin^2(d/2), d = (2/3) arcsin(sqrt(a)), which does not cancel as a -> 0
    d = (2.0 / 3.0) * math.asin(math.sqrt(a))
    v = math.sqrt(3.0) * math.sin(d) + 2.0 * math.sin(0.5 * d) ** 2
    return 0.75 * v * (2.0 - v)


def test_ball3_closed_form_solves_its_cubic():
    for a in (1e-6, 0.01, 0.2, 0.5):
        d = (2.0 / 3.0) * math.asin(math.sqrt(a))
        v = math.sqrt(3.0) * math.sin(d) + 2.0 * math.sin(0.5 * d) ** 2
        assert v * v * (3.0 - v) / 4.0 == pytest.approx(a, rel=1e-13)
        assert _ball3_boundary(a) == pytest.approx(
            marginal_density(PBallParams(2.0, 3), 1.0 - v), rel=1e-13)


@pytest.mark.parametrize("a", [1e-30, 1e-100, 1e-300])
def test_boundary_mass_at_tiny_levels_matches_closed_forms(a):
    # t_a rounds to 1 at these levels, so the density at t_a read as
    # (1 - |t_a|^p)^((n-1)/p) is off by 2% at 1e-30 and 0 below
    for params, want in ((PBallParams(1.0, 2), math.sqrt(2.0 * a)),
                         (PBallParams(2.0, 3), _ball3_boundary(a))):
        got = coordinate_half_space(params, a).analytic_boundary(params)
        assert got == pytest.approx(want, rel=1e-12), params
        assert marginal_level_density(params, a) == got


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_level_density_agrees_with_the_density_at_the_quantile(p):
    # where t_a is far from 1 both routes are accurate; the density is even
    levels = np.array([1e-8, 1e-4, 0.1, 0.3, 0.5])
    for n in (1, 2, 5, 64, 1024):
        params = PBallParams(p, n)
        got = marginal_level_density(params, levels)
        want = marginal_density(params, marginal_isf(params, levels))
        np.testing.assert_allclose(got, want, rtol=1e-11)
        np.testing.assert_allclose(
            marginal_level_density(params, 1.0 - levels[2:]), got[2:],
            rtol=1e-13)
    with pytest.raises(ValueError):
        marginal_level_density(PBallParams(p, 2), 0.0)


def test_n1_marginal_is_uniform():
    params = PBallParams(1.7, 1)
    assert abs(marginal_density(params, 0.3) - 0.5) < 1e-12
    assert abs(marginal_second_moment(params) - 1.0 / 3.0) < 1e-10


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("n", [2, 5, 16])
def test_second_moment_closed_form(p, n):
    # the library's beta-function ratio against quadrature of t^2 f(t)
    params = PBallParams(p, n)
    val, err = quad(lambda t: t * t * marginal_density(params, t), 0.0, 1.0,
                    epsabs=1e-14, epsrel=1e-12, limit=200)
    assert abs(marginal_second_moment(params) - 2.0 * val) < 1e-10


def test_second_moment_frozen_values():
    assert abs(marginal_second_moment(PBallParams(2.0, 2)) - 0.25) < 1e-12


def test_params_validation():
    with pytest.raises(ValueError):
        PBallParams(0.5, 2)
    with pytest.raises(ValueError):
        PBallParams(2.5, 2)
    with pytest.raises(ValueError):
        PBallParams(1.5, 0)


def test_lp_norm_fast_paths():
    x = np.array([[3.0, -4.0], [1.0, 1.0]])
    np.testing.assert_allclose(lp_norm(x, 2.0), [5.0, np.sqrt(2.0)])
    np.testing.assert_allclose(lp_norm(x, 1.0), [7.0, 2.0])
    np.testing.assert_allclose(lp_norm(x, 1.5),
                               (np.abs(x) ** 1.5).sum(axis=1) ** (1 / 1.5))


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def _mixed_magnitudes(rows, cols, seed):
    # signed values spread from 1e-16 to 1e16, so the summation order shows
    rng = np.random.default_rng(seed)
    return (rng.choice([-1.0, 1.0], (rows, cols))
            * 10.0 ** rng.uniform(-16.0, 16.0, (rows, cols)))


@pytest.mark.parametrize("width", range(1, 8))
def test_row_sum_is_bit_equal_to_numpy_on_short_rows(width):
    a = _mixed_magnitudes(200_000, width, seed=width)
    wide = _mixed_magnitudes(200_000, width + 1, seed=100 + width)
    for arr in (a, np.asfortranarray(a), wide[:, :-1], wide[:, 1:]):
        assert _same_bits(row_sum(arr), np.sum(arr, axis=1))


def test_row_sum_special_values_are_bit_equal():
    vals = [-0.0, 0.0, 1.0, -1.0, 1e-300, -1e300, np.inf, -np.inf, np.nan]
    for width in (1, 2, 3):
        grid = np.stack(np.meshgrid(*[vals] * width, indexing="ij"), axis=-1)
        rows = grid.reshape(-1, width)
        with np.errstate(invalid="ignore"):
            assert _same_bits(row_sum(rows), rows.sum(axis=1))


def test_row_sum_falls_back_to_numpy():
    for width in (8, 9, 16):
        a = _mixed_magnitudes(1000, width, seed=width)
        for arr in (a, np.asfortranarray(a)):
            assert _same_bits(row_sum(arr), arr.sum(axis=1))
    v = _mixed_magnitudes(1, 50, seed=3)[0]
    assert _same_bits(row_sum(v), v.sum())
    assert _same_bits(row_sum(np.empty((3, 0))), np.zeros(3))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_lp_norm_is_bit_equal_to_numpy_sums(p):
    # one block (5000 rows) and two blocks plus a partial one, in C order,
    # F order and as a column slice; every norm is taken before any is
    # compared, so a buffer shared across calls shows
    cases = []
    for rows in (5000, 2 * BLOCK_ROWS + 17):
        for width in (1, 2, 4, 7, 8, 9, 64):
            x = _mixed_magnitudes(rows, width, seed=width)
            wide = _mixed_magnitudes(rows, width + 1, seed=100 + width)
            for arr in (x, np.asfortranarray(x), wide[:, 1:]):
                cases.append((arr, lp_norm(arr, p)))
    for arr, got in cases:
        ref = (np.abs(arr) ** p).sum(axis=1) ** (1.0 / p)
        if p == 1.0:
            ref = np.abs(arr).sum(axis=1)
        if p == 2.0:
            ref = np.linalg.norm(arr, axis=1)
        assert _same_bits(got, ref), (arr.shape, arr.flags.f_contiguous)


@pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 2.0])
def test_lp_primitives_are_the_formulas_they_replace(p):
    # kappa, a^p and sign(z)|z|^{p-1} are defined once, here; each gives
    # the bits of the formula the samplers, fields and checks wrote out,
    # signed zeros included
    z = _mixed_magnitudes(300, 5, seed=27)
    z[:3, :2] = [[0.0, -0.0], [-0.0, -0.0], [0.0, 1.0]]
    a = np.abs(z)
    assert _same_bits(pow_p(a, p), a ** p)
    assert _same_bits(lp_dual(z, p), np.sign(z) * np.abs(z) ** (p - 1.0))
    for n in (1, 2, 3, 4, 16, 64, 1024):
        assert _same_bits(n ** -kappa(p), n ** (-(2 - p) / (2 * p)))
        assert _same_bits(n ** kappa(p), n ** ((2.0 - p) / (2.0 * p)))


def test_block_rows_caps_the_values_per_block():
    assert [block_rows(w) for w in (1, 4, 5, 64, 65, 1024, 32768, 10 ** 6)] \
        == [BLOCK_ROWS, BLOCK_ROWS, 6553, 512, 504, 32, 1, 1]
    for width in range(1, 2000):
        rows = block_rows(width)
        assert rows * width <= 4 * BLOCK_ROWS or rows == 1, width
        assert rows == BLOCK_ROWS or (rows + 1) * width > 4 * BLOCK_ROWS


def test_map_row_blocks_steps_by_the_widest_input():
    seen = []

    def fn(narrow, wide):
        seen.append((narrow.shape[0], wide.shape[0]))
        return (wide.sum(axis=1) + narrow,)

    narrow, wide = np.arange(1000.0), np.ones((1000, 100))
    out, = map_row_blocks(fn, [narrow, wide], 1000)
    step = block_rows(100)
    assert seen == [(step, step)] * (1000 // step) + [(1000 % step,) * 2]
    assert np.array_equal(out, narrow + 100.0)


def test_map_row_blocks_sizes_each_column_from_the_first_block():
    # one column per returned value, with its dtype and trailing shape
    x = np.arange(20000.0).reshape(10000, 2)
    flags, pairs, sums = map_row_blocks(
        lambda X: (X[:, 0] > 5000.0, X * 2.0, X.sum(axis=1)), [x], 10000)
    assert flags.dtype == bool and pairs.shape == (10000, 2)
    assert np.array_equal(flags, x[:, 0] > 5000.0)
    assert np.array_equal(pairs, x * 2.0)
    assert np.array_equal(sums, x.sum(axis=1))
    # a block that returns another number of values; blocks that leave
    # rows of a column unwritten, or no rows at all
    widths = iter([2, 1])
    with pytest.raises(ValueError, match="returned 1 values"):
        map_row_blocks(lambda X: (X[:, 0],) * next(widths), [x], 10000)
    for rows, count in ((x, 10001), (x[:0], 0)):
        with pytest.raises(ValueError, match="do not cover rows"):
            map_row_blocks(lambda X: (X[:, 0],), [rows], count)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_wide_lp_norm_is_bit_equal_to_the_direct_pass(p):
    # wide rows are normed block_rows(n) rows at a time; three blocks plus a
    # partial one, in C order, F order and as a column slice
    for n in (64, 1024):
        rows = 3 * block_rows(n) + 17
        x = _mixed_magnitudes(rows, n, seed=n)
        wide = _mixed_magnitudes(rows, n + 1, seed=n + 1)
        for arr in (x, np.asfortranarray(x), wide[:, 1:]):
            assert _same_bits(lp_norm(arr, p), _lp_norm_direct(arr, p)), \
                (n, arr.flags.f_contiguous)


@pytest.mark.parametrize("n", [1, 3, 8, 9, 64, 1024])
def test_row_dot_depends_on_the_row_alone(n):
    # every row in C order, F order, as a column slice and alone gives
    # the same bits; BLAS X @ v does not, nor einsum on F-ordered rows
    rows = 300
    x = _mixed_magnitudes(rows, n, seed=n)
    wide = _mixed_magnitudes(rows, n + 1, seed=n + 1)
    wide[:, :n] = x
    v = np.random.default_rng(n).standard_normal(n)
    want = row_dot(x, v)
    for arr in (np.asfortranarray(x), wide[:, :n]):
        assert _same_bits(row_dot(arr, v), want), arr.flags.f_contiguous
    assert _same_bits([row_dot(x[k:k + 1], v)[0] for k in range(rows)], want)
    # a coordinate direction reads its coordinate, exactly
    e = np.zeros(n)
    e[n // 2] = 1.0
    assert np.array_equal(row_dot(x, e), x[:, n // 2])


@pytest.mark.parametrize("n", [8, 64, 1024])
def test_oblique_columns_do_not_depend_on_the_block_size(n, monkeypatch):
    # <x, xi> along the diagonal, streamed from ball_blocks into columns,
    # keeps its bits under blocks of 3 or 1 rows (BLOCK_ROWS = 7); formed
    # as BLAS X @ xi it moved in 43-90% of the rows, by up to 1.1e-16
    params = PBallParams(1.5, n)
    xi = np.full(n, n ** -0.5)
    hs = HalfSpace(xi, 0.0)
    ramp = LinearRamp(xi, -0.02, 0.02)
    F = DirectionalFunctional(xi)

    def columns():
        return map_row_blocks(lambda X: (hs.scalar(X), ramp(X), F(X)),
                              ball_blocks(params, 1000, 97), 1000)

    want = columns()
    monkeypatch.setattr(geometry, "BLOCK_ROWS", 7)
    for got, ref, name in zip(columns(), want, ("HalfSpace", "LinearRamp",
                                                "DirectionalFunctional")):
        assert _same_bits(got, ref), name


# ---------------------------------------------------------------------------
# test sets
# ---------------------------------------------------------------------------

def test_half_space_requires_unit_direction():
    with pytest.raises(ValueError):
        HalfSpace(np.array([1.0, 1.0]), 0.0)


def test_half_space_indicator_dist_consistency():
    hs = HalfSpace(np.array([0.6, 0.8]), 0.25)
    rng = np.random.default_rng(3)
    X = rng.standard_normal((500, 2))
    ind = hs.indicator(X)
    d = hs.dist(X)
    assert np.all(d[ind] == 0.0)
    assert np.all(d[~ind] > 0.0)
    # enlargement: {dist <= eps} for every eps
    for eps in (0.05, 0.3):
        np.testing.assert_array_equal(hs.enlarged(eps).indicator(X), d <= eps)


def test_half_space_dist_grad_is_unit_outside():
    hs = HalfSpace(np.array([0.6, 0.8]), 0.25)
    rng = np.random.default_rng(4)
    X = rng.standard_normal((200, 2))
    g = hs.dist_and_grad(X)[1]
    outside = hs.dist(X) > 0.0
    np.testing.assert_allclose(np.linalg.norm(g[outside], axis=1), 1.0)
    assert np.all(g[~outside] == 0.0)
    # matches the difference quotient of dist
    h = 1e-7
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd = (hs.dist(X + e) - hs.dist(X - e)) / (2 * h)
        mask = np.abs(hs.dist(X)) > 1e-3  # stay off the boundary kink
        np.testing.assert_allclose(fd[mask], g[mask, j], atol=1e-6)


def test_coordinate_half_space_round_trip():
    for p, n, a in [(1.0, 2, 0.1), (1.5, 4, 0.25), (2.0, 8, 0.5)]:
        params = PBallParams(p, n)
        hs = coordinate_half_space(params, a)
        assert abs(hs.analytic_measure(params) - a) < 1e-12
        assert abs(hs.analytic_boundary(params)
                   - marginal_density(params, hs.t)) < 1e-15


def test_non_coordinate_direction_has_no_analytic_value():
    params = PBallParams(2.0, 2)
    hs = HalfSpace(np.array([0.6, 0.8]), 0.0)
    assert hs.analytic_measure(params) is None
    assert hs.analytic_boundary(params) is None


def test_half_space_boundary_outside_ball_is_zero():
    params = PBallParams(2.0, 2)
    hs = HalfSpace(np.array([1.0, 0.0]), 1.5)
    assert hs.analytic_boundary(params) == 0.0


def test_ball_complement_boundary_off_the_ball_is_zero():
    # at p = 2 the measure is exact for every r (1 for r <= 0, 0 for r > 1),
    # and so is the boundary content: 0 where the set is the whole ball or
    # none of it
    params = PBallParams(2.0, 3)
    for r, measure in ((1.5, 0.0), (0.0, 1.0), (-0.5, 1.0)):
        assert BallComplement(r).analytic_measure(params) == measure
        assert BallComplement(r).analytic_boundary(params) == 0.0
    assert BallComplement(1.0).analytic_boundary(params) == 3.0
    assert BallComplement(1.5).analytic_boundary(PBallParams(1.5, 3)) is None


def test_ball_complement_exact_values():
    params = PBallParams(2.0, 3)
    bc = BallComplement(0.5)
    assert abs(bc.analytic_measure(params) - (1.0 - 0.5 ** 3)) < 1e-15
    assert abs(bc.analytic_boundary(params) - 3 * 0.25) < 1e-15
    assert bc.analytic_measure(PBallParams(1.5, 3)) is None
    assert bc.enlarged(0.1).r == pytest.approx(0.4)
    rng = np.random.default_rng(5)
    X = rng.standard_normal((300, 3)) * 0.4
    np.testing.assert_array_equal(bc.indicator(X), lp_norm(X, 2.0) >= 0.5)
    d = bc.dist(X)
    assert np.all(d[bc.indicator(X)] == 0.0)
    for eps in (0.05, 0.2):
        np.testing.assert_array_equal(bc.enlarged(eps).indicator(X), d <= eps)


def test_enlarged_threshold_is_threshold_minus_eps_bit_for_bit():
    # the content estimators take the eps-enlargement of {s >= t} as
    # {s >= t - eps} without building it: every set type the checks
    # estimate must agree to the bit
    params = PBallParams(1.5, 3)
    hs = coordinate_half_space(params, 0.3)
    ball = BallComplement(0.7)
    sets = [hs, coordinate_half_space(params, 0.1, axis=2),
            HalfSpace(np.array([0.6, 0.0, 0.8]), 0.1234567), ball]
    fields = [LinearRamp(hs.xi, 0.0, hs.t),
              LinearRamp(np.array([0.0, 0.6, -0.8]), -0.2, 0.3),
              RadialRamp(3, 0.4, 0.7),
              DistanceRamp(hs, 3, 0.05, 0.2),
              DistanceRamp(ball, 3, 0.0125, 0.1)]
    sets += [phi.superlevel((k + 0.5) / 64.0) for phi in fields
             for k in range(64)]
    rng = np.random.default_rng(61)
    ladder = [m * 3 ** -(1 / 6) for m in (0.1, 0.05, 0.02, 0.01)]
    for eps in ladder + list(rng.uniform(1e-4, 0.5, 16)):
        for set_ in sets:
            assert _same_bits(set_.enlarged(eps).threshold,
                              set_.threshold - eps)


# ---------------------------------------------------------------------------
# normalization map and Jacobian
# ---------------------------------------------------------------------------

def test_bgmn_map_basics():
    z = np.array([0.3, -0.4, 1.2])
    x = bgmn_map(z, 1.5)
    assert x.shape == (2,)
    np.testing.assert_allclose(x, z[:2] / lp_norm(z, 1.5))
    # batched rows agree with the single-point path
    Z = np.vstack([z, 2.0 * z])
    np.testing.assert_allclose(bgmn_map(Z, 1.5)[0], x)
    np.testing.assert_allclose(bgmn_map(Z, 1.5)[1], x)  # scale invariance
    assert np.all(lp_norm(bgmn_map(Z, 1.5), 1.5) <= 1.0)
    with pytest.raises(ValueError):
        bgmn_map(np.zeros(3), 1.5)


def _fd_jacobian(z, p, h=1e-7):
    n = z.size - 1
    out = np.empty((n, n + 1))
    for i in range(n + 1):
        e = np.zeros(n + 1)
        e[i] = h
        out[:, i] = (bgmn_map(z + e, p) - bgmn_map(z - e, p)) / (2 * h)
    return out


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("n", [2, 5])
def test_jacobian_matches_finite_differences(p, n):
    rng = np.random.default_rng(11)
    for _ in range(25):
        z = rng.standard_normal(n + 1)
        z[np.abs(z) < 1e-2] = 0.5  # keep clear of the kink set
        res = jacobian_T(z, p)
        fd = _fd_jacobian(z, p)
        scale = np.abs(fd).max()
        assert np.abs(res.matrix - fd).max() < 1e-6 * max(scale, 1.0)
        assert res.op_norm <= res.lemma1_bound + 1e-9
        svd = np.linalg.svd(res.matrix, compute_uv=False)[0]
        assert abs(res.op_norm - svd) <= 1e-12 * svd


def test_jacobian_kink_raises_for_p_below_two():
    with pytest.raises(KinkError):
        jacobian_T(np.array([1.0, 0.0, 2.0]), 1.5)
    # p = 2 is smooth away from the origin
    jacobian_T(np.array([1.0, 0.0, 2.0]), 2.0)


def test_jacobian_at_zero_ball_block():
    # all ball coordinates zero: the kink terms vanish and the bound is tight
    z = np.array([0.0, 0.0, 0.0, 1.7])
    res = jacobian_T(z, 1.5)
    nz = lp_norm(z, 1.5)
    expected = np.zeros((3, 4))
    expected[:, :3] = np.eye(3) / nz
    np.testing.assert_allclose(res.matrix, expected, atol=1e-14)
    assert abs(res.op_norm - res.lemma1_bound) < 1e-12


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_operator_norm_bound_holds_on_product_samples(p):
    n = 4
    Z = sample_product(PBallParams(p, n), 10 ** 4, seed=7).points
    ops, bounds = jacobian_op_norms(Z, p)
    assert ops.shape == bounds.shape == (10 ** 4,)
    assert np.all(ops <= bounds + 1e-9)
    # vectorized path agrees with the single-point API
    res = jacobian_T(Z[17], p)
    assert abs(ops[17] - res.op_norm) < 1e-10
    assert abs(bounds[17] - res.lemma1_bound) < 1e-12


def _dense_jacobian(z, p):
    # DT(z) = ([I|0] - x w^T / |z|_p^p) / |z|_p, w_i = sign(z_i)|z_i|^(p-1)
    n = z.size - 1
    nz = np.sum(np.abs(z) ** p) ** (1.0 / p)
    w = np.sign(z) * np.abs(z) ** (p - 1.0)
    return (np.eye(n, n + 1) - np.outer(z[:n], w) / nz ** p) / nz


@pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 2.0])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
def test_operator_norm_closed_form_matches_svd(p, n):
    Z = sample_product(PBallParams(p, n), 200, seed=5).points
    Z[0, :n] = 0.0                 # x = 0: the differential is [I|0]/|z|_p
    Z[1, :] = 1.0                  # all coordinates equal: x parallel to w
    if p == 1.0:
        Z[2, 0] = 0.0              # zero coordinates, where w = sign(z) = 0
        Z[3, -1] = 0.0
    ops, bounds = jacobian_op_norms(Z, p)
    svd = np.array([np.linalg.svd(_dense_jacobian(z, p),
                                  compute_uv=False)[0] for z in Z])
    np.testing.assert_allclose(ops, svd, rtol=1e-12, atol=0.0)
    assert np.all(ops <= bounds + 1e-9)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_blocked_operator_norms_are_bit_equal_to_one_pass(p):
    # rows of n + 1 values go block_rows(n + 1) at a time (8192 at n = 1,
    # 504 at n = 64); two blocks plus a partial one
    for n in (1, 2, 8, 64):
        rows = 2 * block_rows(n + 1) + 17
        Z = sample_product(PBallParams(p, n), rows, seed=n).points
        ops, bounds = jacobian_op_norms(Z, p)
        want_ops, want_bounds = _op_norms_and_bounds(
            *_differential_terms(Z, p), p)
        assert _same_bits(ops, want_ops), n
        assert _same_bits(bounds, want_bounds), n


# ---------------------------------------------------------------------------
# cut-offs
# ---------------------------------------------------------------------------

def _h1_closed_form(X, p, n):
    # clip(2 - c1 n^kappa |x|_2, 0, 1), kappa = (2-p)/(2p), c1 = 1
    kappa = (2.0 - p) / (2.0 * p)
    return np.clip(2.0 - n ** kappa * np.linalg.norm(X, axis=1), 0.0, 1.0)


def _h2_closed_form(Z, p, n):
    # clip(c2 n^(-1/p) |z|_p - 1, 0, 1), c2 = 1
    norms = np.sum(np.abs(Z) ** p, axis=1) ** (1.0 / p)
    return np.clip(n ** (-1.0 / p) * norms - 1.0, 0.0, 1.0)


def test_cutoff_h1_plateau_and_ramp():
    p, n = 1.5, 4
    kappa = (2.0 - p) / (2.0 * p)
    slope = n ** kappa
    inner = np.zeros((1, n))
    inner[0, 0] = 0.5 / slope
    outer = np.zeros((1, n))
    outer[0, 0] = 3.0 / slope
    mid = np.zeros((1, n))
    mid[0, 0] = 1.5 / slope
    field = CutoffH1Field(p, n)
    assert field(inner)[0] == 1.0
    assert field(outer)[0] == 0.0
    assert abs(field(mid)[0] - 0.5) < 1e-12
    X = np.vstack([inner, mid, outer,
                   2.0 * sample_ball(PBallParams(p, n), 2000, seed=12).points])
    want = _h1_closed_form(X, p, n)
    assert np.any((want > 0.0) & (want < 1.0))
    np.testing.assert_allclose(field(X), want)
    # on the ramp the gradient norm is exactly the slope
    assert abs(np.linalg.norm(field.grad(mid)[0]) - slope) < 1e-12


def test_cutoff_h2_plateau_and_gradient_bound():
    p, n = 1.5, 4
    scale = n ** (-1.0 / p)
    lo = np.zeros((1, n + 1))
    lo[0, 0] = 0.5 / scale
    hi = np.zeros((1, n + 1))
    hi[0, 0] = 2.5 / scale
    field = CutoffH2Field(p, n)
    assert field(lo)[0] == 0.0
    assert field(hi)[0] == 1.0
    Z = sample_product(PBallParams(p, n), 10 ** 4, seed=13).points
    np.testing.assert_allclose(field(Z), _h2_closed_form(Z, p, n))
    kappa = (2.0 - p) / (2.0 * p)
    bound = (n + 1.0) ** kappa * n ** (-1.0 / p)
    norms = np.linalg.norm(field.grad(Z), axis=1)
    assert np.all(norms <= bound + 1e-12)
    # the bound is sharp: equality at equal coordinates on the ramp
    z_star = np.full((1, n + 1), 1.5 / scale * (n + 1.0) ** (-1.0 / p))
    assert abs(np.linalg.norm(field.grad(z_star)[0]) - bound) < 1e-12


# ---------------------------------------------------------------------------
# plateau fields: finite-difference validation and superlevel sets
# ---------------------------------------------------------------------------

def _fd_field_grad(field, X, h=1e-7):
    X = np.asarray(X, dtype=float)
    out = np.zeros_like(X)
    for j in range(X.shape[1]):
        e = np.zeros(X.shape[1])
        e[j] = h
        out[:, j] = (field(X + e) - field(X - e)) / (2 * h)
    return out


def _assert_grad_matches(field, X, tol=1e-6):
    fd = _fd_field_grad(field, X)
    an = field.grad(X)
    scale = max(np.abs(fd).max(), 1.0)
    assert np.abs(an - fd).max() < tol * scale


def test_linear_ramp_gradient_and_superlevel():
    ramp = LinearRamp(np.array([0.6, 0.8]), -0.2, 0.4)
    rng = np.random.default_rng(21)
    X = rng.uniform(-1.0, 1.0, (400, 2))
    t = X @ ramp.xi
    on = (t > -0.19) & (t < 0.39)  # strictly inside the ramp
    _assert_grad_matches(ramp, X[on])
    assert np.all(ramp.grad(X[~((t > -0.2) & (t < 0.4))]) == 0.0)
    for u in (0.0, 0.3, 0.9):
        sup = ramp.superlevel(u)
        np.testing.assert_array_equal(sup.indicator(X), ramp(X) >= u + 1e-15)
    with pytest.raises(ValueError):
        ramp.superlevel(1.0)
    with pytest.raises(ValueError):
        LinearRamp(np.array([1.0, 1.0]), 0.0, 1.0)
    with pytest.raises(ValueError):
        LinearRamp(np.array([1.0, 0.0]), 0.5, 0.5)


def test_radial_ramp_gradient_and_superlevel():
    ramp = RadialRamp(3, 0.4, 0.9)
    rng = np.random.default_rng(22)
    X = rng.standard_normal((400, 3)) * 0.5
    r = np.linalg.norm(X, axis=1)
    on = (r > 0.41) & (r < 0.89)
    _assert_grad_matches(ramp, X[on])
    sup = ramp.superlevel(0.5)
    assert isinstance(sup, BallComplement)
    assert abs(sup.r - 0.65) < 1e-15
    with pytest.raises(ValueError):
        RadialRamp(3, 0.0, 1.0)


def test_distance_ramp_gradient_indicator_and_superlevel():
    hs = HalfSpace(np.array([0.6, 0.8]), 0.3)
    ramp = DistanceRamp(hs, 2, r=0.1, s=0.2)
    rng = np.random.default_rng(23)
    X = rng.uniform(-1.5, 1.5, (600, 2))
    d = hs.dist(X)
    on = (d > 0.11) & (d < 0.29)
    _assert_grad_matches(ramp, X[on])
    # the gradient is nonzero exactly on the shell r < dist < r + s
    np.testing.assert_array_equal(
        np.linalg.norm(ramp.grad(X), axis=1) > 0.0, (d > 0.1) & (d < 0.3))
    # superlevel(u) = enlargement by r + s(1-u)
    sup = ramp.superlevel(0.25)
    np.testing.assert_array_equal(sup.indicator(X), d <= 0.1 + 0.2 * 0.75)
    with pytest.raises(ValueError):
        DistanceRamp(hs, 2, r=-0.1, s=0.2)
    # the distance to a ball complement: the ramp runs inward from |x| = 0.75
    bc = BallComplement(0.8)
    inward = DistanceRamp(bc, 2, r=0.05, s=0.3)
    d = bc.dist(X)
    _assert_grad_matches(inward, X[(d > 0.06) & (d < 0.34)])


@pytest.mark.parametrize("field, exact", [
    (LinearRamp(np.array([1.0, 0.0, 0.0]), -0.1, 0.3), True),
    (LinearRamp(np.array([0.48, 0.6, 0.64]), -0.2, 0.4), True),
    (DistanceRamp(HalfSpace(np.array([0.0, 1.0, 0.0]), 0.2), 3, 0.05, 0.3),
     True),
    (DistanceRamp(HalfSpace(np.array([0.48, 0.6, 0.64]), 0.2), 3, 0.05, 0.3),
     False),
    (DistanceRamp(BallComplement(0.9), 3, 0.05, 0.3), False),
    (RadialRamp(3, 0.4, 0.9), False),
    (CutoffH1Field(1.5, 3), True),
], ids=["ramp", "oblique_ramp", "half_space_shell", "oblique_shell",
        "ball_shell", "radial", "cutoff"])
def test_grad_norm_is_the_norm_of_each_gradient_row(field, exact):
    # |grad f|_2 is lp_norm of the gradient rows, np.linalg.norm's bits;
    # the ramps take it from their scalar alone: the same support, and the
    # same bits wherever the gradient rows are one constant row
    X = np.random.default_rng(25).standard_normal((3000, 3)) * 0.6
    want = lp_norm(field.grad(X), 2.0)
    assert _same_bits(want, np.linalg.norm(field.grad(X), axis=1))
    assert 0 < np.count_nonzero(want) < want.size
    if not hasattr(field, "grad_norm_from_scalar"):
        return
    got = field.grad_norm_from_scalar(field.superlevel(0.0).scalar(X))
    np.testing.assert_array_equal(got > 0.0, want > 0.0)
    if exact:
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("ramp, scalar", [
    (LinearRamp(np.array([1.0, 0.0, 0.0]), -0.1, 0.3),
     lambda X: X[:, 0]),
    (LinearRamp(np.array([0.48, 0.6, 0.64]), -0.2, 0.4),
     lambda X: HalfSpace(np.array([0.48, 0.6, 0.64]), 0.7).scalar(X)),
    (RadialRamp(3, 0.4, 0.9), lambda X: np.linalg.norm(X, axis=1)),
    (DistanceRamp(HalfSpace(np.array([0.0, 1.0, 0.0]), 0.2), 3, 0.05, 0.3),
     lambda X: X[:, 1]),
    (DistanceRamp(HalfSpace(np.array([0.48, 0.6, 0.64]), 0.2), 3, 0.05,
                  0.3),
     lambda X: HalfSpace(np.array([0.48, 0.6, 0.64]), -1.0).scalar(X)),
    (DistanceRamp(BallComplement(0.9), 3, 0.05, 0.3),
     lambda X: np.linalg.norm(X, axis=1)),
], ids=["ramp", "oblique_ramp", "radial", "half_space_shell",
        "oblique_shell", "ball_shell"])
def test_grad_norm_from_scalar_is_grad_norm(ramp, scalar):
    # a cell holds the scalar column its sets share, x_1 or |x|_2, and
    # derives each ramp's gradient norms from it: the same bits from the
    # scalar of every superlevel set, on the support of the gradient rows
    X = np.random.default_rng(26).standard_normal((3000, 3)) * 0.6
    want = ramp.grad_norm_from_scalar(ramp.superlevel(0.0).scalar(X))
    np.testing.assert_array_equal(want > 0.0,
                                  lp_norm(ramp.grad(X), 2.0) > 0.0)
    assert 0 < np.count_nonzero(want) < want.size
    for u in (0.0, 0.5):
        assert np.array_equal(
            ramp.grad_norm_from_scalar(ramp.superlevel(u).scalar(X)), want)
    assert np.array_equal(ramp.grad_norm_from_scalar(scalar(X)), want)


def test_cutoff_fields_match_finite_differences():
    p, n = 1.5, 3
    h1 = CutoffH1Field(p, n)
    h2 = CutoffH2Field(p, n)
    rng = np.random.default_rng(24)
    X = rng.standard_normal((300, n))
    r = np.linalg.norm(X, axis=1)
    on1 = (r > h1.lo + 0.01) & (r < h1.hi - 0.01)
    _assert_grad_matches(h1, X[on1])
    Z = rng.standard_normal((300, n + 1)) * 1.5
    Z[np.abs(Z) < 5e-2] = 0.2  # keep off the l_p kinks
    rz = lp_norm(Z, p)
    on2 = (rz > h2.lo * 1.01) & (rz < h2.hi * 0.99)
    _assert_grad_matches(h2, Z[on2])


def test_product_field_gradient():
    n = 3
    f = LinearRamp(np.array([1.0, 0.0, 0.0]), -0.5, 0.5)
    g = RadialRamp(n, 0.3, 1.2)
    prod = ProductField(f, g)
    rng = np.random.default_rng(25)
    X = rng.standard_normal((500, n)) * 0.4
    t = X[:, 0]
    r = np.linalg.norm(X, axis=1)
    on = (t > -0.49) & (t < 0.49) & (r > 0.31) & (r < 1.19)
    _assert_grad_matches(prod, X[on])
    with pytest.raises(ValueError):
        ProductField(f, RadialRamp(2, 0.3, 1.2))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_push_forward_gradient_matches_finite_differences(p):
    # adjoint-differential regression: exercised at generic product points
    n = 4
    f = LinearRamp(np.array([1.0, 0.0, 0.0, 0.0]), -0.4, 0.4)
    push = PushForwardField(f, p)
    assert push.dim == n + 1
    Z = sample_product(PBallParams(p, n), 400, seed=31).points
    Z[np.abs(Z) < 5e-2] = 0.2
    t = bgmn_map(Z, p)[:, 0]
    on = (t > -0.39) & (t < 0.39)
    _assert_grad_matches(push, Z[on], tol=2e-6)
    # values are invariant under scaling of z
    np.testing.assert_allclose(push(Z), push(3.0 * Z), atol=1e-12)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_value_and_grad_matches_on_the_chain_composition(p):
    n = 3
    params = PBallParams(p, n)
    Z = sample_product(params, 4000, seed=63).points
    xi = np.zeros(n)
    xi[0] = 1.0
    f = LinearRamp(xi, 0.0, float(marginal_isf(params, 0.2)))
    h1 = CutoffH1Field(p, n)
    h2 = CutoffH2Field(p, n)
    chain = ProductField(PushForwardField(ProductField(f, h1), p), h2)
    # the product rule in the order ProductField has always used
    g = chain.f
    ref = g(Z)[:, None] * h2.grad(Z) + h2(Z)[:, None] * g.grad(Z)
    assert np.any(ref != 0.0)
    assert _same_bits(chain.grad(Z), ref)
    assert _same_bits(chain(Z), g(Z) * h2(Z))


def test_functional_catalog():
    for name in ("coordinate", "diagonal", "euclidean_norm"):
        f = functional_catalog(name, 4)
        assert f.dim == 4
        assert f.lipschitz_constant == 1.0
    X = np.array([[1.0, 2.0, 2.0, 0.0]])
    assert functional_catalog("coordinate", 4)(X)[0] == 1.0
    assert abs(functional_catalog("euclidean_norm", 4)(X)[0] - 3.0) < 1e-15
    assert abs(functional_catalog("diagonal", 4)(X)[0] - 2.5) < 1e-12
    with pytest.raises(ValueError):
        functional_catalog("bogus", 4)


def test_ball_sample_norms_inside():
    for p in (1.0, 1.5, 2.0):
        pts = sample_ball(PBallParams(p, 3), 2000, seed=41).points
        assert np.all(lp_norm(pts, p) <= 1.0 + BALL_TOL)
