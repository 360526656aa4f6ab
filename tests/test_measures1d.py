"""Oracle tests for the one-dimensional reference measures.

Expected values are either closed forms or quadrature results computed
with scipy.integrate.quad directly in this file; nothing is copied from
the library under test.
"""

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from isoplab.measures1d import (
    bobkov_profile,
    make_exponential,
    make_gamma,
    make_mu_p,
    make_nu_p,
    profile_comparison,
)

P_GRID = [1.0, 1.25, 1.5, 2.0]


def test_quad_oracle_sanity():
    # the machinery this file trusts: Gamma(3/2) = sqrt(pi)/2 by quadrature
    val, err = quad(lambda t: np.sqrt(t) * np.exp(-t), 0, np.inf)
    assert abs(val - np.sqrt(np.pi) / 2.0) < 1e-12


@pytest.mark.parametrize("p", P_GRID)
def test_mu_p_density_normalization(p):
    mu = make_mu_p(p)
    val, err = quad(mu.density, -np.inf, np.inf, limit=200)
    assert err < 1e-7
    assert abs(val - 1.0) < 1e-8


@pytest.mark.parametrize("p", P_GRID)
def test_nu_p_density_normalization(p):
    nu = make_nu_p(p)
    val, err = quad(nu.density, 0, np.inf, limit=200)
    assert err < 1e-7
    assert abs(val - 1.0) < 1e-8


def test_mu_density_closed_forms():
    assert abs(make_mu_p(1.0).density(0.0) - 0.5) < 1e-14
    assert abs(make_mu_p(2.0).density(0.0) - 1.0 / np.sqrt(np.pi)) < 1e-14


def test_mu2_cdf_is_gaussian_error_function():
    mu = make_mu_p(2.0)
    for t in (-2.0, -0.5, 0.0, 0.3, 1.7):
        assert abs(mu.cdf(t) - 0.5 * (1.0 + special.erf(t))) < 1e-14


def test_nu_p_cdf_closed_form():
    # Exp(1) is nu_1
    laws = [(p, make_nu_p(p)) for p in P_GRID] + [(1.0, make_exponential())]
    for p, nu in laws:
        t = np.array([0.0, 0.2, 1.0, 2.5])
        np.testing.assert_allclose(nu.cdf(t), 1.0 - np.exp(-t ** p),
                                   atol=1e-14)


@pytest.mark.parametrize("maker", [
    lambda: make_mu_p(1.0), lambda: make_mu_p(1.5), lambda: make_mu_p(2.0),
    lambda: make_nu_p(1.0), lambda: make_nu_p(2.0),
    lambda: make_gamma(0.5), lambda: make_gamma(2.0),
    make_exponential,
])
def test_quantile_round_trip(maker):
    m = maker()
    levels = np.concatenate([[1e-8], np.linspace(0.01, 0.99, 25), [1 - 1e-8]])
    for a in levels:
        assert abs(m.cdf(m.quantile(a)) - a) < 1e-10, (m.name, a)


@pytest.mark.parametrize("p", P_GRID)
def test_mu_p_lower_tail_round_trips_to_relative_accuracy(p):
    mu = make_mu_p(p)
    for a in (1e-300, 1e-30, 1e-18):
        assert abs(mu.cdf(mu.quantile(a)) - a) <= 1e-12 * a


def test_mu_p_tail_quantiles_against_closed_forms():
    # mu_1 is Laplace(1/2): F^{-1}(a) = log(2a) for a <= 1/2; mu_2 is
    # N(0, 1/2): F^{-1}(a) = -erfcinv(2a)
    for a in (1e-300, 1e-30, 1e-18, 0.2):
        expected = np.log(2.0 * a)
        assert abs(make_mu_p(1.0).quantile(a) - expected) <= 1e-13 * abs(expected)
        expected = -special.erfcinv(2.0 * a)
        assert abs(make_mu_p(2.0).quantile(a) - expected) <= 1e-13 * abs(expected)


def test_quantile_rejects_bad_levels():
    mu = make_mu_p(1.5)
    for a in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(ValueError):
            mu.quantile(a)


def test_parameter_validation():
    with pytest.raises(ValueError):
        make_mu_p(2.5)
    with pytest.raises(ValueError):
        make_nu_p(0.5)
    with pytest.raises(ValueError):
        make_gamma(-1.0)


def _midpoint_log_concavity_holds(m, grid):
    # f((s+t)/2)^2 >= f(s) f(t) for all pairs, up to float slack
    logf = m.log_density(grid)
    mid = m.log_density((grid[:, None] + grid[None, :]) / 2.0)
    lhs = 2.0 * mid
    rhs = logf[:, None] + logf[None, :]
    finite = np.isfinite(rhs)
    return bool(np.all(lhs[finite] >= rhs[finite] - 1e-12))


def test_log_concavity_of_the_main_families():
    inner = np.linspace(-4.0, 4.0, 41)
    pos = np.linspace(1e-3, 6.0, 41)
    for p in P_GRID:
        assert _midpoint_log_concavity_holds(make_mu_p(p), inner)
        assert _midpoint_log_concavity_holds(make_nu_p(p), pos)
    assert _midpoint_log_concavity_holds(make_exponential(), pos)
    assert _midpoint_log_concavity_holds(make_gamma(1.0), pos)


def test_gamma_below_shape_one_is_log_convex_near_zero():
    # Gamma(1/p, 1) with p > 1 genuinely fails the midpoint test
    for p in (1.25, 1.5, 2.0):
        g = make_gamma(1.0 / p)
        assert not _midpoint_log_concavity_holds(g, np.linspace(1e-3, 6.0, 41))


def test_profile_of_two_sided_exponential_is_min_a_1ma():
    mu = make_mu_p(1.0)
    for a in np.linspace(0.01, 0.99, 99):
        prof = bobkov_profile(mu, a).boundary_mass
        assert abs(prof - min(a, 1.0 - a)) < 1e-10


def test_profile_of_one_sided_exponential_is_min_a_1ma():
    nu = make_nu_p(1.0)
    for a in (0.05, 0.25, 0.5, 0.75, 0.95):
        assert abs(bobkov_profile(nu, a).boundary_mass - min(a, 1 - a)) < 1e-12


def test_gaussian_like_profile_at_half():
    # symmetric law: the profile at a = 1/2 is the density at the median
    prof = bobkov_profile(make_mu_p(2.0), 0.5).boundary_mass
    assert abs(prof - 1.0 / np.sqrt(np.pi)) < 1e-12


def test_profile_level_validation():
    with pytest.raises(ValueError):
        bobkov_profile(make_mu_p(1.0), 0.0)
    with pytest.raises(ValueError):
        bobkov_profile(make_mu_p(1.0), 1.0)


def test_profile_comparison_bands():
    grid = np.linspace(0.001, 0.999, 199)
    for p in (1.0, 1.5, 2.0):
        cmp_ = profile_comparison(p, grid)
        assert cmp_.mu_ratio_min > 0.0
        assert cmp_.nu_ratio_min > 0.0
        # the model captures the order: the band stays within one decade
        assert cmp_.mu_ratio_max / cmp_.mu_ratio_min < 10.0
    # at p = 1 the mu_1 profile IS the model up to the min(a, 1-a) symmetry
    cmp1 = profile_comparison(1.0, grid)
    np.testing.assert_allclose(cmp1.mu_ratios, 1.0, atol=1e-10)


def test_profile_comparison_frozen_point():
    # p = 2, a = 1/2: J = 1/sqrt(pi), model = 0.5 sqrt(log 2)
    cmp_ = profile_comparison(2.0, [0.5])
    expected = (1.0 / np.sqrt(np.pi)) / (0.5 * np.sqrt(np.log(2.0)))
    assert abs(cmp_.mu_ratios[0] - expected) < 1e-12


def test_profile_comparison_empty_grid():
    with pytest.raises(ValueError):
        profile_comparison(1.5, [0.0, 1.0])
