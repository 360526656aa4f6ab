"""Oracle tests for ``isoplab._special`` against ``scipy.special``.

The parameters are the ones the package's call sites reach, for p on a grid
over [1, 2] and n up to 4096:

* gamma shapes 1/p (|X|^p of mu_p), N/p <= 16 (Lemma 5's Gamma(N/p) sums)
  and n/p + 1 (the chain's |z|_p^p);
* beta shapes (1/p, (n-1)/p + 1) (|x_1|^p under V_{p,n}), the swapped pair
  (marginal level density) and (3/p, (n-1)/p + 1) (second moment).

Every function is compared at points spread over both tails, down to values
of 1e-300: the quantiles at LEVELS on either side.  Relative tolerance is
1e-13 where every shape is <= 64 and 1e-12 up to 4097; each inverse also
round-trips, x -> tail -> x, to the same tolerance.
"""

import math

import numpy as np
import pytest
from scipy import special

from isoplab import _special

P_GRID = (1.0, 1.2, 1.4, 1.6, 1.8, 2.0)
N_GRID = (1, 2, 3, 4, 8, 16, 64, 256, 1024, 2048, 4096)
LEVELS = (1e-300, 1e-100, 1e-30, 1e-8, 1e-3, 0.1, 0.3, 0.5)
EPS = 2.0 ** -52


def _tol(*shapes):
    return 1e-13 if max(shapes) <= 64.0 else 1e-12


def _gamma_shapes():
    shapes = set()
    for p in P_GRID:
        shapes.add(1.0 / p)
        shapes.update(N / p for N in range(1, 17) if N / p <= 16.0)
        shapes.update(n / p + 1.0 for n in N_GRID)
    return sorted(shapes)


def _beta_shapes():
    shapes = set()
    for p in P_GRID:
        for n in N_GRID:
            b = (n - 1.0) / p + 1.0
            shapes.update([(1.0 / p, b), (b, 1.0 / p)])
    return sorted(shapes)


def _rel(got, want):
    return abs(got - want) / abs(want)


def _cephes_gamma_error(a, x):
    # scipy's gammainc / gammaincc take the prefactor as
    # exp(a ln x - x - ln Gamma(a)) where |x - a| > 0.4 a, which rounds by
    # about eps times the size of its terms: 5e-12 at a = 2049, x = 2a
    if abs(x - a) <= 0.4 * a:
        return 0.0
    return 4.0 * EPS * (a * abs(math.log(x)) + x + special.gammaln(a))


# ---------------------------------------------------------------------------
# incomplete gamma function
# ---------------------------------------------------------------------------

def _gamma_points():
    """(a, x) at the quantiles of LEVELS in either tail."""
    for a in _gamma_shapes():
        for level in LEVELS:
            for inverse in (special.gammaincinv, special.gammainccinv):
                x = float(inverse(a, level))
                if 0.0 < x < math.inf:
                    yield a, x


def test_gamma_tails_match_scipy():
    for a, x in _gamma_points():
        tol = _tol(a) + _cephes_gamma_error(a, x)
        for ours, theirs in ((_special.gammainc, special.gammainc),
                             (_special.gammaincc, special.gammaincc)):
            want = float(theirs(a, x))
            got = ours(a, x)
            if want < 1e-300:
                assert got < 1e-299, (ours.__name__, a, x)
                continue
            assert _rel(got, want) <= tol, (ours.__name__, a, x, got, want)


def test_gamma_far_tails_at_large_shapes_match_mpmath():
    # where scipy's own rounding exceeds the tolerance, the truth decides
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for p in (1.0, 1.2, 1.6):
        for n in (256, 1024, 2048):
            # the chain's plateau mass: Q(n/p + 1, (2 n^(1/p))^p)
            a, x = n / p + 1.0, (2.0 * n ** (1.0 / p)) ** p
            want = mp.gammainc(a, x, mp.inf, regularized=True)
            if want < 1e-300:
                continue
            assert _rel(_special.gammaincc(a, x), want) <= 1e-12, (a, x)
            x = 0.45 * a
            want = mp.gammainc(a, 0, x, regularized=True)
            assert _rel(_special.gammainc(a, x), want) <= 1e-12, (a, x)


@pytest.mark.parametrize("upper", [False, True])
def test_gamma_inverses_match_scipy_and_round_trip(upper):
    ours = _special.gammainccinv if upper else _special.gammaincinv
    theirs = special.gammainccinv if upper else special.gammaincinv
    tail = _special.gammaincc if upper else _special.gammainc
    for a in _gamma_shapes():
        tol = _tol(a)
        for level in LEVELS:
            x = ours(a, level)
            want = float(theirs(a, level))
            if want == 0.0:
                # the quantile underflows: a^-1 log(level Gamma(a + 1)) < -745
                assert x < 1e-300, (a, level, x)
                continue
            assert _rel(x, want) <= tol, (a, level, x, want)
            assert _rel(ours(a, tail(a, x)), x) <= tol, (a, level, x)


def test_gamma_edges():
    assert _special.gammainc(0.5, 0.0) == 0.0
    assert _special.gammaincc(0.5, 0.0) == 1.0
    assert _special.gammainc(2.0, math.inf) == 1.0
    assert _special.gammaincc(2.0, math.inf) == 0.0
    assert _special.gammaincinv(0.5, 0.0) == 0.0
    assert _special.gammaincinv(0.5, 1.0) == math.inf
    assert _special.gammainccinv(0.5, 1.0) == 0.0
    assert _special.gammainccinv(0.5, 0.0) == math.inf
    for bad in ((-1.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.nan)):
        assert math.isnan(_special.gammainc(*bad))
        assert math.isnan(_special.gammaincc(*bad))
    assert math.isnan(_special.gammaincinv(1.0, 1.5))


# ---------------------------------------------------------------------------
# incomplete beta function
# ---------------------------------------------------------------------------

def _beta_points():
    """(a, b, x) at the quantiles of LEVELS in either tail."""
    for a, b in _beta_shapes():
        for level in LEVELS:
            for inverse in (special.betaincinv, special.betainccinv):
                x = float(inverse(a, b, level))
                if 0.0 < x < 1.0:
                    yield a, b, x


def test_beta_tails_match_scipy():
    for a, b, x in _beta_points():
        tol = _tol(a, b)
        want = float(special.betaincc(a, b, x))
        got = _special.betaincc(a, b, x)
        if want < 1e-300:
            assert got < 1e-299, (a, b, x)
            continue
        assert _rel(got, want) <= tol, (a, b, x, got, want)


@pytest.mark.parametrize("upper", [False, True])
def test_beta_inverses_match_scipy_and_round_trip(upper):
    ours = _special.betainccinv if upper else _special.betaincinv
    theirs = special.betainccinv if upper else special.betaincinv
    # the lower tail I_x(a, b) is the first of the pair betaincc's
    # continued fraction gives
    tail = (_special.betaincc if upper
            else lambda a, b, x: _special._beta_pq(a, b, x)[0])
    for a, b in _beta_shapes():
        tol = _tol(a, b)
        for level in LEVELS:
            x = ours(a, b, level)
            assert 0.0 <= x <= 1.0, (a, b, level, x)
            want = float(theirs(a, b, level))
            if want < 1e-300:
                # x^a / (a B(a, b)) = level underflows: scipy stops at the
                # smallest normal float
                assert x < 1e-300, (a, b, level, x)
            elif not math.isnan(want):  # scipy gives nan at some small levels
                assert _rel(x, want) <= tol, (a, b, level, x, want)
            if 0.0 < x < 1.0:
                assert _rel(ours(a, b, tail(a, b, x)), x) <= tol, (a, b, x)


def test_beta_inverse_returns_one_where_the_quantile_rounds_to_one():
    for p in P_GRID:
        for n in (1, 2, 3):
            a, b = 1.0 / p, (n - 1.0) / p + 1.0
            # 1 - x = (level b B(a, b))^(1/b) (1 + ...) is below 1e-100
            assert _special.betainccinv(a, b, 1e-300) == 1.0, (p, n)
    # a tail within rounding of 1 - x: the tent, 1 - I_x(1, 2) = (1 - x)^2
    assert _special.betainccinv(1.0, 2.0, 1e-40) == 1.0
    assert _special.betainccinv(1.0, 2.0, 2e-30) == 1.0 - math.sqrt(2e-30)


def test_power_law_quantiles_match_mpmath():
    # below about 1e-17 a the quantiles are the power law v^a = level c:
    # P(a, x) = x^a / Gamma(a + 1) and I_x(a, b) = x^a / (a B(a, b)) up to
    # a factor 1 + O(x); rounding 1/a costs |ln v| eps, 2.6e-14 at a = 1.5
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    level = mp.mpf(1e-300)
    for a in (1.0, 1.5):
        want = (level * mp.gamma(a + 1)) ** (1 / mp.mpf(a))
        assert _rel(_special.gammaincinv(a, 1e-300), want) <= 1e-15, a
    a, b = 2.5, 0.5
    want = (level * a * mp.beta(a, b)) ** (1 / mp.mpf(a))
    assert _rel(_special.betaincinv(a, b, 1e-300), want) <= 1e-15


def test_beta_edges():
    assert _special.betaincc(0.5, 2.0, 0.0) == 1.0
    assert _special.betaincc(0.5, 2.0, 1.0) == 0.0
    assert _special.betaincinv(0.5, 2.0, 0.0) == 0.0
    assert _special.betaincinv(0.5, 2.0, 1.0) == 1.0
    assert _special.betainccinv(0.5, 2.0, 0.0) == 1.0
    assert _special.betainccinv(0.5, 2.0, 1.0) == 0.0
    for bad in ((0.0, 1.0, 0.5), (1.0, -1.0, 0.5), (1.0, 1.0, 1.5),
                (1.0, 1.0, math.nan)):
        assert math.isnan(_special.betaincc(*bad))


# ---------------------------------------------------------------------------
# log-gamma family
# ---------------------------------------------------------------------------

def test_log_gamma_family_matches_scipy():
    # a logarithm's absolute error is the relative error of the value it
    # stands for, so gammaln and betaln are compared relative to
    # max(1, |value|): near the zeros of ln Gamma at 1 and 2 scipy's own
    # gammaln is off by up to 1e-12 relative
    xs = np.concatenate([np.linspace(0.05, 6.0, 240), np.geomspace(6.0, 5000.0, 60),
                         [1.0 + 1.0 / p for p in np.linspace(1.0, 2.0, 41)],
                         [n / p + 1.0 for p in P_GRID for n in N_GRID]])
    for x in xs:
        x = float(x)
        want = float(special.gammaln(x))
        assert abs(_special.gammaln(x) - want) <= _tol(x) * max(1.0, abs(want)), x
    for p in P_GRID:
        for n in N_GRID:
            b = (n - 1.0) / p + 1.0
            for a in (1.0 / p, 3.0 / p):
                want = float(special.betaln(a, b))
                got = _special.betaln(a, b)
                assert abs(got - want) <= _tol(a, b) * max(1.0, abs(want)), (a, b)
                assert _special.betaln(b, a) == got


def test_gammaln_keeps_relative_accuracy_next_to_its_zeros():
    # ln Gamma(1 + z) = -euler z + zeta(2) z^2 / 2 + O(z^3) and
    # ln Gamma(2 + z) = (1 - euler) z + (zeta(2) - 1) z^2 / 2 + O(z^3), so
    # the two-term forms are good to about z^2 relative; math.lgamma is off
    # by 1e-8 relative at z = 1e-8
    euler = 0.5772156649015329
    zeta2 = math.pi ** 2 / 6.0
    for step in (1e-5, -1e-5, 1e-8, -1e-12):
        z = (1.0 + step) - 1.0  # the exact offset of the float argument
        want = -euler * z + 0.5 * zeta2 * z * z
        assert _rel(_special.gammaln(1.0 + z), want) <= z * z + 1e-15, z
        z = (2.0 + step) - 2.0
        want = (1.0 - euler) * z + 0.5 * (zeta2 - 1.0) * z * z
        assert _rel(_special.gammaln(2.0 + z), want) <= z * z + 1e-15, z
    assert _special.gammaln(1.0) == 0.0 and _special.gammaln(2.0) == 0.0


def test_edges_of_the_log_gamma_family():
    assert _special.gammaln(0.0) == math.inf
    assert _special.gammaln(-2.0) == math.inf
    assert _special.xlogy(0.0, 0.0) == 0.0
    assert math.isnan(_special.xlogy(0.0, math.nan))
    assert _special.xlogy(2.0, 0.0) == -math.inf
    assert _special.xlogy(0.3, 0.3) == float(special.xlogy(0.3, 0.3))


# ---------------------------------------------------------------------------
# array arguments
# ---------------------------------------------------------------------------

def test_functions_broadcast_like_ufuncs():
    x = np.array([[0.1, 0.5], [0.9, 0.99]])
    got = _special.betaincc(0.5, np.array([2.0, 9.0]), x)
    assert got.shape == (2, 2)
    for i in range(2):
        for j in range(2):
            assert got[i, j] == _special.betaincc(0.5, [2.0, 9.0][j], x[i, j])
    scalar = _special.gammainc(2.0, 1.5)
    assert isinstance(scalar, np.float64)
    assert isinstance(_special.gammainc(2, np.float64(1.5)), np.float64)
    assert _special.gammainc(2, np.float64(1.5)) == scalar
    assert _special.gammainc(np.array(2.0), 1.5).ndim == 0
    assert _special.gammaincinv(0.5, np.array([])).shape == (0,)
