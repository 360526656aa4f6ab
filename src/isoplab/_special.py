"""Regularized incomplete gamma and beta functions, their inverses, and the
log-gamma family, on ``math`` and numpy alone.

Every exact oracle of the package reduces to a handful of these values per
(p, n) cell, so each function is a scalar kernel in plain Python, broadcast
over array arguments by ``_ufunc``.  Scalar arguments give an ``np.float64``
and arrays an array, as ``scipy.special`` does.

Forward functions return both tails, each computed directly so that it keeps
its relative accuracy where it is small (DiDonato and Morris, ACM TOMS 12
(1986) and 18 (1992)):

* P(a, x) and Q(a, x) from the power series below x = a + 1 and the Legendre
  continued fraction above it, times the prefactor x^a e^-x / Gamma(a);
* I_x(a, b) and 1 - I_x(a, b) from the continued fraction on the side of the
  mean that holds x, times x^a (1 - x)^b / B(a, b).

The prefactors are products of correctly rounded powers where they are
representable; for a large shape they use the Stirling form
exp(-a rlog1(x/a - 1)) and log B(a, b) from Stirling differences, which do
not cancel.  Against 30-digit references on the package's parameter ranges
(p in [1, 2], n <= 4096, tails down to 1e-300) the forward functions are
good to 1e-14 relative for shapes up to 64 and to 4e-13 up to 4097: there
the Stirling exponent of a tail near 1e-300 rounds by |ln tail| eps, and the
continued fraction of 1 - I_x(a, b) loses digits near the bulk.  The
inverses are good to 4e-14 and 2e-13.

Inverses start from the Wilson-Hilferty, Abramowitz-Stegun or small-tail
power-law values and take safeguarded Halley steps on log(tail / target), the
tail being the smaller of the two; a beta quantile is solved in whichever of
x and 1 - x is the smaller, so a quantile within rounding of 1 returns 1.0.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

__all__ = [
    "gammainc",
    "gammaincc",
    "gammaincinv",
    "gammainccinv",
    "betainc",
    "betaincc",
    "betaincinv",
    "betainccinv",
    "gammaln",
    "betaln",
    "xlogy",
]

_EPS = 2.0 ** -52
_TINY = 1e-300
_MAXIT = 20000
_LOG_MAX = 700.0  # exp of anything within +-_LOG_MAX is a normal float
_HALF_LOG_2PI = 0.9189385332046728
_ONE_MINUS_EULER = 0.42278433509846713

# ln Gamma(2 + z) = (1 - gamma) z + sum_{k>=2} (-1)^k (zeta(k) - 1) z^k / k,
# |z| < 2; the k = 2..30 coefficients, so |z| <= 1/2 converges to 1e-19
_LGAMMA2_SERIES = (
    0.3224670334241132, -0.0673523010531981, 0.020580808427784546,
    -0.007385551028673986, 0.0028905103307415234, -0.001192753911703261,
    0.0005096695247430425, -0.00022315475845357939, 9.945751278180853e-05,
    -4.492623673813314e-05, 2.050721277567069e-05, -9.439488275268397e-06,
    4.374866789907488e-06, -2.039215753801366e-06, 9.55141213040742e-07,
    -4.492469198764566e-07, 2.1207184805554665e-07, -1.0043224823968099e-07,
    4.7698101693639804e-08, -2.2711094608943164e-08, 1.0838659214896955e-08,
    -5.183475041970047e-09, 2.4836745438024785e-09, -1.1921401405860912e-09,
    5.731367241678862e-10, -2.7595228851242334e-10, 1.330476437424449e-10,
    -6.4229645638381e-11, 3.1044247747322276e-11,
)
# Stirling correction ln Gamma(z) - [(z - 1/2) ln z - z + ln(2 pi)/2]
# = sum_k B_2k / (2k (2k - 1) z^(2k-1)); eight terms reach 1e-18 at z >= 10
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
             1.0 / 1188.0, -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0)


def _ufunc(kernel):
    """Broadcast a scalar kernel of floats over numpy arguments."""

    @functools.wraps(kernel)
    def ufunc(*args):
        if all(isinstance(v, float) for v in args):
            return np.float64(kernel(*[float(v) for v in args]))
        arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                       for v in args))
        shape = arrays[0].shape
        flat = [a.ravel().tolist() for a in arrays]
        out = np.fromiter((kernel(*vals) for vals in zip(*flat)), float,
                          count=arrays[0].size).reshape(shape)
        return out if shape else out[()]

    return ufunc


# ---------------------------------------------------------------------------
# log-gamma, log-beta
# ---------------------------------------------------------------------------

def _lgamma2(z: float) -> float:
    # ln Gamma(2 + z) for |z| <= 1/2, relative accuracy kept through z = 0
    s = 0.0
    for c in reversed(_LGAMMA2_SERIES):
        s = s * z + c
    return z * (_ONE_MINUS_EULER + z * s)


def _gammaln(x: float) -> float:
    """ln|Gamma(x)|, to relative accuracy also next to its zeros at 1 and 2,
    where ``math.lgamma`` cancels."""
    if 0.0 < x < 3.5:
        if x < 0.5:
            return _lgamma2(x) - math.log1p(x) - math.log(x)
        if x < 1.5:
            return _lgamma2(x - 1.0) - math.log1p(x - 1.0)
        if x < 2.5:
            return _lgamma2(x - 2.0)
        return _lgamma2(x - 3.0) + math.log(x - 1.0)
    if x != x:
        return x
    try:
        return math.lgamma(x)
    except ValueError:  # a pole
        return math.inf


def _stirling(z: float) -> float:
    # the Stirling correction mu(z), z >= 10
    r = 1.0 / (z * z)
    s = 0.0
    for c in reversed(_STIRLING):
        s = s * r + c
    return s / z


def _lgamma_ratio(a: float, b: float) -> float:
    # ln Gamma(b) - ln Gamma(a + b) for b >= 10, from Stirling differences:
    # -a ln b - (a + b - 1/2) log1p(a/b) + a + mu(b) - mu(a + b)
    h = a / b
    return ((_stirling(b) - _stirling(a + b))
            - (a + b - 0.5) * math.log1p(h) + a - a * math.log(b))


def _inv_beta_small(a: float, b: float) -> float:
    """1 / B(a, b) for b < 10 from three gamma values.  a + b rounds to c,
    and Gamma(a + b) = Gamma(c) (1 + e psi(c)) with e = a + b - c exact;
    the correction is taken with psi(c) ~ ln c - 1/(2c) - 1/(12 c^2)."""
    c = a + b
    e = (a - (c - b)) + (b - (c - (c - b)))
    psi = math.log(c) - 0.5 / c - 1.0 / (12.0 * c * c)
    return math.gamma(c) / math.gamma(a) / math.gamma(b) * (1.0 + e * psi)


def _betaln(a: float, b: float) -> float:
    if a > b:
        a, b = b, a
    if not a > 0.0:
        return math.nan if a != a or a < 0.0 else math.inf
    if b < 10.0:
        return -math.log(_inv_beta_small(a, b))
    if a < 10.0:
        return _gammaln(a) + _lgamma_ratio(a, b)
    # both large: -ln b / 2 + ln(2 pi) / 2 + mu(a) + mu(b) - mu(a + b)
    #             + (a - 1/2) ln(a / (a + b)) - b log1p(a / b)
    h = a / b
    w = _stirling(a) + _stirling(b) - _stirling(a + b)
    return (-0.5 * math.log(b) + _HALF_LOG_2PI + w
            + (a - 0.5) * math.log(h / (1.0 + h)) - b * math.log1p(h))


# ---------------------------------------------------------------------------
# incomplete gamma function
# ---------------------------------------------------------------------------

def _rlog1(d: float) -> float:
    """d - log1p(d), without cancellation for small |d|."""
    if -0.5 <= d <= 1.0:
        # with s = d / (2 + d): log1p(d) = 2 atanh(s) and d - 2s = s d
        s = d / (2.0 + d)
        s2 = s * s
        term, tail, k = s, 0.0, 3.0
        while True:
            term *= s2
            step = term / k
            tail += step
            if abs(step) <= _EPS * 1e-3 * abs(tail):
                break
            k += 2.0
        return s * d - 2.0 * tail
    return d - math.log1p(d)


def _gamma_front(a: float, x: float) -> float:
    """x^a e^-x / Gamma(a), the density of Gamma(a, 1) at x times x."""
    if a < 100.0:
        t = a * math.log(x)
        if abs(t) < _LOG_MAX and x < 2.0 * _LOG_MAX:
            h = math.exp(-0.5 * x)
            return x ** a * h / math.gamma(a) * h
        return math.exp(t - x - _gammaln(a))
    # Stirling: sqrt(a / 2 pi) exp(-a rlog1(x/a - 1) - mu(a)), where
    # a rlog1(x/a - 1) = x - a - a ln(x/a) is summed directly away from
    # x = a, since x/a - 1 would round away the digits of x/a
    if 0.5 * a <= x <= 2.0 * a:
        e = a * _rlog1((x - a) / a)
    else:
        e = (x - a) - a * math.log(x / a)
    return math.sqrt(a / (2.0 * math.pi)) * math.exp(-e - _stirling(a))


def _gamma_series(a: float, x: float) -> float:
    # sum_k x^k / (a (a+1) ... (a+k)); P = front * sum
    term = total = 1.0 / a
    ap = a
    for _ in range(_MAXIT):
        ap += 1.0
        term *= x / ap
        total += term
        if term < total * _EPS:
            break
    return total


def _gamma_cf(a: float, x: float) -> float:
    # Legendre's continued fraction by the modified Lentz method; Q = front * cf
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAXIT):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def _gamma_pq(a: float, x: float) -> tuple[float, float, float]:
    """(P(a, x), Q(a, x), x^a e^-x / Gamma(a)) for a > 0, x > 0 finite."""
    front = _gamma_front(a, x)
    if x < a + 1.0:
        p = front * _gamma_series(a, x)
        return p, 1.0 - p, front
    q = front * _gamma_cf(a, x)
    return 1.0 - q, q, front


def _gamma_bad(a: float, x: float) -> bool:
    return not (a > 0.0 and x >= 0.0) or a == math.inf


# ---------------------------------------------------------------------------
# incomplete beta function
# ---------------------------------------------------------------------------

def _beta_front(a: float, b: float, x: float) -> float:
    """x^a (1 - x)^b / B(a, b), with 1 - x taken exactly."""
    y = 1.0 - x
    if x < 0.5:
        # 1 - x rounds to y; its error e = (1 - x) - y is exact, and
        # (y + e)^b = y^b e^(b e / y) to rounding
        e = (1.0 - y) - x
        lb = b * math.log1p(-x)
    else:
        e = 0.0
        lb = b * math.log(y)
    la = a * math.log(x)
    if max(a, b) < 10.0:
        inv_beta = _inv_beta_small(a, b)
        log_beta = -math.log(inv_beta)
    else:
        log_beta = _betaln(a, b)
        inv_beta = math.exp(-log_beta) if abs(log_beta) < _LOG_MAX else 0.0
    if la + lb > -_LOG_MAX and inv_beta > 0.0:
        yb = y ** b
        if e:
            yb *= math.exp(b * e / y)
        return x ** a * yb * inv_beta
    return math.exp(la + lb - log_beta)


def _beta_cf(a: float, b: float, x: float, w: float) -> float:
    # the continued fraction of I_x(a, b) / front * a, modified Lentz method,
    # given w = 1 - x exactly; it converges fast for x < (a + 1) / (a + b + 2)
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    # 1 - qab x / qap, which cancels as x -> 1
    d = (1.0 - b + qab * w) / qap if x > 0.5 else 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAXIT):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def _beta_pq(a: float, b: float, x: float) -> tuple[float, float, float]:
    """(I_x(a, b), 1 - I_x(a, b), x^a (1-x)^b / B(a, b)) for 0 < x < 1."""
    front = _beta_front(a, b, x)
    if x * (a + b + 2.0) < a + 1.0:
        i = front * _beta_cf(a, b, x, 1.0 - x) / a
        return i, 1.0 - i, front
    ic = front * _beta_cf(b, a, 1.0 - x, x) / b
    return 1.0 - ic, ic, front


def _beta_bad(a: float, b: float, x: float) -> bool:
    return (not (a > 0.0 and b > 0.0 and 0.0 <= x <= 1.0)
            or math.inf in (a, b))


# ---------------------------------------------------------------------------
# inverses
# ---------------------------------------------------------------------------

def _normal_quantile(p: float) -> float:
    # Abramowitz and Stegun 26.2.22 (absolute error < 3e-3), 0 < p <= 1/2
    t = math.sqrt(-2.0 * math.log(p))
    return (2.30753 + 0.27061 * t) / (1.0 + t * (0.99229 + 0.04481 * t)) - t


def _solve(step_terms, v: float, hi: float, p: float, q: float) -> float:
    """The root in (0, hi) of F(v) = p, F increasing, p + q = 1.

    ``step_terms(v)`` gives (F, 1 - F, F', F''/F').  Halley steps act on
    g = log(T / t), T and t being the smaller tail and its target, so
    power-law and exponential tails converge as fast as the bulk; a step that
    leaves the bracket is retried in log v, then replaced by bisection.
    """
    lower = p <= q
    t, sign = (p, 1.0) if lower else (q, -1.0)
    lo = 0.0
    for _ in range(100):
        f, fc, dens, dlogf = step_terms(v)
        tail = f if lower else fc
        if tail > 0.0:
            ratio = tail / t
            g = math.log(ratio) if ratio < math.inf else (
                math.log(tail) - math.log(t))
        else:
            g = -math.inf
        if g == 0.0:
            return v
        if g * sign > 0.0:
            hi = v
        else:
            lo = v
        new = math.nan
        if math.isfinite(g) and dens > 0.0:
            dg = sign * dens / tail
            step = -g / dg
            halley = 1.0 - 0.5 * g * (dlogf / dg - 1.0)
            if 0.5 <= halley <= 2.0:
                step /= halley
            if abs(step) <= 1e-11 * v:
                return v + step
            new = v + step
            if not lo < new < hi:
                new = v * math.exp(max(-50.0, min(50.0, step / v)))
        if not lo < new < hi:
            if v < 1e-300 and lo == 0.0:
                return 0.0  # a root below the smallest normal float
            if lo == 0.0:
                new = v / 16.0
            elif hi == math.inf:
                new = v * 16.0
            elif hi > 16.0 * lo:
                new = math.sqrt(lo * hi)
            else:
                new = 0.5 * (lo + hi)
        v = new
    return v


def _gamma_step(a: float, x: float):
    p, q, front = _gamma_pq(a, x)
    return p, q, front / x, (a - 1.0) / x - 1.0


def _beta_step(a: float, b: float, x: float):
    i, ic, front = _beta_pq(a, b, x)
    y = 1.0 - x
    return i, ic, front / (x * y), (a - 1.0) / x - (b - 1.0) / y


def _gamma_inv(a: float, p: float, q: float) -> float:
    """x with P(a, x) = p and Q(a, x) = q."""
    if not (a > 0.0 and 0.0 <= p <= 1.0 and 0.0 <= q <= 1.0) or a == math.inf:
        return math.nan
    if p == 0.0 or q == 0.0:
        return 0.0 if p == 0.0 else math.inf
    lower = p <= q
    if lower:
        # P = x^a / Gamma(a + 1) (1 - a x / (a + 1) + ...), so below
        # x = 1e-17 a the power law is the answer to rounding
        power = _power_root(p, a, _gammaln(a + 1.0))
        if power < 1e-17 * a:
            return power
    if a <= 1.0:
        # Numerical Recipes' start for a <= 1
        t = 1.0 - a * (0.253 + a * 0.12)
        x = (p / t) ** (1.0 / a) if p < t else 1.0 - math.log(q / (1.0 - t))
    else:
        # Wilson-Hilferty, kept above the power law in the lower tail and
        # above the asymptote ln Q ~ (a - 1) ln x - x - ln Gamma(a) in the
        # upper one
        z = _normal_quantile(p) if lower else -_normal_quantile(q)
        x = a * max(0.0, 1.0 - 1.0 / (9.0 * a) + z / (3.0 * math.sqrt(a))) ** 3
        if lower:
            x = max(x, power)
        elif q < 1e-3:
            c = -math.log(q) - _gammaln(a)
            x = max(x, c + (a - 1.0) * math.log(max(c, a)))
    return _solve(functools.partial(_gamma_step, a), x, math.inf, p, q)


def _power_root(p: float, a: float, log_c: float) -> float:
    # v with v^a = p e^log_c: a power where p e^log_c is a normal float, else
    # through logarithms.  A rounding of 1/a costs |ln v| times itself, so
    # 1/a = r + d, with d the correctly rounded remainder (1 - a r) / a
    s = p * math.exp(log_c) if abs(log_c) < _LOG_MAX else 0.0
    if s >= sys.float_info.min and s < math.inf:
        r = 1.0 / a
        (na, da), (nr, dr) = a.as_integer_ratio(), r.as_integer_ratio()
        d = (da * dr - na * nr) / (na * dr)
        return s ** r * math.exp(d * math.log(s))
    return math.exp((math.log(p) + log_c) / a)


def _beta_guess(a: float, b: float, p: float, q: float) -> float:
    # Numerical Recipes' start (Abramowitz and Stegun 26.5.22 for a, b >= 1)
    if a >= 1.0 and b >= 1.0:
        # z is the upper normal quantile at p
        z = -_normal_quantile(p) if p <= q else _normal_quantile(q)
        al = (z * z - 3.0) / 6.0
        h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
        w = (z * math.sqrt(al + h) / h
             - (1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0))
             * (al + 5.0 / 6.0 - 2.0 / (3.0 * h)))
        return a / (a + b * math.exp(min(2.0 * w, _LOG_MAX)))
    lna = math.log(a / (a + b))
    lnb = math.log(b / (a + b))
    t = math.exp(a * lna) / a
    u = math.exp(b * lnb) / b
    w = t + u
    if p < t / w:
        return (a * w * p) ** (1.0 / a)
    return 1.0 - (b * w * q) ** (1.0 / b)


def _beta_root(a: float, b: float, p: float, q: float, x: float) -> float:
    # x with I_x(a, b) = p from the start x, for a root expected below 1/2
    if p <= q:
        # I_x = x^a / (a B(a, b)) (1 + O((a + b + 1) x)), so below
        # x = 1e-17 a / (a + b + 1) the power law is the answer to rounding
        power = _power_root(p, a, math.log(a) + _betaln(a, b))
        if power * (a + b + 1.0) < 1e-17 * a:
            return power
        x = max(x, power)
    x = min(max(x, _TINY), 0.5)
    return _solve(functools.partial(_beta_step, a, b), x, 1.0, p, q)


def _beta_inv(a: float, b: float, p: float, q: float) -> float:
    """x with I_x(a, b) = p and 1 - I_x(a, b) = q."""
    if (not (a > 0.0 and b > 0.0 and 0.0 <= p <= 1.0 and 0.0 <= q <= 1.0)
            or math.inf in (a, b)):
        return math.nan
    if p == 0.0 or q == 0.0:
        return 0.0 if p == 0.0 else 1.0
    # solve in the smaller of x and y = 1 - x, where I_y(b, a) = q; a root
    # found on the far side of 1/2 is solved again from the near one
    x = _beta_guess(a, b, p, q)
    flip = x > 0.5
    v = (_beta_root(b, a, q, p, 1.0 - x) if flip
         else _beta_root(a, b, p, q, x))
    if v > 0.5:
        flip = not flip
        v = (_beta_root(b, a, q, p, 1.0 - v) if flip
             else _beta_root(a, b, p, q, 1.0 - v))
    return 1.0 - v if flip else v


# ---------------------------------------------------------------------------
# the public functions
# ---------------------------------------------------------------------------

@_ufunc
def gammaln(x):
    """ln|Gamma(x)|."""
    return _gammaln(x)


@_ufunc
def betaln(a, b):
    """ln B(a, b) for a, b > 0."""
    return _betaln(a, b)


@_ufunc
def xlogy(x, y):
    """x log(y), and 0 where x = 0 and y is not NaN."""
    if x == 0.0 and y == y:
        return 0.0
    if y > 0.0:
        return x * math.log(y)
    return x * -math.inf if y == 0.0 else math.nan


@_ufunc
def gammainc(a, x):
    """The regularized lower incomplete gamma function P(a, x)."""
    if _gamma_bad(a, x):
        return math.nan
    if x == 0.0 or x == math.inf:
        return 0.0 if x == 0.0 else 1.0
    return _gamma_pq(a, x)[0]


@_ufunc
def gammaincc(a, x):
    """The regularized upper incomplete gamma function Q(a, x) = 1 - P(a, x),
    computed directly."""
    if _gamma_bad(a, x):
        return math.nan
    if x == 0.0 or x == math.inf:
        return 1.0 if x == 0.0 else 0.0
    return _gamma_pq(a, x)[1]


@_ufunc
def gammaincinv(a, y):
    """x with P(a, x) = y."""
    return _gamma_inv(a, y, 1.0 - y)


@_ufunc
def gammainccinv(a, y):
    """x with Q(a, x) = y."""
    return _gamma_inv(a, 1.0 - y, y)


@_ufunc
def betainc(a, b, x):
    """The regularized incomplete beta function I_x(a, b)."""
    if _beta_bad(a, b, x):
        return math.nan
    if x == 0.0 or x == 1.0:
        return x
    return _beta_pq(a, b, x)[0]


@_ufunc
def betaincc(a, b, x):
    """1 - I_x(a, b), computed directly."""
    if _beta_bad(a, b, x):
        return math.nan
    if x == 0.0 or x == 1.0:
        return 1.0 - x
    return _beta_pq(a, b, x)[1]


@_ufunc
def betaincinv(a, b, y):
    """x with I_x(a, b) = y."""
    return _beta_inv(a, b, y, 1.0 - y)


@_ufunc
def betainccinv(a, b, y):
    """x with 1 - I_x(a, b) = y."""
    return _beta_inv(a, b, 1.0 - y, y)
