"""One-dimensional reference measures and their half-line isoperimetric profiles.

Four families are built in:

* ``mu_p``  -- symmetric exponential-power law, density exp(-|t|^p) / (2 Gamma(1+1/p))
  on the real line;
* ``nu_p``  -- its one-sided companion, density p t^(p-1) exp(-t^p) on [0, inf);
* ``Gamma(shape, 1)`` -- at shape 1/p the law of |X|^p when X is mu_p
  distributed;
* ``Exp(1)`` -- nu_1, the shape-1 Gamma law; Y^p is Exp(1) distributed when Y
  is nu_p distributed.

The checks read only mu_p and nu_p; the Gamma and Exp(1) laws are built in
as closed-form references.

For a measure with distribution function F the half-line profile at mass a is

    J(a) = min(F'(F^{-1}(a)), F'(F^{-1}(1-a))),

the smaller of the boundary densities of the two half-lines carrying mass a.
For log-concave measures half-lines are extremal, so J is the true
isoperimetric profile.  ``profile_comparison`` measures J against the model
shape a * log(1/a)^(1-1/p) that governs the small-mass regime of this family.

CDFs and quantiles are closed forms: the regularized incomplete gamma
function and its inverse, or elementary functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import _special as special

__all__ = [
    "LogConcave1D",
    "ProfilePoint",
    "ProfileComparison",
    "make_mu_p",
    "make_nu_p",
    "make_gamma",
    "make_exponential",
    "bobkov_profile",
    "profile_comparison",
]


@dataclass(frozen=True)
class LogConcave1D:
    """A one-dimensional measure given by log-density, CDF and quantile."""

    name: str
    log_density: Callable
    cdf: Callable
    quantile: Callable

    def density(self, t):
        with np.errstate(over="ignore"):
            return np.exp(self.log_density(t))


@dataclass(frozen=True)
class ProfilePoint:
    a: float
    boundary_mass: float


@dataclass(frozen=True)
class ProfileComparison:
    """Profile-to-model ratios r(a) = J(a) / (m * log(1/m)^(1-1/p)), m = min(a, 1-a)."""

    p: float
    a_grid: np.ndarray
    mu_ratios: np.ndarray
    nu_ratios: np.ndarray
    mu_ratio_min: float = field(init=False)
    mu_ratio_max: float = field(init=False)
    nu_ratio_min: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "mu_ratio_min", float(np.min(self.mu_ratios)))
        object.__setattr__(self, "mu_ratio_max", float(np.max(self.mu_ratios)))
        object.__setattr__(self, "nu_ratio_min", float(np.min(self.nu_ratios)))


def make_mu_p(p: float) -> LogConcave1D:
    """Symmetric exponential-power measure on R, density exp(-|t|^p)/(2 Gamma(1+1/p))."""
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"p must lie in [1, 2], got {p!r}")
    log_norm = np.log(2.0) + special.gammaln(1.0 + 1.0 / p)

    def log_density(t):
        return -np.abs(t) ** p - log_norm

    def cdf(t):
        # |X|^p is Gamma(1/p, 1); each tail keeps its relative accuracy
        t = np.asarray(t, dtype=float)
        tail = 0.5 * special.gammaincc(1.0 / p, np.abs(t) ** p)
        out = np.where(t > 0.0, 1.0 - tail, tail)
        return out if out.ndim else float(out)

    def quantile(a):
        # invert the tail on the side of the median that holds a
        if not 0.0 < a < 1.0:
            raise ValueError(f"quantile level must be in (0,1), got {a!r}")
        tail = special.gammainccinv(1.0 / p, 2.0 * min(a, 1.0 - a))
        return float(np.sign(a - 0.5) * tail ** (1.0 / p))

    return LogConcave1D(f"mu_{p:g}", log_density, cdf, quantile)


def make_nu_p(p: float) -> LogConcave1D:
    """One-sided measure on [0, inf), density p t^(p-1) exp(-t^p).

    The density at t = 0 is taken as the limit value: 1 for p = 1, else 0.
    """
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"p must lie in [1, 2], got {p!r}")

    def log_density(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            body = np.log(p) + (p - 1.0) * np.log(t) - t ** p
        if p == 1.0:
            body = np.where(t >= 0.0, -t, -np.inf)
        out = np.where(t < 0.0, -np.inf, body)
        return out if out.ndim else float(out)

    def cdf(t):
        t = np.asarray(t, dtype=float)
        out = np.where(t <= 0.0, 0.0, -np.expm1(-np.maximum(t, 0.0) ** p))
        return out if out.ndim else float(out)

    def quantile(a):
        if not 0.0 < a < 1.0:
            raise ValueError(f"quantile level must be in (0,1), got {a!r}")
        return (-np.log1p(-a)) ** (1.0 / p)

    return LogConcave1D(f"nu_{p:g}", log_density, cdf, quantile)


def make_gamma(shape: float) -> LogConcave1D:
    """Gamma(shape, 1) on [0, inf).  Log-concave only for shape >= 1."""
    if shape <= 0.0:
        raise ValueError(f"shape must be positive, got {shape!r}")
    log_norm = special.gammaln(shape)

    def log_density(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            body = (shape - 1.0) * np.log(t) - t - log_norm
        if shape == 1.0:
            body = np.where(t >= 0.0, -t, -np.inf)
        out = np.where(t < 0.0, -np.inf, body)
        return out if out.ndim else float(out)

    def cdf(t):
        t = np.asarray(t, dtype=float)
        out = special.gammainc(shape, np.maximum(t, 0.0))
        return out if out.ndim else float(out)

    def quantile(a):
        if not 0.0 < a < 1.0:
            raise ValueError(f"quantile level must be in (0,1), got {a!r}")
        return float(special.gammaincinv(shape, a))

    return LogConcave1D(f"gamma_{shape:g}", log_density, cdf, quantile)


def make_exponential() -> LogConcave1D:
    """Exp(1): density exp(-t) on [0, inf); nu_1 under the name ``exp_1``."""
    return replace(make_nu_p(1.0), name="exp_1")


def bobkov_profile(m: LogConcave1D, a: float) -> ProfilePoint:
    """Half-line profile J(a) = min of the boundary densities at mass a.

    For log-concave m this is the isoperimetric profile; for mu_1 it equals
    min(a, 1-a) exactly.
    """
    if not 0.0 < a < 1.0:
        raise ValueError(f"profile level must be in (0,1), got {a!r}")
    q_lo = m.quantile(a)
    q_hi = m.quantile(1.0 - a)
    return ProfilePoint(a, float(min(m.density(q_lo), m.density(q_hi))))


def _model_shape(p: float, a) -> np.ndarray:
    """m * log(1/m)^(1-1/p) with m = min(a, 1-a); the comparison denominator."""
    a = np.asarray(a, dtype=float)
    m = np.minimum(a, 1.0 - a)
    return m * np.log(1.0 / m) ** (1.0 - 1.0 / p)


def profile_comparison(p: float, a_grid) -> ProfileComparison:
    """Ratios of the mu_p and nu_p profiles to the model a log^(1-1/p)(1/a).

    Returns the two-sided band (min and max) for mu_p and the one-sided
    minimum for nu_p over the grid.
    """
    a_grid = np.asarray(a_grid, dtype=float)
    a_grid = a_grid[(a_grid > 0.0) & (a_grid < 1.0)]
    if a_grid.size == 0:
        raise ValueError("profile comparison grid is empty after clipping to (0,1)")
    mu = make_mu_p(p)
    nu = make_nu_p(p)
    denom = _model_shape(p, a_grid)
    mu_ratios = np.array([bobkov_profile(mu, a).boundary_mass for a in a_grid]) / denom
    nu_ratios = np.array([bobkov_profile(nu, a).boundary_mass for a in a_grid]) / denom
    return ProfileComparison(p, a_grid, mu_ratios, nu_ratios)
