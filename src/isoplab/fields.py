"""Vectorized scalar fields with exact almost-everywhere gradients.

The verification checks integrate gradient norms of [0,1]-valued plateau
functions (ramps of half-spaces, radial ramps, cut-offs, and their products
and push-forwards under the normalization map).  Every field here consumes a
(rows, dim) array and returns per-row values and full gradient rows, exact
off a measure-zero kink set, so Monte Carlo integrands need no finite
differences.

A field class defines one evaluation, ``value_and_grad``, and the dimension:
    f.value_and_grad(X)   -> ((rows,) values in [0, 1], (rows, dim) gradients)
                             from one evaluation of the field's scalar per point
    f.dim                 -> expected point dimension
The shared base supplies the two halves of that pass:
    f(X)                  -> f.value_and_grad(X)[0]
    f.grad(X)             -> f.value_and_grad(X)[1]
and |grad f|_2 per row is ``geometry.lp_norm(f.grad(X), 2.0)``.
Rows are independent: a row's value and gradient depend only on that row,
bit for bit, whatever the other rows of X are.  Every check relies on this
to evaluate its batch block by block (``geometry.map_row_blocks``), so a
custom field must keep it too; inner products <x, xi> go through
``geometry.row_dot`` for that reason, since BLAS ``X @ xi`` rounds a row
differently with the number of rows in the call.
Products and push-forwards evaluate each factor once through its
``value_and_grad``; ``product_value_and_grad`` and ``push_forward_grad`` hold
their arithmetic.  They serve ``ProductField`` and ``PushForwardField``
only, which no check evaluates: the cut-off chain reads its gradient norms
as closed forms in per-point scalars
(``inequality_suite.cutoff_chain_norms``), and the composed classes are
the reference it is tested against.
The fields take their l_p primitives, kappa, sign(z)|z|^{p-1}
(``lp_dual``) and |z|_p, from ``geometry``, which defines each once.
Ramps additionally expose ``superlevel(u)`` returning the test set {f > u};
all superlevel sets of one ramp share one scalar per point, their sets'
``scalar(X)``, and so does the gradient norm, which is the ramp's slope
where the gradient is nonzero and 0 elsewhere:
    f.on_ramp(s)               -> (rows,) bool, where the gradient is nonzero
    f.slope                    -> |grad f|_2 there
    f.grad_norm_from_scalar(s) -> (rows,) |grad f|_2 from that scalar alone
so a caller that already holds the scalar column gets the gradient
norms, or their mass from a count, without gradient rows.  The cut-offs'
``on_ramp`` and ``from_norm`` likewise take the norm their pass starts
from, for callers that already have it.
"""

from __future__ import annotations

import numpy as np

from .geometry import (
    BallComplement,
    HalfSpace,
    kappa,
    lp_dual,
    lp_norm,
    row_dot,
)

__all__ = [
    "product_value_and_grad",
    "push_forward_grad",
    "LinearRamp",
    "RadialRamp",
    "DistanceRamp",
    "CUTOFF_C1",
    "CUTOFF_C2",
    "CutoffH1Field",
    "CutoffH2Field",
    "ProductField",
    "PushForwardField",
    "CoordinateFunctional",
    "DirectionalFunctional",
    "EuclideanNorm",
    "functional_catalog",
]


def _rows(X, dim: int) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != dim:
        raise ValueError(f"expected points of shape (rows, {dim}), got {X.shape}")
    return X


def product_value_and_grad(a, b):
    """(values, gradients) of the product of two fields, given each
    factor's (values, gradients) on the same points."""
    (av, ag), (bv, bg) = a, b
    return av * bv, av[:, None] * bg + bv[:, None] * ag


def push_forward_grad(w, X, nz, v, p: float):
    """Gradient at rows z of f o T, T(z) = z_{1..n} / |z|_p, given
    w = ``lp_dual(Z, p)``, X = T(Z), nz = |z|_p and v = grad f(X): the
    adjoint differential applied to v."""
    dot = np.einsum("ij,ij->i", X, v)
    out = np.zeros_like(w)
    out[:, :-1] = v
    out /= nz[:, None]
    # adjoint of (delta_ij - z_j w_i / |z|^p) / |z| applied to v
    out -= (dot / nz ** p)[:, None] * w
    return out


class _Field:
    """Base of every field: a subclass defines ``value_and_grad`` and
    ``dim``, and f(X) and f.grad(X) are the two halves of that pass."""

    def __call__(self, X):
        return self.value_and_grad(X)[0]

    def grad(self, X):
        return self.value_and_grad(X)[1]


class _Ramp(_Field):
    """Base of the ramps: a subclass defines ``on_ramp`` and ``slope``,
    and the gradient norm is that slope on the ramp and 0 elsewhere."""

    def grad_norm_from_scalar(self, s):
        """The norms of the gradient rows at the scalar s of the ramp's
        superlevel sets, bit for bit where those rows are one constant
        row."""
        return np.where(self.on_ramp(s), self.slope, 0.0)


class LinearRamp(_Ramp):
    """clip((<x, xi> - lo) / (hi - lo), 0, 1) for a unit direction xi.

    Identically 0 on {<x,xi> <= lo} and 1 on {<x,xi> >= hi}; the gradient is
    xi / (hi - lo) strictly between the thresholds and zero elsewhere.
    """

    def __init__(self, xi, lo: float, hi: float):
        xi = np.asarray(xi, dtype=float)
        if abs(np.linalg.norm(xi) - 1.0) > 1e-9:
            raise ValueError("ramp direction must be a unit vector")
        if not hi > lo:
            raise ValueError("ramp needs hi > lo")
        self.xi = xi
        self.lo = float(lo)
        self.hi = float(hi)
        self.dim = xi.size
        # |grad f|_2 on the ramp, the norm of every nonzero gradient row
        self.slope = float(lp_norm((xi / self.width)[None, :], 2.0)[0])

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def value_and_grad(self, X):
        t = row_dot(_rows(X, self.dim), self.xi)
        return (np.clip((t - self.lo) / self.width, 0.0, 1.0),
                np.where(self.on_ramp(t)[:, None], self.xi / self.width, 0.0))

    def on_ramp(self, t):
        """Where the gradient is nonzero, at t = <x, xi>: lo < t < hi."""
        return (t > self.lo) & (t < self.hi)

    def superlevel(self, u: float) -> HalfSpace:
        """{<x, xi> >= lo + u (hi - lo)}.  All superlevel sets of one ramp
        share one scalar, <x, xi>, and differ only in threshold; content
        estimation sorts that scalar once for all of them."""
        if not 0.0 <= u < 1.0:
            raise ValueError("superlevel threshold must lie in [0, 1)")
        return HalfSpace(self.xi, self.lo + u * self.width)


class RadialRamp(_Ramp):
    """clip((|x|_2 - lo) / (hi - lo), 0, 1) with 0 < lo < hi."""

    def __init__(self, dim: int, lo: float, hi: float):
        if not 0.0 < lo < hi:
            raise ValueError("radial ramp needs 0 < lo < hi")
        self.dim = dim
        self.lo = float(lo)
        self.hi = float(hi)
        # |grad f|_2 on the ramp, where the gradient is a unit vector over
        # the width
        self.slope = 1.0 / self.width

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def value_and_grad(self, X):
        X = _rows(X, self.dim)
        r = lp_norm(X, 2.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            unit = np.where(r[:, None] > 0.0, X / np.where(r == 0.0, 1.0, r)[:, None], 0.0)
        return (np.clip((r - self.lo) / self.width, 0.0, 1.0),
                np.where(self.on_ramp(r)[:, None], unit / self.width, 0.0))

    def on_ramp(self, r):
        """Where the gradient is nonzero, at r = |x|_2: lo < r < hi."""
        return (r > self.lo) & (r < self.hi)

    def superlevel(self, u: float) -> BallComplement:
        """{|x|_2 >= lo + u (hi - lo)}.  All superlevel sets of one ramp
        share one scalar, |x|_2, and differ only in threshold; content
        estimation sorts that scalar once for all of them."""
        if not 0.0 <= u < 1.0:
            raise ValueError("superlevel threshold must lie in [0, 1)")
        return BallComplement(self.lo + u * self.width)


class DistanceRamp(_Ramp):
    """clip(1 - (dist(x, A) - r) / s, 0, 1): 1 on the r-enlargement of A,
    ramping to 0 across the shell r < dist <= r + s."""

    def __init__(self, set_, dim: int, r: float, s: float):
        if not (r >= 0.0 and s > 0.0):
            raise ValueError("distance ramp needs r >= 0 and s > 0")
        self.set_ = set_
        self.dim = dim
        self.r = float(r)
        self.s = float(s)
        # |grad f|_2 on the shell, where the gradient of dist is a unit
        # vector a.e. (see the sets' ``dist_and_grad``)
        self.slope = 1.0 / self.s

    def value_and_grad(self, X):
        d, dg = self.set_.dist_and_grad(_rows(X, self.dim))
        on = (d > self.r) & (d < self.r + self.s)
        return (np.clip(1.0 - (d - self.r) / self.s, 0.0, 1.0),
                np.where(on[:, None], -dg / self.s, 0.0))

    def on_ramp(self, scalar):
        """Where the gradient is nonzero, at A's scalar: the shell
        r < dist < r + s, dist being the sets' own
        max(threshold - scalar, 0)."""
        d = np.maximum(self.set_.threshold - scalar, 0.0)
        return (d > self.r) & (d < self.r + self.s)

    def superlevel(self, u: float):
        """The (r + s(1 - u))-enlargement of A.  All superlevel sets of one
        ramp are enlargements of A, so they share A's scalar and differ
        only in threshold; content estimation sorts that scalar once for
        all of them."""
        if not 0.0 <= u < 1.0:
            raise ValueError("superlevel threshold must lie in [0, 1)")
        return self.set_.enlarged(self.r + self.s * (1.0 - u))


# the constants of the two cut-offs; both ramps have unit width in the
# rescaled radial variable
CUTOFF_C1 = 1.0
CUTOFF_C2 = 1.0


class CutoffH1Field(_Field):
    """h1(x) = clip(2 - c1 n^kappa |x|_2, 0, 1), kappa = (2-p)/(2p), on R^n,
    with c1 = CUTOFF_C1 = 1; kills large |x|_2.

    Identically 1 on {|x|_2 <= 1/(c1 n^kappa)} and 0 on
    {|x|_2 >= 2/(c1 n^kappa)}; on the ramp |grad h1|_2 = c1 n^kappa.
    """

    def __init__(self, p: float, n: int):
        self.p = p
        self.n = n
        self.dim = n
        self.slope = CUTOFF_C1 * n ** kappa(p)
        # ramp on 1/slope < |x|_2 < 2/slope
        self.lo = 1.0 / self.slope
        self.hi = 2.0 / self.slope

    def value_and_grad(self, X):
        X = _rows(X, self.dim)
        return self.from_norm(X, lp_norm(X, 2.0))

    def on_ramp(self, r):
        """Where the gradient is nonzero, at r = |x|_2: lo < r < hi."""
        return (r > self.lo) & (r < self.hi)

    def from_norm(self, X, r):
        """``value_and_grad(X)`` given r = |x|_2 of its rows."""
        unit = X / np.where(r == 0.0, 1.0, r)[:, None]
        return (np.clip(2.0 - self.slope * r, 0.0, 1.0),
                np.where(self.on_ramp(r)[:, None], -self.slope * unit, 0.0))


class CutoffH2Field(_Field):
    """h2(z) = clip(c2 n^(-1/p) |z|_p - 1, 0, 1) on R^(n+1), with
    c2 = CUTOFF_C2 = 1; kills small |z|_p.

    Identically 0 on {|z|_p <= n^(1/p)/c2} and 1 on {|z|_p >= 2 n^(1/p)/c2};
    |grad h2|_2 <= c2 (n+1)^kappa n^(-1/p) everywhere (Hoelder over the n+1
    coordinates of z, using 2(p-1) <= p), with equality when all coordinates
    of z agree.  The weaker c2 sqrt(2/n) suffices for every error budget here.
    """

    def __init__(self, p: float, n: int):
        self.p = p
        self.n = n
        self.dim = n + 1
        self.scale = CUTOFF_C2 * n ** (-1.0 / p)
        # ramp on 1/scale < |z|_p < 2/scale
        self.lo = 1.0 / self.scale
        self.hi = 2.0 / self.scale

    def value_and_grad(self, Z):
        Z = _rows(Z, self.dim)
        return self.from_norm(lp_norm(Z, self.p), lp_dual(Z, self.p))

    def on_ramp(self, r):
        """Where the gradient is nonzero, at r = |z|_p: lo < r < hi."""
        return (r > self.lo) & (r < self.hi)

    def from_norm(self, r, w):
        """``value_and_grad(Z)`` given r = |z|_p and w = ``lp_dual(Z, p)``
        of its rows."""
        if self.p == 1.0:
            unit = w
        else:
            unit = w / np.where(r == 0.0, 1.0, r)[:, None] ** (self.p - 1.0)
        return (np.clip(self.scale * r - 1.0, 0.0, 1.0),
                np.where(self.on_ramp(r)[:, None], self.scale * unit, 0.0))


class ProductField(_Field):
    """Pointwise product of two fields on the same space."""

    def __init__(self, f, g):
        if f.dim != g.dim:
            raise ValueError("product factors must share a dimension")
        self.f = f
        self.g = g
        self.dim = f.dim

    def value_and_grad(self, X):
        return product_value_and_grad(self.f.value_and_grad(X),
                                      self.g.value_and_grad(X))


class PushForwardField(_Field):
    """f composed with the normalization map: value(z) = f(z_{1..n} / |z|_p).

    The gradient applies the adjoint differential to the gradient of f, so
    it is exact wherever f is differentiable at the mapped point (kinks of
    |.|_p off the sampled set are measure zero).
    """

    def __init__(self, f, p: float):
        self.f = f
        self.p = p
        self.dim = f.dim + 1

    def value_and_grad(self, Z):
        Z = _rows(Z, self.dim)
        nz = lp_norm(Z, self.p)
        X = Z[:, :-1] / nz[:, None]
        values, v = self.f.value_and_grad(X)
        return values, push_forward_grad(lp_dual(Z, self.p), X, nz, v,
                                         self.p)


# ---------------------------------------------------------------------------
# 1-Lipschitz functionals for median/concentration curves
# ---------------------------------------------------------------------------

class CoordinateFunctional:
    """F(x) = x_i."""

    lipschitz_constant = 1.0

    def __init__(self, dim: int, index: int = 0):
        if not 0 <= index < dim:
            raise ValueError("coordinate index out of range")
        self.dim = dim
        self.index = index

    def __call__(self, X):
        return _rows(X, self.dim)[:, self.index].copy()


class DirectionalFunctional:
    """F(x) = <x, theta> with |theta|_2 = 1."""

    lipschitz_constant = 1.0

    def __init__(self, theta):
        theta = np.asarray(theta, dtype=float)
        if abs(np.linalg.norm(theta) - 1.0) > 1e-9:
            raise ValueError("direction must be a unit vector")
        self.theta = theta
        self.dim = theta.size

    def __call__(self, X):
        return row_dot(_rows(X, self.dim), self.theta)


class EuclideanNorm:
    """F(x) = |x|_2."""

    lipschitz_constant = 1.0

    def __init__(self, dim: int):
        self.dim = dim

    def __call__(self, X):
        return lp_norm(_rows(X, self.dim), 2.0)


def functional_catalog(name: str, dim: int):
    """Built-in 1-Lipschitz functionals: coordinate, diagonal, euclidean_norm."""
    if name == "coordinate":
        return CoordinateFunctional(dim, 0)
    if name == "diagonal":
        return DirectionalFunctional(np.full(dim, dim ** -0.5))
    if name == "euclidean_norm":
        return EuclideanNorm(dim)
    raise ValueError(f"unknown functional {name!r}")
