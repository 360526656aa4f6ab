"""Geometry of the unit ball of l_p^n: volumes, marginals, test sets, the
normalization map and its differential, and the constants of the two
radial cut-offs.

Throughout, V_{p,n} denotes the uniform probability measure on the unit ball

    B_p^n = {x in R^n : |x_1|^p + ... + |x_n|^p <= 1},   1 <= p <= 2.

The one-dimensional marginal of V_{p,n} has density proportional to
(1 - |t|^p)^((n-1)/p) on [-1, 1]; its CDF reduces to a regularized incomplete
beta function, which gives exact half-space measures and boundary masses.

The normalization map T(z) = x / |z|_p, z = (x, y) in R^n x R, pushes the
product measure built in ``sampling`` forward to V_{p,n}.  ``jacobian_T``
returns its differential together with the operator-norm bound

    |D*T(z)| <= (1 + n^((2-p)/(2p)) |T(z)|_2) / |z|_p,

which the test suite checks for violations sample by sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import special

__all__ = [
    "PBallParams",
    "KinkError",
    "BLOCK_ROWS",
    "block_rows",
    "map_row_blocks",
    "row_sum",
    "row_dot",
    "lp_norm",
    "ball_volume",
    "ball_log_volume",
    "marginal_density",
    "marginal_level_density",
    "marginal_cdf",
    "marginal_sf",
    "marginal_quantile",
    "marginal_isf",
    "marginal_second_moment",
    "HalfSpace",
    "BallComplement",
    "coordinate_half_space",
    "bgmn_map",
    "JacobianResult",
    "jacobian_T",
    "jacobian_op_norms",
    "CutoffParams",
]

# closed-ball membership tolerance for indicator-style predicates
BALL_TOL = 1e-12


class KinkError(ValueError):
    """Raised when a derivative is requested at a nondifferentiability point."""


@dataclass(frozen=True)
class PBallParams:
    """Exponent and dimension of a unit l_p ball."""

    p: float
    n: int

    def __post_init__(self):
        if not 1.0 <= self.p <= 2.0:
            raise ValueError(f"p must lie in [1, 2], got {self.p!r}")
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n!r}")


# rows narrower than this are summed column by column in ``row_sum``
SHORT_ROW = 8
# most rows in a block of a row-wise pass; a block also holds at most
# BLOCK_ROWS * 4 values per row-shaped temporary (``block_rows``), which
# is 256 KB, so a block's temporaries stay in L2 and their memory is reused
BLOCK_ROWS = 8192


def block_rows(width: int) -> int:
    """Rows per block of a row-wise pass over rows of ``width`` values:
    BLOCK_ROWS for rows of up to 4 values, fewer for wider rows so that a
    block holds at most BLOCK_ROWS * 4 values, and at least one row."""
    return max(1, min(BLOCK_ROWS, BLOCK_ROWS * 4 // max(width, 1)))


def map_row_blocks(fn, inputs, count: int) -> list:
    """Per-row columns of ``fn`` over blocks of rows, one per value it
    returns.

    ``inputs`` is either a list of in-memory arrays of count rows each,
    taken in blocks of ``block_rows`` of the widest input's row width, or a
    block stream of count rows: an iterable of (first row, block) pairs, a
    block being one array or a tuple of arrays, such as the samplers'
    ``product_blocks`` and ``ball_blocks``.  ``fn`` receives the arrays of
    one block and returns a sequence of arrays, each holding a value per
    row of the block.  Each column takes its dtype and trailing shape from
    the first block's value.  Blocks that do not end at row count, or a
    block returning another number of values, raise ValueError.  Only the
    block's temporaries are alive at a time, and the columns equal one call
    of ``fn`` on whole arrays as long as each row's values depend on that
    row alone.
    """
    if isinstance(inputs, (list, tuple)):
        inputs = _array_blocks(inputs)
    cols = None
    for lo, block in inputs:
        if not isinstance(block, tuple):
            block = (block,)
        values = [np.asarray(v) for v in fn(*block)]
        if cols is None:
            cols = [np.empty((count,) + v.shape[1:], dtype=v.dtype)
                    for v in values]
        elif len(values) != len(cols):
            raise ValueError(f"a block returned {len(values)} values, "
                             f"the first {len(cols)}")
        rows = slice(lo, lo + block[0].shape[0])
        for col, v in zip(cols, values):
            col[rows] = v
        values = v = None   # not alive beside the next block's pass
    if cols is None or rows.stop != count:
        raise ValueError(f"the blocks do not cover rows 0 to {count}")
    return cols


def _array_blocks(arrays):
    """(first row, tuple of row blocks) over arrays of equal row count."""
    step = block_rows(max(math.prod(a.shape[1:]) for a in arrays))
    for lo in range(0, arrays[0].shape[0], step):
        yield lo, tuple(a[lo:lo + step] for a in arrays)


def row_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(-1)`` of a float array, bit for bit, and faster on short rows.

    A 2-D array with 1 to SHORT_ROW - 1 columns is summed column by column:
    +0.0 plus column 0, then each further column left to right.  That is
    the order in which numpy adds rows this short, so the result is
    bit-equal to ``a.sum(-1)`` in every layout (C- or F-ordered, column
    slices), signed zeros, infinities and nans included; tests pin this on
    the installed numpy.  At SHORT_ROW columns and more numpy sums a
    contiguous row pairwise with 8 accumulators, which rounds differently,
    so those rows, and every other shape, go through ``a.sum(-1)`` itself.
    """
    if a.ndim == 2 and 0 < a.shape[1] < SHORT_ROW:
        out = a[:, 0] + 0.0
        for j in range(1, a.shape[1]):
            out += a[:, j]
        return out
    return a.sum(-1)


def row_dot(X, v: np.ndarray) -> np.ndarray:
    """<x, v> for every row x of X, each row reduced in one fixed order.

    The rows are made C-contiguous and reduced by ``np.einsum``, whose
    order of additions depends only on the row length, so a row's result
    depends on that row alone, bit for bit, whatever the other rows and
    the block size are.  BLAS ``X @ v`` does not promise this: its result
    for one row moves by rounding with the number of rows of the call.
    For a coordinate v the one nonzero product is the result, exactly.
    """
    return np.einsum("ij,j->i", np.ascontiguousarray(X, dtype=float), v)


def _lp_norm_direct(x: np.ndarray, p: float) -> np.ndarray:
    if p == 1.0:
        return row_sum(np.abs(x))
    if p == 2.0:
        return np.sqrt(row_sum(np.square(x)))
    return row_sum(np.abs(x) ** p) ** (1.0 / p)


def lp_norm(x, p: float):
    """l_p norm along the last axis; fast paths for p in {1, 2}.

    The sum goes through ``row_sum``, so the result is bit-equal to
    summing with ``np.sum``; at p = 2 it is also bit-equal to
    ``np.linalg.norm(x, axis=-1)``, which computes sqrt(sum x*x) in the
    same order.  Row norms of a 2-D array with more rows than
    ``block_rows`` of its width are taken block by block through
    ``map_row_blocks``, so at most one block of |x| and |x|^p is alive
    beside the result; every other shape is computed in one pass.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] <= block_rows(x.shape[1]):
        return _lp_norm_direct(x, p)
    return map_row_blocks(lambda block: (_lp_norm_direct(block, p),), [x],
                          x.shape[0])[0]


def ball_log_volume(p: float, n: int) -> float:
    """log Vol(B_p^n) = n log(2 Gamma(1+1/p)) - log Gamma(1+n/p)."""
    return float(n * (np.log(2.0) + special.gammaln(1.0 + 1.0 / p))
                 - special.gammaln(1.0 + n / p))


def ball_volume(p: float, n: int) -> float:
    return float(np.exp(ball_log_volume(p, n)))


def _marginal_log_norm(p: float, n: int) -> float:
    # normalizer of (1-|t|^p)^((n-1)/p) on [-1,1] is Vol(B_p^n)/Vol(B_p^{n-1})
    return ball_log_volume(p, n) - ball_log_volume(p, n - 1)


def marginal_density(params: PBallParams, t):
    """Density of the coordinate marginal of V_{p,n} at t, |t| <= 1.

    Arguments beyond [-1, 1] raise; sampled coordinates may overshoot the
    ball by BALL_TOL, so that much slack is absorbed by clamping.
    """
    p, n = params.p, params.n
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + BALL_TOL):
        raise ValueError("marginal density argument outside [-1, 1]")
    s = np.maximum(1.0 - np.abs(t) ** p, 0.0)
    out = s ** ((n - 1) / p) * np.exp(-_marginal_log_norm(p, n))
    return out if out.ndim else float(out)


def marginal_level_density(params: PBallParams, a) -> np.ndarray:
    """f(t_a): the marginal density at the level-a quantile t_a, where
    V{x_1 >= t_a} = a, for a in (0, 1).

    It is read off the complementary variable u = 1 - |t_a|^p: the tail
    V{x_1 >= t} is I_u((n-1)/p + 1, 1/p) / 2, so u = betaincinv((n-1)/p + 1,
    1/p, 2a) and f(t_a) = exp(-log_norm + ((n-1)/p) log u).  Unlike
    ``marginal_density(marginal_isf(a))`` it keeps its relative accuracy
    where t_a rounds to 1, down to a = 1e-300.
    """
    p, n = params.p, params.n
    a = np.asarray(a, dtype=float)
    if np.any((a <= 0.0) | (a >= 1.0)):
        raise ValueError("marginal level must be in (0,1)")
    b = (n - 1.0) / p
    u = special.betaincinv(b + 1.0, 1.0 / p, 2.0 * np.minimum(a, 1.0 - a))
    out = np.exp(b * np.log(u) - _marginal_log_norm(p, n))
    return out if out.ndim else float(out)


def _marginal_shape(params: PBallParams) -> tuple[float, float]:
    # |x_1|^p is Beta(1/p, (n-1)/p + 1) distributed under V_{p,n}
    return 1.0 / params.p, (params.n - 1.0) / params.p + 1.0


def _marginal_tail(params: PBallParams, t):
    """V{x_1 >= |t|}, from the complemented incomplete beta function so that
    the tail keeps its relative accuracy as |t| -> 1."""
    x = np.minimum(np.abs(t), 1.0) ** params.p
    return 0.5 * special.betaincc(*_marginal_shape(params), x)


def marginal_cdf(params: PBallParams, t):
    """Marginal CDF via the regularized incomplete beta function."""
    t = np.asarray(t, dtype=float)
    tail = _marginal_tail(params, t)
    out = np.where(t > 0.0, 1.0 - tail, tail)
    return out if out.ndim else float(out)


def marginal_sf(params: PBallParams, t):
    """V{x_1 >= t}; equals marginal_cdf(-t) by symmetry."""
    return marginal_cdf(params, -np.asarray(t, dtype=float))


def marginal_quantile(params: PBallParams, a):
    """Inverse of the marginal CDF, exact via the inverse complemented
    incomplete beta function of the tail on a's side of the median."""
    a = np.asarray(a, dtype=float)
    if np.any((a <= 0.0) | (a >= 1.0)):
        raise ValueError("marginal quantile level must be in (0,1)")
    shape = _marginal_shape(params)
    tail = 2.0 * np.minimum(a, 1.0 - a)
    # a tail below the mass beyond 1 - 2^-53 puts |t|^p within rounding of 1,
    # the only float left to return (betainccinv gives nan far below it)
    edge = special.betaincc(*shape, 1.0 - 2.0 ** -53)
    x = np.where(tail > edge, special.betainccinv(*shape, tail), 1.0)
    out = np.sign(a - 0.5) * x ** (1.0 / params.p)
    return out if out.ndim else float(out)


def marginal_isf(params: PBallParams, a):
    """t with V{x_1 >= t} = a; equals -marginal_quantile(a) by symmetry."""
    return -marginal_quantile(params, a)


def marginal_second_moment(params: PBallParams) -> float:
    """sigma^2(p, n) = integral of t^2 against the coordinate marginal.

    With s = |t|^p the marginal becomes a Beta(1/p, b) law, b = (n-1)/p + 1,
    so sigma^2 = E s^(2/p) = B(3/p, b) / B(1/p, b).
    """
    p = params.p
    _, b = _marginal_shape(params)
    return float(np.exp(special.betaln(3.0 / p, b) - special.betaln(1.0 / p, b)))


# ---------------------------------------------------------------------------
# test sets: half-spaces and complements of Euclidean balls
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HalfSpace:
    """A = {x : <x, xi> >= t} with |xi|_2 = 1.

    ``level`` is the V-measure a the set was built at, when known
    (``coordinate_half_space`` sets it); the exact boundary mass is then
    taken from a, which stays accurate where t rounds to 1.
    """

    xi: np.ndarray
    t: float
    level: Optional[float] = None

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        nrm = np.linalg.norm(xi)
        if not np.isfinite(nrm) or abs(nrm - 1.0) > 1e-9:
            raise ValueError("half-space direction must be a unit vector")
        object.__setattr__(self, "xi", xi)

    @property
    def threshold(self) -> float:
        return self.t

    def scalar(self, X) -> np.ndarray:
        """<x, xi> per row; the set is {scalar >= threshold}, and so is
        every enlargement of it, at its own threshold."""
        return row_dot(X, self.xi)

    def indicator(self, X) -> np.ndarray:
        return self.scalar(X) >= self.t

    def dist(self, X) -> np.ndarray:
        """Euclidean distance to the set (0 inside)."""
        return np.maximum(self.t - self.scalar(X), 0.0)

    def dist_and_grad(self, X) -> tuple[np.ndarray, np.ndarray]:
        """(dist, gradient rows of dist) from one pass of the scalar; the
        rows are unit vectors a.e. where dist > 0."""
        s = self.scalar(X)
        outside = (s < self.t)[:, None]
        return np.maximum(self.t - s, 0.0), np.where(outside, -self.xi, 0.0)

    def enlarged(self, eps: float) -> "HalfSpace":
        # {dist <= eps} is again a half-space with threshold shifted by eps
        return HalfSpace(self.xi, self.t - eps)

    def _coordinate(self) -> Optional[int]:
        big = np.flatnonzero(np.abs(self.xi) > 1e-12)
        if big.size == 1 and abs(abs(self.xi[big[0]]) - 1.0) <= 1e-12:
            return int(big[0])
        return None

    def analytic_measure(self, params: PBallParams) -> Optional[float]:
        if self._coordinate() is None:
            return None
        # +/- e_i give the same value by symmetry of the marginal
        return float(marginal_sf(params, self.t))

    def analytic_boundary(self, params: PBallParams) -> Optional[float]:
        if self._coordinate() is None:
            return None
        if self.level is not None:
            return marginal_level_density(params, self.level)
        if abs(self.t) > 1.0:
            return 0.0
        return float(marginal_density(params, self.t))


@dataclass(frozen=True)
class BallComplement:
    """A = {x : |x|_2 >= r}."""

    r: float

    @property
    def threshold(self) -> float:
        return self.r

    def scalar(self, X) -> np.ndarray:
        """|x|_2 per row; the set is {scalar >= threshold}, and so is every
        enlargement of it, at its own threshold."""
        return lp_norm(X, 2.0)

    def indicator(self, X) -> np.ndarray:
        return self.scalar(X) >= self.r

    def dist(self, X) -> np.ndarray:
        return np.maximum(self.r - self.scalar(X), 0.0)

    def dist_and_grad(self, X) -> tuple[np.ndarray, np.ndarray]:
        """(dist, gradient rows of dist) from one pass of the scalar."""
        X = np.asarray(X, dtype=float)
        nrm = self.scalar(X)
        outside = (nrm < self.r) & (nrm > 0.0)
        unit = X / np.where(nrm == 0.0, 1.0, nrm)[:, None]
        return (np.maximum(self.r - nrm, 0.0),
                np.where(outside[:, None], -unit, 0.0))

    def enlarged(self, eps: float) -> "BallComplement":
        return BallComplement(self.r - eps)

    def analytic_measure(self, params: PBallParams) -> Optional[float]:
        if params.p != 2.0:
            return None
        if self.r <= 0.0:
            return 1.0
        return float(1.0 - min(self.r, 1.0) ** params.n)

    def analytic_boundary(self, params: PBallParams) -> Optional[float]:
        if params.p != 2.0 or not 0.0 < self.r <= 1.0:
            return None
        return float(params.n * self.r ** (params.n - 1))


def coordinate_half_space(params: PBallParams, a: float, axis: int = 0) -> HalfSpace:
    """The coordinate half-space {x_axis >= t} with V-measure exactly a."""
    xi = np.zeros(params.n)
    xi[axis] = 1.0
    return HalfSpace(xi, float(marginal_isf(params, a)), float(a))


# ---------------------------------------------------------------------------
# normalization map and its differential
# ---------------------------------------------------------------------------

def bgmn_map(z, p: float) -> np.ndarray:
    """T(z) = (z_1, ..., z_n) / |z|_p for z in R^(n+1); batched over rows."""
    z = np.asarray(z, dtype=float)
    nz = lp_norm(z, p)
    if np.any(nz == 0.0):
        raise ValueError("normalization map undefined at z = 0")
    if z.ndim == 1:
        return z[:-1] / nz
    return z[:, :-1] / nz[:, None]


@dataclass(frozen=True)
class JacobianResult:
    """Differential of the normalization map at one point.

    ``matrix`` has shape (n, n+1); row j holds the partial derivatives of
    T_j.  ``op_norm`` is the largest singular value (shared with the adjoint)
    and ``lemma1_bound`` the closed-form operator-norm bound, which must
    dominate op_norm; that is asserted at construction.
    """

    matrix: np.ndarray
    op_norm: float
    lemma1_bound: float

    def __post_init__(self):
        if not self.op_norm <= self.lemma1_bound + 1e-9:
            raise RuntimeError(
                f"operator norm {self.op_norm!r} exceeds its bound "
                f"{self.lemma1_bound!r}")


def _differential_terms(Z, p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, w, |z|_p) for rows z = (x, y) of Z, w_i = sign(z_i) |z_i|^(p-1).

    The differential is DT(z) = ([I|0] - x w^T / |z|_p^p) / |z|_p; at p = 1,
    w = sign(z), which is 0 on the kink set.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    nz = lp_norm(Z, p)
    if np.any(nz == 0.0):
        raise ValueError("Jacobian undefined at z = 0")
    w = np.sign(Z) * np.abs(Z) ** (p - 1.0)
    return Z[:, :-1], w, nz


def _op_norms_and_bounds(x: np.ndarray, w: np.ndarray, nz: np.ndarray,
                         p: float) -> tuple[np.ndarray, np.ndarray]:
    """Largest singular value of DT(z) per row, in closed form, and its bound.

    |z|_p^2 DT DT^T = I + S with S = beta x x^T - (b x^T + x b^T),
    b = w_{1..n} / |z|_p^p and beta = |w|_2^2 / |z|_p^(2p).  S vanishes off
    span{x, b}; there its eigenvalues are those of [[beta, -1], [-1, 0]] G,
    G the Gram matrix of (x, b), whose determinant -det G is <= 0.  So the top
    eigenvalue is >= 0 and, for n >= 2, is also the top one of S.
    """
    n = x.shape[1]
    xx = row_sum(np.square(x))
    bounds = (1.0 + n ** ((2.0 - p) / (2.0 * p)) * np.sqrt(xx) / nz) / nz
    nzp = nz ** p
    if n == 1:
        # no direction orthogonal to x: the differential is a single row
        row = -x * w / nzp[:, None]
        row[:, 0] += 1.0
        return np.sqrt(row_sum(np.square(row))) / nz, bounds
    b = w[:, :-1] / nzp[:, None]
    xb = row_sum(x * b)
    tr = row_sum(np.square(w)) / nzp ** 2 * xx - 2.0 * xb
    gram = np.maximum(xx * row_sum(np.square(b)) - xb * xb, 0.0)
    root = np.sqrt(tr * tr + 4.0 * gram)
    # for tr < 0 the root 2 gram / (root - tr) avoids cancellation
    top = np.where(tr >= 0.0, 0.5 * (tr + root),
                   2.0 * gram / np.where(tr < 0.0, root - tr, 1.0))
    return np.sqrt(1.0 + top) / nz, bounds


def jacobian_T(z, p: float) -> JacobianResult:
    """Differential of T at a single z, with operator norm and its bound.

    For p < 2 the map can fail to be differentiable where a coordinate
    vanishes; such z raise KinkError and the caller perturbs or skips the
    point.  The exception is x = 0 (all ball coordinates zero): there the
    kink terms are multiplied away and the differential exists for every p.
    """
    z = np.asarray(z, dtype=float)
    if p < 2.0 and np.any(z == 0.0) and np.any(z[:-1] != 0.0):
        raise KinkError("coordinate of z is exactly 0 with p < 2")
    x, w, nz = _differential_terms(z, p)
    n = x.shape[1]
    matrix = (np.eye(n, n + 1) - x[0][:, None] * w[0] / nz[0] ** p) / nz[0]
    ops, bounds = _op_norms_and_bounds(x, w, nz, p)
    return JacobianResult(matrix, float(ops[0]), float(bounds[0]))


def jacobian_op_norms(Z, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (op_norm, bound) over rows of Z; used for violation scans.

    The rows are taken in blocks through ``map_row_blocks``, so only one
    block's differential terms are alive beside the two results.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    return tuple(map_row_blocks(
        lambda block: _op_norms_and_bounds(*_differential_terms(block, p), p),
        [Z], Z.shape[0]))


# ---------------------------------------------------------------------------
# radial cut-offs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CutoffParams:
    """Constants of the two cut-offs, ``fields.CutoffH1Field`` and
    ``fields.CutoffH2Field``; both ramps have unit width in the rescaled
    radial variable."""

    c1: float = 1.0
    c2: float = 1.0

    def __post_init__(self):
        if self.c1 <= 0.0 or self.c2 <= 0.0:
            raise ValueError("cut-off constants must be positive")
