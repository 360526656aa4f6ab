"""Samplers for the product measure mu_{p,n} and the ball measure V_{p,n}.

The product measure puts mu_p = exp(-|t|^p)/(2 Gamma(1+1/p)) on the first n
coordinates and nu_p (density p t^{p-1} exp(-t^p) on t >= 0) on the last one.
A mu_p coordinate is drawn exactly from the cheapest law available: a normal
with variance 1/2 at p = 2, a Laplace variate (the difference of two Exp(1))
at p = 1, and otherwise G^{1/p} U with G ~ Gamma(1+1/p, 1) and U uniform on
(-1, 1), since Gamma(1/p) =d Gamma(1+1/p) |U|^p.  The last coordinate is
E^{1/p} with E ~ Exp(1).  Normalizing by the l_p norm then yields exact
uniform samples on B_p^n (Barthe, Guedon, Mendelson and Naor); the ball
sampler forms s = sum |g_i|^p + E from the same draws row by row and
scales each row by s^{-1/p}, so its points are the push-forward of the
product rows with the same (params, count, seed).  The independent oracle
at small n is a rejection sampler from a grid envelope: the cells of side
1/m in the positive orthant that meet the ball, each drawn with equal
probability, a uniform point inside it kept when it lies in the ball, and
fair signs attached.

Streams: the laws are drawn as block streams of (first row, block) pairs.
``ball_blocks`` yields ball points in blocks of
``geometry.block_rows(n + 1)`` rows, and ``sample_product`` and
``sample_ball`` draw the same streams into the rows of one array.
``cell_blocks``, the stream a (p, n) cell reads, yields both from one
draw in blocks of a given size without forming the product rows: the
mu_p rows g and the Exp(1) column e of z = (g, e^{1/p})
(``product_rows`` forms z where a reader needs it), beside the ball
points X = T(z) and |z|_p.  A consumer that needs only per-point values
reads a stream block by block and folds each block into what it keeps,
so it never holds a (count, n) batch.  The ball-norm guard runs on every
ball block.

Determinism: a stream has one PCG64 generator per draw role (the mu_p
block, the second draw block, that is U or the second Exp(1), and E), the
children of SeedSequence(seed, spawn_key=(0,)), and each role is filled in
C order from its own generator.  So identical (params, count, seed) give
bit-identical points, whatever the block size, and a batch of k rows is
the first k rows of every larger batch with the same (params, seed).  The
rejection oracle draws fixed chunks of REJECTION_CHUNK candidates, each
from its own generator, so its accepted rows do not depend on count
either, and a rejection batch has the same prefix property.

Memory: a block stream holds one block and its draw temporaries, at most
BLOCK_ROWS * 4 values each, however wide the rows are; the samplers hold
their output beside that, and the rejection oracle its output and one
chunk of candidates.  ``cell_blocks`` draws every block into buffers of
the pass, 2n + 2 values per row (g, X, e and |z|_p; X holds the second
draw block and the |g_i|^p until it is formed); a cell takes
blocks of ``inequality_suite.cell_block_rows(n)`` rows, twice
``block_rows(n + 1)``, since it forms no (rows, n + 1) product block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    BALL_TOL,
    PBallParams,
    ball_volume,
    block_rows,
    lp_norm,
    pow_p,
    row_sum,
)

__all__ = [
    "SampleBatch",
    "child_seed",
    "ball_blocks",
    "cell_blocks",
    "product_rows",
    "sample_product",
    "sample_ball",
    "rejection_sample_ball",
    "ball_sampler",
    "rejection_sampler",
    "write_batch_csv",
]

REJECTION_CHUNK = 1 << 16        # envelope candidates per rejection chunk
GRID_SIDE = 8                    # finest envelope grid: cells of side 1/8
GRID_CELLS = 1 << 21             # most cells in an envelope table


@dataclass(frozen=True)
class SampleBatch:
    """Seeded, tagged points from one named measure.

    measure_tag is MU_PN (product space, dim n+1), V_PN (push-forward ball
    law) or REJECTION_V_PN (rejection-oracle ball law).
    """

    measure_tag: str
    dim: int
    count: int
    seed: int
    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.points.shape != (self.count, self.dim):
            raise ValueError(
                f"points shape {self.points.shape} does not match "
                f"(count, dim) = ({self.count}, {self.dim})")


def child_seed(seed: int, index: int) -> int:
    """Deterministic 64-bit sub-seed for the index-th dependent task."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    return np.random.Generator(np.random.PCG64(ss))


def _role_rngs(seed: int) -> tuple:
    """One generator per draw role of a product-law stream: the mu_p block,
    the second draw block (U, or the second Exp(1) at p = 1) and E."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(0,))
    return tuple(np.random.Generator(np.random.PCG64(child))
                 for child in ss.spawn(3))


def _factor_rows(rngs: tuple, g: np.ndarray, p: float,
                 scratch: np.ndarray = None,
                 e: np.ndarray = None) -> np.ndarray:
    """Fill the C-contiguous (rows, n) block ``g`` with mu_p coordinates and
    return the rows' Exp(1) column, whose p-th root is the nu_p coordinate,
    drawn into ``e`` when given.

    The second draw block goes into ``scratch``, a C-contiguous array of
    g's shape whose values are not kept, or into a new array.  Each role
    draws from its own generator, and a generator fills an array element
    by element in C order, so the rows of consecutive blocks are those of
    one draw over all of them, whatever the block sizes.
    """
    rg, ru, re = rngs
    if p == 2.0:
        rg.standard_normal(out=g)
        g *= math.sqrt(0.5)
    else:
        v = np.empty_like(g) if scratch is None else scratch
        if p == 1.0:
            rg.standard_exponential(out=g)
            ru.standard_exponential(out=v)
            g -= v
        else:
            # |g|^p = G |U|^p ~ Gamma(1/p), and U carries a fair sign; U is
            # 2 u - 1, the bits of uniform(-1, 1) from the same stream
            rg.standard_gamma(1.0 + 1.0 / p, out=g)
            g **= 1.0 / p
            ru.random(out=v)
            v *= 2.0
            v -= 1.0
            g *= v
    if e is None:
        return re.standard_exponential(g.shape[0])
    return re.standard_exponential(out=e)


def _to_product(Z: np.ndarray, g: np.ndarray, e: np.ndarray, p: float):
    """Product-law rows (g, E^{1/p}) into the (rows, n + 1) block Z."""
    Z[:, :-1] = g
    np.power(e, 1.0 / p, out=Z[:, -1])


def _add_pow_sum(g: np.ndarray, s: np.ndarray, p: float):
    """Add sum |g_i|^p to the rows' Exp(1) column s in place, so that s
    is |z|_p^p of the product rows z = (g, E^{1/p})."""
    s += row_sum(g * g if p == 2.0 else pow_p(np.abs(g), p))


def _to_ball(g: np.ndarray, s: np.ndarray, p: float):
    """Scale the mu_p rows g in place to g / s^{1/p}, T of the product
    rows, given s = |z|_p^p (which is overwritten), then norm-guard
    them."""
    s **= -1.0 / p
    g *= s[:, None]
    _check_ball_norms(g, p)


def _product_rows(rngs: tuple, Z: np.ndarray, p: float) -> None:
    """Product-law rows into a C-contiguous (rows, n + 1) block; the
    block's own memory holds the second draw block until g is copied in."""
    g = np.empty((Z.shape[0], Z.shape[1] - 1))
    scratch = Z.reshape(-1)[:g.size].reshape(g.shape)
    _to_product(Z, g, _factor_rows(rngs, g, p, scratch), p)


def _ball_rows(rngs: tuple, X: np.ndarray, p: float) -> None:
    """Ball rows, drawn and scaled in place in a (rows, n) block."""
    s = _factor_rows(rngs, X, p)
    _add_pow_sum(X, s, p)
    _to_ball(X, s, p)


def _cell_rows(rngs: tuple, g: np.ndarray, X: np.ndarray, e: np.ndarray,
               zp: np.ndarray, p: float) -> None:
    """The product rows' mu_p block into g and Exp(1) column into e, their
    ball points T(z) into X and norms |z|_p into zp, from one draw: X
    holds the second draw block, then the |g_i|^p summed into
    s = sum |g_i|^p + e, then g / s^{1/p}; zp is s^{1/p}.  Every step is
    ``_ball_rows``'s operation on the same values (the sum is taken as
    row_sum + e, which rounds as e + row_sum), so X is ``sample_ball``'s
    rows bit for bit."""
    _factor_rows(rngs, g, p, X, e)
    if p == 2.0:
        np.multiply(g, g, out=X)
    else:
        np.abs(g, out=X)
        if p != 1.0:
            X **= p
    s = row_sum(X)
    s += e
    np.power(s, 1.0 / p, out=zp)
    s **= -1.0 / p
    np.multiply(g, s[:, None], out=X)
    _check_ball_norms(X, p)


def cell_blocks(params: PBallParams, count: int, seed: int, rows: int):
    """(first row, (g, X, e, zp)) blocks of up to ``rows`` rows of the
    product rows of ``sample_product`` and the ball points of
    ``sample_ball`` for the same (params, count, seed), bit for bit, from
    one draw and without forming the product rows: a product row is
    z = (g, e^{1/p}) (``product_rows``), with g its mu_p coordinates and e
    its Exp(1) variate; X = T(z) passes the ball-norm guard, and zp is
    |z|_p as s^{1/p} of the s = |z|_p^p that T divides by, so it needs no
    pass over z; it is within rounding of ``lp_norm(z, p)``, not bit-equal
    to it.  The four arrays are views of buffers of the pass, allocated
    once: every block overwrites the last, so a reader copies what it
    keeps."""
    if count < 1:
        raise ValueError("count must be >= 1")
    n, step = params.n, min(rows, count)

    def blocks():
        rngs = _role_rngs(seed)
        buffers = (np.empty((step, n)), np.empty((step, n)), np.empty(step),
                   np.empty(step))
        for lo in range(0, count, step):
            block = tuple(buf[:count - lo] for buf in buffers)
            _cell_rows(rngs, *block, params.p)
            yield lo, block
    return blocks()


def product_rows(g: np.ndarray, e: np.ndarray, p: float) -> np.ndarray:
    """The product rows z = (g, e^{1/p}) of a ``cell_blocks`` block's g and
    e as a new (rows, n + 1) array, bit for bit those of
    ``sample_product``."""
    Z = np.empty((g.shape[0], g.shape[1] + 1))
    _to_product(Z, g, e, p)
    return Z


def _row_blocks(params: PBallParams, count: int, seed: int, fill,
                shapes: tuple, outs: tuple = ()):
    """(first row, blocks) pairs of ``block_rows(n + 1)`` rows, one block
    per row shape, filled together by ``fill`` from the stream's role
    generators; blocks are new arrays, or the rows of ``outs`` when given."""
    if count < 1:
        raise ValueError("count must be >= 1")
    step = block_rows(params.n + 1)

    def blocks():
        rngs = _role_rngs(seed)
        for lo in range(0, count, step):
            rows = min(step, count - lo)
            block = (tuple(out[lo:lo + rows] for out in outs)
                     or tuple(np.empty((rows, *shape)) for shape in shapes))
            fill(rngs, *block, params.p)
            yield lo, block
    return blocks()


def ball_blocks(params: PBallParams, count: int, seed: int):
    """The rows of ``sample_ball(params, count, seed)`` as (first row,
    (rows, n) block) pairs of ``block_rows(n + 1)`` rows, drawn one block
    at a time; every block passes the ball-norm guard."""
    return ((lo, X) for lo, (X,) in
            _row_blocks(params, count, seed, _ball_rows, ((params.n,),)))


def sample_product(params: PBallParams, count: int, seed: int) -> SampleBatch:
    """count independent points of the product law on R^(n+1), drawn
    block by block into the rows of one array."""
    n = params.n
    out = np.empty((count, n + 1))
    for _ in _row_blocks(params, count, seed, _product_rows, (), (out,)):
        pass    # each block is drawn into its rows of out
    return SampleBatch("MU_PN", n + 1, count, seed, out)


def sample_ball(params: PBallParams, count: int, seed: int) -> SampleBatch:
    """count uniform points on B_p^n via the normalization push-forward:
    the ``ball_blocks`` stream drawn into the rows of one array.

    Each block's mu_p rows are drawn straight into its rows of the output
    and mapped there to g / (sum |g_i|^p + E)^{1/p}, i.e. T(z) of the same
    product rows, so no temporary is larger than a block and the peak
    stays near the output at any n.
    """
    n = params.n
    out = np.empty((count, n))
    for _ in _row_blocks(params, count, seed, _ball_rows, (), (out,)):
        pass    # each block is drawn and mapped in its rows of out
    return SampleBatch("V_PN", n, count, seed, out)


def _check_ball_norms(pts: np.ndarray, p: float):
    worst = float(lp_norm(pts, p).max())
    if worst > 1.0 + BALL_TOL:
        raise RuntimeError(f"ball sample exceeds the unit norm: {worst!r}")


def _grid_cells(p: float, n: int, m: int, cap: int = GRID_CELLS):
    """Lower corners, in units of 1/m, of the orthant cells that meet B_p^n.

    The cell [k/m, (k+1)/m]^n meets the ball iff its lower corner does,
    because the ball's positive part is down-closed.  Returns an (n, cells)
    uint8 array, or None as soon as more than ``cap`` cells qualify.
    """
    w = pow_p(np.arange(m, dtype=float), p)
    # sums of k_i^p are exact integers at p in {1, 2}; elsewhere the slack
    # keeps a corner that rounding pushes just off the sphere (an extra
    # cell only costs rejections, a missing one would bias the law)
    limit = float(m) ** p * (1.0 + 1e-12)
    corners = np.zeros((0, 1), dtype=np.uint8)
    s = np.zeros(1)
    for _ in range(n):
        parts, sums, total = [], [], 0
        for k in range(m):
            keep = np.flatnonzero(s + w[k] <= limit)
            if keep.size == 0:      # w rises with k: no larger k fits either
                break
            total += keep.size
            if total > cap:
                return None
            part = np.empty((corners.shape[0] + 1, keep.size), dtype=np.uint8)
            part[:-1] = corners[:, keep]
            part[-1] = k
            parts.append(part)
            sums.append(s[keep] + w[k])
        corners = np.concatenate(parts, axis=1)
        s = np.concatenate(sums)
    return corners


def _grid_envelope(p: float, n: int):
    """(m, cells) for the finest grid, up to GRID_SIDE, whose table fits
    in GRID_CELLS cells; m = 1 is the whole cube as a single cell.  The
    sides are tried from GRID_SIDE down, so usually one table is built."""
    for m in range(GRID_SIDE, 1, -1):
        cells = _grid_cells(p, n, m)
        if cells is not None:
            return m, cells
    return 1, np.zeros((n, 1), dtype=np.uint8)


def _rejection_chunk(rng: np.random.Generator, p: float, m: int,
                     cells: np.ndarray) -> np.ndarray:
    """Accepted rows from one chunk of REJECTION_CHUNK grid-envelope
    candidates.

    Each candidate is a uniform cell of the table plus a uniform offset
    inside it, hence uniform on the union of the cells, which covers the
    ball's positive part.  Candidates with sum x_i^p <= 1 are kept and get
    fair signs, so the law is exactly uniform on B_p^n.
    """
    n, rows = cells.shape[0], REJECTION_CHUNK
    pick = rng.integers(0, cells.shape[1], size=rows)
    x = rng.random((n, rows))
    x += np.take(cells, pick, axis=1)
    x /= m
    s = np.zeros(rows)
    for column in x:
        s += pow_p(column, p)
    out = np.take(x, np.flatnonzero(s <= 1.0), axis=1).T
    # fair signs: every x >= 0, so x becomes -x where its uniform is < 0.5
    np.copysign(out, rng.random(out.shape) - 0.5, out=out)
    return out


def rejection_sample_ball(params: PBallParams, count: int,
                          seed: int) -> SampleBatch:
    """Brute-force uniform sampler on B_p^n: the push-forward oracle.

    Exact rejection from the grid envelope of ``_grid_envelope``: chunk ci
    draws exactly REJECTION_CHUNK candidates from its own generator, and
    its accepted rows go, in order, into the output until count are in.  A
    fixed number of candidates per chunk keeps the law exact and makes a
    batch of k points the first k points of every larger batch with the
    same (params, seed); memory is the output plus one chunk.
    Only practical at small n: refuses n > 10, and refuses outright when
    the *cube* acceptance Vol(B_p^n)/2^n drops below 1e-6, whatever the
    envelope's acceptance.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    p, n = params.p, params.n
    if n > 10:
        raise ValueError(f"rejection sampler limited to n <= 10, got n={n}")
    acceptance = ball_volume(p, n) / 2.0 ** n
    if acceptance < 1e-6:
        raise RuntimeError(
            f"estimated acceptance rate {acceptance:.3e} below 1e-6 "
            f"for p={p}, n={n}")
    m, cells = _grid_envelope(p, n)
    pts = np.empty((count, n))
    have = ci = 0
    while have < count:
        acc = _rejection_chunk(_chunk_rng(seed, ci), p, m, cells)
        take = min(acc.shape[0], count - have)
        pts[have:have + take] = acc[:take]
        have += take
        ci += 1
    _check_ball_norms(pts, p)
    return SampleBatch("REJECTION_V_PN", n, count, seed, pts)


# ---------------------------------------------------------------------------
# sampler factories: (count, seed) -> SampleBatch for one ball law
# ---------------------------------------------------------------------------

def ball_sampler(params: PBallParams):
    return lambda count, seed: sample_ball(params, count, seed)


def rejection_sampler(params: PBallParams):
    return lambda count, seed: rejection_sample_ball(params, count, seed)


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------

def write_batch_csv(batch: SampleBatch, path):
    """Header x1,...,xd then one sample per line at full double precision."""
    cols = [f"x{j + 1}" for j in range(batch.dim)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for row in batch.points:
            fh.write(",".join(repr(v) for v in row.tolist()) + "\n")

