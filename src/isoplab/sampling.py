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

Streams: the product and ball laws are drawn as block streams,
``product_blocks`` and ``ball_blocks``, of (first row, block) pairs of
``geometry.block_rows(n + 1)`` rows; ``sample_product`` and ``sample_ball``
draw those same streams into the rows of one array.  A consumer that needs
only per-point values reads the stream block by block and keeps a column
per value, so it never holds a (count, n) batch.  The ball-norm guard runs
on every ball block.

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
chunk of candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    PBallParams,
    ball_volume,
    block_rows,
    lp_norm,
    row_sum,
)

__all__ = [
    "SampleBatch",
    "child_seed",
    "product_blocks",
    "ball_blocks",
    "sample_product",
    "sample_ball",
    "rejection_sample_ball",
    "ball_sampler",
    "rejection_sampler",
    "write_batch_csv",
    "read_points_csv",
]

REJECTION_CHUNK = 1 << 16        # envelope candidates per rejection chunk
GRID_SIDE = 8                    # finest envelope grid: cells of side 1/8
GRID_CELLS = 1 << 21             # most cells in an envelope table
BALL_OVERSHOOT = 1e-12           # tolerated |x|_p excess on ball batches


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
                 scratch: np.ndarray = None) -> np.ndarray:
    """Fill the C-contiguous (rows, n) block ``g`` with mu_p coordinates and
    return the rows' Exp(1) column, whose p-th root is the nu_p coordinate.

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
    return re.standard_exponential(g.shape[0])


def _product_rows(rngs: tuple, block: np.ndarray, p: float) -> None:
    """Product-law rows (g, E^{1/p}) into a C-contiguous (rows, n + 1)
    block; the block's own memory holds the second draw block until g is
    copied in."""
    rows, n = block.shape[0], block.shape[1] - 1
    g = np.empty((rows, n))
    e = _factor_rows(rngs, g, p, block.reshape(-1)[:rows * n].reshape(rows, n))
    block[:, :-1] = g
    np.power(e, 1.0 / p, out=block[:, -1])


def _ball_rows(rngs: tuple, g: np.ndarray, p: float) -> None:
    """Ball rows g / (sum |g_i|^p + E)^{1/p}, T of the same product rows,
    drawn and scaled in place in a (rows, n) block g, then norm-guarded."""
    s = _factor_rows(rngs, g, p)
    s += row_sum(g * g if p == 2.0 else _pow_p(np.abs(g), p))
    s **= -1.0 / p
    g *= s[:, None]
    _check_ball_norms(g, p)


def _row_blocks(params: PBallParams, count: int, seed: int, fill,
                width: int, out=None):
    """(first row, block) pairs of ``block_rows(n + 1)`` rows, filled by
    ``fill`` from the stream's role generators; blocks are new arrays, or
    the rows of ``out`` when it is given."""
    if count < 1:
        raise ValueError("count must be >= 1")
    step = block_rows(params.n + 1)

    def blocks():
        rngs = _role_rngs(seed)
        for lo in range(0, count, step):
            rows = min(step, count - lo)
            block = (np.empty((rows, width)) if out is None
                     else out[lo:lo + rows])
            fill(rngs, block, params.p)
            yield lo, block
    return blocks()


def product_blocks(params: PBallParams, count: int, seed: int):
    """The rows of ``sample_product(params, count, seed)`` as (first row,
    (rows, n + 1) block) pairs of ``block_rows(n + 1)`` rows, drawn one
    block at a time."""
    return _row_blocks(params, count, seed, _product_rows, params.n + 1)


def ball_blocks(params: PBallParams, count: int, seed: int):
    """The rows of ``sample_ball(params, count, seed)`` as (first row,
    (rows, n) block) pairs of ``block_rows(n + 1)`` rows, drawn one block
    at a time; every block passes the ball-norm guard."""
    return _row_blocks(params, count, seed, _ball_rows, params.n)


def sample_product(params: PBallParams, count: int, seed: int) -> SampleBatch:
    """count independent points of the product law on R^(n+1): the
    ``product_blocks`` stream drawn into the rows of one array."""
    n = params.n
    out = np.empty((count, n + 1))
    for _ in _row_blocks(params, count, seed, _product_rows, n + 1, out):
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
    for _ in _row_blocks(params, count, seed, _ball_rows, n, out):
        pass    # each block is drawn and mapped in its rows of out
    return SampleBatch("V_PN", n, count, seed, out)


def _check_ball_norms(pts: np.ndarray, p: float):
    worst = float(lp_norm(pts, p).max())
    if worst > 1.0 + BALL_OVERSHOOT:
        raise RuntimeError(f"ball sample exceeds the unit norm: {worst!r}")


def _pow_p(a: np.ndarray, p: float) -> np.ndarray:
    if p == 1.0:
        return a
    if p == 2.0:
        return a * a
    return a ** p


def _grid_cells(p: float, n: int, m: int, cap: int = GRID_CELLS):
    """Lower corners, in units of 1/m, of the orthant cells that meet B_p^n.

    The cell [k/m, (k+1)/m]^n meets the ball iff its lower corner does,
    because the ball's positive part is down-closed.  Returns an (n, cells)
    uint8 array, or None as soon as more than ``cap`` cells qualify.
    """
    w = _pow_p(np.arange(m, dtype=float), p)
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
    in GRID_CELLS cells; m = 1 is the whole cube as a single cell."""
    m, cells = 1, np.zeros((n, 1), dtype=np.uint8)
    for side in range(2, GRID_SIDE + 1):
        finer = _grid_cells(p, n, side)
        if finer is None:
            break
        m, cells = side, finer
    return m, cells


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
    x += cells[:, pick]
    x /= m
    s = np.zeros(rows)
    for column in x:
        s += _pow_p(column, p)
    out = x[:, s <= 1.0].T
    sg = rng.random(out.shape)
    out[sg < 0.5] *= -1.0
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


def read_points_csv(path) -> np.ndarray:
    pts = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return pts
