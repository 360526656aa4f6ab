"""Samplers for the product measure mu_{p,n} and the ball measure V_{p,n}.

The product measure puts mu_p = exp(-|t|^p)/(2 Gamma(1+1/p)) on the first n
coordinates and nu_p (density p t^{p-1} exp(-t^p) on t >= 0) on the last one.
A mu_p coordinate is drawn exactly from the cheapest law available: a normal
with variance 1/2 at p = 2, a Laplace variate (the difference of two Exp(1))
at p = 1, and otherwise G^{1/p} U with G ~ Gamma(1+1/p, 1) and U uniform on
(-1, 1), since Gamma(1/p) =d Gamma(1+1/p) |U|^p.  The last coordinate is
E^{1/p} with E ~ Exp(1).  Normalizing by the l_p norm then yields exact
uniform samples on B_p^n (Barthe, Guedon, Mendelson and Naor); the ball
sampler forms s = sum |g_i|^p + E from the same draws in one pass and
scales each row by s^{-1/p}, so its points are the push-forward of the
product batch with the same (params, count, seed, chunk_size).  The
independent oracle at small n is a rejection sampler from a grid envelope:
the cells of side 1/m in the positive orthant that meet the ball, each drawn
with equal probability, a uniform point inside it kept when it lies in the
ball, and fair signs attached.

Determinism: a batch is produced in fixed-size chunks, each driven by its own
PCG64 generator seeded from (seed, chunk index), so identical (params, count,
seed, chunk_size) give bit-identical points and chunks may be generated in
any order or in parallel.  A rejection chunk always draws chunk_size
candidates, so its accepted rows do not depend on count either, and a
rejection batch of k points is the first k points of any larger batch with
the same (params, seed, chunk_size).

Memory: the ball sampler's row-wise passes over a chunk step by
``geometry.block_rows(n)`` rows, so no temporary beside the output and
the E column holds more than BLOCK_ROWS * 4 values, however wide the rows
are; the rejection oracle holds its output and one chunk of candidates.
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
    "DEFAULT_CHUNK",
    "child_seed",
    "sample_product",
    "sample_ball",
    "rejection_sample_ball",
    "ball_sampler",
    "rejection_sampler",
    "write_batch_csv",
    "read_points_csv",
]

DEFAULT_CHUNK = 1 << 18          # product-measure rows per generator chunk
REJECTION_CHUNK = 1 << 16        # envelope candidates per rejection chunk
GRID_SIDE = 8                    # finest envelope grid: cells of side 1/8
GRID_CELLS = 1 << 21             # most cells in an envelope table
BALL_OVERSHOOT = 1e-12           # tolerated |x|_p excess on ball batches


@dataclass(frozen=True)
class SampleBatch:
    """Seeded, tagged points from one named measure.

    measure_tag is MU_PN (product space, dim n+1), V_PN (push-forward ball
    law) or REJECTION_V_PN (rejection-oracle ball law).  chunk_size records
    the generation layout so parallel and serial runs reconcile.
    """

    measure_tag: str
    dim: int
    count: int
    seed: int
    points: np.ndarray = field(repr=False)
    chunk_size: int = DEFAULT_CHUNK

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


def _chunk_bounds(count: int, chunk_size: int):
    """(chunk index, first row, end row) of each generator chunk."""
    for ci in range(0, -(-count // chunk_size)):
        lo = ci * chunk_size
        yield ci, lo, min(lo + chunk_size, count)


def _factor_chunk(rng: np.random.Generator, rows: int, p: float, n: int,
                  out=None):
    """One chunk's draws: a (rows, n) block of mu_p coordinates, then the
    Exp(1) column whose p-th root is the nu_p coordinate.

    The mu_p block is drawn into ``out`` when given (a C-contiguous
    (rows, n) array), else into a new array, and returned.  Its second
    draw block (U at 1 < p < 2, the second Exp(1) at p = 1) is drawn and
    applied ``block_rows(n)`` rows at a time; the generator fills arrays
    element by element in C order, so the stream and the values are those
    of one (rows, n) draw.
    """
    g = np.empty((rows, n)) if out is None else out
    step = block_rows(n)
    if p == 2.0:
        rng.standard_normal(out=g)
        g *= math.sqrt(0.5)
    elif p == 1.0:
        rng.standard_exponential(out=g)
        for lo in range(0, rows, step):
            block = g[lo:lo + step]
            block -= rng.standard_exponential(block.shape)
    else:
        # |g|^p = G |U|^p ~ Gamma(1/p), and U carries a fair sign
        rng.standard_gamma(1.0 + 1.0 / p, out=g)
        g **= 1.0 / p
        for lo in range(0, rows, step):
            block = g[lo:lo + step]
            block *= rng.uniform(-1.0, 1.0, block.shape)
    e = rng.standard_exponential(rows)
    return g, e


def sample_product(params: PBallParams, count: int, seed: int,
                   chunk_size: int = DEFAULT_CHUNK) -> SampleBatch:
    """count independent points of the product law on R^(n+1)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    p, n = params.p, params.n
    out = np.empty((count, n + 1))
    for ci, lo, hi in _chunk_bounds(count, chunk_size):
        g, e = _factor_chunk(_chunk_rng(seed, ci), hi - lo, p, n)
        out[lo:hi, :n] = g
        out[lo:hi, n] = e if p == 1.0 else e ** (1.0 / p)
    return SampleBatch("MU_PN", n + 1, count, seed, out, chunk_size)


def sample_ball(params: PBallParams, count: int, seed: int,
                chunk_size: int = DEFAULT_CHUNK) -> SampleBatch:
    """count uniform points on B_p^n via the normalization push-forward.

    Each chunk draws what ``sample_product`` draws, with the mu_p block
    going straight into the chunk's rows of the output, and maps it to
    g / (sum |g_i|^p + E)^{1/p}, i.e. T(z) of the same product rows.  The
    sum, its power and the scaling run in place over blocks of
    ``block_rows(n)`` rows, so no temporary is larger than a block beside
    the E column, and the peak stays near the output at any n.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    p, n = params.p, params.n
    out = np.empty((count, n))
    step = block_rows(n)
    for ci, lo, hi in _chunk_bounds(count, chunk_size):
        g, s = _factor_chunk(_chunk_rng(seed, ci), hi - lo, p, n, out[lo:hi])
        for b in range(0, hi - lo, step):
            gb, sb = g[b:b + step], s[b:b + step]
            sb += row_sum(gb * gb if p == 2.0 else _pow_p(np.abs(gb), p))
            sb **= -1.0 / p
            gb *= sb[:, None]
    _check_ball_norms(out, p)
    return SampleBatch("V_PN", n, count, seed, out, chunk_size)


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


def _rejection_chunk(rng: np.random.Generator, rows: int, p: float,
                     m: int, cells: np.ndarray) -> np.ndarray:
    """Accepted rows from one chunk of grid-envelope candidates.

    Each candidate is a uniform cell of the table plus a uniform offset
    inside it, hence uniform on the union of the cells, which covers the
    ball's positive part.  Candidates with sum x_i^p <= 1 are kept and get
    fair signs, so the law is exactly uniform on B_p^n.
    """
    n = cells.shape[0]
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


def rejection_sample_ball(params: PBallParams, count: int, seed: int,
                          chunk_size: int = REJECTION_CHUNK) -> SampleBatch:
    """Brute-force uniform sampler on B_p^n: the push-forward oracle.

    Exact rejection from the grid envelope of ``_grid_envelope``: chunk ci
    draws exactly chunk_size candidates from its own generator, and its
    accepted rows go, in order, into the output until count are in.  A
    fixed number of candidates per chunk keeps the law exact and makes a
    batch of k points the first k points of every larger batch with the
    same (params, seed, chunk_size); memory is the output plus one chunk.
    Only practical at small n: refuses n > 10, and refuses outright when
    the *cube* acceptance Vol(B_p^n)/2^n drops below 1e-6, whatever the
    envelope's acceptance.
    """
    if count < 1 or chunk_size < 1:
        raise ValueError("count and chunk_size must be >= 1")
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
        acc = _rejection_chunk(_chunk_rng(seed, ci), chunk_size, p, m, cells)
        take = min(acc.shape[0], count - have)
        pts[have:have + take] = acc[:take]
        have += take
        ci += 1
    _check_ball_norms(pts, p)
    return SampleBatch("REJECTION_V_PN", n, count, seed, pts, chunk_size)


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
