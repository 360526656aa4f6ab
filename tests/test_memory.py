"""Traced peak allocation of the row-blocked hot paths.

Row-wise passes run over blocks of ``block_rows(width)`` rows, so besides
their output they hold only a block's temporaries, at most BLOCK_ROWS * 4
values each, however wide the rows are.  At 10^5 rows, n = 4, building
whole-batch temporaries instead (3.5-4.25x the output for sample_ball, 5-8x
the result for lp_norm, 2.25x the batch for a gradient-norm pass) fails these
bounds; at n = 1024, blocks of BLOCK_ROWS rows regardless of width (3x the
output for sample_ball and for the Bobkov check) fail them too.  The
rejection oracle holds its output plus one fixed-size chunk of candidates;
sizing one chunk from count instead (5.5-13.8x the output) fails its bound.

The checks stream their draws, so their peaks do not grow with n at a
fixed count; holding the (count, n) batch (the chain peaked at 763 MB at
n = 1024, 2x10^4 points) fails these bounds.  The same holds for a whole
(p, n) cell, whose sampled checks share its two streams.  Nor does a
cell's peak grow with its count but for three columns: its grading pass
folds every block into per-block summaries (counts at thresholds fixed
before the pass, and merged moments), and what it keeps per point is the
held-out stream's sorted |x|_2 and functional columns, which place
thresholds at order statistics, and the sz-concentration functional on
the grading stream, whose median is an order statistic too.  Keeping a
grading column per statistic instead (about 10 more at p = 1.5, n = 4)
fails both cell bounds.  sample_product draws its second draw block into
its own output rows; a whole mu_p block beside the output (2.2x) fails
its bound.
"""

import tracemalloc

import numpy as np
# imported before any trace: the first draw imports numpy.random lazily,
# which would add about 1.0 MB to the first traced peak (0.74 MB stays)
import numpy.random  # noqa: F401
import pytest

from isoplab.cli import REGISTRY, RunConfig
from isoplab.fields import LinearRamp
from isoplab.geometry import (PBallParams, coordinate_half_space,
                              jacobian_op_norms, lp_norm, map_row_blocks)
from isoplab.inequality_suite import (CellPlan, bobkov_plan, cell_block_rows,
                                      check_lemma5, cutoff_chain_plan,
                                      functional_equivalence_plan,
                                      lemma4_plan, run_cell)
from isoplab.montecarlo import integrate_grad
from isoplab.sampling import rejection_sample_ball, sample_ball, sample_product

ROWS, N = 10 ** 5, 4


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_sample_ball_peak_is_near_its_output(p):
    peak = _traced_peak(lambda: sample_ball(PBallParams(p, N), ROWS, 3))
    assert peak <= 2.0 * ROWS * N * 8, peak


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_sample_product_peak_is_near_its_output(p):
    params = PBallParams(p, N)
    peak = _traced_peak(lambda: sample_product(params, ROWS, 3))
    assert peak <= 1.1 * ROWS * (N + 1) * 8, peak


def test_lemma5_peak_holds_no_gamma_matrix():
    # the rows are the exact Gamma(N/p) law; N = 16 summands of Gamma(1/3)
    # drawn 10^5 times would hold a 0.8 MB sums column, the matrix 13 MB
    peak = _traced_peak(lambda: check_lemma5(3.0, 16, [0.05, 0.1, 0.2]))
    assert peak <= 64e3, peak


@pytest.mark.parametrize("check", [
    lambda n: run_cell(1.5, n, [cutoff_chain_plan(1.5, n)], 20000, 15)[0],
    lambda n: run_cell(1.5, n, [bobkov_plan(
        1.5, n, [coordinate_half_space(PBallParams(1.5, n), 0.2)], [1.0])],
        20000, 13)[0],
], ids=["chain", "bobkov"])
def test_streamed_check_peak_does_not_grow_with_n(check):
    narrow = _traced_peak(lambda: check(4))
    wide = _traced_peak(lambda: check(1024))
    assert wide <= 1.25 * narrow, wide / narrow


def _default_cell(n, count):
    # every default sampled check of the (1.5, n) cell at count points
    cfg = RunConfig(samples=count)
    plans = [REGISTRY[name][1](cfg, 1.5, n) for name in REGISTRY]
    run_cell(1.5, n, [plan for plan in plans if isinstance(plan, CellPlan)],
             cfg.samples, cfg.seed)


def test_cell_peak_does_not_grow_with_n():
    # a cell holds its columns and one block of each stream, never a batch
    narrow = _traced_peak(lambda: _default_cell(4, 20000))
    wide = _traced_peak(lambda: _default_cell(1024, 20000))
    assert wide <= 1.25 * narrow, wide / narrow


def test_cell_peak_is_a_few_columns():
    # the grading pass keeps summaries, so the peak is one block's work
    # beside the three columns (4.1 columns); a column per grading
    # statistic peaked at 13.1 columns here, a column per gradient norm
    # and per link (21 grading columns) at 18.0 MB, and the chain's
    # gradient rows, about eight (rows, n + 1) temporaries per block, at
    # 5.1 columns
    peak = _traced_peak(lambda: _default_cell(4, ROWS))
    assert peak <= 5 * ROWS * 8, peak / (ROWS * 8)


def test_one_block_cell_peak_per_row():
    # a default (1.5, 4) cell of one cell block: the draw's g and X rows
    # and columns, the shared scalars, the chain's primitives and columns
    # written in place for half a block at a time, and the three
    # count-sized columns, 183 B/row; drawing the product rows beside the
    # ball rows and forming the chain's columns afresh for the whole block
    # peaked at 312 B/row
    rows = cell_block_rows(4)
    peak = _traced_peak(lambda: _default_cell(4, rows))
    assert peak <= 200 * rows, peak / rows


def test_cell_peak_does_not_grow_with_count():
    # from 10^4 to 10^5 points only the two held-out columns and the
    # sz-concentration grading column may grow; a column per grading
    # statistic grew by about 10 columns of the 9x10^4 added points
    small = _traced_peak(lambda: _default_cell(4, 10 ** 4))
    large = _traced_peak(lambda: _default_cell(4, ROWS))
    added = (ROWS - 10 ** 4) * 8
    assert large - small <= 1.25 * 3 * added, (large - small) / added


def test_wide_sample_ball_peak_is_near_its_output():
    rows, n = 3000, 1024
    peak = _traced_peak(lambda: sample_ball(PBallParams(1.5, n), rows, 3))
    assert peak <= 1.25 * rows * n * 8, peak


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_lp_norm_peak_is_near_its_result(p):
    x = sample_ball(PBallParams(p, N), ROWS, 5).points
    peak = _traced_peak(lambda: lp_norm(x, p))
    assert peak <= 2.5 * ROWS * 8, peak


def test_grad_mass_peak_is_below_the_batch():
    # the pass that fills the gradient-norm column, then the mean over it
    batch = sample_ball(PBallParams(1.5, N), ROWS, 7)
    ramp = LinearRamp(np.eye(N)[0], 0.0, 0.3)

    def grad_mass():
        norms, = map_row_blocks(lambda X: (lp_norm(ramp.grad(X), 2.0),),
                                [batch.points], ROWS)
        return integrate_grad(norms)

    peak = _traced_peak(grad_mass)
    assert peak <= 1.0 * ROWS * N * 8, peak


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_rejection_peak_is_near_its_output(p):
    n = 6
    peak = _traced_peak(lambda: rejection_sample_ball(PBallParams(p, n),
                                                      ROWS, 9))
    assert peak <= 4.0 * ROWS * n * 8, peak


def test_operator_norm_scan_peak_is_below_the_batch():
    Z = sample_product(PBallParams(1.5, 64), 10 ** 4, 11).points
    peak = _traced_peak(lambda: jacobian_op_norms(Z, 1.5))
    assert peak <= 0.5 * Z.nbytes, peak


def test_wide_bobkov_check_peak_is_near_its_batch():
    # the check holds its batch, per-point scalars and one block at a time
    count, params = 5000, PBallParams(1.5, 1024)
    hs = coordinate_half_space(params, 0.2)
    peak = _traced_peak(lambda: run_cell(
        params.p, params.n, [bobkov_plan(params.p, params.n, [hs], [1.0])],
        count, 13)[0])
    assert peak <= 1.2 * count * params.n * 8, peak


WIDE = PBallParams(1.5, 1024)
WIDE_COUNT = 3000
WIDE_BATCH = WIDE_COUNT * WIDE.n * 8


@pytest.mark.parametrize("check", [
    lambda: run_cell(WIDE.p, WIDE.n, [cutoff_chain_plan(WIDE.p, WIDE.n)],
                     WIDE_COUNT, 15)[0],
    lambda: run_cell(WIDE.p, WIDE.n, [lemma4_plan(WIDE.p, WIDE.n)],
                     WIDE_COUNT, 15)[0],
], ids=["chain", "lemma4"])
def test_wide_product_checks_hold_no_ball_batch(check):
    # the product batch is streamed and its ball points are T(Z), so
    # neither batch is held (3.0x with a ball batch beside a product batch)
    peak = _traced_peak(check)
    assert peak <= 2.2 * WIDE_BATCH, peak / WIDE_BATCH


def test_wide_equivalence_check_holds_one_batch():
    # all four rungs read one batch; a batch per rung held the old rung's
    # batch while the next one was drawn (2.0x)
    w = WIDE.n ** (-(2.0 - WIDE.p) / (2.0 * WIDE.p))
    hs = coordinate_half_space(WIDE, 0.5)
    peak = _traced_peak(lambda: run_cell(
        WIDE.p, WIDE.n, [functional_equivalence_plan(
            WIDE.p, WIDE.n, hs, 0.0025 * w, 0.05 * w)], WIDE_COUNT, 15)[0])
    assert peak <= 1.2 * WIDE_BATCH, peak / WIDE_BATCH
