"""Traced peak allocation of the row-blocked hot paths at 10^5 rows, n = 4.

Row-wise passes run over blocks of BLOCK_ROWS rows, so besides their
output they hold only a block's temporaries.  Building whole-batch
temporaries instead (3.5-4.25x the output for sample_ball, 5-8x the result
for lp_norm, 2.25x the batch for integrate_grad) fails these bounds.
"""

import tracemalloc

import numpy as np
import pytest

from isoplab.fields import LinearRamp
from isoplab.geometry import PBallParams, lp_norm
from isoplab.montecarlo import integrate_grad
from isoplab.sampling import sample_ball

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


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_lp_norm_peak_is_near_its_result(p):
    x = sample_ball(PBallParams(p, N), ROWS, 5).points
    peak = _traced_peak(lambda: lp_norm(x, p))
    assert peak <= 2.5 * ROWS * 8, peak


def test_grad_mass_peak_is_below_the_batch():
    batch = sample_ball(PBallParams(1.5, N), ROWS, 7)
    ramp = LinearRamp(np.eye(N)[0], 0.0, 0.3)
    peak = _traced_peak(lambda: integrate_grad(batch, ramp))
    assert peak <= 1.0 * ROWS * N * 8, peak
