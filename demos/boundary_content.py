"""Estimate the boundary measure of a set by shrinking enlargements.

The lower Minkowski content is the eps -> 0 limit of
(V{dist <= eps} - V(A)) / eps.  Finite eps overestimates on a convex-ish
set, so the estimator runs a decreasing ladder and extrapolates the
intercept by weighted least squares.  On the disc the half-space
{x_1 >= 0} has exact boundary mass 2/pi (the diameter over the area).
"""

import math

import numpy as np

from isoplab import (
    PBallParams,
    ball_blocks,
    content_from_batch,
    coordinate_half_space,
    default_eps_ladder,
)
from isoplab.geometry import map_row_blocks

params = PBallParams(2.0, 2)
half = coordinate_half_space(params, 0.5)
count = 200_000

# the estimator reads one value per point, the set's scalar x_1, and the
# set's threshold on it; the points stream past block by block and only
# that column is kept
scalars = np.empty(count)
map_row_blocks(lambda X: (half.scalar(X),), ball_blocks(params, count, 7),
               [scalars])
est, = content_from_batch(scalars, [half.threshold],
                          default_eps_ladder(2.0, 2))
exact = half.analytic_boundary(params)
print("ladder rungs (eps, quotient, stderr):")
for eps, q in est.per_epsilon:
    print(f"  {eps:6.3f}   {q.mean:.5f}   {q.std_err:.5f}")

print(f"\nextrapolated content: {est.extrapolated.mean:.5f} "
      f"+/- {est.extrapolated.std_err:.5f}")
print(f"exact value 2/pi:     {2 / math.pi:.5f}")
print(f"analytic hook value:  {exact:.5f}")
# within 3 standard errors plus 2% of the exact value
slack = 3.0 * est.extrapolated.std_err + 0.02 * exact
print("consistent with it:  ", abs(est.extrapolated.mean - exact) <= slack)
