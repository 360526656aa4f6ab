"""Draw uniform points from an l_p ball two ways and compare marginals.

The fast path pushes a product of mu_p coordinates (density proportional
to exp(-|t|^p)) and one nu_p coordinate through T(z) = x / |z|_p; the
slow path draws uniform points from the grid cells of side 1/m that meet
the ball and rejects those outside it.  Both target the same normalized
volume measure, so their coordinate marginals agree.
"""

import numpy as np
from scipy import stats

from isoplab import PBallParams, ball_sampler, rejection_sampler, write_batch_csv

p, n = 1.5, 3
N = 20_000
params = PBallParams(p, n)

push = ball_sampler(params)(N, seed=1)
rej = rejection_sampler(params)(N, seed=2)

print(f"uniform points on B_{p}^{n}, {N} each")
print("max |x|_p (push):", np.max(np.sum(np.abs(push.points) ** p, axis=1) ** (1 / p)))
print("max |x|_p (rej): ", np.max(np.sum(np.abs(rej.points) ** p, axis=1) ** (1 / p)))

# two-sample KS per coordinate; all should be ~1/sqrt(N) small
for j in range(n):
    d = stats.ks_2samp(push.points[:, j], rej.points[:, j]).statistic
    print(f"coordinate {j}: KS distance {d:.4f}")

# identical (params, count, seed, chunk) replay bit for bit
again = ball_sampler(params)(N, seed=1)
print("replay identical:", np.array_equal(push.points, again.points))

write_batch_csv(push, "ball_points.csv")
print("wrote ball_points.csv")
