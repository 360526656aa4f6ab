"""Scan two of the inequality checks and read off fitted constants.

check_theorem1 rates coordinate half-spaces against n^{1/p} a log^{1-1/p}(1/a)
using the exact marginal oracle (no Monte Carlo needed), so the fitted
constant is the smallest ratio seen.  check_bobkov_inequality grades the
same exact boundary contents against the log-concave enlargement bound,
whose ball masses V{|x|_2 <= r} are Monte Carlo at p = 1.5.
"""

import numpy as np

from isoplab import (
    PBallParams,
    check_bobkov_inequality,
    check_theorem1,
    coordinate_half_space,
)

a_grid = np.logspace(-3, np.log10(0.5), 13)

print("order-sharpness scan (exact oracle):")
print("   p   n    c_hat    ratio_max   band")
for p in (1.0, 1.5, 2.0):
    for n in (4, 16):
        rep = check_theorem1(p, n, a_grid)
        c = rep.constants
        print(f"  {p:3.1f} {n:3d}   {c['c_hat']:.4f}   {c['ratio_max']:.4f}"
              f"     {c['band']:.2f}")

print("\nenlargement bound at (p, n) = (1.5, 4), half-spaces a in {0.25, 0.5}:")
params = PBallParams(1.5, 4)
sets = [coordinate_half_space(params, a) for a in (0.25, 0.5)]
rep = check_bobkov_inequality(1.5, 4, sets, r_grid=[0.5, 1.0],
                              count=100_000, seed=11)
print("  r      a     content   bound    verdict")
for row in rep.reports:
    _, _, r, a = row.params
    print(f"  {r:4.2f}  {a:4.2f}   {row.lhs.mean:.4f}   {row.rhs:8.4f}"
          f"  {row.verdict}")
print("minimum content/bound slack:", round(rep.constants["min_slack"], 3))
