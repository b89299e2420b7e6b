"""Contraction constants and how much Renyi weight the theory allows.

Two-step branch-derivative sums control the contraction of the
annealed operator on smooth functions.  The Gauss-Gauss sums stay
below theta < 1, the Renyi-Renyi sums below c slightly above 1, and
the mixture contracts while (1 - eps) theta + eps c < 1.
"""

import numpy as np

from gaussrenyi import c_bound, eps_max, theta_bound, two_step_derivative

print(" i      theta          c          eps_max")
for i in range(2, 9):
    print(f"{i:2d}   {theta_bound(i):.7f}   {c_bound(i):.7f}   {eps_max(i):.7f}")

print("\nthe admissible range grows toward 1 as the smoothness index rises")

# sanity: brute-force Gauss-Gauss sums sit below theta at every point
i = 2
theta = theta_bound(i)
nn = np.arange(1, 2001, dtype=float)[:, None]
kk = np.arange(1, 2001, dtype=float)[None, :]
worst = max(
    float(np.sum(1.0 / (nn * (kk + x) + 1.0) ** (2 * i)))
    for x in np.linspace(0.0, 1.0, 21)
)
print(f"\nsup_x of the truncated two-step sum at i = {i}: {worst:.6f} < theta = {theta:.6f}")

spot = sum(
    two_step_derivative(0, 0, n, k, 0.5) ** i
    for n in range(1, 60)
    for k in range(1, 60)
)
print(f"spot check at x = 0.5 from the closed branch-derivative formulas: {spot:.6f}")
