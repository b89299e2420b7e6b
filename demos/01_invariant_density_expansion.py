"""Expand the stationary density of the random Gauss-Renyi map in eps.

The random system applies the Gauss map with probability 1 - eps and
the Renyi map with probability eps.  At eps = 0 the stationary density
is the classical Gauss density 1/((1+x) log 2); for small eps we
compute the Taylor coefficients of the density in eps and compare the
truncated expansion against the fixed density of the discretized
annealed operator.
"""

import numpy as np

from gaussrenyi import (
    MapKind,
    annealed,
    assemble_operator,
    invariant_density,
    mixture_series,
    norm_sup,
)

# collocation degree 128 and 256 explicit branches resolve everything
# here to near machine precision
m0 = assemble_operator(MapKind.GAUSS, 128)
m1 = assemble_operator(MapKind.RENYI, 128)

h0 = invariant_density(m0)
print("base density: h0(0) =", h0(0.0), " (1/log 2 =", 1 / np.log(2), ")")
print("unit mass:", h0.integrate())

# third-order expansion h_eps = h0 + eps c1 + eps^2 c2 + eps^3 c3
series = mixture_series(h0, m0, m1, order=3)
for n, c in enumerate(series.coeffs, start=1):
    print(f"coefficient c{n}: sup norm {norm_sup(c):.6f}, mass {c.integrate():+.2e}")

# the truncation is accurate to O(eps^4); check against the discretized
# fixed density at a few weights
print("\n eps    |series - fixed|_sup    residual |L_eps h - h|")
for eps in (0.01, 0.05, 0.1, 0.2):
    h_eps = series.at(eps)
    reference = invariant_density(annealed(eps, m0, m1))
    gap = norm_sup(h_eps - reference)
    res = series.residual(eps)
    print(f"{eps:5.2f}   {gap:12.3e}          {res:12.3e}")

# the density tilts mass toward x = 1 as the Renyi map enters the mix
xs = np.linspace(0.0, 1.0, 5)
print("\n  x      h0(x)      h_0.2(x)")
h_eps = series.at(0.2)
for x in xs:
    print(f"{x:5.2f}  {h0(x):9.6f}  {h_eps(x):9.6f}")
