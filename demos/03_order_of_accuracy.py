"""Empirical convergence order of the truncated density expansion.

An order-k truncation of the density expansion should miss the true
stationary density by O(eps^(k+1)).  Halving eps twice and fitting the
log-log slope of the error against the discretized fixed density makes
the order visible directly.
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

m0 = assemble_operator(MapKind.GAUSS, 128)
m1 = assemble_operator(MapKind.RENYI, 128)
h0 = invariant_density(m0)
series = mixture_series(h0, m0, m1, order=3)

eps_grid = np.array([0.01, 0.02, 0.04])
references = {eps: invariant_density(annealed(eps, m0, m1)) for eps in eps_grid}

print(" k   eps     sup error      residual     fitted slope")
for k in (1, 2, 3):
    truncated = series.truncated(k)
    errors = []
    for eps in eps_grid:
        h_k = truncated.at(eps)
        errors.append(norm_sup(h_k - references[eps]))
    slope = np.polyfit(np.log(eps_grid), np.log(errors), 1)[0]
    for eps, err in zip(eps_grid, errors):
        res = truncated.residual(eps)
        print(f"{k:2d}  {eps:5.2f}   {err:11.3e}   {res:11.3e}     {slope:6.3f}")
    print()

print("expected slopes are k + 1: the remainder after k terms is O(eps^(k+1))")
