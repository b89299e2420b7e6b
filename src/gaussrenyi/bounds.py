"""Lasota-Yorke contraction constants for the two-step branch sums.

For smoothness index i >= 2 the sum of i-th powers of the first
derivatives of the two-step branches is bounded by

    theta = zeta(2i)^2 - (1 - 2^(-2i))      (Gauss-Gauss pairs)
    c     = zeta(2i)^2                      (Renyi-Renyi pairs)

with theta < 1 < c, computed from z = zeta(2i) - 1 as z (2 + z) + 4^(-i)
and (1 + z)^2 with no difference of numbers near 1.  The convex mixture
with weight eps on the Renyi map therefore contracts while
(1-eps) theta + eps c < 1, which pins the admissible range
eps <= (1 - theta) / (c - theta) = (1 - theta) / (1 - 4^(-i)).  The
index i = 1 is refused ("smoothness index must be at least 2"): at
i = 1 the two-step derivative sums give no contraction constant, since
zeta(2)^2 - 3/4 > 1, so theta < 1 fails and the Lasota-Yorke estimate
does not cover it.  :func:`hurwitz_zeta` is the package's one zeta summation.
"""

from __future__ import annotations

import math
import sys

from .maps import check_count, warn

__all__ = ["c_bound", "eps_max", "hurwitz_zeta", "theta_bound"]

# B_2j / (2j)! for j = 1..8, the Euler-Maclaurin correction coefficients
_BERNOULLI_OVER_FACTORIAL = (
    1 / 12,
    -1 / 720,
    1 / 30240,
    -1 / 1209600,
    1 / 47900160,
    -691 / 1307674368000,
    1 / 74724249600,
    -3617 / 10670622842880000,
)
_EXPLICIT_TERMS = 12


def hurwitz_zeta(s, q):
    """zeta(s, q) = sum_{a >= 0} (a + q)^(-s) by Euler-Maclaurin summation.

    Twelve terms are summed explicitly; the rest is the integral, the
    half-term and eight Bernoulli corrections at x = q + 12 (the
    Euler-Maclaurin formula, DLMF 2.10.1, on the series DLMF 25.11.1),
    which leaves a remainder far below double rounding for s >= 2 and
    q >= 1.  s and q are finite real scalars with s > 1 and q >= 1, so no
    term (q + a)^(-s) exceeds 1 and none overflows; the result is a float.
    An integer s past the float range is summed as the largest float, at
    which x^(-s) is 0 for every x > 1.
    """
    if not 1 < s < math.inf:  # also catches NaN
        raise ValueError(f"exponent must be finite and exceed 1: {s!r}")
    if not 1 <= q < math.inf:
        raise ValueError(f"offset must be finite and at least 1: {q!r}")
    s, q = float(min(s, sys.float_info.max)), float(q)
    x = q + _EXPLICIT_TERMS
    xs = x**-s
    out = x * xs / (s - 1.0) + 0.5 * xs
    rising = s * xs / x  # s (s+1) ... (s+2j-2) x^(-s-2j+1) at j = 1
    for j, b in enumerate(_BERNOULLI_OVER_FACTORIAL, start=1):
        if rising == 0.0:  # x^(-s) underflowed; past s = 1.3e154 the factor below is inf
            break
        out += b * rising
        rising = rising * ((s + 2 * j - 1) * (s + 2 * j)) / (x * x)
    for a in range(_EXPLICIT_TERMS - 1, -1, -1):  # smallest terms first
        out += (q + a) ** -s
    return out


def theta_bound(i):
    """Contraction factor zeta(2i)^2 - (1 - 4^(-i)) = z (2 + z) + 4^(-i), in (0, 1), i >= 2."""
    check_count("smoothness index", i, 2)
    z = hurwitz_zeta(2 * i, 2.0)  # zeta(2i) - 1
    return z * (2.0 + z) + math.ldexp(1.0, -2 * i)  # 4^(-i); 0.25**i fails past the float range


def c_bound(i):
    """Renyi-pair bound zeta(2i)^2 = (1 + z)^2, slightly above 1 and decreasing in i."""
    check_count("smoothness index", i, 2)
    return (1.0 + hurwitz_zeta(2 * i, 2.0)) ** 2


def eps_max(i):
    """Largest admissible Renyi weight, (1 - theta) / (c - theta), c - theta = 1 - 4^(-i)."""
    return (1.0 - theta_bound(i)) / (1.0 - math.ldexp(1.0, -2 * i))


# admissible mixture range for the default smoothness index
_ADMISSIBLE_EPS_MAX = eps_max(2)


def warn_if_inadmissible(eps):
    """Warn when eps lies outside [0, eps_max(2)]; call where a density at eps is built."""
    if not 0.0 <= eps <= _ADMISSIBLE_EPS_MAX:
        warn(f"mixture weight {eps!r} outside the admissible range "
             f"[0, {_ADMISSIBLE_EPS_MAX:.6f}]")
