"""Digit statistics of regular and random semi-regular continued fractions.

The classical Gauss-Kuzmin law gives the limiting frequency of digit N
in regular continued fractions as log2((1 + 1/N) / (1 + 1/(N + 1))).
For the random system that prepends a Gauss step and then picks the
Renyi map with probability eps, the digit value is decided by the next
two map choices together with the current point, so the limit law of
the N-th digit decomposes into four interval integrals of the
stationary density h_eps:

    (1-eps)^2 over (1/(N+1), 1/N]        (Gauss, Gauss)
    (1-eps)eps over (1/N, 1/(N-1)]       (Gauss, Renyi)
    eps(1-eps) over [1-1/N, 1-1/(N+1))   (Renyi, Gauss)
    eps^2     over [1-1/(N-1), 1-1/N)    (Renyi, Renyi)

For N = 1, 1/(N-1) is clipped to 1: those two cells are empty points.  The density is
supplied as a :class:`~gaussrenyi.perturbation.PerturbationSeries`, so
at eps = 0 everything collapses back to the Gauss-Kuzmin law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .maps import check_count, frozen_copy, warn

__all__ = [
    "DigitCell", "DigitLaw", "NormalizationError", "digit_cells", "digit_law",
    "digit_probability", "gauss_kuzmin", "gauss_kuzmin_tail",
]


class NormalizationError(RuntimeError):
    """Digit probabilities failed to sum to at most one."""


def gauss_kuzmin(n):
    """Gauss-Kuzmin probability of digit n: log2((1 + 1/n) / (1 + 1/(n+1)))."""
    check_count("digit", n, 1)
    return math.log2((1.0 + 1.0 / n) / (1.0 + 1.0 / (n + 1)))


def gauss_kuzmin_tail(n_max):
    """Mass of the Gauss-Kuzmin law above n_max; the sum telescopes."""
    check_count("digit cutoff", n_max, 1)
    return math.log2(1.0 + 1.0 / (n_max + 1))


@dataclass(frozen=True)
class DigitCell:
    """One interval of the four-cell decomposition for a fixed digit.

    The Gauss-first cells (omega1 = 0) are right-closed, the
    Renyi-first cells left-closed, matching the half-open branch
    partitions of the two maps.
    """

    omega1: int
    omega2: int
    lo: float
    hi: float

    @property
    def is_empty(self):
        return self.hi <= self.lo

    @property
    def weight_exponents(self):
        """(i, j) with cell weight (1 - eps)^i eps^j; always i + j = 2."""
        s = self.omega1 + self.omega2
        return (2 - s, s)

    def weight(self, eps):
        i, j = self.weight_exponents
        return (1.0 - eps) ** i * eps**j

    def contains(self, x):
        if self.omega1 == 0:
            return self.lo < x <= self.hi
        return self.lo <= x < self.hi


def digit_cells(n):
    """The four (omega1, omega2) cells on which the digit equals n."""
    check_count("digit", n, 1)
    outer = 1.0 / max(n - 1, 1)  # 1/(n-1) clipped to [0, 1]
    return [
        DigitCell(0, 0, 1.0 / (n + 1), 1.0 / n),
        DigitCell(0, 1, 1.0 / n, outer),
        DigitCell(1, 0, 1.0 - 1.0 / n, 1.0 - 1.0 / (n + 1)),
        DigitCell(1, 1, 1.0 - outer, 1.0 - 1.0 / n),
    ]


def digit_probability(n, eps, series):
    """Limiting probability that a late digit equals n, at weight eps.

    Sums the weighted cell integrals of the truncated density
    expansion.  An inadmissible weight warns once, where ``series.at``
    builds the density at eps, and the computation proceeds.
    """
    h = series.at(eps)
    total = 0.0
    for cell in digit_cells(n):
        if cell.is_empty:
            continue
        total += cell.weight(eps) * h.integrate_on(cell.lo, cell.hi)
    return total


@dataclass(frozen=True, eq=False)
class DigitLaw:
    """Digit probabilities 1..n_max plus the tail 1 - sum(probs) as computed, at least -1e-8."""

    eps: float
    order: int
    probs: np.ndarray
    tail_mass: float

    def __post_init__(self):
        object.__setattr__(self, "probs", frozen_copy(self.probs))


def digit_law(eps, series, n_max=100):
    """Tabulate digit probabilities for N = 1..n_max.

    The tail mass is assigned by conservation, 1 minus the tabulated
    sum, and returned as computed: it may lie in [-1e-8, 0), and a tail
    below -1e-8 raises NormalizationError.  Entries below -1e-9 indicate
    series truncation error and are flagged with a warning; every entry
    is returned as computed.
    """
    check_count("digit cutoff", n_max, 1)
    probs = np.array([digit_probability(n, eps, series) for n in range(1, n_max + 1)])
    if np.any(probs < -1e-9):
        worst = float(probs.min())
        warn(f"digit probability dips to {worst:.3e}; "
             f"the series truncation is too coarse for this weight")
    tail = 1.0 - float(probs.sum())
    if tail < -1e-8:
        raise NormalizationError(f"digit probabilities sum to 1 - ({tail:.3e}) > 1")
    return DigitLaw(eps, series.order, probs, tail)
