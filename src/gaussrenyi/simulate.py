"""Monte Carlo and brute-force references for the random map.

Everything here is an independent ground truth against the spectral
machinery: orbits of the random composition are simulated directly
from the map definitions, digits are read off with the two-symbol
digit function, and transfer operator images are re-computed by plain
branch summation with no tail model, over the first ``_A_HUGE`` = 10**6
branches (truncation error about sup|f| / 10**6).

The digit of the random continued fraction at time n depends on the
current point together with the next two map choices.  With the map
selection sequence shifted by one deterministic Gauss step (first
symbol 0), the n-th digit is obtained by iterating the random map
n - 1 times and applying the digit function to the resulting state.

Reproducibility contract: a run is a pure function of the
configuration.  The generator is numpy's default PCG64 seeded with the
configured seed; the initial points are drawn first (one uniform per
sample), then the map choices: for the digits row-major per orbit, for
the density one per sample per burn-in step.  Each uniform takes the
next 64-bit output of the generator, so draws of whole rows taken in
order consume exactly the stream of one (samples, n_index) draw, and
the chunks of one burn-in step taken in order that of one draw per
sample.  Both oracles rely on this to work in pieces that stay in
cache.  The digit oracle steps its orbits in blocks of ``_BLOCK`` and
fills a block's selection bits from draws of whole rows, about
``_BLOCK`` uniforms each, compared where they lie and transposed as
bits, so that every step reads one contiguous row; a late digit index
shortens the block so that its bits stay within ``_SEL_BITS``, which
keeps memory O(samples + n_index).  The density oracle draws, compares
and steps each burn-in step in chunks of ``_BLOCK`` orbits.  All
buffers are allocated once per run and the orbits step in place; the
stream, and every count, is that of the implementation that drew and
stepped whole arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .maps import MapKind, check_count, check_kind, check_unit, frozen_copy, map_step

__all__ = [
    "DensityHistogram", "EmpiricalLaw", "SimConfig", "brute_force_transfer", "digit_b",
    "empirical_density", "simulate_digit_freq",
]

_BLOCK = 1 << 15  # orbits stepped together, and uniforms per draw
_SEL_BITS = 1 << 22  # selection bits held at once (4 MiB): the memory bound in n_index
_A_HUGE = 10**6  # branches summed by brute_force_transfer


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one reproducible simulation run."""

    eps: float
    samples: int
    n_index: int = 1
    seed: int = 0
    burn_in: int = 100

    def __post_init__(self):
        check_unit("eps", self.eps)
        check_count("samples", self.samples, 1)
        check_count("n_index", self.n_index, 1)
        check_count("burn_in", self.burn_in, 0)
        check_count("seed", self.seed, 0)


@dataclass(frozen=True, eq=False)
class EmpiricalLaw:
    """Digit counts for N = 1..n_max plus an overflow bucket; the total is their sum."""

    counts: np.ndarray
    overflow: int

    def __post_init__(self):
        object.__setattr__(self, "counts", frozen_copy(self.counts, np.int64))

    @property
    def total(self):
        return int(self.counts.sum()) + self.overflow

    def frequencies(self):
        return self.counts / self.total

    def std_errors(self):
        p = self.frequencies()
        return np.sqrt(p * (1.0 - p) / self.total)


@dataclass(frozen=True, eq=False)
class DensityHistogram:
    """Normalized histogram of orbit positions after burn-in, in equal bins of [0, 1]."""

    masses: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "masses", frozen_copy(self.masses))

    @property
    def edges(self):
        return np.linspace(0.0, 1.0, self.masses.size + 1)


def digit_b(omega1, omega2, x):
    """Digit read off the state: k + omega2 with omega1 + (-1)^omega1 x
    in the k-th Gauss cell (1/(k+1), 1/k]."""
    if omega1 not in (0, 1) or omega2 not in (0, 1):
        raise ValueError("map selectors must be 0 or 1")
    check_unit("x", x)
    z = 1.0 - x if omega1 == 1 else x
    if z == 0.0:
        raise ValueError("digit undefined at the branch accumulation point")
    return int(math.floor(1.0 / z)) + omega2


def simulate_digit_freq(cfg, n_max=100):
    """Empirical law of the digit at time cfg.n_index.

    Parameters
    ----------
    cfg : SimConfig
        eps, sample count, digit index and seed.
    n_max : int
        Largest digit tracked individually; larger ones land in the
        overflow bucket.

    Each orbit takes the leading deterministic Gauss step of the shifted
    selection sequence, then cfg.n_index random choices.  Returns an
    :class:`EmpiricalLaw`.  The measure-zero event of an orbit landing
    exactly on a branch endpoint (undefined digit) is counted as overflow.
    """
    check_count("n_max", n_max, 1)
    rng = np.random.default_rng(cfg.seed)
    x = rng.random(cfg.samples)  # stepped in place, block by block
    n = cfg.n_index
    rows = min(cfg.samples, _BLOCK, max(1, _SEL_BITS // (n + 1)))
    m = min(rows, max(1, _BLOCK // n))  # orbits per draw: whole rows
    u = np.empty((m, n))
    drawn = np.empty((m, n), dtype=bool)
    sel = np.zeros((n + 1, rows), dtype=bool)  # row 0: the Gauss step, then the choices
    digit = np.empty(rows)
    binned = np.zeros(n_max + 2, dtype=np.int64)
    for start in range(0, cfg.samples, rows):
        r = min(rows, cfg.samples - start)
        xb, k = x[start : start + r], digit[:r]
        for s in range(0, r, m):
            c = min(m, r - s)
            rng.random(out=u[:c])
            np.less(u[:c], cfg.eps, out=drawn[:c])
            np.copyto(sel[1:, s : s + c], drawn[:c].T)  # one row per step
        for bits in sel[:-1, :r]:
            map_step(bits, xb, out=(xb, k))
        # an inf digit (the fixed point: digit undefined) lands in overflow
        np.minimum(np.add(k, sel[-1, :r], out=k), n_max + 1, out=k)
        binned += np.bincount(k.astype(np.int64), minlength=n_max + 2)
    return EmpiricalLaw(binned[1:-1], int(binned[-1]))


def empirical_density(cfg, bins=100):
    """Histogram of orbit positions after cfg.burn_in random steps.

    Each sample is an independent chain started from a uniform point;
    after burn-in the positions are approximately stationary and the
    normalized histogram approximates the stationary density.
    """
    check_count("burn_in", cfg.burn_in, 50)
    check_count("bins", bins, 1)
    rng = np.random.default_rng(cfg.seed)
    x = rng.random(cfg.samples)
    chunk = min(cfg.samples, _BLOCK)
    u = np.empty(chunk)
    bits = np.empty(chunk, dtype=bool)
    for _ in range(cfg.burn_in):
        for start in range(0, cfg.samples, chunk):
            xb = x[start : start + chunk]
            ub, bb = u[: xb.size], bits[: xb.size]
            np.less(rng.random(out=ub), cfg.eps, out=bb)
            map_step(bb, xb, out=(xb, ub))  # the draws are spent: u takes the digits
    edges = np.linspace(0.0, 1.0, bins + 1)
    counts, _ = np.histogram(x, bins=edges)
    return DensityHistogram(counts / cfg.samples)


def brute_force_transfer(kind, f, y):
    """Transfer operator image at one point by plain branch summation.

    No tail model: sums f(V_a(y)) / (a + y)^2 for a = 1.._A_HUGE, with
    ``_A_HUGE`` = 10**6.  Used to validate the Euler-Maclaurin tail of the
    transfer operators; the truncation error is of order sup|f| / 10**6.
    """
    check_kind(kind)
    check_unit("y", y)
    total = 0.0
    chunk = 200000
    for start in range(1, _A_HUGE + 1, chunk):
        a = np.arange(start, min(start + chunk, _A_HUGE + 1), dtype=float)
        u = 1.0 / (a + y)
        pts = u if kind is MapKind.GAUSS else 1.0 - u
        total += float(np.sum(u * u * f(pts)))
    return total
