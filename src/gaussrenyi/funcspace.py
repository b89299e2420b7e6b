"""Smooth functions on [0, 1] in a Chebyshev collocation basis.

A :class:`ChebFn` stores the coefficients of a polynomial interpolant
through the Chebyshev-Lobatto points mapped to [0, 1].  For analytic
functions the representation converges geometrically in the degree,
down to a plateau of rounding noise.  The solvers of
:mod:`~gaussrenyi.transfer` store every function they return chopped
(:func:`chopped`): the coefficients past the standardChop plateau
(:func:`chop_length`) are zero and their integral sits on c_0, while
the degree stays.  At the default degree 128 the Gauss density keeps
20 of its 129 coefficients, h_eps keeps 31, 54 and 92 at eps 0.1, 0.5
and 0.8 and all 129 from eps 0.9 on, and the series coefficients
c_1..c_20 keep 27 to 83.  A function built by a caller keeps every
coefficient it was given.
Evaluation uses the Clenshaw recurrence, and integration acts exactly
on the coefficient space.  Evaluation and
:meth:`ChebFn.integrate_on` run the recurrence with the coefficients as
Python floats, in numpy's order of operations, so they give numpy's
``chebval`` bits; a scalar argument costs only its arithmetic.  Each
function keeps its coefficient list once, up to its last non-zero
coefficient and stored highest degree first, and the recurrence walks
it front to back: numpy's loop reads ``c[-i]`` for i = 3, 4, ..., which
is the same sequence, so the walk does the same operations in the same
order without indexing, and trailing zeros leave numpy's sums where the
shorter list starts them.  On an array the two running sums live in
three buffers shaped like the argument, made by each call and updated
in place, so a step of the recurrence allocates nothing and the caller
owns the result; no buffer is kept between calls.  The
antiderivative F behind ``integrate_on`` is numpy's ``chebint``, built
once per function and cached, like the node values; F is read through a
memo of its last 8 points, so a run of neighbouring intervals, such as
the digit cells that share their ends, sums F once per distinct end.

All objects are immutable values; every operation returns a new
function.  Every array kept here, the coefficients, the node values, the
cached basis matrices, the chop plans and bias ramps and the sup-norm grid
:data:`SUP_GRID`, is a read-only copy from
:func:`~gaussrenyi.maps.frozen_copy`.  This makes concurrent read access
safe without locking.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import numpy.polynomial.chebyshev as ncheb

from .maps import check_count, check_unit, frozen_copy

__all__ = [
    "DEFAULT_DEGREE", "ChebFn", "chebyshev_nodes", "linear_combo", "norm_sup",
    "quadrature_weights",
]

DEFAULT_DEGREE = 128

# uniform grid of 2049 points for sup-norm estimates (diagnostics only)
SUP_GRID = frozen_copy(np.linspace(0.0, 1.0, 2049))

_CHOP_TOL = 2.0**-52  # standardChop's tolerance


def chebyshev_nodes(degree):
    """Ascending Chebyshev-Lobatto points on [0, 1], endpoints included."""
    check_count("degree", degree, 0)
    if degree == 0:
        return np.array([0.5])
    j = np.arange(degree + 1)
    return (1.0 - np.cos(np.pi * j / degree)) / 2.0


@lru_cache(maxsize=32)
def values_to_coeffs_matrix(degree):
    """Matrix mapping node values to Chebyshev coefficients.

    Discrete cosine transform written out as a dense matrix; at the
    degrees used here (a few hundred at most) this is both fast and
    exactly consistent with :func:`coeffs_to_values_matrix`.
    """
    n = degree
    if n == 0:
        return frozen_copy([[1.0]])
    k = np.arange(n + 1)
    p = np.ones(n + 1)
    p[0] = p[-1] = 2.0
    S = (2.0 / (np.outer(p, p) * n)) * np.cos(np.outer(k, k) * np.pi / n)
    # our nodes ascend in x, the classical ones descend in cos(theta)
    return frozen_copy(S[:, ::-1])


@lru_cache(maxsize=32)
def coeffs_to_values_matrix(degree):
    """Chebyshev Vandermonde matrix at the collocation nodes."""
    return frozen_copy(ncheb.chebvander(2.0 * chebyshev_nodes(degree) - 1.0, degree))


@lru_cache(maxsize=32)
def integral_row(degree):
    """Row functional c -> integral over [0, 1] of sum_k c_k T_k(2x-1)."""
    k = np.arange(degree + 1)
    row = np.zeros(degree + 1)
    even = k % 2 == 0
    row[even] = 1.0 / (1.0 - k[even] ** 2)
    return frozen_copy(row)


@lru_cache(maxsize=32)
def quadrature_weights(degree):
    """Clenshaw-Curtis weights: q @ values == integral, exact on the basis."""
    return frozen_copy(integral_row(degree) @ values_to_coeffs_matrix(degree))


def _clenshaw(r, x):
    """numpy's ``chebval`` loop on the reversed coefficients: the same bits.

    ``r`` holds the coefficients highest degree first, as Python floats.
    numpy starts from ``c[-2], c[-1]`` and reads ``c[-i]`` for
    i = 3 .. len(c); walking ``r`` front to back yields exactly that
    sequence, so the loop body and the order of its operations are
    numpy's.  ``x`` is a float or an array; on a float the loop runs at
    the cost of its arithmetic, on an array it does numpy's elementwise
    operations.  This is the package's one hand-written copy of numpy's
    Chebyshev calculus: a 1000-digit law runs about 2000 scalar sums,
    one per distinct cell end, and ``chebval``, looping on numpy
    scalars, costs about five times as much per sum at degree 128.

    On an array the two running sums live in three buffers shaped like
    ``x``, made by this call and never shared: the first step makes c1's
    (c0 is still a float), the second c0's and the third tmp's, so no
    fill is paid.  Each step writes ``ck - c1`` into tmp, then
    ``c0 + c1 * x2`` into c1 in place, and swaps c0 with tmp; the final
    ``c0 + c1 * x`` is written into c1, which is returned and belongs to
    the caller.  These are numpy's operations in numpy's order, so the
    bits are still ``chebval``'s, and a step allocates nothing.
    """
    if len(r) == 1:
        return r[0] + 0 * x
    rest = iter(r)
    c1, c0 = next(rest), next(rest)
    x2 = 2 * x
    if len(r) == 2 or not isinstance(x2, np.ndarray):
        for ck in rest:
            c0, c1 = ck - c1, c0 + c1 * x2
        return c0 + c1 * x
    # the ufuncs bound to local names and given their output by position:
    # about 8% less time per step than global lookups and out= keywords
    sub, mul, add = np.subtract, np.multiply, np.add
    ck = next(rest)
    buf = mul(c1, x2)
    c0, c1 = ck - c1, add(c0, buf, buf)
    tmp = None
    for ck in rest:
        tmp = sub(ck, c1, tmp)
        mul(c1, x2, c1)
        add(c0, c1, c1)
        # c0 is a float until the second step: tmp is made by the third
        c0, tmp = tmp, c0 if isinstance(c0, np.ndarray) else None
    mul(c1, x, c1)
    return add(c0, c1, c1)


@lru_cache(maxsize=32)
def _plateau_plan(n):
    """Read-only index pairs (j - 1, j2 - 1) of the plateau test on n coefficients.

    The test runs at every 1-based j = 2..n whose partner
    j2 = floor(1.25 j + 5.5) lies in range.
    """
    j = np.arange(2, n + 1)
    j2 = np.floor(1.25 * j + 5.5).astype(int)
    keep = j2 <= n
    return frozen_copy(j[keep] - 1, dtype=int), frozen_copy(j2[keep] - 1, dtype=int)


@lru_cache(maxsize=128)
def _bias_ramp(j2):
    """Read-only linear bias 0 .. -log10(2^-52)/3 over the first j2 coefficients."""
    return frozen_copy(np.linspace(0.0, -np.log10(_CHOP_TOL) / 3.0, j2))


def chop_length(coeffs):
    """Length of ``coeffs`` kept by standardChop at tolerance 2^-52.

    Aurentz & Trefethen, *Chopping a Chebyshev series*, ACM TOMS 43(4),
    2017: the envelope of |c_k| is scanned for a plateau, and the
    series is cut where the envelope plus a small linear bias is
    smallest.  Without a plateau the full length is returned.  The index
    pairs of the plateau test depend on the length alone and are cached
    per length, read-only, as is the bias ramp per cut.
    """
    tol = _CHOP_TOL
    n = len(coeffs)
    if n < 17:
        return n
    env = np.maximum.accumulate(np.abs(np.asarray(coeffs, dtype=float))[::-1])[::-1]
    if env[0] == 0.0:
        return 1
    env = env / env[0]
    i1, i2 = _plateau_plan(n)
    e1, e2 = env[i1], env[i2]
    with np.errstate(divide="ignore", invalid="ignore"):
        hit = (e1 == 0.0) | (e2 / e1 > 3.0 * (1.0 - np.log(e1) / math.log(tol)))
    if not hit.any():
        return n
    j2 = int(i2[np.argmax(hit)]) + 1  # the plateau starts at j - 1 of the first hit
    level = tol ** (7.0 / 6.0)
    j3 = np.count_nonzero(env >= level)
    if j3 < j2:
        j2 = j3 + 1
        env[j2 - 1] = level
    cc = np.log10(env[:j2]) + _bias_ramp(j2)
    return max(int(np.argmin(cc)), 1)


def _reversed_head(c):
    """Coefficients up to the last non-zero one as floats, highest degree first.

    Clenshaw over trailing zeros leaves its two running sums at
    (c_m-1, c_m) for the last non-zero c_m, exactly where a sum over the
    trimmed list starts, so both give the same bits.
    """
    nz = np.flatnonzero(c)
    m = int(nz[-1]) if nz.size else 0
    return c[m::-1].tolist()


class ChebFn:
    """Polynomial interpolant on [0, 1] in the Chebyshev basis T_k(2x - 1)."""

    __slots__ = ("_coeffs", "_rlist", "_values", "_anti")

    def __init__(self, coeffs):
        c = frozen_copy(coeffs)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficient array must be one-dimensional and non-empty")
        if not np.all(np.isfinite(c)):
            raise ValueError("non-finite coefficient")
        self._coeffs = c
        self._rlist = None
        self._values = None
        self._anti = None

    @classmethod
    def from_callable(cls, f, degree=DEFAULT_DEGREE):
        """Interpolate ``f`` at the degree + 1 collocation nodes."""
        xs = chebyshev_nodes(degree)
        vals = np.array([float(f(x)) for x in xs])
        bad = ~np.isfinite(vals)
        if np.any(bad):
            raise ValueError(f"non-finite sample value at node x = {float(xs[bad][0])!r}")
        return cls.from_values(vals)

    @classmethod
    def from_values(cls, values):
        """Build the interpolant through values at the collocation nodes."""
        v = np.asarray(values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("value array must be one-dimensional and non-empty")
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite node value")
        return cls(values_to_coeffs_matrix(v.size - 1) @ v)

    @classmethod
    def constant(cls, value, degree=0):
        check_count("degree", degree, 0)
        c = np.zeros(degree + 1)
        c[0] = float(value)
        return cls(c)

    @property
    def coeffs(self):
        return self._coeffs

    @property
    def degree(self):
        return self._coeffs.size - 1

    @property
    def values(self):
        """Values at the collocation nodes (cached)."""
        if self._values is None:
            self._values = frozen_copy(coeffs_to_values_matrix(self.degree) @ self._coeffs)
        return self._values

    def __call__(self, x):
        if self._rlist is None:
            # the Clenshaw sum walks the floats highest degree first
            self._rlist = _reversed_head(self._coeffs)
        if np.isscalar(x) or np.ndim(x) == 0:
            x = float(x)
            check_unit("argument", x)
            return _clenshaw(self._rlist, 2.0 * x - 1.0)
        arr = np.asarray(x, dtype=float)
        # min and max carry a NaN through, so a NaN fails the check too
        if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
            raise ValueError(f"argument outside [0, 1]: {x!r}")
        t = np.multiply(arr, 2.0)
        return _clenshaw(self._rlist, np.subtract(t, 1.0, out=t))

    def integrate(self):
        """Integral over [0, 1], exact on the polynomial space."""
        return float(integral_row(self.degree) @ self._coeffs)

    def integrate_on(self, lo, hi):
        """Integral over [lo, hi] via the coefficient antiderivative (cached)."""
        if not (0.0 <= lo <= hi <= 1.0):
            raise ValueError(f"invalid integration bounds [{lo!r}, {hi!r}]")
        if self._anti is None:
            anti = _reversed_head(ncheb.chebint(self._coeffs, scl=0.5))
            # neighbouring intervals share their ends: a bounded memo of F
            self._anti = lru_cache(maxsize=8)(lambda x: _clenshaw(anti, 2.0 * x - 1.0))
        F = self._anti
        return float(F(hi) - F(lo))

    # small amount of arithmetic keeps perturbation code readable
    def __add__(self, other):
        if not isinstance(other, ChebFn):
            return NotImplemented
        return linear_combo([(1.0, self), (1.0, other)])

    def __sub__(self, other):
        if not isinstance(other, ChebFn):
            return NotImplemented
        return linear_combo([(1.0, self), (-1.0, other)])

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return ChebFn(float(scalar) * self._coeffs)

    __rmul__ = __mul__

    def __reduce__(self):
        # pickle the coefficients only: the caches, and the memo of F
        # that pickle cannot take, are rebuilt on demand
        return ChebFn, (self._coeffs,)

    def __repr__(self):
        return f"ChebFn(degree={self.degree})"


def linear_combo(terms):
    """Weighted sum of ChebFns; result degree is the maximum input degree."""
    terms = list(terms)
    if not terms:
        raise ValueError("empty linear combination")
    deg = max(f.degree for _, f in terms)
    c = np.zeros(deg + 1)
    for a, f in terms:
        c[: f.degree + 1] += float(a) * f.coeffs
    return ChebFn(c)


def chopped(f):
    """f with its coefficients past :func:`chop_length` set to zero, degree kept.

    The exact integral of the cut tail, ``integral_row(d)[n:] @ c[n:]``,
    is added onto c_0, so the mass of a density and the mean of a
    zero-mean function are kept.  The solvers of
    :mod:`~gaussrenyi.transfer` return their functions through this.
    """
    c = f.coeffs
    n = chop_length(c)
    if not np.any(c[n:]):
        return f
    kept = np.zeros_like(c)
    kept[:n] = c[:n]
    kept[0] += integral_row(f.degree)[n:] @ c[n:]
    return ChebFn(kept)


def norm_sup(f):
    """Sup norm estimated on the uniform grid :data:`SUP_GRID` of 2049 points."""
    return float(np.max(np.abs(f(SUP_GRID))))

