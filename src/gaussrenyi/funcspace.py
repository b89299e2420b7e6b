"""Smooth functions on [0, 1] in a Chebyshev collocation basis.

A :class:`ChebFn` stores the coefficients of a polynomial interpolant
through the Chebyshev-Lobatto points mapped to [0, 1].  For analytic
functions the representation converges geometrically in the degree; at
the default degree 128 the largest of the last 8 coefficients of the fixed
density h_eps is 7e-14 at eps 0.9, 1.1e-10 at 0.95 and 7.8e-6 at 0.99.
Evaluation uses the Clenshaw recurrence, integration and
differentiation act exactly on the coefficient space.  Evaluation and
:meth:`ChebFn.integrate_on` run the recurrence with the coefficients as
Python floats, in numpy's order of operations, so they give numpy's
``chebval`` bits; a scalar argument costs only its arithmetic.  Each
function keeps its coefficient list once, stored highest degree first,
and the recurrence walks it front to back: numpy's loop reads
``c[-i]`` for i = 3, 4, ..., which is the same sequence, so the walk
does the same operations in the same order without indexing.  The
antiderivative behind ``integrate_on`` is numpy's ``chebint``, built
once per function and cached, like the node values.

All objects are immutable values; every operation returns a new
function.  This makes concurrent read access safe without locking.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import numpy.polynomial.chebyshev as ncheb

from .maps import check_unit

DEFAULT_DEGREE = 128

# uniform grid used for sup-norm estimates (diagnostics only)
SUP_NORM_GRID = 2049


def chebyshev_nodes(degree):
    """Ascending Chebyshev-Lobatto points on [0, 1], endpoints included."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
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
        out = np.array([[1.0]])
    else:
        k = np.arange(n + 1)
        i = np.arange(n + 1)
        p = np.ones(n + 1)
        p[0] = p[-1] = 2.0
        S = (2.0 / (np.outer(p, p) * n)) * np.cos(np.outer(k, i) * np.pi / n)
        # our nodes ascend in x, the classical ones descend in cos(theta)
        out = S[:, ::-1].copy()
    out.setflags(write=False)
    return out


@lru_cache(maxsize=32)
def coeffs_to_values_matrix(degree):
    """Chebyshev Vandermonde matrix at the collocation nodes."""
    out = ncheb.chebvander(2.0 * chebyshev_nodes(degree) - 1.0, degree)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=32)
def integral_row(degree):
    """Row functional c -> integral over [0, 1] of sum_k c_k T_k(2x-1)."""
    k = np.arange(degree + 1)
    row = np.zeros(degree + 1)
    even = k % 2 == 0
    row[even] = 1.0 / (1.0 - k[even] ** 2)
    row.setflags(write=False)
    return row


@lru_cache(maxsize=32)
def quadrature_weights(degree):
    """Clenshaw-Curtis weights: q @ values == integral, exact on the basis."""
    out = integral_row(degree) @ values_to_coeffs_matrix(degree)
    out.setflags(write=False)
    return out


def _clenshaw(r, x):
    """numpy's ``chebval`` loop on the reversed coefficients: the same bits.

    ``r`` holds the coefficients highest degree first, as Python floats.
    numpy starts from ``c[-2], c[-1]`` and reads ``c[-i]`` for
    i = 3 .. len(c); walking ``r`` front to back yields exactly that
    sequence, so the loop body and the order of its operations are
    numpy's.  ``x`` is a float or an array; on a float the loop runs at
    the cost of its arithmetic, on an array it does numpy's elementwise
    operations.  This is the package's one hand-written copy of numpy's
    Chebyshev calculus: a 1000-digit law runs about 8000 scalar sums,
    and ``chebval``, looping on numpy scalars, costs about five times as
    much per sum at degree 128.
    """
    if len(r) == 1:
        return r[0] + 0 * x
    rest = iter(r)
    c1, c0 = next(rest), next(rest)
    x2 = 2 * x
    for ck in rest:
        c0, c1 = ck - c1, c0 + c1 * x2
    return c0 + c1 * x


def chop_length(coeffs):
    """Length of ``coeffs`` kept by standardChop at tolerance 2^-52.

    Aurentz & Trefethen, *Chopping a Chebyshev series*, ACM TOMS 43(4),
    2017: the envelope of |c_k| is scanned for a plateau, and the
    series is cut where the envelope plus a small linear bias is
    smallest.  Without a plateau the full length is returned.
    """
    tol = 2.0**-52
    n = len(coeffs)
    if n < 17:
        return n
    env = np.maximum.accumulate(np.abs(np.asarray(coeffs, dtype=float))[::-1])[::-1]
    if env[0] == 0.0:
        return 1
    env = env / env[0]
    for j in range(2, n + 1):  # 1-based, as in the paper
        j2 = math.floor(1.25 * j + 5.5)
        if j2 > n:
            return n
        e1, e2 = env[j - 1], env[j2 - 1]
        if e1 == 0.0 or e2 / e1 > 3.0 * (1.0 - math.log(e1) / math.log(tol)):
            plateau = j - 1
            break
    if env[plateau - 1] == 0.0:
        return plateau
    j3 = int(np.sum(env >= tol ** (7.0 / 6.0)))
    if j3 < j2:
        j2 = j3 + 1
        env[j2 - 1] = tol ** (7.0 / 6.0)
    cc = np.log10(env[:j2]) + np.linspace(0.0, -np.log10(tol) / 3.0, j2)
    return max(int(np.argmin(cc)), 1)


class ChebFn:
    """Polynomial interpolant on [0, 1] in the Chebyshev basis T_k(2x - 1)."""

    __slots__ = ("_coeffs", "_rlist", "_values", "_anti")

    def __init__(self, coeffs):
        c = np.array(coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficient array must be one-dimensional and non-empty")
        if not np.all(np.isfinite(c)):
            raise ValueError("non-finite coefficient")
        c.setflags(write=False)
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
            v = coeffs_to_values_matrix(self.degree) @ self._coeffs
            v.setflags(write=False)
            self._values = v
        return self._values

    def __call__(self, x):
        if self._rlist is None:
            # the Clenshaw sum walks the floats highest degree first
            self._rlist = self._coeffs[::-1].tolist()
        if np.isscalar(x) or np.ndim(x) == 0:
            x = float(x)
            check_unit("argument", x)
            return _clenshaw(self._rlist, 2.0 * x - 1.0)
        arr = np.asarray(x, dtype=float)
        if not np.all((arr >= 0.0) & (arr <= 1.0)):
            raise ValueError(f"argument outside [0, 1]: {x!r}")
        return _clenshaw(self._rlist, 2.0 * arr - 1.0)

    def integrate(self):
        """Integral over [0, 1], exact on the polynomial space."""
        return float(integral_row(self.degree) @ self._coeffs)

    def integrate_on(self, lo, hi):
        """Integral over [lo, hi] via the coefficient antiderivative (cached)."""
        if not (0.0 <= lo <= hi <= 1.0):
            raise ValueError(f"invalid integration bounds [{lo!r}, {hi!r}]")
        if self._anti is None:
            self._anti = ncheb.chebint(self._coeffs, scl=0.5)[::-1].tolist()
        anti = self._anti
        return float(_clenshaw(anti, 2.0 * hi - 1.0) - _clenshaw(anti, 2.0 * lo - 1.0))

    def derivative(self):
        """d/dx as a new ChebFn of degree max(degree - 1, 0)."""
        if self.degree == 0:
            return ChebFn([0.0])
        return ChebFn(2.0 * ncheb.chebder(self._coeffs))

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


def norm_sup(f):
    """Sup norm estimated on a uniform grid of SUP_NORM_GRID points."""
    return float(np.max(np.abs(f(np.linspace(0.0, 1.0, SUP_NORM_GRID)))))


def norm_cl(f, l):
    """C^l norm: sum of sup norms of derivatives of order 0..l."""
    if l < 0:
        raise ValueError("derivative order must be non-negative")
    if l > f.degree:
        raise ValueError(f"order {l} exceeds representation degree {f.degree}")
    total = 0.0
    g = f
    for _ in range(l + 1):
        total += norm_sup(g)
        g = g.derivative()
    return total
