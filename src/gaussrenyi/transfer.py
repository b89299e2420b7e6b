"""Transfer operators of the Gauss and Renyi maps and their mixtures.

The transfer operator of an interval map with inverse branches V_a acts
on densities by

    (L f)(y) = sum_a |V_a'(y)| f(V_a(y)),

here with branches V_a(y) = 1/(a+y) (Gauss) or 1 - 1/(a+y) (Renyi) and
weight 1/(a+y)^2 in both cases.  The Renyi map is the Gauss map after
the reflection R(x) = 1 - x, so its operator is L1 f = L0 (f o R).  The
countable Gauss branch sum is split into an explicit part a <= a_max and
a tail resummed through a Taylor expansion of f at the branch
accumulation point x = 0; the tail coefficient sums collapse to Hurwitz
zeta values zeta(s, a_max + 1 + y).

Discretization collocates the operator on the Chebyshev-Lobatto nodes,
giving a dense matrix acting on node values, built once per degree and
tail policy.  The nodes are symmetric about 1/2, so the Renyi matrix is
the Gauss matrix with its columns reversed.  :func:`apply_transfer`
applies the matrix and :func:`assemble_operator` returns it.  A rank-one
correction in the constant direction restores exact mass conservation
(q @ M == q for the quadrature weights q), which the Taylor tail alone
cannot provide uniformly over the polynomial space.  It moves the image
of f by |(q - q @ M) . f| (M before the fix), which the tail error bound
does not bound: max|q - q @ M| is 4.58 at the default policy (256, 3)
and 1.5e-2 at (64, 0); on the Gauss density at degree 128 the move is
1e-13.  The row q is symmetric too, so the reversed columns keep the fix.

The annealed operator of the random system choosing Gauss with
probability 1 - eps and Renyi with probability eps is the convex
mixture (1 - eps) L0 + eps L1.  Its unit-mass fixed density and the
resolvent (I - L)^(-1) on zero-mean functions both solve the bordered
system [[I - M, 1], [q, 0]], for right-hand sides [0; 1] and [g; 0].
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bounds import hurwitz_zeta, warn_if_inadmissible
from .funcspace import (
    DEFAULT_DEGREE,
    SUP_NORM_GRID,
    ChebFn,
    chebyshev_nodes,
    chop_length,
    norm_sup,
    quadrature_weights,
    values_to_coeffs_matrix,
)
from .maps import MapKind, check_kind

_RESIDUAL_LIMIT = 1e-12
_NEGATIVE_LIMIT = -1e-10


class TailBoundWarning(UserWarning):
    """Raised through the warning channel when a tail error bound is large."""


class ConvergenceError(RuntimeError):
    """A numerical iteration or solve failed to meet its contract."""


@dataclass(frozen=True)
class TailPolicy:
    """Branch cutoff and Taylor order of the tail resummation."""

    a_max: int = 256
    taylor_order: int = 3

    def __post_init__(self):
        if self.a_max < 8:
            raise ValueError(f"a_max must be at least 8: {self.a_max!r}")
        if not 0 <= self.taylor_order <= 4:
            raise ValueError(f"taylor_order must be in 0..4: {self.taylor_order!r}")


@dataclass(frozen=True)
class OperatorMatrix:
    """Collocation matrix of a transfer operator acting on node values."""

    entries: np.ndarray
    degree: int
    eps: float | None = None

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        n = self.degree + 1
        if e.shape != (n, n):
            raise ValueError(f"entries must be {n} x {n}, got {e.shape}")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)


@lru_cache(maxsize=16)
def _collocation_matrix(kind, degree, a_max, taylor_order):
    """Read-only collocation matrix: explicit branches a <= a_max, tail, mass fix.

    Only the Gauss matrix is built, column by column in O(a_max * degree)
    memory, with its tail resummed from exact jets at x = 0.  The Renyi
    map is T1 = T0 o R for the reflection R(x) = 1 - x, so L1 f = L0 (f o R);
    the nodes are symmetric (x_(n-j) = 1 - x_j), so the Renyi matrix is the
    Gauss matrix with its columns reversed, a read-only contiguous copy.
    """
    if kind is MapKind.RENYI:
        gauss = _collocation_matrix(MapKind.GAUSS, degree, a_max, taylor_order)
        M = np.ascontiguousarray(gauss[:, ::-1])
        M.setflags(write=False)
        return M
    y = chebyshev_nodes(degree)
    a = np.arange(1, a_max + 1, dtype=float)[:, None]
    w = 1.0 / (a + y[None, :]) ** 2
    pts = 1.0 / (a + y[None, :])
    n = degree + 1
    t = 2.0 * pts - 1.0
    two_t = 2.0 * t
    B = np.empty((n, n))  # coefficient space: column k is sum_a w_a T_k(t_a)
    T_prev, T = t, np.ones_like(t)  # T_{-1} = T_1, so T_1 = 2t - t
    for k in range(n):
        B[:, k] = (w * T).sum(0)
        T_prev, T = T, T * two_t - T_prev
    # tail: Taylor jets of f at x = 0, t = -1;
    # d^j/dx^j T_k(2x - 1) at x = 0 is (-1)^(k+j) 2^j prod_{i<j} (k^2 - i^2)/(2i + 1)
    k = np.arange(n)
    jet = (-1.0) ** k
    C = values_to_coeffs_matrix(degree)
    tail = np.zeros((n, n))
    for j in range(taylor_order + 1):
        zeta = 1.0 / math.factorial(j) * hurwitz_zeta(j + 2, a_max + 1.0 + y)
        tail += np.outer(zeta, jet @ C)
        jet = -2.0 * jet * (k * k - j * j) / (2 * j + 1)
    # the tail stays in node space: folded into B before @ C it loses accuracy
    M = B @ C + tail
    # rank-one mass restoration (q @ M == q); it moves f by |(q - q @ M) . f|
    q = quadrature_weights(degree)
    M += q - q @ M
    M.setflags(write=False)
    return M


def tail_error_bound(f, policy=TailPolicy()):
    """Tail-model error bound for the resolved part g of f: zeta(m+3, a_max+1) sup|g^(m+1)| / (m+1)!.

    g is f chopped at its standardChop plateau (:func:`chop_length`), so
    the rounding noise in the top coefficients, which differentiation
    amplifies like k^(2m+2), does not enter the bound.  The bound excludes
    that rounding-level content and what the assembled tail does with it:
    the tail reads f's endpoint jet from all coefficients, with weights
    growing like k^(2m).  For the interpolant of the exact Gauss density
    at degree 256 the bound reads 2.6e-13, while the operator moves it by
    |M h0 - h0| = 5.7e-12 before the mass fix.
    """
    m = policy.taylor_order
    g = ChebFn(f.coeffs[: chop_length(f.coeffs)])
    fact = 1.0
    for t in range(1, m + 2):
        g = g.derivative()
        fact *= t
    return hurwitz_zeta(m + 3, policy.a_max + 1.0) * norm_sup(g) / fact


def apply_transfer(kind, f, policy=TailPolicy()):
    """Apply the transfer operator of one map to a ChebFn.

    Parameters
    ----------
    kind : MapKind
        Which map's operator to apply.
    f : ChebFn
        Input density (any smooth function works; mass is conserved).
    policy : TailPolicy
        Branch cutoff and Taylor order of the tail resummation.

    Returns
    -------
    ChebFn interpolating the image at the collocation nodes, the cached
    collocation matrix applied to the node values of f.  The tail
    error bound of the chopped f (:func:`tail_error_bound`) is checked
    and a TailBoundWarning is emitted when it exceeds 1e-8.
    """
    check_kind(kind)
    M = _collocation_matrix(kind, f.degree, policy.a_max, policy.taylor_order)
    bound = tail_error_bound(f, policy)
    if bound > 1e-8:
        warnings.warn(
            f"tail error bound {bound:.3e} exceeds 1e-8; "
            f"increase a_max or taylor_order",
            TailBoundWarning,
            stacklevel=2,
        )
    return ChebFn.from_values(M @ f.values)


def assemble_operator(kind, degree=DEFAULT_DEGREE, policy=TailPolicy()):
    """Collocation matrix of the transfer operator at the given degree.

    Column j holds the node values of the operator applied to the j-th
    nodal cardinal function: the explicit branches, the tail block and
    the rank-one mass fix.  This is the matrix :func:`apply_transfer`
    applies.
    """
    check_kind(kind)
    if degree < 8:
        raise ValueError(f"degree must be at least 8: {degree!r}")
    M = _collocation_matrix(kind, degree, policy.a_max, policy.taylor_order)
    return OperatorMatrix(M, degree)


def annealed(eps, m0, m1):
    """Convex mixture (1 - eps) m0 + eps m1 of two operator matrices."""
    if m0.degree != m1.degree:
        raise ValueError(f"degree mismatch: {m0.degree} vs {m1.degree}")
    if not 0.0 <= eps <= 1.0:
        warnings.warn(f"mixture weight {eps!r} outside [0, 1]", stacklevel=2)
    entries = (1.0 - eps) * m0.entries + eps * m1.entries
    return OperatorMatrix(entries, m0.degree, eps=float(eps))


def _bordered_solve(m, rhs):
    """Solve [[I - M, 1], [q, 0]] [u; c] = rhs for the quadrature row q; returns u."""
    n = m.degree + 1
    B = np.zeros((n + 1, n + 1))
    B[:n, :n] = np.eye(n) - m.entries
    B[:n, n] = 1.0
    B[n, :n] = quadrature_weights(m.degree)
    try:
        return np.linalg.solve(B, rhs)[:n]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"bordered system is singular: {exc}") from exc


def invariant_density(m):
    """Fixed density of an operator matrix, normalized to unit mass.

    Solves the bordered system with right-hand side [0; 1].  Raises
    ConvergenceError when the system is singular, when the fixed-point
    residual exceeds 1e-12 or when the density dips below -1e-10 on a
    uniform grid; node values in [-1e-10, 0) are clamped to zero with
    a warning.
    """
    if m.eps is not None:
        warn_if_inadmissible(m.eps)
    rhs = np.zeros(m.degree + 2)
    rhs[-1] = 1.0
    v = _bordered_solve(m, rhs)
    res = float(np.max(np.abs(m.entries @ v - v)))
    if res > _RESIDUAL_LIMIT:
        raise ConvergenceError(f"fixed-point residual {res:.3e} exceeds 1e-12")
    small_negative = (v < 0.0) & (v >= _NEGATIVE_LIMIT)
    if np.any(small_negative):
        warnings.warn(
            f"clamped {int(np.sum(small_negative))} node values in "
            f"[{_NEGATIVE_LIMIT:g}, 0) to zero (max magnitude "
            f"{float(-v[small_negative].min()):.3e})",
            stacklevel=2,
        )
        v = np.where(small_negative, 0.0, v)
    h = ChebFn.from_values(v)
    grid_min = float(np.min(h(np.linspace(0.0, 1.0, SUP_NORM_GRID))))
    if grid_min < _NEGATIVE_LIMIT:
        raise ConvergenceError(f"density dips to {grid_min:.3e} on the grid")
    return h


def resolvent_solve(m, g):
    """Solve (I - m) u = g on the zero-mean subspace.

    Solves the bordered system with right-hand side [g; 0]; for
    zero-mean g it returns the unique solution with zero mean.
    Preconditions: |integral of g| below 1e-10.
    """
    mean = g.integrate()
    if abs(mean) > 1e-10:
        raise ValueError(f"right-hand side must have zero mean, got {mean:.3e}")
    u = _bordered_solve(m, np.append(g.values, 0.0))
    res = float(np.max(np.abs(u - m.entries @ u - g.values)))
    if res > 1e-9:
        raise ConvergenceError(f"resolvent residual {res:.3e} exceeds 1e-9")
    return ChebFn.from_values(u)
