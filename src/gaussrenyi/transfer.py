"""Transfer operators of the Gauss and Renyi maps and their mixtures.

The transfer operator of an interval map with inverse branches V_a acts
on densities by

    (L f)(y) = sum_a |V_a'(y)| f(V_a(y)),

here with branches V_a(y) = 1/(a+y) (Gauss) or 1 - 1/(a+y) (Renyi) and
weight 1/(a+y)^2 in both cases.  The Renyi map is the Gauss map after
the reflection R(x) = 1 - x, so its operator is L1 f = L0 (f o R).  The
countable Gauss branch sum is split into an explicit part a <= a_max and
a tail a > a_max summed by Euler-Maclaurin (DLMF 2.10.1), which reads f
and its first three derivatives at the interior points 1/(a_max + 1 + y).

Discretization collocates the operator on the Chebyshev-Lobatto nodes,
giving a dense matrix acting on node values.  One Gauss matrix is built
and cached per degree and a_max.  The nodes are symmetric about 1/2, so
the Renyi matrix is the Gauss matrix with its columns reversed, and
:func:`assemble_operator` is the one place that reflects it.
:func:`apply_transfer` applies the matrix that it returns.  A rank-one
correction in the constant direction restores exact mass conservation
(q @ M == q for the quadrature weights q), which the tail alone cannot
provide uniformly over the polynomial space.  It moves the image of f by
|(q - q @ M) . f| (M before the fix), which the tail error bound does not
bound: at a_max 256, max|q - q @ M| is 3.8e-6, 3.6e-8, 3.5e-9 and 3.5e-10
at degrees 32, 128, 256 and 512, and the move on the Gauss density is at
most 1.1e-16.  The row q is symmetric, so the reversed columns keep the fix.

The annealed operator of the random system choosing Gauss with
probability 1 - eps and Renyi with probability eps is the convex
mixture (1 - eps) L0 + eps L1.  Its unit-mass fixed density and the
resolvent (I - L)^(-1) on zero-mean functions both solve the bordered
system [[I - M, 1], [q, 0]], for right-hand sides [0; 1] and [g; 0].
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from functools import lru_cache

import numpy as np
import numpy.polynomial.chebyshev as ncheb

# transfer.hurwitz_zeta stays importable: bench/spans.py wraps it by getattr, so
# spans.install needs it until that span is re-pointed at bounds.hurwitz_zeta
from .bounds import hurwitz_zeta, warn_if_inadmissible
from .funcspace import (
    DEFAULT_DEGREE,
    SUP_GRID,
    ChebFn,
    chebyshev_nodes,
    chop_length,
    quadrature_weights,
    values_to_coeffs_matrix,
)
from .maps import MapKind, check_count, check_degree, check_kind, frozen_copy, warn

DEFAULT_A_MAX = 256  # branch cutoff of the Euler-Maclaurin tail: branches a <= a_max are summed
_RESIDUAL_LIMIT = 1e-12
_RESOLVENT_LIMIT = 1e-9
_NEGATIVE_LIMIT = -1e-10
_MEAN_LIMIT = 1e-10  # largest |mean| of a right-hand side on the zero-mean subspace
_LAH_6 = frozen_copy([720.0, 1800.0, 1200.0, 300.0, 30.0, 1.0])  # Lah numbers L(6, i), i = 1..6


class TailBoundWarning(UserWarning):
    """Raised through the warning channel when a tail error bound is large."""


class ConvergenceError(RuntimeError):
    """A numerical iteration or solve failed to meet its contract."""


@dataclass(frozen=True)
class OperatorMatrix:
    """Collocation matrix of a transfer operator acting on node values.

    The degree is read off the square entries; the keyword-only eps is the
    weight of an annealed mixture and None for a single map.
    """

    entries: np.ndarray
    _: KW_ONLY
    eps: float | None = None

    def __post_init__(self):
        e = frozen_copy(self.entries)
        if e.ndim != 2 or e.shape[0] != e.shape[1] or e.size == 0:
            raise ValueError(f"entries must be a non-empty square matrix, got {e.shape}")
        object.__setattr__(self, "entries", e)

    @property
    def degree(self):
        return self.entries.shape[0] - 1


@lru_cache(maxsize=16)
def _collocation_matrix(degree, a_max):
    """Read-only Gauss collocation matrix: explicit branches a <= a_max, tail, mass fix.

    Built column by column in O(a_max * degree) memory, with its tail
    summed by Euler-Maclaurin.
    """
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
    # tail a >= A = a_max + 1 by Euler-Maclaurin on g(a) = u^2 f(u), u = 1/(a + y):
    # int_0^u f + g/2 - B_2/2! g' - B_4/4! g''' at a = A, in f^(j)(u), s = 2u - 1
    u = (1.0 / (a_max + 1.0 + y))[:, None]
    V = ncheb.chebvander(2.0 * u[:, 0] - 1.0, n)
    D = np.eye(n)
    B += V @ ncheb.chebint(D, lbnd=-1, scl=0.5)
    for j, weight in enumerate((u**2 / 2 + u**3 / 6 - u**5 / 30, u**4 / 12 - u**6 / 20,
                                -(u**7) / 60, -(u**8) / 720)):
        if j:  # D holds the j-th derivative of the identity block
            D = ncheb.chebder(D, scl=2.0)
        B += weight * (V[:, : len(D)] @ D)
    M = B @ values_to_coeffs_matrix(degree)
    # rank-one mass restoration (q @ M == q); it moves f by |(q - q @ M) . f|
    q = quadrature_weights(degree)
    M += q - q @ M
    return frozen_copy(M)


def tail_error_bound(f, a_max=DEFAULT_A_MAX):
    """Euler-Maclaurin remainder bound of the tail beyond a_max for the resolved part of f.

    With two corrections the remainder over a >= A = a_max + 1 is at most
    (2|B_6|/6!) int_A^inf |g^(6)| (DLMF 2.10.1), g(a) = u^2 f(u) with
    u = 1/(a + y).  By the Lah numbers L(6, i) and Markov's majorants
    s_i = sum_k |c_k| T_k^(i)(1) >= sup|f^(i)| on [0, 1] this is at most
    sum_i L(6, i) A^-(5+i)/(5+i) (s_i/A^2 + 2i s_(i-1)/A + i(i-1) s_(i-2)) / 15120,
    with c_k the coefficients of f chopped at its standardChop plateau
    (:func:`chop_length`): rounding noise, which the majorants amplify like
    k^(2i), stays out.  For the Gauss density s_i = i!/ln 2 exactly.
    a_max, at least 8 as in :func:`assemble_operator`, is checked before f is read.
    """
    check_count("a_max", a_max, 8)
    c = np.abs(f.coeffs[: chop_length(f.coeffs)])
    k = np.arange(len(c))
    jet = np.ones(len(c))  # d^i/dx^i T_k(2x - 1) at x = 1
    s = np.empty(7)
    for i in range(7):
        s[i] = c @ jet
        jet = 2.0 * jet * (k * k - i * i) / (2 * i + 1)
    A = a_max + 1.0
    i = np.arange(1, 7)
    moments = s[1:] / A**2 + 2 * i * s[:-1] / A + i * (i - 1) * np.append(0.0, s[:-2])
    return float(np.sum(_LAH_6 * A ** -(5.0 + i) / (5 + i) * moments)) / 15120


def apply_transfer(kind, f, a_max=DEFAULT_A_MAX):
    """Apply the transfer operator of one map to a ChebFn.

    Parameters
    ----------
    kind : MapKind
        Which map's operator to apply.
    f : ChebFn
        Input density (any smooth function works; mass is conserved).
    a_max : int
        Branch cutoff of the Euler-Maclaurin tail, at least 8: branches
        a <= a_max are summed explicitly, the rest by the tail.

    Returns
    -------
    ChebFn interpolating the image at the collocation nodes, the matrix of
    :func:`assemble_operator` applied to the node values of f.  The tail's
    Euler-Maclaurin remainder bound (:func:`tail_error_bound`) is checked
    and a TailBoundWarning is emitted when it exceeds 1e-8.  Raises
    ValueError when f.degree or a_max is below 8, as :func:`assemble_operator` does.
    """
    M = assemble_operator(kind, f.degree, a_max).entries
    bound = tail_error_bound(f, a_max)
    if bound > 1e-8:
        warn(f"tail error bound {bound:.3e} exceeds 1e-8; increase a_max", TailBoundWarning)
    return ChebFn.from_values(M @ f.values)


def assemble_operator(kind, degree=DEFAULT_DEGREE, a_max=DEFAULT_A_MAX):
    """Collocation matrix of the transfer operator at the given degree.

    Column j holds the node values of the operator applied to the j-th
    nodal cardinal function: the explicit branches, the Euler-Maclaurin
    tail and the rank-one mass fix, the matrix :func:`apply_transfer` applies.
    The Renyi map is T1 = T0 o R for the reflection R(x) = 1 - x, so
    L1 f = L0 (f o R); the nodes are symmetric (x_(n-j) = 1 - x_j), so the
    Renyi matrix is the cached Gauss matrix with its columns reversed.
    """
    check_kind(kind)
    check_count("degree", degree, 8)
    check_count("a_max", a_max, 8)
    M = _collocation_matrix(degree, a_max)
    return OperatorMatrix(M[:, ::-1] if kind is MapKind.RENYI else M)


def annealed(eps, m0, m1):
    """Convex mixture (1 - eps) m0 + eps m1 of two operator matrices."""
    check_degree(m0, m1)
    if not 0.0 <= eps <= 1.0:
        warn(f"mixture weight {eps!r} outside [0, 1]")
    entries = (1.0 - eps) * m0.entries + eps * m1.entries
    return OperatorMatrix(entries, eps=float(eps))


def _bordered_solve(m, rhs):
    """Solve [[I - M, 1], [q, 0]] [u; c] = rhs for the quadrature row q.

    Returns u and its residual max|u - M u - rhs[:n]| in (I - M) u = rhs[:n].
    """
    n = m.degree + 1
    B = np.zeros((n + 1, n + 1))
    B[:n, :n] = np.eye(n) - m.entries
    B[:n, n] = 1.0
    B[n, :n] = quadrature_weights(m.degree)
    try:
        u = np.linalg.solve(B, rhs)[:n]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"bordered system is singular: {exc}") from exc
    return u, float(np.max(np.abs(u - m.entries @ u - rhs[:n])))


def invariant_density(m):
    """Fixed density of an operator matrix, normalized to unit mass.

    Solves the bordered system with right-hand side [0; 1] and returns
    its solution unaltered.  Raises ConvergenceError when the system is
    singular, when the fixed-point residual exceeds 1e-12 or when the
    density dips below -1e-10 on the sup-norm grid ``SUP_GRID``, the one
    negativity check.
    """
    if m.eps is not None:
        warn_if_inadmissible(m.eps)
    rhs = np.zeros(m.degree + 2)
    rhs[-1] = 1.0
    v, res = _bordered_solve(m, rhs)
    if not res <= _RESIDUAL_LIMIT:  # also catches a NaN residual
        raise ConvergenceError(f"fixed-point residual {res:.3e} exceeds {_RESIDUAL_LIMIT:g}")
    h = ChebFn.from_values(v)
    grid_min = float(np.min(h(SUP_GRID)))
    if grid_min < _NEGATIVE_LIMIT:
        raise ConvergenceError(f"density dips to {grid_min:.3e} on the grid")
    return h


def resolvent_solve(m, g):
    """Solve (I - m) u = g on the zero-mean subspace.

    Solves the bordered system with right-hand side [g; 0]; for
    zero-mean g it returns the unique solution with zero mean.
    Preconditions: |integral of g| at most 1e-10.
    """
    check_degree(m, g)
    mean = g.integrate()
    if abs(mean) > _MEAN_LIMIT:
        raise ValueError(f"right-hand side must have zero mean, got {mean:.3e}")
    u, res = _bordered_solve(m, np.append(g.values, 0.0))
    if not res <= _RESOLVENT_LIMIT:  # also catches a NaN residual
        raise ConvergenceError(f"resolvent residual {res:.3e} exceeds {_RESOLVENT_LIMIT:g}")
    return ChebFn.from_values(u)
