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
A fixed density is solved once per matrix, so :func:`invariant_density`
runs one ``np.linalg.solve``.  The k resolvent solves of an order-k
series share one matrix, so :func:`resolvent_solve` inverts the bordered
matrix once per :class:`OperatorMatrix`, keeps the read-only inverse on
the record (its size is in the record's docstring) and answers every
later solve with mat-vecs.  Both return their solution chopped at its
rounding plateau, with the mass or mean kept.  A fixed density's
negativity is decided on the grid ``SUP_GRID``; a bound on its Chebyshev
coefficients settles most densities without the full grid sum
(:func:`invariant_density` states the heads it sums and the eps each settles).
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field
from functools import lru_cache

import numpy as np
import numpy.polynomial.chebyshev as ncheb

# transfer.hurwitz_zeta stays importable, though not in __all__: bench/spans.py
# wraps it by getattr until that span is re-pointed at bounds.hurwitz_zeta
from .bounds import hurwitz_zeta, warn_if_inadmissible
from .funcspace import (
    DEFAULT_DEGREE,
    SUP_GRID,
    ChebFn,
    _clenshaw,
    chebyshev_nodes,
    chop_length,
    chopped,
    quadrature_weights,
    values_to_coeffs_matrix,
)
from .maps import MapKind, check_count, check_degree, check_kind, frozen_copy, warn

__all__ = [
    "DEFAULT_A_MAX", "ConvergenceError", "OperatorMatrix", "TailBoundWarning", "annealed",
    "apply_transfer", "assemble_operator", "invariant_density", "resolvent_solve",
    "tail_error_bound",
]

DEFAULT_A_MAX = 256  # branch cutoff of the Euler-Maclaurin tail: branches a <= a_max are summed
_RESIDUAL_LIMIT = 1e-12
_RESOLVENT_LIMIT = 1e-9
_NEGATIVE_LIMIT = -1e-10
_MEAN_LIMIT = 1e-10  # largest |mean| of a right-hand side on the zero-mean subspace
_HEAD = 8  # coefficients in the shortest head of the negativity certificate
_SUP_T = frozen_copy(2.0 * SUP_GRID - 1.0)  # SUP_GRID in the Chebyshev variable t = 2x - 1
_LAH_6 = frozen_copy([720.0, 1800.0, 1200.0, 300.0, 30.0, 1.0])  # Lah numbers L(6, i), i = 1..6


class TailBoundWarning(UserWarning):
    """Raised through the warning channel when a tail error bound is large."""


class ConvergenceError(RuntimeError):
    """A numerical iteration or solve failed to meet its contract."""


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Collocation matrix of a transfer operator acting on node values.

    The degree is read off the square entries; the keyword-only eps is the
    weight of an annealed mixture and None for a single map.  The first
    :func:`resolvent_solve` on a record stores the read-only inverse of
    its bordered matrix, (degree + 2)^2 floats (135 kB at degree 128,
    2.1 MB at 512); the memo takes no part in ``repr``.  Equality and
    hashing are by identity, as for every record that holds an array.
    """

    entries: np.ndarray
    _: KW_ONLY
    eps: float | None = None
    # inverse of [[I - M, 1], [q, 0]], set by the first resolvent solve
    _bordered_inv: np.ndarray | None = field(default=None, init=False, repr=False)

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


@lru_cache(maxsize=32)
def _markov_jets(n):
    """Read-only (7, n) array: row i holds d^i/dx^i T_k(2x - 1) at x = 1, k < n."""
    k = np.arange(n)
    jets = np.empty((7, n))
    jet = np.ones(n)
    for i in range(7):
        jets[i] = jet
        jet = 2.0 * jet * (k * k - i * i) / (2 * i + 1)
    return frozen_copy(jets)


@lru_cache(maxsize=16)
def _tail_weights(a_max):
    """Read-only rows L(6, i) A^-(5+i)/(5+i), 2i and i(i-1), i = 1..6, A = a_max + 1."""
    A = a_max + 1.0
    i = np.arange(1, 7)
    return (frozen_copy(_LAH_6 * A ** -(5.0 + i) / (5 + i)), frozen_copy(2 * i, dtype=int),
            frozen_copy(i * (i - 1), dtype=int))


def tail_error_bound(f, a_max=DEFAULT_A_MAX):
    """Euler-Maclaurin remainder bound of the tail beyond a_max for the resolved part of f.

    With two corrections the remainder over a >= A = a_max + 1 is at most
    (2|B_6|/6!) int_A^inf |g^(6)| (DLMF 2.10.1), g(a) = u^2 f(u) with
    u = 1/(a + y).  By the Lah numbers L(6, i) and Markov's majorants
    s_i = sum_k |c_k| T_k^(i)(1) >= sup|f^(i)| on [0, 1] this is at most
    sum_i L(6, i) A^-(5+i)/(5+i) (s_i/A^2 + 2i s_(i-1)/A + i(i-1) s_(i-2)) / 15120,
    with c_k the coefficients of f chopped at its standardChop plateau
    (:func:`chop_length`): rounding noise, which the majorants amplify like
    k^(2i), stays out.  For the Gauss density s_i = i!/ln 2 exactly.  The
    seven jet rows T_k^(i)(1) are cached per coefficient length as one
    read-only (7, degree + 1) array; the sums read their first terms.  The
    rows of i that depend on a_max alone are cached per a_max.
    a_max, at least 8 as in :func:`assemble_operator`, is checked before f is read.
    """
    check_count("a_max", a_max, 8)
    c = np.abs(f.coeffs[: chop_length(f.coeffs)])
    # s[0] = 0 stands for s_(-1), which only i(i-1) = 0 multiplies
    s = np.array([0.0] + [c @ jet for jet in _markov_jets(len(f.coeffs))[:, : len(c)]])
    A = a_max + 1.0
    weight, two_i, i_i1 = _tail_weights(a_max)
    moments = s[2:] / A**2 + two_i * s[1:-1] / A + i_i1 * s[:-2]
    return float(np.sum(weight * moments)) / 15120


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


def _warn_outside_unit(eps):
    """Warn at the caller's line when a mixture weight lies outside [0, 1]."""
    if not 0.0 <= eps <= 1.0:
        warn(f"mixture weight {eps!r} outside [0, 1]")


def annealed(eps, m0, m1):
    """Convex mixture (1 - eps) m0 + eps m1 of two operator matrices."""
    check_degree(m0, m1)
    _warn_outside_unit(eps)
    entries = np.multiply(m0.entries, 1.0 - eps)
    entries += eps * m1.entries
    return OperatorMatrix(entries, eps=float(eps))


def _bordered_matrix(m):
    """The bordered matrix [[I - M, 1], [q, 0]] for the quadrature row q."""
    n = m.degree + 1
    B = np.zeros((n + 1, n + 1))
    B[:n, :n] = np.eye(n) - m.entries
    B[:n, n] = 1.0
    B[n, :n] = quadrature_weights(m.degree)
    return B


def _bordered(linalg_op, m, *args):
    """``linalg_op`` of the bordered matrix of m; a singular one raises ConvergenceError."""
    try:
        return linalg_op(_bordered_matrix(m), *args)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"bordered system is singular: {exc}") from exc


def _fixed_residual(m, u, g):
    """Residual max|u - M u - g| of u in (I - M) u = g."""
    return float(np.max(np.abs(u - m.entries @ u - g)))


def _certified_positive(c):
    """True when h = sum_k c_k T_k(2x - 1) is positive on ``SUP_GRID``, by coefficients.

    |T_k| <= 1 on [0, 1], so h >= head - sum_(k >= m) |c_k| for its head
    c_0..c_(m-1).  The head length m is the shortest of 8, 16, 32, ...
    below the degree whose tail sum is at most |c_0| / 8, or 8 when none
    is, the cheapest try; only those m terms are summed on the grid.
    """
    a = np.abs(c)
    m = _HEAD
    while float(np.sum(a[m:])) > a[0] / 8:
        if 2 * m >= len(c) - 1:
            m = _HEAD
            break
        m *= 2
    return float(np.min(_clenshaw(c[m - 1 :: -1].tolist(), _SUP_T))) > float(np.sum(a[m:]))


def invariant_density(m):
    """Fixed density of an operator matrix, normalized to unit mass.

    Solves the bordered system with right-hand side [0; 1].  Once the
    solution meets the residual gate it is chopped
    (:func:`~gaussrenyi.funcspace.chopped`): its coefficients past the
    standardChop plateau are set to zero and their exact integral is
    added onto c_0, so the mass stays 1 to rounding.  The negativity
    screen judges, and the function returns, the chopped density.
    Raises ConvergenceError when the system is
    singular, when the fixed-point residual exceeds 1e-12 or when the
    density dips below -1e-10 on the sup-norm grid ``SUP_GRID``.
    Negativity is decided in two steps.  First a certificate: the head
    c_0..c_(m-1) is summed on the grid for the shortest m of 8, 16, 32, ...
    below the degree whose tail, the sum of |c_k| over k >= m, is at most
    |c_0| / 8, or for m = 8 when none is.  When the head's smallest value
    exceeds the tail, the density is positive on the grid and is returned
    without the full grid sum.  At degree 128 the head of 8 settles every
    eps up to 0.9, that of 16 up to 0.965, 32 up to 0.988 and 64 up to
    0.995; degree 512 settles every eps up to 0.995 too, and degree 32,
    whose longest head is 16, every eps up to 0.965.  Otherwise the
    density is evaluated on the grid, and a dip below -1e-10 is refused.
    Both steps accept and refuse the same densities, since the -1e-10
    margin covers all rounding in the grid sum.
    """
    if m.eps is not None:
        warn_if_inadmissible(m.eps)
    n = m.degree + 1
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    v = _bordered(np.linalg.solve, m, rhs)[:n]
    res = _fixed_residual(m, v, 0.0)
    if not res <= _RESIDUAL_LIMIT:  # also catches a NaN residual
        raise ConvergenceError(f"fixed-point residual {res:.3e} exceeds {_RESIDUAL_LIMIT:g}")
    h = chopped(ChebFn.from_values(v))
    if _certified_positive(h.coeffs):
        return h
    grid_min = float(np.min(h(SUP_GRID)))
    if grid_min < _NEGATIVE_LIMIT:
        raise ConvergenceError(f"density dips to {grid_min:.3e} on the grid")
    return h


def resolvent_solve(m, g):
    """Solve (I - m) u = g on the zero-mean subspace.

    Solves the bordered system with right-hand side [g; 0]; for
    zero-mean g it returns the unique solution with zero mean.  The
    first solve on a record inverts the bordered matrix and stores the
    read-only inverse on it, (degree + 2)^2 floats.  Every solve then
    applies the inverse twice, the second time in one refinement step,
    and meets the 1e-9 residual gate.  The solution is then returned
    chopped (:func:`~gaussrenyi.funcspace.chopped`): its coefficients
    past the standardChop plateau are set to zero and their exact
    integral is added onto c_0, so the mean stays 0 to rounding.  Raises
    ConvergenceError when the system is singular or the residual fails.
    Preconditions: |integral of g| at most 1e-10.
    """
    check_degree(m, g)
    mean = g.integrate()
    if abs(mean) > _MEAN_LIMIT:
        raise ValueError(f"right-hand side must have zero mean, got {mean:.3e}")
    inv = m._bordered_inv
    if inv is None:
        inv = frozen_copy(_bordered(np.linalg.inv, m))
        object.__setattr__(m, "_bordered_inv", inv)
    n = m.degree + 1
    rhs = np.append(g.values, 0.0)
    x = inv @ rhs
    # one refinement step on the bordered residual keeps q . u = 0 as close as
    # a direct solve does; the inverse alone leaves |q . u| near 1e-15
    u, c = x[:n], x[n]
    r = rhs - np.append(u - m.entries @ u + c, quadrature_weights(m.degree) @ u)
    u = (x + inv @ r)[:n]
    res = _fixed_residual(m, u, g.values)
    if not res <= _RESOLVENT_LIMIT:  # also catches a NaN residual
        raise ConvergenceError(f"resolvent residual {res:.3e} exceeds {_RESOLVENT_LIMIT:g}")
    return chopped(ChebFn.from_values(u))
