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
Its remainder bound :func:`tail_error_bound` is linear in |c|, one dot
product with a read-only row cached per coefficient length and a_max.

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
resolvent (I - L)^(-1) on zero-mean functions both solve one n x n
matrix, the deflated matrix A = I - M + 1q of Kemeny and Snell's
fundamental matrix (*Finite Markov Chains*, 1960): q A = q, since
q @ M == q and q . 1 = 1, so A h = 1 gives q . h = 1 and M h = h, and
A u = g with q . g = 0 gives q . u = 0 and u - M u = g.  A fixed density
is solved once per matrix, so :func:`invariant_density` runs one
``np.linalg.solve``.  The k resolvent solves of an order-k series share
one matrix, so :func:`resolvent_solve` inverts A once per
:class:`OperatorMatrix`, as the record's cached property (its size is in
the record's docstring), and answers every later solve with mat-vecs.
Both pass one residual gate, max|u - M u - g| at most
1e-12 max(1, max|u|), and return their solution chopped at its rounding
plateau, with the mass or mean kept.  A fixed density's negativity is
decided on the grid ``SUP_GRID``, through :class:`ChebFn` evaluation; a bound
on its Chebyshev coefficients settles most densities without the full grid
sum (:func:`invariant_density` states the heads it sums and the eps each settles).
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass
from functools import cached_property, lru_cache

import numpy as np
import numpy.polynomial.chebyshev as ncheb

# transfer.hurwitz_zeta stays importable, though not in __all__: bench/spans.py
# wraps it by getattr until that span is re-pointed at bounds.hurwitz_zeta
from .bounds import hurwitz_zeta, warn_if_inadmissible
from .funcspace import (
    DEFAULT_DEGREE,
    SUP_GRID,
    ChebFn,
    chebyshev_nodes,
    chop_length,
    chopped,
    quadrature_weights,
    values_to_coeffs_matrix,
)
from .maps import (
    MapKind, Record, check_count, check_degree, check_kind, check_unit, frozen_copy, warn,
)

__all__ = [
    "DEFAULT_A_MAX", "ConvergenceError", "OperatorMatrix", "TailBoundWarning", "annealed",
    "apply_transfer", "assemble_operator", "invariant_density", "resolvent_solve",
    "tail_error_bound",
]

DEFAULT_A_MAX = 256  # branch cutoff of the Euler-Maclaurin tail: branches a <= a_max are summed
_RESIDUAL_LIMIT = 1e-12  # largest residual of a solve, relative to max(1, max|u|)
_NEGATIVE_LIMIT = -1e-10
_MEAN_LIMIT = 1e-10  # largest |mean| of a right-hand side on the zero-mean subspace
_HEAD = 8  # coefficients in the shortest head of the negativity certificate
_BLOCK = 2**14  # elements of one (a_max, width) array of the branch sum


class TailBoundWarning(UserWarning):
    """Raised through the warning channel when a tail error bound is large."""


class ConvergenceError(RuntimeError):
    """A linear solve failed to meet its contract."""


@dataclass(frozen=True, eq=False)
class OperatorMatrix(Record):
    """Collocation matrix of a transfer operator acting on node values.

    The degree is read off the square entries; the keyword-only eps is the
    weight of an annealed mixture and None for a single map.  The cached
    property ``_deflated_inv``, the read-only inverse of the deflated matrix
    I - M + 1q that the first :func:`resolvent_solve` computes, is
    (degree + 1)^2 floats (133 kB at degree 128, 2.1 MB at 512) and no
    field, so not in ``repr``.
    Equality and hashing are by identity, as for every record that holds an array.
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

    @cached_property
    def _deflated_inv(self):
        """Read-only inverse of I - M + 1q, computed on first use."""
        return frozen_copy(_deflated(np.linalg.inv, self))


def _branch_block(y, a_max):
    """Coefficient-space branch block: column k is sum_(a <= a_max) w_a T_k(t_a).

    The (n, n) block for the n nodes y, with weights w_a = 1/(a + y)^2 and
    points t_a = 2/(a + y) - 1.  The nodes are walked in balanced blocks of
    about _BLOCK / a_max nodes, but never fewer than 16 (one block below 32
    nodes), so a large a_max costs time rather than memory: at a_max 256
    there are 3, 5 and 9 blocks at degrees 128, 256 and 512.  Each block
    steps the weighted recurrence P_(k+1) = 2t P_k - P_(k-1) on P_k = w T_k,
    from P_0 = w and P_(-1) = w T_1, in one scratch buffer, four
    (a_max, width) arrays, and sums each P_k down the branches.  numpy sums
    axis 0 of an array at least two columns wide row by row, as it does the
    whole (a_max, n) array, so the block keeps every bit; a one-column block
    would be summed pairwise.  The branch sum traces 0.68, 1.24 and 2.70 MiB
    at degrees 128, 256 and 512, and 6.4 MiB at degree 128 with a_max 8192.
    """
    n = len(y)
    a = np.arange(1, a_max + 1, dtype=float)[:, None]
    B = np.empty((n, n))
    blocks = max(1, min(n // 16, math.ceil(n * a_max / _BLOCK)))
    for nodes in np.array_split(np.arange(n), blocks):
        lo, hi = nodes[0], nodes[-1] + 1
        P = 1.0 / (a + y[None, lo:hi]) ** 2
        t = 2.0 * (1.0 / (a + y[None, lo:hi])) - 1.0
        two_t = 2.0 * t
        buf = np.empty_like(t)
        P_prev = np.multiply(P, t, out=t)  # P_(-1) = w T_1, so P_1 = 2t w - w t
        for k in range(n):
            B[lo:hi, k] = P.sum(0)
            np.subtract(np.multiply(P, two_t, out=buf), P_prev, out=buf)
            P_prev, P, buf = P, buf, P_prev
    return B


@lru_cache(maxsize=16)
def _collocation_matrix(degree, a_max):
    """Read-only Gauss collocation matrix: explicit branches a <= a_max, tail, mass fix.

    The branch block (:func:`_branch_block`) is built column by column in
    node blocks, and its (a_max, width) arrays are freed before the
    Euler-Maclaurin tail makes its (degree + 1)^2 products, so the peak
    memory is the larger of the two halves, not their sum.  At a_max 256 a
    cold build (warm basis caches) traces 0.77, 3.05 and 12.1 MiB at degrees
    128, 256 and 512; the tail half sets all three.
    """
    y = chebyshev_nodes(degree)
    n = degree + 1
    B = _branch_block(y, a_max)
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
def _tail_row(n, a_max):
    """Read-only row r, n long: :func:`tail_error_bound` with each s_i read as T_k^(i)(1)."""
    k = np.arange(n)
    jets = [np.zeros(n), np.ones(n)]  # jets[i + 1] is J_i; J_(-1) = 0 meets only i(i-1) = 0
    for i in range(6):
        jets.append(2.0 * jets[-1] * (k * k - i * i) / (2 * i + 1))
    A = a_max + 1.0
    row = np.zeros(n)
    for i, lah in enumerate((720.0, 1800.0, 1200.0, 300.0, 30.0, 1.0), start=1):
        moments = jets[i + 1] / A**2 + 2 * i * jets[i] / A + i * (i - 1) * jets[i - 1]
        row += lah * A ** -(5.0 + i) / (5 + i) * moments
    return frozen_copy(row / 15120)


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
    bound is linear in |c|, so it is one dot product with a read-only row
    cached per coefficient length and a_max.
    a_max, at least 8 as in :func:`assemble_operator`, is checked before f is read.
    """
    check_count("a_max", a_max, 8)
    c = f.coeffs
    n = chop_length(c)
    return float(np.abs(c[:n]) @ _tail_row(len(c), a_max)[:n])


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
    """Convex mixture (1 - eps) m0 + eps m1 of two operator matrices.

    Raises ValueError for a weight outside [0, 1], before it reads m0 or
    m1, and for operators of different degree.
    """
    check_unit("mixture weight", eps)
    check_degree(m0, m1)
    entries = np.multiply(m0.entries, 1.0 - eps)
    entries += eps * m1.entries
    return OperatorMatrix(entries, eps=float(eps))


def _deflated_matrix(m):
    """The deflated matrix I - M + 1q: the quadrature row q added to every row of I - M."""
    return np.eye(m.degree + 1) - m.entries + quadrature_weights(m.degree)


def _deflated(linalg_op, m, *args):
    """``linalg_op`` of the deflated matrix of m; a singular one raises ConvergenceError."""
    try:
        return linalg_op(_deflated_matrix(m), *args)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"deflated system is singular: {exc}") from exc


def _gated(m, u, g, name):
    """u chopped, or ConvergenceError if max|u - M u - g| > 1e-12 max(1, max|u|) or is NaN.

    The residual of a sound solve scales with max|u|, which reaches 9.4e4
    for the fixed density at eps = 1 and degree 512; the floor of 1 keeps
    the gate absolute for the small solutions of the resolvent.
    """
    res = float(np.max(np.abs(u - m.entries @ u - g)))
    limit = _RESIDUAL_LIMIT * max(1.0, float(np.max(np.abs(u))))
    if not res <= limit:  # also catches a NaN residual
        raise ConvergenceError(f"{name} residual {res:.3e} exceeds {limit:.3e}")
    return chopped(ChebFn.from_values(u))


def _certified_positive(c):
    """True when h = sum_k c_k T_k(2x - 1) is positive on ``SUP_GRID``, by coefficients.

    |T_k| <= 1 on [0, 1], so h >= head - sum_(k >= m) |c_k| for its head
    c_0..c_(m-1).  The head length m is the shortest of 8, 16, 32, ...
    below the degree whose tail sum is at most |c_0| / 8, or 8 when none
    is, the cheapest try; only those m terms are summed on the grid, by
    the :class:`ChebFn` evaluation that the full grid sum uses too.
    """
    a = np.abs(c)
    m = _HEAD
    while float(np.sum(a[m:])) > a[0] / 8:
        if 2 * m >= len(c) - 1:
            m = _HEAD
            break
        m *= 2
    head = ChebFn(c[:m])(SUP_GRID)
    return float(np.min(head)) > float(np.sum(a[m:]))


def invariant_density(m):
    """Fixed density of an operator matrix, normalized to unit mass.

    Solves the deflated system (I - M + 1q) v = 1, whose solution has
    q . v = 1 and M v = v.  Once the solution meets the residual gate it is chopped
    (:func:`~gaussrenyi.funcspace.chopped`): its coefficients past the
    standardChop plateau are set to zero and their exact integral is
    added onto c_0, so the mass stays 1 to rounding.  The negativity
    screen judges, and the function returns, the chopped density.
    Raises ConvergenceError when the system is singular, when the
    fixed-point residual max|v - M v| exceeds 1e-12 max(1, max|v|) or when
    the density dips below -1e-10 on the sup-norm grid ``SUP_GRID``.
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
    v = _deflated(np.linalg.solve, m, np.ones(m.degree + 1))
    h = _gated(m, v, 0.0, "fixed-point")
    if _certified_positive(h.coeffs):
        return h
    grid_min = float(np.min(h(SUP_GRID)))
    if grid_min < _NEGATIVE_LIMIT:
        raise ConvergenceError(f"density dips to {grid_min:.3e} on the grid")
    return h


def resolvent_solve(m, g):
    """Solve (I - m) u = g on the zero-mean subspace.

    Solves the deflated system (I - M + 1q) u = g - mean g, whose solution
    has zero mean.  The mean is taken off before the solve, so the residual
    gate judges the solve alone and the precondition alone judges the mean.
    The first solve on a record computes its cached property, the read-only
    inverse of the deflated matrix, (degree + 1)^2 floats.  Every solve then
    applies the inverse once, with one mat-vec, and meets the residual gate
    of :func:`invariant_density`,
    max|u - M u - (g - mean g)| at most 1e-12 max(1, max|u|).  The
    solution is then returned chopped (:func:`~gaussrenyi.funcspace.chopped`):
    its coefficients past the standardChop plateau are set to zero and their
    exact integral is added onto c_0, so the mean stays 0 to rounding.  Raises
    ConvergenceError when the system is singular or the residual fails.
    Preconditions: |integral of g| at most 1e-10.
    """
    check_degree(m, g)
    mean = g.integrate()
    if abs(mean) > _MEAN_LIMIT:
        raise ValueError(f"right-hand side must have zero mean, got {mean:.3e}")
    rhs = g.values - mean
    # over an order-20 series at degrees 32-512 the inverse leaves a relative
    # residual of at most 1.1e-15 and a mean near 3e-17
    return _gated(m, m._deflated_inv @ rhs, rhs, "resolvent")
