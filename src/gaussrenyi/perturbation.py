"""Taylor expansion of the stationary density in the mixture weight.

Write L_eps = (1 - eps) L0 + eps L1 for the annealed operator and h_eps
for its stationary density.  The expansion

    h_eps = h0 + sum_n eps^n c_n + o(eps^k)

has coefficients built from two ingredients: the forcing terms, the
eps-derivatives of eps -> L_eps h0 at 0, and resolvent responses on the
zero-mean subspace.  Because the family is affine in eps the resolvent
derivatives collapse to the geometric recursion

    d^j/deps^j (I - L_eps)^(-1) |_0 = j! [(I - L0)^(-1) (L1 - L0)]^j (I - L0)^(-1)

and the coefficients to c_n = [(I - L0)^(-1) (L1 - L0)]^(n-1) (I - L0)^(-1) (L1 h0 - h0).

Both the direct recursion (:func:`mixture_series`) and the generic
recombination through forcing terms and the response table are
provided; they agree to rounding and the finite-difference checks in
the test suite validate the resolvent-derivative identity.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .bounds import warn_if_inadmissible
from .funcspace import ChebFn, linear_combo
from .maps import Record, check_count, check_degree
from .transfer import _MEAN_LIMIT, OperatorMatrix, _warn_outside_unit, resolvent_solve

__all__ = [
    "PerturbationSeries", "density_derivative", "mixture_forcing_terms", "mixture_series",
    "residual", "response_table",
]


@dataclass(frozen=True, eq=False)
class PerturbationSeries(Record):
    """Base density plus Taylor coefficients c_1..c_k of eps -> h_eps.

    ``coeffs`` is kept as a tuple, so a caller's later writes to its list never
    reach the series.  The keyword-only ``m0`` and ``m1`` are the operators the
    series was solved from, which :func:`mixture_series` fills in: references,
    not copies, and not in ``repr``.  They default to None for a series built
    by position, which has no :meth:`residual`.  A pickle carries both, two
    (d + 1)^2 matrices for degree d, 133 kB each at degree 128.  Equality and
    hashing are by identity, as for :class:`ChebFn`.
    """

    h0: ChebFn
    coeffs: tuple
    order: int
    _: KW_ONLY
    m0: OperatorMatrix | None = field(default=None, repr=False)
    m1: OperatorMatrix | None = field(default=None, repr=False)

    def __post_init__(self):
        check_count("order", self.order, 0)
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) != self.order:
            raise ValueError(
                f"order {self.order} does not match {len(self.coeffs)} coefficients"
            )

    def at(self, eps):
        """Evaluate the truncated expansion at a mixture weight eps.

        h_eps is kept for the last weight, so repeated calls at one
        weight, as in a digit table, build h_eps and its cached
        antiderivative once and return the same immutable
        :class:`ChebFn`.  An inadmissible finite eps warns once per h_eps
        built.  Raises ValueError, naming eps, when eps is NaN, negative or
        infinite, or when a power eps^n or a term of the sum overflows.
        """
        if not eps >= 0.0:  # also catches NaN
            raise ValueError(f"mixture weight must be at least 0: {eps!r}")
        if eps == math.inf:
            raise ValueError(f"mixture weight must be finite: {eps!r}")
        return self._at(float(eps))

    @cached_property
    def _at(self):
        h0, coeffs = self.h0, self.coeffs  # the memo keeps no reference to self

        def build(eps):  # warns under the C cache, so maps.warn finds the caller of at
            warn_if_inadmissible(eps)
            try:
                with np.errstate(over="raise"):
                    terms = [(eps**n, c) for n, c in enumerate(coeffs, 1)]
                    return linear_combo([(1.0, h0)] + terms)
            except ArithmeticError:  # OverflowError from eps**n, FloatingPointError from numpy
                raise ValueError(f"mixture weight {eps!r} overflows the expansion") from None

        return lru_cache(maxsize=1)(build)

    def truncated(self, k):
        """The first k terms, with the same operators; k = 0 is the base density."""
        return PerturbationSeries(self.h0, self.coeffs[:k], k, m0=self.m0, m1=self.m1)

    def residual(self, eps):
        """Node sup-norm of L_eps h - h for h = ``at(eps)`` and the series' operators.

        Raises ValueError on a series built without its operators.
        """
        if self.m0 is None or self.m1 is None:
            raise ValueError("the series has no operators; build it with mixture_series")
        return residual(eps, self.at(eps), self.m0, self.m1)


def mixture_forcing_terms(h0, m1, order):
    """Derivatives of eps -> L_eps h0 at eps = 0 for the affine mixture.

    The first derivative is L1 h0 - h0 and all higher ones vanish.  Its
    mean is (q @ M1 - q) . h0 for the quadrature row q, which is zero to
    rounding for any h0, fixed density or not, when M1 conserves mass; a
    mean above 1e-10, resolvent_solve's limit, signals an operator that leaks mass.
    """
    check_count("order", order, 1)
    check_degree(m1, h0)
    g1_values = m1.entries @ h0.values - h0.values
    g1 = ChebFn.from_values(g1_values)
    mean = g1.integrate()
    if abs(mean) > _MEAN_LIMIT:
        raise RuntimeError(
            f"first forcing term has mean {mean:.3e}; "
            f"the complementary operator does not conserve mass"
        )
    zero = ChebFn(np.zeros(h0.degree + 1))
    return [g1] + [zero] * (order - 1)


def response_table(forcing, m0, m1, order):
    """Resolvent responses H[i, j] for i + j <= order, i >= 1.

    H[i, j] is the j-th derivative at 0 of eps -> (I - L_eps)^(-1)
    applied to the i-th forcing term, computed through the geometric
    recursion j! [(I - L0)^(-1) (L1 - L0)]^j (I - L0)^(-1).
    """
    check_count("order", order, 1)
    if len(forcing) < order:
        raise ValueError(f"need {order} forcing terms, got {len(forcing)}")
    check_degree(m0, m1)
    delta = m1.entries - m0.entries
    table = {}
    for i in range(1, order + 1):
        g = forcing[i - 1]
        if not np.any(g.coeffs):  # g is the zero function, and so are its responses
            table.update(((i, j), g) for j in range(order - i + 1))
            continue
        cur = resolvent_solve(m0, g)
        table[(i, 0)] = cur
        fact = 1.0
        for j in range(1, order - i + 1):
            cur = resolvent_solve(m0, ChebFn.from_values(delta @ cur.values))
            fact *= j
            table[(i, j)] = fact * cur
    return table


def density_derivative(table, n):
    """n-th derivative of eps -> h_eps at 0: sum_i binom(n, i) H[i, n-i]."""
    check_count("derivative order", n, 1)
    order = max(i for i, _ in table)
    if n > order:
        raise ValueError(f"derivative order {n} exceeds the table's order {order}")
    terms = [(float(math.comb(n, i)), table[(i, n - i)]) for i in range(1, n + 1)]
    return linear_combo(terms)


def mixture_series(h0, m0, m1, order=3):
    """Taylor series of the stationary density of the affine mixture.

    Runs the coefficient recursion c_1 = (I - L0)^(-1) (L1 h0 - h0),
    c_n = (I - L0)^(-1) (L1 - L0) c_(n-1).  Every coefficient is
    zero-mean, so any truncation keeps unit mass.
    """
    check_count("order", order, 1)
    g1 = mixture_forcing_terms(h0, m1, 1)[0]
    coeffs = [resolvent_solve(m0, g1)]  # checks m0 against the degree of m1
    delta = m1.entries - m0.entries
    for _ in range(2, order + 1):
        nxt = resolvent_solve(
            m0, ChebFn.from_values(delta @ coeffs[-1].values)
        )
        coeffs.append(nxt)
    return PerturbationSeries(h0, tuple(coeffs), order, m0=m0, m1=m1)


def residual(eps, h, m0, m1):
    """Node sup-norm of L_eps h - h for the mixture at weight eps.

    Computes (1 - eps) (M0 h) + eps (M1 h) - h on the node values with
    two mat-vecs and builds no mixture matrix.  Like
    :func:`~gaussrenyi.transfer.annealed`, it warns at the caller's line
    when eps lies outside [0, 1], and raises ValueError when the degrees
    of m0, m1 and h differ.
    """
    check_degree(m0, m1)
    check_degree(m0, h)
    _warn_outside_unit(eps)
    v = h.values
    image = (1.0 - eps) * (m0.entries @ v) + eps * (m1.entries @ v)
    return float(np.max(np.abs(image - v)))
