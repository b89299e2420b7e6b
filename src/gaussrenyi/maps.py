"""The Gauss and Renyi interval maps and their inverse branches.

The Gauss map T0(x) = 1/x - floor(1/x) generates regular continued
fraction digits; the Renyi map T1(x) = 1/(1-x) - floor(1/(1-x)) is its
backward counterpart.  Both have countably many surjective branches
indexed by a digit a >= 1, with half-open branch cells

    Gauss:  (1/(a+1), 1/a]      Renyi:  [1 - 1/a, 1 - 1/(a+1))

and the fixed-point conventions T0(0) = 0, T1(1) = 0.
"""

from __future__ import annotations

import enum
import math

import numpy as np


class MapKind(enum.Enum):
    GAUSS = "gauss"
    RENYI = "renyi"


def check_kind(kind):
    if kind not in (MapKind.GAUSS, MapKind.RENYI):
        raise TypeError(f"not a MapKind: {kind!r}")


def check_unit(name, value):
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} outside [0, 1]: {value!r}")


def map_step(bits, x):
    """Gauss (bit 0) or Renyi (bit 1) step on arrays; returns (image, digit).

    With z = x (Gauss) or 1 - x (Renyi) the digit is floor(1/z) and the
    image 1/z - digit.  At the fixed points (z = 0) image and digit are 0
    by convention, since no branch cell contains them.  No validation.
    """
    z = np.array(x, dtype=float)
    np.subtract(1.0, z, out=z, where=bits == 1)  # Renyi reflection, in place
    inv = np.divide(1.0, z, out=z, where=z > 0.0)  # z == 0 stays 0
    digit = np.floor(inv)
    return np.subtract(inv, digit, out=inv), digit


def forward(kind, x):
    """Apply the map once; returns (image, digit) as (float, int).

    The digit is floor(1/x) for Gauss and floor(1/(1-x)) for Renyi, with
    the fixed-point conventions of :func:`map_step`.
    """
    check_unit("x", x)
    check_kind(kind)
    image, digit = map_step(int(kind is MapKind.RENYI), x)
    return float(image), int(digit)


def inverse_branch(kind, a, y):
    """Inverse of the a-th branch: 1/(a+y) for Gauss, 1 - 1/(a+y) for Renyi."""
    _check_branch(a)
    check_unit("y", y)
    check_kind(kind)
    if kind is MapKind.GAUSS:
        return 1.0 / (a + y)
    return 1.0 - 1.0 / (a + y)


def branch_derivative(kind, a, y):
    """|V'| of the a-th inverse branch, 1/(a+y)^2 for both map kinds."""
    _check_branch(a)
    check_unit("y", y)
    check_kind(kind)
    return 1.0 / (a + y) ** 2


def two_step_derivative(p, q, n, k, x, order=1):
    """|d^i/dx^i| of the two-step inverse branch V_p,n composed with V_q,k.

    Closed forms for the pure pairs:

        (0, 0):  i! n^(i-1) / (n(k+x) + 1)^(i+1)
        (1, 1):  i! (n+1)^(i-1) / ((n+1)(k+x) - 1)^(i+1)

    The mixed pairs differ from these only by sign, (V^(0,0))' =
    -(V^(1,0))' and (V^(1,1))' = -(V^(0,1))', so their magnitudes
    coincide with the matching pure pair.
    """
    if p not in (0, 1) or q not in (0, 1):
        raise ValueError("map selectors must be 0 or 1")
    _check_branch(n)
    _check_branch(k)
    check_unit("x", x)
    if order < 1:
        raise ValueError("derivative order must be at least 1")
    i = order
    fact = math.factorial(i)
    if (p, q) in ((0, 0), (1, 0)):
        return fact * n ** (i - 1) / (n * (k + x) + 1.0) ** (i + 1)
    return fact * (n + 1) ** (i - 1) / ((n + 1) * (k + x) - 1.0) ** (i + 1)


def _check_branch(a):
    if a < 1:
        raise ValueError(f"branch digit must be a positive integer: {a!r}")
