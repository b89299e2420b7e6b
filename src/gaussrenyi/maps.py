"""The Gauss and Renyi interval maps and their inverse branches.

The Gauss map T0(x) = 1/x - floor(1/x) generates regular continued
fraction digits; the Renyi map T1(x) = 1/(1-x) - floor(1/(1-x)) is its
backward counterpart.  Both have countably many surjective branches
indexed by a digit a >= 1, with half-open branch cells

    Gauss:  (1/(a+1), 1/a]      Renyi:  [1 - 1/a, 1 - 1/(a+1))

and the fixed-point conventions T0(0) = 0, T1(1) = 0.

:func:`map_step` is the one array kernel of both maps: an in-place chain
of ufunc passes that can write into caller-supplied (image, digit)
buffers, so an orbit is stepped without allocating.  At the fixed points
no branch cell contains the point; the kernel reports digit inf there and
:func:`forward` reports 0.
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


def map_step(bits, x, out=None):
    """Gauss (bit 0) or Renyi (bit 1) step on arrays; returns (image, digit).

    With z = |bit - x|, exactly x (Gauss) or 1 - x (Renyi), the digit is
    floor(1/z) and the image 1/z - digit.  At the fixed points (z = 0)
    the image is 0 and the digit inf, since no branch cell contains them;
    so is any z whose reciprocal overflows.  ``out`` is an optional pair
    of float arrays of the broadcast shape of bits and x that receive image
    and digit and are returned; image may be x itself, stepping an orbit
    in place.  No validation.
    """
    if out is None:
        shape = np.broadcast_shapes(np.shape(bits), np.shape(x))
        out = np.empty(shape), np.empty(shape)
    image, digit = out
    np.subtract(bits, x, out=image)
    np.abs(image, out=image)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.reciprocal(image, out=image)  # 1/0 = inf
        np.floor(image, out=digit)
        np.subtract(image, digit, out=image)  # inf - inf = NaN
    np.fmax(image, 0.0, out=image)  # NaN -> 0
    return image, digit


def forward(kind, x):
    """Apply the map once; returns (image, digit) as (float, int).

    The digit is floor(1/x) for Gauss and floor(1/(1-x)) for Renyi.  At
    the fixed points, T0(0) = 0 and T1(1) = 0, the digit is reported as 0.
    """
    check_unit("x", x)
    check_kind(kind)
    image, digit = map_step(int(kind is MapKind.RENYI), x)
    return float(image), int(digit) if math.isfinite(digit) else 0


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
