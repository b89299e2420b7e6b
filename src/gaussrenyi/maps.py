"""The Gauss and Renyi interval maps.

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

:func:`frozen_copy` is the package's one read-only rule: every array that
a record, a cache or a module constant keeps is a private read-only copy
made by it.  :func:`check_count` and :func:`check_unit` are its one range
rule: every count with a floor and every value required in [0, 1] is
checked by them, with the messages "<name> must be at least <floor>:
<value>" and "<name> outside [0, 1]: <value>".  A count that is not an
integer raises TypeError, and :func:`check_degree` reports every degree
mismatch as "degree mismatch: <a> vs <b>".  :func:`warn` is its one
warning rule: every warning of the package points at the first caller
outside the package, however deep the call that warned.
"""

from __future__ import annotations

import enum
import math
import operator
import sys
import warnings

import numpy as np

__all__ = ["MapKind", "forward", "two_step_derivative"]


class MapKind(enum.Enum):
    GAUSS = "gauss"
    RENYI = "renyi"


def check_kind(kind):
    if kind not in (MapKind.GAUSS, MapKind.RENYI):
        raise TypeError(f"not a MapKind: {kind!r}")


def check_unit(name, value):
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} outside [0, 1]: {value!r}")


def check_count(name, value, low):
    """Reject a non-integer count (TypeError) or one below ``low`` (ValueError)."""
    if operator.index(value) < low:
        raise ValueError(f"{name} must be at least {low}: {value!r}")


def check_degree(a, b):
    """Reject two operators or functions of different degree (ValueError)."""
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")


def frozen_copy(a, dtype=float):
    """A private read-only copy of ``a`` as an array of ``dtype``."""
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def warn(message, category=UserWarning):
    """Warn at the line of the first caller outside the package."""
    frame, level = sys._getframe(1), 2  # stacklevel 2 is the caller of warn
    while frame and frame.f_globals.get("__name__", "").split(".")[0] == __package__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


def map_step(bits, x, out=None):
    """Gauss (bit 0) or Renyi (bit 1) step on arrays; returns (image, digit).

    With z = |bit - x|, exactly x (Gauss) or 1 - x (Renyi), the digit is
    floor(1/z) and the image 1/z - digit.  At the fixed points (z = 0)
    the image is 0 and the digit inf, since no branch cell contains them;
    so is any z whose reciprocal overflows.  ``out`` is an optional pair
    of float arrays of the broadcast shape of bits and x that receive image
    and digit and are returned; image may be x itself, stepping an orbit
    in place.  No validation.

    The reciprocal is ``divide(1.0, z)``: it gives the bits of
    ``reciprocal``, and numpy (2.4, x86-64) has an AVX2 loop for the
    division but only a baseline loop for ``reciprocal``.  NaN becomes 0
    by a copy masked with ``isnan``, not by ``fmax(image, 0.0)``, whose
    scalar operand leaves the contiguous loop; the mask, one byte per
    element, is the only temporary.  The image is never negative, so the
    two agree bit for bit.
    """
    if out is None:
        shape = np.broadcast_shapes(np.shape(bits), np.shape(x))
        out = np.empty(shape), np.empty(shape)
    image, digit = out
    np.subtract(bits, x, out=image)
    np.abs(image, out=image)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(1.0, image, out=image)  # 1/0 = inf
        np.floor(image, out=digit)
        np.subtract(image, digit, out=image)  # inf - inf = NaN
    np.copyto(image, 0.0, where=np.isnan(image))  # NaN -> 0
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


def two_step_derivative(p, q, n, k, x):
    """|d/dx| of the two-step inverse branch V_p,n composed with V_q,k.

    Closed forms for the pure pairs:

        (0, 0):  1 / (n(k+x) + 1)^2
        (1, 1):  1 / ((n+1)(k+x) - 1)^2

    The mixed pairs differ from these only by sign, (V^(0,0))' =
    -(V^(1,0))' and (V^(1,1))' = -(V^(0,1))', so their magnitudes
    coincide with the matching pure pair.
    """
    if p not in (0, 1) or q not in (0, 1):
        raise ValueError("map selectors must be 0 or 1")
    check_count("branch digit", n, 1)
    check_count("branch digit", k, 1)
    check_unit("x", x)
    if (p, q) in ((0, 0), (1, 0)):
        return 1.0 / (n * (k + x) + 1.0) ** 2
    return 1.0 / ((n + 1) * (k + x) - 1.0) ** 2
