"""Forward maps, inverse branches and branch-derivative formulas."""

import math

import numpy as np
import pytest

from gaussrenyi import (
    MapKind,
    branch_derivative,
    forward,
    inverse_branch,
    two_step_derivative,
)
from gaussrenyi.maps import map_step


def test_forward_gauss():
    y, a = forward(MapKind.GAUSS, 0.4)
    assert abs(y - 0.5) < 1e-15 and a == 2


def test_forward_renyi():
    y, a = forward(MapKind.RENYI, 1.0 / 3.0)
    assert abs(y - 0.5) < 1e-14 and a == 1


def test_forward_conventions():
    assert forward(MapKind.GAUSS, 0.0) == (0.0, 0)
    assert forward(MapKind.RENYI, 1.0) == (0.0, 0)
    # 1/x overflows: reported as the fixed point, without a warning
    assert forward(MapKind.GAUSS, 5e-324) == (0.0, 0)
    with pytest.raises(ValueError):
        forward(MapKind.GAUSS, -0.2)


def test_map_step_out_buffers():
    # out= returns the caller's buffers, holding what out=None returns,
    # bit for bit, at the fixed points, 1/2 and 1/3 among random points
    xs = np.concatenate([[0.0, 1.0, 0.5, 1.0 / 3.0], np.random.default_rng(8).random(1000)])
    bits = np.random.default_rng(9).random(xs.size) < 0.5
    bits[:4] = [False, True, True, False]
    want_image, want_digit = map_step(bits, xs)
    a, b = np.empty(xs.size), np.empty(xs.size)
    image, digit = map_step(bits, xs, out=(a, b))
    assert image is a and digit is b
    assert a.tobytes() == want_image.tobytes()
    assert b.tobytes() == want_digit.tobytes()
    assert a[:4].tolist() == [0.0, 0.0, 0.0, 0.0]
    assert b[:4].tolist() == [math.inf, math.inf, 2.0, 3.0]
    # in place: the image may overwrite the points
    x = xs.copy()
    assert map_step(bits, x, out=(x, b))[0] is x
    assert x.tobytes() == want_image.tobytes()


def test_inverse_branch_examples():
    assert inverse_branch(MapKind.GAUSS, 1, 0.0) == 1.0
    assert abs(inverse_branch(MapKind.RENYI, 2, 0.5) - 0.6) < 1e-15
    with pytest.raises(ValueError):
        inverse_branch(MapKind.GAUSS, 0, 0.5)


def test_inverse_branch_roundtrip():
    y, a = forward(MapKind.GAUSS, inverse_branch(MapKind.GAUSS, 7, 0.3))
    assert a == 7 and abs(y - 0.3) < 1e-14
    rng = np.random.default_rng(3)
    for _ in range(50):
        kind = MapKind.GAUSS if rng.random() < 0.5 else MapKind.RENYI
        a = int(rng.integers(1, 40))
        yy = rng.uniform(0.01, 0.99)
        y_back, a_back = forward(kind, inverse_branch(kind, a, yy))
        assert a_back == a and abs(y_back - yy) < 1e-12


def test_branch_derivative_examples():
    assert branch_derivative(MapKind.GAUSS, 1, 0.0) == 1.0
    assert branch_derivative(MapKind.GAUSS, 3, 1.0) == 1.0 / 16.0
    assert branch_derivative(MapKind.RENYI, 2, 0.5) == 1.0 / 6.25


def test_branch_derivative_sum_trigamma():
    # sum_a 1/(a+y)^2 equals trigamma(1+y); brute force the series at y = 0
    a = np.arange(1, 10**6 + 1, dtype=float)
    brute = float(np.sum(1.0 / a**2))
    total = sum(branch_derivative(MapKind.GAUSS, k, 0.0) for k in range(1, 2001))
    # the brute sum itself is pi^2/6 up to the 1/a_max truncation
    assert abs(brute - math.pi**2 / 6) < 2e-6
    assert total < math.pi**2 / 6 < total + 1.0 / 2000


def test_two_step_examples():
    assert two_step_derivative(0, 0, 1, 1, 0.0, 1) == 0.25
    assert two_step_derivative(1, 1, 1, 1, 0.0, 1) == 1.0
    assert abs(two_step_derivative(0, 0, 2, 3, 0.5, 2) - 0.0078125) < 1e-18
    # the order-2 value is the derivative of the order-1 formula
    h = 1e-4
    fd = (
        -two_step_derivative(0, 0, 2, 3, 0.5 + 2 * h, 1)
        + 8 * two_step_derivative(0, 0, 2, 3, 0.5 + h, 1)
        - 8 * two_step_derivative(0, 0, 2, 3, 0.5 - h, 1)
        + two_step_derivative(0, 0, 2, 3, 0.5 - 2 * h, 1)
    ) / (12 * h)
    assert abs(abs(fd) - 0.0078125) < 1e-10


def test_two_step_mixed_pairs_match_pure():
    # mixed compositions differ from the pure ones only by sign
    for order in (1, 2, 3):
        assert two_step_derivative(1, 0, 4, 2, 0.3, order) == two_step_derivative(
            0, 0, 4, 2, 0.3, order
        )
        assert two_step_derivative(0, 1, 4, 2, 0.3, order) == two_step_derivative(
            1, 1, 4, 2, 0.3, order
        )


def test_two_step_validation():
    with pytest.raises(ValueError):
        two_step_derivative(2, 0, 1, 1, 0.0, 1)
    with pytest.raises(ValueError):
        two_step_derivative(0, 0, 0, 1, 0.0, 1)
    with pytest.raises(ValueError):
        two_step_derivative(0, 0, 1, 1, 0.0, 0)


def test_composition_consistency_finite_difference():
    # d/dx of V_n o V_k (both Gauss) against the closed form, 50 draws
    rng = np.random.default_rng(17)
    h = 1e-4
    for _ in range(50):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, 9))
        x = rng.uniform(2 * h, 1 - 2 * h)

        def comp(t, n=n, k=k):
            return inverse_branch(
                MapKind.GAUSS, n, inverse_branch(MapKind.GAUSS, k, t)
            )

        fd = (-comp(x + 2 * h) + 8 * comp(x + h) - 8 * comp(x - h) + comp(x - 2 * h)) / (
            12 * h
        )
        assert abs(abs(fd) - two_step_derivative(0, 0, n, k, x, 1)) < 1e-12


def test_branch_monotonicity():
    ys = np.linspace(0.0, 1.0, 33)
    for a in (1, 2, 9):
        gauss = [inverse_branch(MapKind.GAUSS, a, y) for y in ys]
        renyi = [inverse_branch(MapKind.RENYI, a, y) for y in ys]
        assert np.all(np.diff(gauss) < 0)
        assert np.all(np.diff(renyi) > 0)


def test_branch_images_tile():
    for a in range(1, 200):
        lo = inverse_branch(MapKind.GAUSS, a, 1.0)
        hi = inverse_branch(MapKind.GAUSS, a, 0.0)
        assert lo == 1.0 / (a + 1) and hi == 1.0 / a
        # the next branch image starts exactly where this one ends
        assert inverse_branch(MapKind.GAUSS, a + 1, 0.0) == lo
