"""Contraction constants and the admissible mixture range."""

import math

import numpy as np
import pytest
from scipy import special

from gaussrenyi import (
    c_bound,
    eps_max,
    even_zeta,
    lasota_yorke_bounds,
    theta_bound,
    two_step_derivative,
)


def test_even_zeta_closed_forms():
    for n in range(2, 30, 2):
        assert abs(even_zeta(n) - special.zeta(n, 1)) < 1e-14
    with pytest.raises(ValueError):
        even_zeta(3)


def test_theta_i2():
    expected = (math.pi**4 / 90) ** 2 - 15.0 / 16.0
    assert abs(theta_bound(2) - expected) < 1e-15
    assert abs(theta_bound(2) - 0.2339229) < 1e-6


def test_theta_i3():
    # zeta(6)^2 - 63/64 with zeta(6) = pi^6 / 945
    expected = (math.pi**6 / 945) ** 2 - 63.0 / 64.0
    assert abs(theta_bound(3) - expected) < 1e-15
    assert abs(expected - 0.050611906) < 1e-9


def test_theta_small_for_large_index():
    assert theta_bound(6) < 1e-3


def test_c_and_eps_range_i2():
    assert abs(c_bound(2) - (math.pi**4 / 90) ** 2) < 1e-15
    assert abs(c_bound(2) - 1.1714229) < 1e-6
    th, c = theta_bound(2), c_bound(2)
    assert abs(eps_max(2) - (1 - th) / (c - th)) < 1e-15
    assert abs(eps_max(2) - 0.8171489) < 1e-6


def test_eps_range_tends_to_one():
    values = [eps_max(i) for i in range(2, 30)]
    # increases towards 1 and saturates there in double precision
    assert np.all(np.diff(values) >= 0)
    assert np.all(np.diff(values[:8]) > 0)
    assert values[-1] > 0.999999


def test_monotone_in_smoothness():
    thetas = [theta_bound(i) for i in range(2, 9)]
    cs = [c_bound(i) for i in range(2, 9)]
    assert np.all(np.diff(thetas) < 0)
    assert np.all(np.diff(cs) < 0)
    for c in cs:
        assert c > 1.0


def test_i1_deferred():
    with pytest.raises(ValueError, match="smoothness index must be at least 2: 1"):
        theta_bound(1)
    with pytest.raises(ValueError, match="smoothness index must be at least 2: 1"):
        c_bound(1)


def test_dataclass_bundle():
    b = lasota_yorke_bounds(3)
    assert b.smoothness == 3
    assert 0 < b.theta < 1 < b.c
    assert 0 < b.eps_max <= 1
    assert b.theta == theta_bound(3)


def test_mixture_contraction_threshold():
    # (1 - eps) theta + eps c stays below 1 before eps_max, reaches it after
    for i in (2, 3, 5):
        th, c, em = theta_bound(i), c_bound(i), eps_max(i)
        for eps in np.linspace(0.0, em, 100, endpoint=False):
            assert (1 - eps) * th + eps * c < 1.0
        assert (1 - em) * th + em * c >= 1.0 - 1e-12


def test_branch_sums_stay_below_theta():
    # brute-force two-step Gauss sums; all terms positive, so any
    # truncation lower-bounds the full sum, which theta dominates
    cutoff = 2000
    nn = np.arange(1, cutoff + 1, dtype=float)[:, None]
    kk = np.arange(1, cutoff + 1, dtype=float)[None, :]
    for i in (2, 3):
        th = theta_bound(i)
        worst = 0.0
        for x in np.linspace(0.0, 1.0, 20):
            total = float(np.sum(1.0 / (nn * (kk + x) + 1.0) ** (2 * i)))
            worst = max(worst, total)
        assert worst <= th + 1e-6
        spot = sum(
            two_step_derivative(0, 0, n, k, 0.0, 1) ** i
            for n in range(1, 40)
            for k in range(1, 40)
        )
        assert spot <= th + 1e-6
