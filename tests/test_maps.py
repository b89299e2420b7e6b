"""Forward maps, inverse branches and branch-derivative formulas."""

import math
import re
import warnings

import numpy as np
import pytest

from gaussrenyi import (
    ChebFn,
    ConvergenceError,
    MapKind,
    PerturbationSeries,
    SimConfig,
    annealed,
    apply_transfer,
    assemble_operator,
    branch_derivative,
    c_bound,
    chebyshev_nodes,
    density_derivative,
    digit_cells,
    digit_law,
    empirical_density,
    even_zeta,
    forward,
    gauss_kuzmin,
    gauss_kuzmin_tail,
    invariant_density,
    inverse_branch,
    mixture_forcing_terms,
    mixture_series,
    norm_cl,
    residual,
    resolvent_solve,
    response_table,
    simulate_digit_freq,
    tail_error_bound,
    theta_bound,
    two_step_derivative,
)
from gaussrenyi.maps import map_step

_CFG = SimConfig(0.1, 10, burn_in=50)

# site -> (name in the message, floor, call with the count); each call
# reaches its count check before any other argument is used
_FLOORS = {
    "gauss_kuzmin": ("digit", 1, gauss_kuzmin),
    "gauss_kuzmin_tail": ("digit cutoff", 1, gauss_kuzmin_tail),
    "digit_cells": ("digit", 1, digit_cells),
    "digit_law": ("digit cutoff", 1, lambda v: digit_law(0.1, None, v)),
    "chebyshev_nodes": ("degree", 0, chebyshev_nodes),
    "ChebFn.constant": ("degree", 0, lambda v: ChebFn.constant(1.0, v)),
    "norm_cl": ("derivative order", 0, lambda v: norm_cl(ChebFn.constant(1.0, 4), v)),
    "inverse_branch": ("branch digit", 1, lambda v: inverse_branch(MapKind.GAUSS, v, 0.5)),
    "branch_derivative": ("branch digit", 1,
                          lambda v: branch_derivative(MapKind.RENYI, v, 0.5)),
    "two_step_derivative.n": ("branch digit", 1, lambda v: two_step_derivative(0, 0, v, 1, 0.5)),
    "two_step_derivative.k": ("branch digit", 1, lambda v: two_step_derivative(1, 1, 1, v, 0.5)),
    "two_step_derivative.order": ("derivative order", 1,
                                  lambda v: two_step_derivative(0, 1, 1, 1, 0.5, v)),
    "mixture_forcing_terms": ("order", 1, lambda v: mixture_forcing_terms(None, None, v)),
    "response_table": ("order", 1, lambda v: response_table(None, None, None, v)),
    "mixture_series": ("order", 1, lambda v: mixture_series(None, None, None, v)),
    "density_derivative": ("derivative order", 1, lambda v: density_derivative(None, v)),
    "SimConfig.samples": ("samples", 1, lambda v: SimConfig(0.1, v)),
    "SimConfig.n_index": ("n_index", 1, lambda v: SimConfig(0.1, 10, n_index=v)),
    "SimConfig.burn_in": ("burn_in", 0, lambda v: SimConfig(0.1, 10, burn_in=v)),
    "SimConfig.seed": ("seed", 0, lambda v: SimConfig(0.1, 10, seed=v)),
    "simulate_digit_freq": ("n_max", 1, lambda v: simulate_digit_freq(_CFG, v)),
    "empirical_density.burn_in": ("burn_in", 50,
                                  lambda v: empirical_density(SimConfig(0.1, 10, burn_in=v))),
    "empirical_density.bins": ("bins", 1, lambda v: empirical_density(_CFG, v)),
    "assemble_operator": ("degree", 8, lambda v: assemble_operator(MapKind.GAUSS, v)),
    "assemble_operator.a_max": ("a_max", 8, lambda v: assemble_operator(MapKind.GAUSS, 16, v)),
    "tail_error_bound": ("a_max", 8, lambda v: tail_error_bound(None, v)),
    "apply_transfer": ("a_max", 8,
                       lambda v: apply_transfer(MapKind.GAUSS, ChebFn.constant(1.0, 16), v)),
    "theta_bound": ("smoothness index", 2, theta_bound),
    "c_bound": ("smoothness index", 2, c_bound),
    "even_zeta": ("zeta argument", 2, even_zeta),
}


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


def _reference_step(bits, x):
    # the reference bits: the same passes with reciprocal and a scalar fmax
    z = np.abs(np.subtract(bits, x))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r = np.reciprocal(z)
        digit = np.floor(r)
        image = np.subtract(r, digit)
    return np.fmax(image, 0.0), digit


def test_map_step_bit_identical_to_reference():
    special = [0.0, 1.0, 0.5, 1.0 - 2.0**-53, 2.0**-1022, 1e-310, 5e-324]
    xs = np.concatenate([special, np.random.default_rng(10).random(10**6)])
    mixed = np.random.default_rng(11).random(xs.size) < 0.5
    for bits in (np.zeros(xs.size, dtype=bool), np.ones(xs.size, dtype=bool), mixed):
        want_image, want_digit = _reference_step(bits, xs)
        image, digit = map_step(bits, xs)
        assert image.tobytes() == want_image.tobytes()
        assert digit.tobytes() == want_digit.tobytes()
        x, d = xs.copy(), np.empty(xs.size)
        map_step(bits, x, out=(x, d))
        assert x.tobytes() == want_image.tobytes()
        assert d.tobytes() == want_digit.tobytes()


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


@pytest.mark.parametrize("name, low, call", list(_FLOORS.values()), ids=list(_FLOORS))
def test_count_floors(name, low, call):
    # one rule and one message for every count with a floor
    with pytest.raises(ValueError, match=re.escape(f"{name} must be at least {low}: {low - 1}")):
        call(low - 1)
    # a count that is not an integer is refused, not rounded or passed on
    with pytest.raises(TypeError):
        call(float(low))


_G64 = ChebFn(np.eye(65)[1])  # T_1 at degree 64, of zero mean

# site -> call with the degree-32 pair (m0, m1), each meeting a degree-64 function
_DEGREE_MISMATCHES = {
    "resolvent_solve": lambda m0, m1: resolvent_solve(m0, _G64),
    "mixture_forcing_terms": lambda m0, m1: mixture_forcing_terms(_G64, m1, 1),
    "mixture_series": lambda m0, m1: mixture_series(_G64, m0, m1, 1),
    "response_table": lambda m0, m1: response_table([_G64], m0, m1, 1),
    "residual": lambda m0, m1: residual(0.1, _G64, m0, m1),
}


@pytest.mark.parametrize("call", list(_DEGREE_MISMATCHES.values()), ids=list(_DEGREE_MISMATCHES))
def test_degree_mismatch(call, ops32):
    # one rule and one message, the one annealed gives, for every degree mismatch
    with pytest.raises(ValueError, match=re.escape("degree mismatch: 32 vs 64")):
        call(*ops32)


def _caught(call, *args):
    """The warnings that call(*args) records under an ``always`` filter."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call(*args)
    return caught


def _pure_renyi(ops):
    with pytest.raises(ConvergenceError):  # eps = 1 has no fixed density
        invariant_density(annealed(1.0, *ops))


def test_warnings_point_at_the_caller(series3, ops32, ops128):
    # one warning rule: a density built at an inadmissible weight warns once,
    # and every warning points at the first line outside the package
    fresh = PerturbationSeries(series3.h0, series3.coeffs, 3)
    law = _caught(digit_law, 0.9, fresh, 50)
    fresh = PerturbationSeries(series3.h0, series3.coeffs, 3)
    built = _caught(fresh.at, 0.95)
    assert (len(law), len(built), len(_caught(fresh.at, 0.95))) == (1, 1, 0)
    mixture = _caught(residual, 1.2, series3.h0, *ops128)
    renyi = _caught(_pure_renyi, ops32)  # only the admissible-range warning
    assert ["admissible" in str(w.message) for w in mixture + renyi] == [False, True]
    for w in law + built + mixture + renyi:
        assert w.filename == __file__, (str(w.message), w.filename, w.lineno)


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
