"""Forward maps, the two-step branch derivative and the package-wide rules."""

import ast
import importlib
import inspect
import math
import os
import pkgutil
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import gaussrenyi
from gaussrenyi import (
    ChebFn,
    ConvergenceError,
    MapKind,
    PerturbationSeries,
    SimConfig,
    annealed,
    apply_transfer,
    assemble_operator,
    c_bound,
    chebyshev_nodes,
    density_derivative,
    digit_cells,
    digit_law,
    empirical_density,
    forward,
    gauss_kuzmin,
    gauss_kuzmin_tail,
    invariant_density,
    mixture_forcing_terms,
    mixture_series,
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
    "two_step_derivative.n": ("branch digit", 1, lambda v: two_step_derivative(0, 0, v, 1, 0.5)),
    "two_step_derivative.k": ("branch digit", 1, lambda v: two_step_derivative(1, 1, 1, v, 0.5)),
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


def test_inverse_branch_roundtrip():
    # forward undoes the a-th inverse branch, 1/(a+y) for Gauss and
    # 1 - 1/(a+y) for Renyi
    y, a = forward(MapKind.GAUSS, 1.0 / (7 + 0.3))
    assert a == 7 and abs(y - 0.3) < 1e-14
    rng = np.random.default_rng(3)
    for _ in range(50):
        kind = MapKind.GAUSS if rng.random() < 0.5 else MapKind.RENYI
        a = int(rng.integers(1, 40))
        yy = rng.uniform(0.01, 0.99)
        x = 1.0 / (a + yy) if kind is MapKind.GAUSS else 1.0 - 1.0 / (a + yy)
        y_back, a_back = forward(kind, x)
        assert a_back == a and abs(y_back - yy) < 1e-12


def test_two_step_examples():
    assert two_step_derivative(0, 0, 1, 1, 0.0) == 0.25
    assert two_step_derivative(1, 1, 1, 1, 0.0) == 1.0
    # its derivative is 2 n / (n(k+x) + 1)^3 = 4 / 8^3 at n, k, x = 2, 3, 0.5
    h = 1e-4
    fd = (
        -two_step_derivative(0, 0, 2, 3, 0.5 + 2 * h)
        + 8 * two_step_derivative(0, 0, 2, 3, 0.5 + h)
        - 8 * two_step_derivative(0, 0, 2, 3, 0.5 - h)
        + two_step_derivative(0, 0, 2, 3, 0.5 - 2 * h)
    ) / (12 * h)
    assert abs(abs(fd) - 0.0078125) < 1e-10


def test_two_step_mixed_pairs_match_pure():
    # mixed compositions differ from the pure ones only by sign
    assert two_step_derivative(1, 0, 4, 2, 0.3) == two_step_derivative(0, 0, 4, 2, 0.3)
    assert two_step_derivative(0, 1, 4, 2, 0.3) == two_step_derivative(1, 1, 4, 2, 0.3)


def test_two_step_validation():
    with pytest.raises(ValueError):
        two_step_derivative(2, 0, 1, 1, 0.0)
    with pytest.raises(ValueError):
        two_step_derivative(0, 0, 0, 1, 0.0)


@pytest.mark.parametrize("name, low, call", list(_FLOORS.values()), ids=list(_FLOORS))
def test_count_floors(name, low, call):
    # one rule and one message for every count with a floor
    with pytest.raises(ValueError, match=re.escape(f"{name} must be at least {low}: {low - 1}")):
        call(low - 1)
    # a count that is not an integer is refused, not rounded or passed on
    with pytest.raises(TypeError):
        call(float(low))


def test_public_names_resolve():
    # every exported name is bound once, and the star import binds exactly them
    names = gaussrenyi.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(gaussrenyi, name)] == []
    star = {}
    exec("from gaussrenyi import *", star)
    del star["__builtins__"]
    assert sorted(star) == sorted(names)


_MODULES = sorted(info.name for info in pkgutil.iter_modules(gaussrenyi.__path__))
_LIBRARY = [name for name in _MODULES if name != "cli"]  # the modules the package re-exports


def _top_level_assignments(module):
    """The names that module's source binds by a top-level assignment."""
    tree = ast.parse(inspect.getsource(module))
    targets = [t for node in tree.body if isinstance(node, ast.Assign) for t in node.targets]
    targets += [node.target for node in tree.body if isinstance(node, ast.AnnAssign)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


@pytest.mark.parametrize("name", _MODULES)
def test_module_owns_its_public_names(name):
    # every name a module lists is defined there, and its star import binds exactly them
    module = importlib.import_module(f"gaussrenyi.{name}")
    assigned = _top_level_assignments(module)
    for public in module.__all__:
        obj = getattr(module, public)
        if callable(obj):
            assert obj.__module__ == module.__name__, public
        else:
            assert public in assigned, public
    star = {}
    exec(f"from gaussrenyi.{name} import *", star)
    del star["__builtins__"]
    assert sorted(star) == sorted(module.__all__)


def test_package_reexports_each_module_list_once():
    # the library modules' lists are disjoint and the package exports their union;
    # the CLI is not re-exported, and a plain import does not load it
    names = [public for name in _LIBRARY
             for public in importlib.import_module(f"gaussrenyi.{name}").__all__]
    assert len(set(names)) == len(names)
    assert sorted(gaussrenyi.__all__) == sorted(names)
    src = os.path.dirname(os.path.dirname(gaussrenyi.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import gaussrenyi; "
            "print(sorted(m for m in sys.modules if m.startswith('gaussrenyi.')))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.strip() == str([f"gaussrenyi.{name}" for name in _LIBRARY])


def test_transfer_keeps_hurwitz_zeta():
    # bench/spans.py wraps transfer.hurwitz_zeta by getattr (ROADMAP item 1), and
    # tier-1 does not run bench/tests, so this pins the import that spans.py needs
    assert gaussrenyi.transfer.hurwitz_zeta is gaussrenyi.bounds.hurwitz_zeta


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
            return 1.0 / (n + 1.0 / (k + t))  # the Gauss branches 1/(a+y)

        fd = (-comp(x + 2 * h) + 8 * comp(x + h) - 8 * comp(x - h) + comp(x - 2 * h)) / (
            12 * h
        )
        assert abs(abs(fd) - two_step_derivative(0, 0, n, k, x)) < 1e-12

