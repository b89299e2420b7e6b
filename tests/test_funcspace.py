"""Function space: interpolation, calculus and norms on [0, 1]."""

import math

import numpy as np
import numpy.polynomial.chebyshev as ncheb
import pytest

from gaussrenyi import ChebFn, chebyshev_nodes, linear_combo, norm_cl, norm_sup
from gaussrenyi.funcspace import chop_length

from conftest import random_smooth_fn

LN2 = math.log(2.0)


def gauss_density(x):
    return 1.0 / ((1.0 + x) * LN2)


def test_constant_interpolation():
    f = ChebFn.from_callable(lambda x: 1.0, degree=4)
    assert abs(f(0.3) - 1.0) < 1e-15
    assert np.allclose(f.coeffs, [1.0, 0, 0, 0, 0], atol=1e-15)


def test_linear_reproduction():
    f = ChebFn.from_callable(lambda x: x, degree=8)
    assert abs(f(0.5) - 0.5) < 1e-14
    assert abs(f(0.0)) < 1e-15


def test_gauss_density_interpolation_sup_error():
    f = ChebFn.from_callable(gauss_density, degree=64)
    grid = np.linspace(0.0, 1.0, 1000)
    assert np.max(np.abs(f(grid) - gauss_density(grid))) < 1e-13


def test_eval_examples():
    f = ChebFn.from_callable(gauss_density, degree=64)
    assert abs(f(0.0) - 1.0 / LN2) < 1e-13
    ident = ChebFn.from_callable(lambda x: x, degree=8)
    assert abs(ident(0.0)) < 1e-15


def test_eval_domain_error():
    f = ChebFn.constant(1.0)
    with pytest.raises(ValueError):
        f(1.5)
    with pytest.raises(ValueError):
        f(np.array([0.2, -0.1]))
    with pytest.raises(ValueError):
        f(float("nan"))
    with pytest.raises(ValueError):
        f(np.array([0.2, float("nan")]))


def test_from_callable_rejects_non_finite():
    with pytest.raises(ValueError, match="node x = 0.0"):
        ChebFn.from_callable(lambda x: 1.0 / x if x > 0 else math.inf, degree=8)


def test_integrate_examples():
    assert abs(ChebFn.from_callable(lambda x: 1.0, 4).integrate() - 1.0) < 1e-15
    assert abs(ChebFn.from_callable(lambda x: x, 8).integrate() - 0.5) < 1e-15
    # integral of 1/((1+x) ln 2) over [0, 1] is exactly 1
    f = ChebFn.from_callable(gauss_density, degree=64)
    assert abs(f.integrate() - 1.0) < 1e-12


def test_integrate_on_examples():
    one = ChebFn.from_callable(lambda x: 1.0, 4)
    assert abs(one.integrate_on(1.0 / 6, 1.0 / 5) - 1.0 / 30) < 1e-15
    f = ChebFn.from_callable(gauss_density, degree=64)
    # closed forms: log ratios of the antiderivative log(1+x)/log 2
    assert abs(f.integrate_on(1.0 / 6, 1.0 / 5) - math.log(36 / 35) / LN2) < 1e-13
    assert abs(f.integrate_on(1.0 / 5, 1.0 / 4) - math.log(25 / 24) / LN2) < 1e-13
    assert abs(math.log(36 / 35) / LN2 - 0.0406420) < 1e-7
    assert abs(math.log(25 / 24) / LN2 - 0.0588937) < 1e-7


def test_fast_paths_bit_identical_to_numpy():
    # scalar evaluation and integrate_on run their own Clenshaw loop on
    # Python floats; they must give numpy's bits, not just numpy's values
    rng = np.random.default_rng(41)
    xs = [0.0, 1.0, 1.0 / 3.0] + sorted(rng.uniform(0.0, 1.0, 50).tolist())
    for degree in (0, 1, 2, 3, 8, 128, 512):
        c = rng.standard_normal(degree + 1)
        f = ChebFn(c)
        anti = 0.5 * ncheb.chebint(c)
        for x in xs:
            assert f(x) == ncheb.chebval(2.0 * x - 1.0, c), (degree, x)
        for arr in (np.array(xs), np.array(xs[:52]).reshape(4, 13)):
            got, expected = f(arr), ncheb.chebval(2.0 * arr - 1.0, c)
            assert got.shape == expected.shape and np.all(got == expected), degree
        for lo, hi in zip(xs, xs[1:] + [1.0]):
            lo, hi = min(lo, hi), max(lo, hi)
            expected = float(
                ncheb.chebval(2.0 * hi - 1.0, anti) - ncheb.chebval(2.0 * lo - 1.0, anti)
            )
            assert f.integrate_on(lo, hi) == expected, (degree, lo, hi)


def test_chop_length():
    assert chop_length(np.ones(16)) == 16  # too short to judge
    assert chop_length(np.zeros(40)) == 1
    assert chop_length(np.ones(40)) == 40  # no plateau
    # geometric decay to rounding level, then a noise plateau
    rng = np.random.default_rng(43)
    c = 0.5 ** np.arange(100) + 1e-17 * rng.standard_normal(100)
    n = chop_length(c)
    assert 45 <= n <= 56 and abs(c[n]) < 2e-16
    # the interpolant of the Gauss density decays like 0.17^k onto a
    # rounding plateau near 4e-15; the chop lands at its foot
    for degree in (64, 128, 256):
        c = ChebFn.from_callable(gauss_density, degree).coeffs
        n = chop_length(c)
        assert n < 25 and np.max(np.abs(c[n:])) < 1e-13, (degree, n)


def test_integrate_on_domain_errors():
    f = ChebFn.constant(1.0)
    with pytest.raises(ValueError):
        f.integrate_on(0.5, 0.2)
    with pytest.raises(ValueError):
        f.integrate_on(-0.1, 0.5)
    with pytest.raises(ValueError):
        f.integrate_on(0.5, 1.2)


def test_derivative_examples():
    assert norm_sup(ChebFn.constant(3.0, degree=6).derivative()) == 0.0
    # sampling a constant leaves rounding in the high modes, which
    # differentiation amplifies by the usual degree^2 factor
    assert norm_sup(ChebFn.from_callable(lambda x: 3.0, 6).derivative()) < 1e-12
    sq = ChebFn.from_callable(lambda x: x * x, 8)
    assert abs(sq.derivative()(0.5) - 1.0) < 1e-13


def test_derivative_degree():
    f = ChebFn.from_callable(lambda x: x**3, 5)
    assert f.derivative().degree == 4
    assert ChebFn.constant(2.0).derivative().degree == 0


def test_norm_sup_gauss_density():
    f = ChebFn.from_callable(gauss_density, degree=64)
    # maximum of the closed form sits at x = 0
    assert abs(norm_sup(f) - 1.0 / LN2) < 1e-13


def test_norm_cl():
    f = ChebFn.from_callable(lambda x: x * x, 8)
    # sup|f| + sup|f'| + sup|f''| = 1 + 2 + 2
    assert abs(norm_cl(f, 2) - 5.0) < 1e-12
    assert abs(norm_cl(f, 0) - norm_sup(f)) < 1e-15
    with pytest.raises(ValueError):
        norm_cl(f, 9)
    with pytest.raises(ValueError):
        norm_cl(f, -1)


def test_node_value_roundtrip():
    rng = np.random.default_rng(11)
    for degree in (4, 32, 128):
        vals = rng.standard_normal(degree + 1)
        f = ChebFn.from_values(vals)
        back = f(chebyshev_nodes(degree))
        assert np.max(np.abs(back - vals)) < 1e-13 * max(1.0, np.max(np.abs(vals)))


def test_linearity_property():
    rng = np.random.default_rng(5)
    xs = rng.random(20)
    for _ in range(30):
        a, b = rng.standard_normal(2)
        f = random_smooth_fn(rng)
        g = random_smooth_fn(rng)
        combo = linear_combo([(a, f), (b, g)])
        assert np.max(np.abs(combo(xs) - (a * f(xs) + b * g(xs)))) < 1e-13


def test_fundamental_theorem():
    rng = np.random.default_rng(6)
    for _ in range(30):
        f = random_smooth_fn(rng, degree=40)
        lo, hi = np.sort(rng.random(2))
        lhs = f.derivative().integrate_on(lo, hi)
        assert abs(lhs - (f(hi) - f(lo))) < 1e-12


def test_partition_additivity():
    rng = np.random.default_rng(7)
    for _ in range(30):
        f = random_smooth_fn(rng)
        c = rng.random()
        total = f.integrate_on(0.0, c) + f.integrate_on(c, 1.0)
        assert abs(total - f.integrate()) < 1e-13


def test_linear_combo_empty():
    with pytest.raises(ValueError):
        linear_combo([])


def test_immutable_coeffs():
    f = ChebFn.constant(1.0, degree=4)
    with pytest.raises(ValueError):
        f.coeffs[0] = 2.0
