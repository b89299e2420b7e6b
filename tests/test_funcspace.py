"""Function space: interpolation, calculus and norms on [0, 1]."""

import math
import pickle
import re

import numpy as np
import numpy.polynomial.chebyshev as ncheb
import pytest

from gaussrenyi import ChebFn, chebyshev_nodes, linear_combo, norm_sup
from gaussrenyi.funcspace import SUP_GRID, _clenshaw, chop_length, chopped

from conftest import random_smooth_fn

LN2 = math.log(2.0)


def gauss_density(x):
    return 1.0 / ((1.0 + x) * LN2)


def test_constant_interpolation():
    f = ChebFn.from_callable(lambda x: 1.0, degree=4)
    assert abs(f(0.3) - 1.0) < 1e-15
    assert np.allclose(f.coeffs, [1.0, 0, 0, 0, 0], atol=1e-15)
    # one node: the degree-0 paths of every basis cache and of evaluation
    g = ChebFn.from_values([2.0])
    assert g.degree == 0
    assert g.values.tolist() == [2.0] and g.coeffs.tolist() == [2.0]
    assert g.integrate() == 2.0 and g(0.3) == 2.0


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
    with pytest.raises(ValueError):
        chebyshev_nodes(-1)
    with pytest.raises(ValueError, match="degree must be at least 0: -1"):
        ChebFn.constant(1.0, -1)


def test_from_callable_rejects_non_finite():
    with pytest.raises(ValueError, match="node x = 0.0"):
        ChebFn.from_callable(lambda x: 1.0 / x if x > 0 else math.inf, degree=8)
    # the constructor and from_values check shape and finiteness themselves
    for bad in ([], np.ones((2, 2)), [1.0, math.nan]):
        with pytest.raises(ValueError, match="one-dimensional|non-finite coefficient"):
            ChebFn(bad)
        with pytest.raises(ValueError, match="one-dimensional|non-finite node value"):
            ChebFn.from_values(bad)


def test_arithmetic_only_between_functions_and_scalars():
    f = ChebFn.constant(1.0, 4)
    with pytest.raises(TypeError):
        f + 1.0
    with pytest.raises(TypeError):
        f - 1.0
    # Python and NumPy reals, bool included, scale from either side; a
    # string that float() would parse does not
    for s in (2, 2.0, True, np.float64(2.0), np.int32(2), np.float32(2.0)):
        want = [float(s)] + [0.0] * 4
        assert (f * s).coeffs.tolist() == (s * f).coeffs.tolist() == want, repr(s)
    for bad in (f, "2", 2j, None):
        with pytest.raises(TypeError):
            f * bad
        with pytest.raises(TypeError):
            bad * f


def test_scalar_arguments_return_floats():
    # float, int, NumPy float and 0-d array arguments take the scalar path:
    # a float with chebval's bits, and the scalar message for a bad value
    c = np.random.default_rng(48).standard_normal(129)
    f = ChebFn(c)
    for x in (0.3, 1, 0, np.float64(0.3), np.array(0.7)):
        got = f(x)
        assert type(got) is float and got == ncheb.chebval(2.0 * float(x) - 1.0, c), repr(x)
    for bad in (1.5, -1, np.float64(-0.1), float("nan"), np.array(2.0)):
        message = f"argument outside [0, 1]: {float(bad)!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            f(bad)


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
        spans = [(min(lo, hi), max(lo, hi)) for lo, hi in zip(xs, xs[1:] + [1.0])]
        # repeated and reversed queries read the memo of the antiderivative
        for lo, hi in spans + spans[::-1] + spans[:3] * 2:
            expected = float(
                ncheb.chebval(2.0 * hi - 1.0, anti) - ncheb.chebval(2.0 * lo - 1.0, anti)
            )
            assert f.integrate_on(lo, hi) == expected, (degree, lo, hi)


def test_chop_length():
    assert chop_length(np.ones(16)) == 16  # too short to judge
    assert chop_length(np.zeros(40)) == 1
    assert chop_length(np.ones(40)) == 40  # no plateau
    # decay below tol^(7/6) before the plateau test's far point j2 = 26:
    # the cut is searched up to j3 + 1 = 20 instead
    assert chop_length(0.1 ** np.arange(40)) == 18
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


def _chop_length_loop(coeffs):
    # the plateau scan as a Python loop over j, kept as the oracle of chop_length
    tol = 2.0**-52
    n = len(coeffs)
    if n < 17:
        return n
    env = np.maximum.accumulate(np.abs(np.asarray(coeffs, dtype=float))[::-1])[::-1]
    if env[0] == 0.0:
        return 1
    env = env / env[0]
    for j in range(2, n + 1):
        j2 = math.floor(1.25 * j + 5.5)
        if j2 > n:
            return n
        e1, e2 = env[j - 1], env[j2 - 1]
        if e1 == 0.0 or e2 / e1 > 3.0 * (1.0 - math.log(e1) / math.log(tol)):
            break
    j3 = int(np.sum(env >= tol ** (7.0 / 6.0)))
    if j3 < j2:
        j2 = j3 + 1
        env[j2 - 1] = tol ** (7.0 / 6.0)
    cc = np.log10(env[:j2]) + np.linspace(0.0, -np.log10(tol) / 3.0, j2)
    return max(int(np.argmin(cc)), 1)


def test_chop_length_matches_the_loop():
    # the vectorised plateau test cuts every series where the loop does
    rng = np.random.default_rng(2017)
    family = [np.zeros(40), np.ones(40), 0.1 ** np.arange(40)]
    for _ in range(300):
        n = int(rng.integers(17, 300))
        k = np.arange(n)
        decay = rng.uniform(0.05, 0.95) ** k
        noise = 10.0 ** rng.uniform(-18, -10) * rng.standard_normal(n)
        c = decay + noise  # geometric decay onto a noise plateau
        zeros = c.copy()
        start = int(rng.integers(1, n))
        zeros[start : start + int(rng.integers(1, n))] = 0.0  # a zero run
        family += [c, zeros, decay, rng.standard_normal(n),  # no plateau
                   rng.uniform(1e-3, 0.2) ** k,  # below tol^(7/6) before j2
                   np.concatenate([decay[: n // 2], np.zeros(n - n // 2)])]
    cuts = [(chop_length(c), _chop_length_loop(c), len(c)) for c in family]
    assert all(new == old for new, old, _ in cuts)
    # the family reaches both exits: a cut, and no plateau at all
    assert any(new == n for new, _, n in cuts) and any(new < n for new, _, n in cuts)


def _chop_length_unplanned(coeffs):
    # chop_length with its plateau-test indices from floor(1.25 j + 5.5) and its
    # bias from linspace, kept as the oracle of the integer index arithmetic
    tol = 2.0**-52
    n = len(coeffs)
    if n < 17:
        return n
    env = np.maximum.accumulate(np.abs(np.asarray(coeffs, dtype=float))[::-1])[::-1]
    if env[0] == 0.0:
        return 1
    env = env / env[0]
    j = np.arange(2, n + 1)
    j2 = np.floor(1.25 * j + 5.5).astype(int)
    j, j2 = j[j2 <= n], j2[j2 <= n]
    e1, e2 = env[j - 1], env[j2 - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        hit = (e1 == 0.0) | (e2 / e1 > 3.0 * (1.0 - np.log(e1) / math.log(tol)))
    if not hit.any():
        return n
    j2 = int(j2[np.argmax(hit)])
    j3 = int(np.sum(env >= tol ** (7.0 / 6.0)))
    if j3 < j2:
        j2 = j3 + 1
        env[j2 - 1] = tol ** (7.0 / 6.0)
    cc = np.log10(env[:j2]) + np.linspace(0.0, -np.log10(tol) / 3.0, j2)
    return max(int(np.argmin(cc)), 1)


def test_chop_length_matches_the_unplanned_indices():
    # 20,000 seeded series, chopped ones with their trailing zeros included,
    # at lengths 1 to 600: the integer indices cut each where the float floor does
    rng = np.random.default_rng(27)
    family = []
    while len(family) < 20_000:
        n = int(rng.integers(1, 601))
        k = np.arange(n)
        decay = rng.uniform(0.05, 0.98) ** k
        c = decay + 10.0 ** rng.uniform(-18, -10) * rng.standard_normal(n)
        family += [c, chopped(ChebFn(c)).coeffs, rng.standard_normal(n),
                   rng.uniform(1e-3, 0.2) ** k]
    mismatches = [len(c) for c in family if chop_length(c) != _chop_length_unplanned(c)]
    assert mismatches == []


def test_chopped_zeroes_the_tail_and_keeps_the_integral():
    # geometric decay onto a noise plateau: the noise is cut, its exact
    # integral moves onto c_0, and the degree stays
    rng = np.random.default_rng(45)
    for decay in (0.2, 0.4, 0.6):
        c = decay ** np.arange(129) + 1e-16 * rng.standard_normal(129)
        f = ChebFn(c)
        g = chopped(f)
        n = chop_length(c)
        assert n < 129 and g.degree == f.degree
        assert np.array_equal(g.coeffs[1:n], c[1:n]) and not np.any(g.coeffs[n:])
        assert abs(g.integrate() - f.integrate()) <= 1e-15, decay
        assert np.array_equal(chopped(g).coeffs, g.coeffs)
    # nothing to cut: the function itself comes back
    h = ChebFn(0.5 ** np.arange(20))
    assert chopped(h) is h
    # a caller's own interpolant keeps its rounding tail
    assert np.any(ChebFn.from_callable(gauss_density, 128).coeffs[-8:])


def test_trailing_zeros_keep_numpys_bits():
    # evaluation and integrate_on stop at the last non-zero coefficient and
    # still give chebval's bits on the full stored array, zeros included
    rng = np.random.default_rng(46)
    xs = [0.0, 1.0, 1.0 / 3.0] + sorted(rng.uniform(0.0, 1.0, 30).tolist())
    arr = np.array(xs)
    heads = [[0.0], [0.7], [0.7, -0.2], [0.7, -0.2, 0.1]]
    heads += [rng.standard_normal(n) * 0.5 ** np.arange(n) for n in (5, 20, 60)]
    for head in heads:
        for zeros in (1, 2, 70):
            c = np.concatenate([head, np.zeros(zeros)])
            f = ChebFn(c)
            anti = 0.5 * ncheb.chebint(c)
            for x in xs:
                assert f(x) == ncheb.chebval(2.0 * x - 1.0, c), (len(head), zeros, x)
            assert np.array_equal(f(arr), ncheb.chebval(2.0 * arr - 1.0, c))
            for lo, hi in zip(xs, xs[1:]):
                lo, hi = min(lo, hi), max(lo, hi)
                want = ncheb.chebval(2.0 * hi - 1.0, anti) - ncheb.chebval(2.0 * lo - 1.0, anti)
                assert f.integrate_on(lo, hi) == float(want), (len(head), zeros, lo, hi)


def test_array_clenshaw_owns_its_result():
    # the array sums run in buffers made by each call: chebval's bits, and a
    # writeable result that shares memory with neither the input nor the
    # result of another call, while the input stays as it was
    rng = np.random.default_rng(47)
    xs = rng.uniform(0.0, 1.0, 104)
    inputs = [xs, xs[:52].reshape(4, 13), xs[:0], xs[::2], SUP_GRID]
    for n in (1, 2, 3, 8, 9, 20, 129):
        c = rng.standard_normal(n)
        f, r = ChebFn(c), c[::-1].tolist()
        for x in inputs:
            before = x.copy()
            # the sum itself on t = x, and the function at x, on t = 2x - 1
            for t, evaluate in ((x, lambda a: _clenshaw(r, a)), (2.0 * x - 1.0, f)):
                got, again = evaluate(x), evaluate(x)
                want = ncheb.chebval(t, c)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (n, x.shape)
                assert got.flags.writeable
                assert not np.shares_memory(got, x) and not np.shares_memory(got, again)
            assert x.tobytes() == before.tobytes()


def test_integrate_on_memo_is_bounded():
    # the memo of the antiderivative keeps its last few points, not all
    f = ChebFn(np.random.default_rng(44).standard_normal(129))
    ends = np.linspace(0.0, 1.0, 10**4 + 1).tolist()
    for lo, hi in zip(ends, ends[1:]):
        f.integrate_on(lo, hi)
    info = f._anti.cache_info()
    assert info.misses == len(ends) and info.currsize <= info.maxsize == 8


def test_pickle_round_trip_after_queries():
    f = ChebFn(np.random.default_rng(45).standard_normal(33))
    want = (f.integrate_on(0.2, 0.7), f(0.3))
    g = pickle.loads(pickle.dumps(f))
    assert g.coeffs.tobytes() == f.coeffs.tobytes()
    assert (g.integrate_on(0.2, 0.7), g(0.3)) == want


def test_integrate_on_domain_errors():
    f = ChebFn.constant(1.0)
    with pytest.raises(ValueError):
        f.integrate_on(0.5, 0.2)
    with pytest.raises(ValueError):
        f.integrate_on(-0.1, 0.5)
    with pytest.raises(ValueError):
        f.integrate_on(0.5, 1.2)


def test_norm_sup_gauss_density():
    f = ChebFn.from_callable(gauss_density, degree=64)
    # maximum of the closed form sits at x = 0
    assert abs(norm_sup(f) - 1.0 / LN2) < 1e-13


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
        # d/dx of sum c_k T_k(2x - 1) is 2 times chebder of the coefficients
        lhs = ChebFn(2.0 * ncheb.chebder(f.coeffs)).integrate_on(lo, hi)
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
