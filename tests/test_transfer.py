"""Transfer operator application, discretization, fixed point, resolvent."""

import math
import warnings

import numpy as np
import numpy.polynomial.chebyshev as ncheb
import pytest
from scipy import special

from gaussrenyi import (
    ChebFn,
    ConvergenceError,
    DensityHistogram,
    DigitLaw,
    EmpiricalLaw,
    MapKind,
    OperatorMatrix,
    TailBoundWarning,
    annealed,
    apply_transfer,
    assemble_operator,
    hurwitz_zeta,
    invariant_density,
    norm_sup,
    quadrature_weights,
    resolvent_solve,
    tail_error_bound,
)
from gaussrenyi import funcspace, transfer
from gaussrenyi.funcspace import chebyshev_nodes

from conftest import random_smooth_fn

LN2 = math.log(2.0)


def gauss_density_fn(degree=128):
    return ChebFn.from_callable(lambda x: 1.0 / ((1.0 + x) * LN2), degree)


def zero_mean(f):
    return f - ChebFn.constant(f.integrate(), degree=0) * 1.0


# ---------------------------------------------------------------- zeta


def test_hurwitz_zeta_against_scipy():
    for s in (2, 3, 4, 6):
        for q in (9.0, 257.0, 1000.5):
            assert abs(hurwitz_zeta(s, q) - special.zeta(s, q)) < 1e-13
    qs = np.array([9.0, 20.0, 400.0])
    assert np.max(np.abs(hurwitz_zeta(3, qs) - special.zeta(3, qs))) < 1e-14
    # vector offsets a_max + 1 + node, where the branch tail starts
    for a_max in (8, 256):
        qs = a_max + 1.0 + chebyshev_nodes(128)
        for s in range(2, 8):
            exact = special.zeta(s, qs)
            assert np.max(np.abs(hurwitz_zeta(s, qs) / exact - 1.0)) < 1e-14


def test_hurwitz_zeta_validation():
    with pytest.raises(ValueError):
        hurwitz_zeta(1.0, 5.0)
    with pytest.raises(ValueError):
        hurwitz_zeta(3.0, -1.0)
    with pytest.raises(ValueError):
        hurwitz_zeta(math.nan, 1.0)
    with pytest.raises(ValueError):
        hurwitz_zeta(3.0, math.nan)


# ------------------------------------------------------- apply_transfer


def test_gauss_density_is_fixed():
    h0 = gauss_density_fn()
    image = apply_transfer(MapKind.GAUSS, h0)
    assert norm_sup(image - h0) < 1e-10


def test_transfer_of_one_is_trigamma():
    one = ChebFn.from_callable(lambda x: 1.0, 32)
    g = apply_transfer(MapKind.GAUSS, one)
    # brute-force branch sum with the analytic remainder of the series
    a = np.arange(1, 10**6 + 1, dtype=float)
    brute0 = float(np.sum(1.0 / a**2))
    assert abs(brute0 - math.pi**2 / 6) < 2e-6
    assert abs(g(0.0) - math.pi**2 / 6) < 1e-10
    ys = chebyshev_nodes(32)
    assert np.max(np.abs(g(ys) - special.polygamma(1, 1.0 + ys))) < 1e-12
    # both maps send their monomial in the distance to the accumulation
    # point, x^j (Gauss) and (1 - x)^j (Renyi), to zeta(j + 2, 1 + y); the
    # Euler-Maclaurin remainder on these is below 1e-18
    for degree in (32, 128):
        ys = chebyshev_nodes(degree)
        for j in range(4):
            exact = special.zeta(j + 2, 1.0 + ys)
            for kind, mono in ((MapKind.GAUSS, lambda x: x**j),
                               (MapKind.RENYI, lambda x: (1.0 - x) ** j)):
                image = apply_transfer(kind, ChebFn.from_callable(mono, degree))
                assert np.max(np.abs(image.values / exact - 1.0)) < 1e-12, (degree, j, kind)


def test_mass_conservation_random_functions():
    rng = np.random.default_rng(23)
    for kind in (MapKind.GAUSS, MapKind.RENYI):
        for _ in range(10):
            f = random_smooth_fn(rng, degree=64)
            # rescale to the documented example mass 0.7
            f = f - ChebFn.constant(f.integrate() - 0.7)
            g = apply_transfer(kind, f)
            bound = tail_error_bound(f)
            assert abs(g.integrate() - f.integrate()) < bound + 1e-12


def test_positivity():
    rng = np.random.default_rng(29)
    for kind in (MapKind.GAUSS, MapKind.RENYI):
        for fcall in (lambda x: math.exp(-x), lambda x: 1.0 + math.sin(3 * x) ** 2):
            f = ChebFn.from_callable(fcall, 64)
            g = apply_transfer(kind, f)
            bound = tail_error_bound(f)
            assert np.min(g.values) > -bound - 1e-13


def test_tail_error_bound_ignores_rounding_noise():
    # h0 = 1/((1+x) ln 2) has alternating Chebyshev coefficients, so the
    # Markov majorants are exact, s_i = sup|h0^(i)| = i!/ln 2 at x = 0, and
    # the Euler-Maclaurin bound at A = 257 takes this closed form at every
    # degree; the chop keeps the noise, amplified like k^(2i), out of it
    A = 257.0
    s = [math.factorial(i) / LN2 for i in range(7)]
    lah = (720, 1800, 1200, 300, 30, 1)
    exact = sum(
        L * A ** -(5 + i) / (5 + i) * (s[i] / A**2 + 2 * i * s[i - 1] / A + i * (i - 1) * s[i - 2])
        for i, L in enumerate(lah, start=1)
    ) / 15120
    rng = np.random.default_rng(31)
    for degree in (64, 128, 256, 512):
        f = gauss_density_fn(degree)
        assert abs(tail_error_bound(f) / exact - 1.0) < 1e-5, degree
        noisy = ChebFn.from_values(f.values + 2e-14 * rng.standard_normal(degree + 1))
        assert abs(tail_error_bound(noisy) / exact - 1.0) < 1e-5, degree


def test_tail_bound_warning():
    rough = ChebFn.from_callable(lambda x: math.cos(40 * math.pi * x), 128)
    with pytest.warns(TailBoundWarning):
        apply_transfer(MapKind.GAUSS, rough, a_max=8)


def test_tail_error_bound_covers_tail_error():
    # at a_max 8 the tail is far from exact; the a_max 4000 matrix is exact
    # to rounding here, so the difference is the tail error of a_max 8
    for fcall, degree in ((lambda x: 1.0 / ((1.0 + x) * LN2), 128),
                          (lambda x: math.exp(-x), 64),
                          (lambda x: math.cos(40 * math.pi * x), 128)):
        f = ChebFn.from_callable(fcall, degree)
        images = [assemble_operator(MapKind.GAUSS, degree, a_max).entries @ f.values
                  for a_max in (8, 4000)]
        err = float(np.max(np.abs(images[0] - images[1])))
        assert 1e-10 < err <= tail_error_bound(f, 8), degree


# ------------------------------------------------------ assemble_operator


@pytest.mark.parametrize("kind", [MapKind.GAUSS, MapKind.RENYI])
def test_quadrature_row(kind, ops32, ops128):
    for degree, ops in ((32, ops32), (128, ops128)):
        m = ops[0 if kind is MapKind.GAUSS else 1]
        q = quadrature_weights(degree)
        assert np.max(np.abs(q @ m.entries - q)) < 1e-10


def test_matrix_fixed_point_degree32():
    m = assemble_operator(MapKind.GAUSS, 32)
    h0 = gauss_density_fn(32)
    assert np.max(np.abs(m.entries @ h0.values - h0.values)) < 1e-9


def test_matrix_agrees_with_apply(ops128):
    m0, m1 = ops128
    rng = np.random.default_rng(31)
    for _ in range(20):
        f = ChebFn(rng.standard_normal(129) * 0.7 ** np.arange(129))
        for kind, m in ((MapKind.GAUSS, m0), (MapKind.RENYI, m1)):
            with warnings.catch_warnings():
                # rough draws legitimately trip the tail diagnostic
                warnings.simplefilter("ignore", TailBoundWarning)
                direct = apply_transfer(kind, f)
            via_matrix = m.entries @ f.values
            assert np.max(np.abs(via_matrix - direct.values)) < 1e-11


@pytest.mark.parametrize("degree", [8, 32, 128, 256])
def test_renyi_matrix_is_reflected_gauss(degree):
    # T1 = T0 o R with R(x) = 1 - x and symmetric nodes: L1 reverses the columns of L0
    for a_max in (256, 8, 64):
        m0 = assemble_operator(MapKind.GAUSS, degree, a_max)
        m1 = assemble_operator(MapKind.RENYI, degree, a_max)
        assert np.array_equal(m1.entries, m0.entries[:, ::-1]), a_max


@pytest.mark.parametrize("degree", [64, 128, 256, 512])
def test_gauss_second_eigenvalue_is_wirsing(degree):
    # Gauss-Kuzmin-Wirsing constant (Wirsing, Acta Arith. 24, 1974)
    wirsing = -0.3036630028987326586
    ev = np.linalg.eigvals(assemble_operator(MapKind.GAUSS, degree).entries)
    lam2 = ev[np.argsort(-np.abs(ev))[1]]
    assert abs(lam2.imag) < 1e-12
    assert abs(lam2.real / wirsing - 1.0) < 1e-12


@pytest.mark.parametrize("degree", [128, 256, 512])
def test_renyi_image_of_gauss_density_is_digamma(degree):
    # L1 h0(y) = sum_a 1/((a+y)^2 ln 2 (2 - 1/(a+y))) = (psi(1+y) - psi(1/2+y)) / ln 2
    # by partial fractions of 1/(z (2z - 1)); L1 h0 - h0 is the forcing term
    # of the first-order response
    y = chebyshev_nodes(degree)
    m1 = assemble_operator(MapKind.RENYI, degree)
    image = m1.entries @ gauss_density_fn(degree).values
    exact = (special.digamma(1.0 + y) - special.digamma(0.5 + y)) / LN2
    assert np.max(np.abs(image - exact)) < 5e-13


def test_assembly_memory_is_bounded():
    # the branch block is built column by column, never as an (a_max, n, n) array
    import tracemalloc

    from gaussrenyi import transfer as transfer_mod

    transfer_mod._collocation_matrix.cache_clear()
    tracemalloc.start()
    try:
        assemble_operator(MapKind.RENYI, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_one_cached_matrix_serves_both_maps():
    from gaussrenyi import transfer as transfer_mod

    transfer_mod._collocation_matrix.cache_clear()
    for kind in (MapKind.GAUSS, MapKind.RENYI):
        # a_max given by position or by keyword keys the same entry
        assemble_operator(kind, 16, 64)
        assemble_operator(kind, 16, a_max=64)
    assert transfer_mod._collocation_matrix.cache_info().currsize == 1


def test_assemble_validation():
    with pytest.raises(ValueError, match="degree must be at least 8"):
        assemble_operator(MapKind.GAUSS, 4)
    # apply_transfer takes the operator from assemble_operator, degree floor included
    with pytest.raises(ValueError, match="degree must be at least 8"):
        apply_transfer(MapKind.GAUSS, ChebFn.constant(1.0))
    assert OperatorMatrix(np.eye(9)).degree == 8
    with pytest.raises(TypeError):
        OperatorMatrix(np.eye(9), 8)  # the degree is derived, eps is keyword-only
    for shape in [(3, 4), (0, 0), (3,)]:
        with pytest.raises(ValueError):
            OperatorMatrix(np.zeros(shape))


def test_records_copy_the_callers_array():
    # a record freezes its own copy; the caller's array stays theirs
    records = [
        (lambda a: ChebFn(a).coeffs, np.ones(3)),
        (lambda a: OperatorMatrix(a).entries, np.eye(9)),
        (lambda a: DigitLaw(0.1, 3, a, 0.0).probs, np.full(5, 0.2)),
        (lambda a: EmpiricalLaw(a, 0).counts, np.arange(5, dtype=np.int64)),
        (lambda a: DensityHistogram(a).masses, np.full(4, 0.25)),
    ]
    for read, a in records:
        kept = read(a)
        before = kept.copy()
        assert a.flags.writeable and not kept.flags.writeable
        a[0] += 1
        assert np.array_equal(kept, before)


def test_kept_arrays_are_read_only():
    # the basis caches, the collocation cache, the node values and the
    # module constants are read-only, like the records
    kept = [
        funcspace.values_to_coeffs_matrix(16),
        funcspace.coeffs_to_values_matrix(16),
        funcspace.integral_row(16),
        funcspace.quadrature_weights(16),
        transfer._collocation_matrix(16, transfer.DEFAULT_A_MAX),
        ChebFn.constant(1.0, 16).values,
        funcspace.SUP_GRID,
        transfer._LAH_6,
    ]
    assert [a.flags.writeable for a in kept] == [False] * len(kept)


def test_cold_build_differentiates_between_uses(monkeypatch):
    # the tail reads the identity block and its first three derivatives:
    # three calls to chebder, none after the last use
    calls = []
    chebder = ncheb.chebder

    def counted(*args, **kwargs):
        calls.append(1)
        return chebder(*args, **kwargs)

    monkeypatch.setattr(ncheb, "chebder", counted)
    transfer._collocation_matrix.cache_clear()
    assemble_operator(MapKind.GAUSS, 16)
    assert len(calls) == 3


# ------------------------------------------------------------- annealed


def test_annealed_endpoints(ops32):
    m0, m1 = ops32
    assert np.array_equal(annealed(0.0, m0, m1).entries, m0.entries)
    assert np.array_equal(annealed(1.0, m0, m1).entries, m1.entries)
    mid = annealed(0.5, m0, m1)
    assert np.allclose(mid.entries, 0.5 * (m0.entries + m1.entries), atol=0)
    assert mid.eps == 0.5


def test_annealed_degree_mismatch(ops32, ops128):
    with pytest.raises(ValueError):
        annealed(0.1, ops32[0], ops128[1])


def test_annealed_out_of_range_warns(ops32):
    with pytest.warns(UserWarning, match="outside"):
        annealed(-0.001, *ops32)


# ----------------------------------------------------- invariant_density


def test_invariant_density_gauss(ops128):
    h = invariant_density(ops128[0])
    exact = gauss_density_fn()
    assert norm_sup(h - exact) < 1e-10
    assert abs(h.integrate() - 1.0) < 1e-12


def test_invariant_density_annealed(ops128, series3):
    m0, m1 = ops128
    m = annealed(0.05, m0, m1)
    h = invariant_density(m)
    assert abs(h.integrate() - 1.0) < 1e-12
    assert np.max(np.abs(m.entries @ h.values - h.values)) < 1e-12
    # cross-module consistency with the order-3 expansion
    assert norm_sup(h - series3.at(0.05)) < 3 * 0.05**4


def test_invariant_density_degree512():
    # each solve meets the 1e-12 residual contract inside invariant_density;
    # near the pure-Renyi end h_eps(0) grows, and degrees 256 and 512 agree
    ops = {d: (assemble_operator(MapKind.GAUSS, d), assemble_operator(MapKind.RENYI, d))
           for d in (256, 512)}
    expected = {0.9: 4.660095, 0.95: 7.416339, 0.99: 24.271333}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # eps above eps_max(2)
        for eps in (0.0, 0.3, 0.9, 0.95, 0.99):
            h = invariant_density(annealed(eps, *ops[512]))
            if eps in expected:
                coarse = invariant_density(annealed(eps, *ops[256]))
                assert abs(h(0.0) - coarse(0.0)) < 1e-6, eps
                assert abs(h(0.0) - expected[eps]) < 1e-6, eps


def test_invariant_density_warns_outside_admissible(ops32):
    m = annealed(0.85, *ops32)
    with pytest.warns(UserWarning, match="admissible"):
        invariant_density(m)


def test_invariant_density_rejects_pure_renyi(ops32):
    # at eps = 1 the Renyi density 1/x is not integrable; no
    # discretized fixed density passes the contract
    with pytest.raises(ConvergenceError), pytest.warns(UserWarning, match="admissible"):
        invariant_density(annealed(1.0, *ops32))


def test_invariant_density_rejects_bad_operator():
    # the negated identity has no fixed density; the bordered solve
    # returns a point whose residual violates the contract
    bad = OperatorMatrix(-np.eye(9))
    with pytest.raises(ConvergenceError):
        invariant_density(bad)


def test_invariant_density_rejects_singular_system():
    # every density is a fixed point of the identity, so none is singled out
    with pytest.raises(ConvergenceError, match="singular"):
        invariant_density(OperatorMatrix(np.eye(9)))


def test_solves_reject_nan_operator():
    # a NaN residual fails both gates instead of reaching ChebFn as bad input
    nan = OperatorMatrix(np.full((9, 9), np.nan))
    with pytest.raises(ConvergenceError, match="fixed-point residual nan"):
        invariant_density(nan)
    g = ChebFn(np.eye(9)[1])  # T_1(2x - 1) has zero mean
    with pytest.raises(ConvergenceError, match="resolvent residual nan"):
        resolvent_solve(nan, g)


def test_invariant_density_continuity(ops128):
    m0, m1 = ops128
    for eps in (0.0, 0.1, 0.2):
        h1 = invariant_density(annealed(eps, m0, m1))
        h2 = invariant_density(annealed(eps + 1e-6, m0, m1))
        assert norm_sup(h1 - h2) < 1e-4


# ------------------------------------------------------- resolvent_solve


def test_resolvent_zero(ops128):
    u = resolvent_solve(ops128[0], ChebFn(np.zeros(129)))
    assert norm_sup(u) == 0.0


def test_resolvent_first_order_response(ops128, h0_128):
    m0, m1 = ops128
    g1 = ChebFn.from_values(m1.entries @ h0_128.values - h0_128.values)
    u = resolvent_solve(m0, g1)
    n = m0.degree + 1
    res = (np.eye(n) - m0.entries) @ u.values - g1.values
    assert np.max(np.abs(res)) < 1e-9
    assert abs(u.integrate()) < 1e-10


def test_resolvent_random_and_neumann(ops128):
    m0, _ = ops128
    rng = np.random.default_rng(37)
    n = m0.degree + 1
    eye = np.eye(n)
    for _ in range(20):
        g = zero_mean(random_smooth_fn(rng, degree=128))
        u = resolvent_solve(m0, g)
        assert np.max(np.abs((eye - m0.entries) @ u.values - g.values)) < 1e-9
        assert abs(u.integrate()) < 1e-10
        # Neumann series sum_k L0^k g, truncated once increments are tiny
        acc = np.array(g.values)
        term = np.array(g.values)
        for _ in range(2000):
            term = m0.entries @ term
            acc += term
            if np.max(np.abs(term)) < 1e-11:
                break
        assert np.max(np.abs(acc - u.values)) < 1e-8


def test_resolvent_mean_precondition(ops128):
    with pytest.raises(ValueError, match="zero mean"):
        resolvent_solve(ops128[0], ChebFn.constant(0.3, degree=128))
