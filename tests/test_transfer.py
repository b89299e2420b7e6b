"""Transfer operator application, discretization, fixed point, resolvent."""

import copy
import math
import pickle
import re
import warnings

import numpy as np
import numpy.polynomial.chebyshev as ncheb
import pytest
from scipy import special

from gaussrenyi import (
    ChebFn,
    ConvergenceError,
    DensityHistogram,
    DigitCell,
    DigitLaw,
    EmpiricalLaw,
    MapKind,
    OperatorMatrix,
    PerturbationSeries,
    SimConfig,
    TailBoundWarning,
    annealed,
    apply_transfer,
    assemble_operator,
    digit_law,
    invariant_density,
    mixture_forcing_terms,
    mixture_series,
    norm_sup,
    quadrature_weights,
    resolvent_solve,
    response_table,
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


def _tail_error_bound_jets(f, a_max):
    # the Markov majorants s_i rebuilt on every call, kept as the oracle of tail_error_bound
    c = np.abs(f.coeffs[: funcspace.chop_length(f.coeffs)])
    k = np.arange(len(c))
    jet = np.ones(len(c))
    s = np.empty(7)
    for i in range(7):
        s[i] = c @ jet
        jet = 2.0 * jet * (k * k - i * i) / (2 * i + 1)
    A = a_max + 1.0
    i = np.arange(1, 7)
    moments = s[1:] / A**2 + 2 * i * s[:-1] / A + i * (i - 1) * np.append(0.0, s[:-2])
    lah = np.array([720.0, 1800.0, 1200.0, 300.0, 30.0, 1.0])  # Lah numbers L(6, i)
    return float(np.sum(lah * A ** -(5.0 + i) / (5 + i) * moments)) / 15120


def test_tail_error_bound_matches_the_per_call_jets(ops128, h0_128):
    # the cached row gives the per-call majorant sums on h0, c_1..c_20 and
    # the fixed densities at 20 weights, low band and edge, to the rounding
    # of a different summation order; the cached row is the one a fresh
    # build makes, bit for bit
    m0, m1 = ops128
    fns = [h0_128, *mixture_series(h0_128, m0, m1, 20).coeffs]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # eps above eps_max(2)
        fns += [invariant_density(annealed(eps, m0, m1)) for eps in np.linspace(0.0, 0.99, 20)]
    for f in fns:
        for a_max in (8, 64, transfer.DEFAULT_A_MAX):
            want = _tail_error_bound_jets(f, a_max)
            assert abs(tail_error_bound(f, a_max) / want - 1.0) <= 2e-15
    for a_max in (8, 64, transfer.DEFAULT_A_MAX):
        row = transfer._tail_row(129, a_max)
        assert np.array_equal(row, transfer._tail_row.__wrapped__(129, a_max))


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


@pytest.mark.parametrize("degree, limit_mib", [(128, 0.95), (512, 14.0)])
def test_cold_build_peak_is_the_larger_half(degree, limit_mib):
    # the branch block's (a_max, width) arrays are freed before the tail's
    # (n, n) products are made; keeping both alive traced 2.3 and 18.1 MiB,
    # and one (a_max, n) block for every node traced 1.39 MiB at degree 128
    import tracemalloc

    transfer._collocation_matrix(degree, transfer.DEFAULT_A_MAX)  # warms the basis caches
    transfer._collocation_matrix.cache_clear()
    tracemalloc.start()
    try:
        transfer._collocation_matrix(degree, transfer.DEFAULT_A_MAX)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2**20


def test_large_a_max_costs_time_not_memory():
    # the branch sum walks the nodes in blocks of at most _BLOCK elements
    # (16 nodes at least); one (a_max, n) block for every node traced 40.5 MiB
    import tracemalloc

    transfer._collocation_matrix.cache_clear()
    tracemalloc.start()
    try:
        assemble_operator(MapKind.GAUSS, 128, a_max=8192)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


@pytest.mark.parametrize("degree, a_max, blocks", [(16, 256, 1), (128, 256, 3), (512, 256, 9),
                                                   (128, 8192, 8)])
def test_node_blocks_keep_the_bits(monkeypatch, degree, a_max, blocks):
    # numpy sums axis 0 of a block at least two columns wide row by row, as
    # it sums the whole (a_max, n) array; a one-column block is summed pairwise
    widths = []
    split = np.array_split

    def recorded(nodes, sections):
        parts = split(nodes, sections)
        widths.extend(len(part) for part in parts)
        return parts

    monkeypatch.setattr(np, "array_split", recorded)
    y = funcspace.chebyshev_nodes(degree)
    B = transfer._branch_block(y, a_max)
    assert len(widths) == blocks and sum(widths) == degree + 1 and min(widths) >= 2
    # the recurrence of the branch sum on P_k = w T_k, over every node at once
    a = np.arange(1, a_max + 1, dtype=float)[:, None]
    w = 1.0 / (a + y) ** 2
    t = 2.0 * (1.0 / (a + y)) - 1.0
    one_block = np.empty_like(B)
    P_prev, P = w * t, w
    for k in range(degree + 1):
        one_block[:, k] = P.sum(0)
        P_prev, P = P, P * (2.0 * t) - P_prev
    assert np.array_equal(B, one_block)


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


def test_records_compare_and_hash():
    # a record that holds an array or a ChebFn compares and hashes by
    # identity, as ChebFn does; a record of scalars compares by value
    by_identity = [
        lambda: ChebFn(np.ones(3)),
        lambda: OperatorMatrix(np.eye(9)),
        lambda: DigitLaw(0.1, 3, np.full(5, 0.2), 0.0),
        lambda: EmpiricalLaw(np.arange(5, dtype=np.int64), 0),
        lambda: DensityHistogram(np.full(4, 0.25)),
        lambda: PerturbationSeries(ChebFn(np.ones(3)), (), 0),
    ]
    for make in by_identity:
        a, b = make(), make()
        assert a == a and a != b and hash(a) == object.__hash__(a), type(a).__name__
    by_value = [
        lambda: DigitCell(0, 1, 0.25, 0.5),
        lambda: SimConfig(0.1, 10, seed=3),
    ]
    for make in by_value:
        a, b = make(), make()
        assert a == b and hash(a) == hash(b), type(a).__name__


def test_records_stay_read_only_through_pickle_and_deepcopy():
    # a copy is rebuilt through the constructor, keyword fields included,
    # and its derived state is recomputed when first needed
    f = ChebFn(np.random.default_rng(46).standard_normal(17))
    f(0.3), f(np.array([0.1, 0.9])), f.integrate_on(0.2, 0.7)
    ops = [assemble_operator(k, 16) for k in MapKind]
    m = _solved(annealed(0.3, *ops))
    s = PerturbationSeries(f, [f, 2.0 * f], 2, m0=ops[0], m1=ops[1])
    s.at(0.3)
    assert "m0" not in repr(s) and "OperatorMatrix" not in repr(s)  # no matrix printed
    records = [
        (f, lambda r: [r.coeffs, r.values]),
        (m, lambda r: [r.entries, r._deflated_inv]),
        (DigitLaw(0.1, 3, np.full(5, 0.2), 0.0), lambda r: [r.probs]),
        (EmpiricalLaw(np.arange(5, dtype=np.int64), 1), lambda r: [r.counts]),
        (DensityHistogram(np.full(4, 0.25)), lambda r: [r.masses]),
        (s, lambda r: [r.at(0.3).coeffs, r.m0.entries, r.m1.entries]),
    ]
    for record, arrays in records:
        for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert type(copied) is type(record) and copied is not record
            assert repr(copied) == repr(record)
            assert not {"values", "_rlist", "_anti", "_deflated_inv", "_at"} & vars(copied).keys()
            for got, want in zip(arrays(copied), arrays(record)):
                assert not got.flags.writeable, type(record).__name__
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert pickle.loads(pickle.dumps(m)).eps == copy.deepcopy(m).eps == 0.3


def test_module_caches_are_keyed_by_degree_alone():
    # a degree-128 pipeline leaves one entry in every module-level cache of
    # funcspace and transfer: each is keyed by the degree (and a_max) only
    keys = {
        "values_to_coeffs_matrix": (128,),
        "coeffs_to_values_matrix": (128,),
        "integral_row": (128,),
        "quadrature_weights": (128,),
        "_collocation_matrix": (128, transfer.DEFAULT_A_MAX),
        "_tail_row": (129, transfer.DEFAULT_A_MAX),
    }
    caches = {
        name: fn
        for module in (funcspace, transfer)
        for name, fn in vars(module).items()
        if hasattr(fn, "cache_info") and fn.__module__ == module.__name__
    }
    for fn in caches.values():
        fn.cache_clear()
    m0, m1 = (assemble_operator(kind, 128) for kind in MapKind)
    h0 = invariant_density(m0)
    series = mixture_series(h0, m0, m1, order=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 0.9 and 0.97 lie outside the admissible range
        for eps in (0.1, 0.5, 0.9, 0.97):
            for f in (invariant_density(annealed(eps, m0, m1)), series.at(eps)):
                tail_error_bound(f)
            digit_law(eps, series)
    sizes = {name: fn.cache_info().currsize for name, fn in caches.items()}
    assert sizes == dict.fromkeys(keys, 1)
    for name, fn in caches.items():
        kept = fn(*keys[name])  # a hit: the one entry is this key's
        assert fn.cache_info().currsize == 1 and not kept.flags.writeable, name


def test_kept_arrays_are_read_only():
    # the basis caches, the collocation cache, the tail rows, the node values
    # and the module constants are read-only, like the records
    kept = [
        funcspace.values_to_coeffs_matrix(16),
        funcspace.coeffs_to_values_matrix(16),
        funcspace.integral_row(16),
        funcspace.quadrature_weights(16),
        transfer._collocation_matrix(16, transfer.DEFAULT_A_MAX),
        ChebFn.constant(1.0, 16).values,
        funcspace.SUP_GRID,
        transfer._tail_row(17, transfer.DEFAULT_A_MAX),
        _solved(assemble_operator(MapKind.GAUSS, 16))._deflated_inv,
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


@pytest.mark.parametrize("degree, limit", [(128, 1e-14), (512, 5e-14)])
def test_solved_density_keeps_no_rounding_tail(degree, limit):
    # the solve's rounding tail is cut, so the computed Gauss density sits
    # within a few ulps of the closed form; unchopped it read 2.7e-14 at
    # degree 128 and 1.7e-13 at 512, growing with the degree
    h = invariant_density(assemble_operator(MapKind.GAUSS, degree))
    x = funcspace.SUP_GRID
    assert np.max(np.abs(h(x) - 1.0 / ((1.0 + x) * LN2))) < limit


@pytest.mark.parametrize("degree", [32, 128, 512])
def test_chop_keeps_mass_and_mean_and_settles(degree):
    # the cut tail's integral moves onto c_0: a density keeps the mass of
    # its solve and a series coefficient its zero mean, and a solved
    # function chopped again is unchanged
    m0, m1 = (assemble_operator(kind, degree) for kind in (MapKind.GAUSS, MapKind.RENYI))
    rhs = np.ones(degree + 1)
    for eps in (0.0, 0.3, 0.6, 0.8):
        m = annealed(eps, m0, m1)
        h = invariant_density(m)
        solved = ChebFn.from_values(np.linalg.solve(transfer._deflated_matrix(m), rhs))
        assert abs(h.integrate() - solved.integrate()) <= 1e-15, eps
        assert abs(h.integrate() - 1.0) <= 1e-15, eps
        assert np.array_equal(funcspace.chopped(h).coeffs, h.coeffs), eps
    series = mixture_series(invariant_density(m0), m0, m1, 20)
    for k, c in enumerate(series.coeffs, 1):
        assert abs(c.integrate()) <= 1e-15, k
        assert np.array_equal(funcspace.chopped(c).coeffs, c.coeffs), k
    # at degree 32 the chop does not always find a plateau; above it, every one is cut
    if degree > 32:
        assert all(c.coeffs[-1] == 0.0 for c in (h, *series.coeffs))


def test_invariant_density_warns_outside_admissible(ops32):
    m = annealed(0.85, *ops32)
    with pytest.warns(UserWarning, match="admissible"):
        invariant_density(m)


def test_invariant_density_rejects_pure_renyi():
    # at eps = 1 the Renyi density 1/x is not integrable; no discretized
    # fixed density passes the contract, and the grid refuses it at every
    # degree: the solve itself is sound, residual 2.6e-11 against
    # max|v| = 9.4e4 at degree 512, so the residual gate lets it through
    for degree, dip in ((32, "-8.749e+01 on the grid"), (128, ""), (256, ""), (512, "")):
        m0, m1 = (assemble_operator(kind, degree) for kind in (MapKind.GAUSS, MapKind.RENYI))
        with pytest.raises(ConvergenceError, match=re.escape(f"density dips to {dip}")), \
                pytest.warns(UserWarning, match="admissible"):
            invariant_density(annealed(1.0, m0, m1))


def test_degree512_accepts_the_edge():
    # at eps 0.9999 the solve's residual is near 1e-12 against max|v| = 1.2e3,
    # a relative 1e-15: a sound solve, whatever side of an absolute 1e-12 it
    # rounds to, so the residual gate must accept it
    m0, m1 = (assemble_operator(kind, 512) for kind in (MapKind.GAUSS, MapKind.RENYI))
    m = annealed(0.9999, m0, m1)
    with pytest.warns(UserWarning, match="admissible"):
        h = invariant_density(m)
    assert abs(h.integrate() - 1.0) < 1e-12
    assert np.max(np.abs(m.entries @ h.values - h.values)) < 1e-12 * np.max(h.values)


@pytest.mark.parametrize("degree", [32, 128])
def test_negativity_decided_by_the_grid(degree, ops32, ops128):
    # the coefficient certificate only skips the grid sum: the chopped
    # density is returned exactly when it stays above -1e-10 on SUP_GRID
    m0, m1 = ops32 if degree == 32 else ops128
    rhs = np.ones(degree + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # eps above eps_max(2)
        for eps in (0.0, 0.3, 0.6, 0.8, 0.85, 0.9, 0.95, 0.99, 1.0):
            m = annealed(eps, m0, m1)
            v = np.linalg.solve(transfer._deflated_matrix(m), rhs)
            solved = funcspace.chopped(ChebFn.from_values(v))
            grid_min = float(np.min(solved(funcspace.SUP_GRID)))
            if grid_min >= -1e-10:
                assert np.array_equal(invariant_density(m).coeffs, solved.coeffs), eps
            else:
                with pytest.raises(ConvergenceError, match=re.escape(f"dips to {grid_min:.3e} ")):
                    invariant_density(m)


@pytest.fixture
def grid_calls(monkeypatch):
    # the coefficient count of each ChebFn evaluated on the whole SUP_GRID: a
    # full-length grid sum has degree + 1, the certificate's head fewer
    on_grid = []
    call = ChebFn.__call__

    def counted(f, x):
        if x is funcspace.SUP_GRID:
            on_grid.append(f.coeffs.size)
        return call(f, x)

    monkeypatch.setattr(ChebFn, "__call__", counted)
    return on_grid


def test_certificate_skips_the_grid_sum(grid_calls, ops128):
    # the coefficients certify positivity at eps 0.1 with the head of 8 and
    # at eps 0.99 with the head of 64: minimum 0.240 against a tail of 0.014
    counts = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # eps above eps_max(2)
        for eps in (0.1, 0.99):
            grid_calls.clear()
            invariant_density(annealed(eps, *ops128))
            counts.append(grid_calls.count(129))
    assert counts == [0, 0]


@pytest.mark.parametrize("degree, tail, accepted, grid_sums", [
    pytest.param(16, {8: 0.5}, True, 0, id="tail0-True-0"),  # h >= 1 - 0.5: certified
    # h >= 1 - 1.125 * 0.55, but the tail sums to 1.1
    pytest.param(16, {8: 0.55, 16: 0.55}, True, 1, id="tail1-True-1"),
    pytest.param(16, {8: -2.0}, False, 1, id="tail2-False-1"),  # a head of 1, yet h dips to -1
    # 1 - 0.9 T_1 has minimum 0.1, below the tail 0.3 of the pair beyond it; the
    # pair is small where T_1 is near 1, so only the head of 32 or 64 certifies
    pytest.param(64, {1: -0.9, 19: 0.15, 21: -0.15}, True, 0, id="head32-certifies"),
    pytest.param(128, {1: -0.9, 39: 0.15, 41: -0.15}, True, 0, id="head64-certifies"),
    # the head of 64 is chosen (tail 0.12 <= 1/8), has minimum 0.069, below
    # its tail, and h stays above 0.033: the grid decides and accepts
    pytest.param(128, {1: -0.9, 39: 0.12, 41: -0.12, 69: 0.06, 71: -0.06}, True, 1,
                 id="head64-grid-accepts"),
    # the head of 64 is h itself, and h dips to -1
    pytest.param(128, {40: -2.0}, False, 1, id="head64-grid-refuses"),
])
def test_certificate_is_sound(grid_calls, degree, tail, accepted, grid_sums):
    # M = v q^T has the unit-mass fixed density v, here h = T_0 + sum_k tail[k] T_k scaled
    c = np.zeros(degree + 1)
    c[0] = 1.0
    c[list(tail)] = list(tail.values())
    h = ChebFn(c)
    m = OperatorMatrix(np.outer(h.values / h.integrate(), quadrature_weights(degree)))
    if accepted:
        assert np.allclose(invariant_density(m).coeffs, c / h.integrate(), rtol=0, atol=1e-14)
    else:
        with pytest.raises(ConvergenceError, match="dips to"):
            invariant_density(m)
    assert grid_calls.count(degree + 1) == grid_sums


def test_invariant_density_rejects_bad_operator():
    # the negated identity has no fixed density; the deflated solve
    # returns a point whose residual violates the contract
    bad = OperatorMatrix(-np.eye(9))
    with pytest.raises(ConvergenceError):
        invariant_density(bad)


def test_invariant_density_rejects_singular_system():
    # every density is a fixed point of the identity, so none is singled out
    with pytest.raises(ConvergenceError, match="singular"):
        invariant_density(OperatorMatrix(np.eye(9)))


def test_one_residual_gate_scales_with_the_solution():
    # both solves refuse max|u - M u - g| above 1e-12 max(1, max|u|), or NaN
    m = OperatorMatrix(np.zeros((9, 9)))
    for top in (1e-3, 1.0, 1e4):
        u = np.full(9, top)
        limit = 1e-12 * max(1.0, top)
        assert np.allclose(transfer._gated(m, u, u - 0.99 * limit, "resolvent").values, top)
        with pytest.raises(ConvergenceError, match=f"resolvent residual .* exceeds {limit:.3e}"):
            transfer._gated(m, u, u - 1.01 * limit, "resolvent")
        with pytest.raises(ConvergenceError, match="fixed-point residual nan"):
            transfer._gated(m, u, np.full(9, np.nan), "fixed-point")


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


def _solved(m):
    # a record after one resolvent solve, so it holds its deflated inverse
    resolvent_solve(m, ChebFn(np.eye(m.degree + 1)[1]))  # T_1(2x - 1) has zero mean
    return m


def test_resolvent_inverts_once_per_operator(monkeypatch):
    calls = []
    inv = np.linalg.inv

    def counted(a):
        calls.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    m0, m1 = (assemble_operator(kind, 128) for kind in (MapKind.GAUSS, MapKind.RENYI))
    h0 = invariant_density(m0)
    mixture_series(h0, m0, m1, 20)
    response_table(mixture_forcing_terms(h0, m1, 20), m0, m1, 20)
    assert calls == [(129, 129)]


def test_deflated_inverse_is_private_to_its_record():
    a, b = assemble_operator(MapKind.GAUSS, 32), assemble_operator(MapKind.GAUSS, 32)
    assert "_deflated_inv" not in vars(a) and "_deflated_inv" not in vars(b)
    inv = _solved(a)._deflated_inv
    assert "_deflated_inv" not in vars(b)
    # a second solve on the record reads the same inverse object
    assert _solved(a)._deflated_inv is inv
    # the memo takes no part in repr, and equality is identity
    assert a == a and a != b and hash(a) == object.__hash__(a)
    assert repr(a) == repr(b) and "_deflated_inv" not in repr(a)


def test_resolvent_rejects_singular_system():
    with pytest.raises(ConvergenceError, match="singular"):
        resolvent_solve(OperatorMatrix(np.eye(9)), ChebFn(np.eye(9)[1]))


@pytest.mark.parametrize("degree", [32, 512])
def test_stored_inverse_agrees_with_solve(degree):
    # the stored inverse answers what a fresh solve of the deflated system
    # does, both chopped, and keeps the mean as small as the solve's
    m0, m1 = (assemble_operator(kind, degree) for kind in (MapKind.GAUSS, MapKind.RENYI))
    A = transfer._deflated_matrix(m0)
    g = mixture_forcing_terms(invariant_density(m0), m1, 1)[0]
    for _ in range(2):  # the first solve inverts, the second reads the memo
        u = resolvent_solve(m0, g)
        direct = np.linalg.solve(A, g.values)
        want = funcspace.chopped(ChebFn.from_values(direct))
        assert np.max(np.abs(u.values - want.values)) < 1e-13
        assert abs(u.integrate()) < 2e-16
        g = ChebFn.from_values((m1.entries - m0.entries) @ u.values)


def test_resolvent_mean_precondition(ops128):
    with pytest.raises(ValueError, match="zero mean"):
        resolvent_solve(ops128[0], ChebFn.constant(0.3, degree=128))


def test_resolvent_mean_is_judged_by_the_precondition_alone(ops128):
    # a mean below 1e-10 is taken off before the solve, so the residual gate
    # does not read it as a numerical failure; the mean itself was the
    # residual when the solve was gated against g with its mean
    m0 = ops128[0]
    t1 = ChebFn(np.eye(129)[1])  # T_1(2x - 1) has zero mean
    want = resolvent_solve(m0, t1)
    for mu in (2e-12, 1e-11, 5e-11):
        u = resolvent_solve(m0, t1 + ChebFn.constant(mu, degree=128))
        assert np.max(np.abs(u.values - want.values)) <= 1e-15, mu
        assert abs(u.integrate()) < 2e-16, mu
    with pytest.raises(ValueError, match="zero mean"):
        resolvent_solve(m0, t1 + ChebFn.constant(2e-10, degree=128))


@pytest.mark.parametrize("degree", [32, 128])
def test_one_matrix_serves_both_solves(degree):
    # the cached inverse of I - M + 1q maps the constant 1 to the fixed
    # density, and q is a left fixed row of that matrix
    m0 = assemble_operator(MapKind.GAUSS, degree)
    h = invariant_density(m0)
    inv = _solved(m0)._deflated_inv
    assert np.max(np.abs(inv @ np.ones(degree + 1) - h.values)) <= 1e-13
    q = funcspace.quadrature_weights(degree)
    assert np.max(np.abs(q @ transfer._deflated_matrix(m0) - q)) <= 1e-15
