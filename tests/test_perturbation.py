"""Taylor expansion of the stationary density in the mixture weight."""

import math
import re
import warnings

import numpy as np
import pytest

from gaussrenyi import (
    ChebFn,
    MapKind,
    OperatorMatrix,
    PerturbationSeries,
    annealed,
    assemble_operator,
    brute_force_transfer,
    density_derivative,
    invariant_density,
    linear_combo,
    mixture_forcing_terms,
    mixture_series,
    norm_sup,
    residual,
    resolvent_solve,
    response_table,
)

from conftest import random_smooth_fn


@pytest.fixture(scope="module")
def forcing(ops128, h0_128):
    return mixture_forcing_terms(h0_128, ops128[1], 3)


@pytest.fixture(scope="module")
def table(forcing, ops128):
    m0, m1 = ops128
    return response_table(forcing, m0, m1, 3)


def _resolvent_of(eps, m0, m1, g):
    # the affine family (1 - eps) M0 + eps M1, probed on both sides of eps = 0
    return resolvent_solve(OperatorMatrix(m0.entries + eps * (m1.entries - m0.entries)), g)


# --------------------------------------------------------- forcing terms


def test_forcing_higher_terms_vanish(forcing):
    assert norm_sup(forcing[1]) == 0.0
    assert norm_sup(forcing[2]) == 0.0


def test_forcing_first_term_zero_mean(forcing):
    assert abs(forcing[0].integrate()) < 1e-10


def test_forcing_value_against_brute_force(forcing, h0_128):
    # (L1 h0)(0) - h0(0) via plain branch summation to a = 1e6; the
    # truncated series misses about sup|h0| / 1e6 of the value
    brute = brute_force_transfer(MapKind.RENYI, h0_128, 0.0) - h0_128(0.0)
    assert abs(forcing[0](0.0) - brute) < 2e-6


def test_forcing_rejects_badly_scaled_input(h0_128, ops128):
    # an operator violating mass conservation must be flagged
    n = h0_128.degree + 1
    bogus = OperatorMatrix(1.1 * np.eye(n))
    with pytest.raises(RuntimeError, match="mean"):
        mixture_forcing_terms(h0_128, bogus, 1)
    # a leak of 5e-10 exceeds the one zero-mean limit, 1e-10, that
    # resolvent_solve reads too, so the forcing term refuses it first
    m0, m1 = ops128
    e0 = np.eye(n)[0]
    leaky = OperatorMatrix(m1.entries + 5e-10 * np.outer(np.ones(n), e0 / h0_128.values[0]))
    with pytest.raises(RuntimeError, match="mean"):
        mixture_series(h0_128, m0, leaky)


def test_forcing_accepts_any_input_under_the_true_operator(ops128):
    # mean(L1 f - f) = (q @ M1 - q) . f vanishes for every f when M1
    # conserves mass: a function far from the fixed density passes
    rng = np.random.default_rng(17)
    for _ in range(3):
        f = 1e3 * random_smooth_fn(rng, degree=128)
        g1 = mixture_forcing_terms(f, ops128[1], 1)[0]
        assert norm_sup(g1) > 1.0 and abs(g1.integrate()) < 1e-9


def test_forcing_order_validation(h0_128, ops128, forcing, table):
    with pytest.raises(ValueError):
        mixture_forcing_terms(h0_128, ops128[1], 0)
    with pytest.raises(ValueError, match="order must be at least 1"):
        response_table(forcing, *ops128, 0)
    with pytest.raises(ValueError, match="need 4 forcing terms, got 3"):
        response_table(forcing, *ops128, 4)
    with pytest.raises(ValueError):
        density_derivative(table, 0)
    with pytest.raises(ValueError, match="derivative order 4 exceeds the table's order 3"):
        density_derivative(table, 4)


# -------------------------------------------------------- response table


def test_response_first_entry_is_resolvent(table, forcing, ops128):
    direct = resolvent_solve(ops128[0], forcing[0])
    assert norm_sup(table[(1, 0)] - direct) == 0.0


def test_response_vanishes_with_forcing(table):
    for (i, j), entry in table.items():
        if i >= 2:
            assert norm_sup(entry) == 0.0


def test_response_entries_zero_mean(table):
    for entry in table.values():
        assert abs(entry.integrate()) < 1e-9


def test_response_forward_difference(table, forcing, ops128):
    m0, m1 = ops128
    delta = 1e-4
    fd = (1.0 / delta) * (
        _resolvent_of(delta, m0, m1, forcing[0])
        - resolvent_solve(m0, forcing[0])
    )
    # forward difference carries an O(delta) bias
    assert norm_sup(table[(1, 1)] - fd) < 10 * delta


@pytest.mark.parametrize("j", [1, 2])
def test_response_central_difference(j, table, forcing, ops128):
    m0, m1 = ops128
    d = 1e-3
    g = forcing[0]
    if j == 1:
        fd = (1.0 / (2 * d)) * (
            _resolvent_of(d, m0, m1, g) - _resolvent_of(-d, m0, m1, g)
        )
    else:
        fd = (1.0 / d**2) * (
            _resolvent_of(d, m0, m1, g)
            + (-2.0) * resolvent_solve(m0, g)
            + _resolvent_of(-d, m0, m1, g)
        )
    assert norm_sup(table[(1, j)] - fd) / norm_sup(fd) < 1e-4


# ---------------------------------------------------- density derivative


def test_derivative_n1(table):
    assert norm_sup(density_derivative(table, 1) - table[(1, 0)]) == 0.0


def test_derivative_n2(table):
    expected = 2.0 * table[(1, 1)] + table[(2, 0)]
    assert norm_sup(density_derivative(table, 2) - expected) < 1e-15


def test_derivative_n3_single_term(table):
    # only the i = 1 term survives for the affine mixture
    expected = 3.0 * table[(1, 2)]
    assert norm_sup(density_derivative(table, 3) - expected) < 1e-15


# ----------------------------------------------------------- fast path


def test_series_first_coefficient(series3, forcing, ops128):
    direct = resolvent_solve(ops128[0], forcing[0])
    assert norm_sup(series3.coeffs[0] - direct) == 0.0


def test_series_coefficients_zero_mean(series3):
    for c in series3.coeffs:
        assert abs(c.integrate()) < 1e-9


def test_path_equivalence(series3, table):
    # generic recombination against the direct recursion, order by order
    for n in range(1, 4):
        generic = (1.0 / math.factorial(n)) * density_derivative(table, n)
        assert norm_sup(series3.coeffs[n - 1] - generic) < 1e-9


def test_series_against_eigensolve(series3, ops128):
    m0, m1 = ops128
    h_ref = invariant_density(annealed(0.05, m0, m1))
    order2 = PerturbationSeries(series3.h0, series3.coeffs[:2], 2)
    assert norm_sup(order2.at(0.05) - h_ref) < 10 * 0.05**3


# ------------------------------------------------------------ evaluation


def test_at_trivial(series3, h0_128):
    assert norm_sup(series3.at(0.0) - h0_128) == 0.0
    order1 = PerturbationSeries(series3.h0, series3.coeffs[:1], 1)
    manual = h0_128 + 0.1 * series3.coeffs[0]
    assert norm_sup(order1.at(0.1) - manual) < 1e-15


def test_at_mass(series3):
    for eps in (0.0, 0.05, 0.2):
        assert abs(series3.at(eps).integrate() - 1.0) < 1e-9


def test_at_negative_eps(series3):
    with pytest.raises(ValueError):
        series3.at(-0.1)


def test_at_memo_returns_the_same_function(series3):
    s = PerturbationSeries(series3.h0, series3.coeffs, 3)
    h = s.at(0.2)
    assert s.at(0.2) is h
    assert s.at(0.2).integrate_on(0.1, 0.5) == h.integrate_on(0.1, 0.5)


def test_at_memo_is_not_reused_at_another_weight(series3):
    s = PerturbationSeries(series3.h0, series3.coeffs, 3)
    s.at(0.3)
    fresh = linear_combo(
        [(1.0, s.h0)] + [(0.1 ** (n + 1), c) for n, c in enumerate(s.coeffs)]
    )
    got = s.at(0.1)
    assert got.coeffs.tobytes() == fresh.coeffs.tobytes()
    assert s.at(0.3).coeffs.tobytes() != got.coeffs.tobytes()


def test_at_sums_like_linear_combo():
    # at sums h0 + sum_n eps^n c_n with the bits of linear_combo on the
    # same terms, mixed degrees included
    rng = np.random.default_rng(27)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # eps above eps_max(2)
        for order in range(1, 21):
            degrees = rng.choice([32, 64, 128, 256, 512], size=order + 1)
            if order % 2:
                degrees[:] = degrees[0]
            parts = [random_smooth_fn(rng, int(d), rng.uniform(0.3, 0.95)) for d in degrees]
            s = PerturbationSeries(parts[0], tuple(parts[1:]), order)
            for eps in [0.0, 1.0, *rng.uniform(0.0, 1.0, 5)]:
                want = linear_combo([(1.0, parts[0])]
                                    + [(eps**n, c) for n, c in enumerate(parts[1:], start=1)])
                assert s.at(eps).coeffs.tobytes() == want.coeffs.tobytes(), (order, eps)


def test_at_memo_keeps_the_weight_check(series3):
    s = PerturbationSeries(series3.h0, series3.coeffs, 3)
    h = s.at(0.1)
    assert s.at(0.1) is h
    with pytest.raises(ValueError):
        s.at(-0.1)
    with pytest.raises(ValueError, match=r"mixture weight outside \[0, 1\]: nan"):
        s.at(float("nan"))
    assert s.at(0.1) is h  # a refused weight leaves the memo alone


def test_at_refuses_a_non_finite_expansion_by_name(ops32):
    # a weight outside [0, 1], whose expansion may overflow, is refused by
    # the range rule before any build: no admissible-range warning, and the
    # memo is kept
    m0, m1 = ops32
    s = mixture_series(invariant_density(m0), m0, m1, 3)
    h = s.at(0.1)
    for eps in (float("nan"), -0.1, math.nextafter(1.0, 2.0), 1e10, 1e200, float("inf")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = re.escape(f"mixture weight outside [0, 1]: {eps!r}")
            with pytest.raises(ValueError, match=want):
                s.at(eps)
        assert s.at(0.1) is h, eps
    assert s.at(0.0).coeffs.tobytes() == s.h0.coeffs.tobytes()
    with pytest.warns(UserWarning, match="admissible range"):
        assert np.all(np.isfinite(s.at(1.0).coeffs))


def test_series_keeps_its_coefficients_from_a_list(series3):
    # the caller's list is copied into a tuple, so a later write to the list
    # changes neither the coefficients nor h_eps, memoised or built afterwards
    given = list(series3.coeffs)
    s = PerturbationSeries(series3.h0, given, 3)
    h = s.at(0.3)
    given[0] = 2.0 * given[0]
    given.append(given[1])
    assert type(s.coeffs) is tuple and len(s.coeffs) == 3
    assert all(a is b for a, b in zip(s.coeffs, series3.coeffs))
    assert s.at(0.3) is h
    for eps in (0.1, 0.3):
        want = PerturbationSeries(series3.h0, series3.coeffs, 3).at(eps)
        assert s.at(eps).coeffs.tobytes() == want.coeffs.tobytes(), eps


def test_at_memo_outside_equality_and_repr(series3):
    fresh = PerturbationSeries(series3.h0, series3.coeffs, 3)
    used = PerturbationSeries(series3.h0, series3.coeffs, 3)
    used.at(0.1)
    # equality and hashing are by identity, so the memo cannot enter them
    assert used == used and used != fresh and hash(used) == object.__hash__(used)
    assert repr(used) == repr(fresh) and "_at" not in repr(used)


def test_series_order_validation(h0_128, ops128, series3):
    with pytest.raises(ValueError):
        mixture_series(h0_128, *ops128, order=0)
    with pytest.raises(ValueError):
        PerturbationSeries(h0_128, (), 2)
    with pytest.raises(TypeError):  # the order is a count, so an integer
        PerturbationSeries(h0_128, series3.coeffs, 3.0)
    with pytest.raises(ValueError, match="degree mismatch"):
        residual(0.1, ChebFn.constant(1.0, 8), *ops128)


# ------------------------------------------------------ the series' operators


def test_truncated_keeps_the_operators(series3):
    for k in range(series3.order + 1):
        t = series3.truncated(k)
        assert t.order == k and t.coeffs == series3.coeffs[:k]
        assert t.m0 is series3.m0 and t.m1 is series3.m1
    with pytest.raises(ValueError, match="does not match"):
        series3.truncated(series3.order + 1)


def test_residual_needs_the_operators(series3):
    with pytest.raises(ValueError, match="mixture_series"):
        PerturbationSeries(series3.h0, series3.coeffs, 3).residual(0.1)
    # and a probability, as at does
    with pytest.raises(ValueError, match=r"mixture weight outside \[0, 1\]: 1.2"):
        series3.residual(1.2)


@pytest.mark.parametrize("ops", ["ops32", "ops128"])
def test_truncated_matches_the_positional_rebuild_bit_for_bit(ops, request):
    m0, m1 = request.getfixturevalue(ops)
    series = mixture_series(invariant_density(m0), m0, m1, 3)
    for k in range(series.order + 1):
        truncated = series.truncated(k)
        rebuilt = PerturbationSeries(series.h0, series.coeffs[:k], k)
        for eps in (0.01, 0.1, 0.5):
            want = rebuilt.at(eps)
            assert truncated.at(eps).coeffs.tobytes() == want.coeffs.tobytes(), (k, eps)
            assert truncated.residual(eps) == residual(eps, want, m0, m1), (k, eps)


# -------------------------------------------------------------- residual


def test_residual_of_fixed_point(ops128):
    m0, m1 = ops128
    h = invariant_density(annealed(0.07, m0, m1))
    assert residual(0.07, h, m0, m1) < 1e-11


def test_residual_linearity(ops128, h0_128):
    m0, m1 = ops128
    lhs = residual(0.1, h0_128, m0, m1)
    g1_sup = float(np.max(np.abs(m1.entries @ h0_128.values - h0_128.values)))
    assert abs(lhs - 0.1 * g1_sup) < 1e-12


def test_residual_order2_frozen_constant(series3, ops128):
    # constant fitted once from the eps-grid study and frozen: the
    # order-2 residual is eps^3 times roughly 0.45
    m0, m1 = ops128
    order2 = PerturbationSeries(series3.h0, series3.coeffs[:2], 2)
    eps = 0.05
    assert residual(eps, order2.at(eps), m0, m1) < 0.5 * eps**3


def test_residual_slope(series3, ops128):
    m0, m1 = ops128
    grid = np.array([0.01, 0.02, 0.04])
    values = [residual(e, series3.at(e), m0, m1) for e in grid]
    slope = np.polyfit(np.log(grid), np.log(values), 1)[0]
    assert 3.7 < slope < 4.3


def test_residual_takes_two_mat_vecs(series3, ops128):
    # (1 - eps) M0 h + eps M1 h - h agrees with the mixture matrix's residual
    m0, m1 = ops128
    for eps in (0.0, 0.3, 0.9):
        for h in (series3.h0, series3.at(0.05)):
            v = h.values
            mixed = float(np.max(np.abs(annealed(eps, m0, m1).entries @ v - v)))
            assert abs(residual(eps, h, m0, m1) - mixed) <= 1e-15 * np.max(np.abs(v)), eps
    m1_64 = assemble_operator(MapKind.RENYI, 64)
    with pytest.raises(ValueError, match="degree mismatch"):
        residual(0.1, series3.h0, m0, m1_64)
