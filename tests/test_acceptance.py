"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line once its assertions hold, so running
with -s (or reading the -v test names) gives a one-line-per-criterion
report.
"""

import math
import time

import numpy as np

import gaussrenyi.transfer as transfer_mod
from gaussrenyi import (
    ChebFn,
    MapKind,
    PerturbationSeries,
    SimConfig,
    annealed,
    apply_transfer,
    assemble_operator,
    c_bound,
    density_derivative,
    digit_b,
    digit_cells,
    digit_law,
    digit_probability,
    eps_max,
    invariant_density,
    mixture_forcing_terms,
    mixture_series,
    norm_sup,
    resolvent_solve,
    response_table,
    simulate_digit_freq,
    tail_error_bound,
    theta_bound,
)

from conftest import random_smooth_fn

LN2 = math.log(2.0)


def _clear_caches():
    transfer_mod._collocation_matrix.cache_clear()


def test_criterion_01_gauss_fixed_point():
    _clear_caches()
    start = time.perf_counter()
    m0 = assemble_operator(MapKind.GAUSS, 128)
    h0 = invariant_density(m0)
    residual = norm_sup(apply_transfer(MapKind.GAUSS, h0) - h0)
    elapsed = time.perf_counter() - start
    assert residual < 1e-10, f"fixed-point residual {residual:.3e}"
    # independent of the operator: the closed-form Gauss density
    exact = norm_sup(h0 - ChebFn.from_callable(lambda x: 1.0 / ((1.0 + x) * LN2), 128))
    assert exact < 1e-10, f"distance to 1/((1+x) ln 2) {exact:.3e}"
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    print(f"criterion 1 PASS: |L0 h0 - h0|_sup = {residual:.2e} in {elapsed:.2f}s")


def test_criterion_02_gauss_kuzmin_reproduction(h0_128):
    worst = 0.0
    for n in range(1, 21):
        mass = h0_128.integrate_on(1.0 / (n + 1), 1.0 / n)
        closed = math.log((1 + 1 / n) / (1 + 1 / (n + 1))) / LN2
        worst = max(worst, abs(mass - closed))
    assert worst < 1e-10, f"worst digit-cell deviation {worst:.3e}"
    print(f"criterion 2 PASS: Gauss-Kuzmin masses match to {worst:.2e}")


def test_criterion_03_digit5_cell_constants(h0_128):
    cells = [(1 / 6, 1 / 5), (1 / 5, 1 / 4), (4 / 5, 5 / 6), (3 / 4, 4 / 5)]
    closed = [
        math.log(36 / 35) / LN2,
        math.log(25 / 24) / LN2,
        math.log(55 / 54) / LN2,
        math.log(36 / 35) / LN2,
    ]
    worst = max(
        abs(h0_128.integrate_on(lo, hi) - ref) for (lo, hi), ref in zip(cells, closed)
    )
    assert worst < 1e-10, f"worst N=5 cell deviation {worst:.3e}"
    print(f"criterion 3 PASS: N=5 cell integrals match to {worst:.2e}")


def test_criterion_04_order_of_accuracy():
    _clear_caches()
    start = time.perf_counter()
    m0 = assemble_operator(MapKind.GAUSS, 128)
    m1 = assemble_operator(MapKind.RENYI, 128)
    h0 = invariant_density(m0)
    series = mixture_series(h0, m0, m1, 3)
    eps_grid = np.array([0.01, 0.02, 0.04])
    references = [invariant_density(annealed(e, m0, m1)) for e in eps_grid]
    slopes = {}
    for k in (1, 2, 3):
        truncated = PerturbationSeries(series.h0, series.coeffs[:k], k)
        errors = [
            norm_sup(truncated.at(e) - ref) for e, ref in zip(eps_grid, references)
        ]
        slopes[k] = float(np.polyfit(np.log(eps_grid), np.log(errors), 1)[0])
    elapsed = time.perf_counter() - start
    for k, slope in slopes.items():
        assert k + 0.7 <= slope <= k + 1.3, f"order {k} slope {slope:.3f}"
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"
    print(
        "criterion 4 PASS: slopes "
        + ", ".join(f"k={k}: {s:.3f}" for k, s in slopes.items())
        + f" in {elapsed:.2f}s"
    )


def test_criterion_05_path_equivalence(ops128, h0_128, series3):
    m0, m1 = ops128
    forcing = mixture_forcing_terms(h0_128, m1, 3)
    table = response_table(forcing, m0, m1, 3)
    worst = 0.0
    for n in range(1, 4):
        generic = (1.0 / math.factorial(n)) * density_derivative(table, n)
        worst = max(worst, norm_sup(series3.coeffs[n - 1] - generic))
    assert worst < 1e-9, f"path disagreement {worst:.3e}"
    print(f"criterion 5 PASS: generic and fast paths agree to {worst:.2e}")


def test_criterion_06_resolvent_contract(ops128):
    m0, _ = ops128
    rng = np.random.default_rng(61)
    n = m0.degree + 1
    eye = np.eye(n)
    worst_res, worst_neumann = 0.0, 0.0
    for _ in range(20):
        f = random_smooth_fn(rng, degree=128)
        g = f - ChebFn.constant(f.integrate())
        u = resolvent_solve(m0, g)
        worst_res = max(
            worst_res, float(np.max(np.abs((eye - m0.entries) @ u.values - g.values)))
        )
        acc = np.array(g.values)
        term = np.array(g.values)
        for _ in range(2000):
            term = m0.entries @ term
            acc += term
            if np.max(np.abs(term)) < 1e-11:
                break
        worst_neumann = max(worst_neumann, float(np.max(np.abs(acc - u.values))))
    assert worst_res < 1e-9, f"resolvent residual {worst_res:.3e}"
    assert worst_neumann < 1e-8, f"Neumann cross-check {worst_neumann:.3e}"
    print(
        f"criterion 6 PASS: residual {worst_res:.2e}, "
        f"Neumann gap {worst_neumann:.2e} over 20 draws"
    )


def test_criterion_07_lasota_yorke_constants():
    assert abs(theta_bound(2) - 0.2339229) < 1e-6
    assert abs(c_bound(2) - 1.1714229) < 1e-6
    assert abs(eps_max(2) - 0.8171489) < 1e-6
    thetas = [theta_bound(i) for i in range(2, 9)]
    cs = [c_bound(i) for i in range(2, 9)]
    assert np.all(np.diff(thetas) < 0) and np.all(np.diff(cs) < 0)
    print(
        f"criterion 7 PASS: theta(2)={theta_bound(2):.7f}, "
        f"c(2)={c_bound(2):.7f}, eps_max(2)={eps_max(2):.7f}, monotone to i=8"
    )


def test_criterion_08_monte_carlo_consistency(series2):
    start = time.perf_counter()
    cfg = SimConfig(eps=0.1, samples=10**6, n_index=20, seed=12345)
    law = simulate_digit_freq(cfg, 50)
    freqs = law.frequencies()
    margins = []
    for n in range(1, 6):
        p = digit_probability(n, 0.1, series2)
        se = math.sqrt(p * (1 - p) / law.total)
        gap = abs(freqs[n - 1] - p)
        margins.append((n, gap, 3 * se + 2e-3))
        assert gap < 3 * se + 2e-3, f"digit {n}: gap {gap:.2e} vs {3 * se + 2e-3:.2e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"runtime {elapsed:.2f}s exceeds 120s"
    worst = max(g / t for _, g, t in margins)
    print(
        f"criterion 8 PASS: digits 1..5 within tolerance "
        f"(worst at {worst:.2f} of budget) in {elapsed:.2f}s"
    )


def test_criterion_09_mass_and_positivity_suite(ops128, series3):
    m0, m1 = ops128
    rng = np.random.default_rng(91)
    checks = 0
    # 100 mass-conservation checks of apply_transfer
    import warnings as _warnings

    from gaussrenyi import TailBoundWarning

    for i in range(100):
        kind = MapKind.GAUSS if i % 2 == 0 else MapKind.RENYI
        f = random_smooth_fn(rng, degree=64)
        with _warnings.catch_warnings():
            # rough draws may trip the tail diagnostic; conservation
            # holds either way since the bound enters the tolerance
            _warnings.simplefilter("ignore", TailBoundWarning)
            g = apply_transfer(kind, f)
        assert abs(g.integrate() - f.integrate()) < tail_error_bound(f) + 1e-12
        checks += 1
    # 50 zero-mean closure checks across the perturbation pipeline
    series5 = mixture_series(series3.h0, m0, m1, 5)
    for c in series5.coeffs:
        assert abs(c.integrate()) < 1e-9
        checks += 1
    forcing = mixture_forcing_terms(series3.h0, m1, 4)
    table = response_table(forcing, m0, m1, 4)
    for entry in table.values():  # 10 entries for order 4
        assert abs(entry.integrate()) < 1e-9
        checks += 1
    for _ in range(35):
        f = random_smooth_fn(rng, degree=128)
        g = f - ChebFn.constant(f.integrate())
        assert abs(resolvent_solve(m0, g).integrate()) < 1e-9
        checks += 1
    # 50 digit-law normalization checks
    for _ in range(50):
        eps = float(rng.uniform(0.0, 0.35))
        n_max = int(rng.integers(5, 80))
        law = digit_law(eps, series3, n_max)
        assert abs(float(law.probs.sum()) + law.tail_mass - 1.0) < 1e-8
        checks += 1
    assert checks == 200
    print(f"criterion 9 PASS: {checks} randomized property checks")


def test_criterion_10_digit_cell_exactness():
    rng = np.random.default_rng(1001)
    mismatches = 0
    for _ in range(10**4):
        w1 = int(rng.integers(0, 2))
        w2 = int(rng.integers(0, 2))
        x = float(rng.random())
        n = digit_b(w1, w2, x)
        if not digit_cells(n)[2 * w1 + w2].contains(x):
            mismatches += 1
    assert mismatches == 0, f"{mismatches} mismatches"
    print("criterion 10 PASS: 10^4 digit/cell memberships agree exactly")
