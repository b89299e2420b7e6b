"""Monte Carlo and brute-force references."""

import math

import numpy as np
import pytest
from scipy import stats

from gaussrenyi import (
    ChebFn,
    MapKind,
    SimConfig,
    apply_transfer,
    brute_force_transfer,
    digit_b,
    digit_cells,
    empirical_density,
    forward,
    gauss_kuzmin,
    simulate_digit_freq,
    tail_error_bound,
)

from conftest import random_smooth_fn

LN2 = math.log(2.0)


# ------------------------------------------------------------------ step


def test_forward_step_and_kernel_agree():
    # scalar forward and the array kernel are one map step, bit for bit,
    # including the fixed points x = 0 and x = 1, where the kernel's
    # digit inf is forward's digit 0
    from gaussrenyi.maps import map_step

    xs = np.concatenate([np.random.default_rng(5).random(10**4), [0.0, 1.0]])
    for bit, kind in ((0, MapKind.GAUSS), (1, MapKind.RENYI)):
        images, digits = map_step(np.full(xs.size, bit, dtype=np.int8), xs)
        assert np.count_nonzero(np.isinf(digits)) == 1
        for x, image, digit in zip(xs.tolist(), images.tolist(), digits.tolist()):
            assert forward(kind, x) == (image, 0 if digit == math.inf else digit)


# --------------------------------------------------------------- digit_b


def test_digit_b_examples():
    assert digit_b(0, 0, 0.18) == 5
    assert digit_b(0, 1, 0.22) == 5
    assert digit_b(1, 0, 0.82) == 5
    cell = digit_cells(5)[2]
    assert cell.contains(0.82)


def test_digit_b_undefined_point():
    with pytest.raises(ValueError):
        digit_b(0, 0, 0.0)
    with pytest.raises(ValueError):
        digit_b(1, 1, 1.0)


def test_digit_b_matches_cells():
    # exact agreement with the interval decomposition, conventions included
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(10**4):
        w1 = int(rng.integers(0, 2))
        w2 = int(rng.integers(0, 2))
        x = float(rng.random())
        n = digit_b(w1, w2, x)
        cell = digit_cells(n)[2 * w1 + w2]
        if not cell.contains(x):
            mismatches += 1
    assert mismatches == 0


# ------------------------------------------------------------- simulation


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(eps=1.5, samples=10)
    with pytest.raises(ValueError):
        SimConfig(eps=0.1, samples=0)
    with pytest.raises(ValueError):
        SimConfig(eps=0.1, samples=10, n_index=0)
    with pytest.raises(ValueError):
        SimConfig(eps=0.1, samples=10, burn_in=-1)


def test_reproducibility():
    cfg = SimConfig(eps=0.2, samples=5000, n_index=7, seed=99)
    a = simulate_digit_freq(cfg, 30)
    b = simulate_digit_freq(cfg, 30)
    assert np.array_equal(a.counts, b.counts)
    assert a.overflow == b.overflow and a.total == b.total


# (samples, n_index, n_max) -> (counts, overflow), recorded from the
# original implementation; 100_003 samples span several row blocks and
# end in a partial one
_GOLDEN_STREAM = [
    ((10**4, 20, 30), ([
        3277, 2530, 1108, 602, 414, 301, 207, 173, 123, 101,
        103, 63, 70, 80, 55, 57, 38, 35, 29, 30,
        29, 31, 25, 17, 14, 19, 19, 12, 16, 15,
    ], 407)),
    ((100_003, 20, 10),
     ([32382, 24846, 10845, 6364, 4179, 2873, 2251, 1767, 1450, 1154], 11892)),
    ((100_003, 1, 10),
     ([35169, 26545, 10826, 6025, 3773, 2715, 1966, 1585, 1197, 971], 9231)),
    ((100_003, 2, 10),
     ([31871, 25060, 10782, 6223, 4232, 3035, 2319, 1855, 1442, 1167], 12017)),
]


def test_seeded_stream_golden():
    # pins the seeded stream: counts and overflow exactly
    for (samples, n_index, n_max), (expected, overflow) in _GOLDEN_STREAM:
        cfg = SimConfig(eps=0.3, samples=samples, n_index=n_index, seed=7)
        law = simulate_digit_freq(cfg, n_max=n_max)
        assert law.counts.tolist() == expected, (samples, n_index)
        assert law.overflow == overflow, (samples, n_index)


@pytest.mark.parametrize("n_index", [1, 3, 20])
@pytest.mark.parametrize("eps", [0.0, 0.3, 1.0])
def test_block_sizes_do_not_change_the_stream(monkeypatch, eps, n_index):
    # odd block sizes split the orbits and the draws at other places and
    # end in partial blocks; the stream, counts and bins stay the same
    from gaussrenyi import simulate

    cfg = SimConfig(eps=eps, samples=1001, n_index=n_index, seed=7, burn_in=50)
    law, hist = simulate_digit_freq(cfg, 30), empirical_density(cfg, 20)
    for block, sel_bits in ((7, 40), (5, 13)):
        monkeypatch.setattr(simulate, "_BLOCK", block)
        monkeypatch.setattr(simulate, "_SEL_BITS", sel_bits)
        small = simulate_digit_freq(cfg, 30)
        assert small.counts.tolist() == law.counts.tolist(), (block, sel_bits)
        assert small.overflow == law.overflow, (block, sel_bits)
        assert empirical_density(cfg, 20).masses.tolist() == hist.masses.tolist()


def _traced_peak(fn, *args):
    import tracemalloc

    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_digit_freq_memory_is_bounded():
    # the map choices are drawn in sub-blocks and held as bits for one
    # block of orbits: the positions plus a few hundred kB of buffers
    cfg = SimConfig(eps=0.3, samples=10**6, n_index=20, seed=5)
    assert _traced_peak(simulate_digit_freq, cfg, 100) < 8 * cfg.samples + 3 * 2**20


def test_digit_freq_memory_is_bounded_in_n_index():
    # a late digit index shortens the block of orbits, so the selection bits
    # stay within 4 MiB: memory is O(samples + n_index), not O(block * n_index)
    cfg = SimConfig(eps=0.3, samples=4096, n_index=2000, seed=5)
    assert _traced_peak(simulate_digit_freq, cfg, 100) < 6 * 2**20


def test_empirical_density_memory_is_bounded():
    # the orbits step in place, chunk by chunk: positions, one draw chunk
    # reused for the digits, and the bits; no per-step arrays
    cfg = SimConfig(eps=0.3, samples=10**6, seed=5, burn_in=50)
    assert _traced_peak(empirical_density, cfg, 100) < 8 * cfg.samples + 2 * 2**20


def test_law_bookkeeping():
    cfg = SimConfig(eps=0.3, samples=20000, n_index=5, seed=4)
    law = simulate_digit_freq(cfg, 10)
    assert int(law.counts.sum()) + law.overflow == law.total == 20000
    assert np.all(law.std_errors() >= 0)


def test_first_digit_is_uniform_cell_measure():
    # with the deterministic leading Gauss choice and n = 1, the digit of
    # a uniform draw is just the cell it falls in
    cfg = SimConfig(eps=0.0, samples=10**6, n_index=1, seed=3)
    law = simulate_digit_freq(cfg, 40)
    freqs = law.frequencies()
    for n in (1, 2, 3, 7):
        p = 1.0 / n - 1.0 / (n + 1)
        se = math.sqrt(p * (1 - p) / law.total)
        assert abs(freqs[n - 1] - p) < 3 * se


def test_late_digit_follows_gauss_kuzmin():
    cfg = SimConfig(eps=0.0, samples=10**6, n_index=20, seed=7)
    law = simulate_digit_freq(cfg, 40)
    p = gauss_kuzmin(1)
    se = math.sqrt(p * (1 - p) / law.total)
    assert abs(law.frequencies()[0] - p) < 3 * se


# ------------------------------------------------------ empirical density


def test_empirical_density_requires_burn_in():
    with pytest.raises(ValueError):
        empirical_density(SimConfig(eps=0.0, samples=100, burn_in=10), 10)


# exact bin counts of SimConfig(eps=0.3, samples=10_007, seed=7, burn_in=50)
# with bins=20, recorded from the implementation that stepped on fresh
# arrays per step
_GOLDEN_DENSITY = [
    750, 697, 694, 655, 660, 589, 578, 510, 522, 437,
    419, 438, 474, 392, 411, 396, 363, 330, 343, 349,
]


# the same with 100_003 samples, which span several chunks and end in a
# partial one; recorded from the implementation that stepped whole arrays
_GOLDEN_DENSITY_CHUNKS = [
    7879, 7264, 6748, 6492, 6040, 5772, 5309, 5276, 5014, 4795,
    4525, 4473, 4134, 4062, 3890, 3848, 3790, 3652, 3625, 3415,
]


def test_density_stream_golden():
    # pins the seeded density stream: every bin count exactly
    for samples, golden in ((10_007, _GOLDEN_DENSITY), (100_003, _GOLDEN_DENSITY_CHUNKS)):
        cfg = SimConfig(eps=0.3, samples=samples, seed=7, burn_in=50)
        hist = empirical_density(cfg, bins=20)
        assert hist.masses.tolist() == [c / cfg.samples for c in golden], samples


def test_empirical_density_matches_gauss_measure():
    cfg = SimConfig(eps=0.0, samples=10**6, seed=5, burn_in=100)
    hist = empirical_density(cfg, bins=100)
    assert np.array_equal(hist.edges, np.linspace(0.0, 1.0, 101))
    assert abs(float(hist.masses.sum()) - 1.0) < 1e-12
    expected = np.log2((1 + hist.edges[1:]) / (1 + hist.edges[:-1]))
    se = np.sqrt(expected * (1 - expected) / cfg.samples)
    assert np.max(np.abs(hist.masses - expected) / se) < 4.0


def test_stationarity_kolmogorov_smirnov():
    # positions after burn-in against the Gauss measure CDF log2(1 + x)
    rng = np.random.default_rng(42)
    samples = 10**6
    x = rng.random(samples)
    from gaussrenyi.maps import map_step

    for _ in range(100):
        bits = np.zeros(samples, dtype=np.int8)
        x = map_step(bits, x)[0]
    result = stats.kstest(x, lambda t: np.log2(1.0 + t))
    assert result.pvalue > 0.001


def test_histogram_chi2_against_series(series3):
    cfg = SimConfig(eps=0.05, samples=10**6, seed=99, burn_in=100)
    hist = empirical_density(cfg, bins=100)
    h = series3.at(0.05)
    expected = np.array(
        [h.integrate_on(lo, hi) for lo, hi in zip(hist.edges[:-1], hist.edges[1:])]
    )
    counts = hist.masses * cfg.samples
    exp_counts = expected / expected.sum() * cfg.samples
    chi2, pvalue = stats.chisquare(counts, exp_counts)
    assert pvalue > 0.001


# ---------------------------------------------------------- brute force


def test_brute_force_trigamma():
    one = ChebFn.constant(1.0, degree=8)
    value = brute_force_transfer(MapKind.GAUSS, one, 0.0)
    assert abs(value - math.pi**2 / 6) < 1e-6


def test_brute_force_matches_tail_model():
    rng = np.random.default_rng(13)
    a_huge = 10**6
    f = random_smooth_fn(rng, degree=32, decay=0.5)
    bound = tail_error_bound(f)
    # the truncated sum misses roughly f(x*) / a_huge of tail mass, where
    # x* = 0 (Gauss) or 1 (Renyi) is the branch accumulation point
    for kind, xstar, points in (
        (MapKind.GAUSS, 0.0, 20),
        (MapKind.RENYI, 1.0, 5),
    ):
        g = apply_transfer(kind, f)
        slack = 1e-9 + 1.1 * abs(f(xstar)) / a_huge + bound
        for y in np.linspace(0.0, 1.0, points):
            direct = brute_force_transfer(kind, f, float(y))
            assert abs(direct - g(float(y))) < slack


def test_brute_force_renyi_gauss_density(h0_128):
    g = apply_transfer(MapKind.RENYI, h0_128)
    direct = brute_force_transfer(MapKind.RENYI, h0_128, 0.5)
    assert abs(direct - g(0.5)) < 1e-9 + 1e-6


def test_brute_force_validation():
    with pytest.raises(TypeError):
        brute_force_transfer("gauss", ChebFn.constant(1.0), 0.0)
    with pytest.raises(ValueError):
        brute_force_transfer(MapKind.GAUSS, ChebFn.constant(1.0), 1.5)
