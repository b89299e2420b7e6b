"""Gauss-Kuzmin law and the digit law of the random expansion."""

import math
import re
from decimal import Decimal, localcontext

import numpy as np
import numpy.polynomial.chebyshev as ncheb
import pytest

from gaussrenyi import (
    ChebFn,
    NormalizationError,
    PerturbationSeries,
    SimConfig,
    digit_cells,
    digit_law,
    digit_probability,
    gauss_kuzmin,
    gauss_kuzmin_tail,
    simulate_digit_freq,
)

LN2 = math.log(2.0)


# ---------------------------------------------------------- closed forms


def _decimal_log2(x):
    # log2 of a Decimal in 50 digits
    with localcontext() as ctx:
        ctx.prec = 50
        return x.ln() / Decimal(2).ln()


def test_gauss_kuzmin_values():
    # log2(4/3) and log2(36/35) in 50 digits
    assert abs(gauss_kuzmin(1) - float(_decimal_log2(Decimal(4) / 3))) < 1e-16
    assert abs(gauss_kuzmin(1) - 0.4150375) < 1e-7
    assert abs(gauss_kuzmin(5) - float(_decimal_log2(Decimal(36) / 35))) < 1e-16
    assert abs(gauss_kuzmin(5) - 0.0406420) < 1e-7


@pytest.mark.parametrize("n", [1000, 10**6, 10**17])
def test_gauss_kuzmin_far_digits(n):
    # the ratio (1 + 1/n) / (1 + 1/(n+1)) rounds to 1 at n = 10^17
    with localcontext() as ctx:
        ctx.prec = 50
        law = _decimal_log2((1 + 1 / Decimal(n)) / (1 + 1 / Decimal(n + 1)))
        tail = _decimal_log2(1 + 1 / Decimal(n + 1))
    assert abs(gauss_kuzmin(n) / float(law) - 1.0) < 1e-14
    assert abs(gauss_kuzmin_tail(n) / float(tail) - 1.0) < 1e-14


def test_gauss_kuzmin_sums_to_one():
    ns = np.arange(1, 10**6 + 1)
    total = float(np.sum(np.log2((1 + 1 / ns) / (1 + 1 / (ns + 1)))))
    assert abs(total + gauss_kuzmin_tail(10**6) - 1.0) < 1e-9


def test_gauss_kuzmin_validation():
    with pytest.raises(ValueError):
        gauss_kuzmin(0)
    with pytest.raises(ValueError):
        gauss_kuzmin_tail(0)


# ------------------------------------------------------------ digit cells


def test_digit_cells_n5():
    cells = digit_cells(5)
    intervals = [(c.lo, c.hi) for c in cells]
    assert intervals == [
        (1 / 6, 1 / 5),
        (1 / 5, 1 / 4),
        (1 - 1 / 5, 1 - 1 / 6),
        (1 - 1 / 4, 1 - 1 / 5),
    ]
    assert [c.weight_exponents for c in cells] == [(2, 0), (1, 1), (1, 1), (0, 2)]


def test_digit_cells_n1():
    cells = digit_cells(1)
    assert not cells[0].is_empty and cells[0].lo == 0.5 and cells[0].hi == 1.0
    assert cells[1].is_empty
    assert not cells[2].is_empty and cells[2].lo == 0.0 and cells[2].hi == 0.5
    assert cells[3].is_empty
    # the point cells (1, 1] and [0, 0) contain neither end of [0, 1]
    assert not any(c.contains(x) for c in (cells[1], cells[3]) for x in (0.0, 1.0))
    with pytest.raises(ValueError):
        digit_cells(0)


def test_digit_cells_disjoint_n3():
    # pairwise intersections carry no mass; single shared endpoints are
    # possible (for N = 3 the (0,1) and (1,1) cells both touch 1/2) and
    # harmless since the cells weight disjoint events
    cells = [c for c in digit_cells(3) if not c.is_empty]
    for i, a in enumerate(cells):
        for b in cells[i + 1 :]:
            assert min(a.hi, b.hi) - max(a.lo, b.lo) <= 0.0


def test_cell_weights_sum_to_one():
    for eps in (0.0, 0.1, 0.5):
        assert abs(sum(c.weight(eps) for c in digit_cells(4)) - 1.0) < 1e-15


def test_cell_families_tile():
    # each (omega1, omega2) family covers (0, 1) without overlap: the
    # digit containing x is predictable, and only that cell may hit
    rng = np.random.default_rng(41)
    xs = rng.random(2000)
    for which in range(4):
        for x in xs:
            if which == 0:
                n_hit = int(1.0 // x)
            elif which == 1:
                n_hit = int(1.0 // x) + 1
            elif which == 2:
                n_hit = int(1.0 // (1.0 - x))
            else:
                n_hit = int(1.0 // (1.0 - x)) + 1
            candidates = [n for n in (n_hit - 1, n_hit, n_hit + 1) if n >= 1]
            hits = [n for n in candidates if digit_cells(n)[which].contains(x)]
            assert hits == [n_hit]


# ------------------------------------------------------ digit probability


def test_probability_reduces_to_gauss_kuzmin(series3):
    for n in (1, 2, 5, 13):
        assert abs(digit_probability(n, 0.0, series3) - gauss_kuzmin(n)) < 1e-12


def test_probability_order_zero_closed_form(h0_128):
    # with the bare base density the four cell integrals have closed forms
    base = PerturbationSeries(h0_128, (), 0)
    eps = 0.03
    expected = (
        (1 - eps) ** 2 * math.log(36 / 35)
        + (1 - eps) * eps * math.log(25 / 24)
        + eps * (1 - eps) * math.log(55 / 54)
        + eps**2 * math.log(36 / 35)
    ) / LN2
    assert abs(digit_probability(5, eps, base) - expected) < 1e-10


def test_probability_monte_carlo(series2):
    # frequency of the 20th digit over 1e6 draws at eps = 0.1
    p = digit_probability(1, 0.1, series2)
    law = simulate_digit_freq(SimConfig(eps=0.1, samples=10**6, n_index=20, seed=101), 50)
    emp = law.frequencies()[0]
    se = math.sqrt(p * (1 - p) / law.total)
    assert abs(emp - p) < 3 * se + 0.1**3


def test_probability_warns_out_of_range(series3):
    # a fresh series: the memo of the shared one may already hold eps = 0.9
    fresh = PerturbationSeries(series3.h0, series3.coeffs, 3)
    with pytest.warns(UserWarning, match="admissible"):
        digit_probability(1, 0.9, fresh)


def test_probability_requires_a_probability(series3):
    # the digit law weights its cells by (1 - eps) and eps, so eps outside
    # [0, 1] is refused before any density is built, by both entry points
    for eps in (1.5, -0.1, float("nan")):
        message = f"eps outside [0, 1]: {eps!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            digit_probability(2, eps, series3)
        with pytest.raises(ValueError, match=re.escape(message)):
            digit_law(eps, series3, 5)


# -------------------------------------------------------------- digit law


def test_law_at_zero_is_gauss_kuzmin(series3):
    law = digit_law(0.0, series3, 30)
    expected = np.array([gauss_kuzmin(n) for n in range(1, 31)])
    assert np.max(np.abs(law.probs - expected)) < 1e-12
    assert law.order == 3 and law.eps == 0.0


def test_law_matches_point_queries_exactly(series3):
    for eps in (0.05, 0.3):
        law = digit_law(eps, series3, 200)
        for n in range(1, 21):
            assert law.probs[n - 1] == digit_probability(n, eps, series3), (eps, n)


def test_law_builds_one_antiderivative(series3, monkeypatch):
    # every digit reads the one memoised h_eps and its one cached
    # antiderivative; a fresh series, since the fixture's memo may hold eps
    calls = []
    chebint = ncheb.chebint

    def counting(*args, **kwargs):
        calls.append(1)
        return chebint(*args, **kwargs)

    monkeypatch.setattr(ncheb, "chebint", counting)
    fresh = PerturbationSeries(series3.h0, series3.coeffs, 3)
    law = digit_law(0.1, fresh, 50)
    assert law.probs.shape == (50,)
    assert len(calls) == 1


def test_law_sums_each_cell_end_once(series3, monkeypatch):
    # neighbouring digit cells share their ends, and the antiderivative's
    # memo sums each of the 2 (n_max + 1) ends once, not 8 sums per digit
    from gaussrenyi import funcspace

    calls = []
    clenshaw = funcspace._clenshaw

    def counting(r, x):
        calls.append(1)
        return clenshaw(r, x)

    monkeypatch.setattr(funcspace, "_clenshaw", counting)
    fresh = PerturbationSeries(series3.h0, series3.coeffs, 3)
    digit_law(0.1, fresh, 1000)
    assert len(calls) <= 2 * 1001 + 8


def test_law_tail(series3):
    law = digit_law(0.05, series3, 50)
    assert 0.0 < law.tail_mass < 0.03
    shorter = digit_law(0.05, series3, 25)
    assert shorter.tail_mass > law.tail_mass


def test_law_conservation(series3):
    for eps, n_max in ((0.0, 10), (0.05, 40), (0.2, 60)):
        law = digit_law(eps, series3, n_max)
        assert abs(float(law.probs.sum()) + law.tail_mass - 1.0) < 1e-8
        assert np.all(law.probs > -1e-9)


def test_law_returns_a_negative_tail_as_computed(series3, monkeypatch):
    # an overfilled table above the -1e-8 refusal keeps its tail, so the
    # law conserves mass exactly
    from gaussrenyi import digits

    monkeypatch.setattr(digits, "digit_probability", lambda n, eps, series: (1 + 5e-9) / 5)
    law = digit_law(0.1, series3, 5)
    assert law.tail_mass == 1.0 - law.probs.sum() < 0.0
    assert law.probs.sum() + law.tail_mass == 1.0


def test_law_probabilities_decay(series3):
    law = digit_law(0.05, series3, 80)
    for n in range(2, 81):
        assert law.probs[n - 1] < 2.0 / (n * (n - 1) * LN2) + 0.05


def test_law_flags_negative_probabilities(h0_128, series3):
    # a deliberately over-steep fake coefficient drives entries negative
    spike = ChebFn.from_callable(lambda x: 40.0 * (x - 0.5), 16)
    bad = PerturbationSeries(h0_128, (spike,), 1)
    with pytest.warns(UserWarning, match="dips"):
        with pytest.raises(NormalizationError):
            digit_law(0.3, bad, 40)


def test_law_validation(series3):
    with pytest.raises(ValueError):
        digit_law(0.0, series3, 0)
