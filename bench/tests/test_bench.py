"""Tests of the benchmark itself: span arithmetic, input generation, the gate.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import speed
import workloads
from workloads import (
    CliBatch,
    check_law_mass,
    check_point_queries,
    check_rows,
    check_series_paths,
    make_inputs,
    parse_table,
)

import gaussrenyi as gr
import gaussrenyi.cli

ROOT = Path(__file__).resolve().parents[2]


def span(name, start, end, parent=-1, **attrs):
    return [name, start, end, parent, attrs]


# ------------------------------------------------------------------ spans


def test_self_time_subtracts_the_union_of_children():
    s = [
        span("outer", 0.0, 10.0),
        span("a", 1.0, 3.0, 0),
        span("b", 2.0, 5.0, 0),       # overlaps a: covered [1, 5]
        span("c", 8.0, 12.0, 0),      # clipped to the parent: [8, 10]
        span("grandchild", 1.5, 2.5, 1),
    ]
    assert spans.self_times(s) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_tracer_records_nesting_with_parents():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("outer", -1), ("inner", 0), ("inner", 0)]
    # outer 0..5, inner 1..2 and 3..4
    assert spans.self_times(tracer.spans) == [3.0, 1.0, 1.0]


def test_layer_metrics_average_over_passes_and_split_bands():
    s = [
        span("process", 0.0, 1.0),
        span("transfer.assemble_operator", 0.1, 0.4, 0),
        span("transfer.assemble_operator", 0.4, 0.5, 0),
        span("pass", 2.0, 3.0),
        span("transfer.invariant_density", 2.0, 2.1, 3, eps=0.1),
        span("transfer.invariant_density", 2.1, 2.5, 3, eps=0.95),
        span("pass", 4.0, 5.0),
        span("transfer.invariant_density", 4.0, 4.3, 6, eps=None),
        span("funcspace.ChebFn.call", 4.0, 4.1, 7),
        span("transfer.invariant_density", 4.5, 5.0, 6, eps=0.99),
    ]
    m = spans.layer_metrics(s, warm_s=1e-4, overhead_frac=0.02)
    assert list(m) == list(spans.LAYER_METRICS)
    assert m["transfer.assemble_operator.cold_s"] == pytest.approx(0.4)
    assert m["transfer.invariant_density.calls"] == 2.0
    assert m["transfer.invariant_density.lo_s"] == pytest.approx(0.2)
    assert m["transfer.invariant_density.edge_s"] == pytest.approx(0.45)
    assert m["funcspace.ChebFn.call.calls"] == 0.5
    assert m["digits.digit_law.digits_per_s"] == 0.0


def test_install_wraps_every_binding_and_restores_them():
    solve, density = gr.transfer.resolvent_solve, gr.transfer.invariant_density
    call = gr.funcspace.ChebFn.__dict__["__call__"]
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        for mod in (gr, gr.transfer, gr.perturbation):
            assert mod.resolvent_solve is not solve
        assert gaussrenyi.cli.invariant_density is gr.transfer.invariant_density is not density
        assert gr.digits.digit_probability.__wrapped__ is not None
        m0 = gr.assemble_operator(gr.MapKind.GAUSS, 32)
        m1 = gr.assemble_operator(gr.MapKind.RENYI, 32)
        series = gr.mixture_series(gr.invariant_density(m0), m0, m1, 2)
        gr.digit_law(0.1, series, 5)
    finally:
        restore()
    assert gr.perturbation.resolvent_solve is solve and gaussrenyi.cli.invariant_density is density
    assert gr.funcspace.ChebFn.__dict__["__call__"] is call
    names = [s[0] for s in tracer.spans]
    assert names.count("transfer.resolvent_solve") == 2
    assert names.count("digits.digit_probability") == 5
    assert names.count("perturbation.PerturbationSeries.at") == 5
    # digit 1 has two empty cells, every other digit four cells
    assert names.count("funcspace.ChebFn.integrate_on") == 2 + 4 * 4


# ----------------------------------------------------------------- inputs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    assert make_inputs(workload, 7) == make_inputs(workload, 7)
    if workload != "cli-batch":
        assert make_inputs(workload, 7) != make_inputs(workload, 8)


def test_seeds_move_the_inputs_but_not_the_amount_of_work():
    sweeps = [make_inputs("eps-sweep", seed) for seed in range(6)]
    for inp in sweeps:
        assert len(inp["lo"]) == workloads.LO_POINTS
        assert len(inp["edge"]) == workloads.EDGE_POINTS
        assert all(0.0 <= e <= 0.8 for e in inp["lo"])
        assert all(0.9 <= e <= 0.99 for e in inp["edge"])
    # mirrored strata: the summed eps, and the summed 1/(1 - eps) that sets
    # the power-iteration cost at the edge, are the same for every seed
    lo_sums = [sum(inp["lo"]) for inp in sweeps]
    edge_costs = [sum(1.0 / (1.0 - e) for e in inp["edge"]) for inp in sweeps]
    assert np.ptp(lo_sums) < 1e-12 and np.ptp(edge_costs) < 1e-9
    for seed in range(6):
        cases = make_inputs("digit-validation", seed)["cases"]
        assert len(cases) == workloads.DIGIT_CASES
        assert all(0.05 <= eps <= 0.3 for eps, _ in cases)
        argv = dict(make_inputs("cli-batch", seed)["commands"])["simulate"]
        assert argv[argv.index("--seed") + 1] == str(seed)
        assert argv[argv.index("--samples") + 1] == "1000000"


# ------------------------------------------------------------------- gate


def _cli_text(capsys, argv):
    assert gaussrenyi.cli.main(argv) == 0
    return capsys.readouterr().out


def test_gate_accepts_the_cli_table_and_counts_a_corrupted_one(capsys):
    text = _cli_text(capsys, ["bounds", "--n-max", "8"])
    want = CliBatch._ref_bounds({"--n-max": "8"})
    assert check_rows(parse_table(text, "csv"), want) == []
    theta = format(gr.theta_bound(3), ".17g")
    corrupted = text.replace(theta, format(gr.theta_bound(3) * (1 + 1e-7), ".17g"))
    assert corrupted != text
    assert check_rows(parse_table(corrupted, "csv"), want)
    assert check_rows(parse_table(text, "csv")[:-1], want)


def test_gate_requires_exact_simulated_counts(capsys):
    argv = ["simulate", "--eps", "0.1", "--samples", "2000", "--seed", "4", "--n-max", "100"]
    text = _cli_text(capsys, argv)
    want = CliBatch._ref_simulate(dict(zip(argv[1::2], argv[2::2])))
    rows = parse_table(text, "csv")
    assert check_rows(rows, want) == []
    rows[0][1] = str(int(rows[0][1]) + 1)
    assert check_rows(rows, want)


def test_gate_flags_corrupted_laws_and_series():
    m0 = gr.assemble_operator(gr.MapKind.GAUSS, 32)
    m1 = gr.assemble_operator(gr.MapKind.RENYI, 32)
    series = gr.mixture_series(gr.invariant_density(m0), m0, m1, 3)
    law = gr.digit_law(0.2, series, 30)
    queries = {n: gr.digit_probability(n, 0.2, series) for n in range(1, 6)}
    assert check_law_mass(law) == [] and check_point_queries(law, queries) == []

    probs = law.probs.copy()
    probs[[1, 2]] = probs[[2, 1]]
    swapped = gr.DigitLaw(law.eps, law.order, probs, law.tail_mass)
    assert check_point_queries(swapped, queries)
    leaky = gr.DigitLaw(law.eps, law.order, law.probs, law.tail_mass + 1e-9)
    assert check_law_mass(leaky)

    generic = list(series.coeffs)
    assert check_series_paths(series, generic) == []
    generic[1] = generic[1] + gr.ChebFn.constant(1e-6, 32)
    assert check_series_paths(series, generic)


def test_meter_scales_cpu_time_by_the_calibration_speed(monkeypatch):
    # the kernel runs at half the reference speed before and after the call
    monkeypatch.setattr(speed, "calibrate", lambda: 2 * speed.REFERENCE_S)
    meter = speed.Meter()
    walls, cpus = iter([10.0, 14.0]), iter([5.0, 8.0])
    monkeypatch.setattr(speed.time, "perf_counter", lambda: next(walls))
    monkeypatch.setattr(speed, "cpu_time", lambda: next(cpus))
    assert meter.measure(lambda x: x + 1, 1) == (2, 4.0, 1.5)


def test_a_raising_operation_is_a_failed_operation():
    op = workloads._timed(speed.Meter(), "x", lambda: 1 / 0)
    assert op.problems and op.problems[0].startswith("raised")


# ---------------------------------------------------------------- metrics


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail_percentile(list(range(19))) is None
    assert run.tail_percentile(list(range(20)))[0] == 50
    assert run.tail_percentile(list(range(1, 101))) == (90, 90)
    assert run.tail_percentile(list(range(1000)))[0] == 99


def test_run_imports_numpy_only_after_setting_the_blas_threads():
    code = "import sys, run; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "bench",
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == spans.LAYER_METRICS
