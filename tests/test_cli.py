"""Command line interface: tables, provenance, determinism, exit codes."""

import json
import math
import sys

import pytest

from cli_checks import MEMORY, REFUSALS, SMOKE
from gaussrenyi import (
    MapKind, assemble_operator, eps_max, invariant_density, mixture_series, tail_error_bound,
)
from gaussrenyi import cli
from gaussrenyi.cli import main

FAST = ["--degree", "64", "--a-max", "64", "--order", "2"]


def run(tmp_path, name, args):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


def read_csv(path):
    provenance = {}
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            provenance[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return provenance, header, rows


def test_density_table(tmp_path):
    code, out = run(tmp_path, "d.csv", ["density", "--eps", "0.05", "--grid", "11"] + FAST)
    assert code == 0
    prov, header, rows = read_csv(out)
    assert header == ["x", "h0", "c1", "c2", "h_eps"]
    assert len(rows) == 11
    assert prov["subcommand"] == "density"
    assert "tail_error_bound" in prov and "residual_sup" in prov
    # grid point x = 0 carries the Gauss density value 1/ln 2
    assert abs(float(rows[0][1]) - 1.0 / math.log(2.0)) < 1e-10
    assert float(prov["residual_sup"]) < 0.5 * 0.05**3


def test_tail_bound_is_that_of_the_printed_functions(tmp_path):
    # density reports the largest bound over h0, c_1..c_k and h_eps, and
    # digits the bound of h_eps, whose cell integrals make its law
    m0, m1 = (assemble_operator(kind, 64, 64) for kind in (MapKind.GAUSS, MapKind.RENYI))
    series = mixture_series(invariant_density(m0), m0, m1, 2)
    h_eps = series.at(0.5)
    bounds = [tail_error_bound(f, 64) for f in (series.h0, *series.coeffs, h_eps)]
    assert max(bounds) > bounds[0]  # h0's bound alone would understate it
    for command, want in (("density", max(bounds)), ("digits", bounds[-1])):
        code, out = run(tmp_path, f"{command}.csv", [command, "--eps", "0.5"] + FAST)
        assert code == 0
        assert float(read_csv(out)[0]["tail_error_bound"]) == want, command


def test_density_eps_zero_columns_coincide(tmp_path):
    code, out = run(tmp_path, "d0.csv", ["density", "--eps", "0", "--grid", "7"] + FAST)
    assert code == 0
    _, header, rows = read_csv(out)
    for row in rows:
        assert row[1] == row[-1]


def test_digits_table(tmp_path):
    # default resolution here: the eps = 0 column identity is contractual
    code, out = run(tmp_path, "n.csv", ["digits", "--eps", "0", "--n-max", "12", "--order", "2"])
    assert code == 0
    prov, header, rows = read_csv(out)
    assert header == ["N", "p_approx", "p_gauss_kuzmin"]
    body, tail, total = rows[:-2], rows[-2], rows[-1]
    assert len(body) == 12
    for row in body:
        assert abs(float(row[1]) - float(row[2])) < 1e-12
    n5 = body[4]
    assert abs(float(n5[2]) - math.log(36 / 35) / math.log(2)) < 1e-15
    assert tail[0] == "tail" and total[0] == "total"
    assert abs(float(total[1]) - 1.0) < 1e-8


def test_convergence_table(tmp_path):
    code, out = run(
        tmp_path, "c.csv", ["convergence", "--degree", "96", "--a-max", "128", "--order", "3"]
    )
    assert code == 0
    _, header, rows = read_csv(out)
    assert header == ["eps", "k", "sup_error_vs_reference", "residual", "fitted_slope"]
    slopes = {int(r[1]): float(r[4]) for r in rows}
    assert 1.7 < slopes[1] < 2.3
    assert 2.7 < slopes[2] < 3.3
    assert 3.5 < slopes[3] < 4.5


def test_bounds_table(tmp_path):
    code, out = run(tmp_path, "b.csv", ["bounds", "--n-max", "8"])
    assert code == 0
    _, header, rows = read_csv(out)
    assert header == ["i", "theta", "c", "eps_max"]
    assert rows[0][0] == "1" and "deferred" in rows[0][3]
    i2 = rows[1]
    assert abs(float(i2[1]) - 0.2339229) < 1e-6
    assert abs(float(i2[2]) - 1.1714229) < 1e-6
    assert abs(float(i2[3]) - 0.8171489) < 1e-6


def test_simulate_table(tmp_path):
    code, out = run(
        tmp_path,
        "s.csv",
        ["simulate", "--eps", "0", "--samples", "200000", "--seed", "1", "--n-max", "6"],
    )
    assert code == 0
    prov, header, rows = read_csv(out)
    assert prov["seed"] == "1"
    assert header == ["N", "count", "frequency", "std_error"]
    # digit 1 frequency close to the Gauss-Kuzmin value 0.415
    assert abs(float(rows[0][2]) - 0.415) < 0.005
    assert rows[-1][0] == "overflow"


def _same_entry(value, text):
    # a JSON string is the CSV text; a JSON number parses from it exactly
    return value == text if isinstance(value, str) else float(text) == value


@pytest.mark.parametrize(
    "args",
    [
        ["density", "--eps", "0.05", "--grid", "5"] + FAST,
        ["digits", "--eps", "0.05", "--n-max", "5"] + FAST,
        ["convergence"] + FAST,
        ["bounds", "--n-max", "4"],
        ["simulate", "--eps", "0.1", "--samples", "1000", "--n-index", "3", "--n-max", "5"],
    ],
    ids=lambda args: args[0],
)
def test_json_format(tmp_path, args):
    assert run(tmp_path, "t.csv", args)[0] == 0
    code, out = run(tmp_path, "t.json", args + ["--format", "json"])
    assert code == 0
    prov, header, rows = read_csv(tmp_path / "t.csv")
    payload = json.loads(out.read_text())
    assert list(payload) == ["provenance", "columns", "rows"]
    assert list(payload["provenance"]) == list(prov)
    assert payload["provenance"]["subcommand"] == args[0]
    for key, value in payload["provenance"].items():
        assert key == "format" or _same_entry(value, prov[key]), key
    assert payload["columns"] == header
    assert len(payload["rows"]) == len(rows)
    for json_row, csv_row in zip(payload["rows"], rows):
        assert len(json_row) == len(csv_row)
        assert all(_same_entry(v, t) for v, t in zip(json_row, csv_row)), csv_row


def test_byte_identical_reruns(tmp_path):
    args = ["digits", "--eps", "0.02", "--n-max", "9"] + FAST
    _, first = run(tmp_path, "one.csv", args)
    _, second = run(tmp_path, "two.csv", args)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("command", ["density", "digits"])
def test_inadmissible_eps_warns(tmp_path, capsys, command):
    # eps 0.9 is a probability, so the run succeeds, but it lies beyond
    # eps_max(2): one line on stderr, however often the library warned
    code, out = run(tmp_path, f"{command}.csv", [command, "--eps", "0.9"] + FAST)
    assert code == 0
    assert capsys.readouterr().err == (
        "gaussrenyi: warning: mixture weight 0.9 outside the admissible range [0, 0.817148]\n"
    )
    assert "admissible" not in out.read_text()


def test_validation_exit_code(tmp_path, capsys):
    assert main(["density", "--eps", "2.0"]) == 1
    assert main(["digits", "--n-max", "0"]) == 1
    assert main(["nonsense"]) == 1
    assert main(["density", "--eps", "abc"]) == 1
    # argparse's own exits: 2 on a bad flag becomes 1, help and version stay 0
    assert main(["--help"]) == 0
    assert main(["--version"]) == 0
    capsys.readouterr()
    # one bad value per checked flag; stderr names the flag and the value
    cases = [
        (["density", "--eps", "2.0"], "--eps outside [0, 1]: 2.0"),
        (["density", "--order", "0"], "--order must be at least 1"),
        (["density", "--degree", "4"], "--degree must be at least 8"),
        (["density", "--a-max", "4"], "--a-max must be at least 8"),
        (["simulate", "--samples", "0"], "--samples must be at least 1"),
        (["simulate", "--n-index", "0"], "--n-index must be at least 1"),
        (["density", "--grid", "1"], "--grid must be at least 2"),
        (["bounds", "--n-max", "0"], "--n-max must be at least 1"),
        (["simulate", "--seed", "-1"], "--seed must be at least 0: -1"),
    ]
    # every int flag but the seed is at most sys.maxsize, so an array can be sized by it
    big = str(10**30)
    cases += [([command, flag, big], f"{flag} must be at most {sys.maxsize}: {big}")
              for command, flag in [("density", "--order"), ("density", "--grid"),
                                    ("density", "--degree"), ("density", "--a-max"),
                                    ("digits", "--n-max"), ("simulate", "--n-max"),
                                    ("simulate", "--n-index"), ("simulate", "--samples")]]
    for args, message in cases:
        assert main(args) == 1, args
        assert message in capsys.readouterr().err, args


def test_smoke_list_is_well_formed():
    # the list that cli_checks.py smoke runs: a mistyped flag fails here, not
    # after a run of every command; a density or digit table warns once
    # exactly where eps lies past eps_max(2), and the other tables never warn
    assert len({table for table, _, _ in SMOKE}) == len(SMOKE)
    for table, argv, warnings in SMOKE:
        args = cli._build_parser().parse_args(argv.split())
        cli._validate(args)
        if args.command in ("density", "digits"):
            assert warnings == int(args.eps > eps_max(2)), table
        else:
            assert warnings == 0, table


def test_memory_list_is_well_formed():
    # the pairs that cli_checks.py memory runs: both argv are valid, and they
    # differ only in a larger value after the flag that the label names
    for grows, small_argv, large_argv, _ in MEMORY:
        for argv in (small_argv, large_argv):
            cli._validate(cli._build_parser().parse_args(argv.split()))
        small, large = small_argv.split(), large_argv.split()
        assert len(small) == len(large), grows
        differ = [i for i, (a, b) in enumerate(zip(small, large)) if a != b]
        assert len(differ) == 1 and small[differ[0] - 1] == grows, grows
        assert float(small[differ[0]]) < float(large[differ[0]]), grows


def test_refusals_list_is_well_formed(capsys):
    # the refusals that cli_checks.py smoke runs in fresh processes, here in
    # process: exit code 1, no output and exactly the expected stderr line
    for argv, want in REFUSALS:
        assert main(argv.split()) == 1, argv
        assert capsys.readouterr() == ("", want + "\n"), argv


def test_unallocatable_configuration_exit_code(capsys):
    # each table is allocated before any of its work: one orbit's row of map
    # choices at digit index 10^15 needs 7 PiB, a digit table of 10^12 rows
    # 7.3 TiB, and one of 2^62 rows more bytes than an index can count
    for argv in (["simulate", "--n-index", str(10**15)],
                 ["digits", "--n-max", str(10**12)],
                 ["digits", "--n-max", str(2**62)]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("gaussrenyi: "), lines


def test_provenance_keys_in_order(tmp_path):
    series = ["order", "degree", "a_max"]
    expected = {
        "density": ["eps"] + series + ["grid", "tail_error_bound", "residual_sup"],
        "digits": ["eps"] + series + ["n_max", "tail_error_bound"],
        "convergence": series + ["eps_grid", "tail_error_bound"],
        "bounds": ["n_max"],
        "simulate": ["eps", "samples", "n_index", "seed", "n_max"],
    }
    fast = {
        "density": ["--grid", "3"] + FAST,
        "digits": ["--n-max", "3"] + FAST,
        "convergence": FAST,
        "bounds": ["--n-max", "2"],
        "simulate": ["--samples", "100", "--n-index", "1", "--n-max", "3"],
    }
    for command, keys in expected.items():
        code, out = run(tmp_path, f"{command}.csv", [command] + fast[command])
        assert code == 0
        lines = [line for line in out.read_text().splitlines() if line.startswith("# ")]
        assert [line[2:].partition(": ")[0] for line in lines] == (
            ["generator", "subcommand", "format"] + keys
        ), command


def test_series_defaults_echo_library(tmp_path):
    # degree and a_max default to the library's own defaults
    from gaussrenyi import DEFAULT_A_MAX, DEFAULT_DEGREE

    code, out = run(tmp_path, "defaults.csv", ["digits", "--n-max", "2"])
    assert code == 0
    prov, _, _ = read_csv(out)
    assert prov["degree"] == str(DEFAULT_DEGREE)
    assert prov["a_max"] == str(DEFAULT_A_MAX)


def test_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    import gaussrenyi.cli as cli

    def boom(*a, **k):
        raise RuntimeError("synthetic numerical failure")

    monkeypatch.setattr(cli, "invariant_density", boom)
    assert main(["density"] + FAST) == 2
    capsys.readouterr()


def test_stdout_output(capsys):
    assert main(["bounds", "--n-max", "3"]) == 0
    captured = capsys.readouterr()
    assert "eps_max" in captured.out
    assert captured.out.startswith("# generator: gaussrenyi")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stdout_matches_file(tmp_path, capsys, fmt):
    # both destinations stream the same lines
    args = ["density", "--eps", "0.05", "--grid", "2001", "--format", fmt] + FAST
    code, out = run(tmp_path, f"d.{fmt}", args)
    assert code == 0
    capsys.readouterr()
    assert main(args + ["--out", "-"]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


_DENSITY = ["density", "--eps", "0.05"] + FAST
_SIMULATE = ["simulate", "--samples", "1000", "--n-index", "1"]


@pytest.mark.parametrize(
    "args, size_flag, size, limit_mib",
    [
        (_DENSITY, "--grid", 20001, 2.5),
        (_DENSITY + ["--format", "json"], "--grid", 20001, 7.0),
        (_SIMULATE, "--n-max", 20000, 2.0),
        (_SIMULATE + ["--format", "json"], "--n-max", 20000, 7.0),
        (["bounds"], "--n-max", 20000, 1.0),
    ],
    ids=["density-csv", "density-json", "simulate-csv", "simulate-json", "bounds-csv"],
)
def test_tables_are_written_as_formatted(tmp_path, args, size_flag, size, limit_mib):
    # the rows are formatted from the handler's arrays, or computed one at a
    # time, straight into the destination; holding them as per-row lists and
    # then as one text traced 9.4, 16.4, 4.9 and 11.1 MiB, and the bounds rows
    # as one list 3.9 MiB
    import tracemalloc

    assert run(tmp_path, "warm", args + [size_flag, "3"])[0] == 0
    tracemalloc.start()
    try:
        code, _ = run(tmp_path, "long", args + [size_flag, str(size)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < limit_mib * 2**20, peak / 2**20
