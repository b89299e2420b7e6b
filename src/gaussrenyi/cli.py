"""Batch command line interface.

Subcommands
-----------
density      node table of the base density, expansion coefficients and
             the truncated density at the requested weight
digits       digit law table against the Gauss-Kuzmin law
convergence  order-of-accuracy study of the expansion against the
             discretized fixed density; fitted_slope carries about 6
             significant digits, printed to 17 for byte-identical reruns
bounds       contraction constants and admissible weight range per
             smoothness index
simulate     Monte Carlo digit frequencies

Output is CSV (default) or JSON with a provenance header that echoes
the full configuration, so identical invocations produce byte-identical
files with one BLAS build and one BLAS thread count; other thread counts
move the last bits of the matrix products.  The ``tail_error_bound``
header field is :func:`gaussrenyi.transfer.tail_error_bound`, the
Euler-Maclaurin remainder bound of the branch tail beyond ``a_max``, of
the functions the table is made of: for ``density`` the largest over
h0, c_1..c_k and h_eps, for ``digits`` that of h_eps, whose cell
integrals the law sums, and for ``convergence`` that of h0.  Warnings
go to stderr, never into the data stream: each distinct message once,
as ``gaussrenyi: warning: ...``.
Exit codes:
0 success, 1 invalid configuration (or one too large to allocate), 2 numerical failure.

``_FLAGS`` and ``_COMMANDS`` are the one place a flag is declared: its
type, help, floor and, per subcommand, default and provenance position.
The parser, the validation and the provenance header are built from them.
Each handler returns its table, the header, the rows and the provenance
fields it computed, and ``_run`` writes it.  The rows may be any iterable,
such as a ``zip`` over the handler's arrays; CSV is written line by line and
JSON as it is encoded, so no table is held as text.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
import warnings

import numpy as np

from . import __version__
from .bounds import c_bound, eps_max, theta_bound
from .digits import digit_law, gauss_kuzmin, gauss_kuzmin_tail
from .funcspace import DEFAULT_DEGREE, SUP_GRID
from .maps import MapKind, check_count, check_unit
from .perturbation import mixture_series
from .simulate import SimConfig, simulate_digit_freq
from .transfer import (
    DEFAULT_A_MAX, annealed, assemble_operator, invariant_density, tail_error_bound,
)

__all__ = ["main"]

_CONVERGENCE_GRID = (0.01, 0.02, 0.04)


# name -> (type, help, floor): an int flag below its floor or, the seed
# excepted, above sys.maxsize, which could size no array, and a float flag
# outside [0, 1] are rejected, in this order, so with two bad flags the first
# one listed here is reported
_FLAGS = {
    "eps": (float, "Renyi weight", None),
    "order": (int, "expansion order", 1),
    "degree": (int, "collocation degree", 8),
    "a_max": (int, "explicit branch cutoff", 8),
    "n_max": (int, "last tabulated row", 1),
    "samples": (int, "sample count", 1),
    "n_index": (int, "digit index to record", 1),
    "grid": (int, "output grid points", 2),
    "seed": (int, "generator seed", 0),
}


def _flag(name):
    return "--" + name.replace("_", "-")


def _fmt(value):
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _write_table(args, provenance, header, rows):
    dest = (contextlib.nullcontext(sys.stdout) if args.out == "-"
            else open(args.out, "w", encoding="utf-8", newline="\n"))
    with dest as fh:
        if args.format == "csv":
            for key, value in provenance.items():
                fh.write(f"# {key}: {_fmt(value)}\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(map(_fmt, row)) + "\n")
        else:
            payload = {"provenance": provenance, "columns": header, "rows": list(rows)}
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def _base_provenance(args, **computed):
    prov = {
        "generator": f"gaussrenyi {__version__}",
        "subcommand": args.command,
        "format": args.format,
    }
    prov.update((name, getattr(args, name)) for name in _COMMANDS[args.command][2])
    prov.update(computed)
    return prov


def _series_pipeline(args):
    m0 = assemble_operator(MapKind.GAUSS, args.degree, args.a_max)
    m1 = assemble_operator(MapKind.RENYI, args.degree, args.a_max)
    return mixture_series(invariant_density(m0), m0, m1, args.order)


def _cmd_density(args):
    series = _series_pipeline(args)
    h_eps = series.at(args.eps)
    res = series.residual(args.eps)
    printed = [series.h0, *series.coeffs, h_eps]
    bound = max(tail_error_bound(f, args.a_max) for f in printed)
    xs = np.linspace(0.0, 1.0, args.grid)
    header = ["x", "h0"] + [f"c{n}" for n in range(1, args.order + 1)] + ["h_eps"]
    columns = [xs] + [f(xs) for f in printed]
    return header, zip(*columns), {"tail_error_bound": bound, "residual_sup": res}


def _cmd_digits(args):
    series = _series_pipeline(args)
    law = digit_law(args.eps, series, args.n_max)
    bound = tail_error_bound(series.at(args.eps), args.a_max)
    header = ["N", "p_approx", "p_gauss_kuzmin"]
    gk = [gauss_kuzmin(n) for n in range(1, args.n_max + 1)]
    gk_tail = gauss_kuzmin_tail(args.n_max)
    rows = itertools.chain(zip(range(1, args.n_max + 1), law.probs, gk), [
        ["tail", law.tail_mass, gk_tail],
        ["total", float(law.probs.sum()) + law.tail_mass, sum(gk) + gk_tail],
    ])
    return header, rows, {"tail_error_bound": bound}


def _cmd_convergence(args):
    series = _series_pipeline(args)
    bound = tail_error_bound(series.h0, args.a_max)
    references = {eps: invariant_density(annealed(eps, series.m0, series.m1))(SUP_GRID)
                  for eps in _CONVERGENCE_GRID}
    header = ["eps", "k", "sup_error_vs_reference", "residual", "fitted_slope"]
    rows = []
    for k in range(1, args.order + 1):
        truncated = series.truncated(k)
        errors = []
        residuals = []
        for eps in _CONVERGENCE_GRID:
            h_k = truncated.at(eps)
            errors.append(float(np.max(np.abs(h_k(SUP_GRID) - references[eps]))))
            residuals.append(truncated.residual(eps))
        slope = float(np.polyfit(np.log(_CONVERGENCE_GRID), np.log(errors), 1)[0])
        for eps, err, res in zip(_CONVERGENCE_GRID, errors, residuals):
            rows.append([eps, k, err, res, slope])
    return header, rows, {"eps_grid": " ".join(str(e) for e in _CONVERGENCE_GRID),
                          "tail_error_bound": bound}


def _cmd_bounds(args):
    header = ["i", "theta", "c", "eps_max"]
    rows = itertools.chain([[1, "", "", "deferred (i=1 case not covered by these bounds)"]],
                           ([i, theta_bound(i), c_bound(i), eps_max(i)]
                            for i in range(2, args.n_max + 1)))
    return header, rows, {}


def _cmd_simulate(args):
    cfg = SimConfig(
        eps=args.eps, samples=args.samples, n_index=args.n_index, seed=args.seed
    )
    law = simulate_digit_freq(cfg, n_max=args.n_max)
    freqs = law.frequencies()
    errs = law.std_errors()
    header = ["N", "count", "frequency", "std_error"]
    # JSON cannot encode numpy's integers
    rows = itertools.chain(zip(range(1, args.n_max + 1), map(int, law.counts), freqs, errs),
                           [["overflow", law.overflow, law.overflow / law.total, ""]])
    return header, rows, {}


_SERIES = {"order": 3, "degree": DEFAULT_DEGREE, "a_max": DEFAULT_A_MAX}

# subcommand -> (handler, help, defaults); a handler returns (header, rows,
# computed provenance fields in order), its rows any iterable of rows, and a
# defaults dict lists the subcommand's flags in provenance order
_COMMANDS = {
    "density": (_cmd_density, "density expansion on a grid",
                {"eps": 0.0, **_SERIES, "grid": 201}),
    "digits": (_cmd_digits, "digit law against Gauss-Kuzmin",
               {"eps": 0.0, **_SERIES, "n_max": 100}),
    "convergence": (_cmd_convergence, "order-of-accuracy study", _SERIES),
    "bounds": (_cmd_bounds, "contraction constants per smoothness index", {"n_max": 8}),
    "simulate": (_cmd_simulate, "Monte Carlo digit frequencies",
                 {"eps": 0.0, "samples": 10**6, "n_index": 20, "seed": 0, "n_max": 100}),
}


def _build_parser():
    parser = argparse.ArgumentParser(prog="gaussrenyi", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"gaussrenyi {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line, defaults) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_line)
        for name, default in defaults.items():
            kind, text = _FLAGS[name][:2]
            sub.add_argument(_flag(name), type=kind, default=default,
                             help=f"{text} (default {default})")
        sub.add_argument("--format", choices=("csv", "json"), default="csv",
                         help="output format (default csv)")
        sub.add_argument("--out", default="-", help="output path, - for stdout (default)")
    return parser


def _validate(args):
    defaults = _COMMANDS[args.command][2]
    for name, (kind, _, floor) in _FLAGS.items():
        if name in defaults and kind is float:
            check_unit(_flag(name), getattr(args, name))
        elif name in defaults:
            value = getattr(args, name)
            check_count(_flag(name), value, floor)
            if value > sys.maxsize and name != "seed":  # PCG64 takes any seed
                raise ValueError(f"{_flag(name)} must be at most {sys.maxsize}: {value!r}")


def _run(args):
    # a CLI user gets one line per distinct warning, not the source lines
    # that Python's default format points at
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            _validate(args)
            header, rows, computed = _COMMANDS[args.command][0](args)
            _write_table(args, _base_provenance(args, **computed), header, rows)
        finally:
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"gaussrenyi: warning: {message}", file=sys.stderr)


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 0 after --help or --version and with 2 on a bad
        # flag, which is an invalid configuration: exit code 1
        return 1 if exc.code else 0
    try:
        _run(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"gaussrenyi: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"gaussrenyi: numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
