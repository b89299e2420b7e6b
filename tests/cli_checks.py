"""Acceptance checks of the command line: smoke tables, memory, thread counts.

Each subcommand runs the CLI through the command prefix it is given, the
installed console script or the module entry point:

    python tests/cli_checks.py smoke --prefix gaussrenyi
    PYTHONPATH=src python tests/cli_checks.py smoke --prefix "python -m gaussrenyi.cli"

smoke    runs SMOKE twice at each of one and two BLAS threads and requires
         byte-identical reruns, exit code 0 and exactly the expected warning
         lines on stderr; the module entry point writes what the prefix
         writes, and each of REFUSALS exits 1 with its one stderr line
memory   max RSS of a fresh process does not grow with samples, --a-max or
         table length
threads  the tables smoke wrote at one and two BLAS threads agree by value
         (run smoke first)

Every failed check is printed and the exit code is 1.  The standard library
only, so the checks run wherever the CLI does.  The name keeps the file out of
pytest's collection; tests/test_cli.py checks that SMOKE is well formed and
runs REFUSALS in process.
"""

import argparse
import csv
import json
import os
import pathlib
import shlex
import shutil
import subprocess
import sys

# (table, argv, warning lines): the four commands at eps >= 0.9 write one
# warning line, whatever the number of digits (the density's line comes from
# the library, where the density is built), and every other command writes
# nothing to stderr, so a stray numpy RuntimeWarning fails smoke
SMOKE = [
    ("density.csv", "density --eps 0.05 --order 3", 0),
    # array evaluation on buffers larger than the CPU cache
    ("density_grid.csv", "density --eps 0.05 --order 3 --grid 20001", 0),
    # long tables, streamed as JSON from the handler's arrays
    ("density_grid.json", "density --eps 0.05 --order 3 --grid 20001 --format json", 0),
    ("freq_long.json", "simulate --eps 0.1 --samples 1000 --n-index 1 --n-max 20000 --format json", 0),
    ("law.json", "digits --eps 0.1 --n-max 50 --format json", 0),
    ("convergence.csv", "convergence --order 3", 0),
    ("convergence512.csv", "convergence --order 3 --degree 512", 0),
    ("bounds.csv", "bounds --n-max 8", 0),
    # theta down to 2.6e-18 at index 30, far below the rounding of zeta(2i)^2
    ("bounds30.csv", "bounds --n-max 30", 0),
    # always through the module entry point, to compare with bounds.csv
    ("bounds_module.csv", "bounds --n-max 8", 0),
    ("freq.csv", "simulate --eps 0.1 --samples 100000 --seed 7", 0),
    ("freq_renyi.csv", "simulate --eps 1 --samples 100000 --n-index 3 --seed 7", 0),
    ("freq_gauss.csv", "simulate --eps 0 --samples 100000 --n-index 1 --seed 7", 0),
    ("freq_blocks.csv", "simulate --eps 0.3 --samples 100003 --n-index 3 --seed 7", 0),
    # a late index: a block of 2096 orbits, its digits in a prefix of the draw buffer
    ("freq_late.csv", "simulate --eps 0.3 --samples 4096 --n-index 2000 --seed 7", 0),
    ("law1000.csv", "digits --eps 0.3 --n-max 1000", 0),
    ("law1000.json", "digits --eps 0.05 --n-max 1000 --format json", 0),
    # 3, 5 and 9 node blocks in the branch sum at degrees 128, 256 and 512
    ("density256.csv", "density --degree 256 --eps 0.5 --order 3", 0),
    ("density512.csv", "density --degree 512 --eps 0.9 --order 3", 1),
    ("law512.csv", "digits --degree 512 --eps 0.3 --n-max 200", 0),
    ("law_edge.csv", "digits --eps 0.9 --n-max 50", 1),
    ("density_edge.csv", "density --eps 0.9", 1),
    # a density that only the head of 64 certifies positive
    ("density_099.csv", "density --eps 0.99", 1),
]
MODULE = [sys.executable, "-m", "gaussrenyi.cli"]
WARNING = "gaussrenyi: warning:"
# a flag below its floor or above sys.maxsize: exit code 1, no output and this
# one stderr line
REFUSALS = [
    ("simulate --seed -1", "gaussrenyi: --seed must be at least 0: -1"),
    ("density --a-max 4", "gaussrenyi: --a-max must be at least 8: 4"),
    ("density --order 1000000000000000000000000000000",
     "gaussrenyi: --order must be at most 9223372036854775807: 1000000000000000000000000000000"),
    ("simulate --n-index 1000000000000000000000000000000",
     "gaussrenyi: --n-index must be at most 9223372036854775807: 1000000000000000000000000000000"),
]
# smoke writes its tables here and threads reads them; under the checkout, so
# two checkouts checked on one machine never erase or read each other's tables
TABLES = pathlib.Path(__file__).resolve().parent.parent / ".cli_checks"


def smoke(prefix):
    """Run SMOKE twice at 1 and 2 BLAS threads, and the refusals; return the failures."""
    bad = []
    shutil.rmtree(TABLES, ignore_errors=True)
    for blas_threads in (1, 2):
        # reruns are byte-identical for one BLAS build and one thread count
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(blas_threads)}
        runs = []
        for rerun in (1, 2):
            out = TABLES / f"smoke-{blas_threads}-{rerun}"
            out.mkdir(parents=True)
            stderr = {}
            for table, argv, warnings in SMOKE:
                command = MODULE if table == "bounds_module.csv" else prefix
                done = subprocess.run([*command, *argv.split(), "--out", str(out / table)],
                                      env=env, capture_output=True, text=True)
                stderr[table] = done.stderr
                lines = done.stderr.splitlines()
                if done.returncode != 0:
                    bad.append(f"{out.name}/{table}: exit code {done.returncode}")
                if len(lines) != warnings or not all(line.startswith(WARNING) for line in lines):
                    bad.append(f"{out.name}/{table}: unexpected stderr:\n{done.stderr}")
            runs.append((out, stderr))
        if bad:  # a failed command may have written no table to compare
            return bad
        (one, err_one), (two, err_two) = runs
        bad += [f"{two.name}/{table}: rerun differs" for table, _, _ in SMOKE
                if (one / table).read_bytes() != (two / table).read_bytes()
                or err_one[table] != err_two[table]]
    first = TABLES / "smoke-1-1"
    if (first / "bounds.csv").read_bytes() != (first / "bounds_module.csv").read_bytes():
        bad.append("the module entry point writes another bounds.csv")
    for argv, want in REFUSALS:
        done = subprocess.run([*prefix, *argv.split()], capture_output=True, text=True)
        if done.returncode != 1 or done.stdout or done.stderr.rstrip("\n") != want:
            bad.append(f"{argv}: exit code {done.returncode}, stdout {done.stdout!r}, "
                       f"stderr {done.stderr!r}, want {want!r}")
    print(f"{len(SMOKE)} tables, 2 reruns at 1 and 2 BLAS threads, {len(REFUSALS)} refusals")
    return bad


# a fresh wrapper whose one child is the CLI: under vfork a child's ru_maxrss
# starts from its parent's peak, so the CLI is never this script's own child
_MAXRSS = """
import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""
# (what grows, argv of the small run, argv of the large run, limit in kB)
MEMORY = [
    # Monte Carlo memory does not grow with samples: holding every orbit's
    # position at once grew the larger run by 28 MB
    ("--samples", "simulate --eps 0.1 --samples 250000",
     "simulate --eps 0.1 --samples 4000000", 4000),
    # a large --a-max costs time, not memory: one (a_max, n) branch block for
    # every node grew the larger run by 38000 kB
    ("--a-max", "density --eps 0.05 --order 3 --a-max 256",
     "density --eps 0.05 --order 3 --a-max 8192", 12000),
    # CLI tables do not hold their rows: holding the rows as lists and then
    # as one text grew the larger run by 107 MB
    ("--grid", "density --eps 0.05 --order 3 --grid 2001",
     "density --eps 0.05 --order 3 --grid 200001", 30000),
]


def memory(prefix):
    """Compare the max RSS of small and large runs; return the failures."""
    bad = []
    for grows, small_argv, large_argv, limit in MEMORY:
        small, large = (
            int(subprocess.run([sys.executable, "-c", _MAXRSS, *prefix, *argv.split()],
                               check=True, stdout=subprocess.PIPE, text=True).stdout)
            for argv in (small_argv, large_argv))
        print(f"max RSS (kB): {small} at {small_argv!r}, {large} at {large_argv!r}")
        if not large - small < limit:
            bad.append(f"{grows}: max RSS grew by {large - small} kB, limit {limit} kB")
    return bad


# largest move between thread counts, relative to max(1, |value|), per column
# or header field: fitted_slope has moved by 2.4e-7, every other number by at
# most 4.5e-15
TOLERANCE = {"fitted_slope": 1e-5}
DEFAULT = 1e-13


def _table(path):
    if path.suffix == ".json":
        data = json.loads(path.read_text())
        return data["provenance"], data["columns"], data["rows"]
    lines = path.read_text().splitlines()
    header = dict(line[2:].split(": ", 1) for line in lines if line.startswith("# "))
    rows = list(csv.reader(line for line in lines if not line.startswith("# ")))
    return header, rows[0], rows[1:]


def _close(name, a, b):
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return a == b
    return abs(x - y) <= TOLERANCE.get(name, DEFAULT) * max(1.0, abs(x))


def _names(d):
    return sorted(p.name for p in d.iterdir() if p.suffix in (".csv", ".json"))


def threads(prefix):
    """Compare the smoke tables at 1 and 2 BLAS threads by value; return the failures.

    One and two BLAS threads round the matrix products differently, so the
    tables are compared by value, not by byte.  Runs no command, so the
    prefix goes unused.
    """
    one, two = TABLES / "smoke-1-1", TABLES / "smoke-2-1"
    if not (one.is_dir() and two.is_dir()):
        return [f"no tables in {TABLES}: run smoke first"]
    if _names(one) != _names(two):
        return ["the two runs wrote different tables"]
    bad = []
    for name in _names(one):
        (h1, c1, r1), (h2, c2, r2) = _table(one / name), _table(two / name)
        if h1.keys() != h2.keys() or c1 != c2 or len(r1) != len(r2):
            bad.append(f"{name}: the layout differs")
            continue
        bad += [f"{name}: # {key}" for key in h1 if not _close(key, h1[key], h2[key])]
        bad += [f"{name}: row {i}, {col}" for i, (a, b) in enumerate(zip(r1, r2))
                for col, x, y in zip(c1, a, b) if not _close(col, x, y)]
    print(f"{len(_names(one))} tables compared")
    return bad


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prefix", required=True, type=shlex.split,
                        help="command that starts the CLI, e.g. gaussrenyi "
                             "or 'python -m gaussrenyi.cli'")
    subs = parser.add_subparsers(dest="check", required=True)
    for check in (smoke, memory, threads):
        sub = subs.add_parser(check.__name__, parents=[common], help=check.__doc__.splitlines()[0])
        sub.set_defaults(run=check)
    args = parser.parse_args()
    bad = args.run(args.prefix)
    print("\n".join(bad) or f"{args.check}: all checks pass")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
