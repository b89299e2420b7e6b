"""The three benchmark workloads, their seeded inputs and their correctness gate.

cli-batch         the five README invocations, each in a fresh process
eps-sweep         warm library: order-20 series by both paths, then fixed
                  densities and truncation errors over eps in [0, 0.8]
                  and in [0.9, 0.99], up to and past eps_max(2) ~ 0.817
digit-validation  warm library: digit laws and point queries of the
                  order-3 series against Monte Carlo simulation

Every workload is a closed loop with one client: the next operation
starts when the previous one has finished.  The seed moves the inputs
(eps values, simulation seeds) but never the amount of work: bands,
point counts, sample sizes and n_max are part of the workload.

A check returns a list of problems; an operation whose list is not
empty, or which raised or exited non-zero, counts as failed.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gaussrenyi as gr

WORKLOADS = ("cli-batch", "eps-sweep", "digit-validation")

DEGREE = 128
BENCH_DIR = Path(__file__).resolve().parent

# eps-sweep: bands and counts are part of the workload definition
LO_BAND, LO_POINTS = (0.0, 0.8), 24
EDGE_BAND, EDGE_POINTS = (0.9, 0.99), 8
SWEEP_ORDER = 20
TRUNCATIONS = (3, 10, 20)
SWEEP_GRID = np.linspace(0.0, 1.0, 2049)

# digit-validation
DIGIT_BAND, DIGIT_CASES = (0.05, 0.3), 2
DIGIT_ORDER = 3
LAW_N_MAX = 1000
QUERY_DIGITS = tuple(range(1, 21))
FREQ_SAMPLES, FREQ_INDEX = 10**6, 20
DENSITY_SAMPLES, DENSITY_BURN_IN, DENSITY_BINS = 2 * 10**5, 100, 100

# correctness tolerances
TABLE_TOL = 1e-9
PATH_TOL = 1e-9
SWEEP_SUP_TOL, SWEEP_SUP_EPS = 1e-10, 0.2
MASS_TOL = 1e-12
QUERY_TOL = 1e-13
MC_SIGMAS, MC_SLACK = 3.0, 2e-3

CLI_TIMEOUT_S = 120


def _strata(rng, n, lo, hi):
    """One point in each of n equal strata of [lo, hi].

    Neighbouring strata take mirrored offsets u and 1 - u, so the sum
    of the points, and the cost of any work linear in them, is the same
    for every seed.
    """
    u = rng.random(n // 2)
    offsets = np.empty(n)
    offsets[0::2], offsets[1::2] = u, 1.0 - u
    return [float(x) for x in lo + (np.arange(n) + offsets) * (hi - lo) / n]


def make_inputs(workload, seed):
    """Inputs of one workload, a pure function of the seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "cli-batch":
        return {"commands": [
            ("density", ["density", "--eps", "0.05", "--order", "3"]),
            ("digits", ["digits", "--eps", "0.1", "--n-max", "50", "--format", "json"]),
            ("convergence", ["convergence", "--order", "3"]),
            ("bounds", ["bounds", "--n-max", "8"]),
            ("simulate", ["simulate", "--eps", "0.1", "--samples", "1000000",
                          "--seed", str(seed)]),
        ]}
    if workload == "eps-sweep":
        # power iteration costs about 1/(1 - eps) steps near the edge, so
        # the edge band is stratified in s = 1/(1 - eps)
        s_lo, s_hi = (1.0 / (1.0 - e) for e in EDGE_BAND)
        edge = [1.0 - 1.0 / s for s in _strata(rng, EDGE_POINTS, s_lo, s_hi)]
        return {"lo": _strata(rng, LO_POINTS, *LO_BAND), "edge": edge}
    if workload == "digit-validation":
        eps = _strata(rng, DIGIT_CASES, *DIGIT_BAND)
        seeds = [int(s) for s in rng.integers(0, 2**31, size=DIGIT_CASES)]
        return {"cases": list(zip(eps, seeds))}
    raise ValueError(f"unknown workload {workload!r}")


def warm_setup(order):
    """The set-up a library user pays once: both operators, h0, a series."""
    m0 = gr.assemble_operator(gr.MapKind.GAUSS, DEGREE)
    m1 = gr.assemble_operator(gr.MapKind.RENYI, DEGREE)
    h0 = gr.invariant_density(m0)
    return m0, m1, h0, gr.mixture_series(h0, m0, m1, order)


SETUP_ORDER = {"eps-sweep": SWEEP_ORDER, "digit-validation": DIGIT_ORDER}


@dataclass
class Op:
    kind: str
    wall: float
    seconds: float  # normalised to the reference speed, see speed.py
    problems: list = field(default_factory=list)


def _timed(meter, kind, fn, *args):
    """Run one operation; an exception is recorded as its problem."""
    def guarded():
        try:
            return fn(*args)
        except Exception:  # one failed operation must not end the run
            return ["raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]]

    problems, wall, seconds = meter.measure(guarded)
    return Op(kind, wall, seconds, problems)


def _invoke(cmd):
    """The finished process, or None if it timed out."""
    try:
        return subprocess.run(cmd, capture_output=True, timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None


def _close(got, want, tol):
    return abs(got - want) <= tol * max(1.0, abs(want))


# ---------------------------------------------------------------- checks


def check_rows(got, want, tol=TABLE_TOL):
    """Compare a parsed table with reference rows.

    Integer cells must match exactly, float cells within tol (relative
    above 1), text cells as text.
    """
    if len(got) != len(want):
        return [f"{len(got)} rows, expected {len(want)}"]
    problems = []
    for r, (g_row, w_row) in enumerate(zip(got, want)):
        if len(g_row) != len(w_row):
            problems.append(f"row {r}: {len(g_row)} cells, expected {len(w_row)}")
            continue
        for c, (g, w) in enumerate(zip(g_row, w_row)):
            if isinstance(w, (bool, str)):
                ok = str(g) == str(w)
            elif isinstance(w, (int, np.integer)):
                ok = _to_number(g) == int(w)
            else:
                v = _to_number(g)
                ok = v is not None and _close(float(v), float(w), tol)
            if not ok:
                problems.append(f"row {r} col {c}: {g!r} != {w!r}")
    return problems[:5]


def _to_number(cell):
    if isinstance(cell, (int, float)):
        return cell
    try:
        return int(cell)
    except ValueError:
        try:
            return float(cell)
        except ValueError:
            return None


def parse_table(text, fmt):
    """Rows of a CLI table (CSV without provenance lines, or JSON)."""
    if fmt == "json":
        return json.loads(text)["rows"]
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def check_series_paths(fast, generic):
    """Fast recursion and generic recombination give the same coefficients."""
    problems = []
    for n, (a, b) in enumerate(zip(fast.coeffs, generic), start=1):
        diff = float(np.max(np.abs(a.values - b.values)))
        if not diff <= PATH_TOL:
            problems.append(f"c{n}: fast and generic paths differ by {diff:.3e}")
    return problems


def check_law_mass(law):
    total = float(law.probs.sum()) + law.tail_mass
    if not (np.all(np.isfinite(law.probs)) and abs(total - 1.0) <= MASS_TOL):
        return [f"probabilities plus tail mass sum to {total!r}"]
    return []


def check_point_queries(law, queries):
    return [f"digit {n}: digit_law {law.probs[n - 1]!r} != digit_probability {p!r}"
            for n, p in queries.items() if not abs(law.probs[n - 1] - p) <= QUERY_TOL]


def check_frequencies(probs, emp):
    """Simulated frequencies within MC_SIGMAS standard errors plus MC_SLACK."""
    freq, err = emp.frequencies(), emp.std_errors()
    return [f"digit {n}: frequency {freq[n - 1]:.5f} vs prediction {probs[n - 1]:.5f}"
            for n in range(1, len(freq) + 1)
            if not abs(freq[n - 1] - probs[n - 1]) <= MC_SIGMAS * err[n - 1] + MC_SLACK]


def check_histogram(h, hist, samples):
    """Bin masses within MC_SIGMAS standard errors plus MC_SLACK of h."""
    width = np.diff(hist.edges)
    want = width * h(0.5 * (hist.edges[:-1] + hist.edges[1:]))
    err = np.sqrt(hist.masses * (1.0 - hist.masses) / samples)
    bad = np.flatnonzero(~(np.abs(hist.masses - want) <= MC_SIGMAS * err + MC_SLACK))
    return [f"bin {i}: mass {hist.masses[i]:.5f} vs prediction {want[i]:.5f}" for i in bad[:5]]


# ------------------------------------------------------------- workloads


class EpsSweep:
    """Fixed densities and truncation errors across and beyond the admissible range."""

    name = "eps-sweep"
    report = {"point_s": "point", "edge_point_s": "edge_point"}

    def __init__(self, seed, out_dir, meter):
        self.inputs = make_inputs(self.name, seed)
        self.meter = meter

    def prepare(self):
        self.m0, self.m1, self.h0, _ = warm_setup(SWEEP_ORDER)

    def run_pass(self, traced=False):
        holder = {}
        ops = [_timed(self.meter, "series", self._series, holder)]
        fast = holder.get("fast")
        for eps in self.inputs["lo"]:
            ops.append(_timed(self.meter, "point", self._point, fast, eps))
        for eps in self.inputs["edge"]:
            ops.append(_timed(self.meter, "edge_point", self._point, fast, eps))
        return ops

    def _series(self, holder):
        m0, m1, h0 = self.m0, self.m1, self.h0
        fast = gr.mixture_series(h0, m0, m1, SWEEP_ORDER)
        table = gr.response_table(gr.mixture_forcing_terms(h0, m1, SWEEP_ORDER),
                                  m0, m1, SWEEP_ORDER)
        generic = [gr.density_derivative(table, n) * (1.0 / math.factorial(n))
                   for n in range(1, SWEEP_ORDER + 1)]
        holder["fast"] = fast
        return check_series_paths(fast, generic)

    def _point(self, series, eps):
        if series is None:
            return ["no series to truncate"]
        h = gr.invariant_density(gr.annealed(eps, self.m0, self.m1))
        ref = h(SWEEP_GRID)
        problems = []
        if not abs(h.integrate() - 1.0) <= MASS_TOL:
            problems.append(f"eps {eps}: density mass {h.integrate()!r}")
        for k in TRUNCATIONS:
            h_k = gr.PerturbationSeries(series.h0, series.coeffs[:k], k).at(eps)
            res = gr.residual(eps, h_k, self.m0, self.m1)
            err = float(np.max(np.abs(h_k(SWEEP_GRID) - ref)))
            if not (math.isfinite(res) and math.isfinite(err)):
                problems.append(f"eps {eps} k {k}: residual {res!r}, error {err!r}")
            elif k == SWEEP_ORDER and eps <= SWEEP_SUP_EPS and err > SWEEP_SUP_TOL:
                problems.append(f"eps {eps}: order-{k} sup error {err:.3e}")
        bound = gr.tail_error_bound(h)
        if not math.isfinite(bound):
            problems.append(f"eps {eps}: tail error bound {bound!r}")
        return problems


class DigitValidation:
    """Digit tables and point queries of the order-3 series against simulation."""

    name = "digit-validation"
    report = {"law_s": "law", "queries_s": "queries", "frequencies_s": "frequencies",
              "density_s": "density"}

    def __init__(self, seed, out_dir, meter):
        self.inputs = make_inputs(self.name, seed)
        self.meter = meter

    def prepare(self):
        _, _, _, self.series = warm_setup(DIGIT_ORDER)

    def run_pass(self, traced=False):
        ops = []
        for eps, seed in self.inputs["cases"]:
            state = {}
            ops.append(_timed(self.meter, "law", self._law, state, eps))
            ops.append(_timed(self.meter, "queries", self._queries, state, eps))
            ops.append(_timed(self.meter, "frequencies", self._frequencies, state, eps, seed))
            ops.append(_timed(self.meter, "density", self._density, eps, seed))
        return ops

    def _law(self, state, eps):
        state["law"] = gr.digit_law(eps, self.series, LAW_N_MAX)
        return check_law_mass(state["law"])

    def _queries(self, state, eps):
        queries = {n: gr.digit_probability(n, eps, self.series) for n in QUERY_DIGITS}
        return check_point_queries(state["law"], queries) if "law" in state else ["no law"]

    def _frequencies(self, state, eps, seed):
        cfg = gr.SimConfig(eps, FREQ_SAMPLES, FREQ_INDEX, seed)
        emp = gr.simulate_digit_freq(cfg, n_max=len(QUERY_DIGITS))
        return check_frequencies(state["law"].probs, emp) if "law" in state else ["no law"]

    def _density(self, eps, seed):
        cfg = gr.SimConfig(eps, DENSITY_SAMPLES, 1, seed, burn_in=DENSITY_BURN_IN)
        hist = gr.empirical_density(cfg, bins=DENSITY_BINS)
        return check_histogram(self.series.at(eps), hist, DENSITY_SAMPLES)


class CliBatch:
    """The README invocations, each a fresh ``gaussrenyi`` process writing a file."""

    name = "cli-batch"
    report = {f"cli.{c}_s": c for c in ("density", "digits", "convergence", "bounds", "simulate")}

    def __init__(self, seed, out_dir, meter):
        self.inputs = make_inputs(self.name, seed)
        self.meter = meter
        self.out_dir = out_dir
        self.first_bytes = {}
        self.output_bytes = 0
        self.child_spans = []

    def prepare(self):
        """In-process library values that every CLI table must reproduce."""
        m0, m1, h0, series = warm_setup(3)
        self.reference = {}
        for label, argv in self.inputs["commands"]:
            self.reference[label] = getattr(self, "_ref_" + label)(_flags(argv), m0, m1, h0, series)

    def command(self, argv, out, traced):
        if traced:
            spans_path = out.with_suffix(".spans.json")
            return [sys.executable, str(BENCH_DIR / "child.py"), "cli", str(spans_path),
                    *argv, "--out", str(out)], spans_path
        return [sys.executable, "-m", "gaussrenyi.cli", *argv, "--out", str(out)], None

    def run_pass(self, traced=False):
        ops = []
        self.output_bytes = 0
        self.child_spans = []
        for label, argv in self.inputs["commands"]:
            fmt = "json" if "json" in argv else "csv"
            out = self.out_dir / f"{label}.{fmt}"
            if out.exists():
                out.unlink()
            cmd, spans_path = self.command(argv, out, traced)
            proc, wall, seconds = self.meter.measure(_invoke, cmd)
            if proc is None:
                ops.append(Op(label, wall, seconds, ["timed out"]))
                continue
            if proc.returncode != 0 or not out.exists():
                tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
                ops.append(Op(label, wall, seconds, [f"exit {proc.returncode}: {tail}"]))
                continue
            data = out.read_bytes()
            self.output_bytes += len(data)
            problems = check_rows(parse_table(data.decode(), fmt), self.reference[label])
            if self.first_bytes.setdefault(label, data) != data:
                problems.append("output differs from the first invocation's bytes")
            if spans_path is not None:
                self.child_spans.append(json.loads(spans_path.read_text()))
            ops.append(Op(label, wall, seconds, problems))
        return ops

    # reference tables, built from library calls in this process

    @staticmethod
    def _ref_density(flags, m0, m1, h0, series):
        xs = np.linspace(0.0, 1.0, 201)
        cols = [xs, h0(xs)] + [c(xs) for c in series.coeffs] + [series.at(float(flags["--eps"]))(xs)]
        return [list(map(float, row)) for row in zip(*cols)]

    @staticmethod
    def _ref_digits(flags, m0, m1, h0, series):
        eps, n_max = float(flags["--eps"]), int(flags["--n-max"])
        law = gr.digit_law(eps, series, n_max)
        gk = [gr.gauss_kuzmin(n) for n in range(1, n_max + 1)]
        rows = [[n, float(law.probs[n - 1]), gk[n - 1]] for n in range(1, n_max + 1)]
        rows.append(["tail", law.tail_mass, gr.gauss_kuzmin_tail(n_max)])
        rows.append(["total", float(law.probs.sum()) + law.tail_mass,
                     sum(gk) + gr.gauss_kuzmin_tail(n_max)])
        return rows

    @staticmethod
    def _ref_convergence(flags, m0, m1, h0, series):
        eps_grid = (0.01, 0.02, 0.04)
        grid = np.linspace(0.0, 1.0, 2049)
        refs = {e: gr.invariant_density(gr.annealed(e, m0, m1))(grid) for e in eps_grid}
        rows = []
        for k in range(1, int(flags["--order"]) + 1):
            trunc = gr.PerturbationSeries(series.h0, series.coeffs[:k], k)
            errs = [float(np.max(np.abs(trunc.at(e)(grid) - refs[e]))) for e in eps_grid]
            slope = float(np.polyfit(np.log(eps_grid), np.log(errs), 1)[0])
            for e, err in zip(eps_grid, errs):
                rows.append([e, k, err, gr.residual(e, trunc.at(e), m0, m1), slope])
        return rows

    @staticmethod
    def _ref_bounds(flags, *_):
        rows = [[1, "", "", "deferred (i=1 case not covered by these bounds)"]]
        rows += [[i, gr.theta_bound(i), gr.c_bound(i), gr.eps_max(i)]
                 for i in range(2, int(flags["--n-max"]) + 1)]
        return rows

    @staticmethod
    def _ref_simulate(flags, *_):
        n_max = 100  # the CLI default
        cfg = gr.SimConfig(float(flags["--eps"]), int(flags["--samples"]), 20,
                           int(flags["--seed"]))
        law = gr.simulate_digit_freq(cfg, n_max)
        freq, err = law.frequencies(), law.std_errors()
        rows = [[n, int(law.counts[n - 1]), float(freq[n - 1]), float(err[n - 1])]
                for n in range(1, n_max + 1)]
        rows.append(["overflow", law.overflow, law.overflow / law.total, ""])
        return rows


def _flags(argv):
    return dict(zip(argv[1::2], argv[2::2]))


def make(workload, seed, out_dir, meter):
    cls = {"cli-batch": CliBatch, "eps-sweep": EpsSweep,
           "digit-validation": DigitValidation}[workload]
    return cls(seed, out_dir, meter)
