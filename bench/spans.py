"""In-memory spans around the public gaussrenyi entry points.

A span is ``[name, start, end, parent, attrs]``: ``parent`` is the index
of the enclosing span in the same list, or -1.  Spans are kept in a list
and written out once, when the run ends.  The wrappers are installed by
the benchmark from outside the package: every module-level binding of a
wrapped function inside ``gaussrenyi`` is replaced, so calls made through
``gaussrenyi.cli.invariant_density`` or ``gaussrenyi.perturbation.
resolvent_solve`` are recorded as well as direct calls.

The per-layer metrics and their units are listed in :data:`LAYER_METRICS`;
``BENCHMARK.json`` mirrors that list, and ``README.md`` says which
end-to-end metric each one should move.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# (span name, module, attribute, attrs(*args, **kwargs) or None)
# For class methods the attribute is "Class.method".
TARGETS = (
    ("transfer.assemble_operator", "gaussrenyi.transfer", "assemble_operator", None),
    ("transfer.invariant_density", "gaussrenyi.transfer", "invariant_density",
     lambda m: {"eps": m.eps}),
    ("transfer.resolvent_solve", "gaussrenyi.transfer", "resolvent_solve", None),
    ("transfer.tail_error_bound", "gaussrenyi.transfer", "tail_error_bound", None),
    ("transfer.hurwitz_zeta", "gaussrenyi.transfer", "hurwitz_zeta", None),
    ("transfer.annealed", "gaussrenyi.transfer", "annealed", None),
    ("perturbation.mixture_series", "gaussrenyi.perturbation", "mixture_series", None),
    ("perturbation.response_table", "gaussrenyi.perturbation", "response_table", None),
    ("perturbation.residual", "gaussrenyi.perturbation", "residual", None),
    ("perturbation.PerturbationSeries.at", "gaussrenyi.perturbation",
     "PerturbationSeries.at", None),
    ("digits.digit_law", "gaussrenyi.digits", "digit_law",
     lambda eps, series, n_max=100: {"digits": n_max}),
    ("digits.digit_probability", "gaussrenyi.digits", "digit_probability", None),
    ("funcspace.ChebFn.integrate_on", "gaussrenyi.funcspace", "ChebFn.integrate_on", None),
    ("funcspace.ChebFn.call", "gaussrenyi.funcspace", "ChebFn.__call__", None),
    ("simulate.simulate_digit_freq", "gaussrenyi.simulate", "simulate_digit_freq",
     lambda cfg, *a, **k: {"sample_steps": cfg.samples * cfg.n_index}),
    ("simulate.empirical_density", "gaussrenyi.simulate", "empirical_density",
     lambda cfg, *a, **k: {"sample_steps": cfg.samples * cfg.burn_in}),
    ("bounds.theta_bound", "gaussrenyi.bounds", "theta_bound", None),
    ("bounds.c_bound", "gaussrenyi.bounds", "c_bound", None),
    ("bounds.eps_max", "gaussrenyi.bounds", "eps_max", None),
    ("cli.main", "gaussrenyi.cli", "main", None),
)

# highest eps of the low band; invariant_density calls above it count as edge
LO_BAND_MAX = 0.8

# name -> (unit, better); bench/README.md maps each to the end-to-end metric it should move
LAYER_METRICS = {
    "transfer.assemble_operator.cold_s": ("s", "lower"),
    "transfer.assemble_operator.warm_s": ("s", "lower"),
    "transfer.invariant_density.lo_s": ("s", "lower"),
    "transfer.invariant_density.edge_s": ("s", "lower"),
    "transfer.invariant_density.calls": ("count", "lower"),
    "transfer.resolvent_solve.s": ("s", "lower"),
    "transfer.resolvent_solve.calls": ("count", "lower"),
    "transfer.tail_error_bound.s": ("s", "lower"),
    "transfer.hurwitz_zeta.s": ("s", "lower"),
    "transfer.hurwitz_zeta.calls": ("count", "lower"),
    "transfer.annealed.s": ("s", "lower"),
    "perturbation.mixture_series.s": ("s", "lower"),
    "perturbation.response_table.s": ("s", "lower"),
    "perturbation.residual.s": ("s", "lower"),
    "perturbation.residual.calls": ("count", "lower"),
    "perturbation.PerturbationSeries.at.calls": ("count", "lower"),
    "digits.digit_law.s": ("s", "lower"),
    "digits.digit_law.digits_per_s": ("1/s", "higher"),
    "digits.digit_probability.calls": ("count", "lower"),
    "digits.digit_probability.self_s": ("s", "lower"),
    "funcspace.ChebFn.integrate_on.calls": ("count", "lower"),
    "funcspace.ChebFn.call.calls": ("count", "lower"),
    "funcspace.ChebFn.call.self_s": ("s", "lower"),
    "simulate.simulate_digit_freq.s": ("s", "lower"),
    "simulate.simulate_digit_freq.ns_per_sample_step": ("ns", "lower"),
    "simulate.empirical_density.s": ("s", "lower"),
    "simulate.empirical_density.ns_per_sample_step": ("ns", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "bounds.s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


class Tracer:
    """Records nested spans in memory; ``wrap`` makes a recording wrapper."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    def begin(self, name, attrs=None):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, attrs or {}])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][2] = self.clock()

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin(name, attrs(*args, **kwargs) if attrs else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return wrapper


def install(tracer):
    """Wrap every target; returns a function that restores the originals."""
    undo = []
    for name, modname, attr, attrs in TARGETS:
        owner = sys.modules.get(modname)
        if owner is None:  # not imported in this process, so never called
            continue
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(name, original, _method_attrs(attrs)))
            undo.append((cls, meth, original))
            continue
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original, attrs)
        for mod in list(sys.modules.values()):
            if mod is None or mod.__name__.split(".")[0] != "gaussrenyi":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))

    def restore():
        for target, key, original in reversed(undo):
            setattr(target, key, original)

    return restore


def merge(spans, child, parent):
    """Append the spans of a child process, its roots re-parented to ``parent``."""
    offset = len(spans)
    for name, start, end, p, attrs in child:
        spans.append([name, start, end, p + offset if p >= 0 else parent, attrs])


def _method_attrs(attrs):
    return None if attrs is None else (lambda self, *a, **k: attrs(*a, **k))


def self_times(spans):
    """Duration of each span minus the part of it its children cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def enclosing(spans, name):
    """Index of the innermost span called ``name`` around each span, or -1."""
    out = []
    for i, span in enumerate(spans):
        if span[0] == name:
            out.append(i)
        else:
            out.append(out[span[3]] if span[3] >= 0 else -1)
    return out


def layer_metrics(spans, *, warm_s, overhead_frac, output_bytes=0.0):
    """Per-layer metrics from the spans of one traced run.

    Per-pass figures are averaged over the spans named ``pass`` at the
    top level; per-process figures (cold assembly, CLI import) are the
    median over the spans named ``process``.
    """
    selfs = self_times(spans)
    n_pass = max(sum(1 for s in spans if s[0] == "pass"), 1)
    in_pass = [p >= 0 for p in enclosing(spans, "pass")]

    def picked(name):
        return [i for i, s in enumerate(spans) if s[0] == name and in_pass[i]]

    def dur(i):
        return spans[i][2] - spans[i][1]

    def total(name):
        return sum(dur(i) for i in picked(name)) / n_pass

    def calls(name):
        return len(picked(name)) / n_pass

    def self_total(name):
        return sum(selfs[i] for i in picked(name)) / n_pass

    def per_sample_step_ns(name):
        idx = picked(name)
        steps = sum(spans[i][4]["sample_steps"] for i in idx)
        return 1e9 * sum(dur(i) for i in idx) / steps if steps else 0.0

    def median_or_zero(values):
        return statistics.median(values) if values else 0.0

    cold = {}
    for i, p in enumerate(enclosing(spans, "process")):
        if p >= 0 and spans[i][0] == "transfer.assemble_operator":
            cold[p] = cold.get(p, 0.0) + dur(i)
    imports = [dur(i) for i, s in enumerate(spans) if s[0] == "cli.import"]
    lo, edge = [], []
    for i in picked("transfer.invariant_density"):
        eps = spans[i][4]["eps"]
        (lo if eps is None or eps <= LO_BAND_MAX else edge).append(dur(i))
    law_digits = sum(spans[i][4]["digits"] for i in picked("digits.digit_law"))
    law_s = total("digits.digit_law") * n_pass
    bounds = [i for i, s in enumerate(spans)
              if s[0].startswith("bounds.") and in_pass[i]
              and not (s[3] >= 0 and spans[s[3]][0].startswith("bounds."))]

    return {
        "transfer.assemble_operator.cold_s": median_or_zero(list(cold.values())),
        "transfer.assemble_operator.warm_s": warm_s,
        "transfer.invariant_density.lo_s": median_or_zero(lo),
        "transfer.invariant_density.edge_s": median_or_zero(edge),
        "transfer.invariant_density.calls": calls("transfer.invariant_density"),
        "transfer.resolvent_solve.s": total("transfer.resolvent_solve"),
        "transfer.resolvent_solve.calls": calls("transfer.resolvent_solve"),
        "transfer.tail_error_bound.s": total("transfer.tail_error_bound"),
        "transfer.hurwitz_zeta.s": total("transfer.hurwitz_zeta"),
        "transfer.hurwitz_zeta.calls": calls("transfer.hurwitz_zeta"),
        "transfer.annealed.s": total("transfer.annealed"),
        "perturbation.mixture_series.s": total("perturbation.mixture_series"),
        "perturbation.response_table.s": total("perturbation.response_table"),
        "perturbation.residual.s": total("perturbation.residual"),
        "perturbation.residual.calls": calls("perturbation.residual"),
        "perturbation.PerturbationSeries.at.calls": calls("perturbation.PerturbationSeries.at"),
        "digits.digit_law.s": total("digits.digit_law"),
        "digits.digit_law.digits_per_s": law_digits / law_s if law_s else 0.0,
        "digits.digit_probability.calls": calls("digits.digit_probability"),
        "digits.digit_probability.self_s": self_total("digits.digit_probability"),
        "funcspace.ChebFn.integrate_on.calls": calls("funcspace.ChebFn.integrate_on"),
        "funcspace.ChebFn.call.calls": calls("funcspace.ChebFn.call"),
        "funcspace.ChebFn.call.self_s": self_total("funcspace.ChebFn.call"),
        "simulate.simulate_digit_freq.s": total("simulate.simulate_digit_freq"),
        "simulate.simulate_digit_freq.ns_per_sample_step":
            per_sample_step_ns("simulate.simulate_digit_freq"),
        "simulate.empirical_density.s": total("simulate.empirical_density"),
        "simulate.empirical_density.ns_per_sample_step":
            per_sample_step_ns("simulate.empirical_density"),
        "cli.import_s": median_or_zero(imports),
        "cli.main.self_s": self_total("cli.main"),
        "cli.output_bytes": output_bytes,
        "bounds.s": sum(dur(i) for i in bounds) / n_pass,
        "trace.overhead_frac": overhead_frac,
    }
