"""Benchmark of gaussrenyi, run from the root of a checkout.

    python3 bench/run.py --workload eps-sweep --seed 1 --trace 0
    python3 bench/run.py --workload all      # every workload, one after another

Workloads are described in ``workloads.py``.  ``--seconds`` defaults to
``run_seconds`` of ``BENCHMARK.json``.  With ``--trace 0`` the run
reports the end-to-end metrics: set-up time from fresh processes, pass
time over the workload's inputs, the share of failed operations and peak
memory, plus per-operation latencies.  Times are normalised to a
reference speed (``speed.py``); wall times are reported beside them.
With ``--trace 1`` it alternates untraced and traced passes and reports
the per-layer metrics of ``spans.LAYER_METRICS``.  The report goes to stdout; its last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record, with the machine facts, is written to
``.bench_out/<workload>/``.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

from facts import BLAS_THREAD_VARS, loadavg, machine_facts

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("cli-batch", "eps-sweep", "digit-validation")

# driver-facing end-to-end metrics: name -> unit
END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}

SETUP_SHARE = 0.25        # of --seconds, for fresh-process set-ups after one warm-up
MIN_SETUP_PROBES = 20
COLD_PROBES = 3           # traced fresh-process set-ups for the cold assembly
WARM_CONTROL_CALLS = 5
CHILD_TIMEOUT_S = 120
PERCENTILES = (99, 95, 90, 75, 50)


def tail_percentile(values):
    """(p, value) for the highest percentile with at least 10 samples above it."""
    ordered = sorted(values)
    for p in PERCENTILES:
        if len(ordered) * (100 - p) / 100 >= 10:
            return p, ordered[math.ceil(p / 100 * len(ordered)) - 1]
    return None


def summarize(values, unit):
    out = {"value": statistics.median(values), "unit": unit, "n": len(values)}
    tail = tail_percentile(values)
    if tail is not None:
        out[f"p{tail[0]}"] = tail[1]
    return out


def pass_time(passes):
    """Time of one pass: the sum of each operation's median over the passes.

    The inputs are the same in every pass, so operations line up.
    """
    return sum(statistics.median(op.seconds for op in ops) for ops in zip(*passes))


def setup_probes(args, meter, op_type):
    """Ops of fresh processes doing the workload's set-up."""
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "setup", args.workload]
    # warm-up: byte-compiles the sources and fills the file cache
    subprocess.run(cmd, capture_output=True, timeout=CHILD_TIMEOUT_S)
    probes = []
    deadline = time.perf_counter() + SETUP_SHARE * args.seconds
    while len(probes) < MIN_SETUP_PROBES or time.perf_counter() < deadline:
        proc, wall, seconds = meter.measure(
            subprocess.run, cmd, capture_output=True, timeout=CHILD_TIMEOUT_S)
        problems = [] if proc.returncode == 0 else [
            f"set-up exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-200:]}"]
        probes.append(op_type("setup", wall, seconds, problems))
    return probes


def peak_rss_mb(workload):
    # the CLI runs in child processes; the warm workloads in this one
    who = resource.RUSAGE_CHILDREN if workload == "cli-batch" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def plain_run(wl, args, workloads):
    setup = setup_probes(args, wl.meter, workloads.Op)
    ops = list(setup)
    wl.prepare()
    passes = []
    deadline = time.perf_counter() + (1.0 - SETUP_SHARE) * args.seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(wl.run_pass())
        ops += passes[-1]
    measured = {
        "setup_s": (statistics.median(op.seconds for op in setup), len(setup)),
        "pass_s": (pass_time(passes), len(passes)),
        "peak_rss_mb": (peak_rss_mb(args.workload), 1),
    }
    metrics = {name: {"value": measured[name][0], "unit": unit, "n": measured[name][1]}
               for name, unit in END_TO_END.items()}
    failed = sum(1 for op in ops if op.problems)
    report = dict(metrics)
    report["setup_s.wall"] = summarize([op.wall for op in setup], "s")
    report["pass_s.wall"] = summarize([sum(op.wall for op in p) for p in passes], "s")
    report["fail_frac"] = {"value": failed / len(ops), "unit": "ratio", "n": len(ops)}
    for name, kind in wl.report.items():
        report[name] = summarize([op.seconds for op in ops if op.kind == kind], "s")
    return ops, metrics, report


def traced_run(wl, args, workloads):
    import spans

    gr = workloads.gr
    ops = []
    tracer = spans.Tracer()
    if args.workload != "cli-batch":
        for i in range(COLD_PROBES):
            path = wl_out(args) / f"setup-{i}.spans.json"
            cmd = [sys.executable, str(BENCH_DIR / "child.py"), "setup", args.workload, str(path)]
            proc = subprocess.run(cmd, capture_output=True, timeout=CHILD_TIMEOUT_S)
            if proc.returncode == 0:
                spans.merge(tracer.spans, json.loads(path.read_text()), -1)
            else:
                ops.append(workloads.Op("setup", 0.0, 0.0,
                                        [f"traced set-up exit {proc.returncode}"]))
    wl.prepare()
    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(wl.run_pass())
        ops += untraced[-1]
        restore = spans.install(tracer)
        pass_index = len(tracer.spans)
        tracer.begin("pass")
        try:
            traced.append(wl.run_pass(traced=True))
        finally:
            tracer.end()
            restore()
        ops += traced[-1]
        for child in getattr(wl, "child_spans", ()):
            spans.merge(tracer.spans, child, pass_index)
    warm = []
    for _ in range(WARM_CONTROL_CALLS):
        t0 = time.perf_counter()
        gr.assemble_operator(gr.MapKind.GAUSS, workloads.DEGREE)
        warm.append(time.perf_counter() - t0)
    layer = spans.layer_metrics(
        tracer.spans,
        warm_s=statistics.median(warm),
        overhead_frac=pass_time(traced) / pass_time(untraced) - 1.0,
        output_bytes=float(getattr(wl, "output_bytes", 0)),
    )
    with open(wl_out(args) / f"trace-seed{args.seed}.json", "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    metrics = {name: {"value": value, "unit": spans.LAYER_METRICS[name][0]}
               for name, value in layer.items()}
    report = dict(metrics)
    report["pass_s.untraced"] = {"value": pass_time(untraced), "unit": "s", "n": len(untraced)}
    report["pass_s.traced"] = {"value": pass_time(traced), "unit": "s", "n": len(traced)}
    return ops, metrics, report


def wl_out(args):
    return Path.cwd() / ".bench_out" / args.workload


def print_report(args, facts, report, ops):
    print(f"# gaussrenyi benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print(f"# machine: {json.dumps(facts)}")
    print(f"# {'metric':44} {'unit':6} {'median':>14} {'tail':>20} {'n':>6}")
    for name, m in report.items():
        tail = next(((k, v) for k, v in m.items() if k.startswith("p")), None)
        tail_text = f"{tail[0]}={tail[1]:.6g}" if tail else "-"
        print(f"  {name:44} {m['unit']:6} {m['value']:14.6g} {tail_text:>20} {m.get('n', 1):>6}")
    for op in [op for op in ops if op.problems][:10]:
        print(f"# failed {op.kind}: {'; '.join(op.problems)[:300]}")


def run_all(args):
    """Every workload in its own process; the last line sums their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "gaussrenyi" / "__init__.py").is_file():
        print(f"{root} holds no src/gaussrenyi; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # before numpy is imported here or in any child process
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(src)
    sys.path.insert(0, str(src))
    # one core for this process and its children, so that the calibration
    # kernel of speed.py runs where the work it normalises runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload == "all":
        return run_all(args)

    import workloads
    from speed import Meter

    # the edge band of eps-sweep lies beyond eps_max(2) on purpose
    warnings.filterwarnings("ignore", message="mixture weight .* outside the admissible range")

    if not Path(workloads.gr.__file__).resolve().is_relative_to(src.resolve()):
        print(f"gaussrenyi imported from {workloads.gr.__file__}, not {src}", file=sys.stderr)
        return 2
    out_dir = wl_out(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    facts = machine_facts(root)
    facts["loadavg_start"] = loadavg()
    wl = workloads.make(args.workload, args.seed, out_dir, Meter())
    runner = traced_run if args.trace else plain_run
    ops, metrics, report = runner(wl, args, workloads)
    facts["loadavg_end"] = loadavg()

    failed = sum(1 for op in ops if op.problems)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts, "inputs": wl.inputs, "metrics": report,
        "attempted": len(ops), "failed": failed,
        "problems": [[op.kind, op.problems] for op in ops if op.problems],
    }
    with open(out_dir / f"result-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print_report(args, facts, report, ops)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
