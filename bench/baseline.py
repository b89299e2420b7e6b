"""Record a baseline: sets of untraced runs, one seed per run, on every workload.

    python3 bench/baseline.py --sets 2 --runs 10 --first-seed 100 --out bench/baseline.json

Run from the root of a checkout.  For each set, workload and end-to-end
metric it records every value, the median and the quartile spread
(distance between the first and third quartile over the median, as
``statistics.quantiles(values, n=4)`` gives them), and how far the
median of each later set lies from the first set's.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--out", default=str(BENCH / "baseline.json"))
    args = parser.parse_args()

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seed = args.first_seed
    sets = []
    for _ in range(args.sets):
        per_workload = {}
        for workload in (w["name"] for w in spec["workloads"]):
            values, machine = {}, None
            for _ in range(args.runs):
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                    capture_output=True, text=True, check=True)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                if not result["correct"]:
                    sys.exit(f"{workload} seed {seed} failed the gate:\n{proc.stdout}")
                machine = machine or json.loads(lines[1].split(":", 1)[1])
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
                seed += 1
            per_workload[workload] = {
                "machine": machine,
                "metrics": {name: {"median": statistics.median(v), "spread": spread(v),
                                   "values": v} for name, v in values.items()},
            }
        sets.append(per_workload)
    for later in sets[1:]:
        for workload, entry in later.items():
            for name, m in entry["metrics"].items():
                first = sets[0][workload]["metrics"][name]["median"]
                m["vs_first_set"] = m["median"] / first - 1.0
    for i, per_workload in enumerate(sets):
        for workload, entry in per_workload.items():
            for name, m in entry["metrics"].items():
                print(f"set {i} {workload:17} {name:12} median {m['median']:10.5g} "
                      f"spread {m['spread']:.3f} (bound {bounds[name]}) "
                      f"vs first {m.get('vs_first_set', 0.0):+.3f}")
    Path(args.out).write_text(json.dumps({"run_seconds": spec["run_seconds"], "sets": sets},
                                         indent=1) + "\n")


if __name__ == "__main__":
    main()
