"""Run the benchmark several times and report how much each metric moves.

    python3 bench/steadiness.py --workloads certify estimate --seeds 1 10

Runs ``bench/run.py`` once per seed and workload, one process at a time,
and prints for every end-to-end metric the median of the runs, its
quartiles and the spread (interquartile distance as a share of the
median) next to the metric's bound in BENCHMARK.json.  It also prints
the median of each job kind's median time and the calibration loop's
range, so machine drift can be told apart from changes in the program.
The summary is written to bench/out/steadiness.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(BENCH / "out" / f"report-{workload}-seed{seed}.json") as fh:
        report = json.load(fh)
    return result, report


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / q2


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=["certify", "estimate", "probe", "cli"])
    ap.add_argument("--seeds", nargs=2, type=int, default=[1, 10], metavar=("FIRST", "LAST"))
    args = ap.parse_args()
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    summary = {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, seconds)
                for seed in range(args.seeds[0], args.seeds[1] + 1)]
        print(f"\n{workload}: {len(runs)} runs of {seconds} s, "
              f"correct {sum(r['correct'] for r, _ in runs)}/{len(runs)}, "
              f"failed/attempted {sum(r['failed'] for r, _ in runs)}/"
              f"{sum(r['attempted'] for r, _ in runs)}")
        cal = [c for _, rep in runs for c in rep["calibration_s"]]
        print(f"  calibration_s {min(cal):.4f} .. {max(cal):.4f}")
        kinds = runs[0][1]["per_kind_median_ms"]
        print("  per-kind median ms  " + "  ".join(
            f"{k} {statistics.median(rep['per_kind_median_ms'][k] for _, rep in runs):.4g}"
            for k in kinds))
        rows = {}
        for name, m in runs[0][0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r, _ in runs]
            q1, med, q3, sp = spread(values)
            rows[name] = {"values": values, "median": med, "q1": q1, "q3": q3, "spread": sp,
                          "bound": bounds.get(name)}
            bound = bounds.get(name)
            flag = "" if bound is None or sp <= bound / 3 else "  <-- above bound/3"
            print(f"  {name:<14}{med:>12.5g} {m['unit']:<6} q1 {q1:<10.5g} q3 {q3:<10.5g} "
                  f"spread {100 * sp:6.2f}%  bound {100 * bound:5.1f}%{flag}")
        summary[workload] = rows
    (BENCH / "out").mkdir(exist_ok=True)
    with open(BENCH / "out" / "steadiness.json", "w") as fh:
        json.dump(summary, fh, indent=1)


if __name__ == "__main__":
    main()
