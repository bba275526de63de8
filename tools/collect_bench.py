"""Run every benchmark workload once and collect the results into one JSON file.

    python3 tools/collect_bench.py BENCH_26.json
    python3 tools/collect_bench.py --seconds 2 /tmp/bench.json

The command, the workloads and the run length come from BENCHMARK.json;
--seconds overrides the run length.  Each workload runs untraced, at the
fixed seed 1, from the repository root as `<command> --workload <w>
--seed 1 --trace 0 --seconds <s>`.  The file holds the git revision,
the source paths that differ from it, and per workload the run's
last-line result (correct, attempted, failed, metrics) and, from
bench/out/report-<w>-seed1.json, the machine facts, the calibration-loop
times and the set-up times.  The exit code is 1 when a run fails or
reports an incorrect output; the file is written either way.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
REPORT_KEYS = ("machine", "calibration_s", "setup_runs_s")


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.rstrip("\n")


def run_workload(command, workload, seconds):
    """The run's last-line result and the report fields it wrote, or None for a failed run."""
    argv = [*command, "--workload", workload, "--seed", str(SEED), "--trace", "0",
            "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode or not lines:
        sys.stderr.write(f"{workload}: exit {done.returncode}\n{done.stderr}")
        return None
    entry = {"result": json.loads(lines[-1])}
    report = json.loads((ROOT / "bench" / "out" / f"report-{workload}-seed{SEED}.json")
                        .read_text())
    entry.update((key, report[key]) for key in REPORT_KEYS)
    return entry


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", type=Path, help="JSON file to write")
    ap.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    args = ap.parse_args(argv)

    collected = {
        "revision": git("rev-parse", "HEAD"),
        "changed_since_revision": git("status", "--porcelain", "--", "src", "bench").splitlines(),
        "seed": SEED,
        "seconds": args.seconds,
        "workloads": {},
    }
    ok = True
    for w in bench["workloads"]:
        entry = run_workload(bench["command"], w["name"], args.seconds)
        collected["workloads"][w["name"]] = entry
        ok = ok and entry is not None and entry["result"]["correct"]
    args.out.write_text(json.dumps(collected, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
