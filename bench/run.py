"""Closed-loop benchmark of the fixedslope package.

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

One client runs one job at a time, in-process, and starts the next job
only when the previous one has returned.  The workload's inputs come from
--seed alone.  With --trace 0 the run times jobs for --seconds and
reports the end-to-end metrics; with --trace 1 it makes one untraced and
one traced pass over the workload's items and reports per-layer figures.
Every output is checked against independent references after timing.
The last line of standard output is the JSON result; a fuller report is
written under bench/out/.
"""

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Fresh-process set-ups per run, before and after the timed phase.
SETUP_RUNS = (2, 3)
CALIBRATION_LOOPS = 300_000
# Largest allowed median, over items, of an item's first timed job ÷ its
# best one.  Noise keeps it between 1 and about 3; results cached across
# calls make the repeats nearly free and the ratio far larger.
MAX_FIRST_TO_BEST = 10.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set the workload up, print 'ready' and exit (used to time set-up)")
    return ap.parse_args(argv)


def load_package():
    """Import fixedslope from this checkout's src/, never from elsewhere."""
    if not (SRC / "fixedslope" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {SRC.relative_to(ROOT)}/fixedslope")
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import fixedslope
    if Path(fixedslope.__file__).resolve().parent != SRC / "fixedslope":
        raise SystemExit(f"bench: imported fixedslope from {fixedslope.__file__}")
    import fixedslope.cli  # noqa: F401  (bound as fixedslope.cli for the tracer)
    return fixedslope


# --- machine facts ----------------------------------------------------------

def calibrate():
    """Seconds for a fixed pure-Python loop; metadata to tell machine drift apart."""
    t = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t


def blas_threads():
    """Size of the BLAS thread pool numpy loaded, when it can be queried."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def machine_facts():
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0))
    threads = blas_threads()
    if threads is not None and threads > nproc:
        raise SystemExit(f"bench: BLAS pool of {threads} threads exceeds nproc={nproc}")
    return {"nproc": nproc, "cpu": cpu, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "blas_threads": threads}


# --- set-up time ------------------------------------------------------------

def time_setups(args, count):
    """Wall times from spawning a fresh process to the end of its set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(count):
        t = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if code != 0 or not line.startswith("ready"):
            raise SystemExit(f"bench: set-up process failed with exit code {code}")
        times.append(elapsed)
    return times


# --- the closed loop ----------------------------------------------------------

class Ledger:
    """Per-item outcomes: first output, repeat count, disagreeing repeats, errors."""

    def __init__(self, workload):
        self.workload = workload
        n = len(workload.items)
        self.first = [None] * n
        self.first_time = [math.nan] * n
        self.reps = [0] * n
        self.mismatch = [0] * n
        self.errors = {}
        self.item = array("l")
        self.time = array("d")

    def record(self, j, dt, output):
        self.item.append(j)
        self.time.append(dt)
        if self.reps[j] == 0:
            self.first_time[j] = dt
        self.reps[j] += 1
        if isinstance(output, Exception):
            self.errors.setdefault(j, repr(output))
            return
        summary = self.workload.summarize(output)
        if self.first[j] is None:
            self.first[j] = summary
        elif summary != self.first[j]:
            self.mismatch[j] += 1

    def grade(self):
        """Check every item that ran.

        Returns (failed items, failed jobs, incorrect jobs, notes); incorrect
        jobs exclude check failures of outputs built on sampled measures.
        """
        items = failed = incorrect = 0
        notes = []
        for j, item in enumerate(self.workload.items):
            if self.reps[j] == 0:
                continue
            if j in self.errors:
                bad, note = self.reps[j], f"raised {self.errors[j]}"
            else:
                verdict = self.workload.check(item, self.first[j])
                bad, note = (0, "") if verdict.ok else (self.reps[j], verdict.note)
            if bad:
                failed += bad
                incorrect += 0 if item.sampled and j not in self.errors else bad
                notes.append(f"item {j} ({item.kind}{', sampled measure' if item.sampled else ''})"
                             f": {note}")
            if self.mismatch[j]:
                failed += self.mismatch[j]
                incorrect += self.mismatch[j]
                notes.append(f"item {j}: {self.mismatch[j]} repeats gave a different output")
            items += bool(bad or self.mismatch[j])
        return items, failed, incorrect, notes


def run_job(workload, item):
    try:
        return workload.run(item)
    except Exception as exc:  # any error a job raises is a failed job
        return exc


def closed_loop(workload, items, ledger, seconds=None, on_job=None):
    """Run the items once each: one pass in order, or whole passes until
    ``seconds`` have passed.

    Later passes shuffle whole rounds (one item of each kind), so kinds stay
    interleaved but no item always runs at the same moment of a pass: a
    slowdown that recurs with the pass could otherwise hit the same items
    on every pass.
    """
    clock = time.perf_counter
    start = clock()
    deadline = start + (seconds or 0.0)
    width = len(workload.kinds)
    rounds = [list(range(i, min(i + width, len(items)))) for i in range(0, len(items), width)]
    shuffle = random.Random(workload.seed).shuffle
    jobs = 0
    while True:
        for j in (j for r in rounds for j in r):
            t = clock()
            out = run_job(workload, items[j])
            ledger.record(j, clock() - t, out)
            if on_job is not None:
                on_job(j)
            jobs += 1
        if seconds is None or clock() >= deadline:
            return clock() - start, jobs
        shuffle(rounds)


def best_times(ledger, n_items):
    """Each item's shortest repeat: its cost with the least interference."""
    best = [math.inf] * n_items
    for j, dt in zip(ledger.item, ledger.time):
        if dt < best[j]:
            best[j] = dt
    return best


def first_to_best(ledger, best):
    """Median over items of an item's first timed job ÷ its best one."""
    return statistics.median(f / b for f, b in zip(ledger.first_time, best))


def tail(best, jobs):
    """Highest percentile with at least ten jobs beyond it: (value, percentile).

    Every item ran equally often, so the job times are the item times, each
    repeated; the percentile is interpolated between neighbouring items.
    """
    q = max(0.0, 1.0 - 10.0 / jobs)
    ordered = sorted(best)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo]), 100.0 * q


def per_kind_medians(workload, times):
    by_kind = {}
    for item, dt in zip(workload.items, times):
        by_kind.setdefault(item.kind, []).append(dt)
    return {k: statistics.median(v) * 1e3 for k, v in by_kind.items()}


def metric(value, unit):
    return {"value": value, "unit": unit}


# --- modes ------------------------------------------------------------------

def end_to_end(args, fs, workload, ledger, report):
    closed_loop(workload, workload.items[:len(workload.kinds)], Ledger(workload))  # warm-up
    wall, jobs = closed_loop(workload, workload.items, ledger, seconds=args.seconds)
    setups = report["setup_runs_s"] = report["setup_runs_s"] + time_setups(args, SETUP_RUNS[1])
    best = best_times(ledger, len(workload.items))
    tail_value, tail_pct = tail(best, jobs)
    failed_items, failed, incorrect, notes = ledger.grade()
    ratio = first_to_best(ledger, best)
    if ratio > MAX_FIRST_TO_BEST:
        incorrect += 1
        notes.append(f"first visits ran {ratio:.3g} times as long as the best repeats: "
                     f"outputs look cached across calls, so job times are not the cost of "
                     f"fresh work")
    metrics = {
        "job_p50_ms": metric(statistics.median(best) * 1e3, "ms"),
        "job_tail_ms": metric(tail_value * 1e3, "ms"),
        "jobs_per_s": metric(len(best) / sum(best), "1/s"),
        "pass_ratio": metric(1.0 - failed_items / len(best), "ratio"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    report.update(jobs=jobs, wall_s=wall, tail_percentile=tail_pct,
                  repeats=jobs // len(best),
                  all_jobs_p50_ms=statistics.median(ledger.time) * 1e3,
                  all_jobs_per_s=jobs / wall,
                  first_p50_ms=statistics.median(ledger.first_time) * 1e3,
                  first_to_best=ratio,
                  per_kind_median_ms=per_kind_medians(workload, best))
    return metrics, jobs, failed, incorrect, notes


def traced_pass(fs, workload, items):
    """One pass over items with every package function traced: (tracer, ledger)."""
    import tracer as tracing
    tr = tracing.Tracer()
    items = workload.with_problems(items, tr.wrap_problem)
    ledger = Ledger(workload)
    count_bytes = getattr(workload, "bytes_written", None)

    def on_job(j):
        tr.job_id = j + 1
        if count_bytes is not None:
            tr.count("cli.bytes_written", count_bytes(items[j]))

    tr.job_id = 0
    tr.install(fs)
    try:
        closed_loop(workload, items, ledger, on_job=on_job)
    finally:
        tr.uninstall()
    return tr, ledger


def traced(args, fs, workload, ledger, report):
    import tracer as tracing
    closed_loop(workload, workload.items[:len(workload.kinds)], Ledger(workload))  # warm-up
    closed_loop(workload, workload.items, ledger)
    untraced_p50 = statistics.median(ledger.time)
    tr, traced_ledger = traced_pass(fs, workload, workload.items)
    traced_p50 = statistics.median(traced_ledger.time)
    layers = tr.layer_metrics(len(workload.items))
    layers["trace.overhead_ms"] = (traced_p50 - untraced_p50) * 1e3
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    tr.save(span_file)

    failed = incorrect = 0
    notes = []
    for led in (ledger, traced_ledger):
        _, f, i, n = led.grade()
        failed, incorrect, notes = failed + f, incorrect + i, notes + n
    jobs = len(ledger.time) + len(traced_ledger.time)
    metrics = {name: metric(value, tracing.unit(name)) for name, value in layers.items()}
    report.update(jobs=jobs, spans=len(tr.start), span_file=str(span_file.relative_to(ROOT)),
                  untraced_p50_ms=untraced_p50 * 1e3, traced_p50_ms=traced_p50 * 1e3)
    return metrics, jobs, failed, incorrect, notes


def print_report(args, report, metrics, notes):
    m = report["machine"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"machine  nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
          f"numpy={m['numpy']} blas_threads={m['blas_threads']}")
    print("calibration_s  start {:.4f}  end {:.4f}  (fixed {}-step Python loop)".format(
        *report["calibration_s"], CALIBRATION_LOOPS))
    print(f"jobs {report['jobs']}  failed {report['failed']}  "
          f"fail_ratio {report['failed'] / report['jobs']:.4f}  items {report['items']}")
    for note in notes[:20]:
        print(f"  failure: {note}")
    if len(notes) > 20:
        print(f"  ... {len(notes) - 20} more")
    if not args.trace:
        print(f"each item ran {report['repeats']} times; job times below are each item's best")
        print("per-kind median ms  " + "  ".join(
            f"{k} {v:.4g}" for k, v in report["per_kind_median_ms"].items()))
        print(f"all jobs: p50 {report['all_jobs_p50_ms']:.4g} ms, "
              f"{report['all_jobs_per_s']:.4g} jobs/s over {report['wall_s']:.2f} s wall")
        print(f"first visits: p50 {report['first_p50_ms']:.4g} ms; median first ÷ best "
              f"{report['first_to_best']:.3g} (at most {MAX_FIRST_TO_BEST:g})")
    for name, m in metrics.items():
        extra = ""
        if name == "job_tail_ms":
            extra = f"  (p{report['tail_percentile']:.2f} of {report['jobs']} jobs)"
        if args.trace and m["value"] == 0 and name != "trace.overhead_ms":
            continue  # the layer does not run on this workload
        print(f"{name:<26}{m['value']:>14.6g} {m['unit']}{extra}")
    if args.trace:
        print(f"tracing overhead: job p50 {report['untraced_p50_ms']:.4g} ms untraced, "
              f"{report['traced_p50_ms']:.4g} ms traced; {report['spans']} spans "
              f"-> {report['span_file']}")


def main(argv=None):
    args = parse_args(argv)
    fs = load_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"known: {sorted(workloads.WORKLOADS)}")
    make_workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmpdir:
        if args.setup_only:
            make_workload(fs=fs, seed=args.seed, tmpdir=tmpdir)
            print("ready", flush=True)
            return 0
        report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "machine": machine_facts(),
                  "calibration_s": [calibrate()]}
        if not args.trace:
            report["setup_runs_s"] = time_setups(args, SETUP_RUNS[0])
        workload = make_workload(fs=fs, seed=args.seed, tmpdir=tmpdir)
        ledger = Ledger(workload)
        mode = traced if args.trace else end_to_end
        metrics, jobs, failed, incorrect, notes = mode(args, fs, workload, ledger, report)
        report["calibration_s"].append(calibrate())
        report.update(items=len(workload.items), failed=failed, incorrect=incorrect,
                      notes=notes, metrics=metrics)
    suffix = "-trace" if args.trace else ""
    with open(OUT / f"report-{args.workload}-seed{args.seed}{suffix}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    print_report(args, report, metrics, notes)
    result = {"correct": incorrect == 0, "attempted": jobs, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
