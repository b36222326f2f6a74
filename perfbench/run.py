#!/usr/bin/env python3
"""Benchmark of the qlll workbench: one workload per run, in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The run makes its inputs from --seed, sets up
(input generation plus one untimed warm-up operation) and then issues
operations one after another, closed loop, for --seconds seconds.  It sets
up SETUP_REPS - 1 more times at even intervals during that phase; setup_s is
the import time plus the median set-up time.  Every operation's outputs are
checked (checks.py).

--trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
untraced operations, traces one operation of every other workload for the
layers this one never calls, writes the spans to perfbench/traces/ and
prints the per-layer metrics.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKROOT = os.path.join(HERE, ".work")
TRACEDIR = os.path.join(HERE, "traces")

SETUP_REPS = 5
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Run:
    """Counts and correctness of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def reject(self, what, failures):
        for msg in failures:
            self.problems.append(f"{what}: {msg}")
            print(f"check failed: {what}: {msg}", file=sys.stderr)

    def attempt(self, wl, k, timer=None):
        """Run and check operation k; returns its wall time, or None if the
        program failed it."""
        self.attempted += 1
        try:
            start = time.perf_counter()
            with timer() if timer else contextlib.nullcontext():
                out = wl.run(k)
            elapsed = time.perf_counter() - start
        except Exception:  # noqa: BLE001 - any program error fails the operation
            self.failed += 1
            if self.failed == 1:
                traceback.print_exc()
            return None
        self.reject(f"{wl.name} op {k}", wl.check(k, out))
        return elapsed


def set_up(cls, seed, run, span=None):
    """Generate the inputs and make one warm-up operation; returns the
    workload and the time taken."""
    start = time.perf_counter()
    wl = cls(seed, span=span, workroot=WORKROOT)
    try:
        wl.setup()
        out = wl.run(0)
    except BaseException:
        wl.close()
        raise
    elapsed = time.perf_counter() - start
    run.reject(f"{wl.name} warm-up", wl.check(0, out))
    return wl, elapsed


def untraced(cls, seed, seconds, import_s):
    run = Run()
    wl, first = set_up(cls, seed, run)
    setups, times = [first], []
    try:
        k = 1
        start = time.perf_counter()
        deadline = start + seconds
        # the other set-ups are spread over the timed phase, so that their
        # median does not hang on one moment of the machine's speed
        marks = [start + seconds * i / SETUP_REPS for i in range(1, SETUP_REPS)]
        while time.perf_counter() < deadline:
            if marks and time.perf_counter() >= marks[0]:
                marks.pop(0)
                extra, t = set_up(cls, seed, run)
                extra.close()
                setups.append(t)
                continue
            t = run.attempt(wl, k)
            if t is not None:
                times.append(t)
            k += 1
        run.reject(f"{wl.name} run", wl.run_level_checks())
    finally:
        wl.close()
    if not times:
        raise SystemExit("error: every operation failed")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "ops_per_s": len(times) / sum(times),
        "op_p50_s": statistics.median(times),
        "peak_rss_mb": peak,
    }
    units = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_s": "s", "peak_rss_mb": "MiB"}
    print(f"{cls.name}: {len(times)} operations", file=sys.stderr)
    if len(times) >= 100:
        tail = statistics.quantiles(times, n=10)[-1]
        print(f"{cls.name}: op_p90_s {tail:.6f} over {len(times)} operations",
              file=sys.stderr)
    return run, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def traced(cls, seed, seconds):
    import tracing
    import workloads

    run = Run()
    tracer = tracing.Tracer()
    wl, _ = set_up(cls, seed, run, span=tracer.span)
    plain = []
    try:
        k = 1
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or k < 5:
            if k % 2:
                run.attempt(wl, k, lambda: tracer.operation(cls.name, k))
            else:
                t = run.attempt(wl, k)
                if t is not None:
                    plain.append(t)
            k += 1
    finally:
        wl.close()
    # layers this workload never calls are traced on one operation of each
    # other workload, so that every per-layer metric is measured
    for name in workloads.WORKLOADS:
        if name == cls.name:
            continue
        other, _ = set_up(workloads.WORKLOADS[name], seed, run, span=tracer.span)
        try:
            run.attempt(other, 1, lambda: tracer.operation(name, 1))
        finally:
            other.close()
    metrics, sources = tracing.layer_metrics(tracer, cls.name, list(workloads.WORKLOADS))
    doc = tracing.trace_document(tracer, cls.name, plain)
    doc.update({"seed": seed, "seconds": seconds, "metrics": metrics, "sources": sources})
    os.makedirs(TRACEDIR, exist_ok=True)
    path = os.path.join(TRACEDIR, f"{cls.name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    over = doc["overhead"]
    print(f"{cls.name}: trace written to {os.path.relpath(path, ROOT)}; tracing overhead "
          f"{over['overhead_s']:+.4f} s per operation ({100 * over['overhead_share']:+.1f}%)",
          file=sys.stderr)
    for name, row in list(doc["shares"].items())[:8]:
        print(f"  {100 * row['share']:5.1f}%  {name}", file=sys.stderr)
    return run, metrics


def main(argv=None):
    if not os.path.isfile(os.path.join(SRC, "qlll", "__init__.py")):
        print(f"error: no qlll package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # one BLAS/OpenMP thread, fixed before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [SRC, HERE]
    start = time.perf_counter()
    import workloads  # imports numpy and qlll

    import_s = time.perf_counter() - start
    args = parse_args(argv, list(workloads.WORKLOADS))
    cls = workloads.WORKLOADS[args.workload]
    seed = args.seed % 2**63
    if args.trace:
        run, metrics = traced(cls, seed, args.seconds)
    else:
        run, metrics = untraced(cls, seed, args.seconds, import_s)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
