"""Run one juliareal benchmark workload and print its metrics.

From the repository root:

    python3 bench/run.py --workload cubic-region --seed 1 --seconds 20 --trace 0

The run measures set-up in fresh interpreters, warms up with one untimed
operation, then repeats the whole rounds of operations that take --seconds
on the reference machine, checking every result.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics of
tracing.py with --trace 1.  Each run also writes its figures to
bench/results/.  README.md describes the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RESULTS = BENCH / "results"

# One region_scan worker and one BLAS thread: under the GIL the default pool
# of os.cpu_count() threads buys nothing and adds noise (README).
THREADS_ENV = {"JULIAREAL_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 5
MIN_OPS = 40            # the fewest samples for which op_tail_ms is a tail
TAIL_BEYOND = 10
WORKLOAD_NAMES = ("cubic-region", "classify-mixed", "backward-orbit", "exact-certify")


def tail_percentile(samples, beyond=TAIL_BEYOND):
    """(value, percentile, n) of the highest percentile with `beyond` samples above it.

    That is the (beyond + 1)-th largest sample, at percentile
    100 * (n - beyond) / n; None when there are no more than `beyond` samples.
    """
    n = len(samples)
    if n <= beyond:
        return None
    return sorted(samples)[n - 1 - beyond], 100.0 * (n - beyond) / n, n


def load_program():
    """Import juliareal from this checkout's src/, or exit."""
    init = SRC / "juliareal" / "__init__.py"
    if not init.is_file():
        sys.exit(f"run.py: juliareal sources not found at {init}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import juliareal
    if Path(juliareal.__file__).resolve() != init.resolve():
        sys.exit(f"run.py: imported juliareal from {juliareal.__file__}, not {init}")


def setup_seconds(warmup):
    """Median wall time for a fresh interpreter to import juliareal and run warmup."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import juliareal; {warmup}"
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Tally:
    """Latencies, work and outcomes of the timed operations."""

    def __init__(self):
        self.latencies = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0

    @property
    def seconds(self):
        return sum(self.latencies)

    def run_round(self, ops):
        for op in ops:
            start = time.perf_counter()
            try:
                result, error = op.call(), False
            except Exception:       # a raising operation is a failed one
                result, error = None, True
            self.latencies.append(time.perf_counter() - start)
            try:
                ok = not error and bool(op.check(result))
            except Exception:       # so is one whose result cannot be checked
                ok = False
            self.items += op.items
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.unexpected += not op.known_fault


def measure(workload, seed, seconds, tracer=None):
    """Warm up, then run the whole rounds that fill `seconds` on the reference machine.

    The number of rounds depends on `seconds` alone, never on the speed of
    the run, so every run of a workload makes the same number of operations
    and op_tail_ms is always the same percentile.  With a tracer every round
    runs twice, untraced then traced, so that the tracing overhead is
    measured on the same inputs.
    """
    make_round = workload.prepare()
    exec(workload.warmup, {"juliareal": sys.modules["juliareal"]})
    plain, traced = Tally(), Tally()
    rounds = max(1, round(seconds / workload.round_seconds))
    index = 0
    while index < rounds or plain.attempted < MIN_OPS:
        ops = make_round(random.Random(f"{seed}:{index}"))
        plain.run_round(ops)
        if tracer is not None:
            tracer.install()
            try:
                traced.run_round(ops)
            finally:
                tracer.uninstall()
        index += 1
    return plain, traced, index


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.environ.update(THREADS_ENV)
    load_program()
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    setup_s = setup_seconds(workload.warmup)
    tracer = tracing.Tracer() if args.trace else None
    plain, traced, rounds = measure(workload, args.seed, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tail_ms, tail_pct, samples = tail_percentile([1e3 * t for t in plain.latencies])
    end_to_end = {
        "items_per_s": {"value": plain.items / plain.seconds, "unit": "items/s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(plain.latencies), "unit": "ms"},
        "op_tail_ms": {"value": tail_ms, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": rounds, "tail_percentile": tail_pct,
              "tail_samples": samples, "end_to_end": end_to_end}
    if tracer is not None:
        metrics = tracer.metrics(traced.attempted)
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (traced.seconds / plain.seconds - 1.0), "unit": "%"}
        report["per_layer"] = metrics
        report.update(tracer.dump())
    else:
        metrics = end_to_end
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    correct = plain.unexpected + traced.unexpected == 0

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds}  "
          f"attempted {attempted}  failed {failed}  correct {correct}")
    print(f"op_tail_ms is p{tail_pct:.2f} of {samples} operations")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
