"""One workload in a fresh process; started by run.py, not by hand.

Imports kuhn3 from the checkout's ``src``, generates the workload's inputs
and prints ``ready`` (run.py times set-up up to that line).  With
``--setup-only`` it stops there.  Otherwise it runs whole rounds of the
workload's operations while another round still fits in ``--seconds``,
checks the outputs of the last round, and prints one JSON line.

With ``--trace 1`` the first half of the time runs untraced rounds and the
second half traced ones, so the result also carries the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def timed_rounds(workload, seconds: float) -> tuple:
    """Round wall times, and operations attempted and failed."""
    times, attempted, failed = [], 0, 0
    start = perf_counter()
    while True:
        t0 = perf_counter()
        a, f = workload.round()
        t1 = perf_counter()
        times.append(t1 - t0)
        attempted += a
        failed += f
        if t1 - start + statistics.median(times) > seconds:
            return times, attempted, failed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path[:0] = [SRC, HERE]
    import kuhn3

    if not os.path.abspath(kuhn3.__file__).startswith(SRC + os.sep):
        print(f"kuhn3 imported from {kuhn3.__file__}, not from {SRC}",
              file=sys.stderr)
        return 3
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result = {}
    if args.trace:
        from spans import Tracer, per_layer_metrics

        half = args.seconds / 2
        plain, attempted, failed = timed_rounds(workload, half)
        tracer = Tracer()
        tracer.install()
        try:
            traced, a, f = timed_rounds(workload, half)
        finally:
            tracer.uninstall()
        attempted += a
        failed += f
        metrics, missing = per_layer_metrics(tracer.spans, len(traced),
                                             tracer.missing, traced, plain)
        result.update(metrics=metrics, missing=missing,
                      traced_rounds=traced, rounds=plain,
                      spans=len(tracer.spans))
    else:
        rounds, attempted, failed = timed_rounds(workload, args.seconds)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result.update(rounds=rounds, peak_rss_mb=peak)

    problems = workload.check()
    try:
        import numba  # noqa: F401

        have_numba = True
    except ImportError:
        have_numba = False
    import numpy

    result.update(
        attempted=attempted, failed=failed, problems=problems,
        machine={"nproc": len(os.sched_getaffinity(0)),
                 "cpu_count": os.cpu_count(),
                 "python": sys.version.split()[0],
                 "numpy": numpy.__version__,
                 "numba": have_numba})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
