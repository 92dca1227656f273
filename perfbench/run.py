"""kuhn3 benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads: long-orbit,
regime-sweep, equilibrium-atlas, tail-classify (see README.md).

The workload runs in a fresh Python process (worker.py) that imports kuhn3
from ``src``.  Set-up is timed from process start to the end of input
generation, five times (four set-up-only processes and the measuring one),
and reported as the median.  The measuring process runs whole rounds of
the workload for S seconds, then checks the outputs.

Prints the machine, each metric with its unit, the operations attempted and
failed, writes everything to ``perfbench/results/BENCH_<workload>_seed<N>_
trace<0|1>.json`` and ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
With ``--trace 0`` the metrics are wall_s, setup_s and peak_rss_mb; with
``--trace 1`` the per-layer metrics of a traced run.

Exit status 0 when a result was printed (``correct`` says whether the
outputs passed their checks), 2 on a usage error or a checkout without
``src/kuhn3``, 1 when a worker failed or timed out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("long-orbit", "regime-sweep", "equilibrium-atlas",
             "tail-classify")
SETUP_PROBES = 4
DEADLINE_S = 170.0  # every worker is killed by then; the run exits in 180 s


class WorkerFailed(RuntimeError):
    pass


class Worker:
    """One worker process, killed if it outlives the run's deadline."""

    def __init__(self, args, workdir: str, setup_only: bool, deadline: float):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
        if setup_only:
            cmd.append("--setup-only")
        t0 = perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        self.watchdog = threading.Timer(max(0.0, deadline - t0),
                                        self.proc.kill)
        self.watchdog.daemon = True
        self.watchdog.start()
        line = self.proc.stdout.readline()
        self.setup_s = perf_counter() - t0
        if line.strip() != "ready":
            self.finish()
            raise WorkerFailed("worker ended before finishing set-up")

    def finish(self) -> str:
        """Remaining output of a worker that exited 0."""
        try:
            out, _ = self.proc.communicate()
        finally:
            self.watchdog.cancel()
        if self.proc.returncode != 0:
            raise WorkerFailed(f"worker exited {self.proc.returncode}")
        return out


def measure(args, workdir: str) -> dict:
    deadline = perf_counter() + DEADLINE_S
    setups = []
    for i in range(SETUP_PROBES):
        probe_dir = os.path.join(workdir, f"probe{i}")
        os.makedirs(probe_dir)
        probe = Worker(args, probe_dir, True, deadline)
        probe.finish()
        setups.append(probe.setup_s)
    run_dir = os.path.join(workdir, "run")
    os.makedirs(run_dir)
    worker = Worker(args, run_dir, False, deadline)
    setups.append(worker.setup_s)
    result = json.loads(worker.finish().strip().splitlines()[-1])
    result["setups"] = setups
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be 1..60")
    if not os.path.isfile(os.path.join(ROOT, "src", "kuhn3", "__init__.py")):
        print(f"error: no kuhn3 sources under {ROOT}/src", file=sys.stderr)
        return 2

    workdir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = measure(args, workdir)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = result["metrics"]
    else:
        metrics = {
            "wall_s": {"value": statistics.median(result["rounds"]),
                       "unit": "s"},
            "setup_s": {"value": statistics.median(result["setups"]),
                        "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    summary = {"correct": not result["problems"],
               "attempted": result["attempted"],
               "failed": result["failed"], "metrics": metrics}

    machine = result["machine"]
    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds}  trace {args.trace}")
    print("machine " + "  ".join(f"{k}={v}" for k, v in machine.items()))
    rounds = result["rounds"]
    print(f"rounds {len(rounds)}: " + " ".join(f"{t:.4f}" for t in rounds))
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    for name in result.get("missing", ()):
        print(f"  {name:36s} {'missing':>14s}")
    print(f"attempted {result['attempted']}  failed {result['failed']}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")

    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"BENCH_{args.workload}_seed{args.seed}"
                                     f"_trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   **result, **summary}, fh, indent=1)
        fh.write("\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
