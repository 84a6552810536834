"""One workload in one fresh process: set-up, timed rounds, checks.

Started by run.py (which sets the environment: one BLAS thread and
``src`` on the import path); prints one JSON object as its last line.

    python3 bench/worker.py --workload NAME --seed N --rounds R
                            [--setup-only] [--trace FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent


class Timer:
    """Wall and CPU time of the timed sections of one round."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.wall = 0.0
        self.cpu = 0.0
        self.op_times = []

    @contextmanager
    def section(self, name, op=False):
        root = self.tracer.root("op:" + name) if self.tracer else nullcontext()
        cpu = time.process_time()
        start = time.perf_counter()
        with root:
            yield
        elapsed = time.perf_counter() - start
        self.cpu += time.process_time() - cpu
        self.wall += elapsed
        if op:
            self.op_times.append(elapsed)

    def op(self, name):
        return self.section(name, op=True)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", type=Path)
    args = parser.parse_args()

    import workloads

    scratch = HERE / "out" / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        ready = time.clock_gettime(time.CLOCK_MONOTONIC)
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        timers, outcomes = [], []
        for _ in range(args.rounds):
            timer = Timer(tracer)
            outcomes += workload.run_round(timer)
            timers.append(timer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed, unexplained = 0, []
    for outcome in outcomes:
        codes = {code for code, _ in outcome.problems}
        if codes:
            failed += 1
            if outcome.fault is None or not codes <= workloads.FAULTS[outcome.fault]:
                unexplained.append([outcome.name, outcome.problems])
        elif outcome.fault is not None:
            print(f"{outcome.name}: fault {outcome.fault} did not show", file=sys.stderr)
    for name, problems in unexplained:
        print(f"{name}: unexplained failure {problems}", file=sys.stderr)
    result = {
        "ready": ready,
        "round_wall": [t.wall for t in timers],
        "round_cpu": [t.cpu for t in timers],
        "op_times": [x for t in timers for x in t.op_times],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(outcomes),
        "failed": failed,
        "correct": not unexplained,
    }
    if tracer:
        result["layers"] = tracer.summary(args.rounds)
        tracer.dump(args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
