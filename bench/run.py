"""Benchmark of epiage: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload presets|probe-sweep|steady-scan
                         --seed N --seconds S --trace 0|1

Every workload runs in fresh single processes (bench/worker.py) with one
BLAS thread.  With --trace 0 the last line of standard output is a JSON
object with the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a traced run and the tracing overhead against an
untraced run of the same rounds.  Exits non-zero, printing no result,
when the program cannot be run or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
#: rough length of one round on one core, so that --seconds maps to a
#: whole number of rounds that does not depend on the machine's speed
ROUND_SECONDS = {"presets": 25.0, "probe-sweep": 10.0, "steady-scan": 15.0}
SETUP_SAMPLES = 5
BUDGET_SECONDS = 170.0


class WorkerError(Exception):
    pass


def child_env(root):
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    paths = [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(args, env, deadline):
    """Run one worker; returns its result with the set-up time measured here."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args], env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {args} ran out of time") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise WorkerError(f"worker {args} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def measure(args, env, deadline):
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    rounds = ["--rounds", str(max(1, round(args.seconds / ROUND_SECONDS[args.workload])))]
    if args.trace:
        plain = spawn(base + rounds, env, deadline)
        trace_file = HERE / "out" / f"trace-{args.workload}-{args.seed}.json"
        traced = spawn(base + rounds + ["--trace", str(trace_file)], env, deadline)
        metrics = dict(traced["layers"])
        overhead = statistics.median(traced["round_wall"]) - statistics.median(plain["round_wall"])
        metrics["trace.overhead_s"] = (overhead, "s")
        runs = (plain, traced)
    else:
        setups = [spawn(base + ["--setup-only"], env, deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        main = spawn(base + rounds, env, deadline)
        metrics = {
            "setup_s": (statistics.median(setups + [main["setup_s"]]), "s"),
            "wall_s": (statistics.median(main["round_wall"]), "s"),
            "cpu_s": (statistics.median(main["round_cpu"]), "s"),
            "op_p50_s": (statistics.median(main["op_times"]), "s"),
            "peak_rss_mb": (main["peak_rss_mb"], "MB"),
        }
        runs = (main,)
    return {
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUND_SECONDS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + BUDGET_SECONDS
    root = Path.cwd()
    if not (root / "src" / "epiage" / "__init__.py").is_file():
        sys.exit("bench/run.py: no epiage sources under ./src; run it from the repository root")
    (HERE / "out").mkdir(exist_ok=True)
    try:
        result = measure(args, child_env(root), deadline)
    except WorkerError as exc:
        sys.exit(f"bench/run.py: {exc}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
