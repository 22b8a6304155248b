"""The ksim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is that checkout's
``src/ksim``.  Each call runs the workload in fresh worker processes
(worker.py), so memory peaks and lazy caches never carry over:

  --trace 0  one worker repeats the workload's batch for S seconds under
             per-trial and per-solve timers and reports the end-to-end
             metrics, scaled to a reference host speed (calibrate.py);
  --trace 1  one worker runs a fixed amount of the workload untraced, a second
             runs the same work with a span at every layer boundary; the
             per-layer metrics come from the second, the tracing overhead
             from the two run times.

Readable lines come first; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  Exits non-zero, without a
result, when a worker fails to start, crashes or overruns.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# a whole run, workers included, must end within 180 s
TIMED_WORKER_LIMIT_S = 170
FIXED_WORKER_LIMIT_S = 80


def _worker(workload: str, seed: int, mode: str, seconds: float, limit: float):
    """Run worker.py to completion; its JSON report, or None on failure."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    try:
        proc = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE,
                              text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        # run() has killed the worker and waited for it
        print(f"perfbench: {mode} worker overran {limit} s", file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {mode} worker exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.trace == 0:
        res = _worker(args.workload, args.seed, "timed", args.seconds, TIMED_WORKER_LIMIT_S)
        if res is None:
            return 1
        correct, attempted, failed = res["correct"], res["attempted"], res["failed"]
        metrics = res["metrics"]
    else:
        plain = _worker(args.workload, args.seed, "fixed", args.seconds, FIXED_WORKER_LIMIT_S)
        if plain is None:
            return 1
        traced = _worker(args.workload, args.seed, "traced", args.seconds, FIXED_WORKER_LIMIT_S)
        if traced is None:
            return 1
        same = plain["digest"] == traced["digest"]
        if not same:
            print("perfbench: tracing changed the workload's output", file=sys.stderr)
        correct = plain["correct"] and traced["correct"] and same
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        metrics = traced["metrics"]
        metrics["trace.untraced_run_s"] = [plain["run_s"], "s"]
        metrics["trace.traced_run_s"] = [traced["run_s"], "s"]
        metrics["trace.overhead_frac"] = [traced["run_s"] / plain["run_s"] - 1, "ratio"]

    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
