"""Compare a parent commit with the working tree on one perfbench workload,
in alternating pairs of runs, and summarise each end-to-end metric.

    python3 tools/bench_pairs.py --parent REV --workload W [--pairs 10]
        [--seconds 30] [--seed 1] [--bench N]

The parent is exported with `git archive REV` into a temporary directory,
removed afterwards; the change is the checkout this tool sits in, its
uncommitted edits included.  Each pair runs `python3 perfbench/run.py
--workload W --seed S --seconds T --trace 0` once on each side, the parent
first in odd pairs and the change first in even ones, so a drift of the
host over the series falls on both sides alike.

For each end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles, and in how many pairs the change did better (lower or
higher, as BENCHMARK.json says; a tie counts for neither side).  With
`--bench N` it writes each side's runs to `BENCH_N_<W>_parent.json` and
`BENCH_N_<W>_change.json` in the current directory: the median of each
metric in the form of one run's last line, and every run's last line under
`runs`, with its readable lines (the output digest, the offline solve time
`opt_s`) under `lines`.  It exits 1 if a run did not finish, reported an
incorrect output or failed an operation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")

# one run's last line of perfbench/run.py, or None if it did not finish
Result = Optional[dict]


def end_to_end(benchmark: Path) -> list[tuple[str, str, str]]:
    """(name, unit, better) of each end-to-end metric BENCHMARK.json lists."""
    spec = json.loads(benchmark.read_text())
    return [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]


def perfbench_run(root: Path, workload: str, seed: int, seconds: float) -> Result:
    """One timed perfbench run in the checkout at `root`: its last line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    res["lines"] = lines[:-1]  # the readable ones: digest, opt_s, unscaled times
    return res


def run_pairs(run: Callable[[str], Result], pairs: int) -> dict[str, list[Result]]:
    """`pairs` pairs of run(side), the parent first in every other pair."""
    results: dict[str, list[Result]] = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            res = run(side)
            results[side].append(res)
            print(f"pair {i + 1}/{pairs} {side}: {_brief(res)}", flush=True)
            for line in (res or {}).get("lines", ()):
                print(f"    {line}", flush=True)
    return results


def _brief(res: Result) -> str:
    if res is None:
        return "did not finish"
    return " ".join(f"{name} {m['value']:.6g}" for name, m in res["metrics"].items())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The first quartile, the median and the third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def sound(res: Result) -> bool:
    return res is not None and res["correct"] and res["failed"] == 0


def summarise(results: dict[str, list[Result]],
              metrics: list[tuple[str, str, str]]) -> list[str]:
    """One line per metric: each side's median [quartiles] over its sound
    runs, and the pairs the change won among the pairs whose two runs are
    sound."""
    pairs = [(p, c) for p, c in zip(results["parent"], results["change"])
             if sound(p) and sound(c)]
    lines = []
    for name, unit, better in metrics:
        parts = [f"{name} ({unit}, {better} is better):"]
        for side in SIDES:
            values = [r["metrics"][name]["value"] for r in results[side] if sound(r)]
            if not values:
                parts.append(f"{side} no run")
                continue
            q1, median, q3 = quartiles(values)
            parts.append(f"{side} {median:.6g} [{q1:.6g}, {q3:.6g}]")
        wins = 0
        for p, c in pairs:
            before, after = p["metrics"][name]["value"], c["metrics"][name]["value"]
            wins += after < before if better == "lower" else after > before
        parts.append(f"change won {wins}/{len(pairs)} pairs")
        lines.append("  ".join(parts))
    return lines


def bench_record(runs: list[Result]) -> dict:
    """A side's runs as one last line, each metric at its median over the
    sound runs, with every run's line under `runs`."""
    good = [r for r in runs if sound(r)]
    metrics = {}
    for name, metric in (good[0]["metrics"].items() if good else ()):
        values = [r["metrics"][name]["value"] for r in good]
        metrics[name] = {"value": statistics.median(values), "unit": metric["unit"]}
    return {
        "correct": all(r is not None and r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs if r is not None),
        "failed": sum(r["failed"] for r in runs if r is not None),
        "metrics": metrics,
        "runs": runs,
    }


def compare(args, run: Callable[[str], Result]) -> int:
    """Run the pairs, print the summary, write the BENCH files if asked;
    0 when every run was sound."""
    results = run_pairs(run, args.pairs)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds} s runs, "
          f"parent {args.parent} against the working tree")
    for line in summarise(results, end_to_end(ROOT / "BENCHMARK.json")):
        print(line)
    if args.bench is not None:
        for side in SIDES:
            path = Path(f"BENCH_{args.bench}_{args.workload}_{side}.json")
            path.write_text(json.dumps(bench_record(results[side]), indent=1) + "\n")
            print(f"wrote {path}")
    unsound = [f"{side} run {i + 1}" for side in SIDES
               for i, res in enumerate(results[side]) if not sound(res)]
    if unsound:
        print("did not finish, incorrect or failing: " + ", ".join(unsound), file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the commit to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--bench", type=int, help="write BENCH_<N>_<W>_{parent,change}.json")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error(f"--pairs must be >= 1, got {args.pairs}")
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT,
                                 stdout=subprocess.PIPE, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        roots = {"parent": Path(tmp), "change": ROOT}
        return compare(args, lambda side: perfbench_run(
            roots[side], args.workload, args.seed, args.seconds))


if __name__ == "__main__":
    sys.exit(main())
