"""Run one benchmark workload in this process and report it.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE [--seconds S]

MODE is one of
  timed   set up repeatedly (see SETUP_REPS), run one untimed warm-up
          batch, then repeat the batch for S seconds under the per-trial
          and per-solve timers.  Every set-up and trial is preceded by a
          host-speed probe (calibrate.py) that scales its time to a
          reference host speed (see `_timings`);
  fixed   set up once and run one batch, untraced (the reference for the
          tracing overhead);
  traced  the same work as `fixed`, with a span at every layer boundary.

Every batch of a run repeats the same inputs, so every batch must render the
same CSV bytes: the pinned golden at the default seed, otherwise the first
batch's.  `--write-golden` (fixed mode, default seed) pins that CSV.

Prints readable lines, then one JSON line read by run.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_DIR = HERE / "golden"
SPANS_DIR = HERE / "out"
# timed runs set up at least SETUP_REPS times and for at least SETUP_MIN_S
SETUP_REPS = 5
SETUP_MIN_S = 3.0


def _import_ksim() -> None:
    """Put the checkout's own sources first on the path, or stop."""
    src = ROOT / "src"
    if not (src / "ksim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ksim sources under {src}")
    sys.path.insert(0, str(src))
    import ksim
    if Path(ksim.__file__).resolve().parent != (src / "ksim").resolve():
        raise SystemExit(f"perfbench: imported ksim from {ksim.__file__}, not {src}")


def _percentile_ms(samples: list[float], q: int) -> float:
    # q-th percentile in ms; quantiles() needs two samples
    if len(samples) < 2:
        return 1000 * samples[0] if samples else 0.0
    return 1000 * statistics.quantiles(samples, n=100)[q - 1]


def _timings(trials: list, probes: list, loop_s: list[float]) -> tuple[list[float], float]:
    """Scaled trial times, and the median scaled batch loop time.

    trials[b] are batch b's trial times, probes[b] the host-speed probes
    taken just before each of them, and loop_s[b] batch b's time with the
    offline solve taken out (probes included).  A trial's time is scaled to
    the reference host speed by its own probe.  A batch's loop time, its
    probes taken out, is scaled by the same factor as the sum of its trials,
    so a slow spell weighs by the share of the batch it lasted.
    """
    ref = calibrate.REFERENCE_S
    scaled = [t / p * ref for ts, ps in zip(trials, probes) for t, p in zip(ts, ps)]
    loop = statistics.median(
        (loop - sum(ps)) * sum(t / p for t, p in zip(ts, ps)) / sum(ts) * ref
        for ts, ps, loop in zip(trials, probes, loop_s))
    return scaled, loop


def run(workload: str, seed: int, mode: str, seconds: float, write_golden: bool) -> dict:
    from workloads import DEFAULT_SEED, WORKLOADS, OutputCheck, csv_rows
    import tracing

    wl = WORKLOADS[workload]
    golden = GOLDEN_DIR / f"{wl.name}.csv"
    reference = None
    if seed == DEFAULT_SEED and not write_golden:
        if not golden.is_file():
            raise SystemExit(f"perfbench: golden output {golden} is missing")
        reference = golden.read_text()
    check = OutputCheck(reference)

    timed = mode == "timed"
    if mode == "traced":
        recorder = tracing.Tracer(wl.trial_start, wl.trial_end)
    else:
        recorder = tracing.BoundaryTimers(wl.trial_start, wl.trial_end, wl.solver,
                                          probe=calibrate.probe if timed else None)

    setup_s: list[float] = []
    setup_scaled_s: list[float] = []  # set-up times at the reference host speed
    solve_s: list[float] = []  # offline solve time per timed batch
    loop_s: list[float] = []  # batch time without the solve, per timed batch
    trials: list = []  # trial times, per timed batch
    probes: list = []  # probe times, one per trial, per timed batch
    batch_s = 0.0
    requests = batches = rows = 0
    first_text = None

    def batch(measured: bool) -> bool:
        """Run, render and check one batch; False if it raised."""
        nonlocal batch_s, requests, batches, rows, first_text
        if timed:
            n_trial, n_solve = len(recorder.trial_s), len(recorder.solve_s)
            n_probe = len(recorder.probe_s)
        t0 = time.perf_counter()
        try:
            out = wl.run(inputs)
            dt = time.perf_counter() - t0
            text = wl.render(out)
            rows_ok = wl.rows_ok(text, inputs)
        except Exception:
            traceback.print_exc()
            check.add_error()
            return False
        first_text = first_text or text
        check.add(text, rows_ok)
        if not measured:
            del recorder.trial_s[n_trial:], recorder.solve_s[n_solve:]
            del recorder.probe_s[n_probe:]
            return True
        batches += 1
        batch_s += dt
        requests += wl.requests(inputs)
        rows += len(csv_rows(text))
        if timed:
            solve_s.append(sum(recorder.solve_s[n_solve:]))
            loop_s.append(dt - solve_s[-1])
            trials.append(recorder.trial_s[n_trial:])
            probes.append(recorder.probe_s[n_probe:])
        return True

    with recorder:
        t_run = time.perf_counter()
        while True:
            before = calibrate.probe() if timed else 0.0
            t0 = time.perf_counter()
            inputs = wl.setup(seed)
            setup_s.append(time.perf_counter() - t0)
            if timed:
                speed = (before + calibrate.probe()) / 2
                setup_scaled_s.append(setup_s[-1] / speed * calibrate.REFERENCE_S)
            if not timed or (len(setup_s) >= SETUP_REPS and sum(setup_s) >= SETUP_MIN_S):
                break
        if timed:
            ok = batch(measured=False)
            # stop before a batch that would end past the deadline
            deadline = time.perf_counter() + seconds
            last_s = 0.0
            while ok and (batches == 0 or time.perf_counter() + last_s < deadline):
                t0 = time.perf_counter()
                ok = batch(measured=True)
                last_s = time.perf_counter() - t0
        else:
            ok = batch(measured=True)
        run_s = time.perf_counter() - t_run

    if write_golden:
        if seed != DEFAULT_SEED or first_text is None or check.failed:
            raise SystemExit("perfbench: goldens are pinned from a clean run at the default seed")
        golden.parent.mkdir(parents=True, exist_ok=True)
        golden.write_text(first_text)

    digest = hashlib.sha256((first_text or "").encode()).hexdigest()
    failed_frac = check.failed / check.attempted if check.attempted else 1.0
    print(f"workload {wl.name} seed {seed} mode {mode}: {batches} batches, "
          f"{requests} requests, {check.attempted} {wl.row_kind}")
    print(f"output sha256 {digest} ({'golden' if reference else 'unpinned seed'})")
    print(f"failed_frac {failed_frac:.6g} ({check.failed}/{check.attempted})")

    metrics: dict[str, list] = {}
    if mode == "traced":
        calls = recorder.count
        serves = calls("marking.Marking.serve")
        metrics.update(recorder.layer_metrics())
        metrics["fractions.new.calls"] = [recorder.fraction_new, "count"]
        metrics["shell.rebuilds_per_request"] = [
            calls("shell.ShellSubroutine.reset") / requests if requests else 0.0, "1/request"]
        metrics["offline.pushes_per_request"] = [
            calls("offline.DemandTracker.push") / requests if requests else 0.0, "1/request"]
        metrics["marking.hit_frac"] = [
            recorder.marking_hits / serves if serves else 0.0, "ratio"]
        spans = SPANS_DIR / f"{wl.name}-seed{seed}-spans.jsonl.gz"
        recorder.write_spans(spans)
        print(f"{len(recorder.span_start)} spans written to {spans.relative_to(ROOT)}")
    elif timed and trials:
        scaled, loop = _timings(trials, probes, loop_s)
        metrics["setup_s"] = [statistics.median(setup_scaled_s), "s"]
        metrics["requests_per_s"] = [wl.requests(inputs) / loop, "1/s"]
        metrics["trial_ms_p50"] = [_percentile_ms(scaled, 50), "ms"]
        metrics["trial_ms_p90"] = [_percentile_ms(scaled, 90), "ms"]
        metrics["peak_rss_mb"] = [
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"]
        opt = (f"{statistics.median(solve_s):.6g} s per batch ({len(recorder.solve_s)} solves)"
               if recorder.solve_s else "na (solver guard refused)")
        raw_trial = [t for ts in trials for t in ts]
        print(f"wall clock, unscaled: setup_s {statistics.median(setup_s):.6g}, "
              f"trial_ms_p50 {_percentile_ms(raw_trial, 50):.6g}, "
              f"probe_ms {1000 * statistics.median(p for ps in probes for p in ps):.6g} "
              f"(reference {1000 * calibrate.REFERENCE_S:g})")
        print(f"opt_s {opt}; {wl.row_kind}_per_s {rows / batch_s if batch_s else 0:.6g} "
              f"(offline solve included); "
              f"{len(scaled)} trial samples ({len(trials)} batches)")
    return {
        "correct": ok and check.failed == 0 and check.attempted > 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "digest": digest,
        "run_s": run_s,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("timed", "fixed", "traced"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args(argv)
    _import_ksim()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    if args.write_golden and args.mode != "fixed":
        ap.error("--write-golden needs --mode fixed")
    result = run(args.workload, args.seed, args.mode, args.seconds, args.write_golden)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
