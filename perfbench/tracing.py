"""Timers and spans installed from outside the ksim package.

Nothing here edits ksim's source: every timer is a wrapper put in place of a
public callable for the life of a `with` block.  A module-level function is
replaced in every ksim module that bound it (``opt_cost`` lives in
``offline`` but ``harness`` and ``verify`` imported their own reference), a
method is replaced on its class.  Callables are named "<module>.<attr>" after
the module that defines them.

Two recorders:

* `BoundaryTimers` - the only instrumentation of an untraced run: one
  wall-clock sample per trial and one per offline solve, and optionally a
  host-speed probe run just before each trial.
* `Tracer` - a span at every layer boundary in `TRACED_NAMES`, with parent
  span and trial id, kept in memory and written out when the run ends.
"""

from __future__ import annotations

import fractions
from array import array
import functools
import gzip
import json
import sys
import time
from pathlib import Path

# callables that get a span in the traced run, named "<module>.<attr>";
# metric names are "<name>.{calls,total_s,self_s}" (node_decompositions is
# defined in ksim.shell although it belongs to the tree-construction layer)
TRACED_NAMES = (
    "metric.build_hst",
    "metric.FiniteMetric.__init__",
    "metric.decompose",
    "shell.node_decompositions",
    "generators.generate",
    "offline.opt_cost",
    "offline.demand",
    "offline.DemandTracker.push",
    "offline.DemandTracker.demand",
    "marking.Marking.serve",
    "marking.Marking.reset",
    "shell.BlockShell.__init__",
    "shell.BlockShell.serve",
    "shell.ShellSubroutine.reset",
    "shell.ShellSubroutine.serve",
    "harness.run_trials",
    "harness.run_shell",
    "harness.reports_to_csv",
    "verify.deterministic_checks",
    "verify.check_lower_bound_demand",
    "verify.check_lower_bound_mp",
    "verify.check_phase_costs_delta",
)


class _Patches:
    """Replacements of ksim callables, undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, name: str, make_wrapper) -> None:
        """Wrap the callable "<module>.<attr>", e.g. "offline.opt_cost"."""
        module, attr = name.split(".", 1)
        mod = sys.modules[f"ksim.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            self._set(cls, meth, make_wrapper(orig))
            return
        orig = getattr(mod, attr)
        wrapper = make_wrapper(orig)
        for mod_name, m in list(sys.modules.items()):
            if mod_name != "ksim" and not mod_name.startswith("ksim."):
                continue
            for key, value in list(vars(m).items()):
                if value is orig:
                    self._set(m, key, wrapper)

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class BoundaryTimers:
    """Per-trial and per-solve wall-clock samples.

    A trial runs from the entry of `trial_start` to the exit of `trial_end`
    (the same callable for a bench trial; ``run_shell`` then
    ``deterministic_checks`` for a verification run).  `solve` is the offline
    solver.  With a `probe`, each trial is preceded by one call of it, outside
    the trial's time, and `probe_s` gets one sample per trial.
    """

    def __init__(self, trial_start: str, trial_end: str, solve: str, probe=None):
        self._points = (trial_start, trial_end, solve)
        self._probe = probe
        self._patches = _Patches()
        self._t0 = 0.0
        # flat arrays, so that a long run's samples barely move peak RSS
        self.trial_s = array("d")
        self.solve_s = array("d")
        self.probe_s = array("d")

    def __enter__(self) -> "BoundaryTimers":
        trial_start, trial_end, solve = self._points
        clock = time.perf_counter
        probe = self._probe

        def start(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if probe is not None:
                    self.probe_s.append(probe())
                self._t0 = clock()
                return fn(*args, **kwargs)
            return wrapper

        def end(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.trial_s.append(clock() - self._t0)
                return out
            return wrapper

        def timed(samples):
            def make(fn):
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    t0 = clock()
                    out = fn(*args, **kwargs)
                    samples.append(clock() - t0)
                    return out
                return wrapper
            return make

        if trial_start == trial_end:
            self._patches.replace(trial_start, lambda fn: start(end(fn)))
        else:
            self._patches.replace(trial_start, start)
            self._patches.replace(trial_end, end)
        self._patches.replace(solve, timed(self.solve_s))
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()


class Tracer:
    """Spans at every boundary in `TRACED_NAMES`, plus exact counters.

    A span is (name, start, end, parent span, trial id); times are
    ``perf_counter_ns``.  A trial opens when `trial_start` is entered outside
    a trial and closes when `trial_end` returns.  Self time is a span's
    duration minus its children's (calls nest, so children never overlap).
    ``total_s`` counts only spans with no enclosing span of the same name,
    so a recursive callable is not counted twice.
    """

    def __init__(self, trial_start: str, trial_end: str):
        self._trial_start = trial_start
        self._trial_end = trial_end
        self._patches = _Patches()
        self._frac_new = None
        self.names = list(TRACED_NAMES)
        n = len(self.names)
        # spans, one entry per list and span
        self.span_name: list[int] = []
        self.span_start: list[int] = []
        self.span_end: list[int] = []
        self.span_parent: list[int] = []
        self.span_trial: list[int] = []
        # aggregates, indexed by name
        self.calls = [0] * n
        self.total_ns = [0] * n
        self.self_ns = [0] * n
        self._active = [0] * n
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        self._trial = -1
        self._in_trial = False
        self.fraction_new = 0
        self.marking_hits = 0

    def __enter__(self) -> "Tracer":
        for i, name in enumerate(self.names):
            self._patches.replace(name, self._wrap_factory(i))
        self._frac_new = fractions.Fraction.__dict__["__new__"]
        orig_new = fractions.Fraction.__new__

        def counted_new(cls, *args, **kwargs):
            self.fraction_new += 1
            return orig_new(cls, *args, **kwargs)

        fractions.Fraction.__new__ = staticmethod(counted_new)
        return self

    def __exit__(self, *exc) -> None:
        fractions.Fraction.__new__ = self._frac_new
        self._patches.undo()

    def _wrap_factory(self, idx: int):
        name = self.names[idx]
        opens_trial = name == self._trial_start
        closes_trial = name == self._trial_end
        counts_hits = name == "marking.Marking.serve"
        clock = time.perf_counter_ns
        stack = self._stack
        child_ns = self._child_ns
        active = self._active
        span_name, span_start = self.span_name, self.span_start
        span_end, span_parent = self.span_end, self.span_parent
        span_trial = self.span_trial

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if opens_trial and not self._in_trial:
                    self._trial += 1
                    self._in_trial = True
                sid = len(span_start)
                span_name.append(idx)
                span_parent.append(stack[-1] if stack else -1)
                span_trial.append(self._trial if self._in_trial else -1)
                span_end.append(0)
                stack.append(sid)
                child_ns.append(0)
                active[idx] += 1
                start = clock()
                span_start.append(start)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    end = clock()
                    span_end[sid] = end
                    stack.pop()
                    dur = end - start
                    inner = child_ns.pop()
                    if child_ns:
                        child_ns[-1] += dur
                    active[idx] -= 1
                    self.calls[idx] += 1
                    self.self_ns[idx] += dur - inner
                    if active[idx] == 0:
                        self.total_ns[idx] += dur
                    if closes_trial:
                        self._in_trial = False
                if counts_hits and out == 0:
                    self.marking_hits += 1
                return out
            return wrapper
        return make

    def layer_metrics(self) -> dict[str, list]:
        """name -> [value, unit] for every traced callable."""
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = [self.calls[i], "count"]
            out[f"{name}.total_s"] = [self.total_ns[i] / 1e9, "s"]
            out[f"{name}.self_s"] = [self.self_ns[i] / 1e9, "s"]
        return out

    def count(self, name: str) -> int:
        return self.calls[self.names.index(name)]

    def write_spans(self, path: Path) -> None:
        """Spans as gzipped JSON lines: a header naming the span ids, then
        one [name, start_ns, end_ns, parent, trial] list per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["name", "start_ns", "end_ns",
                                            "parent", "trial"]}) + "\n")
            for row in zip(self.span_name, self.span_start, self.span_end,
                           self.span_parent, self.span_trial):
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
