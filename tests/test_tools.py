import argparse
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
CODE_LINES = TOOLS / "code_lines.py"
OUTPUT_DIGESTS = TOOLS / "output_digests.py"
BENCH_PAIRS = TOOLS / "bench_pairs.py"

# code lines: 4, 7, 8, 11, 13, 14, 17 and 20; the docstrings, the comments
# and the blank lines are left out, and a string that is no docstring counts
# on each of its lines
MODULE = '''"""A module docstring
over two lines."""

import os

# a comment
total = (1 +
         2)


class Box:
    """A class docstring."""
    size = """not a
docstring"""


def f():
    """A function docstring,
    over two lines."""
    return os.sep  # a trailing comment
'''


def code_lines(path):
    proc = subprocess.run([sys.executable, str(CODE_LINES), str(path)],
                          capture_output=True, text=True, check=True)
    return [line.split() for line in proc.stdout.splitlines()]


class TestCodeLines:
    def test_counts_a_module(self, tmp_path):
        (tmp_path / "mod.py").write_text(MODULE)
        assert code_lines(tmp_path) == [["8", str(tmp_path / "mod.py")], ["8", "total"]]

    def test_totals_the_modules_under_a_path(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text(MODULE)
        (tmp_path / "b.py").write_text("# only a comment\n\nx = 1\n")
        assert code_lines(tmp_path) == [["1", str(tmp_path / "b.py")],
                                        ["8", str(tmp_path / "pkg" / "a.py")],
                                        ["9", "total"]]
        assert code_lines(tmp_path / "b.py") == [["1", str(tmp_path / "b.py")], ["1", "total"]]


def output_digests():
    proc = subprocess.run([sys.executable, str(OUTPUT_DIGESTS)],
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()


class TestOutputDigests:
    def test_the_matrix_matches_the_golden_digests(self):
        # tests/golden/output_digests.txt: 7 trees x 4 commands x 2 seeds, each
        # with its stdout and its file; a changed byte in any output fails here
        golden = (Path(__file__).parent / "golden" / "output_digests.txt").read_text()
        assert len(set(line.split()[0] for line in golden.splitlines())) == 112
        assert output_digests() == golden.splitlines()


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = load_bench_pairs()


def last_line(p90, rps, correct=True, failed=0):
    """A perfbench run's last line, varying two of its metrics."""
    values = {"setup_s": 0.01, "requests_per_s": rps, "trial_ms_p50": 0.12,
              "trial_ms_p90": p90, "peak_rss_mb": 20.0}
    units = {name: unit for name, unit, _ in bench_pairs.end_to_end(
        bench_pairs.ROOT / "BENCHMARK.json")}
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()}}


class StubRunner:
    """Hands out canned last lines per side, in order, and records the
    order of the calls; no perfbench run starts."""

    def __init__(self, parent, change):
        self.queues = {"parent": list(parent), "change": list(change)}
        self.order = []

    def __call__(self, side):
        self.order.append(side)
        return self.queues[side].pop(0)


def pair_args(pairs, bench=None):
    return argparse.Namespace(parent="HEAD~1", workload="verify_lower", pairs=pairs,
                              seconds=30, seed=1, bench=bench)


class TestBenchPairs:
    def test_summary_alternates_the_sides_and_counts_wins(self, capsys):
        stub = StubRunner(parent=[last_line(0.40, 200), last_line(0.42, 210), last_line(0.36, 205)],
                          change=[last_line(0.28, 240), last_line(0.42, 250), last_line(0.27, 200)])
        assert bench_pairs.compare(pair_args(3), stub) == 0
        assert stub.order == ["parent", "change", "change", "parent", "parent", "change"]
        lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
        # lower is better; the tie of the second pair counts for neither side
        assert lines["trial_ms_p90"] == (
            "trial_ms_p90 (ms, lower is better):  parent 0.4 [0.38, 0.41]  "
            "change 0.28 [0.275, 0.35]  change won 2/3 pairs")
        # higher is better
        assert lines["requests_per_s"].endswith("change won 2/3 pairs")
        assert lines["trial_ms_p50"].endswith("change won 0/3 pairs")

    def test_bench_files_hold_the_medians_and_every_run(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        parent = [last_line(0.40, 200), last_line(0.42, 210)]
        change = [last_line(0.28, 240), last_line(0.30, 250)]
        assert bench_pairs.compare(pair_args(2, bench=34), StubRunner(parent, change)) == 0
        record = json.loads((tmp_path / "BENCH_34_verify_lower_change.json").read_text())
        assert record["correct"] and record["failed"] == 0 and record["attempted"] == 200
        assert record["metrics"]["trial_ms_p90"] == {"value": pytest.approx(0.29), "unit": "ms"}
        assert record["runs"] == change
        record = json.loads((tmp_path / "BENCH_34_verify_lower_parent.json").read_text())
        assert record["metrics"]["requests_per_s"] == {"value": 205, "unit": "1/s"}

    @pytest.mark.parametrize("bad", [None, last_line(0.3, 240, correct=False),
                                     last_line(0.3, 240, failed=2)],
                             ids=["unfinished", "incorrect", "failed"])
    def test_an_unsound_run_exits_nonzero(self, bad, capsys):
        stub = StubRunner(parent=[last_line(0.40, 200), last_line(0.42, 210)],
                          change=[last_line(0.28, 240), bad])
        assert bench_pairs.compare(pair_args(2), stub) == 1
        out = capsys.readouterr()
        assert "change run 2" in out.err
        # the pair holding the unsound run is left out of the wins
        assert "change won 1/1 pairs" in out.out
