import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
CODE_LINES = TOOLS / "code_lines.py"
OUTPUT_DIGESTS = TOOLS / "output_digests.py"

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
