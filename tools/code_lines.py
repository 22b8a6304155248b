"""Print the code lines of each Python module under a path, and their total.

    python3 tools/code_lines.py [PATH]    # PATH defaults to src/ksim

A code line holds a token other than a comment, a newline or an indent.
Module, class and function docstrings are left out, so a line that holds
only part of one is not counted.  Modules print in path order.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """(line, column) of every module, class and function docstring."""
    return {(node.body[0].lineno, node.body[0].col_offset) for node in ast.walk(tree)
            if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None}


def code_lines(source: str) -> int:
    docstrings = docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/ksim")
    files = [root] if root.is_file() else sorted(root.rglob("*.py"))
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
