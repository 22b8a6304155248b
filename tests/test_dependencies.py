"""ksim runs on the standard library alone: every import in `src/ksim` names
ksim itself (a relative import) or a standard library module."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ksim"


def imported_names(tree: ast.AST):
    """The top-level module name of every absolute import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_import_is_ksim_or_the_standard_library():
    modules = sorted(SRC.glob("**/*.py"))
    assert len(modules) >= 10
    foreign = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        foreign.extend(f"{path.name}: {name}" for name in imported_names(tree)
                       if name != "ksim" and name not in sys.stdlib_module_names)
    assert foreign == []


def test_a_third_party_import_is_found():
    tree = ast.parse("import os\nfrom . import shell\nimport numpy.linalg\n"
                     "from hypothesis import given\n")
    names = list(imported_names(tree))
    assert names == ["os", "numpy", "hypothesis"]
    assert [n for n in names if n not in sys.stdlib_module_names] == ["numpy", "hypothesis"]


def test_every_exported_name_is_defined():
    # a name left in `__all__` after its definition went would make
    # `from ksim import *` raise
    import ksim
    assert [name for name in ksim.__all__ if not hasattr(ksim, name)] == []
