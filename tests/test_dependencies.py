"""ksim runs on the standard library alone: every import in `src/ksim` names
ksim itself (a relative import) or a standard library module.  Every
uniform draw in it goes through `ksim.draws.below`, so replay rests on
`getrandbits` alone, not on how `random` implements its other methods.  And
only `ksim.files.parse_int` converts to an int, so no entry takes `1_0` for
10 or 2.9 for 2."""

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


# `random.Random` methods whose draws rest on the interpreter's own rule
UNIFORM_DRAWS = {"choice", "randrange", "randint", "choices", "sample", "shuffle"}


def uniform_draw_calls(tree: ast.AST):
    """The line and name of every call of an attribute named in
    `UNIFORM_DRAWS`, such as `rng.choice(seq)`."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in UNIFORM_DRAWS):
            yield node.lineno, node.func.attr


def test_every_uniform_draw_goes_through_below():
    found = []
    for path in sorted(SRC.glob("**/*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(f"{path.name}:{line}: {name}" for line, name in uniform_draw_calls(tree))
    assert found == []


def test_a_uniform_draw_is_found():
    tree = ast.parse("import random\nrng = random.Random(0)\nx = rng.choice([1, 2])\n"
                     "random.shuffle(xs)\nself.rng.randrange(5)\n"
                     "parser.add_argument('--suite', choices=['a'])\nchoice(xs)\n"
                     "below(rng.getrandbits, 3)\n")
    assert list(uniform_draw_calls(tree)) == [(3, "choice"), (4, "shuffle"), (5, "randrange")]


def test_every_exported_name_is_defined():
    # a name left in `__all__` after its definition went would make
    # `from ksim import *` raise
    import ksim
    assert [name for name in ksim.__all__ if not hasattr(ksim, name)] == []


def _is_int(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "int"


def int_conversions(tree: ast.AST):
    """The enclosing function and line of every call of the builtin `int`,
    and of every call handed `int` as a function (`map(int, xs)`,
    `type=int`); `isinstance` and `issubclass` only test against it."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            tests = isinstance(node.func, ast.Name) and node.func.id in ("isinstance",
                                                                          "issubclass")
            handed = [] if tests else node.args + [k.value for k in node.keywords]
            if _is_int(node.func) or any(map(_is_int, handed)):
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_only_parse_int_converts_to_int():
    # every integer in text is a `parse_int` literal; a count passed in is
    # checked by `check_int`, never converted
    found = []
    for path in sorted(SRC.glob("**/*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend((path.name, function) for function, _ in int_conversions(tree))
    assert found == [("files.py", "parse_int")]


def test_an_int_conversion_is_found():
    tree = ast.parse("n = int(text)\ndef f(xs):\n    return list(map(int, xs))\n"
                     "def g(p) -> int:\n    add(type=int)\n"
                     "    return isinstance(p, int) or type(p) is int\n")
    assert int_conversions(tree) == [(None, 1), ("f", 3), ("g", 5)]
