"""perfbench's tracer wraps ksim callables by name; a rename in ksim must
fail here rather than only when a traced benchmark run starts."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_names() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED_NAMES


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_resolves(name):
    # the lookup of tracing._Patches.replace: a method must be defined on its
    # class itself, a function must be a module attribute
    module, attr = name.split(".", 1)
    mod = importlib.import_module(f"ksim.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(mod, cls_name)).get(meth)), name
    else:
        assert callable(getattr(mod, attr, None)), name
