"""perfbench's tracer wraps ksim callables by name; a rename in ksim must
fail here rather than only when a traced benchmark run starts."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import ksim

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


# the one known gap: the interval tracker's push is not traced by name, so
# wide_8x8 reads no pushes
UNTRACED_OVERRIDES = {("UniformDemandTracker", "push")}


def _ksim_classes():
    for info in pkgutil.iter_modules(ksim.__path__):
        mod = importlib.import_module(f"ksim.{info.name}")
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__.startswith("ksim."):
                yield value


@pytest.mark.parametrize("name", [n for n in _traced_names() if n.count(".") == 2])
def test_no_subclass_overrides_a_traced_method(name):
    # the tracer wraps the method on its base class only, so an override
    # would run unseen and its calls would drop out of the counts
    module, cls_name, meth = name.split(".")
    base = getattr(importlib.import_module(f"ksim.{module}"), cls_name)
    for cls in _ksim_classes():
        if cls is not base and issubclass(cls, base) and meth in vars(cls):
            assert (cls.__name__, meth) in UNTRACED_OVERRIDES, f"{cls.__name__}.{meth}"
