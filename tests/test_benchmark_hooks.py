"""Every name the benchmark's tracer hooks still resolves in the package.

`perfbench/tracing.py` wraps functions and class methods of `heightlab` by
name; a name that no longer resolves is reported missing and its per-layer
metrics drop out of the traced result.  This reads the hook tables without
installing the tracer, which would patch the package for the whole session.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402

FUNCTIONS = tracing.SPANS + tracing.GENERATORS


def _module(name):
    # the benchmark's worker imports the CLI, which loads every layer, and
    # the tracer then looks each module up by name
    importlib.import_module("heightlab.cli")
    return sys.modules[f"heightlab.{name}"]


@pytest.mark.parametrize("mod, name", FUNCTIONS,
                         ids=[f"{mod}.{name}" for mod, name in FUNCTIONS])
def test_function_hook_resolves(mod, name):
    assert callable(getattr(_module(mod), name, None))


@pytest.mark.parametrize("mod, cls, meth, timed", tracing.CLASS_HOOKS,
                         ids=[f"{mod}.{cls}.{meth}"
                              for mod, cls, meth, _ in tracing.CLASS_HOOKS])
def test_class_hook_resolves(mod, cls, meth, timed):
    klass = getattr(_module(mod), cls, None)
    assert isinstance(klass, type)
    assert callable(getattr(klass, meth, None))
    if meth.startswith("__"):
        # `Tracer.install` wraps a dunder only where the class defines it
        assert meth in vars(klass)
