"""Every name the benchmark's tracer hooks still resolves in the package.

`perfbench/tracing.py` wraps functions and class methods of `heightlab` by
name; a name that no longer resolves is reported missing and its per-layer
metrics drop out of the traced result.  The hook tests read the tables
without installing the tracer, which would patch the package for the whole
session; the smoke runs trace each workload end to end in a subprocess.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

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


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_smoke_run_reports_every_metric(workload):
    # a traced run that exits 0 but drops a declared metric reads as a
    # malformed result, so check the whole last line, not the exit code
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--smoke", "--seconds", "1", "--seed", "7", "--trace", "1"],
        capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    details, result = map(json.loads, out.stdout.strip().splitlines()[-2:])
    assert result["correct"], details["errors"]
    assert result["failed"] == 0
    assert details["missing_metrics"] == []
    assert set(result["metrics"]) == {name for name, _, _ in tracing.PER_LAYER}
