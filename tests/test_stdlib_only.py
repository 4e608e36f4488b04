"""The package runs on the standard library alone.

No module imports anything outside it, pyproject.toml declares no runtime
dependency (numpy serves only the tests' oracles), and every CLI command
prints the same bytes in a process where numpy cannot be imported.
Importing the CLI loads no `typing` and builds one dataclass only.
"""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import heightlab
from heightlab.cli import main
from heightlab.geomcurve import curve_to_json, twisted_cubic

PACKAGE = Path(heightlab.__file__).resolve().parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"


def test_package_imports_only_the_standard_library():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, \
                    f"{path.name} imports {name}"


@pytest.mark.skipif(not PYPROJECT.exists(), reason="no source checkout")
def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert project.get("dependencies", []) == []
    test_extra = {re.match(r"[A-Za-z0-9_.-]+", req).group()
                  for req in project["optional-dependencies"]["test"]}
    assert {"numpy", "pytest", "hypothesis"} <= test_extra


# Prints whether `typing` was imported and every class of a heightlab
# module that carries dataclass fields, in a process without `site`.
IMPORT_PATH = """
import json, sys
import heightlab.cli
classes = {f"{c.__module__}.{c.__qualname__}"
           for name, m in list(sys.modules.items())
           if name.split(".")[0] == "heightlab"
           for c in vars(m).values()
           if isinstance(c, type) and hasattr(c, "__dataclass_fields__")}
print(json.dumps(["typing" in sys.modules, sorted(classes)]))
"""


def test_import_path_loads_no_typing_and_one_dataclass():
    proc = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_PATH], capture_output=True,
        text=True, timeout=60,
        env={"PYTHONPATH": str(PACKAGE.parent), "PYTHONDONTWRITEBYTECODE": "1"},
        check=False)
    assert proc.returncode == 0, proc.stderr
    typing_loaded, dataclasses = json.loads(proc.stdout)
    assert not typing_loaded
    # perfbench serializes the sweep's result with dataclasses.asdict
    assert dataclasses == ["heightlab.freeness.SweepResult"]


# Runs each command line and prints [[exit code, stdout], ...] as JSON,
# with None in sys.modules so that any import of numpy raises ImportError.
WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from heightlab.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps(runs))
"""


def one_call_per_command(tmp_path):
    gram = tmp_path / "gram.json"
    gram.write_text(json.dumps({"gram": [[2, 1], [1, 3]]}))
    curve = tmp_path / "curve.json"
    curve.write_text(curve_to_json(twisted_cubic()))
    return [
        ["count", "--variety", "pn", "--dim", "2", "--metric", "euclid",
         "--bound", "40"],
        ["count", "--variety", "p1n", "--dim", "2", "--metric", "euclid",
         "--bound", "500"],
        ["count", "--variety", "blowup", "--metric", "euclid", "--bound", "300"],
        ["equidist", "--dim", "2", "--modulus", "5", "--bound", "40",
         "--class", "1:1:1", "--box", "0,1;-1,1;0,1"],
        ["window", "--variety", "p1n", "--dim", "2", "--d1", "1,2;1,2",
         "--u", "1,2", "--bound", "10"],
        ["enumerate", "--variety", "pn", "--dim", "2", "--bound", "4",
         "--format", "csv"],
        ["freeness", "--variety", "p1n", "--dim", "2", "--metric", "euclid",
         "--bound", "60", "--thresholds", "1/3,1/2"],
        ["zoom", "--variety", "pn", "--dim", "2", "--center", "1:2:3",
         "--alpha", "1/2", "--bound", "12", "--overlay-freeness"],
        ["slopes", "--gram", str(gram)],
        ["curve", "--file", str(curve), "--op", "splitting"],
        ["motivic", "--op", "recurrence", "--n", "2", "--dmax", "6"],
    ]


def test_every_command_runs_without_numpy(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("HEIGHTLAB_CACHE", raising=False)
    calls = one_call_per_command(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_NUMPY, json.dumps(calls)],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(PACKAGE.parent), "PYTHONDONTWRITEBYTECODE": "1"},
        check=False)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    assert len(runs) == len(calls)
    for argv, (code, out) in zip(calls, runs):
        assert code == 0, argv
        assert main(argv) == 0
        assert out == capsys.readouterr().out, argv
