"""Every `heightlab` line of the README's command-line block exits 0, and
its JSON output is `json.dumps(indent=2)` of itself.

Each command runs in-process through `cli.main` in a fresh directory that
holds the README's JSON examples under the file names the commands read,
with the enumeration cache pointed at that directory.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from heightlab.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCK = README.split("## Command line", 1)[1] \
    .split("```sh\n", 1)[1].split("```", 1)[0]
COMMANDS = [shlex.split(line)[1:]
            for line in BLOCK.replace("\\\n", " ").splitlines()
            if line.startswith("heightlab ")]
EXAMPLES = [json.loads(block)
            for block in re.findall(r"```json\n(.*?)```", README, re.S)]

# the file each JSON example is read from, by the key that marks its kind
EXAMPLE_FILES = {"forms": "line.json", "branches": "branches.json",
                 "gram": "gram.json"}


def _file_name(doc: dict) -> str:
    return next(EXAMPLE_FILES[k] for k in doc if k in EXAMPLE_FILES)


def test_block_has_every_command():
    assert len(COMMANDS) == 13
    assert {argv[0] for argv in COMMANDS} == {
        "count", "enumerate", "constant", "equidist", "window", "slopes",
        "freeness", "curve", "zoom", "motivic"}


def test_every_file_read_has_an_example():
    read = {argv[i + 1] for argv in COMMANDS
            for i, flag in enumerate(argv) if flag in ("--file", "--gram")}
    assert read == {_file_name(doc) for doc in EXAMPLES}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_exits_zero(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HEIGHTLAB_CACHE", str(tmp_path / "cache"))
    for doc in EXAMPLES:
        (tmp_path / _file_name(doc)).write_text(json.dumps(doc))
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    if "csv" not in argv:  # the render contract: bytes of json.dumps(indent=2)
        assert json.dumps(json.loads(out), indent=2, allow_nan=False) + "\n" \
            == out
