"""The README's library and command-line examples run against the current API."""

import re
import shlex
from pathlib import Path

from ldrlle import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_cli_examples_run_in_order(tmp_path, monkeypatch):
    # In order: `generate` writes the roll.csv that later lines read.
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("ldrlle ")]
    assert lines
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line
