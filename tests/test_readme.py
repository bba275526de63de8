"""The README's library examples and command lines run as written."""

import re
import shlex
from pathlib import Path

from fixedslope.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})


def test_command_lines_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = re.findall(r"^fixedslope (.*)$", README.read_text(), re.M)
    assert len(commands) >= 5
    for line in commands:
        assert main(shlex.split(line)) == 0, line


def test_spec_file_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (spec,) = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    (tmp_path / "spec.json").write_text(spec)
    for command in ("certify", "solve"):
        assert main([command, "spec.json"]) == 0, command
