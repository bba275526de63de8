"""Command-line documents pinned byte for byte.

pinned_documents.json holds, for every command line in COMMANDS, its exit
code, its standard output and the bytes of each file it writes: the solve
report and trace of a certified run, of a run without a certificate, of
a refused one and of one from a solved start (no certificate obtainable,
no step), a measure table and two comparison documents.  Each
line runs in an empty directory under fixed relative output names, since
the solve report names its trace.  The inputs are exact IEEE arithmetic on
every platform: scalar_quadratic and compare at alpha = 1 take v ** 1.0,
which is v, and otherwise +, -, *, / and sqrt alone.

A change meant to move a document regenerates the file with

    PYTHONPATH=src python tests/test_pinned_documents.py
"""

import contextlib
import io
import json
import os
import pathlib
import tempfile

import pytest

from fixedslope.cli import main

PINS = pathlib.Path(__file__).resolve().with_name("pinned_documents.json")
OUTPUT_FLAGS = ("--trace", "--report", "--out")
SOLVE_FILES = ["--trace", "trace.csv", "--report", "solve_report.json"]
COMMANDS = [
    ["solve", "scalar_quadratic"] + SOLVE_FILES,
    ["solve", "scalar_quadratic", "--no-certificate"] + SOLVE_FILES,
    ["solve", "scalar_quadratic", "c=2", "x0=2", "b=0.5"] + SOLVE_FILES,
    ["solve", "scalar_quadratic", "c=4", "x0=2"] + SOLVE_FILES,
    ["estimate-omega", "scalar_quadratic", "--radii", "4", "--samples", "2", "--out", "omega.csv"],
    ["compare", "l0=1", "eta=0.3", "--out", "comparison.json"],
    ["compare", "l0=1", "eta=0.6", "--out", "comparison.json"],
]


def run(argv):
    """{"argv", "exit", "stdout", "files"} of one command line, run in the current directory."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    names = [argv[i + 1] for i, a in enumerate(argv) if a in OUTPUT_FLAGS]
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "files": {name: pathlib.Path(name).read_text() for name in names}}


def _label(argv):
    """The command line up to its first output name."""
    return " ".join(argv[:min(argv.index(f) for f in OUTPUT_FLAGS if f in argv)])


@pytest.mark.parametrize("index", range(len(COMMANDS)), ids=[_label(a) for a in COMMANDS])
def test_documents_match_their_pins(index, tmp_path, monkeypatch):
    pin = json.loads(PINS.read_text())[index]
    monkeypatch.chdir(tmp_path)
    assert run(COMMANDS[index]) == pin


def test_pins_cover_every_solve_outcome():
    pins = json.loads(PINS.read_text())
    assert [p["argv"] for p in pins] == COMMANDS
    reports = [json.loads(p["files"]["solve_report.json"]) for p in pins[:4]]
    assert [r["certificate"].split(":")[0] for r in reports] == [
        "attached", "none requested", "refused", "unobtainable"]
    assert reports[2]["certificate"] == "refused: nu_too_large"
    assert ["majorization" in r for r in reports] == [True, False, False, False]
    assert reports[3]["steps"] == 0
    holds = [json.loads(p["files"]["comparison.json"])["new_holds"] for p in pins[5:]]
    assert holds == [True, False]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        pins = [run(argv) for argv in COMMANDS]
    PINS.write_text(json.dumps(pins, indent=1) + "\n")
