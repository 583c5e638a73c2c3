"""The benchmark's reference outputs, reproduced in process.

``perfbench/reference/`` holds the byte-exact reports and CLI outputs the
benchmark checks every request against.  These tests only read that
directory: a change that alters any report or CLI output fails here, in
the test suite, before any benchmark run.
"""

import json
from pathlib import Path

import pytest

from vrg import analyze
from vrg.cli import main
from vrg.reportio import dump_report, load_spec

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
ALGEBRA_SPECS = ("sym3", "psum3", "B3", "D3", "B3psum", "mixedw", "sym3xA1")
CLI_REFERENCE = json.loads((BENCH / "reference" / "cli.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ALGEBRA_SPECS)
def test_algebra_report_matches_reference(name, tmp_path):
    spec, _ = load_spec(BENCH / "specs" / f"{name}.json")
    out = tmp_path / f"{name}.json"
    dump_report(analyze(spec), spec, out)
    assert out.read_bytes() == (BENCH / "reference" / "algebra" / f"{name}.json").read_bytes()


@pytest.mark.parametrize("cid", sorted(CLI_REFERENCE))
def test_cli_command_matches_reference(cid, tmp_path, monkeypatch, capsys):
    ref = CLI_REFERENCE[cid]
    argv = list(ref["argv"])
    report = tmp_path / "report.json"
    if "--json" in argv:
        argv[argv.index("--json") + 1] = str(report)
    monkeypatch.chdir(ROOT)
    assert main(argv) == ref["exit"]
    assert capsys.readouterr().out == ref["stdout"]
    if "report" in ref:
        assert report.read_text(encoding="utf-8") == ref["report"]
