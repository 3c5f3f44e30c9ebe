"""Goldens of CLI error paths: table files that fail to load, unknown
presets and tables, class-C commands the engine refuses, validation rules
of explicit nodes, and library entries no other golden builds.  Output
and exit code of each command and format."""

import json
from pathlib import Path

import pytest

from simploc.cli import main

CLI_ERRORS = Path(__file__).resolve().parent / "golden" / "cli_errors"
EXPECTED = json.loads((CLI_ERRORS / "expected.json").read_text())


@pytest.mark.parametrize("name", sorted(EXPECTED))
@pytest.mark.parametrize("mode", ["run text", "run records", "check text", "check records"])
def test_cli_errors_match_golden(name, mode, capsys):
    command, fmt = mode.split()
    code = main([command, str(CLI_ERRORS / f"{name}.slc"), f"--format={fmt}"])
    captured = capsys.readouterr()
    expected = EXPECTED[name][mode]
    assert code == expected["exit"]
    assert (captured.out, captured.err) == (expected["stdout"], expected["stderr"])
