"""Byte-for-byte record output of the shipped scripts.

The files under tests/golden/ hold the ``--format=records`` output of
``simploc run`` and ``simploc check`` on each shipped script, and under
tests/golden/class_c/ the ``run`` output and exit code of class-C scripts.
Any change to a printed record, its order or its formatting shows up here.
"""

import json
from pathlib import Path

import pytest

from simploc.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("script", ["node", "cone_of_p1"])
@pytest.mark.parametrize("command", ["run", "check"])
def test_records_match_golden(command, script, capsys):
    code = main([command, str(ROOT / "scripts" / f"{script}.slc"), "--format=records"])
    assert code == EXIT_OK
    expected = (GOLDEN / f"{command}_{script}.jsonl").read_text()
    assert capsys.readouterr().out == expected


CLASS_C = GOLDEN / "class_c"
CLASS_C_EXIT = json.loads((CLASS_C / "exit_codes.json").read_text())


@pytest.mark.parametrize("script", sorted(CLASS_C_EXIT))
def test_class_c_records_match_golden(script, capsys):
    """Class-C scripts, one success on shared nested squares and one per
    solver fault: records and exit code as captured."""
    code = main(["run", str(CLASS_C / f"{script}.slc"), "--format=records"])
    assert code == CLASS_C_EXIT[script]
    assert capsys.readouterr().out == (CLASS_C / f"{script}.jsonl").read_text()
