"""Byte-for-byte record output of the shipped scripts.

The files under tests/golden/ hold the ``--format=records`` output of
``simploc run`` and ``simploc check`` on each shipped script.  Any change to
a printed record, its order or its formatting shows up here.
"""

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
