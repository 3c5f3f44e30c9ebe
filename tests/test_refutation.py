"""The class-B refutation reads its obstruction from the solved window's
support: ``classify`` of a class-C tree makes no per-degree read."""

from pathlib import Path
from unittest import mock

import pytest

from simploc.cli import EXIT_OK, main
from simploc.engine import DegreeWindow

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
FORMATS = ("text", "records")


def _chain(depth: int) -> str:
    """``node`` as the cover of ``depth`` nested non-split squares, each
    with a rank-one degree-0 map, then ``classify`` of the top."""
    lines = ["group trivial", "let x0 = node"]
    for k in range(1, depth + 1):
        lines.append(
            f"let x{k} = blowup(unknown=X, split=none, Y=x{k - 1}, Z=point, "
            "E=disjoint(point, point), maps=[0: ((1, 0, 0), (0, 0, 0))])"
        )
    return "\n".join(lines + [f"classify x{depth}"]) + "\n"


@pytest.mark.parametrize("name", ["node", "chain20"])
def test_classify_reads_no_degree(name, tmp_path, capsys):
    if name == "node":
        path = SCRIPTS / "node.slc"
    else:
        path = tmp_path / "chain20.slc"
        path.write_text(_chain(20))
    for fmt in FORMATS:
        with mock.patch.object(
            DegreeWindow, "value_at", autospec=True, side_effect=DegreeWindow.value_at
        ) as value_at:
            assert main(["run", f"--format={fmt}", str(path)]) == EXIT_OK
        assert value_at.call_count == 0
        refuted = "not in class B" if fmt == "text" else '"b_refuted": {"degree": -1'
        assert refuted in capsys.readouterr().out

