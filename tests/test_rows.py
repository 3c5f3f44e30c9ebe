"""Bulk degree reads: ``CoefficientTable.rows`` and ``GradedModuleValue.rows``
hand out a window's rows without a lookup per degree.  Each read equals its
per-degree counterpart (``group_at``, ``value_at``) on every kind of table
and window, equal rows are one object, and the CLI reads a wide window's
period rows once.
"""

from unittest import mock

import pytest

from simploc import coeff, engine
from simploc.cli import EXIT_OK, EXIT_VALIDATION, _Output, main
from simploc.coeff import Q, Z, ZERO_GROUP, CoefficientTable, FgAbGroup, Periodicity, builtin_table
from simploc.engine import DegreeWindow, GradedModuleValue, UnderdeterminedError, compute_graded
from simploc.group_rep import GroupDatum
from simploc.script import parse

TRIV = GroupDatum(0)
FORMATS = ("text", "records")
BIG = 10**20


def _g(free: int, *torsion: int) -> FgAbGroup:
    """A fresh group object."""
    return FgAbGroup(free, torsion)


TABLES = {
    # the Z rows of degrees 0 and 7 are given as two objects
    "plain": CoefficientTable("plain", ((0, Z), (2, _g(1, 2)), (5, _g(0, 3)), (7, _g(1)))),
    # stored rows span more than one period of 3
    "two_sided": CoefficientTable(
        "two_sided",
        ((0, Z), (1, _g(0, 2)), (3, _g(2)), (4, _g(1)), (7, _g(0, 2))),
        Periodicity(3, "t"),
    ),
    "one_sided": CoefficientTable(
        "one_sided",
        ((-1, _g(0, 2)), (0, Z), (2, _g(1, 4))),
        Periodicity(2, "u", two_sided=False),
    ),
    "rational": CoefficientTable("rational", ((0, Q), (-3, Q)), Periodicity(4, "u", False)),
    "long_period": CoefficientTable("long_period", ((0, Z), (5, _g(3))), Periodicity(BIG, "t")),
}

WINDOWS = [
    (0, 0),
    (-1, 1),
    (-6, 4),  # straddles every table's lowest stored degree
    (-13, 13),  # several periods
    (1, 2),  # shorter than a period
    (3, 12),  # starts on a stored row past the first period
    (8, 30),  # above every stored row
    (-30, -8),  # below every stored row
    (BIG - 3, BIG + 3),
    (-BIG - 3, -BIG + 3),
    (-BIG, -BIG),
]


def _cone_of_p1():
    return parse("group trivial\nlet w = cone_of_P1\n").trees["w"]


def _assert_shared(rows):
    """Equal rows are one object."""
    assert len({id(g) for g in rows}) == len(set(rows))


@pytest.mark.parametrize("name", sorted(TABLES))
@pytest.mark.parametrize("lo, hi", WINDOWS)
def test_table_rows_equal_the_per_degree_lookups(name, lo, hi):
    table = TABLES[name]
    rows = table.rows(lo, hi)
    assert rows == [table.group_at(d) for d in range(lo, hi + 1)]
    assert all(row is table.group_at(d) for d, row in enumerate(rows, start=lo))
    _assert_shared(rows)


def test_table_rows_of_the_builtins_repeat_one_period():
    bott = builtin_table("bott").rows(-5, 5)
    assert bott == [ZERO_GROUP, Z] * 5 + [ZERO_GROUP] and len({id(g) for g in bott}) == 2
    hcm = builtin_table("hcminus_rational").rows(-5, 3)
    assert hcm == [ZERO_GROUP, Q] * 3 + [ZERO_GROUP] * 3
    assert builtin_table("unit").rows(-2, 2) == [ZERO_GROUP, ZERO_GROUP, Z, ZERO_GROUP, ZERO_GROUP]


@pytest.mark.parametrize("name", sorted(TABLES))
@pytest.mark.parametrize("lo, hi", WINDOWS)
def test_formal_rows_equal_value_at_and_share_its_memo(name, lo, hi):
    value = compute_graded(_cone_of_p1(), TRIV, TABLES[name])
    rows = value.rows(lo, hi)
    assert all(row is value.value_at(d) for d, row in enumerate(rows, start=lo))
    assert rows == [engine.tensor_with_free(TABLES[name].group_at(d), 3) for d in range(lo, hi + 1)]
    _assert_shared(rows)
    # one tensor per distinct table row: value_at found every row in the memo
    assert len(value._tensored) == len({id(g) for g in TABLES[name].rows(lo, hi)})


def _explicit(window: DegreeWindow) -> GradedModuleValue:
    return GradedModuleValue(TRIV, "explicit", window=window)


SOLVED = DegreeWindow(((-2, Z), (-1, _g(0, 2)), (0, ZERO_GROUP), (1, _g(2))), -2, 1)


@pytest.mark.parametrize("lo, hi", [(-6, 1), (-1, 0), (-5, -3), (-2, -2), (1, 1), (-BIG, -BIG + 2)])
def test_explicit_rows_equal_value_at(lo, hi):
    value = _explicit(SOLVED)
    rows = value.rows(lo, hi)
    assert all(row is value.value_at(d) for d, row in enumerate(rows, start=lo))


@pytest.mark.parametrize("lo, hi", [(-3, 2), (2, 4), (BIG, BIG)])
def test_explicit_rows_above_the_window_raise_as_value_at(lo, hi):
    value = _explicit(SOLVED)
    with pytest.raises(UnderdeterminedError) as per_degree:
        for d in range(lo, hi + 1):
            value.value_at(d)
    with pytest.raises(UnderdeterminedError) as bulk:
        value.rows(lo, hi)
    assert str(bulk.value) == str(per_degree.value)


def test_rows_of_a_solved_node_window():
    node = parse("group trivial\nlet x = node\n").trees["x"]
    value = compute_graded(node, TRIV, builtin_table("unit"), degrees=(-40, 0))
    rows = value.rows(-40, 0)
    assert rows == [value.value_at(d) for d in range(-40, 1)]
    assert rows[-2:] == [Z, FgAbGroup(2)] and all(g is ZERO_GROUP for g in rows[:-2])


def _counting_hash():
    """A patch of ``FgAbGroup.__hash__`` that counts its calls."""
    calls = []
    plain = FgAbGroup.__hash__

    def counted(self):
        calls.append(self)
        return plain(self)

    return mock.patch.object(FgAbGroup, "__hash__", counted), calls


def test_a_wide_window_reads_each_period_row_once(tmp_path, capsys):
    script = tmp_path / "bott.slc"
    script.write_text(
        "group trivial\nlet w = cone_of_P1\ncompute w table=bott degrees=-100000..100000\n"
    )
    period = builtin_table("bott").periodicity.period
    for fmt in FORMATS:
        hashing, hashed = _counting_hash()
        counting_group_at = mock.patch.object(
            CoefficientTable, "group_at", autospec=True, side_effect=CoefficientTable.group_at
        )
        counting_tensor = mock.patch.object(
            engine, "tensor_with_free", wraps=coeff.tensor_with_free
        )
        with counting_group_at as group_at, counting_tensor as tensor, hashing:
            assert main(["run", f"--format={fmt}", str(script)]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 200001 + (2 if fmt == "text" else 0)
        assert group_at.call_count <= period and tensor.call_count <= period
        # the CLI's value-keyed tail cache looks each distinct row up and
        # stores it once
        assert len(hashed) <= 2 * period


def test_a_solved_window_is_read_without_value_at(tmp_path, capsys):
    script = tmp_path / "node.slc"
    script.write_text("group trivial\nlet x = node\ncompute x table=unit degrees=-50000..0\n")
    for fmt in FORMATS:
        with mock.patch.object(
            DegreeWindow, "value_at", autospec=True, side_effect=DegreeWindow.value_at
        ) as value_at:
            assert main(["run", f"--format={fmt}", str(script)]) == EXIT_OK
        assert value_at.call_count == 0
        assert len(capsys.readouterr().out.splitlines()) == 50001 + (2 if fmt == "text" else 0)


def test_report_rows_share_equal_rows(tmp_path, capsys):
    script = tmp_path / "report.slc"
    script.write_text(
        "group trivial\nlet w = cone_of_P1\n"
        "report w kh=bott hcminus=hcminus_rational degrees=-3000..3000\n"
    )
    for fmt in FORMATS:
        hashing, hashed = _counting_hash()
        counting_describe = mock.patch.object(
            FgAbGroup, "describe", autospec=True, side_effect=FgAbGroup.describe
        )
        with counting_describe as describe, hashing:
            assert main(["run", f"--format={fmt}", str(script)]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        # text adds the title, the column heads and two hypothesis lines
        assert len(out) == 6001 + (4 if fmt == "text" else 0)
        # at most six distinct (sign, KH, HC^-) rows, by sign and parity:
        # each is looked up and stored once by value, and rendered once
        assert len(hashed) <= 6 * 2 * 2
        assert describe.call_count <= (6 * 3 if fmt == "text" else 0)


def test_a_row_that_fails_to_render_ends_the_table_after_the_degrees_below_it(tmp_path, capsys):
    (tmp_path / "kh.tbl").write_text("0 1\n3 1\n")
    (tmp_path / "hcm.tbl").write_text("0 1 Q\n3 1 Q\n")
    script = tmp_path / "mixed.slc"
    script.write_text(
        'group trivial\ntable kh = "kh.tbl"\ntable hcm = "hcm.tbl"\nlet w = cone_of_P1\n'
        "report w kh=kh hcminus=hcm degrees=-1..6\n"
    )
    assert main(["run", str(script)]) == EXIT_VALIDATION
    assert capsys.readouterr().out.splitlines() == [
        "w report [class B; kh=kh; hcminus=hcm]",
        "  degree | K | KH | HC^-",
        "  -1 | 0 | 0 | 0",
        "  0 | Z^3 | Z^3 | Q",
        "  1 | 0 | 0 | 0",
        "  2 | 0 | 0 | 0",
        "error: cannot mix integral and rational descriptors in a sum",
    ]



def test_equal_rows_of_distinct_objects_share_one_rendering():
    rows = [_g(1), _g(1), ZERO_GROUP, _g(1)]
    rendered = []

    def text_of(g):
        rendered.append(g)
        return f": {g.describe()}"

    out = _Output("text")
    out.degree_rows("  degree ", "compute", -1, rows, text_of, None)
    assert out.lines == ["  degree -1: Z", "  degree 0: Z", "  degree 1: 0", "  degree 2: Z"]
    assert rendered == [Z, ZERO_GROUP]


def test_a_window_with_a_row_too_large_prints_none_of_its_rows(tmp_path, capsys):
    # Z/2 tensored with Z^(10^20) cannot be built; Z^(10^20) can
    (tmp_path / "t.tbl").write_text("0 1\n1 1 2\n")
    script = tmp_path / "big.slc"
    script.write_text(
        'group trivial\ntable t = "t.tbl"\n'
        "let f = flagbundle(point, rank=100000000000000000000, d=(1))\n"
        "compute f table=t degrees=0..1\n"
    )
    assert main(["run", str(script)]) == EXIT_VALIDATION
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "f [class B; table t]"
    assert out[1].startswith("error: value too large to compute (OverflowError")
    assert len(out) == 2
