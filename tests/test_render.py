"""The degree tables of ``compute`` and ``report`` render each distinct row
once, in the requested format only.  Their lines equal, byte for byte, the
per-degree rendering they replaced (``tests/oracles``), in which every
record is its own ``json.dumps(..., sort_keys=True)``; values too large for
the machine end a run with exit code 1.
"""

import json
import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from simploc import cli, coeff, engine
from simploc.cli import EXIT_OK, EXIT_VALIDATION, _Output, _run_compute, _run_report, main, run_script
from simploc.coeff import Z, CoefficientTable, FgAbGroup, Periodicity
from simploc.dsl import Point, classify
from simploc.engine import DegreeWindow, GradedModuleValue, compute_graded, positive_split_verdict
from simploc.group_rep import GroupDatum
from simploc.script import ComputeCmd, ReportCmd, parse

from .oracles import compute_lines_reference, random_class_b_tree, report_lines_reference

TRIV = GroupDatum(0)
FORMATS = ("text", "records")

# identifiers, ASCII or not (the records escape non-ASCII text)
names = st.text(st.characters(categories=("Lu", "Ll", "Lo")), min_size=1, max_size=6)
free_ranks = st.one_of(st.integers(0, 4), st.integers(2**62, 2**70))
torsion = st.lists(st.integers(2, 60), max_size=4).map(tuple)
groups = st.builds(FgAbGroup, free_ranks, torsion, st.booleans())
degrees = st.one_of(st.integers(-12, 6), st.integers(-(10**20), 10**20))


@st.composite
def tables(draw, rational: bool):
    """A small table, all rows rational or all integral, sometimes periodic."""
    rows = draw(
        st.dictionaries(
            st.integers(-4, 4), st.builds(FgAbGroup, st.integers(0, 3), torsion, st.just(rational)), max_size=5
        )
    )
    rows[0] = FgAbGroup(draw(st.integers(1, 3)), draw(torsion), rational)
    periodicity = draw(st.none() | st.builds(Periodicity, st.integers(1, 4), st.just("t"), st.booleans()))
    return CoefficientTable(draw(names), tuple(rows.items()), periodicity)


@settings(max_examples=150, deadline=None)
@given(
    names,
    st.lists(st.text(max_size=8), max_size=3),
    st.lists(names, max_size=2),
    degrees,
    st.integers(0, 3),
    st.lists(groups, min_size=1, max_size=12),
)
def test_compute_rows_of_a_solved_window_equal_the_per_degree_rendering(
    target, provenance, oracles, lo, gap, values
):
    window_lo = lo + gap  # degrees below the window's lowest are zero
    hi = window_lo + len(values) - 1
    window = DegreeWindow(tuple(zip(range(window_lo, hi + 1), values)), window_lo, hi, tuple(oracles))
    value = GradedModuleValue(
        TRIV, "explicit", window=window, provenance=tuple(provenance), assumed_oracles=tuple(oracles)
    )
    table = CoefficientTable(target + "_t", ((0, Z),))
    cmd = ComputeCmd(target, table.name, lo, hi)
    for fmt in FORMATS:
        out = _Output(fmt)
        with mock.patch.object(cli, "compute_graded", return_value=value):
            _run_compute(out, cmd, {target: Point()}, TRIV, {table.name: table})
        assert out.lines == compute_lines_reference(fmt, target, classify(Point()), table, value, lo, hi)


@settings(max_examples=100, deadline=None)
@given(names, st.booleans().flatmap(tables), st.integers(0, 2**32), degrees, st.integers(0, 40))
def test_compute_rows_of_a_formal_value_equal_the_per_degree_rendering(target, table, seed, lo, width):
    tree = random_class_b_tree(random.Random(seed), TRIV, 2)
    value = compute_graded(tree, TRIV, table)
    cmd = ComputeCmd(target, table.name, lo, lo + width)
    for fmt in FORMATS:
        out = _Output(fmt)
        _run_compute(out, cmd, {target: tree}, TRIV, {table.name: table})
        assert out.lines == compute_lines_reference(
            fmt, target, classify(tree), table, value, lo, lo + width
        )


@settings(max_examples=100, deadline=None)
@given(names, st.data(), st.integers(0, 2**32), degrees, st.integers(0, 40))
def test_report_rows_equal_the_per_degree_rendering(target, data, seed, lo, width):
    rational = data.draw(st.booleans())
    kh = data.draw(tables(rational))
    # sometimes the other kind: its first positive-degree sum is refused
    hcm = data.draw(tables(data.draw(st.sampled_from((rational, rational, not rational)))))
    hcm = CoefficientTable(kh.name + "_h", hcm.degree_groups, hcm.periodicity)
    tree = random_class_b_tree(random.Random(seed), TRIV, 2)
    hi = lo + width
    cmd = ReportCmd(target, kh.name, hcm.name, lo, hi)
    kh_value = compute_graded(tree, TRIV, kh)
    split = positive_split_verdict(classify(tree), hi) if hi >= 1 else None
    for fmt in FORMATS:
        out = _Output(fmt)
        error = None
        try:
            _run_report(out, cmd, {target: tree}, TRIV, {kh.name: kh, hcm.name: hcm})
        except ValueError as exc:
            error = str(exc)
        assert (out.lines, error) == report_lines_reference(fmt, target, kh_value, kh, hcm, split, lo, hi)


def test_each_distinct_row_is_rendered_once_in_the_requested_format_only(tmp_path, capsys):
    script = tmp_path / "bott.slc"
    script.write_text("group trivial\nlet w = cone_of_P1\ncompute w table=bott degrees=-2000..2000\n")
    counted = {
        "describe": mock.patch.object(FgAbGroup, "describe", autospec=True, side_effect=FgAbGroup.describe),
        "dumps": mock.patch.object(cli.json, "dumps", wraps=json.dumps),
        "tensor": mock.patch.object(engine, "tensor_with_free", wraps=coeff.tensor_with_free),
    }
    for fmt in FORMATS:
        mocks = {name: patch.start() for name, patch in counted.items()}
        try:
            assert main(["run", f"--format={fmt}", str(script)]) == EXIT_OK
        finally:
            mock.patch.stopall()
        assert len(capsys.readouterr().out.splitlines()) == 4001 + (2 if fmt == "text" else 0)
        calls = {name: m.call_count for name, m in mocks.items()}
        # two distinct rows (Z^3 in even degrees, 0 in odd ones) from two
        # distinct table rows; records add one dump for the command name
        assert calls == (
            {"describe": 2, "dumps": 0, "tensor": 2}
            if fmt == "text"
            else {"describe": 0, "dumps": 3, "tensor": 2}
        )


def _tower(tmp_path, table_row: str):
    (tmp_path / "t.tbl").write_text(table_row + "\n")
    lines = ["group trivial", 'table t = "t.tbl"', "let f0 = point"]
    lines += [f"let f{k} = flagbundle(f{k - 1}, rank=2, d=(1))" for k in range(1, 64)]
    lines += ["compute f63 table=t degrees=0..0"]
    script = tmp_path / "tower.slc"
    script.write_text("\n".join(lines) + "\n")
    return script


def test_torsion_of_rank_two_to_the_63_exits_one_with_an_error(tmp_path, capsys):
    # Z/2 tensored with Z^(2^63) has more summands than a tuple can hold
    script = _tower(tmp_path, "0 1 2")
    assert main(["run", str(script)]) == EXIT_VALIDATION
    out = capsys.readouterr().out.splitlines()
    assert out[-1].startswith("error: value too large to compute (OverflowError")
    assert main(["run", "--format=records", str(script)]) == EXIT_VALIDATION
    record = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert record["command"] == "error" and record["kind"] == "validation"
    assert record["message"].startswith("value too large to compute (OverflowError")


def test_memory_and_recursion_errors_of_a_command_exit_one(tmp_path):
    script = parse("group trivial\nlet x = point\nclassify x\ncompute x table=unit degrees=0..0\n")
    for exc, message in (
        (MemoryError(), "value too large to compute (MemoryError)"),
        (RecursionError("maximum recursion depth exceeded"),
         "value too large to compute (RecursionError: maximum recursion depth exceeded)"),
    ):
        for fmt in FORMATS:
            with mock.patch.object(cli, "compute_graded", side_effect=exc):
                output, code = run_script(script, tmp_path, fmt)
            assert code == EXIT_VALIDATION
            last = output.splitlines()[-1]
            if fmt == "text":
                assert output.splitlines()[0] == "x: class B"
                assert last == f"error: {message}"
            else:
                assert json.loads(last) == {
                    "command": "error",
                    "kind": "validation",
                    "message": message,
                    "schema": cli.RECORD_SCHEMA,
                }
