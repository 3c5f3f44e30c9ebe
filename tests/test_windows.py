"""A degree window costs its distinct rows, not its width.

A formal window is read through its table's period: each distinct table row
is tensored and rendered once, however wide the window, and every line is
written in one pass.  An explicit window is read from the root's map of
nonzero degrees and is densified only when a library caller reads
``DegreeWindow.values``.  The lines equal, byte for byte, the per-degree
rendering in ``tests/oracles``.
"""

import random
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simploc import cli, coeff, engine
from simploc.cli import EXIT_OK, EXIT_VALIDATION, _Output, _run_compute, _run_report, main
from simploc.coeff import Q, Z, ZERO_GROUP, CoefficientTable, FgAbGroup, Periodicity, builtin_table, overlay_rows
from simploc.dsl import classify
from simploc.engine import DegreeWindow, compute_graded, positive_split_verdict
from simploc.group_rep import GroupDatum
from simploc.script import ComputeCmd, ReportCmd, parse

from .oracles import compute_lines_reference, random_class_b_tree, report_lines_reference

TRIV = GroupDatum(0)
FORMATS = ("text", "records")


# ---------------------------------------------------------------------------
# reads of a wide formal window


def _counting(target, name):
    return mock.patch.object(target, name, autospec=True, side_effect=getattr(target, name))


@pytest.mark.parametrize("name", ["bott", "hcminus_rational"])
@pytest.mark.parametrize("fmt", FORMATS)
def test_a_million_degree_window_renders_each_period_row_once(name, fmt):
    table = builtin_table(name)
    lo, hi = -500000, 499999
    stored = sum(lo <= d <= hi for d, _ in table.degree_groups)
    bound = table.periodicity.period + stored + 1
    tree = parse("group trivial\nlet w = cone_of_P1\n").trees["w"]
    out = _Output(fmt)
    # the text row renderer describes its row; the record one reads its fields
    renderer = _counting(FgAbGroup, "describe") if fmt == "text" else mock.patch.object(
        cli, "_group_fields", wraps=cli._group_fields
    )
    tensor = mock.patch.object(engine, "tensor_with_free", wraps=coeff.tensor_with_free)
    with renderer as rendered, tensor as tensored, _counting(CoefficientTable, "group_at") as group_at:
        _run_compute(out, ComputeCmd("w", name, lo, hi), {"w": tree}, TRIV, {})
    assert len(out.lines) == 10**6 + (2 if fmt == "text" else 0)
    assert rendered.call_count <= bound and tensored.call_count <= bound
    assert group_at.call_count == 0
    # the first and the last three degrees, against the per-degree rendering
    value = compute_graded(tree, TRIV, table)
    first = compute_lines_reference(fmt, "w", classify(tree), table, value, lo, lo + 2)
    last = compute_lines_reference(fmt, "w", classify(tree), table, value, hi - 2, hi)
    if fmt == "text":
        assert out.lines[:4] == first[:4] and out.lines[-4:] == last[-4:]
    else:
        assert out.lines[:3] == first and out.lines[-3:] == last


def test_a_row_that_fails_to_render_ends_a_formal_window_after_the_degrees_below_it(tmp_path, capsys):
    # P(10^4300 - 1) has rank 10^4300, which has more digits than str() writes
    script = tmp_path / "big.slc"
    script.write_text(f"group trivial\nlet x = P({'9' * 4300})\ncompute x table=bott degrees=-3..4\n")
    assert main(["run", str(script)]) == EXIT_VALIDATION
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["x [class B; table bott]", "  degree -3: 0"]
    assert out[2].startswith("error: Exceeds the limit (4300 digits)") and len(out) == 3


# ---------------------------------------------------------------------------
# stored rows past the first period, windows across the lowest stored row


@st.composite
def periodic_tables(draw, rational: bool):
    """A periodic table whose stored rows spread over several periods."""
    kinds = st.builds(FgAbGroup, st.integers(0, 3), st.lists(st.integers(2, 12), max_size=2).map(tuple))
    rows = draw(st.dictionaries(st.integers(-15, 15), kinds, max_size=6))
    rows[0] = FgAbGroup(draw(st.integers(1, 3)))
    if rational:
        rows = {d: FgAbGroup(g.free_rank, (), True) for d, g in rows.items()}
    period = draw(st.integers(1, 5))
    return CoefficientTable("p", tuple(rows.items()), Periodicity(period, "t", draw(st.booleans())))


@st.composite
def windows(draw, table: CoefficientTable):
    """Mostly a window across the lowest stored row, one-sided or not."""
    lowest = table.degree_groups[0][0]
    if draw(st.booleans()):
        lo, hi = lowest - draw(st.integers(0, 12)), lowest + draw(st.integers(0, 40))
    else:
        lo = draw(st.integers(-40, 30))
        hi = lo + draw(st.integers(0, 40))
    return lo, hi


@settings(max_examples=150, deadline=None)
@given(st.data(), st.booleans(), st.integers(0, 2**32))
def test_formal_windows_over_periodic_tables_equal_the_per_degree_rendering(data, rational, seed):
    table = data.draw(periodic_tables(rational))
    lo, hi = data.draw(windows(table))
    tree = random_class_b_tree(random.Random(seed), TRIV, 2)
    value = compute_graded(tree, TRIV, table)
    rows = table.rows(lo, hi)
    assert rows == [table.group_at(d) for d in range(lo, hi + 1)]
    # one tensor per distinct table row that the window shows
    assert value.rows(lo, hi) == [value.value_at(d) for d in range(lo, hi + 1)]
    assert len(value._tensored) == len({id(g) for g in rows})
    for fmt in FORMATS:
        out = _Output(fmt)
        _run_compute(out, ComputeCmd("t", table.name, lo, hi), {"t": tree}, TRIV, {table.name: table})
        assert out.lines == compute_lines_reference(fmt, "t", classify(tree), table, value, lo, hi)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.booleans(), st.integers(0, 2**32))
def test_report_windows_over_periodic_tables_equal_the_per_degree_rendering(data, rational, seed):
    kh = data.draw(periodic_tables(rational))
    hcm = data.draw(periodic_tables(rational))
    hcm = CoefficientTable("h", hcm.degree_groups, hcm.periodicity)
    lo, hi = data.draw(windows(hcm))
    tree = random_class_b_tree(random.Random(seed), TRIV, 2)
    kh_value = compute_graded(tree, TRIV, kh)
    split = positive_split_verdict(classify(tree), hi) if hi >= 1 else None
    for fmt in FORMATS:
        out = _Output(fmt)
        _run_report(out, ReportCmd("t", "p", "h", lo, hi), {"t": tree}, TRIV, {"p": kh, "h": hcm})
        assert (out.lines, None) == report_lines_reference(fmt, "t", kh_value, kh, hcm, split, lo, hi)


def test_overlay_maps_only_the_rows_a_degree_shows():
    a, b, c = FgAbGroup(1), FgAbGroup(2), FgAbGroup(3)
    mapped = []

    def through(g):
        mapped.append(g)
        return g.free_rank

    # the cycle's second entry fills degrees 1 and 3, both stored; no zero shows
    rows = overlay_rows(((1, c), (3, c)), 0, 3, [a, b], 4, through)
    assert rows == [1, 3, 1, 3] and mapped == [a, c, c]
    mapped.clear()
    # past the cycle, the zero is covered by a pair at degree 2 only
    assert overlay_rows(((2, c),), 0, 2, [a, b], 2, through) == [1, 2, 3]
    assert mapped == [a, b, c]
    mapped.clear()
    assert overlay_rows(((2, c),), 0, 3, [a, b], 2, through) == [1, 2, 3, 0]
    assert mapped == [a, b, ZERO_GROUP, c]


# ---------------------------------------------------------------------------
# an explicit window is its root's support


FAR = 10**8


def _far_square(tmp_path, command: str):
    (tmp_path / "far.tbl").write_text(f"0 1\n-{FAR} 1\n")
    script = tmp_path / f"{command.split()[0]}.slc"
    script.write_text(
        'group trivial\ntable far = "far.tbl"\n'
        "let x = blowup(unknown=X, split=none, Y=P(1), Z=point, E=disjoint(point, point), "
        f"maps=[0: ((1, 1, 1), (1, 1, 1)), -{FAR}: ((1, 0, 2), (0, 1, 1))])\n{command}\n"
    )
    return script


def _peak_of_main(argv, capsys):
    """Exit code, output and tracemalloc peak (bytes) of one ``main`` run."""
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, capsys.readouterr().out, peak


def test_a_table_row_at_minus_ten_to_the_eight_costs_no_more_than_classify(tmp_path, capsys):
    """Its square is solved in degrees 0, -1, -10^8 and -10^8 - 1; a dense
    window from -10^8 up would take gigabytes.  The run's Python peak stays
    within 64 KiB of ``classify`` on the same tree, and the CLI never reads
    the dense pairs."""
    classify_code, _, classify_peak = _peak_of_main(["run", str(_far_square(tmp_path, "classify x"))], capsys)
    assert classify_code == EXIT_OK
    compute = _far_square(tmp_path, "compute x table=far degrees=-2..0")

    def densified(window):
        raise AssertionError("the CLI read a dense window")

    start = time.perf_counter()
    with mock.patch.object(DegreeWindow, "values", property(densified)):
        code, out, peak = _peak_of_main(["run", str(compute)], capsys)
    assert time.perf_counter() - start < 30
    assert code == EXIT_OK
    assert out.splitlines()[1:4] == ["  degree -2: 0", "  degree -1: Z", "  degree 0: Z^2"]
    assert peak <= classify_peak + 64 * 1024


def test_a_solved_window_holds_its_nonzero_degrees_and_densifies_on_read():
    value = compute_graded(parse("group trivial\nlet x = node\n").trees["x"], TRIV, builtin_table("unit"), (-5, 2))
    window = value.window
    assert window.support == ((-1, Z), (0, FgAbGroup(2)))
    assert "values" not in vars(window)
    assert window.values == ((-1, Z), (0, FgAbGroup(2)), (1, ZERO_GROUP), (2, ZERO_GROUP))
    # the repr lists the dense pairs, as a dataclass of them did
    assert repr(window) == (
        "DegreeWindow(values=((-1, FgAbGroup(Z)), (0, FgAbGroup(Z^2)), (1, FgAbGroup(0)), "
        "(2, FgAbGroup(0))), lo=-1, hi=2, assumed_oracles=())"
    )
    # a window given densely, as tests build one, reads the same
    dense = DegreeWindow(window.values, -1, 2)
    assert dense.rows(-3, 2) == value.rows(-3, 2) == [ZERO_GROUP] * 2 + [Z, FgAbGroup(2)] + [ZERO_GROUP] * 2
    assert [dense.value_at(d) for d in range(-3, 3)] == dense.rows(-3, 2)


def test_a_window_maps_its_rows_through_a_function():
    window = DegreeWindow(((0, Q),), 0, 3)
    assert window.rows(-1, 3, FgAbGroup.describe) == ["0", "Q", "0", "0", "0"]
