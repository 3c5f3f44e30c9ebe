"""Class-C values are finitely supported: the solver's work follows the
nonzero degrees of each node, not the width of the requested window.

``engine._free_rank_of`` is read once per corner and solved degree of a
non-split square, so counting its calls measures the degrees solved.
"""

import random

import pytest

from simploc import engine
from simploc.cli import EXIT_OK, main
from simploc.coeff import ZERO_GROUP, FgAbGroup, builtin_table, parse_table_file
from simploc.dsl import Blowup, Disjoint, Point, classify, example_library, validate, walk
from simploc.engine import compute_graded, refute_membership_b
from simploc.group_rep import GroupDatum

from .oracles import explicit_window_by_path
from .test_class_c_dag import _outcome, nested_chain, random_class_c_tree

TRIV = GroupDatum(0)
UNIT = builtin_table("unit")


@pytest.fixture
def corner_reads(monkeypatch):
    reads = []
    real = engine._free_rank_of

    def counting(group_value, what, degree):
        reads.append(degree)
        return real(group_value, what, degree)

    monkeypatch.setattr(engine, "_free_rank_of", counting)
    return reads


def test_nested_chain_reads_a_bounded_number_of_degrees_per_level(corner_reads):
    depth = 200
    value = compute_graded(nested_chain(depth), TRIV, UNIT, degrees=(-2, 0))
    assert [value.value_at(d).free_rank for d in (-2, -1, 0)] == [0, depth + 1, 2]
    # node plus one square per level
    assert len(corner_reads) <= 15 * (depth + 1)


def test_wide_window_reads_only_the_support(corner_reads):
    value = compute_graded(example_library("node"), TRIV, UNIT, degrees=(0, 100000))
    assert len(corner_reads) <= 20
    assert value.value_at(0).free_rank == 2
    assert value.value_at(100000).is_zero and value.value_at(-1).free_rank == 1


def test_a_gap_between_table_rows_is_not_walked(corner_reads):
    # every corner is zero strictly between degrees -1000000 and 0, so the
    # square reads degrees 1, 0 and -1, then -999999 and -1000000, where its
    # map is missing
    table = parse_table_file("gap", "0 1\n-1000000 1\n")
    with pytest.raises(engine.UnderdeterminedError, match="missing comparison map in degree -1000000$"):
        compute_graded(example_library("node"), TRIV, table, degrees=(-3, 0))
    assert len(corner_reads) <= 15


def test_les_witnesses_skip_the_degrees_of_a_gap():
    maps = ((0, ((1, 1, 1), (1, 1, 1))), (-40, ((1, 0, 2), (0, 1, 1))))
    square = Blowup(example_library("node").known, "X", None, maps)
    table = parse_table_file("gap", "0 1\n-40 1\n")
    window, witnesses = engine.solve_blowup_les(square, TRIV, table, -45, 0, collect_witnesses=True)
    assert [w.degree for w in witnesses] == [0, -1, -40, -41]
    assert [window.value_at(d).free_rank for d in (0, -1, -2, -39, -40, -41)] == [2, 1, 0, 0, 1, 0]


def test_depth_1000_chain_and_its_refutation():
    tree = nested_chain(1000)
    value = compute_graded(tree, TRIV, UNIT, degrees=(-2, 0))
    assert [value.value_at(d).free_rank for d in (-3, -2, -1, 0)] == [0, 0, 1001, 2]
    assert not any(value.value_at(d).invariant_factors for d in (-1, 0))
    obstruction = refute_membership_b(tree)
    assert obstruction is not None and obstruction.degree == -1
    assert obstruction.value.free_rank == 1001


def test_root_window_starts_at_its_lowest_nonzero_degree():
    window = compute_graded(example_library("node"), TRIV, UNIT, degrees=(-40, 3)).window
    assert (window.lo, window.hi) == (-1, 3)
    assert [d for d, _ in window.values] == list(range(-1, 4))
    empty = compute_graded(example_library("node"), TRIV, UNIT, degrees=(-5, -2)).window
    assert (empty.lo, empty.hi) == (-2, -2) and empty.value_at(-5).is_zero


def test_flag_tower_of_rank_two_to_the_63_through_main(tmp_path, capsys):
    lines = ["group trivial", "let f0 = point"]
    lines += [f"let f{k} = flagbundle(f{k - 1}, rank=2, d=(1))" for k in range(1, 64)]
    lines += ["compute f63 table=unit degrees=0..0"]
    script = tmp_path / "tower.slc"
    script.write_text("\n".join(lines) + "\n")
    assert main(["run", "--format=records", str(script)]) == EXIT_OK
    assert '"free_rank": 9223372036854775808' in capsys.readouterr().out


def gapped_table(rng):
    """Z or Z^2 in degree 0 and one or two rows among degrees 1..4, so the
    support has gaps (rows at 0 and 3 only, say); rarely a torsion row or a
    rational row."""
    lines = []
    for degree in [0] + sorted(rng.sample((1, 2, 3, 4), rng.randint(1, 2))):
        row = [str(degree), str(rng.randint(0 if degree else 1, 2))]
        if rng.random() < 0.03:
            row.append("2")
        if rng.random() < 0.03:
            row.append("Q")
        lines.append(" ".join(row))
    return parse_table_file("gapped", "\n".join(lines) + "\n")


def test_deep_unshared_trees_on_gapped_tables_match_the_per_path_reference():
    # most deep random trees meet a fault (a descent over class C, a missing
    # map, torsion), so trees are drawn until the reference has solved 50;
    # every tree drawn on the way is compared, about 750
    rng = random.Random(61)
    outcomes = []
    while sum(kind == "ok" for kind, _ in outcomes) < 50:
        table = gapped_table(rng)
        tree = random_class_c_tree(rng, table, rng.randint(4, 5))
        if validate(tree, TRIV) or classify(tree).tag != "C":
            continue
        assert sum(1 for _ in walk(tree)) == len({id(node) for _, node in walk(tree)})
        # the window ends below, at or above the table's top row
        top = table.degree_groups[-1][0]
        hi = top + rng.randint(-3, 2)
        lo = hi - rng.randint(0, 3)
        engine_side = _outcome(lambda: compute_graded(tree, TRIV, table, degrees=(lo, hi)), lo, hi)
        reference = _outcome(lambda: explicit_window_by_path(tree, table, lo, hi), lo, hi)
        assert engine_side == reference
        outcomes.append((reference[0], hi > top))
    assert len(outcomes) >= 200
    assert {above for kind, above in outcomes if kind == "ok"} == {False, True}


def test_zero_rows_are_outside_the_support():
    node = example_library("node")
    for text in ("0 1 Q\n1 0\n", "0 1 Q\n1 0 Q\n", "-3 0\n0 1 Q\n"):
        table = parse_table_file("t", text)
        for lo, hi in ((0, 0), (-3, 2)):
            engine_side = _outcome(lambda: compute_graded(node, TRIV, table, degrees=(lo, hi)), lo, hi)
            assert engine_side == _outcome(lambda: explicit_window_by_path(node, table, lo, hi), lo, hi)
            assert dict(zip(range(lo - 6, hi + 1), engine_side[1]))[0] == FgAbGroup(2, (), True)
        # the root starts at its lowest nonzero degree, not at a zero row
        assert compute_graded(node, TRIV, table, degrees=(-5, 1)).window.lo == -1


def test_a_cancelled_rational_corner_is_the_zero_group():
    assert FgAbGroup(0, (), True) == ZERO_GROUP and FgAbGroup(0, (2,), True) == ZERO_GROUP
    node = example_library("node")
    # X = Y + Z - E cancels node's Q and Q^2 in degrees -1 and 0
    root = Blowup((("Y", node), ("Z", Point()), ("E", Disjoint((node, Point())))), "X", "retraction")
    table = builtin_table("rational_deg0")
    engine_side = _outcome(lambda: compute_graded(root, TRIV, table, degrees=(-3, 1)), -3, 1)
    assert engine_side == _outcome(lambda: explicit_window_by_path(root, table, -3, 1), -3, 1)
    assert engine_side[1] == [ZERO_GROUP] * 11
    assert compute_graded(root, TRIV, table, degrees=(-3, 1)).window.lo == 1


def rational_table(rng):
    """Q or Q^2 in degree 0 and one or two rational rows among -1, 1, 2."""
    rows = [0] + rng.sample((-1, 1, 2), rng.randint(1, 2))
    lines = [f"{d} {rng.randint(0 if d else 1, 2)} Q" for d in sorted(rows)]
    return parse_table_file("rational", "\n".join(lines) + "\n")


def test_trees_over_rational_tables_match_the_per_path_reference():
    # split squares over Q cancel whole corners, leaving zero Q-spaces
    rng = random.Random(67)
    solved = compared = 0
    while solved < 60:
        table = rational_table(rng)
        tree = random_class_c_tree(rng, table, rng.randint(2, 4))
        if validate(tree, TRIV) or classify(tree).tag != "C":
            continue
        lo = rng.randint(-4, 1)
        hi = lo + rng.randint(0, 3)
        engine_side = _outcome(lambda: compute_graded(tree, TRIV, table, degrees=(lo, hi)), lo, hi)
        reference = _outcome(lambda: explicit_window_by_path(tree, table, lo, hi), lo, hi)
        assert engine_side == reference
        solved += reference[0] == "ok"
        compared += 1
    assert compared >= solved
