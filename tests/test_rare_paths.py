"""Error messages, refusals and printing that no other test reaches.

``python scripts/line_coverage.py`` lists the statements of ``src/simploc``
that the suite never runs; each test here reaches some of them, so the
census reads zero.
"""

import json
import runpy
import sys
import warnings

import pytest

from simploc import cli
from simploc.cli import EXIT_OK, EXIT_VALIDATION, main, run_script
from simploc.coeff import (
    CoefficientTable,
    FgAbGroup,
    Periodicity,
    Q,
    Z,
    ZERO_GROUP,
    builtin_table,
    snf,
    summand_complement,
    tensor_with_free,
)
from simploc.dsl import Blowup, Point, children, classify, example_library, validate
from simploc.engine import (
    FiberTable,
    NoVerdict,
    UnderdeterminedError,
    UnsupportedError,
    compute_degree0,
    compute_graded,
    refute_membership_b,
    ring_degree0,
    sod_count,
    solve_blowup_les,
    verify_comparison,
)
from simploc.group_rep import GroupDatum, OpaqueGroup, representation_ring
from simploc.schubert import (
    CoweightDatum,
    FiniteSchubertDatum,
    bott_samelson_tower,
    finite_schubert_tree,
)
from simploc.script import parse

TRIV = GroupDatum(0)
T1 = GroupDatum(1)
T2 = GroupDatum(2)
UNIT = builtin_table("unit")


# ---------------------------------------------------------------------------
# coeff


def test_group_arithmetic_refuses_bad_input():
    with pytest.raises(ValueError, match="rank must be non-negative"):
        tensor_with_free(Z, -1)
    with pytest.raises(ValueError, match="between integral and rational"):
        summand_complement(Z, Q)
    with pytest.raises(ValueError, match="ragged matrix"):
        snf([[1, 2], [3]])


def test_tables_refuse_bad_periods_and_duplicate_rows():
    with pytest.raises(ValueError, match="period must be positive"):
        Periodicity(0, "beta")
    with pytest.raises(ValueError, match="duplicate degree rows"):
        CoefficientTable("twice", ((0, Z), (0, Z)))


def test_group_repr_is_its_description():
    # pytest prints this on every failed group assertion
    assert repr(FgAbGroup(2, (3,))) == "FgAbGroup(Z^2 + Z/3)"
    assert repr(ZERO_GROUP) == "FgAbGroup(0)"


def test_builtin_tables_are_declared_once():
    assert builtin_table("bott") is builtin_table("bott")
    with pytest.raises(LookupError) as info:
        builtin_table("mystery")
    assert str(info.value) == (
        "unknown builtin table 'mystery' "
        "(choose from ('unit', 'bott', 'hcminus_rational', 'rational_deg0'))"
    )


# ---------------------------------------------------------------------------
# dsl


def test_tree_accessors_refuse_what_is_not_there():
    node = example_library("node")
    with pytest.raises(KeyError, match="corner X is the unknown of this square"):
        node.corner("X")
    with pytest.raises(TypeError, match="not a construction tree: 42"):
        children(42)
    assert repr(Point()) == "Point()"


def test_unknown_split_kind_is_a_violation():
    node = example_library("node")
    bad = Blowup(node.known, "X", "diagonal", node.comparison_maps)
    assert [repr(v) for v in validate(bad, TRIV)] == [
        "(root): split must be one of ('retraction', 'section') or absent"
    ]


# ---------------------------------------------------------------------------
# engine: degree zero and ring presentations


def test_sod_count_refuses_rank_zero():
    with pytest.raises(ValueError, match="rank must be positive"):
        sod_count(0, (1,))


def test_class_c_degree_zero_module():
    node = example_library("node")
    module = compute_degree0(node, TRIV)
    assert module.rank == 2
    assert module.basis_labels == ("les:0", "les:1")
    with pytest.raises(UnsupportedError, match="trivial group only"):
        compute_degree0(node, T2)


def test_ring_presentations():
    p1 = example_library("projective_space", 1, group=T2)
    pres = ring_degree0(p1, T2)
    assert pres.relations[0].coefficient((5,)) is None
    assert hash(pres) == hash(ring_degree0(p1, T2))
    assert len({pres, ring_degree0(p1, T2)}) == 1
    with pytest.raises(UnsupportedError, match="opaque groups"):
        ring_degree0(p1, OpaqueGroup("irreducibles"))


# ---------------------------------------------------------------------------
# engine: graded values, witnesses and refutation


def test_class_c_values_need_a_nonempty_window():
    node = example_library("node")
    with pytest.raises(ValueError, match="needs an explicit degree window"):
        compute_graded(node, TRIV, UNIT)
    with pytest.raises(ValueError, match="empty degree window"):
        compute_graded(node, TRIV, UNIT, degrees=(1, 0))


def test_witnesses_refuse_a_torsion_cokernel():
    node = example_library("node")
    # coker of (a, b, c) -> (2a, b) is Z/2 + 0: X_{-1} has torsion
    torsion = Blowup(node.known, "X", None, ((0, ((2, 0, 0), (0, 1, 0))),))
    window, _ = solve_blowup_les(torsion, TRIV, UNIT, -1, 0)
    assert window.value_at(-1) == FgAbGroup(0, (2,))
    with pytest.raises(UnderdeterminedError, match="torsion-free cokernels"):
        solve_blowup_les(torsion, TRIV, UNIT, -1, 0, collect_witnesses=True)


def test_refutation_needs_the_trivial_group():
    with pytest.raises(UnsupportedError, match="trivial group only"):
        refute_membership_b(example_library("node"), T2)


# ---------------------------------------------------------------------------
# engine: verdicts


def test_comparison_refusals():
    class_b = classify(example_library("projective_space", 2))
    unknown_below = FiberTable(known=((0, ZERO_GROUP),), complete=False)
    assert unknown_below.group_at(-1) is None
    assert verify_comparison(unknown_below, class_b, 0) == NoVerdict(
        "fiber groups in degrees 0 and -1 are not known"
    )
    nonzero_here = FiberTable(known=((0, Z), (-1, ZERO_GROUP)), complete=False)
    assert verify_comparison(nonzero_here, class_b, 0) == NoVerdict(
        "fiber does not vanish in degree 0"
    )


MIXED_PRIMES = (
    "group trivial\n"
    "let x = disjoint(henselian(5), henselian(7))\n"
    "verdict x preset=cyclotomic_Fp\n"
)


def test_verdict_on_a_mixed_prime_tree(tmp_path, capsys):
    script = tmp_path / "mixed.slc"
    script.write_text(MIXED_PRIMES)
    assert main(["run", str(script)]) == EXIT_OK
    assert capsys.readouterr().out == (
        "x [cyclotomic_Fp]: no verdict: tree classification is invalid\n"
    )
    assert main(["run", str(script), "--format", "records"]) == EXIT_OK
    (record,) = map(json.loads, capsys.readouterr().out.splitlines())
    assert record["verdict"] is None
    assert record["failed_hypothesis"] == "tree classification is invalid"


# ---------------------------------------------------------------------------
# group_rep


def test_group_data_refuse_bad_input():
    with pytest.raises(ValueError, match="free_rank must be non-negative"):
        GroupDatum(-1)
    with pytest.raises(ValueError, match="expected 1 coordinates, got 2"):
        T1.character((1, 2))
    with pytest.raises(ValueError, match="no lattice coordinate 1"):
        T1.basis_character(1)


def test_ring_elements_mix_only_with_their_own_ring():
    one = representation_ring(T1).one
    with pytest.raises(ValueError, match="different representation rings"):
        one + representation_ring(T2).one
    with pytest.raises(TypeError, match="cannot coerce 1.5"):
        one * 1.5
    # an element equals only elements: the integer 1 is not the unit class
    assert one != 1


# ---------------------------------------------------------------------------
# schubert


def test_schubert_data_refuse_bad_input():
    with pytest.raises(ValueError, match="j_0 must be 0"):
        FiniteSchubertDatum(2, 1, (1, 1, 1))
    with pytest.raises(ValueError, match="coweight must have 2 entries"):
        CoweightDatum(2, (1,))


def test_finite_schubert_tree_of_dimension_zero_is_the_tower():
    datum = FiniteSchubertDatum(3, 0, (0, 0, 0, 0))
    assert finite_schubert_tree(datum, TRIV) == bott_samelson_tower(datum)


# ---------------------------------------------------------------------------
# cli


@pytest.mark.parametrize(
    "rows, reason",
    [
        ("1 -2\n", "t:1: free_rank must be non-negative"),
        (None, "[Errno 2] No such file or directory"),
    ],
)
def test_a_failed_table_is_an_error(tmp_path, rows, reason):
    if rows is not None:
        (tmp_path / "t.tbl").write_text(rows)
    script = parse(
        'group trivial\ntable t = "t.tbl"\nlet x = point\ncompute x table=t degrees=0..0\n'
    )
    text, code = run_script(script, tmp_path)
    assert code == EXIT_VALIDATION
    assert text.startswith(f"table error: {reason}")
    assert text.count("\n") == 1
    records, code = run_script(script, tmp_path, "records")
    assert code == EXIT_VALIDATION
    (record,) = map(json.loads, records.splitlines())
    assert record == {
        "command": "error",
        "kind": "validation",
        "message": text.rstrip("\n"),
        "schema": cli.RECORD_SCHEMA,
    }


def test_recursion_while_parsing_exits_one(tmp_path, capsys, monkeypatch):
    # the nested-expression test reaches this handler too, but at the
    # interpreter's recursion limit, where a line tracer is switched off
    def too_deep(text, normalize_j_sequences=False):
        raise RecursionError

    monkeypatch.setattr(cli, "parse", too_deep)
    script = tmp_path / "any.slc"
    script.write_text("group trivial\n")
    assert main(["run", str(script)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "parse error: expression nested too deeply\n"


def test_cli_module_runs_as_a_program(tmp_path, capsys, monkeypatch):
    script = tmp_path / "point.slc"
    script.write_text("group trivial\nlet x = point\nclassify x\n")
    monkeypatch.setattr(sys, "argv", ["simploc", "check", str(script)])
    with warnings.catch_warnings():
        # simploc.cli is already imported; running it again as __main__ is the point
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SystemExit) as info:
            runpy.run_module("simploc.cli", run_name="__main__")
    assert info.value.code == EXIT_OK
    assert capsys.readouterr().out == "x: class B\n"
