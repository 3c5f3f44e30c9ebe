"""Class-C solving on the DAG against the per-path reference.

The engine solves each distinct node of a class-C tree once, with the widest
window any path asks of it.  ``oracles.explicit_window_by_path`` solves
every path separately.  On trees without shared nodes the two agree on
values, oracle paths, and the type and message of the first error; on shared
DAGs they agree wherever the reference succeeds and both fail elsewhere (a
DAG with two faults may report the other one first).
"""

import random
import re
from pathlib import Path

import pytest

from simploc import coeff, engine
from simploc.cli import EXIT_OK, main
from simploc.coeff import builtin_table, parse_table_file
from simploc.dsl import (
    Blowup,
    BundleDatum,
    Disjoint,
    FlagBundle,
    Point,
    SheafDatum,
    StratifiedDescent,
    classify,
    example_library,
    validate,
    walk,
)
from simploc.engine import (
    EngineError,
    UnsupportedError,
    compute_degree0,
    compute_graded,
    refute_membership_b,
    solve_blowup_les,
)
from simploc.group_rep import GroupDatum, OpaqueGroup
from simploc.script import parse

from .oracles import explicit_window_by_path, unshare

TRIV = GroupDatum(0)
UNIT = builtin_table("unit")
ENTRIES = (-1, 0, 0, 1, 2)


def random_table(rng):
    """A bounded-below table: Z or Z^2 in degree 0 and rows in up to two of
    the degrees -1, 1, 2; rarely a torsion row (a torsion corner) or a
    rational row (a mix)."""
    lines = []
    for degree in sorted([0] + rng.sample((-1, 1, 2), rng.randint(0, 2))):
        row = [str(degree), str(rng.randint(0 if degree else 1, 2))]
        if rng.random() < 0.04:
            row.append("2")
        if rng.random() < 0.04:
            row.append("Q")
        lines.append(" ".join(row))
    return parse_table_file("t", "\n".join(lines) + "\n")


def _maps(rng, corners, table):
    """Comparison maps of the right shape in every degree where both sides
    are nonzero, or of a guessed shape when a corner fails; one degree in
    ten dropped (missing map) or misshapen (wrong shape)."""
    try:
        windows = {label: explicit_window_by_path(t, table, -8, 6) for label, t in corners}
    except (EngineError, ValueError):
        return ((0, ((1, 1, 1), (1, 1, 1))),)
    maps = []
    for degree in range(-8, 6):
        ranks = {label: w.value_at(degree).free_rank for label, w in windows.items()}
        src, tgt = ranks["Y"] + ranks["Z"], ranks["E"]
        if not (src and tgt):
            continue
        roll = rng.random()
        if roll < 0.05:
            continue
        if roll < 0.1:
            src += 1
        maps.append((degree, tuple(tuple(rng.choice(ENTRIES) for _ in range(src)) for _ in range(tgt))))
    return tuple(maps)


def random_class_c_tree(rng, table, depth, pool=None):
    """A random tree over every constructor, non-split squares most often.

    With ``pool`` a list, earlier subtrees are reused (``let``-style
    sharing); without it no node object appears twice.  Faults are rare but
    all reachable: missing or misshapen maps, torsion and rational rows in
    the table, descents over class C or without an oracle, squares solved
    for the cover."""
    if pool and rng.random() < 0.3:
        return rng.choice(pool)
    kind = "point" if depth <= 0 else rng.choice(
        ("point", "disjoint", "flag", "descent", "split", "square", "square", "square")
    )

    def sub():
        return random_class_c_tree(rng, table, depth - 1, pool)

    if kind == "point":
        tree = Point()
    elif kind == "disjoint":
        tree = Disjoint(tuple(sub() for _ in range(rng.randint(1, 3))))
    elif kind == "flag":
        rank = rng.randint(1, 2)
        tree = FlagBundle(sub(), BundleDatum(rank), (rng.randint(1, rank),))
    elif kind == "descent":
        total = sub()
        oracle = None
        if rng.random() < 0.9:
            try:
                oracle = rng.randint(0, compute_degree0(total, TRIV).rank)
            except EngineError:
                oracle = rng.randint(0, 2)
        tree = StratifiedDescent(total, SheafDatum(1, (2, 2)), (1,), oracle)
    elif kind == "split":
        # the cancelled corner repeats a summed one, as a copy on a tree
        a, b = sub(), sub()
        c = rng.choice((a, b)) if pool is not None else unshare(rng.choice((a, b)))
        split = rng.choice(("retraction", "section"))
        if rng.random() < 0.5:
            tree = Blowup((("Y", a), ("Z", b), ("E", c)), "X", split)
        else:
            tree = Blowup((("Y", a), ("Z", b), ("X", c)), "E", split)
    else:
        corners = (("Y", sub()), ("Z", sub()), ("E", sub()))
        if rng.random() < 0.04:
            relabelled = tuple(("X" if label == "Y" else label, t) for label, t in corners)
            tree = Blowup(relabelled, "Y", None, ((0, ((1,),)),))
        else:
            tree = Blowup(corners, "X", None, _maps(rng, corners, table))
    if pool is not None:
        pool.append(tree)
    return tree


def _outcome(evaluate, lo, hi):
    try:
        window = evaluate()
    except (EngineError, ValueError) as exc:
        return "error", type(exc), str(exc)
    return "ok", [window.value_at(d) for d in range(lo - 6, hi + 1)], window.assumed_oracles


def _differential_cases(seed, count, shared):
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        table = random_table(rng)
        tree = random_class_c_tree(rng, table, rng.randint(1, 3), [] if shared else None)
        if validate(tree, TRIV) or classify(tree).tag != "C":
            continue
        lo = rng.randint(-4, 1)
        hi = lo + rng.randint(0, 3)
        engine_side = _outcome(lambda: compute_graded(tree, TRIV, table, degrees=(lo, hi)), lo, hi)
        reference = _outcome(lambda: explicit_window_by_path(tree, table, lo, hi), lo, hi)
        paths = sum(1 for _ in walk(tree))
        cases.append((engine_side, reference, paths > len({id(node) for _, node in walk(tree)})))
    return cases


def _census(cases):
    """Successes of the reference, and its error messages with numbers and
    paths blanked (one entry per kind of fault)."""
    outcomes = [ref for _, ref, _ in cases]
    errors = {re.sub(r"[-\d/]+", "#", out[2]) for out in outcomes if out[0] == "error"}
    return sum(out[0] == "ok" for out in outcomes), errors


def test_unshared_trees_match_the_per_path_reference():
    cases = _differential_cases(31, 1000, shared=False)
    for engine_side, reference, shared in cases:
        assert not shared
        assert engine_side == reference
    successes, errors = _census(cases)
    # successes, and every kind of solver fault: torsion in each corner,
    # missing and misshapen maps, rational mix, class-C descent, a square
    # solved for its cover, a missing oracle
    assert successes >= 400
    assert len(errors) == 9


def test_shared_dags_match_where_the_reference_succeeds():
    cases = _differential_cases(47, 1000, shared=True)
    for engine_side, reference, _ in cases:
        if reference[0] == "ok":
            assert engine_side == reference
        else:
            assert engine_side[0] == "error"
    successes, _ = _census(cases)
    assert successes >= 400
    assert sum(shared for *_, shared in cases) >= 600


def nested_chain(depth, shared=False):
    """``node`` as the cover of ``depth`` nested non-split squares; with
    ``shared`` each square uses the level below as cover and center."""
    tree = example_library("node")
    two_points = Disjoint((Point(), Point()))
    for _ in range(depth):
        if shared:
            tree = Blowup((("Y", tree), ("Z", tree), ("E", two_points)), "X", None,
                          ((0, ((1, 0, 0, 0), (0, 1, 0, 0))),))
        else:
            tree = Blowup((("Y", tree), ("Z", Point()), ("E", two_points)), "X", None,
                          ((0, ((1, 0, 0), (0, 0, 0))),))
    return tree


def test_deep_chain_of_non_split_squares():
    # each level keeps Z^2 in degree 0 and adds one Z in degree -1
    value = compute_graded(nested_chain(500), TRIV, UNIT, degrees=(-2, 0))
    assert [value.value_at(d).free_rank for d in (-3, -2, -1, 0)] == [0, 0, 501, 2]


def test_deep_let_chain_of_squares_through_main(tmp_path, capsys):
    lines = ["group trivial", "let x0 = node"]
    lines += [
        f"let x{k} = blowup(unknown=X, split=none, Y=x{k - 1}, Z=point, "
        "E=disjoint(point, point), maps=[0: ((1, 0, 0), (0, 0, 0))])"
        for k in range(1, 501)
    ]
    lines += ["compute x500 table=unit degrees=-1..0"]
    script = tmp_path / "chain.slc"
    script.write_text("\n".join(lines) + "\n")
    assert main(["run", str(script)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "degree -1: Z^501" in out and "degree 0: Z^2" in out


def test_shared_chain_factors_each_map_once(monkeypatch):
    calls = 0
    real_snf = engine.snf

    def counting(matrix):
        nonlocal calls
        calls += 1
        return real_snf(matrix)

    monkeypatch.setattr(engine, "snf", counting)
    tree = nested_chain(8, shared=True)
    value = compute_graded(tree, TRIV, UNIT, degrees=(-1, 0))
    # one non-split square per level plus node, one nonzero map each
    assert calls == 9
    assert value.value_at(0).free_rank == 2


def _les_script(lets: list[str], target: str) -> tuple[str, str]:
    """The commands of scripts/node.slc on ``target``: a refutation by
    classify, a compute over the unit table and a verdict."""
    commands = [f"classify {target}", f"compute {target} table=unit degrees=-3..0",
                f"verdict {target} preset=cyclotomic_Fp"]
    return "\n".join(["group trivial", *lets, *commands]) + "\n", target


def _random_map_lets() -> list[str]:
    rng = random.Random(14)
    rows = ", ".join(
        "(" + ", ".join(str(rng.randint(-5, 5)) for _ in range(5)) + ")" for _ in range(4)
    )
    return [f"let x = blowup(unknown=X, split=none, Y=P(3), Z=point, E=P(3), maps=[0: ({rows})])"]


LES_SCRIPTS = {
    "node": ((Path(__file__).resolve().parent.parent / "scripts" / "node.slc").read_text(), "x"),
    "random_map": _les_script(_random_map_lets(), "x"),
    "nested_chain": _les_script(
        ["let x0 = node"] + [
            f"let x{k} = blowup(unknown=X, split=none, Y=x{k - 1}, Z=point, "
            "E=disjoint(point, point), maps=[0: ((1, 0, 0), (0, 0, 0))])"
            for k in range(1, 9)
        ],
        "x8",
    ),
}


def _record_eliminations(monkeypatch) -> list[bool]:
    """The ``augmented`` flag of every Smith elimination from now on."""
    runs = []
    real_eliminate = coeff._eliminate

    def recording(matrix, augmented):
        runs.append(augmented)
        return real_eliminate(matrix, augmented)

    monkeypatch.setattr(coeff, "_eliminate", recording)
    return runs


@pytest.mark.parametrize("name", sorted(LES_SCRIPTS))
def test_les_script_factors_each_map_once(name, tmp_path, monkeypatch, capsys):
    """classify's refutation (to degree -1) and compute (to degree 0) read
    the same degree-0 map of every square; it is factored once, into
    factors only."""
    factored = []
    real_snf = engine.snf

    def counting(matrix):
        factored.append(matrix)
        return real_snf(matrix)

    monkeypatch.setattr(engine, "snf", counting)
    runs = _record_eliminations(monkeypatch)
    text, target = LES_SCRIPTS[name]
    script = tmp_path / f"{name}.slc"
    script.write_text(text)
    assert main(["run", str(script)]) == EXIT_OK
    assert "class C" in capsys.readouterr().out
    squares = [n for _, n in walk(parse(text).trees[target]) if isinstance(n, Blowup) and n.split is None]
    maps = sum(len(n.comparison_maps) for n in squares)
    assert len(factored) == len({id(m) for m in factored}) == maps
    assert runs == [False] * maps


def test_witnesses_after_a_refutation_match_a_fresh_tree(monkeypatch):
    """Forms factored without transforms by the refutation and compute give
    the root square's witnesses the same transforms a fresh tree does."""
    runs = _record_eliminations(monkeypatch)
    for name in ("node", "nested_chain"):
        text, target = LES_SCRIPTS[name]
        tree, fresh = parse(text).trees[target], parse(text).trees[target]
        assert refute_membership_b(tree, TRIV) is not None
        compute_graded(tree, TRIV, UNIT, degrees=(-3, 0))
        assert runs and not any(runs)
        solved = solve_blowup_les(tree, TRIV, UNIT, -3, 0, collect_witnesses=True)
        assert any(runs)
        assert solved[1] and solved == solve_blowup_les(fresh, TRIV, UNIT, -3, 0, collect_witnesses=True)
        runs.clear()


def test_refutation_rejects_opaque_groups():
    with pytest.raises(UnsupportedError):
        refute_membership_b(example_library("node"), OpaqueGroup("GL2"))
    # class-B trees have nothing to refute, whatever the group
    assert refute_membership_b(example_library("cusp"), OpaqueGroup("GL2")) is None
