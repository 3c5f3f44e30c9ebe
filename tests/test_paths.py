"""Paths are listed once, from the root that asks for them.

The folds carry counts and integer ranks; ``validate``'s violations,
``classify``'s oracle paths and the path of a descent without an oracle
are listed from the root by one preorder lister, and the engine reorders
``classify``'s list children first.  Deep descent chains and deep affine
towers therefore run in memory linear in their output.
"""

import itertools
import json
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simploc.cli import EXIT_OK, main
from simploc.dsl import (
    BundleDatum,
    Disjoint,
    FlagBundle,
    HenselianBase,
    Point,
    SheafDatum,
    StratifiedDescent,
    children_first,
    classify,
    example_library,
    validate,
    walk,
)
from simploc.engine import compute_degree0
from simploc.group_rep import GroupDatum
from simploc.schubert import CoweightDatum, affine_schubert_tree

from .oracles import (
    affine_schubert_tree_recursive,
    children_first_reference,
    degree0_oracle_paths,
    preorder_oracle_paths,
    unshare,
)

TRIV = GroupDatum(0)
DESCENT_CHAIN = Path(__file__).resolve().parent / "golden" / "descent_chain"
EXPECTED = json.loads((DESCENT_CHAIN / "expected.json").read_text())


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_descent_chain_scripts_match_golden(case, capsys):
    """A 40-level let chain of descents, the same chain shared under a cone
    and a disjoint union, and small scripts with oracles under non-split
    squares, under mixed primes, many violations and a shared missing
    oracle: output and exit code as captured before the lister."""
    script, command, fmt = case.split()
    code = main([command, str(DESCENT_CHAIN / f"{script}.slc"), f"--format={fmt}"])
    assert code == EXPECTED[case]["exit"]
    assert capsys.readouterr().out == EXPECTED[case]["stdout"]


def _descent_chain(depth: int) -> str:
    lines = ["group trivial", "let a0 = point"]
    lines += [
        f"let a{i} = descent(flagbundle(a{i - 1}, rank=2, d=(1)), "
        "rank=1, pres=(2, 2), d=(1), oracle=2)"
        for i in range(1, depth + 1)
    ]
    lines += [f"classify a{depth}", f"compute a{depth} table=unit degrees=0..0"]
    return "\n".join(lines) + "\n"


def test_deep_descent_chain_in_bounded_memory(tmp_path, capsys):
    depth = 800
    script = tmp_path / "chain.slc"
    script.write_text(_descent_chain(depth))
    tracemalloc.start()
    try:
        code = main(["run", str(script), "--format=records"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert peak < 64 * 2**20
    classified, computed = map(json.loads, capsys.readouterr().out.splitlines())
    # each level adds a descent over a flag bundle: the descents sit at
    # every second depth
    preorder = ["(root)"] + ["/".join(["0"] * (2 * k)) for k in range(1, depth)]
    assert classified["assumed_oracles"] == preorder
    assert computed["free_rank"] == 2
    assert computed["flags"] == sorted(
        ["class-B formality over table 'unit'"] + [f"oracle:{p}" for p in preorder]
    )


def _affine(rng: random.Random):
    n = rng.randint(2, 3)
    mu = sorted((rng.randint(-1, 3) for _ in range(n)), reverse=True)
    return affine_schubert_tree(CoweightDatum(n, tuple(mu)), TRIV)


def shared_descent_dags(seed: int, count: int):
    """Affine towers (nested descents) under cones, disjoint unions and
    further descents, sharing subtrees; some with invalid nodes planted at
    shared positions.  Returns (dag, planted invalid nodes)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        pool = [_affine(rng) for _ in range(rng.randint(1, 3))]
        bad = []
        if rng.random() < 0.4:
            bad = [rng.choice((FlagBundle(Point(), BundleDatum(1), (2,)), HenselianBase(4)))]
            pool.append(bad[0])
        for _ in range(rng.randint(2, 6)):
            kind = rng.random()
            if kind < 0.35:
                tree = example_library("projective_cone", rng.choice(pool), rng.randint(0, 2))
            elif kind < 0.7:
                tree = Disjoint(tuple(rng.choice(pool) for _ in range(rng.randint(1, 3))))
            else:
                cover = FlagBundle(rng.choice(pool), BundleDatum(2), (1,))
                oracle = rng.randint(1, 2)
                tree = StratifiedDescent(cover, SheafDatum(1, (2, 2)), (1,), oracle_rank=oracle)
            pool.append(tree)
        out.append((pool[-1], bad))
    return out


def test_shared_descent_dags_list_paths_as_the_walk_references():
    valid = invalid = 0
    for dag, bad in shared_descent_dags(515, 150):
        violations = validate(dag, TRIV)
        assert violations == validate(unshare(dag), TRIV)
        planted = [p for p, node in walk(dag) if any(node is b for b in bad)]
        assert [v.path for v in violations] == planted
        invalid += bool(violations)
        cls = classify(dag)
        assert cls.assumed_oracles == preorder_oracle_paths(dag)
        if bad:
            continue
        valid += 1
        assert cls.tag == "B"
        module = compute_degree0(dag, TRIV)
        assert module.assumed_oracles == degree0_oracle_paths(dag)
        assert module.rank == compute_degree0(unshare(dag), TRIV).rank
    assert valid >= 60 and invalid >= 15


def test_affine_tower_loop_matches_the_recursive_construction():
    pairs = 0
    for n in range(1, 5):
        for mu in itertools.product(range(-2, 4), repeat=n):
            if list(mu) != sorted(mu, reverse=True):
                continue
            datum = CoweightDatum(n, mu)
            for group in (TRIV, GroupDatum(n)):
                tree = affine_schubert_tree(datum, group)
                assert tree == affine_schubert_tree_recursive(datum, group)
                pairs += 1
    assert pairs == 418


def test_deep_affine_tower_through_main(tmp_path, capsys):
    """1,100 minuscule steps: the recursive construction hit the recursion
    limit inside ``parse``."""
    script = tmp_path / "affine.slc"
    script.write_text(
        "group trivial\nlet a = affine(2, mu=(1100, 0))\nclassify a\n"
        "compute a table=unit degrees=0..0\nverdict a preset=parshin_Fq\n"
    )
    assert main(["run", str(script), "--format=records"]) == EXIT_OK
    classified, computed, verdict = map(json.loads, capsys.readouterr().out.splitlines())
    assert classified["tag"] == "B"
    assert len(classified["assumed_oracles"]) == 1099
    assert computed["free_rank"] == 1101  # the fixed lattices of (1100, 0)
    assert verdict["verdict"] == "vanishing"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.integers(0, 12), max_size=5), max_size=30))
def test_children_first_matches_the_sort_by_integer_components(raw):
    # sorted index tuples are in preorder (a prefix first, siblings by
    # index); () is the root, and indices past 9 take two digits
    preorder = sorted(set(map(tuple, raw)))
    paths = tuple("/".join(map(str, p)) or "(root)" for p in preorder)
    assert children_first(paths) == children_first_reference(paths)
