"""Physically shared subtrees: every per-path answer survives the DAG folds.

``let`` bindings and ``cone(...)`` share node objects, and the folds visit
each distinct node once.  Each DAG here is checked against its ``unshare``
copy, where no node repeats, and against path-by-path references.
"""

import random

import pytest

from simploc import dsl
from simploc.coeff import builtin_table
from simploc.dsl import (
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
from simploc.engine import UnderdeterminedError, compute_degree0, compute_graded
from simploc.group_rep import GroupDatum

from .oracles import (
    degree0_oracle_paths,
    degreewise_value,
    preorder_oracle_paths,
    random_class_b_tree,
    unshare,
)

TRIV = GroupDatum(0)
UNIT = builtin_table("unit")


def cone_tower(base, depth):
    """Projective cones stacked depth times; each level shares its base
    between the cover and the exceptional corner."""
    tree = base
    for level in range(depth):
        tree = example_library("projective_cone", tree, level + 1)
    return tree


def shared_dags():
    rng = random.Random(20260)
    dags = []
    for i in range(24):
        group = TRIV if i % 2 else GroupDatum(3)
        base = random_class_b_tree(rng, group, rng.randint(1, 3))
        tree = cone_tower(base, rng.randint(1, 3))
        dags.append((group, Disjoint((tree, tree)) if i % 3 == 0 else tree))
    p1 = example_library("projective_space", 1)
    descent = StratifiedDescent(p1, SheafDatum(1, (2, 2)), (1,), oracle_rank=1)
    dags.append((TRIV, cone_tower(descent, 3)))
    dags.append((TRIV, Disjoint((descent, FlagBundle(descent, BundleDatum(2), (1,)), descent))))
    return dags


@pytest.mark.parametrize("group,dag", shared_dags())
def test_shared_dag_matches_unshared_copy_and_references(group, dag):
    copy = unshare(dag)
    assert validate(dag, group) == validate(copy, group) == []
    cls = classify(dag)
    assert cls == classify(copy)
    assert cls.tag == "B"
    assert cls.assumed_oracles == preorder_oracle_paths(dag)
    module = compute_degree0(dag, group)
    other = compute_degree0(copy, group)
    assert module.rank == other.rank == degreewise_value(dag, UNIT, 0)[0]
    assert module.assumed_oracles == other.assumed_oracles == degree0_oracle_paths(dag)
    assert module.basis_labels == other.basis_labels
    assert len(module.basis_labels) == module.rank
    # the cached classes leave equality, hashing and printing alone
    assert dag == copy and hash(dag) == hash(copy) and repr(dag) == repr(copy)


def test_shared_invalid_node_reported_at_every_path():
    bad = FlagBundle(Point(), BundleDatum(1), (2,))
    dag = Disjoint((bad, FlagBundle(bad, BundleDatum(2), (1,)), bad))
    violations = validate(dag, TRIV)
    assert violations == validate(unshare(dag), TRIV)
    assert [v.path for v in violations] == [p for p, n in walk(dag) if n is bad]
    assert [v.path for v in violations] == ["0", "1/0", "2"]


def test_missing_oracle_named_at_first_path():
    p1 = example_library("projective_space", 1)
    bare = StratifiedDescent(p1, SheafDatum(1, (2, 2)), (1,))
    dag = Disjoint((Point(), cone_tower(bare, 2)))
    first = next(p for p, n in walk(dag) if n is bare)
    messages = []
    for tree in (dag, unshare(dag)):
        with pytest.raises(UnderdeterminedError) as exc:
            compute_degree0(tree, TRIV)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert f"descent node {first} declares" in messages[0]


def class_c_dags():
    node = example_library("node")
    cover = FlagBundle(node, BundleDatum(2), (1,))
    square = dsl.Blowup((("Y", cover), ("Z", node), ("E", node)), "X", "retraction")
    return [node, Disjoint((node, node)), cover, square, Disjoint((square, cover))]


@pytest.mark.parametrize("dag", class_c_dags())
def test_class_c_windows_dense_and_sharing_blind(dag):
    value = compute_graded(dag, TRIV, UNIT, degrees=(-3, 1))
    window = value.window
    assert [d for d, _ in window.values] == list(range(window.lo, window.hi + 1))
    copy = compute_graded(unshare(dag), TRIV, UNIT, degrees=(-3, 1))
    assert [value.value_at(d) for d in range(-5, 2)] == [copy.value_at(d) for d in range(-5, 2)]


def test_work_is_linear_in_distinct_nodes(monkeypatch):
    tree = cone_tower(example_library("projective_space", 1), 12)
    distinct = len({id(node) for _, node in walk(tree)})
    calls = 0
    real_children = dsl.children

    def counting(node):
        nonlocal calls
        calls += 1
        return real_children(node)

    monkeypatch.setattr(dsl, "children", counting)
    assert validate(tree, TRIV) == []
    assert classify(tree).tag == "B"
    assert compute_degree0(tree, TRIV).rank == 2 + 12
    assert calls <= 3 * distinct


def test_deep_tower_beyond_recursion_limit():
    tree = Point()
    for _ in range(3000):
        tree = FlagBundle(tree, BundleDatum(2), (1,))
    assert classify(tree).tag == "B"
    assert validate(tree, TRIV) == []
    assert compute_degree0(tree, TRIV).rank == 2**3000
