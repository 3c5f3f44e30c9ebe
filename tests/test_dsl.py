import random
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from simploc.dsl import (
    Blowup,
    BundleDatum,
    Disjoint,
    FlagBundle,
    HenselianBase,
    LIBRARY_ENTRIES,
    Point,
    SheafDatum,
    StratifiedDescent,
    classify,
    example_library,
    validate,
    walk,
)
from simploc.group_rep import GroupDatum
from simploc.schubert import FiniteSchubertDatum, affine_schubert_tree, finite_schubert_tree
from simploc.script import ScriptError, parse, print_tree

from .oracles import random_class_b_tree
from .test_schubert import all_j_sequences, dominant_coweights

TRIV = GroupDatum(0)
T2 = GroupDatum(2)


def test_validate_point():
    assert validate(Point(), TRIV) == []


def test_validate_flag_d_exceeds_rank():
    bad = FlagBundle(Point(), BundleDatum(2), (3,))
    violations = validate(bad, TRIV)
    assert any("d exceeds rank" in v.rule for v in violations)


def test_validate_descent_rank_bound():
    ok = StratifiedDescent(Point(), SheafDatum(1, (2, 2)), (1,))
    assert validate(ok, TRIV) == []
    bad = StratifiedDescent(Point(), SheafDatum(1, (2, 2)), (2,))
    assert any("generic rank" in v.rule for v in validate(bad, TRIV))
    bad2 = StratifiedDescent(Point(), SheafDatum(3, (2, 2)), (1,))
    assert any("presenting bundle" in v.rule for v in validate(bad2, TRIV))


def test_validate_characters_against_lattice():
    bundle = BundleDatum(2, split_characters=((1,), (0,)))
    tree = FlagBundle(Point(), bundle, (1,))
    assert validate(tree, GroupDatum(1)) == []
    violations = validate(tree, T2)
    assert any("lattice" in v.rule for v in violations)


def test_validate_blowup_corner_labels():
    square = Blowup(
        known=(("Y", Point()), ("Z", Point()), ("E", Point())),
        unknown_corner="X",
        split="retraction",
    )
    assert validate(square, TRIV) == []
    wrong = Blowup(
        known=(("Y", Point()), ("Z", Point()), ("X", Point())),
        unknown_corner="X",
        split=None,
    )
    assert any("exactly the corners" in v.rule for v in validate(wrong, TRIV))


def test_validate_henselian_prime():
    assert validate(HenselianBase(5), TRIV) == []
    assert any("not prime" in v.rule for v in validate(HenselianBase(6), TRIV))


def test_violation_paths_are_slash_indexed():
    bad = Disjoint((Point(), FlagBundle(Point(), BundleDatum(1), (2,))))
    violations = validate(bad, TRIV)
    assert violations and violations[0].path == "1"


def test_walk_lists_every_path_in_preorder():
    shared = FlagBundle(Point(), BundleDatum(2), (1,))
    tree = Disjoint((shared, StratifiedDescent(shared, SheafDatum(1, (1, 0)), (1,)), Point()))
    assert [(path, type(node).__name__) for path, node in walk(tree)] == [
        ("", "Disjoint"),
        ("0", "FlagBundle"),
        ("0/0", "Point"),
        ("1", "StratifiedDescent"),
        ("1/0", "FlagBundle"),
        ("1/0/0", "Point"),
        ("2", "Point"),
    ]


def test_walk_deep_tower_beyond_recursion_limit():
    tree = Point()
    for _ in range(3000):
        tree = FlagBundle(tree, BundleDatum(2), (1,))
    paths = [path for path, _ in walk(tree)]
    assert paths == [""] + ["/".join("0" * k) for k in range(1, 3001)]


def test_classify_worked_examples():
    assert classify(example_library("cusp")).tag == "B"
    assert classify(example_library("node")).tag == "C"
    assert classify(Point()).tag == "B"
    assert classify(example_library("cone_of_P1")).tag == "B"


def test_classify_henselian():
    assert classify(HenselianBase(5)).tag == "C_p"
    assert classify(HenselianBase(5)).prime == 5
    mixed = Disjoint((HenselianBase(3), HenselianBase(5)))
    assert classify(mixed).tag == "invalid"
    same = Disjoint((HenselianBase(3), HenselianBase(3)))
    assert classify(same).tag == "C_p"



def _trial_division_prime(n: int) -> bool:
    return n >= 2 and all(n % q for q in range(2, int(n**0.5) + 1))


def _henselian_rules(p: int) -> list[str]:
    return [v.rule for v in validate(HenselianBase(p), TRIV)]


def test_henselian_primality_agrees_with_trial_division():
    for p in range(-2, 10**5):
        assert (_henselian_rules(p) == []) == _trial_division_prime(p), p


def test_henselian_rejects_strong_pseudoprimes_and_huge_composites():
    # 561 is a Carmichael number; 2047 and 3215031751 are strong
    # pseudoprimes to base 2 and to bases 2, 3, 5, 7
    for p in (561, 2047, 3215031751, 10**400):
        assert _henselian_rules(p) == [f"henselian residue characteristic {p} is not prime"]


def test_henselian_large_primes():
    assert _henselian_rules(10**18 + 3) == []
    assert classify(HenselianBase(10**18 + 3)).tag == "C_p"
    p = 2**89 - 1  # prime, above the bound of the deterministic witness set
    assert _henselian_rules(p) == [
        f"henselian residue characteristic {p} is too large to certify as prime"
    ]

def test_classify_records_oracles():
    tree = StratifiedDescent(Point(), SheafDatum(1, (1, 1)), (1,), oracle_rank=1)
    cls = classify(tree)
    assert cls.assumed_oracles == ("(root)",)


def test_classify_monotone_under_split_declaration():
    # adding a split declaration to a blowup never weakens the tag
    rng = random.Random(5)
    strength = {"B": 3, "C": 2, "C_p": 1, "invalid": 0}
    for trial in range(60):
        tree = random_class_b_tree(rng, TRIV, 4)
        blowups = [p for p, n in walk(tree) if isinstance(n, Blowup)]
        if not blowups:
            continue
        stripped = _strip_one_split(tree, blowups[0])
        before = classify(stripped)
        after = classify(tree)
        assert strength[after.tag] >= strength[before.tag]


def _strip_one_split(tree, target_path, path=""):
    if isinstance(tree, Blowup) and path == target_path:
        return Blowup(tree.known, tree.unknown_corner, None, tree.comparison_maps)
    kids = {
        Disjoint: lambda t: Disjoint(
            tuple(
                _strip_one_split(c, target_path, f"{path}/{i}" if path else str(i))
                for i, c in enumerate(t.children)
            )
        ),
        FlagBundle: lambda t: FlagBundle(
            _strip_one_split(t.base, target_path, f"{path}/0" if path else "0"),
            t.bundle,
            t.d_vec,
        ),
        StratifiedDescent: lambda t: StratifiedDescent(
            _strip_one_split(t.total_space, target_path, f"{path}/0" if path else "0"),
            t.sheaf,
            t.d_vec,
            t.oracle_rank,
        ),
        Blowup: lambda t: Blowup(
            tuple(
                (
                    lbl,
                    _strip_one_split(c, target_path, f"{path}/{i}" if path else str(i)),
                )
                for i, (lbl, c) in enumerate(t.known)
            ),
            t.unknown_corner,
            t.split,
            t.comparison_maps,
        ),
    }
    builder = kids.get(type(tree))
    return builder(tree) if builder else tree


@pytest.mark.parametrize("name,params", LIBRARY_ENTRIES)
def test_library_validates_for_all_groups(name, params):
    for rank in (0, 2, 3, 5):
        group = GroupDatum(rank)
        tree = example_library(name, *params, group=group)
        assert validate(tree, group) == [], (name, rank)


def test_library_equivariant_characters():
    tree = example_library("projective_space", 1, group=T2)
    assert tree.bundle.split_characters == ((1, 0), (0, 1))
    plain = example_library("projective_space", 1, group=TRIV)
    assert plain.bundle.split_characters is None


def test_library_node_structure():
    node = example_library("node")
    assert node.split is None
    assert isinstance(node.corner("E"), Disjoint)
    assert len(node.corner("E").children) == 2
    assert node.map_at(0) == ((1, 1, 1), (1, 1, 1))


def test_library_cone_structure():
    cone = example_library("cone_of_P1")
    assert cone.split == "retraction"
    cover = cone.corner("Y")
    assert isinstance(cover, FlagBundle)
    assert cover.bundle.twist_labels == (0, 2)
    assert classify(cone).tag == "B"


def test_unknown_library_entry():
    with pytest.raises(LookupError):
        example_library("nonsense")


def test_print_parse_round_trip_library():
    for name, params in LIBRARY_ENTRIES:
        for group in (TRIV, T2):
            tree = example_library(name, *params, group=group)
            header = "group trivial" if group.is_trivial else "group torus 2"
            text = f"{header}\nlet x = {print_tree(tree)}\n"
            script = parse(text)
            assert script.trees["x"] == tree, (name, group)


def test_print_parse_round_trip_fuzzed():
    rng = random.Random(99)
    for trial in range(80):
        group = rng.choice((TRIV, T2))
        tree = random_class_b_tree(rng, group, 5)
        header = "group trivial" if group.is_trivial else "group torus 2"
        script = parse(f"{header}\nlet x = {print_tree(tree)}\n")
        assert script.trees["x"] == tree


def _lists_in(value) -> list:
    """Every list held by a node, datum or group, through its fields and
    tuples; a node shared in the tree is entered once."""
    found, seen, stack = [], set(), [value]
    while stack:
        item = stack.pop()
        if type(item) is list:
            found.append(item)
        elif type(item) is tuple:
            stack.extend(item)
        elif is_dataclass(item) and id(item) not in seen:
            seen.add(id(item))
            stack.extend(getattr(item, f.name) for f in fields(item))
    return found


def test_builders_make_nodes_of_tuples():
    """Node and datum constructors keep what they are given, so every
    builder must pass tuples: a list field would break hashing."""
    for group in (TRIV, GroupDatum(4), GroupDatum(1, (3,))):
        for name, params in LIBRARY_ENTRIES:
            tree = example_library(name, *params, group=group)
            assert _lists_in(tree) == [], (name, group)
            hash(tree)
    root = Path(__file__).resolve().parent.parent
    parsed = 0
    for path in sorted(root.glob("scripts/*.slc")) + sorted(root.glob("tests/golden/**/*.slc")):
        try:
            script = parse(path.read_text())
        except ScriptError:
            continue
        parsed += 1
        assert _lists_in(script.group) == [], path.name
        for name, tree in script.trees.items():
            assert _lists_in(tree) == [], (path.name, name)
    assert parsed >= 20
    for n in range(1, 5):
        for group in (TRIV, GroupDatum(n)):
            for d in range(n + 1):
                for j in all_j_sequences(n, d):
                    tree = finite_schubert_tree(FiniteSchubertDatum(n, d, j), group)
                    assert _lists_in(tree) == [], (n, d, j)
            for datum in dominant_coweights(n, 4):
                assert _lists_in(affine_schubert_tree(datum, group)) == [], datum
