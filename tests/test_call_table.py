"""Each call is looked up by its head and converted arguments before it is built.

Within one parse, a call written twice with equal converted arguments is one
object, library calls included, and its builder runs once; spellings that
convert alike are one call, calls that differ in any datum stay apart, and
two parses share no node.  A square that gives one degree two comparison
maps breaks a validation rule, whether parsed or built through the API.
"""

import pytest

from simploc import schubert
from simploc.dsl import Blowup, Disjoint, Point, example_library, validate
from simploc.group_rep import GroupDatum
from simploc.script import ScriptError, parse

from .test_interning import _ids

LIBRARY_CALLS = {
    "P": "P(2)",
    "Gr": "Gr(4, 2)",
    "Flag": "Flag(3, d=(1, 1))",
    "hirzebruch": "hirzebruch(2)",
    "cone": "cone(P(1), 2)",
    "schubert": "schubert(3, 1, j=(0, 0, 1, 1))",
    "affine": "affine(2, mu=(3, 0))",
}


@pytest.mark.parametrize("head", sorted(LIBRARY_CALLS))
def test_a_library_call_written_twice_is_one_object(head):
    call = LIBRARY_CALLS[head]
    t = parse(f"group torus 3\nlet a = {call}\nlet b = disjoint({call}, point)\n").trees
    assert t["b"].children[0] is t["a"]


def test_an_equal_affine_call_builds_its_tower_once(monkeypatch):
    calls = []
    counted = schubert.affine_cell_count

    def counting(datum):
        calls.append(datum)
        return counted(datum)

    monkeypatch.setattr(schubert, "affine_cell_count", counting)
    t = parse(
        "group torus 2\nlet a = affine(2, mu=(300, 0))\nlet b = affine(2, mu=(300, 0))\n"
    ).trees
    assert t["a"] is t["b"]
    assert len(calls) == 299


P1 = "flagbundle(point, rank=2, d=(1))"
SQUARE = "Y=P(1), Z=point, E=disjoint(point, point)"

# pairs of spellings that convert to the same arguments
ALIKE = [
    ("flagbundle(point, rank=2, d=1)", "flagbundle(point, rank=2, d=(1))"),
    ("Flag(3, d=1)", "Flag(3, d=(1))"),
    ("flagbundle(point, rank=2, d=(1), twists=(0, 1))", "flagbundle(point, twists=(0, 1), d=(1), rank=2)"),
    ("descent(point, rank=1, pres=(2, 2), d=(1), oracle=1)",
     "descent(point, oracle=1, d=(1), pres=(2, 2), rank=1)"),
    (f"blowup(unknown=X, split=retraction, Y={P1}, Z=point, E=point)",
     f"blowup(E=point, Z=point, Y={P1}, split=retraction, unknown=X)"),
    (f"blowup(unknown=Y, split=section, X={P1}, Z=point, E=point)",
     f"blowup(E=point, X={P1}, Z=point, unknown=Y, split=section)"),
    (f"blowup(unknown=X, {SQUARE}, maps=[0: ((1, 1, 1), (1, 1, 1)), -1: ((0, 0, 0))])",
     f"blowup(unknown=X, {SQUARE}, maps=[-1: ((0, 0, 0)), 0: ((1, 1, 1), (1, 1, 1))])"),
    (f"blowup(unknown=X, split=none, {SQUARE})", f"blowup(unknown=X, {SQUARE})"),
    (f"blowup(split=none, {SQUARE})", f"blowup(unknown=X, {SQUARE})"),
    ("flagbundle(point, rank=2, d=(1), chars=(1, 2))", "flagbundle(point, rank=2, d=(1), chars=((1), (2)))"),
]


@pytest.mark.parametrize("first, second", ALIKE)
def test_spellings_that_convert_alike_are_one_node(first, second):
    t = parse(f"group trivial\nlet a = {first}\nlet b = {second}\n").trees
    assert t["a"] is t["b"]


# calls that differ in one datum of each argument
APART = [
    "P(1)", "P(2)", "Gr(4, 2)", "Gr(4, 1)", "Gr(3, 1)", "Flag(3, d=(1, 1))", "Flag(3, d=(1))",
    "Flag(4, d=(1))", "hirzebruch(1)", "hirzebruch(2)", "cone(P(1), 2)", "cone(P(1), 1)",
    "cone(P(2), 2)", "schubert(3, 1, j=(0, 0, 1, 1))", "schubert(3, 1, j=(0, 0, 0, 1))",
    "affine(2, mu=(3, 0))", "affine(2, mu=(2, 0))", "affine(3, mu=(2, 0, 0))",
    f"blowup(unknown=X, {SQUARE}, maps=[0: ((1, 1, 1), (1, 1, 1))])",
    f"blowup(unknown=X, {SQUARE}, maps=[-1: ((1, 1, 1), (1, 1, 1))])",
    f"blowup(unknown=X, {SQUARE}, maps=[0: ((1, 1, 1), (1, 1, 0))])",
    f"blowup(unknown=X, split=retraction, {SQUARE})",
    f"blowup(unknown=X, split=section, {SQUARE})",
    f"blowup(unknown=X, {SQUARE})",
    "blowup(unknown=Y, X=P(1), Z=point, E=disjoint(point, point))",
    "blowup(unknown=X, Y=P(1), Z=disjoint(point, point), E=point)",
    "descent(point, rank=1, pres=(2, 2), d=(1))",
    "descent(point, rank=1, pres=(2, 2), d=(1), oracle=0)",
    "descent(point, rank=1, pres=(1, 2), d=(1))",
    "descent(point, rank=2, pres=(2, 2), d=(1))",
    "descent(point, rank=2, pres=(2, 2), d=(2))",
    "descent(P(1), rank=1, pres=(2, 2), d=(1))",
    "flagbundle(point, rank=2, d=(1))",
    "flagbundle(point, rank=2, d=(1), chars=((0), (1)))",
    "flagbundle(point, rank=2, d=(1), twists=(0, 1))",
    "flagbundle(point, rank=3, d=(1))",
    "henselian(2)", "henselian(3)",
    "disjoint(point, P(1))", "disjoint(P(1), point)", "disjoint(point)", "disjoint()",
]


def test_calls_that_differ_in_any_datum_stay_apart():
    lines = [f"let v{i} = {call}" for i, call in enumerate(APART)]
    trees = parse("\n".join(["group torus 3", *lines]) + "\n").trees
    assert len({id(tree) for tree in trees.values()}) == len(APART)


def test_nullary_names_and_calls_share_one_table_but_not_its_keys():
    t = parse(
        "group trivial\nlet a = disjoint()\nlet b = disjoint(node, point)\n"
        "let c = disjoint(node, point)\nlet d = schubert(2, 0, j=(0, 0, 0))\n"
    ).trees
    assert t["a"] == Disjoint(())
    assert t["b"] is t["c"]
    assert t["b"].children[0] == example_library("node")
    # a Schubert tower with no step is the script's one point
    assert t["d"] is t["b"].children[1]
    with pytest.raises(ScriptError, match="line 3:9: undefined name 'disjoint'"):
        parse("group trivial\nlet a = disjoint()\nlet b = disjoint\n")


@pytest.mark.parametrize(
    "call, message",
    [
        ("P(-1)", "line 3:9: projective space dimension must be >= 0"),
        ("schubert(-1, 5, j=(1, 2))", "line 3:9: j sequence must have length n+1 = 0"),
        ("affine(2, mu=(0, 3))", "line 3:9: coweight must be weakly decreasing (dominant)"),
        ("disjoint(P(1), P(-1))", "line 3:24: projective space dimension must be >= 0"),
    ],
)
def test_a_builder_error_keeps_its_message_and_column(call, message):
    with pytest.raises(ScriptError) as raised:
        parse(f"group torus 2\nlet a = P(1)\nlet x = {call}\n")
    assert str(raised.value) == message


def test_two_parses_share_no_library_node():
    text = "".join(f"let v{i} = {call}\n" for i, call in enumerate(LIBRARY_CALLS.values()))
    first, second = parse("group torus 3\n" + text), parse("group torus 3\n" + text)
    assert first == second
    assert not _ids(first) & _ids(second)


NODE_SQUARE = dict(known=(("Y", example_library("projective_space", 1)), ("Z", Point()),
                          ("E", Disjoint((Point(), Point())))))
A = ((1, 1, 1), (1, 1, 1))
B = ((1, 0, 0), (0, 1, 0))


def test_a_repeated_map_degree_is_a_violation_of_an_api_tree():
    group = GroupDatum(0)
    assert validate(Blowup(**NODE_SQUARE, comparison_maps=((0, A),)), group) == []
    for maps in (((0, A), (0, B)), ((0, B), (0, A)), ((0, A), (0, A))):
        found = validate(Blowup(**NODE_SQUARE, comparison_maps=maps), group)
        assert [v.rule for v in found] == ["comparison maps give degree 0 more than once"]
    maps = ((2, A), (-1, B), (0, A), (2, B), (-1, A), (2, A))
    found = validate(Blowup(**NODE_SQUARE, comparison_maps=maps), group)
    assert [repr(v) for v in found] == [
        "(root): comparison maps give degree -1 more than once",
        "(root): comparison maps give degree 2 more than once",
    ]
