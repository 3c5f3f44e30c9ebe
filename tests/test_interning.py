"""Trees are interned per parse: equal subtrees of one script are one node.

Every tree a call builds goes through the parse's intern table, keyed on
each node's type, data and children's ids, so within one script every
``point``, each use of ``node``, ``cusp`` or ``cone_of_P1`` and every
subtree written twice is one object, and two parses share none.  The folds then visit each distinct
subtree once; answers listed per path (violations, oracle paths, ranks,
windows) must equal those of the unshared copy.  The reader's one-step
path for integer tuples falls back on anything else to the entry-by-entry
reader, whose messages and columns are pinned here.
"""

import random

import pytest

from simploc.cli import EXIT_OK, main
from simploc.coeff import builtin_table
from simploc.dsl import Point, classify, validate, walk
from simploc.engine import compute_degree0, compute_graded
from simploc.group_rep import GroupDatum
from simploc.script import ScriptError, parse

from .oracles import unshare

UNIT = builtin_table("unit")


def _nodes(tree):
    """Every node at every path of ``tree``."""
    return [node for _, node in walk(tree)]


def _ids(script):
    """The ids of the nodes of the script's trees."""
    return {id(node) for tree in script.trees.values() for node in _nodes(tree)}


P1 = "flagbundle(point, rank=2, d=(1))"


def test_equal_subtrees_are_one_node():
    script = parse(
        "group trivial\n"
        f"let a = {P1}\n"
        f"let b = disjoint({P1}, {P1}, point)\n"
        f"let c = blowup(unknown=X, split=retraction, Y={P1}, Z=point, E=point)\n"
        f"let d = descent(disjoint({P1}, point), rank=1, pres=(2, 2), d=(1))\n"
        f"let e = disjoint(descent(disjoint(a, point), rank=1, pres=(2, 2), d=(1)), henselian(3))\n"
        "let f = disjoint(henselian(3), a)\n"
    )
    t = script.trees
    assert t["b"].children[0] is t["b"].children[1] is t["a"]
    assert t["c"].corner("Y") is t["a"]
    assert t["c"].corner("Z") is t["c"].corner("E") is t["b"].children[2]
    assert t["e"].children[0] is t["d"]
    assert t["f"].children[0] is t["e"].children[1]
    points = {id(node) for tree in t.values() for node in _nodes(tree) if type(node) is Point}
    assert len(points) == 1
    # nodes differing in any datum stay apart
    other = parse(
        "group trivial\n"
        f"let a = {P1}\n"
        "let b = flagbundle(point, rank=2, d=(1), twists=(0, 0))\n"
        "let c = descent(a, rank=1, pres=(2, 2), d=(1))\n"
        "let d = descent(a, rank=1, pres=(2, 2), d=(1), oracle=1)\n"
        "let e = blowup(unknown=X, split=none, Y=a, Z=point, E=point, maps=[0: ((1, 1))])\n"
        "let f = blowup(unknown=X, split=none, Y=a, Z=point, E=point, maps=[0: ((1, 2))])\n"
        "let g = henselian(2)\n"
        "let h = henselian(3)\n"
        "let i = disjoint(a, point)\n"
        "let j = disjoint(point, a)\n"
    ).trees
    distinct = [other[name] for name in "abcdefghij"]
    assert len({id(tree) for tree in distinct}) == len(distinct)


def test_library_names_are_built_once_per_parse():
    t = parse(
        "group trivial\n"
        "let a = node\n"
        "let b = disjoint(node, cone_of_P1, cusp, cone_of_P1, cusp)\n"
        "let c = blowup(unknown=X, split=none, Y=node, Z=point, E=point)\n"
    ).trees
    assert t["b"].children[0] is t["a"] is t["c"].corner("Y")
    assert t["b"].children[1] is t["b"].children[3]
    assert t["b"].children[2] is t["b"].children[4]


def test_two_parses_share_no_node():
    text = "group trivial\nlet x = disjoint(point, P(1), node, cone_of_P1, henselian(5))\n"
    first, second = parse(text), parse(text)
    assert first == second
    assert not _ids(first) & _ids(second)


# ---------------------------------------------------------------------------
# differential: the interned tree against its unshared copy

KINDS = ("point", "point", "disjoint", "flag", "flag", "descent", "split", "square", "henselian")


def _random_expr(rng: random.Random, depth: int, pool: list, names: list) -> str:
    """A random explicit-form expression; it often repeats an expression
    made before or names an earlier tree, so equal subtrees abound.  Some
    data break a rule, so validation has violations to list."""
    if pool and rng.random() < 0.3:
        return rng.choice(pool)
    if names and rng.random() < 0.15:
        return rng.choice(names)
    kind = "point" if depth == 0 else rng.choice(KINDS)
    sub = lambda: _random_expr(rng, depth - 1, pool, names)  # noqa: E731
    if kind == "point":
        text = rng.choice(("point", "point", "node", "P(1)", P1))
    elif kind == "henselian":
        text = f"henselian({rng.choice((2, 3, 4))})"
    elif kind == "disjoint":
        text = f"disjoint({', '.join(sub() for _ in range(rng.randint(1, 3)))})"
    elif kind == "flag":
        rank = rng.randint(1, 3)
        text = f"flagbundle({sub()}, rank={rank}, d=({rng.randint(1, rank + 1)}))"
    elif kind == "descent":
        generic = rng.randint(1, 2)
        oracle = f", oracle={rng.randint(0, 3)}" if rng.random() < 0.6 else ""
        text = f"descent({sub()}, rank={generic}, pres=({generic}, {generic}), d=(1){oracle})"
    elif kind == "split":
        split = rng.choice(("retraction", "section"))
        text = f"blowup(unknown=X, split={split}, Y={sub()}, Z={sub()}, E={sub()})"
    else:
        # the nodal square over a random cover; its map fits a cover P^1
        cover = rng.choice(("P(1)", P1, sub()))
        text = (
            f"blowup(unknown=X, split=none, Y={cover}, Z=point, "
            "E=disjoint(point, point), maps=[0: ((1, 1, 1), (1, 1, 1))])"
        )
    pool.append(text)
    return text


def _random_script(rng: random.Random) -> str:
    lines, pool, names = ["group trivial"], [], []
    for i in range(rng.randint(2, 6)):
        lines.append(f"let v{i} = {_random_expr(rng, rng.randint(1, 3), pool, names)}")
        names.append(f"v{i}")
    return "\n".join(lines) + "\n"


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # the error, by type and message, is the answer
        return type(exc).__name__, str(exc)


def _answers(tree, group):
    """validate, classify, the degree-0 rank and a degree window of ``tree``."""

    def degree0():
        module = compute_degree0(tree, group)
        return module.rank, module.assumed_oracles

    def window():
        value = compute_graded(tree, group, UNIT, degrees=(-2, 0))
        return [value.value_at(d) for d in range(-2, 1)], value.assumed_oracles

    return (
        validate(tree, group),
        _outcome(lambda: classify(tree)),
        _outcome(degree0),
        _outcome(window),
    )


@pytest.mark.parametrize("seed", range(40))
def test_interned_trees_answer_as_their_unshared_copies(seed):
    rng = random.Random(7100 + seed)
    script = parse(_random_script(rng))
    group = GroupDatum(0)
    for tree in script.trees.values():
        assert _answers(tree, group) == _answers(unshare(tree), group)


def test_random_scripts_share_subtrees():
    """The differential above runs on scripts whose equal subtrees are one
    node: fewer than two thirds of the nodes at all paths are distinct."""
    paths = distinct = 0
    for seed in range(40):
        script = parse(_random_script(random.Random(7100 + seed)))
        paths += sum(len(_nodes(tree)) for tree in script.trees.values())
        distinct += len(_ids(script))
    assert distinct * 3 < paths * 2


# ---------------------------------------------------------------------------
# a deep chain: no intern key hashes a node (the dataclass hash recurses)


def test_a_deep_let_chain_parses_and_checks(tmp_path, capsys):
    depth = 5000
    lines = ["group trivial", "let t0 = point"]
    lines += [f"let t{i} = flagbundle(t{i - 1}, rank=2, d=(1))" for i in range(1, depth + 1)]
    path = tmp_path / "chain.slc"
    path.write_text("\n".join(lines) + "\n")
    assert main(["check", str(path)]) == EXIT_OK
    assert capsys.readouterr().out.count(": class B\n") == depth + 1


# ---------------------------------------------------------------------------
# the integer-tuple reader's fallbacks: messages and columns

FLAG = "group trivial\nlet x = flagbundle(point, rank=2, d={})\n"
SQUARE = "group trivial\nlet x = blowup(unknown=X, split=none, Y=point, Z=point, E=point, maps={})\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (FLAG.format("(1,)"), "line 2:40: unexpected token ')'"),
        (FLAG.format("(1 2)"), "line 2:40: expected RPAREN, got INT '2'"),
        (FLAG.format("(1, x)"), "line 2:35: d must be an integer or tuple of integers"),
        (FLAG.format("(1, -)"), "line 2:41: unexpected character '-'"),
        (FLAG.format("((1, 2), 3)"), "line 2:35: d must be an integer or tuple of integers"),
        (FLAG.format("(1, (2))"), "line 2:35: d must be an integer or tuple of integers"),
        (FLAG.format("(1, 2"), "line 2:43: expected RPAREN, got END ''"),
        (SQUARE.format('[0: (1, "a")]'), "line 2:79: unexpected token 'a'"),
        (SQUARE.format('[0: ((1, 2), (3, "a"))]'), "line 2:88: unexpected token 'a'"),
        (SQUARE.format("[0: (1, 2]"), "line 2:80: expected RPAREN, got RBRACKET ']'"),
    ],
)
def test_malformed_tuples_keep_their_message_and_column(text, message):
    with pytest.raises(ScriptError) as caught:
        parse(text)
    assert str(caught.value) == message


def test_integer_tuples_read_in_one_step_are_the_tuples_written():
    trees = parse(
        "group trivial\n"
        "let a = flagbundle(point, rank=3, d=(-1, 2), twists=(0, -12, 7))\n"
        "let b = flagbundle(point, rank=3, d=(), twists=(٣, 1, 1))\n"
        "let c = blowup(unknown=X, split=none, Y=point, Z=point, E=point, maps=[0: ((1, -2), (3))])\n"
    ).trees
    assert trees["a"].d_vec == (-1, 2) and trees["a"].bundle.twist_labels == (0, -12, 7)
    assert trees["b"].d_vec == () and trees["b"].bundle.twist_labels == (3, 1, 1)
    assert trees["c"].comparison_maps == ((0, ((1, -2), (3,))),)
