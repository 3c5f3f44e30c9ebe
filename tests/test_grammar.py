"""The script grammar as one unit: generated scripts round-trip through the
canonical printer, the printer handles towers past the recursion limit and
formats each distinct node once, ``main`` on lines of grammar tokens ends
in a documented exit code, never a traceback, and an ill-typed call argument
is reported at its own column."""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from simploc import script
from simploc.cli import PRESET_IDS, main
from simploc.dsl import BundleDatum, FlagBundle, Point
from simploc.script import ScriptError, parse, print_script, print_tree

NAME = st.from_regex(r"[A-Za-z_é][A-Za-z0-9_½]{0,5}", fullmatch=True).filter(
    lambda name: name not in script._RESERVED
)
SMALL = st.integers(-3, 6)
INT_TUPLE = st.lists(SMALL, max_size=3).map(lambda xs: f"({', '.join(map(str, xs))})")
# library sugar whose arguments the builders accept under any group; the
# Schubert builders need the trivial group or a torus of rank at least n
SUGAR = st.one_of(
    st.sampled_from(["point", "cusp", "node", "cone_of_P1", "Flag(3, d=(1, 1))"]),
    st.integers(0, 4).map(lambda n: f"P({n})"),
    st.tuples(st.integers(1, 5), st.integers(0, 5)).map(lambda nd: f"Gr({nd[0]}, {nd[1]})"),
    SMALL.map(lambda m: f"hirzebruch({m})"),
    st.integers(2, 50).map(lambda p: f"henselian({p})"),
)
SCHUBERT = st.sampled_from(
    ["schubert(4, 2, j=(0, 0, 1, 1, 2))", "schubert(3, 2, j=(0, 0, 2, 2))",
     "affine(2, mu=(2, 0))", "affine(3, mu=(1, 1, 0))"]
)


@st.composite
def expressions(draw, names: list[str], sugar, depth: int = 3) -> str:
    """A tree expression over the library ``sugar``, the explicit forms and
    the ``let`` names defined so far."""
    leaf = st.one_of(sugar, st.sampled_from(names)) if names else sugar
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return draw(leaf)
    sub = expressions(names, sugar, depth - 1)
    kind = draw(st.sampled_from(["disjoint", "flagbundle", "descent", "blowup", "cone"]))
    if kind == "disjoint":
        return f"disjoint({', '.join(draw(st.lists(sub, max_size=3)))})"
    if kind == "cone":
        return f"cone({draw(sub)}, {draw(SMALL)})"
    if kind == "flagbundle":
        args = [draw(sub), f"rank={draw(SMALL)}", f"d={draw(INT_TUPLE)}"]
        if draw(st.booleans()):
            args.append(f"chars=({', '.join(draw(st.lists(INT_TUPLE, max_size=3)))})")
        if draw(st.booleans()):
            args.append(f"twists={draw(INT_TUPLE)}")
        return f"flagbundle({', '.join(draw(st.permutations(args)))})"
    if kind == "descent":
        args = [draw(sub), f"rank={draw(SMALL)}", f"pres=({draw(SMALL)}, {draw(SMALL)})"]
        args.append(f"d={draw(INT_TUPLE)}")
        if draw(st.booleans()):
            args.append(f"oracle={draw(SMALL)}")
        return f"descent({args[0]}, {', '.join(draw(st.permutations(args[1:])))})"
    unknown = draw(st.sampled_from("XYZE"))
    args = [f"{label}={draw(sub)}" for label in "XYZE" if label != unknown]
    args.append(f"unknown={unknown}")
    split = draw(st.sampled_from(["retraction", "section", "none", None]))
    if split is not None:
        args.append(f"split={split}")
    if draw(st.booleans()):
        matrices = st.lists(INT_TUPLE, max_size=3).map(lambda rows: f"({', '.join(rows)})")
        pairs = draw(st.dictionaries(SMALL, matrices, max_size=3))
        args.append(f"maps=[{', '.join(f'{deg}: {m}' for deg, m in pairs.items())}]")
    return f"blowup({', '.join(draw(st.permutations(args)))})"


@st.composite
def scripts(draw) -> str:
    """Script text with a group, user tables, ``let`` lines and every
    command at least once, over built-in and user table names and presets."""
    orders = draw(st.lists(st.integers(2, 12), max_size=3))
    rank = draw(st.integers(0, 4))
    if not orders and rank == 0 and draw(st.booleans()):
        lines = ["group trivial"]
    else:
        mu = f" mu {' '.join(map(str, orders))}" if orders else ""
        lines = [f"group torus {rank}{mu}"]
    names = draw(st.lists(NAME, min_size=1, max_size=4, unique=True))
    user_tables = draw(st.lists(NAME, max_size=2, unique=True))
    lines += [f'table {t} = "{t}.tbl"' for t in user_tables]
    tables = st.sampled_from(["unit", "bott", "hcminus_rational", "rational_deg0", *user_tables])
    sugar = SUGAR | SCHUBERT if not orders and rank in (0, 4) else SUGAR
    for k, name in enumerate(names):
        lines.append(f"let {name} = {draw(expressions(names[:k], sugar))}")
    bound = st.one_of(SMALL, st.integers(-10**30, 10**30))
    words = ["compute", "classify", "verdict", "report"]
    commands = draw(st.permutations(words)) + draw(st.lists(st.sampled_from(words), max_size=3))
    for command in commands:
        target = draw(st.sampled_from(names))
        lo, hi = sorted((draw(bound), draw(bound)))
        if command == "compute":
            lines.append(f"compute {target} table={draw(tables)} degrees={lo}..{hi}")
        elif command == "classify":
            lines.append(f"classify {target}")
        elif command == "verdict":
            lines.append(f"verdict {target} preset={draw(st.sampled_from(PRESET_IDS) | NAME)}")
        else:
            tables_pair = f"kh={draw(tables)} hcminus={draw(tables)}"
            lines.append(f"report {target} {tables_pair} degrees={lo}..{hi}")
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(scripts())
def test_generated_scripts_round_trip_through_the_printer(text):
    parsed = parse(text)
    printed = print_script(parsed)
    assert parse(printed) == parsed
    assert print_script(parse(printed)) == printed


def test_deep_tower_prints_like_a_loop():
    # 3,000 levels: past the recursion limit
    tree, text = Point(), "point"
    for _ in range(3000):
        tree = FlagBundle(tree, BundleDatum(2, twist_labels=(0, 1)), (1,))
        text = f"flagbundle({text}, rank=2, d=(1), twists=(0, 1))"
    assert print_tree(tree) == text


def test_long_let_chain_prints_each_node_once(monkeypatch):
    lines = ["group trivial", "let x0 = point"]
    lines += [f"let x{k} = flagbundle(x{k - 1}, rank=2, d=(1))" for k in range(1, 1201)]
    parsed = parse("\n".join(lines) + "\n")
    calls = 0
    real = script._printed

    def counting(node, kids):
        nonlocal calls
        calls += 1
        return real(node, kids)

    monkeypatch.setattr(script, "_printed", counting)
    printed = print_script(parsed).splitlines()
    assert calls == 1201
    expected = "point"
    for k in range(1, 1201):
        expected = f"flagbundle({expected}, rank=2, d=(1))"
        assert printed[k + 1] == f"let x{k} = {expected}"
    assert len(printed) == 1202


# grammar tokens, a few names and small integers, and whole phrases: lines
# of them mostly fail to parse; whole statements mixed in reach validation
# and the engine
TOKENS = (
    "group trivial torus mu table let compute classify verdict report = ( ) [ ] , : .. "
    "x y t point cusp node cone_of_P1 P Gr Flag hirzebruch cone schubert affine disjoint "
    "flagbundle descent blowup henselian rank d chars twists pres oracle unknown split "
    "retraction section none X Y Z E maps j table= degrees= preset= kh= hcminus= "
    "unit bott hcminus_rational rational_deg0 cyclotomic_Fp parshin_Fq 0 1 2 3 -1 -2 7 "
    '"t.tbl" # ;'
).split() + [
    "let z =", "compute x", "compute y", "table=t", "table=bott", "degrees=-2..3",
    "report y kh=unit", "hcminus=t", "verdict y preset=ktop_C", "classify x",
    "flagbundle(y, rank=2, d=(1))", "maps=[0: ((1, 1, 1), (1, 1, 1))]",
    "blowup(unknown=X, split=none, Y=P(1), Z=point, E=disjoint(point, point))",
    "descent(P(2), rank=2, pres=(1, 3), d=(1), oracle=2)",
]
STATEMENTS = [
    'table t = "t.tbl"',
    "let z = blowup(unknown=X, split=none, Y=P(1), Z=point, E=disjoint(point, point))",
    "let z = flagbundle(x, rank=2, d=(1), twists=(0, 1))",
    "let z = descent(y, rank=1, pres=(0, 1), d=(1))",
    "compute x table=unit degrees=-1..2", "compute y table=t degrees=-3..3",
    "compute z table=unit degrees=0..1", "compute z table=t degrees=0..2",
    "classify x", "classify z", "verdict y preset=goodwillie_jones_Q", "verdict x preset=parshin_Fq",
    "report y kh=unit hcminus=hcminus_rational degrees=-1..2",
    "report x kh=t hcminus=t degrees=0..1",
]
LINES = st.lists(st.sampled_from(TOKENS), max_size=14).map(" ".join) | st.sampled_from(STATEMENTS)
HEADERS = ["", "group trivial\n", "group torus 1\n"]
HEADERS += [f"{group}\nlet x = node\nlet y = P(1)\n" for group in HEADERS[1:]]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from(HEADERS),
    st.lists(LINES, min_size=1, max_size=4),
    st.sampled_from(["run", "check"]),
    st.sampled_from(["text", "records"]),
)
def test_main_on_token_lines_exits_without_traceback(tmp_path_factory, header, lines, command, fmt):
    directory = tmp_path_factory.getbasetemp() / "token_lines"
    directory.mkdir(exist_ok=True)
    (directory / "t.tbl").write_text("0 1\n2 0 2\n")
    path = directory / "s.slc"
    path.write_text(header + "\n".join(lines) + "\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path), "--format", fmt])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue() + out.getvalue()


# per converter of a call argument: a value it accepts, and values it refuses
CONVERTED = {
    script._as_int: ("1", ["x", "(1, 2)", "[]", "[0: (1)]", "P(1)"]),
    script._as_int_tuple: ("(1, 0)", ["x", "((1), 2)", "[]", "P(1)"]),
    script._as_pair: ("(1, 0)", ["1", "(1, 2, 3)", "x", "[0: 1]"]),
    script._as_chars: ("((0), (1))", ["1", "x", "((x))", "[]"]),
    script._as_tree: ("point", ["1", "(point)", "[]", "nothing"]),
}
CONVERTED_HEADS = sorted(head for head, sig in script._SIGNATURES.items() if sig[4] is not None)
BLANK = st.text(" \t", max_size=2)


@pytest.mark.parametrize("head", CONVERTED_HEADS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_an_ill_typed_argument_is_reported_at_its_column(head, data):
    """Every argument well typed but one: the error points at that argument,
    a keyword argument's name or a positional argument's first token."""
    args = script._SIGNATURES[head][4]
    bad = data.draw(st.sampled_from([key for key, _, _ in args]))
    values = {}
    for key, convert, _ in args:
        good, ill = CONVERTED[convert]
        values[key] = data.draw(st.sampled_from(ill)) if key == bad else good
    positional = sorted(key for key in values if type(key) is int)
    keywords = data.draw(st.permutations([key for key in values if type(key) is str]))
    line = f"let x = {head}("
    for n, key in enumerate(positional + keywords):
        line += ("," if n else "") + data.draw(BLANK)
        if key == bad:
            col = len(line) + 1
        if type(key) is str:
            line += f"{key}{data.draw(BLANK)}={data.draw(BLANK)}"
        line += values[key] + data.draw(BLANK)
    line += ")"
    with pytest.raises(ScriptError) as raised:
        parse(f"group trivial\n{line}\n")
    assert (raised.value.line, raised.value.col) == (2, col), (line, str(raised.value))
