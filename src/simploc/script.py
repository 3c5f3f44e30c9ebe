"""Line-oriented construction-script language.

A script declares one group, optional user coefficient tables, named trees,
and commands.  Statements:

    group torus <n> [mu <l1> <l2> ...]    |  group trivial
    table <name> = "<path>"
    let <name> = <expr>
    compute <name> table=<id> degrees=<a>..<b>
    classify <name>
    verdict <name> preset=<id>
    report <name> kh=<id> hcminus=<id> degrees=<a>..<b>

Each command is one entry of ``_COMMANDS`` and each call head one entry of
``_SIGNATURES``: its positional count and keywords, its arguments with their
converters in conversion order, and the builder of its tree.  One loop
converts the arguments of every call but ``disjoint`` and ``blowup``, which
convert their own.  Tree expressions are library sugar (point, P(n),
Gr(n, d), Flag(n, d=(...)), hirzebruch(m), cusp, node, cone_of_P1,
cone(expr, twist), schubert(...), affine(...)) or explicit node forms
(disjoint, flagbundle, descent, blowup, henselian).  Parentheses always
build tuples, so nesting is unambiguous; ``maps=[deg: ((..),(..)), ...]``
attaches comparison matrices per degree.  The printer, one ``dsl.fold``,
emits explicit forms only, and parse(print(tree)) round-trips.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Optional, Union, get_args

from .dsl import (
    BLOWUP_CORNERS,
    SPLIT_KINDS,
    Blowup,
    BundleDatum,
    Disjoint,
    FlagBundle,
    HenselianBase,
    Point,
    SheafDatum,
    StratifiedDescent,
    Tree,
    example_library,
    fold,
)
from .group_rep import GroupDatum
from .schubert import (
    CoweightDatum,
    FiniteSchubertDatum,
    affine_schubert_tree,
    finite_schubert_tree,
    normalize_j,
)


class ScriptError(Exception):
    """Parse or resolution error with a source position."""

    def __init__(self, message: str, line: int, col: int = 0):
        super().__init__(f"line {line}:{col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# tokens


class Token(NamedTuple):
    kind: str  # a group name of _TOKEN, or END
    text: str
    line: int
    col: int


# builds a Token from one (kind, text, line, col) tuple without the Python
# frame of the generated __new__
_token = partial(tuple.__new__, Token)

# One token after optional blanks (group 1, unnamed, so that the end of the
# line and a comment match no named group); the name of the group that
# matched is the token's kind.  A string's group holds its text without the
# quotes.  IDENT also matches a first character that is a digit or numeric
# but not a decimal digit (``²``, ``½``), rejected below.
_TOKEN = re.compile(
    r'([ \t]*)(?:\Z|#|"(?P<STRING>[^"]*)"|(?P<INT>-?\d+)|(?P<IDENT>[^\W\d]\w*)'
    r"|(?P<DOTDOT>\.\.)|(?P<LPAREN>\()|(?P<RPAREN>\))|(?P<LBRACKET>\[)|(?P<RBRACKET>\])"
    r"|(?P<EQ>=)|(?P<COMMA>,)|(?P<COLON>:)|(?P<OTHER>.))",
    re.DOTALL,
)


def _tokenize_line(text: str, line: int) -> list[Token]:
    out: list[Token] = []
    # every position starts a match, so the matches tile the line
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind is None:
            break
        value = match.group(kind)
        col = match.end(1) + 1  # the token's first character: a string's quote
        if kind == "OTHER" or (kind == "IDENT" and not (value[0].isalpha() or value[0] == "_")):
            if value == '"':
                raise ScriptError("unterminated string", line, col)
            raise ScriptError(f"unexpected character {value[0]!r}", line, col)
        out.append(_token((kind, value, line, col)))
    out.append(_token(("END", "", line, len(text) + 1)))
    return out


class _Cursor:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "END":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ScriptError(f"expected {kind}, got {tok.kind} {tok.text!r}", tok.line, tok.col)
        return self.next()


# ---------------------------------------------------------------------------
# argument values

# An argument value is an int, a tuple of values, a name (its IDENT token), a
# map literal (a list of (degree, value) pairs) or a tree.
ArgValue = Union[int, tuple, Token, list, Tree]


def _parse_value(cur: _Cursor, env: "_Env") -> ArgValue:
    tok = cur.next()
    if tok.kind == "INT":
        return int(tok.text)
    if tok.kind == "LPAREN":
        items: list[ArgValue] = []
        if cur.peek().kind != "RPAREN":
            items.append(_parse_value(cur, env))
            while cur.peek().kind == "COMMA":
                cur.next()
                items.append(_parse_value(cur, env))
        cur.expect("RPAREN")
        return tuple(items)
    if tok.kind == "LBRACKET":
        pairs: list[tuple[int, ArgValue]] = []
        if cur.peek().kind != "RBRACKET":
            while True:
                deg = int(cur.expect("INT").text)
                cur.expect("COLON")
                pairs.append((deg, _parse_value(cur, env)))
                if cur.peek().kind != "COMMA":
                    break
                cur.next()
        cur.expect("RBRACKET")
        return pairs
    if tok.kind == "IDENT":
        return _parse_call(cur, env, tok) if cur.peek().kind == "LPAREN" else tok
    raise ScriptError(f"unexpected token {tok.text!r}", tok.line, tok.col)


# Each converter takes (value, token, name, env): the argument and its first
# token, where an error is reported (a keyword argument's name), the name its
# error message uses, and the names in scope.


def _as_int(value: ArgValue, tok: Token, what: str, env: "_Env") -> int:
    if type(value) is int:
        return value
    raise ScriptError(f"{what} must be an integer", tok.line, tok.col)


def _as_int_tuple(value: ArgValue, tok: Token, what: str, env: "_Env") -> tuple[int, ...]:
    if type(value) is int:
        return (value,)
    if type(value) is tuple and all(type(v) is int for v in value):
        return value
    raise ScriptError(f"{what} must be an integer or tuple of integers", tok.line, tok.col)


def _as_pair(value: ArgValue, tok: Token, what: str, env: "_Env") -> tuple[int, int]:
    pair = _as_int_tuple(value, tok, what, env)
    if len(pair) != 2:
        raise ScriptError(f"{what} must be a pair", tok.line, tok.col)
    return pair


def _as_rows(value: ArgValue, tok: Token, outer: str, inner: str) -> tuple[tuple[int, ...], ...]:
    """A tuple of integer tuples (a bare integer is a 1-tuple); ``outer`` and
    ``inner`` are the messages for a bad value and a bad entry."""
    if type(value) is not tuple:  # a Token is a tuple too
        raise ScriptError(outer, tok.line, tok.col)
    rows = []
    for row in value:
        if type(row) is int:
            rows.append((row,))
        elif type(row) is tuple and all(type(v) is int for v in row):
            rows.append(row)
        else:
            raise ScriptError(inner, tok.line, tok.col)
    return tuple(rows)


def _as_chars(value: ArgValue, tok: Token, what: str, env: "_Env") -> tuple[tuple[int, ...], ...]:
    outer = f"{what} must be a tuple of character tuples"
    return _as_rows(value, tok, outer, f"{what} entries must be integer tuples")


_TREE_KINDS = get_args(Tree)


def _as_tree(value: ArgValue, tok: Token, what: str, env: "_Env") -> Tree:
    """A tree, or the tree a name stands for; the message names no argument."""
    if type(value) is Token:
        return env.resolve(value)
    if isinstance(value, _TREE_KINDS):
        return value
    raise ScriptError("expected a tree expression", tok.line, tok.col)


# ---------------------------------------------------------------------------
# expressions


class _Env:
    def __init__(self, group: GroupDatum, names: dict[str, Tree], normalize: bool):
        self.group = group
        self.names = names
        self.normalize = normalize

    def resolve(self, name: Token) -> Tree:
        if name.text in self.names:
            return self.names[name.text]
        if name.text == "point":
            return Point()
        if name.text in NULLARY:
            return example_library(name.text, group=self.group)
        raise ScriptError(f"undefined name {name.text!r}", name.line, name.col)


def _library(name: str):
    """The builder of a library entry from its converted parameters."""
    return lambda env, *params: example_library(name, *params, group=env.group)


def _schubert(env: _Env, n: int, d: int, j: tuple[int, ...]) -> Tree:
    datum = FiniteSchubertDatum(n, d, j)
    return finite_schubert_tree(normalize_j(datum) if env.normalize else datum, env.group)


def _disjoint(pos: list, kw: dict, env: _Env, tok: Token) -> Tree:
    return Disjoint(tuple(_as_tree(*arg, "", env) for arg in pos))


def _blowup(pos: list, kw: dict, env: _Env, tok: Token) -> Tree:
    """The corners are checked in order, each before its tree is converted;
    an error is reported at the keyword it names."""
    if pos:
        raise ScriptError("blowup takes keyword arguments only", tok.line, tok.col)
    unknown = "X"
    if "unknown" in kw:
        val, key = kw["unknown"]
        if type(val) is not Token:
            raise ScriptError("unknown= must be a corner label", key.line, key.col)
        unknown = val.text
    split: Optional[str] = None
    if "split" in kw:
        val, key = kw["split"]
        if type(val) is not Token or val.text not in (*SPLIT_KINDS, "none"):
            raise ScriptError("split= must be retraction, section or none", key.line, key.col)
        split = None if val.text == "none" else val.text
    known = []
    for label in BLOWUP_CORNERS:
        if label == unknown:
            if label in kw:
                key = kw[label][1]
                message = f"corner {label} is the unknown and cannot be given"
                raise ScriptError(message, key.line, key.col)
            continue
        if label not in kw:
            raise ScriptError(f"blowup is missing corner {label}=", tok.line, tok.col)
        known.append((label, _as_tree(*kw[label], label, env)))
    maps: tuple[tuple[int, tuple[tuple[int, ...], ...]], ...] = ()
    if "maps" in kw:
        val, key = kw["maps"]
        if type(val) is not list:
            raise ScriptError("maps= must be a [degree: matrix, ...] literal", key.line, key.col)
        errors = "matrix must be a tuple of row tuples", "matrix rows must be integer tuples"
        maps = tuple((deg, _as_rows(m, key, *errors)) for deg, m in val)
    return Blowup(tuple(known), unknown, split, maps)


NULLARY = ("point", "cusp", "node", "cone_of_P1")
# each call head: its number of positional arguments (None: any number), the
# keywords it requires, the message when one of them is missing, the other
# keywords it accepts, its arguments in conversion order as (positional
# index or keyword, converter, name in messages), and the builder called
# with the env and the converted arguments (None for an optional keyword
# left out).  Without an argument list the builder converts its own
# arguments from (positional, keywords, env, head token).
_SIGNATURES: dict[str, tuple] = {
    "P": (1, (), "", (), ((0, _as_int, "dimension"),), _library("projective_space")),
    "Gr": (2, (), "", (), ((0, _as_int, "n"), (1, _as_int, "d")), _library("grassmannian")),
    "Flag": (1, ("d",), "Flag needs d=(...)", (),
             ((0, _as_int, "n"), ("d", _as_int_tuple, "d")), _library("flag")),
    "hirzebruch": (1, (), "", (), ((0, _as_int, "twist"),), _library("hirzebruch")),
    "cone": (2, (), "", (), ((0, _as_tree, "base"), (1, _as_int, "twist")),
             _library("projective_cone")),
    "schubert": (2, ("j",), "schubert needs j=(...)", (),
                 ((0, _as_int, "n"), (1, _as_int, "d"), ("j", _as_int_tuple, "j")), _schubert),
    "affine": (1, ("mu",), "affine needs mu=(...)", (),
               ((0, _as_int, "n"), ("mu", _as_int_tuple, "mu")),
               lambda env, n, mu: affine_schubert_tree(CoweightDatum(n, mu), env.group)),
    "disjoint": (None, (), "", (), None, _disjoint),
    "flagbundle": (1, ("rank", "d"), "flagbundle needs rank= and d=", ("chars", "twists"),
                   (("chars", _as_chars, "chars"), ("twists", _as_int_tuple, "twists"),
                    (0, _as_tree, "base"), ("rank", _as_int, "rank"), ("d", _as_int_tuple, "d")),
                   lambda env, chars, twists, base, rank, d:
                   FlagBundle(base, BundleDatum(rank, chars, twists), d)),
    "descent": (1, ("rank", "pres", "d"), "descent needs rank=, pres= and d=", ("oracle",),
                (("pres", _as_pair, "pres"), ("oracle", _as_int, "oracle"),
                 (0, _as_tree, "base"), ("rank", _as_int, "rank"), ("d", _as_int_tuple, "d")),
                lambda env, pres, oracle, base, rank, d:
                StratifiedDescent(base, SheafDatum(rank, pres), d, oracle)),
    "blowup": (None, (), "", ("unknown", "split", *BLOWUP_CORNERS, "maps"), None, _blowup),
    "henselian": (1, (), "", (), ((0, _as_int, "prime"),), lambda env, p: HenselianBase(p)),
}


def _parse_args(
    cur: _Cursor, env: _Env
) -> tuple[list[tuple[ArgValue, Token]], dict[str, tuple[ArgValue, Token]]]:
    """A call's argument list, each argument as (value, token): a keyword
    argument's token is its name, a positional argument's the first token of
    its value."""
    cur.expect("LPAREN")
    positional: list[tuple[ArgValue, Token]] = []
    keywords: dict[str, tuple[ArgValue, Token]] = {}
    if cur.peek().kind != "RPAREN":
        while True:
            tok = cur.peek()
            if tok.kind == "IDENT" and cur.tokens[cur.pos + 1].kind == "EQ":
                cur.pos += 2
                if tok.text in keywords:
                    raise ScriptError(f"duplicate keyword {tok.text!r}", tok.line, tok.col)
                keywords[tok.text] = (_parse_value(cur, env), tok)
            else:
                positional.append((_parse_value(cur, env), tok))
            if cur.peek().kind != "COMMA":
                break
            cur.next()
    cur.expect("RPAREN")
    return positional, keywords


def _parse_call(cur: _Cursor, env: _Env, tok: Token) -> Tree:
    """The call whose head ``tok`` was just read, the cursor on its ``(``."""
    pos, kw = _parse_args(cur, env)
    head = tok.text
    if head not in _SIGNATURES:
        raise ScriptError(f"unknown constructor {head!r}", tok.line, tok.col)
    count, required, missing, optional, args, build = _SIGNATURES[head]
    if count is not None and len(pos) != count:
        raise ScriptError(f"{head} takes {count} positional argument(s)", tok.line, tok.col)
    extra = set(kw).difference(required + optional)
    if extra:
        raise ScriptError(f"{head} got unexpected keyword(s) {sorted(extra)}", tok.line, tok.col)
    if not set(required).issubset(kw):
        raise ScriptError(missing, tok.line, tok.col)
    if args is None:
        return build(pos, kw, env, tok)
    values = []
    for key, convert, what in args:
        arg = pos[key] if type(key) is int else kw.get(key)
        values.append(None if arg is None else convert(*arg, what, env))
    try:
        return build(env, *values)
    except ValueError as exc:  # a value the tree's data class refuses
        raise ScriptError(str(exc), tok.line, tok.col) from None


def _parse_expr(cur: _Cursor, env: _Env) -> Tree:
    """A ``let`` right-hand side: a call, or the tree a name stands for."""
    tok = cur.expect("IDENT")
    return _parse_call(cur, env, tok) if cur.peek().kind == "LPAREN" else env.resolve(tok)


# ---------------------------------------------------------------------------
# statements and scripts


@dataclass(frozen=True)
class TableDecl:
    name: str
    path: str


@dataclass(frozen=True)
class LetDecl:
    name: str
    tree: Tree


@dataclass(frozen=True)
class ComputeCmd:
    target: str
    table: str
    lo: int
    hi: int


@dataclass(frozen=True)
class ClassifyCmd:
    target: str


@dataclass(frozen=True)
class VerdictCmd:
    target: str
    preset: str


@dataclass(frozen=True)
class ReportCmd:
    target: str
    kh: str
    hcminus: str
    lo: int
    hi: int


Statement = Union[TableDecl, LetDecl, ComputeCmd, ClassifyCmd, VerdictCmd, ReportCmd]

# each command word: its statement, and the keys that follow the target as
# ``key=value``, in order; ``degrees=lo..hi`` fills the fields lo and hi, any
# other key the field of its name with one identifier
_COMMANDS: dict[str, tuple[type, tuple[str, ...]]] = {
    "compute": (ComputeCmd, ("table", "degrees")),
    "classify": (ClassifyCmd, ()),
    "verdict": (VerdictCmd, ("preset",)),
    "report": (ReportCmd, ("kh", "hcminus", "degrees")),
}
_COMMAND_WORDS = {cls: word for word, (cls, _) in _COMMANDS.items()}


@dataclass(frozen=True)
class Script:
    group: GroupDatum
    statements: tuple[Statement, ...]

    @property
    def tables(self) -> dict[str, str]:
        return {s.name: s.path for s in self.statements if isinstance(s, TableDecl)}

    @property
    def trees(self) -> dict[str, Tree]:
        return {s.name: s.tree for s in self.statements if isinstance(s, LetDecl)}

    @property
    def commands(self) -> tuple[Statement, ...]:
        return tuple(s for s in self.statements if type(s) in _COMMAND_WORDS)


def _parse_command(cur: _Cursor, head: Token, names: dict[str, Tree]) -> Statement:
    """The rest of a command line: the target, then the command's keys."""
    cls, keys = _COMMANDS[head.text]
    target = cur.expect("IDENT")
    if target.text not in names:
        raise ScriptError(f"undefined name {target.text!r}", target.line, target.col)
    values: list = [target.text]
    for key in keys:
        tok = cur.expect("IDENT")
        if tok.text != key:
            raise ScriptError(f"expected {key}=", tok.line, tok.col)
        cur.expect("EQ")
        if key != "degrees":
            values.append(cur.expect("IDENT").text)
            continue
        lo_tok = cur.expect("INT")
        lo = int(lo_tok.text)
        cur.expect("DOTDOT")
        hi = int(cur.expect("INT").text)
        if lo > hi:
            raise ScriptError("empty degree range", lo_tok.line, lo_tok.col)
        values += (lo, hi)
    cur.expect("END")
    return cls(*values)


_RESERVED = {*NULLARY, *_SIGNATURES, *_COMMANDS, *SPLIT_KINDS, "none"} | {
    "group", "table", "let", "torus", "trivial", "mu"
}


def parse(text: str, normalize_j_sequences: bool = False) -> Script:
    """Parse a construction script; deterministic, with positioned errors."""
    group: Optional[GroupDatum] = None
    statements: list[Statement] = []
    names: dict[str, Tree] = {}
    table_names: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, lineno)
        cur = _Cursor(tokens)
        if cur.peek().kind == "END":
            continue
        head = cur.expect("IDENT")

        if head.text == "group":
            if group is not None:
                raise ScriptError("duplicate group declaration", head.line, head.col)
            kind = cur.expect("IDENT")
            if kind.text == "trivial":
                group = GroupDatum(0)
            elif kind.text == "torus":
                rank = int(cur.expect("INT").text)
                orders: list[int] = []
                mu = cur.peek()
                if mu.kind == "IDENT" and mu.text == "mu":
                    cur.next()
                    while cur.peek().kind == "INT":
                        orders.append(int(cur.next().text))
                    if not orders:
                        raise ScriptError("mu needs at least one order", mu.line, mu.col)
                try:
                    group = GroupDatum(rank, tuple(orders))
                except ValueError as exc:
                    raise ScriptError(str(exc), head.line, head.col) from None
            else:
                raise ScriptError(
                    "group declaration is 'group trivial' or 'group torus <n> [mu ...]'",
                    kind.line,
                    kind.col,
                )
            cur.expect("END")
            continue

        if group is None:
            raise ScriptError(
                "the group must be declared before any other statement", head.line, head.col
            )
        env = _Env(group, names, normalize_j_sequences)

        if head.text == "table":
            name = cur.expect("IDENT").text
            cur.expect("EQ")
            path = cur.expect("STRING").text
            cur.expect("END")
            if name in table_names:
                raise ScriptError(f"duplicate table name {name!r}", head.line, head.col)
            table_names.add(name)
            statements.append(TableDecl(name, path))
        elif head.text == "let":
            name_tok = cur.expect("IDENT")
            name = name_tok.text
            if name in _RESERVED:
                raise ScriptError(f"{name!r} is reserved", name_tok.line, name_tok.col)
            if name in names:
                raise ScriptError(f"duplicate name {name!r}", name_tok.line, name_tok.col)
            cur.expect("EQ")
            tree = _parse_expr(cur, env)
            cur.expect("END")
            names[name] = tree
            statements.append(LetDecl(name, tree))
        elif head.text in _COMMANDS:
            statements.append(_parse_command(cur, head, names))
        else:
            raise ScriptError(f"unknown statement {head.text!r}", head.line, head.col)

    if group is None:
        raise ScriptError("script declares no group", 1, 1)
    return Script(group, tuple(statements))


# ---------------------------------------------------------------------------
# canonical printing


def _call(head: str, args: list) -> list:
    """``head(arg, arg, ...)`` as a printed form."""
    separated = [item for arg in args for item in (", ", arg)]
    return [f"{head}(", *separated[1:], ")"]


def _printed(node: Tree, kids: list):
    """The node's printed form from its children's: a string, or a list of
    strings and children's forms, flattened by ``_joined``.  A child's form
    is referenced, not copied, so a deep tower prints in linear time."""
    if isinstance(node, Point):
        return "point"
    if isinstance(node, HenselianBase):
        return f"henselian({node.p})"
    if isinstance(node, Disjoint):
        return _call("disjoint", kids)
    if isinstance(node, FlagBundle):
        bundle = node.bundle
        args = [kids[0], f"rank={bundle.rank}", f"d={_fmt_tuple(node.d_vec)}"]
        if bundle.split_characters is not None:
            args.append(f"chars={_fmt_tuple(map(_fmt_tuple, bundle.split_characters))}")
        if bundle.twist_labels is not None:
            args.append(f"twists={_fmt_tuple(bundle.twist_labels)}")
        return _call("flagbundle", args)
    if isinstance(node, StratifiedDescent):
        args = [kids[0], f"rank={node.sheaf.generic_rank}"]
        args += [f"pres={_fmt_tuple(node.sheaf.presentation_ranks)}", f"d={_fmt_tuple(node.d_vec)}"]
        if node.oracle_rank is not None:
            args.append(f"oracle={node.oracle_rank}")
        return _call("descent", args)
    # a blowup: the one kind left
    split = node.split if node.split is not None else "none"
    args = [f"unknown={node.unknown_corner}", f"split={split}"]
    args += ([f"{label}=", kid] for (label, _), kid in zip(node.known, kids))
    if node.comparison_maps:
        pairs = (f"{deg}: {_fmt_tuple(map(_fmt_tuple, m))}" for deg, m in node.comparison_maps)
        args.append(f"maps=[{', '.join(pairs)}]")
    return _call("blowup", args)


def _joined(form) -> str:
    """The text of a printed form, flattened with an explicit stack."""
    out: list[str] = []
    stack = [form]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
        else:
            stack.extend(reversed(item))
    return "".join(out)


def print_tree(tree: Tree) -> str:
    """Canonical explicit-form expression; parse(print_tree(t)) == t.  One
    ``fold`` formats each distinct node once."""
    return _joined(fold(tree, _printed))


def _fmt_tuple(values) -> str:
    return f"({', '.join(str(v) for v in values)})"


def print_script(script: Script) -> str:
    """Canonical script text; parse(print_script(s)) == s.  The trees of all
    ``let`` lines are formatted in one fold, each distinct node once."""
    g = script.group
    mu = f" mu {' '.join(map(str, g.finite_orders))}" if g.finite_orders else ""
    lines = ["group trivial" if g.is_trivial else f"group torus {g.free_rank}{mu}"]
    lets = Disjoint(tuple(s.tree for s in script.statements if isinstance(s, LetDecl)))
    forms = iter(fold(lets, lambda node, kids: kids if node is lets else _printed(node, kids)))
    for stmt in script.statements:
        if isinstance(stmt, TableDecl):
            lines.append(f'table {stmt.name} = "{stmt.path}"')
        elif isinstance(stmt, LetDecl):
            lines.append(f"let {stmt.name} = {_joined(next(forms))}")
        else:
            word = _COMMAND_WORDS[type(stmt)]
            pairs = (
                f"{key}={stmt.lo}..{stmt.hi}" if key == "degrees" else f"{key}={getattr(stmt, key)}"
                for key in _COMMANDS[word][1]
            )
            lines.append(" ".join((word, stmt.target, *pairs)))
    return "\n".join(lines) + "\n"
