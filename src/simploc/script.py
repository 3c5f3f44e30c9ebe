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

Tree expressions are library sugar (point, P(n), Gr(n, d), Flag(n, d=(...)),
hirzebruch(m), cusp, node, cone_of_P1, cone(expr, twist), schubert(...),
affine(...)) or explicit node forms (disjoint, flagbundle, descent, blowup,
henselian).  Parentheses always build tuples, so nesting is unambiguous;
``maps=[deg: ((..),(..)), ...]`` attaches comparison matrices per degree.
The printer emits explicit forms only, and parse(print(tree)) round-trips.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Optional, Union

from .dsl import (
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
    kind: str  # IDENT INT STRING LPAREN RPAREN LBRACKET RBRACKET EQ COMMA COLON DOTDOT END
    text: str
    line: int
    col: int


# builds a Token from one (kind, text, line, col) tuple without the Python
# frame of the generated __new__
_token = partial(tuple.__new__, Token)

# One token after optional blanks; the end of the line and a comment match
# no named group.  IDENT also matches a first character that is a digit or
# numeric but not a decimal digit (``²``, ``½``), rejected below.
_TOKEN = re.compile(
    r'[ \t]*(?:\Z|#|(?P<STRING>"[^"]*")|(?P<INT>-?\d+)|(?P<IDENT>[^\W\d]\w*)'
    r"|(?P<PUNCT>\.\.|[()\[\]=,:])|(?P<OTHER>.))",
    re.DOTALL,
)
_PUNCT = {
    "..": "DOTDOT",
    "(": "LPAREN",
    ")": "RPAREN",
    "[": "LBRACKET",
    "]": "RBRACKET",
    "=": "EQ",
    ",": "COMMA",
    ":": "COLON",
}


def _tokenize_line(text: str, line: int) -> list[Token]:
    out: list[Token] = []
    # every position starts a match, so the matches tile the line
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind is None:
            break
        value = match.group(kind)
        col = match.start(kind) + 1
        if kind == "STRING":
            value = value[1:-1]
        elif kind == "PUNCT":
            kind = _PUNCT[value]
        elif kind == "OTHER" or (kind == "IDENT" and not (value[0].isalpha() or value[0] == "_")):
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

    def at_end(self) -> bool:
        return self.peek().kind == "END"


# ---------------------------------------------------------------------------
# argument values


@dataclass(frozen=True)
class Word:
    name: str
    line: int
    col: int


@dataclass(frozen=True)
class MapLit:
    pairs: tuple[tuple[int, object], ...]


ArgValue = Union[int, tuple, Word, MapLit, Tree]


def _parse_value(cur: _Cursor, env: "_Env") -> ArgValue:
    tok = cur.peek()
    if tok.kind == "INT":
        cur.next()
        return int(tok.text)
    if tok.kind == "LPAREN":
        cur.next()
        items: list[ArgValue] = []
        if cur.peek().kind != "RPAREN":
            items.append(_parse_value(cur, env))
            while cur.peek().kind == "COMMA":
                cur.next()
                items.append(_parse_value(cur, env))
        cur.expect("RPAREN")
        return tuple(items)
    if tok.kind == "LBRACKET":
        cur.next()
        pairs: list[tuple[int, object]] = []
        if cur.peek().kind != "RBRACKET":
            while True:
                deg = int(cur.expect("INT").text)
                cur.expect("COLON")
                pairs.append((deg, _parse_value(cur, env)))
                if cur.peek().kind != "COMMA":
                    break
                cur.next()
        cur.expect("RBRACKET")
        return MapLit(tuple(pairs))
    if tok.kind == "IDENT":
        if cur.tokens[cur.pos + 1].kind == "LPAREN":
            return _parse_expr(cur, env)
        cur.next()
        return Word(tok.text, tok.line, tok.col)
    raise ScriptError(f"unexpected token {tok.text!r}", tok.line, tok.col)


def _as_int(value: ArgValue, what: str, tok: Token) -> int:
    if isinstance(value, int):
        return value
    raise ScriptError(f"{what} must be an integer", tok.line, tok.col)


def _as_int_tuple(value: ArgValue, what: str, tok: Token) -> tuple[int, ...]:
    if isinstance(value, int):
        return (value,)
    if isinstance(value, tuple) and all(isinstance(v, int) for v in value):
        return value
    raise ScriptError(f"{what} must be an integer or tuple of integers", tok.line, tok.col)


def _as_rows(value: ArgValue, tok: Token, outer: str, inner: str) -> tuple[tuple[int, ...], ...]:
    """A tuple of integer tuples (a bare integer is a 1-tuple); ``outer`` and
    ``inner`` are the messages for a bad value and a bad entry."""
    if not isinstance(value, tuple):
        raise ScriptError(outer, tok.line, tok.col)
    rows = []
    for row in value:
        if isinstance(row, int):
            rows.append((row,))
        elif isinstance(row, tuple) and all(isinstance(v, int) for v in row):
            rows.append(row)
        else:
            raise ScriptError(inner, tok.line, tok.col)
    return tuple(rows)


def _as_tree(value: ArgValue, env: "_Env", tok: Token) -> Tree:
    if isinstance(value, Word):
        return env.resolve(value)
    if isinstance(
        value, (Point, HenselianBase, Disjoint, FlagBundle, StratifiedDescent, Blowup)
    ):
        return value
    raise ScriptError("expected a tree expression", tok.line, tok.col)


# ---------------------------------------------------------------------------
# expressions


NULLARY = ("point", "cusp", "node", "cone_of_P1")
# each call head's number of positional arguments (None: any number) and
# the keywords it accepts
_SIGNATURES: dict[str, tuple[Optional[int], tuple[str, ...]]] = {
    "P": (1, ()),
    "Gr": (2, ()),
    "Flag": (1, ("d",)),
    "hirzebruch": (1, ()),
    "cone": (2, ()),
    "schubert": (2, ("j",)),
    "affine": (1, ("mu",)),
    "disjoint": (None, ()),
    "flagbundle": (1, ("rank", "d", "chars", "twists")),
    "descent": (1, ("rank", "pres", "d", "oracle")),
    "blowup": (None, ("unknown", "split", "X", "Y", "Z", "E", "maps")),
    "henselian": (1, ()),
}
CALL_HEADS = tuple(_SIGNATURES)


class _Env:
    def __init__(self, group: GroupDatum, names: dict[str, Tree], normalize: bool):
        self.group = group
        self.names = names
        self.normalize = normalize

    def resolve(self, word: Word) -> Tree:
        if word.name in self.names:
            return self.names[word.name]
        if word.name == "point":
            return Point()
        if word.name in NULLARY:
            return example_library(word.name, group=self.group)
        raise ScriptError(f"undefined name {word.name!r}", word.line, word.col)


def _parse_args(
    cur: _Cursor, env: _Env
) -> tuple[list[tuple[ArgValue, Token]], dict[str, ArgValue]]:
    cur.expect("LPAREN")
    positional: list[tuple[ArgValue, Token]] = []
    keywords: dict[str, ArgValue] = {}
    if cur.peek().kind != "RPAREN":
        while True:
            tok = cur.peek()
            if tok.kind == "IDENT" and cur.tokens[cur.pos + 1].kind == "EQ":
                cur.next()
                cur.next()
                if tok.text in keywords:
                    raise ScriptError(f"duplicate keyword {tok.text!r}", tok.line, tok.col)
                keywords[tok.text] = _parse_value(cur, env)
            else:
                positional.append((_parse_value(cur, env), tok))
            if cur.peek().kind != "COMMA":
                break
            cur.next()
    cur.expect("RPAREN")
    return positional, keywords


def _parse_expr(cur: _Cursor, env: _Env) -> Tree:
    tok = cur.expect("IDENT")
    head = tok.text
    if cur.peek().kind != "LPAREN":
        return env.resolve(Word(head, tok.line, tok.col))
    pos, kw = _parse_args(cur, env)
    if head not in _SIGNATURES:
        raise ScriptError(f"unknown constructor {head!r}", tok.line, tok.col)
    count, allowed = _SIGNATURES[head]
    if count is not None and len(pos) != count:
        raise ScriptError(f"{head} takes {count} positional argument(s)", tok.line, tok.col)
    extra = set(kw).difference(allowed)
    if extra:
        raise ScriptError(f"{head} got unexpected keyword(s) {sorted(extra)}", tok.line, tok.col)

    if head == "P":
        return example_library(
            "projective_space", _as_int(pos[0][0], "dimension", tok), group=env.group
        )
    if head == "Gr":
        return example_library(
            "grassmannian",
            _as_int(pos[0][0], "n", tok),
            _as_int(pos[1][0], "d", tok),
            group=env.group,
        )
    if head == "Flag":
        if "d" not in kw:
            raise ScriptError("Flag needs d=(...)", tok.line, tok.col)
        return example_library(
            "flag",
            _as_int(pos[0][0], "n", tok),
            _as_int_tuple(kw["d"], "d", tok),
            group=env.group,
        )
    if head == "hirzebruch":
        return example_library("hirzebruch", _as_int(pos[0][0], "twist", tok), group=env.group)
    if head == "cone":
        base = _as_tree(pos[0][0], env, tok)
        return example_library(
            "projective_cone", base, _as_int(pos[1][0], "twist", tok), group=env.group
        )
    if head == "schubert":
        if "j" not in kw:
            raise ScriptError("schubert needs j=(...)", tok.line, tok.col)
        datum = FiniteSchubertDatum(
            _as_int(pos[0][0], "n", tok),
            _as_int(pos[1][0], "d", tok),
            _as_int_tuple(kw["j"], "j", tok),
        )
        if env.normalize:
            datum = normalize_j(datum)
        return finite_schubert_tree(datum, env.group)
    if head == "affine":
        if "mu" not in kw:
            raise ScriptError("affine needs mu=(...)", tok.line, tok.col)
        datum = CoweightDatum(
            _as_int(pos[0][0], "n", tok), _as_int_tuple(kw["mu"], "mu", tok)
        )
        return affine_schubert_tree(datum, env.group)
    if head == "disjoint":
        return Disjoint(tuple(_as_tree(v, env, t) for v, t in pos))
    if head == "flagbundle":
        if "rank" not in kw or "d" not in kw:
            raise ScriptError("flagbundle needs rank= and d=", tok.line, tok.col)
        chars = None
        if "chars" in kw:
            chars = _as_rows(
                kw["chars"],
                tok,
                "chars must be a tuple of character tuples",
                "chars entries must be integer tuples",
            )
        twists = _as_int_tuple(kw["twists"], "twists", tok) if "twists" in kw else None
        return FlagBundle(
            _as_tree(pos[0][0], env, tok),
            BundleDatum(_as_int(kw["rank"], "rank", tok), chars, twists),
            _as_int_tuple(kw["d"], "d", tok),
        )
    if head == "descent":
        if "rank" not in kw or "pres" not in kw or "d" not in kw:
            raise ScriptError("descent needs rank=, pres= and d=", tok.line, tok.col)
        pres = _as_int_tuple(kw["pres"], "pres", tok)
        if len(pres) != 2:
            raise ScriptError("pres must be a pair", tok.line, tok.col)
        oracle = _as_int(kw["oracle"], "oracle", tok) if "oracle" in kw else None
        return StratifiedDescent(
            _as_tree(pos[0][0], env, tok),
            SheafDatum(_as_int(kw["rank"], "rank", tok), (pres[0], pres[1])),
            _as_int_tuple(kw["d"], "d", tok),
            oracle,
        )
    if head == "blowup":
        if pos:
            raise ScriptError("blowup takes keyword arguments only", tok.line, tok.col)
        unknown = "X"
        if "unknown" in kw:
            val = kw["unknown"]
            if not isinstance(val, Word):
                raise ScriptError("unknown= must be a corner label", tok.line, tok.col)
            unknown = val.name
        split: Optional[str] = None
        if "split" in kw:
            val = kw["split"]
            if not isinstance(val, Word) or val.name not in ("retraction", "section", "none"):
                raise ScriptError(
                    "split= must be retraction, section or none", tok.line, tok.col
                )
            split = None if val.name == "none" else val.name
        known = []
        for label in ("X", "Y", "Z", "E"):
            if label == unknown:
                if label in kw:
                    raise ScriptError(
                        f"corner {label} is the unknown and cannot be given", tok.line, tok.col
                    )
                continue
            if label not in kw:
                raise ScriptError(f"blowup is missing corner {label}=", tok.line, tok.col)
            known.append((label, _as_tree(kw[label], env, tok)))
        maps: tuple[tuple[int, tuple[tuple[int, ...], ...]], ...] = ()
        if "maps" in kw:
            val = kw["maps"]
            if not isinstance(val, MapLit):
                raise ScriptError("maps= must be a [degree: matrix, ...] literal", tok.line, tok.col)
            errors = "matrix must be a tuple of row tuples", "matrix rows must be integer tuples"
            maps = tuple((deg, _as_rows(m, tok, *errors)) for deg, m in val.pairs)
        return Blowup(tuple(known), unknown, split, maps)
    # henselian: the one head left
    return HenselianBase(_as_int(pos[0][0], "prime", tok))


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
        return tuple(
            s
            for s in self.statements
            if isinstance(s, (ComputeCmd, ClassifyCmd, VerdictCmd, ReportCmd))
        )


def _parse_key_eq(cur: _Cursor, key: str) -> None:
    tok = cur.expect("IDENT")
    if tok.text != key:
        raise ScriptError(f"expected {key}=", tok.line, tok.col)
    cur.expect("EQ")


def _parse_target(cur: _Cursor, names: dict[str, Tree], head: Token) -> str:
    target = cur.expect("IDENT").text
    if target not in names:
        raise ScriptError(f"undefined name {target!r}", head.line, head.col)
    return target


def _parse_degree_range(cur: _Cursor) -> tuple[int, int]:
    lo = int(cur.expect("INT").text)
    cur.expect("DOTDOT")
    hi = int(cur.expect("INT").text)
    if lo > hi:
        tok = cur.peek()
        raise ScriptError("empty degree range", tok.line, tok.col)
    return lo, hi


_RESERVED = set(NULLARY) | set(CALL_HEADS) | {
    "group",
    "table",
    "let",
    "compute",
    "classify",
    "verdict",
    "report",
    "torus",
    "trivial",
    "mu",
    "retraction",
    "section",
    "none",
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
        if cur.at_end():
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
                if cur.peek().kind == "IDENT" and cur.peek().text == "mu":
                    cur.next()
                    while cur.peek().kind == "INT":
                        orders.append(int(cur.next().text))
                    if not orders:
                        raise ScriptError("mu needs at least one order", head.line, head.col)
                group = GroupDatum(rank, tuple(orders))
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
        elif head.text == "compute":
            target = _parse_target(cur, names, head)
            _parse_key_eq(cur, "table")
            table = cur.expect("IDENT").text
            _parse_key_eq(cur, "degrees")
            lo, hi = _parse_degree_range(cur)
            cur.expect("END")
            statements.append(ComputeCmd(target, table, lo, hi))
        elif head.text == "classify":
            target = _parse_target(cur, names, head)
            cur.expect("END")
            statements.append(ClassifyCmd(target))
        elif head.text == "verdict":
            target = _parse_target(cur, names, head)
            _parse_key_eq(cur, "preset")
            preset = cur.expect("IDENT").text
            cur.expect("END")
            statements.append(VerdictCmd(target, preset))
        elif head.text == "report":
            target = _parse_target(cur, names, head)
            _parse_key_eq(cur, "kh")
            kh = cur.expect("IDENT").text
            _parse_key_eq(cur, "hcminus")
            hcm = cur.expect("IDENT").text
            _parse_key_eq(cur, "degrees")
            lo, hi = _parse_degree_range(cur)
            cur.expect("END")
            statements.append(ReportCmd(target, kh, hcm, lo, hi))
        else:
            raise ScriptError(f"unknown statement {head.text!r}", head.line, head.col)

    if group is None:
        raise ScriptError("script declares no group", 1, 1)
    return Script(group, tuple(statements))


# ---------------------------------------------------------------------------
# canonical printing


def print_tree(tree: Tree) -> str:
    """Canonical explicit-form expression; parse(print_tree(t)) == t."""
    if isinstance(tree, Point):
        return "point"
    if isinstance(tree, HenselianBase):
        return f"henselian({tree.p})"
    if isinstance(tree, Disjoint):
        return f"disjoint({', '.join(print_tree(c) for c in tree.children)})"
    if isinstance(tree, FlagBundle):
        parts = [print_tree(tree.base), f"rank={tree.bundle.rank}", f"d={_fmt_tuple(tree.d_vec)}"]
        if tree.bundle.split_characters is not None:
            chars = ", ".join(_fmt_tuple(c) for c in tree.bundle.split_characters)
            parts.append(f"chars=({chars})")
        if tree.bundle.twist_labels is not None:
            parts.append(f"twists={_fmt_tuple(tree.bundle.twist_labels)}")
        return f"flagbundle({', '.join(parts)})"
    if isinstance(tree, StratifiedDescent):
        parts = [
            print_tree(tree.total_space),
            f"rank={tree.sheaf.generic_rank}",
            f"pres={_fmt_tuple(tree.sheaf.presentation_ranks)}",
            f"d={_fmt_tuple(tree.d_vec)}",
        ]
        if tree.oracle_rank is not None:
            parts.append(f"oracle={tree.oracle_rank}")
        return f"descent({', '.join(parts)})"
    if isinstance(tree, Blowup):
        parts = [f"unknown={tree.unknown_corner}"]
        parts.append(f"split={tree.split if tree.split is not None else 'none'}")
        for label, corner in tree.known:
            parts.append(f"{label}={print_tree(corner)}")
        if tree.comparison_maps:
            pairs = ", ".join(
                f"{deg}: ({', '.join(_fmt_tuple(row) for row in matrix)})"
                for deg, matrix in tree.comparison_maps
            )
            parts.append(f"maps=[{pairs}]")
        return f"blowup({', '.join(parts)})"
    raise TypeError(f"not a construction tree: {tree!r}")


def _fmt_tuple(values) -> str:
    return f"({', '.join(str(v) for v in values)})"


def print_script(script: Script) -> str:
    """Canonical script text; parse(print_script(s)) == s."""
    g = script.group
    if g.is_trivial:
        lines = ["group trivial"]
    else:
        line = f"group torus {g.free_rank}"
        if g.finite_orders:
            line += " mu " + " ".join(str(o) for o in g.finite_orders)
        lines = [line]
    for stmt in script.statements:
        if isinstance(stmt, TableDecl):
            lines.append(f'table {stmt.name} = "{stmt.path}"')
        elif isinstance(stmt, LetDecl):
            lines.append(f"let {stmt.name} = {print_tree(stmt.tree)}")
        elif isinstance(stmt, ComputeCmd):
            lines.append(
                f"compute {stmt.target} table={stmt.table} degrees={stmt.lo}..{stmt.hi}"
            )
        elif isinstance(stmt, ClassifyCmd):
            lines.append(f"classify {stmt.target}")
        elif isinstance(stmt, VerdictCmd):
            lines.append(f"verdict {stmt.target} preset={stmt.preset}")
        elif isinstance(stmt, ReportCmd):
            lines.append(
                f"report {stmt.target} kh={stmt.kh} hcminus={stmt.hcminus} "
                f"degrees={stmt.lo}..{stmt.hi}"
            )
    return "\n".join(lines) + "\n"
