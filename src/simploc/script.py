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

Each line is read once, by one pattern, as the list of its token texts; the
parser refers to a token by its index on its line and finds the token's
column only to report an error.  Each command is one entry of
``_COMMANDS`` and each call head one entry of ``_SIGNATURES``: its
positional count and keywords, its arguments with their converters in
conversion order, and the builder of its tree.  One loop converts the
arguments of every call but ``disjoint`` and ``blowup``, which convert
their own.  Tree expressions are library sugar (point, P(n),
Gr(n, d), Flag(n, d=(...)), hirzebruch(m), cusp, node, cone_of_P1,
cone(expr, twist), schubert(...), affine(...)) or explicit node forms
(disjoint, flagbundle, descent, blowup, henselian).  Parentheses always
build tuples, so nesting is unambiguous; ``maps=[deg: ((..),(..)), ...]``
attaches comparison matrices per degree.  A call is looked up by its head
and converted arguments, trees by id, in that parse's table
(``_Cursor.calls``) before its builder runs, so the calls a script writes
twice with equal arguments, library calls included, are one tree.  The
printer, one ``dsl.fold``, emits explicit forms only, and
parse(print(tree)) round-trips.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
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


class LiteralError(ScriptError, ValueError):
    """An integer literal with more digits than ``int`` reads from a string
    (4,300 by default): the ValueError of its conversion, at its token."""


# ---------------------------------------------------------------------------
# tokens


class Token(NamedTuple):
    kind: str  # a kind that _kind gives, or END
    text: str
    line: int
    col: int


# Optional blanks, then one token's text (group 1): a string with its quotes,
# an integer, a name, ``..``, a comment running to the end of the line, or
# one other character.  A name's pattern also starts at a character that is
# numeric but not a decimal digit (``²``, ``½``), which _kind rejects.
# Trailing blanks match nothing, so the texts tile the line up to them.
_TEXT = re.compile(r'[ \t]*("[^"]*"|-?\d+|[^\W\d]\w*|\.\.|#.*|[^ \t])', re.DOTALL)

# the kind of each token of fixed text; the empty text is the END that
# closes each line's list of texts
_FIXED = {
    "(": "LPAREN", ")": "RPAREN", "[": "LBRACKET", "]": "RBRACKET", "=": "EQ",
    ",": "COMMA", ":": "COLON", "..": "DOTDOT", "": "END",
}


def _kind(text: str) -> str:
    """The kind of a text that ``_TEXT`` matched, or END: a ``_FIXED`` kind,
    STRING, INT, IDENT, COMMENT, or OTHER for a malformed token."""
    kind = _FIXED.get(text)
    if kind is not None:
        return kind
    first = text[0]
    if first == '"' and len(text) > 1:
        return "STRING"
    if first.isdecimal() or (first == "-" and len(text) > 1):
        return "INT"
    if first.isalpha() or first == "_":
        return "IDENT"
    return "COMMENT" if first == "#" else "OTHER"


def _tokenize_line(text: str, line: int) -> list[Token]:
    """The tokens of a line, END last; raises at its first malformed token.
    A string's text is given without its quotes, its column is its quote's."""
    out: list[Token] = []
    for match in _TEXT.finditer(text):
        value = match.group(1)
        kind = _kind(value)
        col = match.start(1) + 1
        if kind == "COMMENT":
            break
        if kind == "OTHER":
            if value == '"':
                raise ScriptError("unterminated string", line, col)
            raise ScriptError(f"unexpected character {value[0]!r}", line, col)
        out.append(Token(kind, value[1:-1] if kind == "STRING" else value, line, col))
    out.append(Token("END", "", line, len(text) + 1))
    return out


class _Cursor:
    """A script's parse state.  What the script has declared so far: its
    group (None before the ``group`` line), its ``let`` names and its table
    names; whether Schubert j-sequences are normalized; and the line being
    read, as its token texts, END ("") last, and the index of the next.  A
    token is referred to by its index; its column is found only for an
    error, by scanning the line again, which reports a malformed token on
    the line before any other error.

    The cursor also holds the parse's one intern table, ``calls``: the tree
    of each call by its head and converted arguments, each tree argument by
    its id, and the tree of each ``NULLARY`` name by ``(name,)``.  A call is
    looked up before its builder runs, so each call the script writes twice
    with equal arguments is built once and is one object, library calls
    included.  The nodes a library builder makes below its root are not in
    the table.  The table lives as long as the cursor, so no node is shared
    between two parses."""

    def __init__(self, normalize: bool):
        self.group: Optional[GroupDatum] = None
        self.names: dict[str, Tree] = {}
        self.tables: set[str] = set()
        self.normalize = normalize
        self.calls: dict[tuple, Tree] = {}

    def start(self, raw: str, line: int) -> None:
        """Aim the cursor at the first token of ``raw``, the script's line ``line``."""
        texts = _TEXT.findall(raw)
        if texts and texts[-1][0] == "#":
            texts[-1] = ""
        else:
            texts.append("")
        self.texts = texts
        self.pos = 0
        self.raw = raw
        self.line = line

    def peek(self) -> str:
        return self.texts[self.pos]

    def expect(self, text: str) -> None:
        """Step over the next token, which must be ``text`` (punctuation or END)."""
        if self.texts[self.pos] != text:
            self.fail(_kind(text))
        self.pos += 1

    def take(self, kind: str) -> str:
        """The next token's text, which must be of ``kind`` (IDENT, INT or STRING)."""
        text = self.texts[self.pos]
        if _kind(text) != kind:
            self.fail(kind)
        self.pos += 1
        return text

    def token(self, index: int) -> Token:
        return _tokenize_line(self.raw, self.line)[index]

    def error(self, message: str, index: int) -> ScriptError:
        tok = self.token(index)
        return ScriptError(message, tok.line, tok.col)

    def fail(self, kind: str) -> None:
        tok = self.token(self.pos)
        raise ScriptError(f"expected {kind}, got {tok.kind} {tok.text!r}", tok.line, tok.col)

    def resolve(self, name: str, index: int) -> Tree:
        """The tree a name stands for; the name's token is at ``index``."""
        if name in self.names:
            return self.names[name]
        if name not in NULLARY:
            raise self.error(f"undefined name {name!r}", index)
        tree = self.calls.get((name,))
        if tree is None:
            tree = Point() if name == "point" else example_library(name, group=self.group)
            self.calls[(name,)] = tree
        return tree


# ---------------------------------------------------------------------------
# argument values

# An argument value is an int, a tuple of values, a name (its text), a map
# literal (a list of (degree, value) pairs) or a tree.
ArgValue = Union[int, tuple, str, list, Tree]


def _items(cur: _Cursor, close: str):
    """Step over a comma-separated list up to and over the token ``close``,
    yielding with the cursor at each entry, which the caller reads."""
    if cur.texts[cur.pos] != close:
        yield
        while cur.texts[cur.pos] == ",":
            cur.pos += 1
            yield
    cur.expect(close)


def _parse_pair(cur: _Cursor) -> tuple[int, ArgValue]:
    """One ``degree: value`` entry of a map literal."""
    deg = int(cur.take("INT"))
    cur.expect(":")
    return deg, _parse_value(cur)


def _parse_value(cur: _Cursor) -> ArgValue:
    """One argument value.  A token is an INT or an IDENT by its first
    character (see ``_TEXT``): an integer's is a digit, or ``-`` with more
    after it; a name's is a letter or ``_``."""
    texts, index = cur.texts, cur.pos
    text = texts[index]
    cur.pos = index + 1
    if text == "(":
        # a tuple of integers in one step; anything else entry by entry,
        # from its first entry
        values = []
        i = index + 1
        while texts[i][:1].isdecimal() or texts[i][:1] == "-" and texts[i] != "-":
            values.append(int(texts[i]))
            i += 2
            if texts[i - 1] == ")":
                cur.pos = i
                return tuple(values)
            if texts[i - 1] != ",":
                break
        return tuple(_parse_value(cur) for _ in _items(cur, ")"))
    if text == "[":
        return [_parse_pair(cur) for _ in _items(cur, "]")]
    first = text[:1]
    if first.isdecimal() or first == "-" and text != "-":
        return int(text)
    if first.isalpha() or first == "_":
        return _parse_call(cur, index) if texts[index + 1] == "(" else text
    tok = cur.token(index)
    raise ScriptError(f"unexpected token {tok.text!r}", tok.line, tok.col)


_INT = frozenset((int,))  # the type of every entry of an integer tuple

# Each converter takes (value, index, name, cursor): the argument and the
# index of its first token, where an error is reported (a keyword argument's
# name), the name its error message uses, and the line's cursor.


def _as_int(value: ArgValue, index: int, what: str, cur: _Cursor) -> int:
    if type(value) is int:
        return value
    raise cur.error(f"{what} must be an integer", index)


def _as_int_tuple(value: ArgValue, index: int, what: str, cur: _Cursor) -> tuple[int, ...]:
    if type(value) is int:
        return (value,)
    if type(value) is tuple and _INT.issuperset(map(type, value)):
        return value
    raise cur.error(f"{what} must be an integer or tuple of integers", index)


def _as_pair(value: ArgValue, index: int, what: str, cur: _Cursor) -> tuple[int, int]:
    pair = _as_int_tuple(value, index, what, cur)
    if len(pair) != 2:
        raise cur.error(f"{what} must be a pair", index)
    return pair


def _as_rows(
    value: ArgValue, index: int, cur: _Cursor, outer: str, inner: str
) -> tuple[tuple[int, ...], ...]:
    """A tuple of integer tuples (a bare integer is a 1-tuple); ``outer`` and
    ``inner`` are the messages for a bad value and a bad entry."""
    if type(value) is not tuple:
        raise cur.error(outer, index)
    rows = []
    for row in value:
        if type(row) is int:
            rows.append((row,))
        elif type(row) is tuple and _INT.issuperset(map(type, row)):
            rows.append(row)
        else:
            raise cur.error(inner, index)
    return tuple(rows)


def _as_chars(value: ArgValue, index: int, what: str, cur: _Cursor) -> tuple[tuple[int, ...], ...]:
    outer = f"{what} must be a tuple of character tuples"
    return _as_rows(value, index, cur, outer, f"{what} entries must be integer tuples")


_TREE_KINDS = frozenset(get_args(Tree))


def _as_tree(value: ArgValue, index: int, what: str, cur: _Cursor) -> Tree:
    """A tree, or the tree a name stands for; the message names no argument."""
    if type(value) is str:
        return cur.resolve(value, index)
    if type(value) in _TREE_KINDS:
        return value
    raise cur.error("expected a tree expression", index)


# ---------------------------------------------------------------------------
# expressions


def _library(name: str):
    """The builder of a library entry from its converted parameters."""
    return lambda cur, *params: example_library(name, *params, group=cur.group)


def _schubert(cur: _Cursor, n: int, d: int, j: tuple[int, ...]) -> Tree:
    datum = FiniteSchubertDatum(n, d, j)
    return finite_schubert_tree(normalize_j(datum) if cur.normalize else datum, cur.group)


def _disjoint(pos: list, kw: dict, cur: _Cursor, head: int) -> tuple:
    return tuple(_as_tree(*arg, "", cur) for arg in pos)


def _blowup(pos: list, kw: dict, cur: _Cursor, head: int) -> tuple:
    """The unknown corner, the split, the maps sorted as the node sorts
    them, then each known corner's label and tree in corner order.  The
    corners are checked in order, each before its tree is converted; an
    error is reported at the keyword it names."""
    if pos:
        raise cur.error("blowup takes keyword arguments only", head)
    unknown = "X"
    if "unknown" in kw:
        val, key = kw["unknown"]
        if type(val) is not str:
            raise cur.error("unknown= must be a corner label", key)
        unknown = val
    split: Optional[str] = None
    if "split" in kw:
        val, key = kw["split"]
        if type(val) is not str or val not in (*SPLIT_KINDS, "none"):
            raise cur.error("split= must be retraction, section or none", key)
        split = None if val == "none" else val
    known = []
    for label in BLOWUP_CORNERS:
        if label == unknown:
            if label in kw:
                raise cur.error(f"corner {label} is the unknown and cannot be given", kw[label][1])
            continue
        if label not in kw:
            raise cur.error(f"blowup is missing corner {label}=", head)
        val, key = kw[label]
        # a corner that is a name is resolved at the name, after ``label=``
        known += (label, _as_tree(val, key + 2 if type(val) is str else key, label, cur))
    maps: tuple[tuple[int, tuple[tuple[int, ...], ...]], ...] = ()
    if "maps" in kw:
        val, key = kw["maps"]
        if type(val) is not list:
            raise cur.error("maps= must be a [degree: matrix, ...] literal", key)
        errors = "matrix must be a tuple of row tuples", "matrix rows must be integer tuples"
        maps = tuple(sorted((deg, _as_rows(m, key, cur, *errors)) for deg, m in val))
    return unknown, split, maps, *known


NULLARY = ("point", "cusp", "node", "cone_of_P1")
# each call head: its number of positional arguments (None: any number), the
# keywords it requires, the message when one of them is missing, the other
# keywords it accepts, its arguments in conversion order as (positional
# index or keyword, converter, name in messages), and the builder called
# with the cursor and the converted arguments (None for an optional keyword
# left out).  Without an argument list, the head's entry of ``_CONVERTERS``
# converts its arguments from (positional, keywords, cursor, head token).
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
               lambda cur, n, mu: affine_schubert_tree(CoweightDatum(n, mu), cur.group)),
    "disjoint": (None, (), "", (), None, lambda cur, *kids: Disjoint(kids)),
    "flagbundle": (1, ("rank", "d"), "flagbundle needs rank= and d=", ("chars", "twists"),
                   (("chars", _as_chars, "chars"), ("twists", _as_int_tuple, "twists"),
                    (0, _as_tree, "base"), ("rank", _as_int, "rank"), ("d", _as_int_tuple, "d")),
                   lambda cur, chars, twists, base, rank, d:
                   FlagBundle(base, BundleDatum(rank, chars, twists), d)),
    "descent": (1, ("rank", "pres", "d"), "descent needs rank=, pres= and d=", ("oracle",),
                (("pres", _as_pair, "pres"), ("oracle", _as_int, "oracle"),
                 (0, _as_tree, "base"), ("rank", _as_int, "rank"), ("d", _as_int_tuple, "d")),
                lambda cur, pres, oracle, base, rank, d:
                StratifiedDescent(base, SheafDatum(rank, pres), d, oracle)),
    "blowup": (None, (), "", ("unknown", "split", *BLOWUP_CORNERS, "maps"), None,
               lambda cur, unknown, split, maps, *known:
               Blowup(tuple(zip(known[::2], known[1::2])), unknown, split, maps)),
    "henselian": (1, (), "", (), ((0, _as_int, "prime"),), lambda cur, p: HenselianBase(p)),
}
_CONVERTERS = {"disjoint": _disjoint, "blowup": _blowup}
# each call head's accepted keywords and required keywords
_KEYWORDS = {
    head: (frozenset(required + optional), frozenset(required))
    for head, (_, required, _, optional, _, _) in _SIGNATURES.items()
}


def _parse_args(cur: _Cursor) -> tuple[list[tuple[ArgValue, int]], dict[str, tuple[ArgValue, int]]]:
    """A call's argument list, each argument as (value, index): a keyword
    argument's index is its name's, a positional argument's the index of the
    first token of its value."""
    cur.expect("(")
    texts = cur.texts
    positional: list[tuple[ArgValue, int]] = []
    keywords: dict[str, tuple[ArgValue, int]] = {}
    if texts[cur.pos] != ")":
        while True:
            index = cur.pos
            text = texts[index]
            first = text[:1]
            # a name is not END, the last text, so one follows it
            if (first.isalpha() or first == "_") and texts[index + 1] == "=":
                cur.pos += 2
                if text in keywords:
                    raise cur.error(f"duplicate keyword {text!r}", index)
                keywords[text] = (_parse_value(cur), index)
            else:
                positional.append((_parse_value(cur), index))
            if texts[cur.pos] != ",":
                break
            cur.pos += 1
    cur.expect(")")
    return positional, keywords


def _parse_call(cur: _Cursor, index: int) -> Tree:
    """The call whose head, at ``index``, was just read, the cursor on its ``(``."""
    pos, kw = _parse_args(cur)
    head = cur.texts[index]
    if head not in _SIGNATURES:
        raise cur.error(f"unknown constructor {head!r}", index)
    count, _, missing, _, args, build = _SIGNATURES[head]
    if count is not None and len(pos) != count:
        raise cur.error(f"{head} takes {count} positional argument(s)", index)
    accepted, needed = _KEYWORDS[head]
    if not kw.keys() <= accepted:
        raise cur.error(f"{head} got unexpected keyword(s) {sorted(kw.keys() - accepted)}", index)
    if not kw.keys() >= needed:
        raise cur.error(missing, index)
    if args is None:
        values = _CONVERTERS[head](pos, kw, cur, index)
    else:
        values = []
        for key, convert, what in args:
            arg = pos[key] if type(key) is int else kw.get(key)
            values.append(None if arg is None else convert(*arg, what, cur))
    # a tree argument is keyed by its id: every builder keeps its tree
    # arguments as children of the tree it returns, which the table holds,
    # so no id in a key is reused while the table lives
    call = (head, *[id(v) if type(v) in _TREE_KINDS else v for v in values])
    tree = cur.calls.get(call)
    if tree is not None:
        return tree
    try:
        tree = build(cur, *values)
    except ValueError as exc:  # a value the tree's data class refuses
        raise cur.error(str(exc), index) from None
    if type(tree) is Point:  # a Schubert tower with no step: the script's point
        tree = cur.resolve("point", index)
    cur.calls[call] = tree
    return tree


def _parse_expr(cur: _Cursor) -> Tree:
    """A ``let`` right-hand side: a call, or the tree a name stands for."""
    index = cur.pos
    name = cur.take("IDENT")
    return _parse_call(cur, index) if cur.peek() == "(" else cur.resolve(name, index)


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


def _parse_command(cur: _Cursor, head: str) -> Statement:
    """The rest of a command line: the target, then the command's keys."""
    cls, keys = _COMMANDS[head]
    target = cur.take("IDENT")
    if target not in cur.names:
        raise cur.error(f"undefined name {target!r}", cur.pos - 1)
    values: list = [target]
    for key in keys:
        if cur.take("IDENT") != key:
            raise cur.error(f"expected {key}=", cur.pos - 1)
        cur.expect("=")
        if key != "degrees":
            values.append(cur.take("IDENT"))
            continue
        lo_index = cur.pos
        lo = int(cur.take("INT"))
        cur.expect("..")
        hi = int(cur.take("INT"))
        if lo > hi:
            raise cur.error("empty degree range", lo_index)
        values += (lo, hi)
    cur.expect("")
    return cls(*values)


_RESERVED = {*NULLARY, *_SIGNATURES, *_COMMANDS, *SPLIT_KINDS, "none"} | {
    "group", "table", "let", "torus", "trivial", "mu"
}


def _parse_line(cur: _Cursor) -> Optional[Statement]:
    """The statement of a line whose head is at index 0; None for a blank
    line and for the group declaration, which is kept on the cursor."""
    if cur.peek() == "":
        return None
    head = cur.take("IDENT")

    if head == "group":
        if cur.group is not None:
            raise cur.error("duplicate group declaration", 0)
        kind = cur.take("IDENT")
        if kind == "trivial":
            cur.group = GroupDatum(0)
        elif kind == "torus":
            rank = int(cur.take("INT"))
            orders: list[int] = []
            if cur.peek() == "mu":
                cur.pos += 1
                while _kind(cur.peek()) == "INT":
                    orders.append(int(cur.take("INT")))
                if not orders:  # at ``mu``, after group torus <n>
                    raise cur.error("mu needs at least one order", 3)
            try:
                cur.group = GroupDatum(rank, tuple(orders))
            except ValueError as exc:
                raise cur.error(str(exc), 0) from None
        else:
            message = "group declaration is 'group trivial' or 'group torus <n> [mu ...]'"
            raise cur.error(message, 1)
        cur.expect("")
        return None

    if cur.group is None:
        raise cur.error("the group must be declared before any other statement", 0)
    if head == "table":
        name = cur.take("IDENT")
        cur.expect("=")
        path = cur.take("STRING")[1:-1]
        cur.expect("")
        if name in cur.tables:
            raise cur.error(f"duplicate table name {name!r}", 0)
        cur.tables.add(name)
        return TableDecl(name, path)
    if head == "let":
        name = cur.take("IDENT")
        if name in _RESERVED:
            raise cur.error(f"{name!r} is reserved", 1)
        if name in cur.names:
            raise cur.error(f"duplicate name {name!r}", 1)
        cur.expect("=")
        tree = _parse_expr(cur)
        cur.expect("")
        cur.names[name] = tree
        return LetDecl(name, tree)
    if head in _COMMANDS:
        return _parse_command(cur, head)
    raise cur.error(f"unknown statement {head!r}", 0)


def parse(text: str, normalize_j_sequences: bool = False) -> Script:
    """Parse a construction script; deterministic, with positioned errors."""
    cur = _Cursor(normalize_j_sequences)
    statements: list[Statement] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        cur.start(raw, lineno)
        try:
            statement = _parse_line(cur)
        except (ValueError, RecursionError):
            # an integer too long to convert or an expression nested too
            # deeply; a malformed token on the line is reported first, then
            # the first integer too long
            limit = sys.get_int_max_str_digits()
            for tok in _tokenize_line(raw, lineno):
                digits = len(tok.text.lstrip("-"))
                if tok.kind == "INT" and 0 < limit < digits:
                    message = f"integer literal of {digits} digits exceeds the limit of {limit}"
                    raise LiteralError(message, tok.line, tok.col) from None
            raise
        if statement is not None:
            statements.append(statement)
    if cur.group is None:
        raise ScriptError("script declares no group", 1, 1)
    return Script(cur.group, tuple(statements))


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
