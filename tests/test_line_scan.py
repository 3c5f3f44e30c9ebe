"""The script front end's one scan per line: ``parse`` reads each line as a
list of token texts and scans a line again only to place an error, so a
valid script never calls ``_tokenize_line``, and a malformed token on a
line is reported before any other error on it.  A seeded corpus of random
scripts pins ``parse`` to the output of the token-list parser it replaced.

    python -m tests.test_line_scan --write

regenerates the corpus golden with the ``simploc`` on the path."""

import json
import random
import sys
from pathlib import Path

import pytest

from simploc import script
from simploc.script import ScriptError, parse, print_script

from .test_front_end import ALPHABET

ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).resolve().parent / "golden" / "front_end_corpus.json"

HEADERS = ["", "group trivial", "group torus 2", "group torus 1 mu 2 3"]
STATEMENTS = [
    'table t = "t.tbl"',
    "let a = P(2)",
    "let b = Gr(4, 2)",
    "let c = Flag(3, d=(1, 1))",
    "let e = cone(a, 2)",
    "let f = flagbundle(a, rank=2, d=(1), chars=((0), (1)), twists=(0, 1))",
    "let g = descent(P(2), rank=1, pres=(0, 1), d=(1), oracle=2)",
    "let h = blowup(unknown=X, split=none, Y=P(1), Z=point, E=disjoint(point, point), "
    "maps=[0: ((1, 0, 0), (0, 0, 0)), -1: (1)])",
    "let r = blowup(unknown=Z, split=retraction, X=a, Y=b, E=point)",
    "let k = schubert(4, 2, j=(0, 0, 1, 1, 2))",
    "let m = affine(2, mu=(2, 0))",
    "let n = henselian(5)",
    "let p = disjoint(a, node, cusp, cone_of_P1)",
    "let q = hirzebruch(-1)",
    "compute a table=unit degrees=-1..2",
    "classify a",
    "verdict a preset=ktop_C",
    "report a kh=unit hcminus=t degrees=0..1",
    "# a comment",
    "",
]


def _mutated(rng: random.Random, line: str) -> str:
    """The line truncated, or with one to three characters or phrases of the
    front-end alphabet inserted, deleted or replaced, or blanks appended."""
    how = rng.randrange(4)
    if how == 0:
        return line[: rng.randrange(len(line) + 1)]
    if how == 3:
        return line + rng.choice([" ", "\t", " \t ", "  # c", "\t#"])
    chars = list(line)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(chars) + 1)
        if how == 1 or not chars:
            chars.insert(at, rng.choice(ALPHABET))
        else:
            del chars[min(at, len(chars) - 1)]
    return "".join(chars)


def corpus_script(rng: random.Random) -> str:
    """A header, then one to four lines: a statement (one time in two), a
    mutated statement or a run of the front-end alphabet."""
    lines = [rng.choice(HEADERS)]
    for _ in range(rng.randint(1, 4)):
        how = rng.randrange(4)
        if how < 2:
            lines.append(rng.choice(STATEMENTS))
        elif how == 2:
            lines.append(_mutated(rng, rng.choice(STATEMENTS)))
        else:
            lines.append("".join(rng.choice(ALPHABET) for _ in range(rng.randrange(1, 16))))
    return "\n".join(lines) + "\n"


def parsed(text: str) -> str:
    try:
        return print_script(parse(text))
    except (ScriptError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_parse_matches_the_corpus_golden():
    corpus = json.loads(CORPUS.read_text())
    rng = random.Random(corpus["seed"])
    assert len(corpus["cases"]) == 1000
    for case in corpus["cases"]:
        assert case["script"] == corpus_script(rng)
        assert parsed(case["script"]) == case["parsed"], case["script"]


@pytest.mark.parametrize(
    "line, message",
    [
        ("let y = ", "line 2:9: expected IDENT, got END ''"),
        ("let y = \t# c", "line 2:13: expected IDENT, got END ''"),
    ],
)
def test_trailing_blanks_are_no_token(line, message):
    """END stands at the line's length + 1, after any trailing blanks or
    comment."""
    with pytest.raises(ScriptError) as raised:
        parse(f"group trivial\n{line}\n")
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "line, message",
    [
        ("let x = P(1 2) ;", "line 2:16: unexpected character ';'"),
        ('let x = nothing("s', "line 2:17: unterminated string"),
        ("let x = q(1) x²", "line 2:9: unknown constructor 'q'"),
    ],
)
def test_a_malformed_token_wins_over_other_errors_on_its_line(line, message):
    with pytest.raises(ScriptError) as raised:
        parse(f"group trivial\n{line}\n")
    assert str(raised.value) == message


def test_a_malformed_token_wins_over_a_deep_nesting():
    line = "let x = " + "disjoint(" * 2000 + ")" * 2000 + " ;"
    with pytest.raises(ScriptError) as raised:
        parse(f"group trivial\n{line}\n")
    assert str(raised.value) == f"line 2:{len(line)}: unexpected character ';'"


def test_a_malformed_token_wins_over_an_integer_too_long_to_read():
    digits = "1" * 5000
    with pytest.raises(ValueError):
        parse(f"group trivial\nlet x = P({digits})\n")
    with pytest.raises(ScriptError) as raised:
        parse(f"group trivial\nlet x = P({digits}) ;\n")
    assert str(raised.value) == f"line 2:{len(digits) + 13}: unexpected character ';'"


def _count_rescans(monkeypatch) -> list:
    calls = []
    real = script._tokenize_line

    def counting(text, line):
        calls.append(line)
        return real(text, line)

    monkeypatch.setattr(script, "_tokenize_line", counting)
    return calls


def test_a_valid_script_is_scanned_once(monkeypatch):
    calls = _count_rescans(monkeypatch)
    parse((ROOT / "scripts" / "node.slc").read_text())
    lines = ["group trivial", "let x0 = P(1)"]
    lines += [
        f"let x{k} = flagbundle(x{k - 1}, rank=2, d=(1), twists=(0, {k}))" for k in range(1, 200)
    ]
    assert len(parse("\n".join(lines) + "\n").trees) == 200
    assert calls == []


def test_an_invalid_script_is_scanned_again_once(monkeypatch):
    calls = _count_rescans(monkeypatch)
    lines = ["group trivial"] + [f"let x{k} = P({k})" for k in range(200)] + ["let y = P(1, 2)"]
    with pytest.raises(ScriptError, match="^line 202:9: P takes 1 positional"):
        parse("\n".join(lines) + "\n")
    assert calls == [202]


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    seed = 20261019
    rng = random.Random(seed)
    cases = []
    for _ in range(1000):
        text = corpus_script(rng)
        cases.append({"script": text, "parsed": parsed(text)})
    corpus = {"seed": seed, "cases": cases}
    CORPUS.write_text(json.dumps(corpus, ensure_ascii=False, indent=1) + "\n")
