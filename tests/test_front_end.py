"""Script front end: tokenizer against its reference, goldens of parse,
statement, multi-fault, validation and engine errors, of a shared invalid
subtree and of preset refusals, one validation fold per script, unreadable
scripts."""

import json
import random
import string
from pathlib import Path

import pytest

from simploc import dsl, script
from simploc.cli import EXIT_OK, EXIT_VALIDATION, main
from simploc.script import ScriptError, Token, parse

from .oracles import tokenize_line_reference

GOLDEN = Path(__file__).resolve().parent / "golden"

# characters for which str.isdigit() holds but str.isdecimal() does not: the
# reference scanner starts an integer at one, the pattern rejects it, and a
# line where one starts a token fails to parse either way
DIGIT_NOT_DECIMAL = "²①"
ALPHABET = (
    list(string.ascii_letters + string.digits + ' \t()[]=,:.-#"_;!+')
    + list("é٣½Ⅻ\xa0" + DIGIT_NOT_DECIMAL)
    + ["let ", "P(", "disjoint(", "point", "..", "-7", "d=", "# x", '"s"', "x²"]
)


def _tokens(tokenize, line: str):
    try:
        return [tuple(t) for t in tokenize(line, 4)]
    except ScriptError as exc:
        return str(exc)


def _parse_fails(line: str) -> bool:
    try:
        parse(f"group trivial\n{line}\n")
    except (ScriptError, ValueError):
        return True
    return False


def test_tokenizer_matches_reference(monkeypatch):
    rng = random.Random(20261018)
    differing = 0
    for _ in range(20000):
        line = "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(0, 16)))
        got = _tokens(script._tokenize_line, line)
        want = _tokens(tokenize_line_reference, line)
        if got == want:
            continue
        differing += 1
        assert any(c in line for c in DIGIT_NOT_DECIMAL), line
        assert _parse_fails(line), line
        with monkeypatch.context() as m:
            m.setattr(script, "_tokenize_line", tokenize_line_reference)
            assert _parse_fails(line), line
    assert differing  # the documented exception was drawn


PARSE_ERRORS = GOLDEN / "parse_errors"
PARSE_ERRORS_EXPECTED = json.loads((PARSE_ERRORS / "expected.json").read_text())


@pytest.mark.parametrize("name", sorted(PARSE_ERRORS_EXPECTED))
def test_parse_errors_match_golden(name, capsys):
    code = main(["run", str(PARSE_ERRORS / f"{name}.slc")])
    captured = capsys.readouterr()
    assert code == PARSE_ERRORS_EXPECTED[name]["exit"]
    assert captured.err == PARSE_ERRORS_EXPECTED[name]["stderr"]
    assert captured.out == ""


STATEMENT_ERRORS = GOLDEN / "statement_errors"
STATEMENT_ERRORS_EXPECTED = json.loads((STATEMENT_ERRORS / "expected.json").read_text())


@pytest.mark.parametrize("name", sorted(STATEMENT_ERRORS_EXPECTED))
def test_statement_errors_match_golden(name, capsys):
    """The errors of statement lines (group, table, let and command
    keywords) and of a script without a group."""
    code = main(["run", str(STATEMENT_ERRORS / f"{name}.slc")])
    captured = capsys.readouterr()
    assert code == STATEMENT_ERRORS_EXPECTED[name]["exit"]
    assert captured.err == STATEMENT_ERRORS_EXPECTED[name]["stderr"]
    assert captured.out == ""


def test_multi_fault_precedence_matches_golden(capsys):
    """Calls with two or three bad arguments each: which error wins (count,
    keywords, nested call, then each argument in conversion order)."""
    directory = GOLDEN / "multi_fault"
    seen = {}
    for path in sorted(directory.glob("*.slc")):
        code = main(["run", str(path)])
        captured = capsys.readouterr()
        assert captured.out == "", path.name
        seen[path.stem] = {"exit": code, "stderr": captured.err}
    assert seen == json.loads((directory / "expected.json").read_text())


ENGINE_ERRORS = GOLDEN / "engine_errors"
ENGINE_ERRORS_EXPECTED = json.loads((ENGINE_ERRORS / "expected.json").read_text())


@pytest.mark.parametrize("name", sorted(ENGINE_ERRORS_EXPECTED))
@pytest.mark.parametrize("mode", ["run text", "run records", "check text", "check records"])
def test_validation_and_engine_errors_match_golden(name, mode, capsys):
    """Trees that parse but break a validation rule, or whose computation
    fails in the engine: output and exit code of each command and format."""
    command, fmt = mode.split()
    code = main([command, str(ENGINE_ERRORS / f"{name}.slc"), f"--format={fmt}"])
    captured = capsys.readouterr()
    expected = ENGINE_ERRORS_EXPECTED[name][mode]
    assert code == expected["exit"]
    assert (captured.out, captured.err) == (expected["stdout"], expected["stderr"])


SHARED_INVALID = GOLDEN / "shared_invalid"


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("fmt", ["text", "records"])
def test_shared_invalid_subtree_matches_golden(command, fmt, capsys):
    expected = json.loads((SHARED_INVALID / "expected.json").read_text())[f"{command} {fmt}"]
    code = main([command, str(SHARED_INVALID / "shared_invalid.slc"), f"--format={fmt}"])
    assert code == expected["exit"]
    assert capsys.readouterr().out == expected["stdout"]


PRESET_REFUSALS = GOLDEN / "preset_refusals"


@pytest.mark.parametrize("fmt", ["text", "records"])
def test_parshin_preset_refuses_trees_outside_class_b(fmt, capsys):
    """``parshin_Fq`` on a class-C and on an invalid (mixed-prime) tree is a
    refusal with exit code 0, like the other presets."""
    expected = json.loads((PRESET_REFUSALS / "expected.json").read_text())[f"run {fmt}"]
    code = main(["run", str(PRESET_REFUSALS / "parshin_not_class_b.slc"), f"--format={fmt}"])
    captured = capsys.readouterr()
    assert code == expected["exit"] == EXIT_OK
    assert (captured.out, captured.err) == (expected["stdout"], expected["stderr"])


def _distinct_nodes(roots) -> int:
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(dsl.children(node))
    return len(seen)


def test_check_validates_a_let_chain_once(tmp_path, monkeypatch, capsys):
    lines = ["group trivial", "let x0 = node"]
    lines += [
        f"let x{k} = blowup(unknown=X, split=none, Y=x{k - 1}, Z=point, "
        "E=disjoint(point, point), maps=[0: ((1, 0, 0), (0, 0, 0))])"
        for k in range(1, 501)
    ]
    path = tmp_path / "chain.slc"
    path.write_text("\n".join(lines) + "\n")
    distinct = _distinct_nodes(parse(path.read_text()).trees.values())
    calls = 0
    real_children = dsl.children

    def counting(node):
        nonlocal calls
        calls += 1
        return real_children(node)

    monkeypatch.setattr(dsl, "children", counting)
    assert main(["check", str(path)]) == EXIT_OK
    assert capsys.readouterr().out.count(": class C\n") == 501
    assert calls <= 2 * distinct


def test_script_that_is_not_utf8_exits_one(tmp_path, capsys):
    path = tmp_path / "latin1.slc"
    path.write_bytes(b"group trivial\n\xff\xfe\nlet x = point\n")
    assert main(["run", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("cannot read script: ")
    assert "Traceback" not in err


def _run(tmp_path, text: str, command: str = "run"):
    path = tmp_path / "s.slc"
    path.write_text(text)
    return main([command, str(path)])


def test_huge_henselian_residue_is_rejected_without_overflow(tmp_path, capsys):
    text = f"group trivial\nlet ok = P(1)\nlet h = henselian({10**400})\nclassify ok\n"
    assert _run(tmp_path, text) == EXIT_VALIDATION
    out = capsys.readouterr()
    assert "is not prime" in out.out and "Traceback" not in out.err


def test_names_after_the_first_invalid_one_are_validated_too(tmp_path, capsys):
    # run reports only the first invalid name, though every name is checked
    text = f"group trivial\nlet bad = henselian(4)\nlet h = henselian({10**400 + 1})\n"
    assert _run(tmp_path, text) == EXIT_VALIDATION
    assert capsys.readouterr().out == (
        "invalid bad: (root): henselian residue characteristic 4 is not prime\n"
    )
    assert _run(tmp_path, text, "check") == EXIT_VALIDATION
    assert capsys.readouterr().out.count("is not prime\n") == 2


def test_large_prime_residue_classifies(tmp_path, capsys):
    text = "group trivial\nlet h = henselian(1000000000000000003)\nclassify h\n"
    assert _run(tmp_path, text) == EXIT_OK
    assert capsys.readouterr().out == "h: class C_p (p = 1000000000000000003)\n"


def test_compute_on_projective_space_of_large_dimension(tmp_path, capsys):
    text = "group trivial\nlet x = P(1000000)\ncompute x table=unit degrees=0..0\n"
    assert _run(tmp_path, text) == EXIT_OK
    assert "degree 0: Z^1000001" in capsys.readouterr().out


def test_tokens_are_named_tuples():
    tokens = script._tokenize_line('let x = f(1, "s") # c', 4)
    assert all(type(tok) is Token for tok in tokens)
    assert [(tok.kind, tok.text, tok.line, tok.col) for tok in tokens[-2:]] == [
        ("RPAREN", ")", 4, 17),
        ("END", "", 4, 22),
    ]
