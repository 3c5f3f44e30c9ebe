#!/usr/bin/env python3
"""Compare simploc's output between two checkouts on a fixed corpus.

    python3 scripts/compare_outputs.py OLD_ROOT NEW_ROOT

Runs ``run`` and ``check`` in ``text`` and ``records`` format on every
script of the corpus with each checkout's ``src/``, and ``print``s each
script: ``print_script(parse(text))``, once plain and once with
``normalize_j_sequences=True``, or the parse error.  The ``print`` mode
catches a parse change that never reaches the output of ``run`` or
``check``.  The ``snf`` modes read ``snf(m)`` for every ``maps=`` matrix of
each script (or the parse error), so the Smith forms are compared bit for
bit, not only the groups read from them.  ``snf factors`` prints
``(factors, rank, rows, cols)`` and whether the form is valid: ``left`` @ m
@ ``right`` is the diagonal of ``factors``, and both transforms have
determinant +-1.  ``snf transforms`` prints ``left``, ``right`` and the bit
length of their largest entry.  So a change of elimination that keeps the
forms valid differs in ``snf transforms`` only.  The transforms are named
because a checkout that eliminates them on first read leaves them out of
the repr.
The ``tokens`` mode prints ``_tokenize_line``'s tokens (or its error) for
every line of each script, so the tokenizer is compared token by token, not
only through what ``parse`` makes of the tokens.
The ``degree0`` mode prints, for every ``let`` tree of each script, the
rank and oracle paths of ``compute_degree0`` and the result of
``refute_membership_b`` under the script's group, or each call's error type
and message: no command reaches a class-C ``compute_degree0``.
The ``witness`` mode prints, for every ``let`` tree that is a non-split
square with unknown X, ``solve_blowup_les(tree, group, unit, -3, 0,
collect_witnesses=True)`` under the script's group (the solved window and
every LES witness matrix), or the error type and message: no command
prints the witnesses.
Prints one line per difference in stdout, stderr or exit code; exits 0
when there is none.
The corpus is taken from NEW_ROOT: the shipped scripts, every ``.slc``
under ``tests/golden/``, and every script that ``bench/workloads.generate``
makes at seed 7 (``bench/`` is imported, never written), and one window
script per built-in table and window: ``compute`` of a class-B tree,
``report`` over the table, then ``compute`` of a class-C tree, on windows
that straddle 0, lie wholly below or above it, are one degree wide, sit at
+-10^20 or span 6,001 degrees.  Each script but the window scripts
also has a broken copy, seeded by its name: cut at a random character, or
with one character of a random line replaced by a blank, punctuation, a
quote, ``#``, ``;``, a letter, a digit or ``²``.  So the ``print`` and
``tokens`` modes compare parse errors too, not only successful parses.
"""

import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

MODES = [(command, fmt) for command in ("run", "check") for fmt in ("text", "records")]
MODES += [("print", "plain"), ("print", "normalize-j"), ("snf", "factors"), ("snf", "transforms")]
MODES += [("tokens", "lines")]
MODES += [("degree0", "lets"), ("witness", "lets")]

# run in one process per checkout: reads [[script, command, fmt], ...] on
# stdin, writes [[stdout, stderr, exit code], ...] on stdout
RUNNER = """
import contextlib, io, json, sys, traceback
from simploc.cli import main
from simploc.coeff import builtin_table, snf
from simploc.dsl import Blowup, Disjoint, fold
from simploc.engine import compute_degree0, refute_membership_b, solve_blowup_les
from simploc.script import ScriptError, _tokenize_line, parse, print_script
def parsed_only(script, command, fmt):
    with open(script, encoding="utf-8") as handle:
        text = handle.read()
    if command == "tokens":
        for lineno, line in enumerate(text.splitlines(), start=1):
            try:
                print([tuple(tok) for tok in _tokenize_line(line, lineno)])
            except ScriptError as exc:
                print(exc)
        return 0
    try:
        parsed = parse(text, normalize_j_sequences=fmt == "normalize-j")
    except (ScriptError, ValueError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    if command == "print":
        print(print_script(parsed), end="")
        return 0
    if command == "degree0":
        for name, tree in parsed.trees.items():
            try:
                module = compute_degree0(tree, parsed.group)
                print(f"{name}: rank {module.rank}, oracles {list(module.assumed_oracles)}")
            except Exception as exc:
                print(f"{name}: {type(exc).__name__}: {exc}")
            try:
                print(f"{name}: refuted {refute_membership_b(tree, parsed.group)!r}")
            except Exception as exc:
                print(f"{name}: {type(exc).__name__}: {exc}")
        return 0
    if command == "witness":
        for name, tree in parsed.trees.items():
            if not isinstance(tree, Blowup) or tree.split is not None or tree.unknown_corner != "X":
                continue
            try:
                unit = builtin_table("unit")
                solved = solve_blowup_les(tree, parsed.group, unit, -3, 0, collect_witnesses=True)
                print(f"{name}: {solved!r}")
            except Exception as exc:
                print(f"{name}: {type(exc).__name__}: {exc}")
        return 0
    maps = []
    lets = Disjoint(tuple(parsed.trees.values()))
    fold(lets, lambda node, kids: maps.extend(getattr(node, "comparison_maps", ())))
    for degree, matrix in maps:
        try:
            form = snf(matrix)
            if fmt == "factors":
                print(f"{degree}: {(form.factors, form.rank, form.rows, form.cols)}, valid {valid(matrix, form)}")
                continue
            bits = max((abs(x).bit_length() for t in (form.left, form.right) for row in t for x in row), default=0)
            print(f"{degree}: left {form.left}, right {form.right}, largest entry {bits} bits")
        except ValueError as exc:
            print(f"{degree}: {exc}")
    return 0
# the determinant by Bareiss's fraction-free elimination
def det(m):
    m, sign, last = [list(row) for row in m], 1, 1
    for k in range(len(m)):
        p = next((i for i in range(k, len(m)) if m[i][k]), None)
        if p is None:
            return 0
        if p != k:
            m[k], m[p], sign = m[p], m[k], -sign
        for i in range(k + 1, len(m)):
            m[i] = [0] * (k + 1) + [(m[i][j] * m[k][k] - m[i][k] * m[k][j]) // last for j in range(k + 1, len(m))]
        last = m[k][k]
    return sign * last
# left @ a @ right is the diagonal of the factors, and det = +-1 on both sides
def valid(a, form):
    left, right, rows, cols = form.left, form.right, form.rows, form.cols
    la = [[sum(left[i][k] * a[k][j] for k in range(rows)) for j in range(cols)] for i in range(rows)]
    product = [[sum(row[k] * right[k][j] for k in range(cols)) for j in range(cols)] for row in la]
    diagonal = [[form.factors[i] if i == j and i < form.rank else 0 for j in range(cols)] for i in range(rows)]
    return product == diagonal and abs(det(left)) == 1 == abs(det(right))
results = []
for script, command, fmt in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if command in ("run", "check"):
                code = main([command, "--format", fmt, script])
            else:
                code = parsed_only(script, command, fmt)
        except Exception as exc:
            traceback.print_exception(exc, file=err)
            code = "uncaught " + type(exc).__name__
    results.append([out.getvalue(), err.getvalue(), code])
json.dump(results, sys.stdout)
"""


BUILTIN_TABLES = ("unit", "bott", "hcminus_rational", "rational_deg0")
WINDOWS = [(-6, 6), (-30, -20), (20, 30), (0, 0), (-1, -1), (7, 7), (10**20 - 3, 10**20 + 3),
           (-(10**20) - 3, -(10**20) + 3), (-3000, 3000)]


def _window_script(table: str, lo: int, hi: int) -> str:
    """compute and report of a class-B tree on the window, then compute of a
    class-C one, unless the window reaches far above 0: a checkout that
    densifies a class-C window from its lowest nonzero degree up to ``hi``
    cannot hold it."""
    lines = ["group trivial", "let w = cone_of_P1", "let x = node"]
    lines += [f"compute w table={table} degrees={lo}..{hi}"]
    lines += [f"report w kh={table} hcminus=hcminus_rational degrees={lo}..{hi}"]
    lines += [f"compute x table={table} degrees={lo}..{hi}"] if hi <= 3000 else []
    return "\n".join(lines) + "\n"


def generated(root: Path, work: Path, seed: int) -> dict[str, str]:
    """Each workload's generated scripts at ``seed`` but the shipped ones,
    written under ``work`` with their side files: each script's name for
    the report, mapped to its path.  ``bench/`` is imported, never written."""
    sys.path.insert(0, str(root / "bench"))
    import workloads

    scripts = {}
    for workload in workloads.WORKLOADS:
        for i, case in enumerate(workloads.generate(workload, seed)):
            if case.shipped is not None:
                continue
            directory = work / workload / f"{i:03d}"
            directory.mkdir(parents=True)
            for name, text in {f"{case.name}.slc": case.text, **case.files}.items():
                (directory / name).write_text(text)
            scripts[f"{workload}/{i:03d}/{case.name}.slc"] = str(directory / f"{case.name}.slc")
    return scripts


def corpus(root: Path, work: Path) -> dict[str, str]:
    """Each script's name for the report, mapped to its path."""
    shipped = sorted(root.glob("scripts/*.slc")) + sorted((root / "tests/golden").rglob("*.slc"))
    scripts = {str(path.relative_to(root)): str(path) for path in shipped}
    scripts.update(generated(root, work, 7))
    for name, path in list(scripts.items()):
        broken = work / "broken" / name
        broken.parent.mkdir(parents=True, exist_ok=True)
        text = _broken(Path(path).read_text(encoding="utf-8"), random.Random(name))
        broken.write_text(text, encoding="utf-8")
        scripts[f"broken/{name}"] = str(broken)
    # no broken copies: a digit changed in a window bound could widen it to
    # more degrees than memory holds
    (work / "windows").mkdir()
    for table in BUILTIN_TABLES:
        for lo, hi in WINDOWS:
            path = work / "windows" / f"{table}_{lo}_{hi}.slc"
            path.write_text(_window_script(table, lo, hi))
            scripts[f"windows/{path.name}"] = str(path)
    return scripts


def _broken(text: str, rng: random.Random) -> str:
    """``text`` cut at a random character, or with one character of a random
    line replaced (a line's end counts as a character)."""
    if rng.randrange(2):
        return text[: rng.randrange(len(text) + 1)]
    lines = text.splitlines() or [""]
    i = rng.randrange(len(lines))
    at = rng.randrange(len(lines[i]) + 1)
    lines[i] = lines[i][:at] + rng.choice(' \t()[]=,:.-"#;x7²') + lines[i][at + 1 :]
    return "\n".join(lines) + "\n"


def outputs(root: Path, jobs: list[list[str]]) -> list[list]:
    done = subprocess.run(
        [sys.executable, "-c", RUNNER],
        input=json.dumps(jobs),
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        check=True,
    )
    return json.loads(done.stdout)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = (Path(arg).resolve() for arg in argv)
    with tempfile.TemporaryDirectory() as work:
        scripts = corpus(new, Path(work))
        jobs = [[path, *mode] for path in scripts.values() for mode in MODES]
        before, after = outputs(old, jobs), outputs(new, jobs)
    labels = [(name, *mode) for name in scripts for mode in MODES]
    differences = 0
    for (name, command, fmt), was, now in zip(labels, before, after):
        for part, a, b in zip(("stdout", "stderr", "exit code"), was, now):
            if a != b:
                differences += 1
                mode = f"{command} --format {fmt}" if command in ("run", "check") else f"{command} {fmt}"
                print(f"{name} [{mode}]: {part} differs")
    print(f"{len(jobs)} outputs compared, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
