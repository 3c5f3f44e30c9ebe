#!/usr/bin/env python3
r"""Statement census: which statements of ``src/simploc`` does the test suite never run?

    python scripts/line_coverage.py [--check | --cli]

Runs the tests under ``tests/`` in this process with a ``sys.settrace``
line collector and prints, for each ``src/simploc`` module, the statements
no test reached, and its counted lines: the lines that are neither blank
nor a comment alone, as ``grep -cv '^\s*\(#.*\)\?$'`` counts them.  A
statement is an ``ast.stmt``: docstrings are not counted, and neither are
``global`` and ``nonlocal``, which compile to no code.  A simple
statement is reached when any of its lines runs; a ``def``, ``class`` or
other compound statement when its header (decorators included) runs.
Tracing is armed again before each test, because CPython turns it off for
good when the trace function raises (as it does when a test recurses to
the interpreter's limit).  Each test during which tracing was lost is
named: a statement reached only after the loss reads as unreached.  With
``--check`` the script exits 1 when a statement is unreached or a test
fails.  Takes about 2-3 minutes; it is stdlib and pytest only.

With ``--cli`` the same statement rules are applied to ``cli.main`` runs
instead of the tests: ``run`` and ``check``, in text and records, of every
``.slc`` under ``tests/golden/`` and ``scripts/`` and of each workload's
generated scripts at seed 1101 (``bench/workloads.generate``, imported and
never written; the scripts and their table files go to a temporary
directory).  The unreached statements are listed by the function, class
body or module that holds them, and each run that raised out of
``cli.main`` is named.  Tracing is armed again before each run.  Takes
about a minute.
"""

import ast
import io
import os
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "simploc"
# a line that is blank or a comment alone; ``\s`` as grep reads it
UNCOUNTED = re.compile(r"[ \t\r\f\v]*(#.*)?")


def statements(source: str) -> list[tuple[int, range]]:
    """Each counted statement as (first line, the lines that reach it)."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }
    found = []
    for node in ast.walk(tree):
        if (
            not isinstance(node, ast.stmt)
            or isinstance(node, (ast.Global, ast.Nonlocal))
            or id(node) in docstrings
        ):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = [child for child in getattr(node, "body", ()) if id(child) not in docstrings]
        last = max(first, body[0].lineno - 1) if body else node.end_lineno
        found.append((first, range(first, last + 1)))
    return sorted(found)


def owners(source: str) -> dict[int, str]:
    """Each statement's first line, mapped to the qualified name of the
    function or class whose body holds it, or ``<module>``."""
    found: dict[int, str] = {}

    def visit(node: ast.AST, owner: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                first = min([child.lineno] + [d.lineno for d in getattr(child, "decorator_list", ())])
                found[first] = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, prefix + child.name, prefix + child.name + ".")
            else:
                visit(child, owner, prefix)

    visit(ast.parse(source), "<module>", "")
    return found


def _collector(add):
    def local(frame, event, arg):
        if event == "line":
            add(frame.f_lineno)
        return local

    return local


class Census:
    """The line collector, and a pytest plugin that arms it before each test."""

    def __init__(self, files: list[Path]):
        self.hits = {str(path): set() for path in files}
        self.lost: list[str] = []
        tracers = {filename: _collector(lines.add) for filename, lines in self.hits.items()}
        known: dict[str, object] = {}

        def trace(frame, event, arg):
            filename = frame.f_code.co_filename
            if filename not in known:
                known[filename] = tracers.get(os.path.abspath(filename))
            return known[filename]

        self.trace = trace

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        sys.settrace(self.trace)
        yield
        if sys.gettrace() is not self.trace:
            self.lost.append(item.nodeid)


def cli_scripts(work: Path) -> list[str]:
    """The shipped and golden scripts, then each workload's generated scripts
    at seed 1101, written under ``work`` with their side files."""
    sys.path.insert(0, str(ROOT / "scripts"))
    from compare_outputs import generated

    shipped = sorted(ROOT.glob("scripts/*.slc")) + sorted((ROOT / "tests/golden").rglob("*.slc"))
    return [*map(str, shipped), *generated(ROOT, work, 1101).values()]


def run_cli(census: Census) -> list[str]:
    """Runs the ``--cli`` corpus through ``cli.main``, tracing; the runs that
    raised out of it."""
    from simploc.cli import main

    raised = []
    with tempfile.TemporaryDirectory() as work:
        for script in cli_scripts(Path(work)):
            for command in ("run", "check"):
                for fmt in ("text", "records"):
                    argv = [command, "--format", fmt, script]
                    sys.settrace(census.trace)
                    try:
                        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                            main(argv)
                    except Exception as exc:
                        raised.append(f"{' '.join(argv)}: {type(exc).__name__}")
                    if sys.gettrace() is not census.trace:
                        census.lost.append(" ".join(argv))
                    sys.settrace(None)
    return raised


def main(argv: list[str]) -> int:
    check, cli = argv == ["--check"], argv == ["--cli"]
    if argv and not (check or cli):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    files = sorted(PACKAGE.glob("*.py"))
    census = Census(files)
    sys.path.insert(0, str(ROOT / "src"))
    # armed before the package is imported, so module-level statements count
    sys.settrace(census.trace)
    try:
        if cli:
            raised = run_cli(census)
        else:
            tests_failed = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")], plugins=[census])
    finally:
        sys.settrace(None)

    total = unreached = lines_total = 0
    for path in files:
        source = path.read_text()
        lines = source.splitlines()
        hits = census.hits[str(path)]
        counted = statements(source)
        missed = [first for first, reach in counted if not hits.intersection(reach)]
        code_lines = sum(not UNCOUNTED.fullmatch(line) for line in source.split("\n"))
        total += len(counted)
        unreached += len(missed)
        lines_total += code_lines
        print(
            f"{path.relative_to(ROOT)}: {len(missed)} of {len(counted)} statements unreached, "
            f"{code_lines} counted lines"
        )
        if cli:
            owner = owners(source)
            by_owner: dict[str, list[int]] = {}
            for first in missed:
                by_owner.setdefault(owner[first], []).append(first)
            for name, firsts in by_owner.items():
                print(f"  {name}: {len(firsts)}, lines {' '.join(map(str, firsts))}")
            continue
        for first in missed:
            print(f"  {first}: {lines[first - 1].strip()}")
    print(f"total: {unreached} of {total} statements unreached, {lines_total} counted lines")
    for run in census.lost:
        print(f"tracing lost during {run}")
    if cli:
        for run in raised:
            print(f"raised out of cli.main: {run}")
        return 0
    return 1 if check and (unreached or tests_failed) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
