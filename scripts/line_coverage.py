#!/usr/bin/env python3
r"""Statement census: which statements of ``src/simploc`` does the test suite never run?

    python scripts/line_coverage.py [--check]

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
"""

import ast
import os
import re
import sys
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


def _collector(add):
    def local(frame, event, arg):
        if event == "line":
            add(frame.f_lineno)
        return local

    return local


class Census:
    """A pytest plugin that arms the line collector before each test."""

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


def main(argv: list[str]) -> int:
    check = argv == ["--check"]
    if argv and not check:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    files = sorted(PACKAGE.glob("*.py"))
    census = Census(files)
    sys.path.insert(0, str(ROOT / "src"))
    # armed before the package is imported, so module-level statements count
    sys.settrace(census.trace)
    try:
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
        for first in missed:
            print(f"  {first}: {lines[first - 1].strip()}")
    print(f"total: {unreached} of {total} statements unreached, {lines_total} counted lines")
    for nodeid in census.lost:
        print(f"tracing lost during {nodeid}")
    return 1 if check and (unreached or tests_failed) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
