"""Classifying every name of a chain of non-split squares is linear.

Each class-C node keeps the window it was solved to, so a refutation
solves only the squares not yet solved over ``unit``, and a later
``compute`` extends a kept window by the degrees above its top.  The work
is counted as calls of the long-exact-sequence step, one per square solved
or extended.
"""

import pytest

from simploc import engine
from simploc.cli import EXIT_OK, run_script
from simploc.script import parse


def _chain(depth: int, commands: list[str]) -> str:
    """``node`` as the cover of ``depth`` nested non-split squares, shared
    through ``let``, then ``commands``."""
    lines = ["group trivial", "let x0 = node"]
    lines += [
        f"let x{k} = blowup(unknown=X, split=none, Y=x{k - 1}, Z=point, "
        "E=disjoint(point, point), maps=[0: ((1, 0, 0), (0, 0, 0))])"
        for k in range(1, depth + 1)
    ]
    return "\n".join(lines + commands) + "\n"


def _les_calls(text: str, monkeypatch, tmp_path) -> int:
    calls = []
    real = engine._les_values

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(engine, "_les_values", counted)
    output, code = run_script(parse(text), tmp_path, "text")
    assert code == EXIT_OK and "error" not in output
    return len(calls)


@pytest.mark.parametrize("depth", [50, 100])
def test_classify_every_name_then_compute_is_linear(depth, monkeypatch, tmp_path):
    commands = [f"classify x{k}" for k in range(depth + 1)]
    commands.append(f"compute x{depth} table=unit degrees=-3..0")
    # 1,377 and 5,252 calls when every refutation solves the chain below it
    assert _les_calls(_chain(depth, commands), monkeypatch, tmp_path) <= 2 * depth + 4


def test_node_command_set_solves_each_square_about_once(monkeypatch, tmp_path):
    commands = ["classify x8", "compute x8 table=unit degrees=-3..0", "verdict x8 preset=cyclotomic_Fp"]
    # nine squares (node is one); 18 calls when compute solves them again
    assert _les_calls(_chain(8, commands), monkeypatch, tmp_path) <= 10
