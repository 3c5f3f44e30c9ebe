"""An evaluation keeps no per-evaluation copies.

Class-C solving lists the distinct nodes afresh on each call and leaves on
the tree only each non-split square's Smith forms and, on each class-C
node, one solved window for the last table it was solved over, so
classifying every root of a shared chain holds memory linear in the chain,
not one node list per root.  The kept class orders its oracle paths
children first once, however many commands and runs read them.
"""

import contextlib
import gc
import sys
import tracemalloc
from unittest import mock

from simploc import dsl
from simploc.cli import EXIT_OK, run_script
from simploc.script import parse


def _square_chain(depth: int) -> str:
    """``node`` as the cover of ``depth`` nested non-split squares, shared
    through ``let``, then ``classify`` of every name."""
    lines = ["group trivial", "let x0 = node"]
    lines += [
        f"let x{k} = blowup(unknown=X, split=none, Y=x{k - 1}, Z=point, "
        "E=disjoint(point, point), maps=[0: ((1, 0, 0), (0, 0, 0))])"
        for k in range(1, depth + 1)
    ]
    lines += [f"classify x{k}" for k in range(depth + 1)]
    return "\n".join(lines) + "\n"


def _held_after_run(depth: int, base_dir) -> int:
    """Bytes still allocated, with the parsed script alive, after a run that
    refutes class B on every root of the chain."""
    script = parse(_square_chain(depth))
    gc.collect()
    tracemalloc.start()
    try:
        output, code = run_script(script, base_dir, "text")
        assert code == EXIT_OK and output.count("not in class B") == depth + 1
        del output
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held


def test_memory_held_per_level_does_not_grow_with_depth(tmp_path):
    """What a run leaves is the per-node caches (each node's class, each
    square's Smith forms), about 1 KB a level; a node list kept on every
    refuted root made it grow with depth, 6.7 KB a level at 50 and 10.5 KB
    at 100 (Python 3.11)."""
    per_level = {depth: _held_after_run(depth, tmp_path) / depth for depth in (50, 100)}
    assert per_level[100] <= per_level[50]


def test_two_runs_order_the_oracle_paths_children_first_once(tmp_path):
    script = parse(
        "group trivial\nlet a = affine(2, mu=(60, 0))\nclassify a\n"
        "compute a table=bott degrees=0..2\nverdict a preset=parshin_Fq\n"
    )
    real = dsl.children_first
    calls = []

    def counted(paths):
        calls.append(paths)
        return real(paths)

    # every module binding the name, so an import of it is counted too
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "simploc"]
    with contextlib.ExitStack() as stack:
        for module in modules:
            if getattr(module, "children_first", None) is real:
                stack.enter_context(mock.patch.object(module, "children_first", counted))
        for fmt in ("text", "records"):
            assert run_script(script, tmp_path, fmt)[1] == EXIT_OK
    assert len(calls) == 1
    assert calls[0] == dsl.classify(script.trees["a"]).assumed_oracles
