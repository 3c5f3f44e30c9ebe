"""A tree evaluated many times answers as a fresh tree does.

Each class-C node keeps the window it was last solved to, for the last
table it was solved over, and a later evaluation reads it back, extends it
or replaces it.  Here each of 120 random shared DAGs takes a seeded
sequence of engine calls over three tables and random windows, and each
call's outcome (values and oracle paths, witnesses, or the error's type
and message) must equal that of the same call on a freshly generated copy
of the DAG.
"""

import random

from simploc.dsl import Blowup, classify, validate
from simploc.engine import (
    EngineError,
    compute_degree0,
    compute_graded,
    refute_membership_b,
    solve_blowup_les,
)

from .test_class_c_dag import TRIV, UNIT, random_class_c_tree, random_table


def _dag(seed):
    """Two random tables and the class-C nodes of one random shared DAG
    whose maps fit the first table, in the pool's order."""
    rng = random.Random(seed)
    tables = [random_table(rng), random_table(rng)]
    pool = []
    random_class_c_tree(rng, tables[0], rng.randint(2, 4), pool)
    nodes = [node for node in pool if not validate(node, TRIV) and classify(node).tag == "C"]
    return [UNIT, *tables], nodes


def _window(window):
    return window.support, window.lo, window.hi, window.assumed_oracles


def _outcome(call, tables, nodes):
    kind, index, table_index, lo, hi = call
    node, table = nodes[index], tables[table_index]
    try:
        if kind == "compute":
            return _window(compute_graded(node, TRIV, table, degrees=(lo, hi)).window)
        if kind == "refute":
            return refute_membership_b(node, TRIV)
        if kind == "degree0":
            module = compute_degree0(node, TRIV)
            return module.rank, module.assumed_oracles
        window, witnesses = solve_blowup_les(node, TRIV, table, lo, hi, collect_witnesses=True)
        return _window(window), witnesses
    except (EngineError, ValueError) as exc:
        return type(exc), str(exc)


def _calls(rng, nodes, count):
    """``count`` random calls, each (kind, node index, table index, lo, hi);
    witnesses are asked of non-split squares only."""
    squares = [i for i, node in enumerate(nodes) if isinstance(node, Blowup) and node.split is None]
    kinds = ("compute", "compute", "compute", "refute", "degree0") + (("witness",) if squares else ())
    calls = []
    for _ in range(count):
        kind = rng.choice(kinds)
        index = rng.choice(squares) if kind == "witness" else rng.randrange(len(nodes))
        lo = rng.randint(-5, 1)
        calls.append((kind, index, rng.randrange(3), lo, lo + rng.randint(0, 4)))
    return calls


def test_repeated_calls_answer_as_on_a_fresh_dag():
    kinds, stored, errors = set(), 0, 0
    for seed in range(120):
        tables, nodes = _dag(seed)
        if not nodes:
            continue
        rng = random.Random(1000 + seed)
        for call in _calls(rng, nodes, 12):
            kept = nodes[call[1]].__dict__.get("_solved")
            outcome = _outcome(call, tables, nodes)
            assert outcome == _outcome(call, *_dag(seed))
            kinds.add(call[0])
            stored += kept is not None
            errors += type(outcome) is tuple and isinstance(outcome[0], type)
    assert kinds == {"compute", "refute", "degree0", "witness"}
    assert stored >= 400 and errors >= 100
