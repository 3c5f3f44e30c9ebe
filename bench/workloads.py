"""Seeded generators for the benchmark's script workloads.

A workload is a fixed plan: families, each built once per listed size.  The
seed draws only the details (twists, table and window choices, matrix
entries, invariant-factor chains, tree shapes, table rows), never the sizes
or the order, so one pass costs nearly the same for every seed and peak
memory does not depend on where the largest cases fall.

Every case carries a closure that builds its expected records from the
construction itself (closed-form ranks, planted Smith forms, brute-force
counters, table definitions, recurrences), never from simploc's output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import comb
from typing import Callable, Optional

import expected as ex


@dataclass
class Case:
    """One script run: its text, side files, and expected records.

    ``shipped`` names a script of the repository (relative to its root) that
    is run from its own directory instead of a generated one.
    """

    name: str
    family: str
    text: str
    expect: Callable[[], list]
    files: dict[str, str] = field(default_factory=dict)
    shipped: Optional[str] = None


def _script(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _fmt(values) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def _matrix(rows) -> str:
    return "(" + ", ".join(_fmt(r) for r in rows) + ")"


# ---------------------------------------------------------------------------
# formal_towers: class-B formality path, large ranks, shared subtrees


def _formal_case(rng: random.Random, name: str, family: str, lets: list[str], target: str,
                 rank: Callable[[], int], oracles_walk=(), oracles_d0=()) -> Case:
    """classify + a narrow compute + verdict parshin_Fq on ``target``.

    ``rank`` is a thunk, so brute-force counts run only when checked;
    ``oracles_*`` are the descent paths in walk order and in the order the
    degree-zero recursion meets them."""
    table = rng.choice(("bott", "unit"))
    lo = rng.randint(-3, 0)
    hi = lo + rng.randint(1, 4)
    text = _script(lets + [
        f"classify {target}",
        f"compute {target} table={table} degrees={lo}..{hi}",
        f"verdict {target} preset=parshin_Fq",
    ])

    def expect():
        r = rank()
        flags = [f"class-B formality over table {table!r}"] + [f"oracle:{p}" for p in oracles_d0]
        return (
            [ex.classify_record(target, "B", assumed_oracles=oracles_walk)]
            + [ex.compute_record(target, table, d, flags, ex.builtin_value(table, d, r)) for d in range(lo, hi + 1)]
            + [ex.parshin_record(target, r, oracles_d0)]
        )

    return Case(name, family, text, expect)


def cone_tower_case(rng: random.Random, depth: int) -> Case:
    """cone(...) applied ``depth`` times through a let chain: each level
    uses the previous one twice (cover base and exceptional corner)."""
    base_n = rng.randint(1, 3)
    lets = ["group trivial", f"let c0 = P({base_n})"]
    lets += [f"let c{i} = cone(c{i - 1}, {rng.randint(-4, 4)})" for i in range(1, depth + 1)]
    # a cone over a rank-r base has rank r + 1
    return _formal_case(rng, f"cone{depth}", "cone_tower", lets, f"c{depth}", lambda: base_n + 1 + depth)


def p1_tower_case(rng: random.Random, depth: int) -> Case:
    """P^1 bundles stacked ``depth`` deep: rank 2^depth."""
    lets = ["group trivial", "let t0 = point"]
    lets += [
        f"let t{i} = flagbundle(t{i - 1}, rank=2, d=(1), twists=(0, {rng.randint(-3, 3)}))"
        for i in range(1, depth + 1)
    ]
    return _formal_case(rng, f"p1tower{depth}", "p1_tower", lets, f"t{depth}", lambda: 2**depth)


def grassmannian_case(rng: random.Random, n: int) -> Case:
    """Gr(n, n/2), over a rank-n torus for odd n: rank C(n, n/2)."""
    group = f"group torus {n}" if n % 2 else "group trivial"
    lets = [group, f"let g = Gr({n}, {n // 2})"]
    return _formal_case(rng, f"gr{n}", "grassmannian", lets, "g", lambda: comb(n, n // 2))


def projective_torus_case(rng: random.Random, n: int) -> Case:
    """P(n) over a rank-(n+1) torus, which builds its ring presentation:
    rank n + 1."""
    lets = [f"group torus {n + 1}", f"let p = P({n})"]
    return _formal_case(rng, f"pn{n}", "projective_torus", lets, "p", lambda: n + 1)


def schubert_case(rng: random.Random, n: int) -> Case:
    """A finite Schubert variety in Gr(n, d) with random intersection
    bounds; its rank is the brute-force cell count."""
    d = rng.randint(1, n - 1)
    j = [0] * (n + 1)
    j[n] = d
    for i in range(n - 1, 0, -1):
        j[i] = rng.randint(max(0, j[i + 1] - 1), min(i, j[i + 1]))
    group = f"group torus {n}" if n % 2 else "group trivial"
    rank, walk, d0 = ex.finite_schubert_expectation(n, d, j)
    lets = [group, f"let s = schubert({n}, {d}, j={_fmt(j)})"]
    return _formal_case(rng, f"schubert{n}", "schubert", lets, "s", rank, walk, d0)


def affine_case(rng: random.Random, n: int) -> Case:
    """An affine Schubert variety for GL_n with a random dominant coweight."""
    top = rng.randint(1, 3)
    mu = tuple(sorted((rng.randint(-1, top) for _ in range(n)), reverse=True))
    group = f"group torus {n}" if n % 2 else "group trivial"
    rank, walk, d0 = ex.affine_schubert_expectation(n, mu)
    lets = [group, f"let a = affine({n}, mu={_fmt(mu)})"]
    return _formal_case(rng, f"affine{n}", "affine_schubert", lets, "a", rank, walk, d0)


# ---------------------------------------------------------------------------
# les_solve: class-C non-split squares, SNF and the LES solver

PLANTED_PRIMES = (2, 3, 5, 7, 11, 13)
ENTRY_BOUND = 5


def _node_case(name: str, family: str, lets: list[str], target: str, kernel0, value_m1) -> Case:
    """The command set of scripts/node.slc on the last of ``lets``, whose
    solved values are ``kernel0`` in degree 0 and ``value_m1()`` in degree
    -1, zero below (so a nonzero degree -1 also refutes class B)."""
    text = _script(["group trivial", *lets, f"classify {target}",
                    f"compute {target} table=unit degrees=-3..0", f"verdict {target} preset=cyclotomic_Fp"])

    def expect():
        flags = ["degreewise blowup long exact sequences"]
        m1 = value_m1()
        return [
            ex.classify_record(target, "C", b_refuted=None if ex.is_zero(m1) else m1),
            ex.compute_record(target, "unit", -3, flags, ex.group()),
            ex.compute_record(target, "unit", -2, flags, ex.group()),
            ex.compute_record(target, "unit", -1, flags, m1),
            ex.compute_record(target, "unit", 0, flags, kernel0),
            ex.cyclotomic_record(target, "C"),
        ]

    return Case(name, family, text, expect)


def _square(matrix, src: int, tgt: int) -> str:
    """A non-split square whose comparison map Y + Z -> E is ``matrix``:
    Y = P(src - 2), Z = point, E = P(tgt - 1)."""
    return (
        f"let x = blowup(unknown=X, split=none, Y=P({src - 2}), Z=point, "
        f"E=P({tgt - 1}), maps=[0: {_matrix(matrix)}])"
    )


def random_map_case(rng: random.Random, n: int) -> Case:
    """An n x (n+1) comparison map with random entries and full row rank
    (redrawn until its rank modulo a large prime is n).  From n = 20 on, one
    matrix in a few hundred makes ``snf`` take 0.5-2 s, and a script
    factors it about 16 times, so the plan stops at n = 18.

    Degree 0 is the kernel, free of rank (n+1) - rank; degree -1 is the
    cokernel, finite of order gcd(maximal minors)."""
    while True:
        m = tuple(tuple(rng.randint(-ENTRY_BOUND, ENTRY_BOUND) for _ in range(n + 1)) for _ in range(n))
        if ex.rank_mod_p(m) == n:
            break
    return _node_case(
        f"random{n}", "random_map", [_square(m, n + 1, n)], "x",
        ex.group(1), lambda: ex.TorsionOrder(n - ex.rank_over_q(m), ex.maximal_minor_gcd(m)),
    )


def planted_case(rng: random.Random, n: int) -> Case:
    """A square map with a planted Smith form.

    The chain multiplies in a bounded prime at every third step, with zero,
    one or two trailing zeros for rank deficiency (by size); 2n unimodular
    row and column operations with multipliers +-1 then mix the diagonal.
    (At 3n operations with multipliers up to 2, a few seeds in a hundred
    made ``snf`` run for seconds at n >= 24, past the per-script timeout.)"""
    chain, value = [], 1
    for i in range(n):
        if i % 3 == 2:
            value *= rng.choice(PLANTED_PRIMES)
        chain.append(value)
    rank = n - n % 3
    chain = chain[:rank] + [0] * (n - rank)
    m = [[chain[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        if rng.random() < 0.5:
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        else:
            for row in m:
                row[i] += c * row[j]
    coker = ex.group(n - rank, chain[:rank])
    return _node_case(f"planted{n}", "planted_snf", [_square(m, n, n)], "x", ex.group(n - rank), lambda: coker)


NESTED_RANKS = (0, 1, 2, 1)


def nested_chain_case(rng: random.Random, depth: int) -> Case:
    """``node`` stacked ``depth`` deep as the cover of non-split squares.

    Level k is blowup(Y = level k-1, Z = point, E = two points) with a
    2 x (a + 1) map A_k whose cokernel is free and whose rank cycles through
    NESTED_RANKS, so the shapes (and the cost) do not depend on the seed.
    With a_k, b_k the ranks in degrees 0 and -1: a_k = a_{k-1} + 1 - rank A_k
    and b_k = b_{k-1} + 2 - rank A_k, starting from node's (2, 1).
    """
    lets = ["let x0 = node"]
    a, b = 2, 1
    for k in range(1, depth + 1):
        m = a + 1
        rank = NESTED_RANKS[k % len(NESTED_RANKS)]
        if rank == 2:
            rows = tuple((1 - r, r) + tuple(rng.randint(-2, 2) for _ in range(m - 2)) for r in (0, 1))
        elif rank == 1:
            v = [rng.randint(-2, 2) for _ in range(m)]
            v[rng.randrange(m)] = 1
            c = rng.randint(-2, 2)
            rows = (tuple(v), tuple(c * x for x in v))
        else:
            rows = ((0,) * m, (0,) * m)
        a, b = m - rank, b + 2 - rank
        lets.append(
            f"let x{k} = blowup(unknown=X, split=none, Y=x{k - 1}, Z=point, "
            f"E=disjoint(point, point), maps=[0: {_matrix(rows)}])"
        )
    value_m1 = ex.group(b)
    return _node_case(f"nested{depth}", "nested_chain", lets, f"x{depth}", ex.group(a), lambda: value_m1)


# ---------------------------------------------------------------------------
# front_end: big scripts, wide windows, table files, record rendering

HENSELIAN_PRIMES = (2, 3, 5, 7, 11)
REPORT_TREES = (("cone_of_P1", 3), ("P(1)", 2), ("P(3)", 4), ("Gr(4, 2)", 6), ("hirzebruch(1)", 4))


def let_classify_case(rng: random.Random, count: int) -> Case:
    """``count`` distinct, unshared explicit-form trees, each classified."""
    lines = ["group trivial"]
    records = []
    for i in range(count):
        text, tag, prime, oracles = _random_explicit_tree(rng)
        lines += [f"let v{i} = {text}", f"classify v{i}"]
        records.append(ex.classify_record(f"v{i}", tag, prime=prime, assumed_oracles=oracles))
    return Case(f"lets{count}", "let_classify", _script(lines), lambda: records)


def _random_explicit_tree(rng: random.Random, depth: int = 3):
    """A small explicit-form tree with every square split.

    Returns (text, tag, prime, descent oracle paths in walk order).  At most
    one henselian prime appears, so the tag is B or C_p."""
    prime = rng.choice(HENSELIAN_PRIMES) if rng.random() < 0.2 else None
    kinds = ("point", "disjoint", "flag", "flag", "descent", "blowup") + (("henselian",) if prime else ())
    oracles: list[str] = []
    used = []

    def build(level: int, path: str) -> str:
        kind = "point" if level >= depth else rng.choice(kinds)
        sub = lambda i: f"{path}/{i}" if path else str(i)  # noqa: E731
        if kind == "point":
            return "point"
        if kind == "henselian":
            used.append(prime)
            return f"henselian({prime})"
        if kind == "disjoint":
            return f"disjoint({', '.join(build(level + 1, sub(i)) for i in range(rng.randint(1, 3)))})"
        if kind == "flag":
            rank = rng.randint(1, 4)
            d = rng.randint(1, rank)
            base = build(level + 1, sub(0))
            return f"flagbundle({base}, rank={rank}, d=({d}), twists={_fmt(rng.randint(-3, 3) for _ in range(rank))})"
        if kind == "descent":
            generic = rng.randint(1, 3)
            oracles.append(path or "(root)")
            total = build(level + 1, sub(0))
            return (
                f"descent({total}, rank={generic}, pres=({generic + 1}, {generic + 1}), "
                f"d=({rng.randint(1, generic)}), oracle={rng.randint(0, 5)})"
            )
        y, z, e = (build(level + 1, sub(i)) for i in range(3))
        return f"blowup(unknown=X, split={rng.choice(('retraction', 'section'))}, Y={y}, Z={z}, E={e})"

    text = build(0, "")
    return text, ("C_p" if used else "B"), (prime if used else None), oracles


def _wide_case(rng: random.Random, table: str, lo: int, hi: int, name: str) -> Case:
    tree = rng.choice(("cone_of_P1", "P(2)"))  # both of rank 3
    flags = [f"class-B formality over table {table!r}"]
    text = _script(["group trivial", f"let w = {tree}", f"compute w table={table} degrees={lo}..{hi}"])
    expect = lambda: [  # noqa: E731
        ex.compute_record("w", table, d, flags, ex.builtin_value(table, d, 3)) for d in range(lo, hi + 1)
    ]
    return Case(name, "wide_window", text, expect)


def bott_window_case(rng: random.Random, width: int) -> Case:
    """compute over the two-sided periodic bott table on about -width..width."""
    return _wide_case(rng, "bott", -width + rng.randint(0, 50), width - rng.randint(0, 50), f"bott{width}")


def hcminus_window_case(rng: random.Random, width: int) -> Case:
    """compute over the one-sided periodic hcminus_rational table on about
    -width..0."""
    return _wide_case(rng, "hcminus_rational", -width + rng.randint(0, 50), 0, f"hcminus{width}")


def node_window_case(rng: random.Random, width: int) -> Case:
    """node over about -width..0 with the unit table: one tiny LES solve per
    degree."""
    lo = -width + rng.randint(0, 50)
    text = _script(["group trivial", "let x = node", f"compute x table=unit degrees={lo}..0"])
    flags = ["degreewise blowup long exact sequences"]
    # the nodal curve: Z^2 in degree 0, Z in degree -1, zero below
    values = {0: ex.group(2), -1: ex.group(1)}
    expect = lambda: [  # noqa: E731
        ex.compute_record("x", "unit", d, flags, values.get(d, ex.group())) for d in range(lo, 1)
    ]
    return Case(f"node_window{width}", "node_window", text, expect)


def report_case(rng: random.Random, index: int) -> Case:
    """report over generated kh / hcminus table files on a class-B tree; the
    tree and the window's top degree follow the index, the rows the seed."""
    tree, rank = REPORT_TREES[index % len(REPORT_TREES)]
    hi = 6 + index % 35
    lo = -rng.randint(0, 3)
    rational = rng.random() < 0.5
    kh_rows = _random_table_rows(rng, hi, rational)
    hcm_rows = _random_table_rows(rng, hi, rational)
    kh_file, hcm_file = f"r{index:03d}_kh.tbl", f"r{index:03d}_hcm.tbl"
    text = _script([
        "group trivial",
        f'table kh = "{kh_file}"',
        f'table hcm = "{hcm_file}"',
        f"let r = {tree}",
        f"report r kh=kh hcminus=hcm degrees={lo}..{hi}",
    ])
    files = {kh_file: _table_text(kh_rows), hcm_file: _table_text(hcm_rows)}
    expect = lambda: ex.report_records("r", rank, kh_rows, hcm_rows, lo, hi)  # noqa: E731
    return Case(f"report{index}", "report", text, expect, files=files)


def _random_table_rows(rng: random.Random, hi: int, rational: bool):
    """Rows (degree, free_rank, factors, rational) on 0..hi; degree 0 has
    free rank >= 1 so the table is unital."""
    rows = []
    for d in range(0, hi + 1):
        if d and rng.random() < 0.4:
            continue
        free = rng.randint(1, 3) if d == 0 else rng.randint(0, 2)
        factors = () if rational else tuple(
            rng.choice(PLANTED_PRIMES) ** rng.randint(1, 2) for _ in range(rng.randint(0, 2))
        )
        rows.append((d, free, factors, rational))
    return rows


def _table_text(rows) -> str:
    lines = ["# degree free_rank [factors ...] [Q]"]
    for d, free, factors, rational in rows:
        lines.append(" ".join([str(d), str(free), *map(str, factors)] + (["Q"] if rational else [])))
    return "\n".join(lines) + "\n"


def shipped_node_case(rng: random.Random, copy: int) -> Case:
    return Case("node.slc", "shipped", "", ex.shipped_node_records, shipped="scripts/node.slc")


def shipped_cone_case(rng: random.Random, copy: int) -> Case:
    return Case("cone_of_p1.slc", "shipped", "", ex.shipped_cone_records, shipped="scripts/cone_of_p1.slc")


# ---------------------------------------------------------------------------
# plans: (family, builder, sizes); each builder runs once per size, in order

PLANS = {
    "formal_towers": (
        # 21 cone-7 towers sit in the middle of the cost order (43 scripts
        # cost more, 40 less) and eight cone-10 towers are the 9th-16th
        # costliest, so run_s.p50 and run_s.p90 each read a plateau of one
        # CPU-bound family
        ("cone_tower", cone_tower_case, (6,) * 4 + (7,) * 21 + (8,) * 5 + (9, 9) + (10,) * 8 + (11, 12)),
        ("p1_tower", p1_tower_case, (10, 10, 11, 11, 12, 12, 13, 14, 14, 15, 16, 17, 18)),
        ("grassmannian", grassmannian_case, (12, 12, 13, 13, 14, 14, 15, 16, 17, 18, 18, 18, 19, 20, 21, 22)),
        ("projective_torus", projective_torus_case, (6,) * 6 + (7,) * 5 + (9, 9)),
        ("schubert", schubert_case, (3, 4, 5, 6) * 2 + (5, 6)),
        ("affine_schubert", affine_case, (2, 3, 4, 5, 6) * 2),
    ),
    "les_solve": (
        ("random_map", random_map_case, tuple(range(12, 19)) * 6),
        ("planted_snf", planted_case, tuple(range(12, 27)) * 2 + tuple(range(12, 22))),
        ("nested_chain", nested_chain_case, (8, 8, 10, 10) + tuple(range(12, 40, 2))),
    ),
    "front_end": (
        ("let_classify", let_classify_case, (200, 400, 600, 900, 1200, 1500)),
        # five bott-4000 windows sit where run_s.p90 falls
        ("wide_window", bott_window_case, (1000, 2000, 3000) + (4000,) * 5 + (5000, 6000)),
        ("wide_window", hcminus_window_case, (2000, 4000, 6000)),
        ("node_window", node_window_case, (1200, 1200)),
        ("report", report_case, tuple(range(60))),
        ("shipped", shipped_node_case, tuple(range(20))),
        ("shipped", shipped_cone_case, tuple(range(20))),
    ),
}
WORKLOADS = tuple(PLANS)


def generate(workload: str, seed: int) -> list[Case]:
    """All cases of one pass, in run order, for the given seed."""
    if workload not in PLANS:
        raise LookupError(f"unknown workload {workload!r} (choose from {WORKLOADS})")
    rng = random.Random(f"{workload}/{seed}")
    return [builder(rng, size) for _, builder, sizes in PLANS[workload] for size in sizes]
