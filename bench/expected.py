"""Expected ``--format=records`` output, computed without the engine.

Sources: closed-form ranks, table definitions, planted Smith forms, exact
integer linear algebra written here (fraction-free elimination and maximal
minors), the brute-force Schubert counters, a recurrence for nested
non-split chains, and hand-written values for the shipped scripts.  Groups
are compared in their canonical form: free rank, invariant-factor chain and
the rational flag, with the zero group always integral.
"""

from __future__ import annotations

import json
from itertools import combinations
from math import comb, gcd, prod
from typing import Optional

SCHEMA = "simploc.records/1"
GROUP_KEYS = ("free_rank", "invariant_factors", "rational")


# ---------------------------------------------------------------------------
# groups


def canonical_chain(factors) -> list[int]:
    """Invariant factors of a diagonal matrix: gcd/lcm exchanges until each
    entry divides the next; units and zeros are dropped."""
    fs = [abs(f) for f in factors if abs(f) > 1]
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            g = gcd(fs[i], fs[j])
            fs[i], fs[j] = g, fs[i] * fs[j] // g
    return [f for f in fs if f != 1]


def group(free: int = 0, factors=(), rational: bool = False) -> dict:
    chain = [] if rational else canonical_chain(factors)
    if free == 0 and not chain:
        rational = False
    return {"free_rank": free, "invariant_factors": chain, "rational": rational}


def is_zero(g) -> bool:
    if isinstance(g, TorsionOrder):
        return g.free_rank == 0 and g.order == 1
    return g["free_rank"] == 0 and not g["invariant_factors"]


def tensor(g: dict, rank: int) -> dict:
    """g tensored with Z^rank."""
    return group(g["free_rank"] * rank, g["invariant_factors"] * rank, g["rational"])


def direct_sum(a: dict, b: dict) -> dict:
    if is_zero(a):
        return b
    if is_zero(b):
        return a
    return group(
        a["free_rank"] + b["free_rank"],
        a["invariant_factors"] + b["invariant_factors"],
        a["rational"],
    )


class TorsionOrder:
    """Matches a group with the given free rank whose torsion is a
    divisibility chain of the given order (used where only the order of the
    torsion is known independently)."""

    def __init__(self, free_rank: int, order: int):
        self.free_rank = free_rank
        self.order = order

    def __eq__(self, other) -> bool:
        if not isinstance(other, dict) or set(other) != set(GROUP_KEYS):
            return False
        chain = other["invariant_factors"]
        is_chain = all(f > 1 for f in chain) and all(b % a == 0 for a, b in zip(chain, chain[1:]))
        return (
            other["free_rank"] == self.free_rank
            and other["rational"] is False
            and is_chain
            and prod(chain) == self.order
        )

    def __repr__(self) -> str:
        return f"TorsionOrder(free_rank={self.free_rank}, order={self.order})"


def builtin_value(table: str, degree: int, rank: int) -> dict:
    """Degree-``degree`` value of a rank-``rank`` class-B tree over a
    built-in table: unit is Z in degree 0; bott is Z in even degrees;
    hcminus_rational is Q in degrees 0, -2, -4, ..."""
    if table == "unit":
        base = group(1) if degree == 0 else group()
    elif table == "bott":
        base = group(1) if degree % 2 == 0 else group()
    elif table == "hcminus_rational":
        base = group(1, rational=True) if degree <= 0 and degree % 2 == 0 else group()
    else:
        raise LookupError(table)
    return tensor(base, rank)


# ---------------------------------------------------------------------------
# records


def classify_record(
    target: str,
    tag: str,
    prime: Optional[int] = None,
    assumed_oracles=(),
    b_refuted=None,
    refuted_degree: int = -1,
) -> dict:
    return {
        "command": "classify",
        "target": target,
        "tag": tag,
        "prime": prime,
        "assumed_oracles": list(assumed_oracles),
        "b_refuted": None if b_refuted is None else {"degree": refuted_degree, "group": b_refuted},
        "schema": SCHEMA,
    }


def compute_record(target: str, table: str, degree: int, flags, g) -> dict:
    return {
        "command": "compute",
        "target": target,
        "table": table,
        "degree": degree,
        "flags": sorted(flags),
        "group": g,
        "schema": SCHEMA,
    }


def parshin_record(target: str, rank: int, oracles=()) -> dict:
    return {
        "command": "verdict",
        "target": target,
        "preset": "parshin_Fq",
        "verdict": "vanishing",
        "degree": None,
        "hypotheses": [
            "membership class B",
            "rationalized point values are concentrated in degree zero",
        ]
        + [f"assumed oracle at {p}" for p in oracles],
        "conclusion": (
            "rationalized values vanish in every degree != 0; "
            f"degree-0 rank {rank} over R(G)"
        ),
        "schema": SCHEMA,
    }


def cyclotomic_record(target: str, tag: str) -> dict:
    return {
        "command": "verdict",
        "target": target,
        "preset": "cyclotomic_Fp",
        "verdict": "equivalence_all_degrees",
        "degree": None,
        "hypotheses": [
            f"membership class {tag}",
            "comparison fiber vanishes in all degrees on the classifying stack",
        ],
        "conclusion": "the comparison map is an equivalence in every degree",
        "schema": SCHEMA,
    }


def goodwillie_jones_record(target: str) -> dict:
    return {
        "command": "verdict",
        "target": target,
        "preset": "goodwillie_jones_Q",
        "verdict": "iso_in_degree",
        "degree": 0,
        "hypotheses": [
            "membership class B",
            "comparison fiber vanishes in degrees 0 and -1 on the classifying stack",
        ],
        "conclusion": "the comparison map is an isomorphism in degree 0",
        "schema": SCHEMA,
    }


def table_lookup(rows, degree: int) -> dict:
    """Value of a user table given as (degree, free, factors, rational) rows."""
    for d, free, factors, rational in rows:
        if d == degree:
            return group(free, factors, rational)
    return group()


def report_records(target: str, rank: int, kh_rows, hcm_rows, lo: int, hi: int) -> list[dict]:
    """report rows: K = KH + HC^- above degree 0, K = KH in degree 0, and
    K = 0 below; KH is the kh table times the rank, HC^- the table itself."""
    out = []
    for d in range(lo, hi + 1):
        kh = tensor(table_lookup(kh_rows, d), rank)
        hcm = table_lookup(hcm_rows, d)
        if d >= 1:
            k, rule = direct_sum(kh, hcm), "split decomposition"
        elif d == 0:
            k, rule = kh, "degree-zero trace isomorphism"
        else:
            k, rule = group(), "class-B vanishing below degree zero"
        out.append(
            {
                "command": "report",
                "target": target,
                "degree": d,
                "k": k,
                "kh": kh,
                "hcminus": hcm,
                "rule": rule,
                "schema": SCHEMA,
            }
        )
    return out


def shipped_node_records() -> list[dict]:
    """scripts/node.slc: Z^2 in degree 0, Z in degree -1 (acceptance
    criterion 1), refuted out of class B by that degree -1 class."""
    flags = ["degreewise blowup long exact sequences"]
    values = {0: group(2), -1: group(1)}
    return (
        [classify_record("x", "C", b_refuted=group(1))]
        + [compute_record("x", "unit", d, flags, values.get(d, group())) for d in range(-3, 1)]
        + [cyclotomic_record("x", "C")]
    )


# the rows of scripts/tables/kh_q.tbl and scripts/tables/hcminus_cone.tbl
KH_Q_ROWS = [(0, 1, (), True), (1, 1, (), True), (5, 1, (), True)]
HCMINUS_CONE_ROWS = [(0, 1, (), True), (1, 1, (), True), (3, 1, (), True), (5, 1, (), True)]


def shipped_cone_records() -> list[dict]:
    """scripts/cone_of_p1.slc: the cone of P^1 has rank 3 (acceptance
    criterion 2); affine(2, mu=(2, 0)) consumes one rank oracle at its root."""
    flags = ["class-B formality over table 'khq'"]
    return (
        [
            classify_record("c", "B"),
            classify_record("a", "B", assumed_oracles=["(root)"]),
        ]
        + [
            compute_record("c", "khq", d, flags, tensor(table_lookup(KH_Q_ROWS, d), 3))
            for d in range(-2, 7)
        ]
        + report_records("c", 3, KH_Q_ROWS, HCMINUS_CONE_ROWS, -2, 6)
        + [goodwillie_jones_record("c"), parshin_record("c", 3)]
    )


# ---------------------------------------------------------------------------
# Schubert varieties: brute-force cell counts and the oracle paths of the
# documented constructions


def finite_schubert_expectation(n: int, d: int, j_seq):
    """(rank thunk, oracle paths in walk order, in degree-0 order).

    For d >= 1 the tree is a descent at the root whose rank oracle is the
    number of coordinate d-planes meeting the bounds."""

    def rank() -> int:
        from simploc.schubert import FiniteSchubertDatum, brute_force_cell_count_finite

        return brute_force_cell_count_finite(FiniteSchubertDatum(n, d, tuple(j_seq)))

    return rank, ["(root)"], ["(root)"]


def column_heights(mu) -> list[int]:
    """Column heights of the partition mu shifted to end in zero."""
    shift = -mu[-1] if mu[-1] < 0 else 0
    shifted = [a + shift for a in mu]
    return [sum(1 for a in shifted if a >= col) for col in range(1, shifted[0] + 1)]


def affine_schubert_expectation(n: int, mu):
    """(rank thunk, oracle paths in walk order, in degree-0 order).

    One Demazure step per column: a point for no columns, Gr(n, k) for one,
    otherwise a descent at every level but the last, each two tree levels
    below the previous one (descent -> flag bundle -> shorter tree)."""
    ks = column_heights(mu)
    if not ks:
        return (lambda: 1), [], []
    if len(ks) == 1:
        return (lambda: comb(n, ks[0])), [], []

    def rank() -> int:
        from simploc.schubert import CoweightDatum, brute_force_affine_cell_count

        return brute_force_affine_cell_count(CoweightDatum(n, tuple(mu)))

    paths = ["/".join(["0"] * (2 * level)) or "(root)" for level in range(len(ks) - 1)]
    return rank, paths, paths[::-1]


# ---------------------------------------------------------------------------
# exact integer linear algebra


def _eliminate(matrix) -> tuple[int, int]:
    """Fraction-free (Bareiss) row echelon form; returns (rank, last pivot
    with the sign of the row swaps), the latter the determinant when square."""
    a = [list(r) for r in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    rank, prev, sign = 0, 1, 1
    for c in range(cols):
        pivot = next((r for r in range(rank, rows) if a[r][c]), None)
        if pivot is None:
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            sign = -sign
        p = a[rank][c]
        prow = a[rank]
        for r in range(rank + 1, rows):
            row = a[r]
            f = row[c]
            for j in range(c + 1, cols):
                row[j] = (row[j] * p - f * prow[j]) // prev
            row[c] = 0
        prev = p
        rank += 1
    return rank, sign * prev


def rank_over_q(matrix) -> int:
    return _eliminate(matrix)[0]


def determinant(matrix) -> int:
    rank, last = _eliminate(matrix)
    return last if rank == len(matrix) else 0


def maximal_minor_gcd(matrix) -> int:
    """gcd of the maximal minors of a wide matrix: the order of the
    cokernel's torsion when the matrix has full row rank."""
    rows = len(matrix)
    cols = len(matrix[0])
    g = 0
    for keep in combinations(range(cols), rows):
        g = gcd(g, determinant([[row[j] for j in keep] for row in matrix]))
    return g


def rank_mod_p(matrix, p: int = 2**31 - 1) -> int:
    """Rank over F_p; a full rank here implies full rank over Q."""
    a = [[x % p for x in row] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    rank = 0
    for c in range(cols):
        pivot = next((r for r in range(rank, rows) if a[r][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][c], -1, p)
        prow = a[rank]
        for r in range(rank + 1, rows):
            f = a[r][c] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], prow)]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# comparison


def normalize(record: dict) -> dict:
    """Gather the group fields of compute and b_refuted into one value."""
    rec = dict(record)
    if rec.get("command") == "compute":
        rec["group"] = {k: rec.pop(k) for k in GROUP_KEYS}
    if rec.get("command") == "classify" and rec.get("b_refuted") is not None:
        b = dict(rec["b_refuted"])
        rec["b_refuted"] = {"degree": b.pop("degree"), "group": b}
    return rec


def mismatch(expected: list[dict], output: str) -> Optional[str]:
    """None when the printed records equal the expected ones, in order;
    otherwise a one-line description of the first difference."""
    lines = output.splitlines()
    if len(lines) != len(expected):
        return f"{len(lines)} records printed, {len(expected)} expected"
    for i, (want, line) in enumerate(zip(expected, lines)):
        try:
            got = normalize(json.loads(line))
        except (ValueError, KeyError) as exc:
            return f"record {i} is malformed: {exc}"
        if want != got:
            return f"record {i}: expected {want!r}, printed {line}"
    return None
