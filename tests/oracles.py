"""Independent brute-force oracles and random tree builders for the suite.

Everything here recomputes expected values by a different route than the
library: quotient groups by representative enumeration or determinantal
divisors, matrix ranks by fraction-free elimination, graded values by
degreewise summand bookkeeping instead of formality.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import factorial, gcd

from simploc.coeff import (
    ZERO_GROUP,
    CoefficientTable,
    FgAbGroup,
    direct_sum,
    snf,
    summand_complement,
    tensor_with_free,
)
from simploc.dsl import (
    _ROOT,
    Blowup,
    BundleDatum,
    Disjoint,
    FlagBundle,
    Point,
    SheafDatum,
    StratifiedDescent,
    Tree,
    children,
    classify,
    walk,
)
from simploc.engine import DegreeWindow, InconsistentDataError, UnderdeterminedError, Verdict
from simploc.group_rep import GroupDatum
from simploc.script import ScriptError, Token


# ---------------------------------------------------------------------------
# matrix helpers


def matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def rank_over_q(matrix) -> int:
    """Row reduction over the rationals; independent of the Smith form code."""
    m = [[Fraction(x) for x in row] for row in matrix]
    if not m or not m[0]:
        return 0
    rows, cols = len(m), len(m[0])
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(rows):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * p for v, p in zip(m[r], m[rank])]
        rank += 1
    return rank


def det_over_q(matrix) -> Fraction:
    """Determinant of a square matrix by elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            if m[r][col] != 0:
                f = m[r][col] / m[col][col]
                m[r] = [v - f * p for v, p in zip(m[r], m[col])]
    return det


def determinantal_factors(matrix) -> list[int]:
    """Invariant factors through gcds of k x k minors (determinantal
    divisors); brute-force enumeration of all minors."""
    from itertools import combinations

    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    r = rank_over_q(matrix)
    divisors = [1]
    for k in range(1, r + 1):
        g = 0
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                sub = [[matrix[i][j] for j in csel] for i in rsel]
                g = gcd(g, _int_det(sub))
        divisors.append(g)
    return [divisors[k] // divisors[k - 1] for k in range(1, r + 1)]


def _int_det(m) -> int:
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _int_det(minor)
    return total


def quotient_census(matrix) -> tuple[int, dict[int, int]]:
    """Order and element-order census of Z^m / column span, for a square
    full-rank matrix.

    A vector lies in the column lattice iff A^{-1} v is integral, so the
    fractional part of A^{-1} v is a complete coset invariant; |det| Z^m is
    inside the lattice, so a [0, |det|)^m box hits every coset.
    """
    m = len(matrix)
    det = _int_det(matrix)
    if det == 0:
        raise ValueError("quotient is infinite")
    inv = _fraction_inverse(matrix)
    size = abs(det)

    def coset_key(vec) -> tuple[Fraction, ...]:
        img = [sum(inv[i][j] * vec[j] for j in range(m)) for i in range(m)]
        return tuple(f - f.__floor__() for f in img)

    reps: dict[tuple[Fraction, ...], tuple[int, ...]] = {}
    for vec in product(range(size), repeat=m):
        key = coset_key(vec)
        if key not in reps:
            reps[key] = vec
    orders: dict[int, int] = {}
    for key, vec in reps.items():
        k = 1
        while any(f * k % 1 for f in key):
            k += 1
        orders[k] = orders.get(k, 0) + 1
    return len(reps), orders


def _fraction_inverse(matrix):
    n = len(matrix)
    aug = [
        [Fraction(matrix[i][j]) for j in range(n)]
        + [Fraction(1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * p for v, p in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def group_order_census(g: FgAbGroup) -> dict[int, int]:
    """Element-order census of a finite descriptor by direct enumeration."""
    if g.free_rank or g.rational:
        raise ValueError("finite groups only")
    orders: dict[int, int] = {}
    for elem in product(*(range(f) for f in g.invariant_factors)):
        k = 1
        while any((k * e) % f for e, f in zip(elem, g.invariant_factors)):
            k += 1
        orders[k] = orders.get(k, 0) + 1
    return orders


# ---------------------------------------------------------------------------
# degreewise oracle: raw (rank, factors) bookkeeping, no formality


def _raw(g: FgAbGroup) -> tuple[int, tuple[int, ...], bool]:
    return (g.free_rank, tuple(sorted(g.invariant_factors)), g.rational)


def _raw_sum(a, b):
    ra, fa, qa = a
    rb, fb, qb = b
    if (ra or fa) and (rb or fb) and qa != qb:
        raise ValueError("mixed coefficients")
    return (ra + rb, tuple(sorted(fa + fb)), qa or qb)


def _raw_cancel(total, part):
    rt, ft, qt = total
    rp, fp, _ = part
    remaining = list(ft)
    for f in fp:
        remaining.remove(f)
    return (rt - rp, tuple(sorted(remaining)), qt)


RAW_ZERO = (0, (), False)


def degreewise_value(tree: Tree, table: CoefficientTable, degree: int):
    """Per-degree value of a class-B tree by direct summand bookkeeping.

    Walks the tree at a single degree: disjoint unions and flag-bundle
    pieces accumulate by repeated summing, split squares by cancellation.
    Never consults the degree-zero rank or the formality shape.
    """
    if isinstance(tree, Point):
        return _raw(table.group_at(degree))
    if isinstance(tree, Disjoint):
        acc = RAW_ZERO
        for child in tree.children:
            acc = _raw_sum(acc, degreewise_value(child, table, degree))
        return acc
    if isinstance(tree, FlagBundle):
        base = degreewise_value(tree.base, table, degree)
        pieces = _tower_pieces(tree.bundle.rank, tree.d_vec)
        acc = RAW_ZERO
        for _ in range(pieces):
            acc = _raw_sum(acc, base)
        return acc
    if isinstance(tree, StratifiedDescent):
        if tree.oracle_rank is None:
            raise ValueError("oracle-free descent")
        point_val = _raw(table.group_at(degree))
        acc = RAW_ZERO
        for _ in range(tree.oracle_rank):
            acc = _raw_sum(acc, point_val)
        return acc
    if isinstance(tree, Blowup):
        assert tree.split is not None, "degreewise oracle covers split squares"
        vals = {label: degreewise_value(t, table, degree) for label, t in tree.known}
        if tree.unknown_corner == "X":
            return _raw_cancel(_raw_sum(vals["Y"], vals["Z"]), vals["E"])
        if tree.unknown_corner == "E":
            return _raw_cancel(_raw_sum(vals["Y"], vals["Z"]), vals["X"])
        if tree.unknown_corner == "Y":
            return _raw_cancel(_raw_sum(vals["X"], vals["E"]), vals["Z"])
        return _raw_cancel(_raw_sum(vals["X"], vals["E"]), vals["Y"])
    raise TypeError(tree)


def _tower_pieces(rank: int, d_vec) -> int:
    """Product of binomial piece counts along the unit-step tower; written
    as the iterated product rather than one multinomial."""
    from math import comb

    pieces = 1
    left = rank
    for d in d_vec:
        pieces *= comb(left, d)
        left -= d
    return pieces


# ---------------------------------------------------------------------------
# random class-B trees


def random_class_b_tree(rng: random.Random, group: GroupDatum, depth: int) -> Tree:
    """Random tree using only class-B-preserving constructors.

    Blowup corners are arranged so the cancellation rank is non-negative:
    the subtracted corner duplicates one of the summed corners.
    """
    if depth <= 0:
        return Point()
    kind = rng.choice(("point", "disjoint", "flag", "blowup", "descent", "flag"))
    if kind == "point":
        return Point()
    if kind == "disjoint":
        n = rng.randint(1, 3)
        return Disjoint(
            tuple(random_class_b_tree(rng, group, depth - 1) for _ in range(n))
        )
    if kind == "flag":
        rank = rng.randint(1, 4)
        total = rng.randint(1, rank)
        d_vec = []
        while total:
            step = rng.randint(1, total)
            d_vec.append(step)
            total -= step
        chars = None
        if group.free_rank >= rank and not group.finite_orders and rng.random() < 0.5:
            chars = tuple(group.basis_character(i) for i in range(rank))
        return FlagBundle(
            random_class_b_tree(rng, group, depth - 1),
            BundleDatum(rank, split_characters=chars),
            tuple(d_vec),
        )
    if kind == "blowup":
        a = random_class_b_tree(rng, group, depth - 1)
        b = random_class_b_tree(rng, group, depth - 1)
        split = rng.choice(("retraction", "section"))
        unknown = rng.choice(("X", "E"))
        if unknown == "X":
            known = (("Y", a), ("Z", b), ("E", rng.choice((a, b))))
        else:
            known = (("Y", a), ("Z", b), ("X", rng.choice((a, b))))
        return Blowup(known, unknown, split)
    # descent with a consistent oracle below the tower rank
    total = random_class_b_tree(rng, group, depth - 1)
    from simploc.engine import compute_degree0

    rank = compute_degree0(total, group).rank
    oracle = rng.randint(0, rank)
    d = rng.randint(1, 2)
    return StratifiedDescent(
        total_space=total,
        sheaf=SheafDatum(generic_rank=d, presentation_ranks=(d + 1, d + 1)),
        d_vec=(d,),
        oracle_rank=oracle,
    )


# ---------------------------------------------------------------------------
# sharing: copies without shared nodes, path-by-path references


def unshare(tree: Tree) -> Tree:
    """Copy of a DAG with a distinct node object at every path."""
    if isinstance(tree, Disjoint):
        return Disjoint(tuple(unshare(c) for c in tree.children))
    if isinstance(tree, FlagBundle):
        return replace(tree, base=unshare(tree.base))
    if isinstance(tree, StratifiedDescent):
        return replace(tree, total_space=unshare(tree.total_space))
    if isinstance(tree, Blowup):
        return replace(tree, known=tuple((label, unshare(t)) for label, t in tree.known))
    return replace(tree)


def preorder_oracle_paths(tree: Tree) -> tuple[str, ...]:
    """Descent nodes declaring a rank, one entry per path, parents first."""
    return tuple(
        path or "(root)"
        for path, node in walk(tree)
        if isinstance(node, StratifiedDescent) and node.oracle_rank is not None
    )


def degree0_oracle_paths(tree: Tree, path: str = "") -> tuple[str, ...]:
    """The same paths children first, the order a degree-0 recursion
    consumes the declared ranks in."""
    out: list[str] = []
    for i, child in enumerate(children(tree)):
        out.extend(degree0_oracle_paths(child, f"{path}/{i}" if path else str(i)))
    if isinstance(tree, StratifiedDescent) and tree.oracle_rank is not None:
        out.append(path or "(root)")
    return tuple(out)


# ---------------------------------------------------------------------------
# class-C reference: the degreewise solver as a per-path recursion


def _child_path(path: str, index: int) -> str:
    return f"{path}/{index}" if path else str(index)


def _rank_by_path(tree: Tree, path: str) -> tuple[int, tuple[str, ...]]:
    """Class-B degree-0 rank and consumed oracle paths, children first, by
    recursion along every path; the engine's error messages."""
    kids = [_rank_by_path(child, _child_path(path, i)) for i, child in enumerate(children(tree))]
    oracles = tuple(p for _, below in kids for p in below)
    if isinstance(tree, Point):
        return 1, ()
    if isinstance(tree, Disjoint):
        return sum(rank for rank, _ in kids), oracles
    if isinstance(tree, FlagBundle):
        return kids[0][0] * _tower_pieces(tree.bundle.rank, tree.d_vec), oracles
    if isinstance(tree, StratifiedDescent):
        if tree.oracle_rank is None:
            raise UnderdeterminedError(
                "rank undetermined: summand certificate only "
                f"(descent node {path or '(root)'} declares no oracle rank)"
            )
        if tree.oracle_rank > kids[0][0]:
            raise InconsistentDataError(
                f"oracle rank {tree.oracle_rank} exceeds the total-space rank {kids[0][0]}"
            )
        return tree.oracle_rank, oracles + (path or "(root)",)
    ranks = {label: rank for (label, _), (rank, _) in zip(tree.known, kids)}
    if tree.unknown_corner in ("X", "E"):
        rank = ranks["Y"] + ranks["Z"] - ranks["E" if tree.unknown_corner == "X" else "X"]
    else:
        rank = ranks["X"] + ranks["E"] - ranks["Z" if tree.unknown_corner == "Y" else "Y"]
    if rank < 0:
        raise InconsistentDataError("inconsistent split data: negative rank")
    return rank, oracles


def explicit_window_by_path(tree: Tree, table: CoefficientTable, lo: int, hi: int, path: str = ""):
    """Degreewise values of a class-C tree with trivial group, solved along
    every path separately: a shared subtree is solved once per path, each
    non-split square reads its corners on [lo - 1, hi + 1], and each
    comparison map is factored once as phi_{i+1} (for the cokernel) and again
    as phi_i (for the kernel).  Returns a DegreeWindow; raises the engine's
    errors with its messages, in depth-first order.
    """
    floor = table.min_degree
    if floor is None:
        raise UnderdeterminedError(
            f"table {table.name!r} is unbounded below; degreewise solving needs "
            "bounded-below coefficients"
        )
    if classify(tree).tag == "B":
        rank, oracles = _rank_by_path(tree, path)
        lo = min(lo, floor)
        values = tuple((d, tensor_with_free(table.group_at(d), rank)) for d in range(lo, hi + 1))
        return DegreeWindow(values, lo, hi, oracles)
    if isinstance(tree, StratifiedDescent):
        raise UnderdeterminedError(
            "stratified descent under non-split data gives a summand certificate only"
        )
    if isinstance(tree, Blowup) and tree.split is None:
        return _les_by_path(tree, table, lo, hi, path)
    subs = [
        explicit_window_by_path(child, table, lo, hi, _child_path(path, i))
        for i, child in enumerate(children(tree))
    ]
    oracles = tuple(p for w in subs for p in w.assumed_oracles)
    lo = min(w.lo for w in subs)
    values = []
    for d in range(lo, hi + 1):
        if isinstance(tree, Disjoint):
            values.append(direct_sum(*(w.value_at(d) for w in subs)))
        elif isinstance(tree, FlagBundle):
            pieces = _tower_pieces(tree.bundle.rank, tree.d_vec)
            values.append(tensor_with_free(subs[0].value_at(d), pieces))
        else:
            at = {label: w.value_at(d) for (label, _), w in zip(tree.known, subs)}
            if tree.unknown_corner in ("X", "E"):
                total, part = direct_sum(at["Y"], at["Z"]), at["E" if tree.unknown_corner == "X" else "X"]
            else:
                total, part = direct_sum(at["X"], at["E"]), at["Z" if tree.unknown_corner == "Y" else "Y"]
            try:
                values.append(summand_complement(total, part))
            except ValueError as exc:
                raise InconsistentDataError(f"inconsistent split data: {exc}") from None
    return DegreeWindow(tuple(zip(range(lo, hi + 1), values)), lo, hi, oracles)


def _les_by_path(square: Blowup, table: CoefficientTable, lo: int, hi: int, path: str):
    if square.unknown_corner != "X":
        raise UnderdeterminedError("non-split squares are solved for the base corner only")
    corners = {
        label: explicit_window_by_path(corner, table, lo - 1, hi + 1, _child_path(path, i))
        for i, (label, corner) in enumerate(square.known)
    }
    oracles = tuple(p for w in corners.values() for p in w.assumed_oracles)
    kinds = {g.rational for w in corners.values() for _, g in w.values if not g.is_zero}
    if len(kinds) > 1:
        raise InconsistentDataError("corners mix integral and rational coefficients")
    rational = kinds.pop() if kinds else False

    def free(label: str, what: str, degree: int) -> int:
        g = corners[label].value_at(degree)
        if g.invariant_factors:
            raise UnderdeterminedError(
                f"{what} has torsion in degree {degree}; the matrix solver covers free corners only"
            )
        return g.free_rank

    def phi(degree: int):
        src = free("Y", "cover corner", degree) + free("Z", "center corner", degree)
        tgt = free("E", "exceptional corner", degree)
        if src == 0 or tgt == 0:
            return None, src, tgt
        matrix = square.map_at(degree)
        if matrix is None:
            raise UnderdeterminedError(
                f"underdetermined LES: missing comparison map in degree {degree}"
            )
        if len(matrix) != tgt or any(len(row) != src for row in matrix):
            raise InconsistentDataError(f"comparison map in degree {degree} must be {tgt} x {src}")
        return matrix, src, tgt

    bottom = min(lo, min(w.lo for w in corners.values()) - 1)
    values = []
    for degree in range(hi, bottom - 1, -1):
        above, _, tgt_above = phi(degree + 1)
        here, src_here, _ = phi(degree)
        if not tgt_above:
            coker = ZERO_GROUP
        elif above is None:
            coker = FgAbGroup(tgt_above, (), rational)
        else:
            coker = snf([list(r) for r in above]).cokernel()
            if rational:
                coker = FgAbGroup(coker.free_rank, (), True)
        ker_rank = snf([list(r) for r in here]).kernel_rank() if here is not None else src_here
        values.append((degree, direct_sum(coker, FgAbGroup(ker_rank, (), rational) if ker_rank else ZERO_GROUP)))
    return DegreeWindow(tuple(reversed(values)), bottom, hi, oracles)


# ---------------------------------------------------------------------------
# script tokenizer: the character-by-character scanner the one-pattern
# tokenizer replaced


def tokenize_line_reference(text: str, line: int) -> list[Token]:
    out: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        if ch == "#":
            break
        col = i + 1
        if ch == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise ScriptError("unterminated string", line, col)
            out.append(Token("STRING", text[i + 1 : j], line, col))
            i = j + 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            out.append(Token("INT", text[i:j], line, col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Token("IDENT", text[i:j], line, col))
            i = j
            continue
        if text.startswith("..", i):
            out.append(Token("DOTDOT", "..", line, col))
            i += 2
            continue
        kinds = {
            "(": "LPAREN",
            ")": "RPAREN",
            "[": "LBRACKET",
            "]": "RBRACKET",
            "=": "EQ",
            ",": "COMMA",
            ":": "COLON",
        }
        if ch in kinds:
            out.append(Token(kinds[ch], ch, line, col))
            i += 1
            continue
        raise ScriptError(f"unexpected character {ch!r}", line, col)
    out.append(Token("END", "", line, len(text) + 1))
    return out


# ---------------------------------------------------------------------------
# the recursive affine tower construction the bottom-up loop replaced


def affine_schubert_tree_recursive(datum, group: GroupDatum) -> Tree:
    """One recursion per minuscule step: a Grassmannian bundle over the tree
    of the coweight with its largest column removed, descending with the
    fixed-lattice count as oracle."""
    from simploc.schubert import (
        CoweightDatum,
        _require_torus,
        affine_cell_count,
        minuscule_decomposition,
    )

    _require_torus(group, datum.n)
    ks, _ = minuscule_decomposition(datum)
    if not ks:
        return Point()
    if len(ks) == 1:
        return FlagBundle(Point(), BundleDatum(datum.n), (ks[0],))
    m = -datum.mu[-1] if datum.mu[-1] < 0 else 0
    shifted = [a + m for a in datum.mu]
    shorter = CoweightDatum(
        datum.n, tuple((a - 1 if i < ks[0] else a) - m for i, a in enumerate(shifted))
    )
    below = affine_schubert_tree_recursive(shorter, group)
    cover = FlagBundle(below, BundleDatum(datum.n), (ks[0],))
    quotient_rank = sum(datum.mu) + m * datum.n
    return StratifiedDescent(
        total_space=cover,
        sheaf=SheafDatum(generic_rank=ks[0], presentation_ranks=(quotient_rank, quotient_rank)),
        d_vec=(ks[0],),
        oracle_rank=affine_cell_count(datum),
    )


# ---------------------------------------------------------------------------
# the fixed-lattice count the one-pass stack replaced


def affine_cell_count_reference(datum) -> int:
    """Number of fixed lattices: integer vectors with the same total whose
    dominant rearrangement is bounded by mu in dominance order.

    Enumerates dominant representatives below mu by a partial-sum-bounded
    recursion (dominance pins every entry into [mu_n, mu_1]) and counts the
    distinct rearrangements of each.
    """
    mu = datum.mu
    n = datum.n
    total = sum(mu)
    prefix = [0]
    for a in mu:
        prefix.append(prefix[-1] + a)

    def perms(shape: list[int]) -> int:
        out = factorial(n)
        run = 1
        for i in range(1, n):
            if shape[i] == shape[i - 1]:
                run += 1
            else:
                out //= factorial(run)
                run = 1
        out //= factorial(run)
        return out

    count = 0
    stack: list[tuple[list[int], int]] = [([], 0)]
    while stack:
        shape, partial = stack.pop()
        k = len(shape)
        if k == n:  # complete shapes are pushed with partial == total
            count += perms(shape)
            continue
        hi = min(shape[-1] if shape else mu[0], prefix[k + 1] - partial)
        remaining = n - k - 1
        if not remaining:
            # the last entry is forced
            if mu[-1] <= total - partial <= hi:
                stack.append((shape + [total - partial], total))
            continue
        for v in range(hi, mu[-1] - 1, -1):
            rest = total - partial - v
            if rest > remaining * v or rest < remaining * mu[-1]:
                continue
            stack.append((shape + [v], partial + v))
    return count


# ---------------------------------------------------------------------------
# torsion canonicalization by trial division, the routine the coprime-base
# refinement replaced


def canonical_chain_reference(factors) -> tuple[int, ...]:
    """Split every factor into prime powers by trial division, then stack
    each prime's powers from the largest down."""
    by_prime: dict[int, list[int]] = {}
    for f in factors:
        n = abs(f)
        if n in (0, 1):
            continue
        d = 2
        while d * d <= n:
            if n % d == 0:
                e = 0
                while n % d == 0:
                    n //= d
                    e += 1
                by_prime.setdefault(d, []).append(d**e)
            d += 1
        if n > 1:
            by_prime.setdefault(n, []).append(n)
    for powers in by_prime.values():
        powers.sort(reverse=True)
    depth = max((len(p) for p in by_prime.values()), default=0)
    chain = []
    for level in range(depth - 1, -1, -1):
        val = 1
        for powers in by_prime.values():
            if level < len(powers):
                val *= powers[level]
        chain.append(val)
    return tuple(chain)


# ---------------------------------------------------------------------------
# children-first path order: the sort by integer path components that the
# one-pass stack over preorder paths replaced


def children_first_reference(paths) -> tuple[str, ...]:
    inf = float("inf")
    return tuple(
        sorted(paths, key=lambda p: [inf] if p == _ROOT else [*map(int, p.split("/")), inf])
    )


# ---------------------------------------------------------------------------
# degree tables of `compute` and `report`: the per-degree rendering the
# distinct-row renderer replaced (both formats built, every row dumped)


class _LinesReference:
    def __init__(self, fmt: str):
        self.fmt = fmt
        self.lines: list[str] = []

    def text(self, line: str) -> None:
        if self.fmt == "text":
            self.lines.append(line)

    def record(self, **fields) -> None:
        if self.fmt == "records":
            fields["schema"] = "simploc.records/1"
            self.lines.append(json.dumps(fields, sort_keys=True))


def _fields_reference(g: FgAbGroup) -> dict:
    return {
        "free_rank": g.free_rank,
        "invariant_factors": list(g.invariant_factors),
        "rational": g.rational,
    }


def compute_lines_reference(fmt, target, tree_class, table, value, lo, hi) -> list[str]:
    out = _LinesReference(fmt)
    flags = list(value.provenance) + [f"oracle:{p}" for p in value.assumed_oracles]
    out.text(f"{target} [class {tree_class.describe()}; table {table.name}]")
    for degree in range(lo, hi + 1):
        g = value.value_at(degree)
        out.text(f"  degree {degree}: {g.describe()}")
        out.record(
            command="compute",
            target=target,
            table=table.name,
            degree=degree,
            flags=sorted(flags),
            **_fields_reference(g),
        )
    for flag in flags:
        out.text(f"  provenance: {flag}")
    return out.lines


def report_lines_reference(fmt, target, kh_value, kh_table, hcm_table, split, lo, hi):
    """Lines of `report`, and the message of the ValueError that stopped it
    (None if none)."""
    out = _LinesReference(fmt)
    out.text(f"{target} report [class B; kh={kh_table.name}; hcminus={hcm_table.name}]")
    out.text("  degree | K | KH | HC^-")
    for degree in range(lo, hi + 1):
        kh_g = kh_value.value_at(degree)
        hcm_g = hcm_table.group_at(degree)
        if degree >= 1:
            try:
                k_g = direct_sum(kh_g, hcm_g)
            except ValueError as exc:
                return out.lines, str(exc)
            rule = "split decomposition"
        elif degree == 0:
            k_g = kh_g
            rule = "degree-zero trace isomorphism"
        else:
            k_g = FgAbGroup(0)
            rule = "class-B vanishing below degree zero"
        out.text(f"  {degree} | {k_g.describe()} | {kh_g.describe()} | {hcm_g.describe()}")
        out.record(
            command="report",
            target=target,
            degree=degree,
            k=_fields_reference(k_g),
            kh=_fields_reference(kh_g),
            hcminus=_fields_reference(hcm_g),
            rule=rule,
        )
    if isinstance(split, Verdict):
        for h in split.hypotheses:
            out.text(f"  hypothesis: {h}")
    for p in kh_value.assumed_oracles:
        out.text(f"  assumed oracle at {p}")
    return out.lines, None
