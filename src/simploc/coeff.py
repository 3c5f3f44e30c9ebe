"""Graded coefficient tables and exact arithmetic on f.g. abelian groups.

Degreewise homotopy groups are carried as Smith-form descriptors (free rank
plus a divisibility chain of invariant factors).  A rational flag means
"tensor with Q": the free rank survives and torsion is annihilated.  Smith
normal form over Z is the workhorse for kernel/cokernel extraction in the
exact-sequence solver; its unimodular transforms are eliminated only when
read.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import gcd


# ---------------------------------------------------------------------------
# finitely generated abelian groups


def _coprime_base(values) -> list[int]:
    """Pairwise coprime integers > 1 of which every value (each > 1) is a
    product of powers: gcd factor refinement, no factoring.  Inserting x
    next to a base element b sharing g = gcd(x, b) > 1 replaces b by the
    pieces b/g, g and x/g, which are inserted in turn; the product of the
    base and the pending pieces drops by g each time, so this ends.
    """
    base: list[int] = []
    pending = list(values)
    while pending:
        x = pending.pop()
        for i, b in enumerate(base):
            g = gcd(x, b)
            if g > 1:
                base[i] = base[-1]
                base.pop()
                pending.extend(piece for piece in (b // g, g, x // g) if piece > 1)
                break
        else:
            base.append(x)
    return base


def _primary_parts(value: int, base: list[int]) -> list[tuple[int, int]]:
    """(b, b^e) for each base element b dividing value, where b^e is the
    power of b in it; value is the product of these powers."""
    parts = []
    for b in base:
        q = 1
        while value % b == 0:
            value //= b
            q *= b
        if q > 1:
            parts.append((b, q))
    return parts


def _canonical_chain(factors: tuple[int, ...]) -> tuple[int, ...]:
    """Merge arbitrary torsion factors into the canonical divisibility chain.

    Splits every factor into powers of a coprime base of the distinct
    factors, then for each base element stacks its powers from the largest
    down, so factor k divides factor k+1 (the same chain as stacking prime
    powers, since a base element's primes all rise with its exponent).
    """
    counts = Counter(abs(f) for f in factors)
    del counts[0], counts[1]
    if not counts:
        return ()
    base = _coprime_base(counts)
    stacks: dict[int, list[int]] = {b: [] for b in base}
    for value, n in counts.items():
        for b, q in _primary_parts(value, base):
            stacks[b] += [q] * n
    depth = max(len(powers) for powers in stacks.values())
    chain = [1] * depth
    for powers in stacks.values():
        powers.sort()
        for level, q in enumerate(powers, start=depth - len(powers)):
            chain[level] *= q
    return tuple(chain)


@dataclass(frozen=True)
class FgAbGroup:
    """Z^free_rank plus torsion in canonical Smith form.

    Equality of descriptors is isomorphism of groups.  With rational=True the
    descriptor stands for a Q-vector space of the given rank.
    """

    free_rank: int
    invariant_factors: tuple[int, ...] = ()
    rational: bool = False

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free_rank must be non-negative")
        torsion = self.invariant_factors if not self.rational else ()
        # a chain already canonical (each factor > 1 dividing the next) is kept
        prev = 1
        for factor in torsion:
            if factor <= 1 or factor % prev:
                torsion = _canonical_chain(torsion)
                break
            prev = factor
        object.__setattr__(self, "invariant_factors", tuple(torsion))
        # there is one zero group: a cancelled Q-space is the integral 0
        object.__setattr__(self, "rational", self.rational and self.free_rank > 0)

    @property
    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def describe(self) -> str:
        unit = "Q" if self.rational else "Z"
        parts = []
        if self.free_rank == 1:
            parts.append(unit)
        elif self.free_rank > 1:
            parts.append(f"{unit}^{self.free_rank}")
        parts += [f"Z/{f}" for f in self.invariant_factors]
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"FgAbGroup({self.describe()})"


ZERO_GROUP = FgAbGroup(0)
Z = FgAbGroup(1)
Q = FgAbGroup(1, rational=True)


def direct_sum(*groups: FgAbGroup) -> FgAbGroup:
    """Direct sum, recanonicalized.  Mixing Z- and Q-descriptors is rejected:
    the rational flag is a global coefficient choice, not a summand."""
    groups = [g for g in groups if not g.is_zero]
    if not groups:
        return ZERO_GROUP
    rational = groups[0].rational
    if any(g.rational != rational for g in groups):
        raise ValueError("cannot mix integral and rational descriptors in a sum")
    free = sum(g.free_rank for g in groups)
    factors: list[int] = []
    for g in groups:
        factors.extend(g.invariant_factors)
    return FgAbGroup(free, tuple(factors), rational)


def tensor_with_free(group: FgAbGroup, rank: int) -> FgAbGroup:
    """Tensor with Z^rank: every summand is repeated rank times."""
    if rank < 0:
        raise ValueError("rank must be non-negative")
    if rank == 0 or group.is_zero:
        return ZERO_GROUP
    torsion = group.invariant_factors * rank if group.invariant_factors else ()
    return FgAbGroup(group.free_rank * rank, torsion, group.rational)


def rationalize(group: FgAbGroup) -> FgAbGroup:
    return FgAbGroup(group.free_rank, (), True)


def hom_rank(source: FgAbGroup, target: FgAbGroup) -> int:
    """Free rank of Hom(source, target): torsion maps nowhere free."""
    return source.free_rank * target.free_rank


def summand_complement(total: FgAbGroup, part: FgAbGroup) -> FgAbGroup:
    """The complement C with total = part + C, when it exists.

    Krull-Schmidt for f.g. abelian groups makes C well defined: the torsion
    cancels as multisets of primary parts, here the powers of a coprime base
    of both groups' factors (Z/6 = Z/2 + Z/3 cancels Z/2); raises if part is
    not a direct summand.
    """
    if total.rational != part.rational and not part.is_zero and not total.is_zero:
        raise ValueError("cannot cancel between integral and rational descriptors")
    free = total.free_rank - part.free_rank
    if free < 0:
        raise ValueError("free rank of summand exceeds the total")
    base = _coprime_base(set(total.invariant_factors + part.invariant_factors))
    remaining = Counter(q for f in total.invariant_factors for _, q in _primary_parts(f, base))
    for f in part.invariant_factors:
        needed = Counter(q for _, q in _primary_parts(f, base))
        if needed - remaining:
            raise ValueError(f"torsion factor Z/{f} is not a summand of the total")
        remaining -= needed
    return FgAbGroup(free, tuple(remaining.elements()), total.rational)


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SmithForm:
    """L @ A @ R = D with L, R unimodular and D diagonal with a
    divisibility chain.  factors lists the nonzero diagonal entries.

    The transforms ``left`` (L) and ``right`` (R) are eliminated on first
    read, by the same elimination run again on the augmented matrix; the
    exact-sequence solver reads only ``cokernel`` and ``kernel_rank``."""

    factors: tuple[int, ...]
    rank: int
    rows: int
    cols: int
    matrix: tuple[tuple[int, ...], ...]

    @cached_property
    def _transforms(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        a, _ = _eliminate(self.matrix, augmented=True)
        left = tuple(tuple(row[self.cols :]) for row in a[: self.rows])
        return left, tuple(tuple(row) for row in a[self.rows :])

    @property
    def left(self) -> tuple[tuple[int, ...], ...]:
        return self._transforms[0]

    @property
    def right(self) -> tuple[tuple[int, ...], ...]:
        return self._transforms[1]

    def cokernel(self) -> FgAbGroup:
        """Z^rows / column span of A."""
        # the 1s lead the chain; dropping them spares FgAbGroup a census
        return FgAbGroup(self.rows - self.rank, self.factors[self.factors.count(1) :])

    def kernel_rank(self) -> int:
        return self.cols - self.rank

    def kernel_basis(self) -> list[list[int]]:
        """Columns of R spanning the kernel of A as a map Z^cols -> Z^rows."""
        return [
            [self.right[i][j] for i in range(self.cols)]
            for j in range(self.rank, self.cols)
        ]


def snf(matrix: list[list[int]]) -> SmithForm:
    """Smith normal form of an integer matrix, m x 0 and 0 x 0 included (a
    list of no rows has no columns).  Elimination runs on the bare matrix:
    the transforms are eliminated on first read of ``left`` or ``right``."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    for row in matrix:
        if len(row) != cols:
            raise ValueError("ragged matrix")
    source = tuple(tuple(int(x) for x in row) for row in matrix)
    a, rank = _eliminate(source, augmented=False)
    return SmithForm(tuple(a[i][i] for i in range(rank)), rank, rows, cols, source)


def _eliminate(matrix: tuple[tuple[int, ...], ...], augmented: bool) -> tuple[list[list[int]], int]:
    """Diagonalize A = matrix into Smith form; returns the eliminated matrix
    and the rank.

    With ``augmented`` elimination runs on [[A, I_rows], [I_cols, 0]]: a row
    operation on the first ``rows`` rows also updates the left transform,
    the block right of A, and a column operation on the first ``cols``
    columns also updates the right transform, the block below A; the zero
    block is never touched and not stored.  Pivots and steps depend on the
    A block only, so both runs leave it the same.

    Each pivot is the smallest |entry| of the block left to clear, first in
    row-major order.  Its column is cleared by row steps row_i -= q row_k
    with the nearest quotient q = (2b + p) // (2p) of entry b by pivot p
    (for either sign of p), so a remainder is at most half the pivot; while
    one is left, the smallest is swapped in as the pivot and the column is
    cleared again.  Then the pivot row is cleared the same way by column
    steps, which move only the pivot row and the right transform, as the
    pivot's column is clear; a remainder's column is swapped in and the
    column cleared again.  Every swap shrinks |pivot|, so this ends.  The
    small pivots and nearest quotients keep entries small (Havas, Majewski
    and Matthews, Experimental Math. 7, 1998): the transforms of the
    25 x 25 map of 18-bit entries in ``tests/test_coeff.py`` stay within
    53 bits, and 40 x 40 maps of entries in [-5, 5] factor in tens of ms.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    a = [list(row) for row in matrix]
    if augmented:
        for i, row in enumerate(a):
            row += [1 if i == j else 0 for j in range(rows)]
        a += [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    # the right transform's rows, none unless augmented
    right = a[rows:]

    def swap_cols(k: int, j: int) -> None:
        # the rows above k are zero from column k on
        for row in a[k:]:
            row[k], row[j] = row[j], row[k]

    def diagonalize(k: int) -> int:
        """Clear the block of A from (k, k) on; returns the rank."""
        while k < min(rows, cols):
            # the smallest |entry|, first in row-major order; a unit ends the search
            pivot, pi = 0, k
            for i in range(k, rows):
                least = min(filter(None, map(abs, a[i][k:cols])), default=0)
                if least and (not pivot or least < pivot):
                    pivot, pi = least, i
                    if least == 1:
                        break
            if not pivot:
                return k
            a[k], a[pi] = a[pi], a[k]
            swap_cols(k, next(j for j in range(k, cols) if abs(a[k][j]) == pivot))
            while True:
                # clear column k by row steps from column k on (the rows
                # below k are zero left of it); the least remainder pivots
                while True:
                    top = a[k]
                    p, tail, least = top[k], top[k:], 0
                    for i in range(k + 1, rows):
                        low = a[i]
                        b = low[k]
                        if b:
                            q = (2 * b + p) // (2 * p)
                            low[k:] = [t - q * s for s, t in zip(tail, low[k:])]
                            if low[k] and (not least or abs(low[k]) < abs(a[least][k])):
                                least = i
                    if not least:
                        break
                    a[k], a[least] = a[least], a[k]
                # clear row k by column steps; the least remainder's column
                # is swapped in and column k cleared again
                p, least = top[k], 0
                for j in range(k + 1, cols):
                    b = top[j]
                    if b:
                        q = (2 * b + p) // (2 * p)
                        top[j] = b - q * p
                        for row in right:
                            row[j] -= q * row[k]
                        if top[j] and (not least or abs(top[j]) < abs(top[least])):
                            least = j
                if not least:
                    break
                swap_cols(k, least)
            if top[k] < 0:
                top[k:] = [-v for v in top[k:]]
            k += 1
        return k

    rank = diagonalize(0)
    # enforce the chain a[i][i] | a[i+1][i+1]; each fix re-eliminates locally
    while True:
        bad = next((i for i in range(rank - 1) if a[i + 1][i + 1] % a[i][i]), None)
        if bad is None:
            break
        # fold the next diagonal entry into column bad, then re-clear
        for row in a:
            row[bad] += row[bad + 1]
        diagonalize(bad)

    return a, rank


# ---------------------------------------------------------------------------
# coefficient tables


def overlay_rows(pairs, lo: int, hi: int, cycle=(), count: int = 0, through=None) -> list:
    """The rows of degrees ``lo..hi``: the first ``count`` repeat ``cycle``,
    the rest are zero, and each (degree, row) of ``pairs``, sorted by degree,
    that lies inside the window is written over its degree.  ``through``, the
    identity if None, maps every row: it is called once per cycle entry, once
    for zero and once per pair inside the window, and only for a row that
    some degree shows, so a row no degree shows is never mapped."""
    width = hi - lo + 1
    # (d,) sorts before every pair (d, g), and the degrees are distinct
    inside = pairs[bisect_left(pairs, (lo,)) : bisect_left(pairs, (hi + 1,))]
    zero = ZERO_GROUP
    if through is not None:
        # a cycle entry, or the zero past the cycle (key -1), shows unless
        # the pairs over it cover every degree it fills
        covering: dict[int, int] = {}
        for d, _ in inside:
            key = (d - lo) % len(cycle) if d - lo < count else -1
            covering[key] = covering.get(key, 0) + 1
        if count:
            cycle = [
                through(g) if covering.get(j, 0) <= (count - 1 - j) // len(cycle) else g
                for j, g in enumerate(cycle)
            ]
        if covering.get(-1, 0) < width - count:
            zero = through(ZERO_GROUP)
    out = [zero] * width
    if count:
        out[:count] = (cycle * (count // len(cycle) + 1))[:count]
    for d, g in inside:
        out[d - lo] = g if through is None else through(g)
    return out


@dataclass(frozen=True)
class Periodicity:
    """Support repeats with the given period.  A two-sided witness is an
    invertible generator; one-sided (downward) periodicity comes from a
    non-invertible generator pushing the support toward lower degrees."""

    period: int
    generator: str
    two_sided: bool = True

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("period must be positive")


@dataclass(frozen=True)
class CoefficientTable:
    """A graded coefficient ring E_*(pt) as a degreewise table.

    degree_groups stores the explicit support window; degrees outside it are
    zero unless a periodicity witness extends the window.  Ring structure
    beyond named generators is not modelled.
    """

    name: str
    degree_groups: tuple[tuple[int, FgAbGroup], ...]
    periodicity: Periodicity | None = None
    generators: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        stored = dict(self.degree_groups)
        if len(stored) != len(self.degree_groups):
            raise ValueError("duplicate degree rows")
        # equal rows are kept as one object, so readers may tell rows apart by
        # identity; keyed by the fields, as the generated __hash__ is a
        # Python-level call
        shared: dict[tuple, FgAbGroup] = {}
        rows = (
            (d, shared.setdefault((g.free_rank, g.invariant_factors, g.rational), g))
            for d, g in stored.items()
            if not g.is_zero
        )
        object.__setattr__(self, "degree_groups", tuple(sorted(rows)))
        if not self.degree_groups or self.group_at(0).free_rank < 1:
            raise ValueError("degree-0 group must have free rank >= 1 (unital ring)")

    @cached_property
    def _stored(self) -> dict[int, FgAbGroup]:
        return dict(self.degree_groups)

    def group_at(self, degree: int) -> FgAbGroup:
        """Total lookup: zero outside the (possibly periodic) support.  A
        one-sided period repeats the stored window downwards only."""
        stored = self._stored
        if degree in stored:
            return stored[degree]
        if self.periodicity is None:
            return ZERO_GROUP
        lo = self.degree_groups[0][0]
        if self.periodicity.two_sided or degree < lo:
            return stored.get(lo + (degree - lo) % self.periodicity.period, ZERO_GROUP)
        return ZERO_GROUP

    def rows(self, lo: int, hi: int, through=None) -> list:
        """``[through(group_at(d)) for d in range(lo, hi + 1)]`` without a
        lookup per degree, ``through`` the identity if None: the periodic
        rows are one period's, repeated, and the stored rows inside the
        window are written over them (``overlay_rows``), so ``through`` is
        called at most period + stored + 1 times.  Equal rows are one
        object."""
        stored, periodicity = self.degree_groups, self.periodicity
        cycle, count = [], 0
        if periodicity is not None:
            first, period = stored[0][0], periodicity.period
            # a one-sided period repeats below the lowest stored degree only
            count = max(0, (hi if periodicity.two_sided else min(hi, first - 1)) - lo + 1)
            # each degree's row of the first period (stored rows past it
            # are written over it)
            get, degrees = self._stored.get, range(lo, lo + min(count, period))
            cycle = [get(first + (d - first) % period, ZERO_GROUP) for d in degrees]
        return overlay_rows(stored, lo, hi, cycle, count, through)

    @property
    def min_degree(self) -> int | None:
        """Lower support bound, or None when periodicity extends downward."""
        if self.periodicity is not None:
            return None
        return self.degree_groups[0][0]


_BUILTINS = {
    table.name: table
    for table in (
        CoefficientTable("unit", ((0, Z),)),
        CoefficientTable(
            "bott",
            ((0, Z),),
            periodicity=Periodicity(2, "beta", two_sided=True),
            generators=(("beta", 2),),
        ),
        CoefficientTable(
            "hcminus_rational",
            ((0, Q),),
            periodicity=Periodicity(2, "u", two_sided=False),
            generators=(("u", -2),),
        ),
        CoefficientTable("rational_deg0", ((0, Q),)),
    )
}


def builtin_table(name: str) -> CoefficientTable:
    """The built-in coefficient tables.

    unit: Z in degree 0 only.  bott: Z in every even degree with an
    invertible degree-2 generator.  hcminus_rational: Q in degrees
    0, -2, -4, ... with the non-invertible degree -2 generator u.
    rational_deg0: Q in degree 0 only.
    """
    if name not in _BUILTINS:
        raise LookupError(f"unknown builtin table {name!r} (choose from {tuple(_BUILTINS)})")
    return _BUILTINS[name]


def parse_table_file(name: str, text: str) -> CoefficientTable:
    """Parse a user coefficient table: one record per degree.

    Record format: ``<degree> <free_rank> [<factor> ...] [Q]`` with ``#``
    comments.  The Q flag marks the degree as rationalized (torsion dropped).
    """
    rows: list[tuple[int, FgAbGroup]] = []
    seen: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        rational = False
        if parts and parts[-1].upper() == "Q":
            rational = True
            parts = parts[:-1]
        if len(parts) < 2:
            raise ValueError(f"{name}:{lineno}: expected '<degree> <free_rank> ...'")
        try:
            degree = int(parts[0])
            group = FgAbGroup(int(parts[1]), tuple(int(p) for p in parts[2:]), rational)
        except ValueError as exc:
            raise ValueError(f"{name}:{lineno}: {exc}") from None
        if degree in seen:
            raise ValueError(f"{name}:{lineno}: duplicate degree {degree}")
        seen.add(degree)
        rows.append((degree, group))
    return CoefficientTable(name, tuple(rows))
