"""Schubert varieties as construction trees, with fixed-point rank oracles.

Finite Schubert varieties in a Grassmannian are cut out by intersection
bounds against a reference flag; they descend from a tower of honest
Grassmannian bundles (the Bott-Samelson resolution).  Affine Schubert
varieties for GL_n are indexed by dominant coweights and descend from
Demazure convolution towers, one minuscule step at a time.  In both cases
the torus-fixed-point count feeds the descent node as a declared rank
oracle; the engine flags every value that consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations, product
from math import comb, factorial, prod

from .dsl import BundleDatum, FlagBundle, Point, SheafDatum, StratifiedDescent, Tree
from .group_rep import GroupDatum


@dataclass(frozen=True)
class FiniteSchubertDatum:
    """Intersection-bound data (n, d, j_0 <= ... <= j_n) with j_i <= i.

    The locus consists of d-planes V with dim(V cut F_i) >= j_i against the
    reference flag F; d_i = j_i - j_{i-1} is the jump sequence.
    """

    n: int
    d: int
    j_seq: tuple[int, ...]

    def __post_init__(self) -> None:
        j = self.j_seq
        if len(j) != self.n + 1:
            raise ValueError(f"j sequence must have length n+1 = {self.n + 1}")
        if j[0] != 0:
            raise ValueError("j_0 must be 0")
        if j[self.n] != self.d:
            raise ValueError(f"j_n must equal d = {self.d}")
        for i in range(1, self.n + 1):
            if j[i] < j[i - 1]:
                raise ValueError("j sequence must be nondecreasing")
            if j[i] > i:
                raise ValueError(f"j_{i} = {j[i]} exceeds i")


def normalize_j(datum: FiniteSchubertDatum) -> FiniteSchubertDatum:
    """Tighten the bounds to the equivalent sequence with j_{i-1} >= j_i - 1.

    The intersection bound at step i already forces a bound one lower at
    step i-1, so raising the earlier entries does not change the locus.
    """
    j = list(datum.j_seq)
    for i in range(datum.n, 0, -1):
        if j[i - 1] < j[i] - 1:
            j[i - 1] = j[i] - 1
    return FiniteSchubertDatum(datum.n, datum.d, tuple(j))


def cell_count_finite(datum: FiniteSchubertDatum) -> int:
    """Number of coordinate d-subsets satisfying all intersection bounds.

    Dynamic programming over (position, size of the prefix intersection);
    each step either includes the next coordinate or not.
    """
    j = datum.j_seq
    state = {0: 1}
    for i in range(1, datum.n + 1):
        nxt: dict[int, int] = {}
        for c, ways in state.items():
            for pick in (0, 1):
                cc = c + pick
                if cc >= j[i] and cc <= datum.d:
                    nxt[cc] = nxt.get(cc, 0) + ways
        state = nxt
    return state.get(datum.d, 0)


def _steps(datum: FiniteSchubertDatum) -> list[tuple[int, int]]:
    """The Bott-Samelson steps: step i adds the Grassmannian of d_i-planes
    in a rank (i - j_{i-1}) bundle, as (rank, d_i); zero jumps add none."""
    j = datum.j_seq
    return [(i - j[i - 1], j[i] - j[i - 1]) for i in range(1, datum.n + 1) if j[i] > j[i - 1]]


def bott_samelson_tower(datum: FiniteSchubertDatum) -> Tree:
    """Tower of Grassmannian bundles resolving the Schubert locus, one
    bundle per step of ``_steps``."""
    tower: Tree = Point()
    for rank, d_i in _steps(datum):
        tower = FlagBundle(tower, BundleDatum(rank), (d_i,))
    return tower


def tower_rank(datum: FiniteSchubertDatum) -> int:
    return prod(comb(rank, d_i) for rank, d_i in _steps(datum))


def finite_schubert_tree(datum: FiniteSchubertDatum, group: GroupDatum) -> Tree:
    """Construction tree: Bott-Samelson tower, then descent onto the locus
    with the fixed-point count as the declared rank oracle."""
    _require_torus(group, datum.n)
    tower = bott_samelson_tower(datum)
    if datum.d == 0:
        return tower
    return StratifiedDescent(
        total_space=tower,
        sheaf=SheafDatum(generic_rank=datum.d, presentation_ranks=(datum.n, datum.n)),
        d_vec=(datum.d,),
        oracle_rank=cell_count_finite(datum),
    )


def _require_torus(group: GroupDatum, n: int) -> None:
    if group.is_trivial:
        return
    if group.finite_orders or group.free_rank < n:
        raise ValueError(
            f"equivariant Schubert trees need a torus of rank >= {n} (or the trivial group)"
        )


# ---------------------------------------------------------------------------
# affine side


@dataclass(frozen=True)
class CoweightDatum:
    """A dominant coweight for GL_n: weakly decreasing integer entries."""

    n: int
    mu: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.mu) != self.n:
            raise ValueError(f"coweight must have {self.n} entries")
        for a, b in zip(self.mu, self.mu[1:]):
            if a < b:
                raise ValueError("coweight must be weakly decreasing (dominant)")

    @property
    def length(self) -> int:
        """Number of fundamental coweights after determinant normalization."""
        return self.mu[0] - self.mu[-1] if self.n else 0


def minuscule_decomposition(datum: CoweightDatum) -> tuple[tuple[int, ...], int]:
    """Write mu + m(1,...,1) as a sum of fundamental coweights.

    Greedy largest-column-first: after shifting the last entry to zero, the
    k-th summand is the k-th column height of the partition diagram.
    Returns (column heights, determinant twist m).
    """
    m = -datum.mu[-1] if datum.mu and datum.mu[-1] < 0 else 0
    shifted = [a + m for a in datum.mu]
    width = shifted[0] if shifted else 0
    ks = tuple(sum(1 for a in shifted if a >= col) for col in range(1, width + 1))
    return ks, m


def affine_cell_count(datum: CoweightDatum) -> int:
    """Number of fixed lattices: integer vectors with the same total whose
    dominant rearrangement is bounded by mu in dominance order.

    One stack pass over the dominant representatives below mu, built entry
    by entry: dominance pins every entry into [mu_n, mu_1], bounds each
    partial sum by mu's, and leaves each entry an interval that the rest
    can still fill.  A partial shape carries its last entry, length, sum,
    the length of its last run of equal entries and the product of its
    runs' factorials; its forced last entry completes it, adding its
    n! / product distinct rearrangements.
    """
    mu, n = datum.mu, datum.n
    if not n:
        return 1
    total, low = sum(mu), mu[-1]
    prefix = list(accumulate(mu))
    count = 0
    stack = [(mu[0], 0, 0, 0, 1)]  # the empty shape; its first entry is at most mu_1
    while stack:
        last, k, partial, run, denom = stack.pop()
        rest = total - partial
        remaining = n - k - 1
        if not remaining:
            # the last entry is forced
            if low <= rest <= min(last, prefix[k] - partial):
                count += factorial(n) // (denom * (run + 1) if rest == last else denom)
            continue
        top = min(last, prefix[k] - partial, rest - remaining * low)
        for v in range(top, max(low, -(-rest // (remaining + 1))) - 1, -1):
            if v == last:
                stack.append((v, k + 1, partial + v, run + 1, denom * (run + 1)))
            else:
                stack.append((v, k + 1, partial + v, 1, denom))
    return count


def affine_schubert_tree(datum: CoweightDatum, group: GroupDatum) -> Tree:
    """Demazure convolution tower for the affine Schubert variety, built
    bottom-up over the columns of the normalized partition.

    The last column is an honest Grassmannian; each earlier one an honest
    Grassmannian bundle over the tower of the later columns, descending onto
    the locus with the fixed-lattice count as rank oracle.  The determinant
    twist leaves everything unchanged and is normalized away first.
    """
    _require_torus(group, datum.n)
    ks, m = minuscule_decomposition(datum)
    shifted = [a + m for a in datum.mu]
    tree: Tree = Point()
    for step in range(len(ks) - 1, -1, -1):
        tree = FlagBundle(tree, BundleDatum(datum.n), (ks[step],))
        if step == len(ks) - 1:
            continue
        # the normalized coweight of the columns from this step on; its
        # presenting bundle is the lattice quotient of length |level|
        level = [max(0, a - step) for a in shifted]
        sheaf = SheafDatum(generic_rank=ks[step], presentation_ranks=(sum(level), sum(level)))
        oracle = affine_cell_count(CoweightDatum(datum.n, tuple(a - m for a in level)))
        tree = StratifiedDescent(tree, sheaf, (ks[step],), oracle)
    return tree


def demazure_tower_rank(datum: CoweightDatum) -> int:
    ks, _ = minuscule_decomposition(datum)
    out = 1
    for k in ks:
        out *= comb(datum.n, k)
    return out


# ---------------------------------------------------------------------------
# brute-force references (used by the oracle-agreement test suites)


def brute_force_cell_count_finite(datum: FiniteSchubertDatum) -> int:
    """Direct enumeration of coordinate subsets; exponential, small n only."""
    count = 0
    for subset in combinations(range(1, datum.n + 1), datum.d):
        ok = True
        for i in range(1, datum.n + 1):
            if sum(1 for s in subset if s <= i) < datum.j_seq[i]:
                ok = False
                break
        if ok:
            count += 1
    return count


def brute_force_affine_cell_count(datum: CoweightDatum) -> int:
    """Direct enumeration over the coordinate window [mu_n, mu_1]^n."""
    mu = datum.mu
    total = sum(mu)
    prefix = [0]
    for a in mu:
        prefix.append(prefix[-1] + a)
    count = 0
    for nu in product(range(mu[-1], mu[0] + 1), repeat=datum.n):
        if sum(nu) != total:
            continue
        s = sorted(nu, reverse=True)
        if all(sum(s[: t + 1]) <= prefix[t + 1] for t in range(datum.n)):
            count += 1
    return count
