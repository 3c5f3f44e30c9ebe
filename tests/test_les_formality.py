"""Class-B formality against the LES solver.

On a split square whose unknown is X, formality reads X = Y + Z - E: the
square's long exact sequence splits into short exact ones.  A generated
class-B tree is rewritten so that every such square is non-split
(``split=none``) with comparison maps that realize the splitting: a planted
surjective phi_0 = U [I | 0] V, and phi_d = phi_0 (x) I on each free table
row d.  The LES solver must then give the formal value in every degree, no
refutation and the class-B rank.  A planted phi_0 with one invariant factor 2
instead must add Z/2 in the degree below each row: the cokernel term.
"""

import random
from dataclasses import replace

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simploc.coeff import FgAbGroup, CoefficientTable, builtin_table, direct_sum
from simploc.dsl import Blowup, Disjoint, FlagBundle, StratifiedDescent, fold
from simploc.engine import NotInB, compute_degree0, compute_graded, refute_membership_b
from simploc.group_rep import GroupDatum

from .oracles import matmul, random_class_b_tree
from .test_coeff import _unimodular

TRIV = GroupDatum(0)
UNIT = builtin_table("unit")
# a square's planted map has at most this many columns in one degree
MAX_COLUMNS = 24


class _Skipped(Exception):
    """A descent above a rewritten square (a class-C descent is refused by
    design), or a map too wide to plant."""


def _planted(rng: random.Random, tgt: int, src: int, last: int) -> list[list[int]]:
    """U [D | 0] V with D = diag(1, ..., 1, last), tgt x src, tgt <= src."""
    d = [[(last if i == tgt - 1 else 1) if i == j else 0 for j in range(src)] for i in range(tgt)]
    return matmul(matmul(_unimodular(rng, tgt), d), _unimodular(rng, src))


def _tensor_identity(matrix, r: int):
    """matrix (x) I_r: row (i, a), column (j, b) holds matrix[i][j] if a == b."""
    return tuple(
        tuple(x if a == b else 0 for x in row for b in range(r)) for row in matrix for a in range(r)
    )


def _square_maps(rng, node: Blowup, rows, last: int = 1):
    """Maps phi_d = phi_0 (x) I for a square of unknown X over the free rows
    (degree, rank), phi_0 planted from the corners' class-B ranks."""
    rank = {label: compute_degree0(t, TRIV).rank for label, t in node.known}
    src, tgt = rank["Y"] + rank["Z"], rank["E"]
    assert tgt <= src  # the generator duplicates a summed corner as E
    if not tgt:
        return ()
    if src * max(r for _, r in rows) > MAX_COLUMNS:
        raise _Skipped
    phi = _planted(rng, tgt, src, last)
    return tuple((d, _tensor_identity(phi, r)) for d, r in rows)


def _rewritten(tree, rng, rows):
    """The tree with every split square of unknown X non-split, with maps
    that realize the splitting over ``rows``, and the rewritten squares as
    (original, rewritten) pairs."""
    squares = []

    def visit(node, kids):
        below = any(hit for _, hit in kids)
        new = [kid for kid, _ in kids]
        if isinstance(node, Disjoint):
            return Disjoint(tuple(new)), below
        if isinstance(node, FlagBundle):
            return replace(node, base=new[0]), below
        if isinstance(node, StratifiedDescent):
            if below:
                raise _Skipped
            return replace(node, total_space=new[0]), False
        if not isinstance(node, Blowup):
            return node, False
        known = tuple(zip(node.known_labels, new))
        if node.unknown_corner != "X":
            return Blowup(known, node.unknown_corner, node.split), below
        square = Blowup(known, "X", None, _square_maps(rng, node, rows))
        squares.append((node, square))
        return square, True

    return fold(tree, visit)[0], squares


def _assert_formal_values(tree, rewritten, table, lo, hi, extra=lambda d: FgAbGroup(0)):
    formal = compute_graded(tree, TRIV, table)
    assert formal.shape == "formal"
    solved = compute_graded(rewritten, TRIV, table, degrees=(lo, hi))
    assert solved.shape == "explicit"
    for d in range(lo, hi + 1):
        assert solved.value_at(d) == direct_sum(formal.value_at(d), extra(d)), d


# rows Z or Z^2 in up to four degrees of -3..3, degree 0 among them (a unital table)
FREE_ROWS = st.dictionaries(st.integers(-3, 3), st.integers(1, 2), max_size=3).flatmap(
    lambda rows: st.integers(1, 2).map(lambda r0: sorted({**rows, 0: r0}.items()))
)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), FREE_ROWS)
def test_split_squares_solved_by_the_les_are_formal(seed, depth, rows):
    """A generated class-B tree under a split square of unknown X, so that
    at least the root is rewritten."""
    rng = random.Random(seed)
    y, z = (random_class_b_tree(rng, TRIV, depth) for _ in "yz")
    tree = Blowup((("Y", y), ("Z", z), ("E", rng.choice((y, z)))), "X", "retraction")
    try:
        over_unit, unit_squares = _rewritten(tree, rng, [(0, 1)])
        over_rows, squares = _rewritten(tree, rng, rows)
    except _Skipped:
        assume(False)

    # over the unit table: values, no refutation, the class-B rank
    _assert_formal_values(tree, over_unit, UNIT, -3, 2)
    assert refute_membership_b(over_unit) is None
    assert compute_degree0(over_unit, TRIV).rank == compute_degree0(tree, TRIV).rank
    # over a generated bounded-below free table
    table = CoefficientTable("free", tuple((d, FgAbGroup(r)) for d, r in rows))
    _assert_formal_values(tree, over_rows, table, rows[0][0] - 2, rows[-1][0] + 1)

    # the root square with a phi_0 of cokernel Z/2: (Z/2)^r_{d+1} joins degree d
    (original, square), (_, unit_square) = squares[-1], unit_squares[-1]
    if square.comparison_maps:
        deficient = Blowup(square.known, "X", None, _square_maps(rng, original, rows, last=2))
        free = dict(rows)
        torsion = lambda d: FgAbGroup(0, (2,) * free.get(d + 1, 0))  # noqa: E731
        _assert_formal_values(original, deficient, table, rows[0][0] - 2, rows[-1][0] + 1, torsion)
        maps = _square_maps(rng, original, [(0, 1)], last=2)
        assert refute_membership_b(Blowup(unit_square.known, "X", None, maps)) == NotInB(
            -1, FgAbGroup(0, (2,))
        )
