from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simploc.dsl import FlagBundle, StratifiedDescent, classify, validate, walk
from simploc.engine import compute_degree0, sod_count
from simploc.group_rep import GroupDatum
from simploc.schubert import (
    CoweightDatum,
    FiniteSchubertDatum,
    affine_cell_count,
    affine_schubert_tree,
    bott_samelson_tower,
    brute_force_affine_cell_count,
    brute_force_cell_count_finite,
    cell_count_finite,
    demazure_tower_rank,
    finite_schubert_tree,
    minuscule_decomposition,
    normalize_j,
    tower_rank,
)

TRIV = GroupDatum(0)


def all_j_sequences(n, d):
    seqs = [[0]]
    for i in range(1, n + 1):
        seqs = [s + [v] for s in seqs for v in range(s[-1], min(i, d) + 1)]
    return [tuple(s) for s in seqs if s[-1] == d]


def dominant_coweights(n, size_bound):
    for entries in product(range(size_bound + 1), repeat=n):
        if list(entries) == sorted(entries, reverse=True) and sum(entries) <= size_bound:
            yield CoweightDatum(n, entries)


# ---------------------------------------------------------------------------
# finite side


def test_datum_invariants_enforced():
    with pytest.raises(ValueError):
        FiniteSchubertDatum(3, 1, (0, 0, 1))  # wrong length
    with pytest.raises(ValueError):
        FiniteSchubertDatum(3, 1, (0, 2, 1, 1))  # j_1 > 1
    with pytest.raises(ValueError):
        FiniteSchubertDatum(3, 1, (0, 1, 0, 1))  # not monotone
    with pytest.raises(ValueError):
        FiniteSchubertDatum(3, 2, (0, 0, 1, 1))  # j_n != d


def test_worked_tower_and_cell_examples():
    full = FiniteSchubertDatum(4, 2, (0, 0, 0, 1, 2))
    assert tower_rank(full) == 9
    assert cell_count_finite(full) == 6
    sub = FiniteSchubertDatum(4, 2, (0, 0, 1, 1, 2))
    assert tower_rank(sub) == 6
    assert cell_count_finite(sub) == 5
    smooth = FiniteSchubertDatum(2, 1, (0, 0, 1))
    assert tower_rank(smooth) == 2 == cell_count_finite(smooth)
    point_stratum = FiniteSchubertDatum(4, 2, (0, 1, 2, 2, 2))
    assert cell_count_finite(point_stratum) == 1


def test_tree_shape_and_ranks():
    datum = FiniteSchubertDatum(4, 2, (0, 0, 0, 1, 2))
    tree = finite_schubert_tree(datum, TRIV)
    assert isinstance(tree, StratifiedDescent)
    assert validate(tree, TRIV) == []
    assert compute_degree0(tree.total_space, TRIV).rank == 9
    module = compute_degree0(tree, TRIV)
    assert module.rank == 6
    assert module.assumed_oracles  # oracle consumption is flagged


def test_equivariant_tree_needs_big_torus():
    datum = FiniteSchubertDatum(4, 2, (0, 0, 0, 1, 2))
    tree = finite_schubert_tree(datum, GroupDatum(4))
    assert validate(tree, GroupDatum(4)) == []
    with pytest.raises(ValueError):
        finite_schubert_tree(datum, GroupDatum(2))


def test_dp_matches_brute_force_up_to_n8():
    for n in range(0, 9):
        for d in range(0, n + 1):
            for j in all_j_sequences(n, d):
                datum = FiniteSchubertDatum(n, d, j)
                count = cell_count_finite(datum)
                assert count == brute_force_cell_count_finite(datum)
                assert count <= tower_rank(datum)


def test_full_grassmannian_cell_count_is_sod_count():
    for n in range(1, 9):
        for d in range(1, n + 1):
            j = tuple(max(0, d - (n - i)) for i in range(n + 1))
            datum = FiniteSchubertDatum(n, d, j)
            assert cell_count_finite(datum) == sod_count(n, (d,))


def test_normalize_j():
    datum = FiniteSchubertDatum(3, 2, (0, 0, 2, 2))
    tightened = normalize_j(datum)
    assert tightened.j_seq == (0, 1, 2, 2)
    assert cell_count_finite(datum) == cell_count_finite(tightened)
    for n in range(1, 7):
        for d in range(0, n + 1):
            for j in all_j_sequences(n, d):
                datum = FiniteSchubertDatum(n, d, j)
                assert cell_count_finite(normalize_j(datum)) == cell_count_finite(datum)


# ---------------------------------------------------------------------------
# affine side


def test_dominance_invariant():
    with pytest.raises(ValueError):
        CoweightDatum(2, (0, 1))
    assert CoweightDatum(3, (2, 1, 0)).length == 2


def test_minuscule_decomposition_examples():
    assert minuscule_decomposition(CoweightDatum(2, (2, 0))) == ((1, 1), 0)
    assert minuscule_decomposition(CoweightDatum(3, (1, 0, 0))) == ((1,), 0)
    assert minuscule_decomposition(CoweightDatum(2, (0, -1))) == ((1,), 1)
    assert minuscule_decomposition(CoweightDatum(3, (2, 2, 1))) == ((3, 2), 0)


def test_decomposition_reconstructs_coweight():
    for n in range(1, 5):
        for datum in dominant_coweights(n, 6):
            ks, m = minuscule_decomposition(datum)
            rebuilt = [0] * n
            for k in ks:
                for i in range(k):
                    rebuilt[i] += 1
            assert tuple(v - m for v in rebuilt) == datum.mu


def test_affine_cell_count_examples():
    assert affine_cell_count(CoweightDatum(2, (2, 0))) == 3
    assert affine_cell_count(CoweightDatum(2, (1, 0))) == 2
    assert affine_cell_count(CoweightDatum(2, (0, 0))) == 1


def test_affine_dp_matches_brute_force():
    for n in range(1, 5):
        for datum in dominant_coweights(n, 6):
            count = affine_cell_count(datum)
            assert count == brute_force_affine_cell_count(datum)
            assert count <= demazure_tower_rank(datum)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, 4), min_size=n, max_size=n).map(
                lambda v: tuple(sorted(v, reverse=True))
            ),
            st.integers(-3, 3),
        )
    )
)
def test_determinant_twist_invariance(args):
    n, mu, c = args
    base = CoweightDatum(n, mu)
    shifted = CoweightDatum(n, tuple(v + c for v in mu))
    assert affine_cell_count(base) == affine_cell_count(shifted)


def test_affine_tree_smallest_singular_case():
    # mu = (2, 0): cover rank 4, descended rank 3
    tree = affine_schubert_tree(CoweightDatum(2, (2, 0)), TRIV)
    assert isinstance(tree, StratifiedDescent)
    assert validate(tree, TRIV) == []
    assert compute_degree0(tree.total_space, TRIV).rank == 4
    assert tree.oracle_rank == 3
    assert compute_degree0(tree, TRIV).rank == 3
    assert classify(tree).assumed_oracles


def test_affine_tree_minuscule_cases():
    p1 = affine_schubert_tree(CoweightDatum(2, (1, 0)), TRIV)
    assert compute_degree0(p1, TRIV).rank == 2
    gr32 = affine_schubert_tree(CoweightDatum(3, (1, 1, 0)), TRIV)
    assert compute_degree0(gr32, TRIV).rank == 3 == sod_count(3, (2,))
    pt = affine_schubert_tree(CoweightDatum(2, (0, 0)), TRIV)
    assert compute_degree0(pt, TRIV).rank == 1


def test_affine_tree_matches_oracle_through_engine():
    for n in (2, 3):
        for datum in dominant_coweights(n, 4):
            tree = affine_schubert_tree(datum, TRIV)
            assert validate(tree, TRIV) == []
            assert compute_degree0(tree, TRIV).rank == affine_cell_count(datum)


def test_tower_rank_is_the_rank_of_the_built_tower():
    seqs = [(0,)]
    checked = 0
    for n in range(7):
        for j in seqs:
            datum = FiniteSchubertDatum(n, j[-1], j)
            assert tower_rank(datum) == compute_degree0(bott_samelson_tower(datum), TRIV).rank
            checked += 1
        seqs = [j + (v,) for j in seqs for v in range(j[-1], n + 2)]
    assert checked == 625


def test_demazure_tower_rank_is_the_product_over_the_built_bundles():
    checked = 0
    for n in range(1, 5):
        for mu in product(range(4, -3, -1), repeat=n):
            if list(mu) != sorted(mu, reverse=True):
                continue
            datum = CoweightDatum(n, mu)
            nodes = [node for _, node in walk(affine_schubert_tree(datum, TRIV))]
            ranks = [sod_count(b.bundle.rank, b.d_vec) for b in nodes if isinstance(b, FlagBundle)]
            assert demazure_tower_rank(datum) == prod(ranks)
            checked += 1
    assert checked == 329
