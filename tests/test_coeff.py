import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simploc import coeff
from simploc.coeff import (
    Q,
    Z,
    ZERO_GROUP,
    CoefficientTable,
    FgAbGroup,
    Periodicity,
    builtin_table,
    direct_sum,
    parse_table_file,
    rationalize,
    snf,
    summand_complement,
    tensor_with_free,
)

from .oracles import (
    det_over_q,
    determinantal_factors,
    group_order_census,
    matmul,
    quotient_census,
    rank_over_q,
)


# ---------------------------------------------------------------------------
# FgAbGroup canonicalization


def test_canonical_chain_examples():
    assert FgAbGroup(0, (4, 6)) == FgAbGroup(0, (2, 12))
    assert FgAbGroup(0, (6, 4)).invariant_factors == (2, 12)
    assert FgAbGroup(1, (1, 1)).invariant_factors == ()
    assert direct_sum(Z, FgAbGroup(0, (2,))) == FgAbGroup(1, (2,))


def test_z4_z6_isomorphism_by_order_census():
    # brute-force isomorphism test by element-order census on order-24 groups
    a = FgAbGroup(0, (4, 6))
    b = FgAbGroup(0, (2, 12))
    assert group_order_census(a) == group_order_census(b)
    assert a == b
    c = FgAbGroup(0, (24,))
    assert group_order_census(a) != group_order_census(c)
    assert a != c


def test_tensor_with_free():
    assert tensor_with_free(FgAbGroup(0, (3,)), 2) == FgAbGroup(0, (3, 3))
    assert tensor_with_free(Z, 5) == FgAbGroup(5)
    assert tensor_with_free(Q, 2) == FgAbGroup(2, rational=True)
    assert tensor_with_free(Z, 0) == ZERO_GROUP


def test_hom_rank():
    from simploc.coeff import hom_rank

    assert hom_rank(FgAbGroup(2, (3,)), FgAbGroup(3)) == 6
    assert hom_rank(FgAbGroup(0, (5,)), Z) == 0
    assert hom_rank(Z, FgAbGroup(0, (5,))) == 0


def test_rational_flag_annihilates_torsion():
    assert FgAbGroup(2, (2, 4), rational=True).invariant_factors == ()
    assert rationalize(FgAbGroup(3, (7,))) == FgAbGroup(3, rational=True)
    with pytest.raises(ValueError):
        direct_sum(Z, Q)


def test_summand_complement():
    total = FgAbGroup(3, (2, 4))
    assert summand_complement(total, FgAbGroup(1, (4,))) == FgAbGroup(2, (2,))
    with pytest.raises(ValueError):
        summand_complement(total, FgAbGroup(0, (3,)))
    with pytest.raises(ValueError):
        summand_complement(FgAbGroup(1), FgAbGroup(2))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(2, 40), max_size=5), st.integers(0, 3))
def test_canonicalization_idempotent_and_shuffle_invariant(factors, seed):
    shuffled = list(factors)
    random.Random(seed).shuffle(shuffled)
    a = FgAbGroup(0, tuple(factors))
    b = FgAbGroup(0, tuple(shuffled))
    assert a == b
    # idempotent: rebuilding from the canonical chain changes nothing
    assert FgAbGroup(0, a.invariant_factors) == a
    for x, y in zip(a.invariant_factors, a.invariant_factors[1:]):
        assert y % x == 0


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_worked_examples():
    s = snf([[2, 0], [0, 3]])
    assert s.cokernel() == FgAbGroup(0, (6,))
    # brute-force enumeration of Z^2 / im on representatives
    order, census = quotient_census([[2, 0], [0, 3]])
    assert order == 6
    assert census == group_order_census(FgAbGroup(0, (6,)))

    s0 = snf([])
    assert s0.rank == 0 and s0.factors == ()
    s0n = snf([[], []])
    assert s0n.rank == 0 and s0n.cokernel() == FgAbGroup(2)

    # the map Z^3 -> Z^2, (a, b, c) |-> (a+b+c, a+b+c)
    s = snf([[1, 1, 1], [1, 1, 1]])
    assert s.rank == 1
    assert s.cokernel() == Z
    assert s.kernel_rank() == 2


def _random_matrix(rng, max_dim=6, bound=9):
    m = rng.randint(0, max_dim)
    n = rng.randint(0, max_dim)
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


def test_snf_transforms_exact_up_to_6x6():
    rng = random.Random(20240811)
    for _ in range(120):
        a = _random_matrix(rng)
        s = snf(a)
        if not a or not a[0]:
            continue
        left = [list(r) for r in s.left]
        right = [list(r) for r in s.right]
        d = matmul(matmul(left, a), right)
        for i in range(len(a)):
            for j in range(len(a[0])):
                expected = s.factors[i] if i == j and i < s.rank else 0
                assert d[i][j] == expected
        for x, y in zip(s.factors, s.factors[1:]):
            assert x > 0 and y % x == 0
        # unimodular transforms: rank over Q equals the dimension
        assert rank_over_q(left) == len(left)
        assert rank_over_q(right) == len(right)


def test_snf_cokernel_matches_brute_force_3x3():
    # 200 random matrices <= 3x3 with entries in [-3, 3]
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        s = snf(a)
        oracle_rank = rank_over_q(a)
        assert s.rank == oracle_rank
        oracle_factors = tuple(f for f in determinantal_factors(a) if f != 1)
        assert s.cokernel() == FgAbGroup(m - oracle_rank, oracle_factors)


def _unimodular(rng, n):
    """A random n x n integer matrix of determinant +-1: row shears and sign
    changes applied to the identity, then a row permutation."""
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            u[i] = [-x for x in u[i]]
        else:
            q = rng.choice((-2, -1, 1, 2))
            u[i] = [x + q * y for x, y in zip(u[i], u[j])]
    rng.shuffle(u)
    return u


def test_snf_recovers_planted_chains_up_to_14x18():
    """A = U D V with a planted divisibility chain on the diagonal of D and
    random unimodular U, V; tall and wide shapes, full rank and deficient."""
    rng = random.Random(20261018)
    for trial in range(40):
        m, n = (14, 18) if trial < 4 else (rng.randint(1, 14), rng.randint(1, 18))
        if trial % 2:
            m, n = n, m
        rank = rng.randint(0, min(m, n)) if trial % 4 < 2 else min(m, n)
        chain = []
        for _ in range(rank):
            chain.append((chain[-1] if chain else 1) * rng.choice((1, 1, 2, 3, 5)))
        d = [[chain[i] if i == j and i < rank else 0 for j in range(n)] for i in range(m)]
        a = matmul(matmul(_unimodular(rng, m), d), _unimodular(rng, n))
        s = snf(a)
        assert s.factors == tuple(chain) and s.rank == rank
        left = [list(r) for r in s.left]
        right = [list(r) for r in s.right]
        assert matmul(matmul(left, a), right) == d
        assert abs(det_over_q(left)) == 1 and abs(det_over_q(right)) == 1


_MATRICES = st.integers(0, 7).flatmap(
    lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), max_size=7)
)


@settings(max_examples=200, deadline=None)
@given(_MATRICES)
def test_snf_transforms_on_first_read_diagonalize(a):
    """Factors and rank come from the bare matrix; the transforms, eliminated
    on first read from the augmented one, give L A R = diag(factors) with
    the same factors and rank, on every shape including m x 0 and 0 x 0."""
    s = snf(a)
    rows, cols = len(a), len(a[0]) if a else 0
    assert (s.rows, s.cols) == (rows, cols)
    eliminated, rank = coeff._eliminate(s.matrix, augmented=True)
    assert (s.factors, s.rank) == (tuple(eliminated[i][i] for i in range(rank)), rank)
    assert all(x > 0 for x in s.factors) and all(y % x == 0 for x, y in zip(s.factors, s.factors[1:]))
    left, right = [list(r) for r in s.left], [list(r) for r in s.right]
    assert abs(det_over_q(left)) == 1 and abs(det_over_q(right)) == 1
    product = [[sum(left[i][k] * a[k][j] for k in range(rows)) for j in range(cols)] for i in range(rows)]
    product = [[sum(row[k] * right[k][j] for k in range(cols)) for j in range(cols)] for row in product]
    assert product == [[s.factors[i] if i == j and i < s.rank else 0 for j in range(cols)] for i in range(rows)]


def _assert_smith(a, s):
    """L A R = diag(factors) with |det L| = |det R| = 1."""
    left, right = [list(r) for r in s.left], [list(r) for r in s.right]
    rows, cols = s.rows, s.cols
    # summed out, as matmul needs a column
    product = [[sum(left[i][k] * a[k][j] for k in range(rows)) for j in range(cols)] for i in range(rows)]
    product = [[sum(row[k] * right[k][j] for k in range(cols)) for j in range(cols)] for row in product]
    assert product == [[s.factors[i] if i == j and i < s.rank else 0 for j in range(cols)] for i in range(rows)]
    assert abs(det_over_q(left)) == 1 and abs(det_over_q(right)) == 1


# les_solve's planted25 map at bench seed 1105: a planted chain mixed by 50
# row and column operations with multipliers +-1
_PLANTED25 = (
    (-447, 0, 0, -7, -7, -455, 7, 0, 0, 455, 0, 0, 0, 7, -7, 0, 0, -7, 0, 0, 0, 0, 0, 0, 0),
    (57330, 1, 0, 0, 0, 0, 0, -57330, 0, -1, 0, 57330, 0, 0, 0, 0, 0, 0, 0, 0, 57330, 0, 0, 0, 0),
    (0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (-7, 0, 0, 7, 7, 0, -7, 0, 0, 0, 0, 0, 0, -7, 7, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0),
    (-114625, -114660, 0, 229320, 114660, 35, -114660, -35, -910, 114660, 0, 0, 910, -114660,
    114660, -6370, 114660, 114660, -114660, 0, 0, 0, 0, -114660, 0),
    (35, 0, 0, 0, 0, 0, 35, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (-7, 0, 0, 7, 7, 0, -7, 35, 0, 0, 0, 0, 0, -7, 7, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 7, 0, 0, 0, 0, 0, 455, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (-455, 0, 0, 0, 0, -455, 0, 0, 0, 455, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (455, 0, 7, -455, -455, 0, 455, 0, 0, 0, 455, -455, 0, 455, -455, 0, 0, -455, 0, 0, 0, 0, 0, 0,
    0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 910, 0, 0, 0, 910, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (-114653, -114660, 0, 229313, 114653, 0, -114653, -70, -910, 114660, 0, 0, 910, -114653, 114653,
    -6370, 114660, 114653, -114660, 0, 0, 0, 0, -114660, 0),
    (114660, 114660, 0, -229327, -114660, 0, 114660, 35, 910, -114660, 0, 0, -910, 115570, -114660,
    6370, -114660, -114660, 114660, 0, 0, 0, 0, 114660, 0),
    (-6370, 0, 0, 6370, 0, -6370, 0, 0, 0, 0, 0, 0, 0, 0, 6370, 0, -25480, 0, 19110, 0, 0, 0, 0, 0,
    0),
    (-35, 0, 7, 0, 0, 0, -35, 0, 0, 0, 0, 0, 0, 0, 0, 6370, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 6370, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 19110, -19110, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 19110, 0, 0, 0, 0, 0, 0, 0),
    (114660, 114660, 0, -229320, -114660, 0, 114660, 0, 0, -114660, 0, 0, 0, 114660, -114660, 0,
    -133770, -114660, 133770, 0, 0, 0, 0, 114660, 0),
    (114660, 114660, 0, -229320, -114660, 0, 114660, 0, -19110, -114660, 0, 0, 0, 114660, -114660,
    19110, -108290, -114660, 114660, 19110, 0, 0, 0, 114660, 0),
    (57330, 0, 0, 0, 0, 0, 0, -57330, 0, 0, 0, 57330, 0, 0, 0, 0, 0, 0, 0, 0, 57330, 0, 0, 0, 0),
    (-57365, 0, 0, 57330, 57330, 0, -57365, 0, 0, 0, -57330, 57330, 0, -57330, 57330, 0, 0, 57330,
    0, 0, 0, 57330, 0, 0, 0),
    (7, 0, 0, -7, -7, 0, 7, 0, 0, 0, 0, 0, 0, 7, -7, 0, -19110, -7, 19110, 0, 0, 0, 57330, 0, 0),
    (114660, 114660, 0, -229320, -114660, 0, 114660, 0, 0, -114660, 0, 0, 0, 114660, -114660, 0,
    -114660, -114660, 114660, 0, 0, 0, 0, 114660, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 910, 0, 0, 0, -910, 0, 0, 6370, 0, 0, 0, 0, 0, 0, 0, 0, 0),
)


def test_snf_planted25_keeps_its_transforms_small():
    """A gcd elimination grew this map's transform entries to 429,697 bits;
    nearest-quotient remainder steps keep them under 512."""
    s = snf(_PLANTED25)
    chain = (1, 1) + (7,) * 3 + (35,) * 3 + (455,) * 3 + (910,) * 3 + (6370,) * 3
    assert s.factors == chain + (19110,) * 3 + (57330,) * 3 + (114660,) and s.rank == 24
    _assert_smith(_PLANTED25, s)
    assert max(abs(x).bit_length() for form in (s.left, s.right) for row in form for x in row) < 512


@pytest.mark.parametrize("seed", range(4))
def test_snf_40x40_chain_multiplies_to_the_determinant(seed):
    """Random 40 x 40 matrices of entries in [-5, 5], each of rank 40, whose
    invariant factors reach about 143 bits."""
    rng = random.Random(seed)
    a = [[rng.randint(-5, 5) for _ in range(40)] for _ in range(40)]
    s = snf(a)
    assert s.rank == 40
    assert all(y % x == 0 for x, y in zip(s.factors, s.factors[1:]))
    product = 1
    for f in s.factors:
        product *= f
    assert product == abs(det_over_q(a))


@pytest.mark.parametrize(
    "a, factors",
    [
        ([[2], [3]], (1,)),  # a row step leaves a remainder, which pivots
        ([[2, 3]], (1,)),  # a column step leaves one: its column is swapped in
        ([[2, 0], [0, 3]], (1, 6)),  # the chain is fixed up
        ([[-3, 0], [0, 6]], (3, 6)),  # a negative pivot is made positive
        ([[], [], []], ()),  # 3 x 0
        ([], ()),  # 0 x 0: a matrix with no rows has no columns either
    ],
)
def test_snf_elimination_steps(a, factors):
    s = snf(a)
    assert s.factors == factors and s.rank == len(factors)
    _assert_smith(a, s)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-(10**6), 10**6), min_size=n, max_size=n), min_size=1, max_size=4
        )
    )
)
def test_snf_factors_of_large_entries_match_determinantal_divisors(a):
    s = snf(a)
    assert list(s.factors) == determinantal_factors(a)
    _assert_smith(a, s)


# ---------------------------------------------------------------------------
# coefficient tables


def test_builtin_unit():
    t = builtin_table("unit")
    assert t.group_at(0) == Z
    assert t.group_at(1).is_zero and t.group_at(-1).is_zero
    assert t.generators == ()
    assert t.min_degree == 0


def test_builtin_hcminus_rational():
    t = builtin_table("hcminus_rational")
    assert t.group_at(0) == Q
    assert t.group_at(-2) == Q and t.group_at(-8) == Q
    assert t.group_at(-1).is_zero and t.group_at(2).is_zero
    assert dict(t.generators)["u"] == -2
    assert t.min_degree is None


def test_builtin_bott_period_two():
    # an invertible degree-2 generator over Z in degree 0 forces period 2
    t = builtin_table("bott")
    for d in range(-6, 7):
        expected = Z if d % 2 == 0 else ZERO_GROUP
        assert t.group_at(d) == expected
    assert dict(t.generators)["beta"] == 2


def test_builtin_rational_deg0_and_unknown():
    t = builtin_table("rational_deg0")
    assert t.group_at(0) == Q and t.group_at(2).is_zero
    with pytest.raises(LookupError):
        builtin_table("nonsense")


def test_table_requires_unital_degree_zero():
    with pytest.raises(ValueError):
        CoefficientTable("bad", ((1, Z),))


def test_table_without_rows_is_refused_with_or_without_a_period():
    # the emptiness guard sits in __post_init__, before group_at reads a row
    for periodicity in (None, Periodicity(2, "beta"), Periodicity(2, "u", two_sided=False)):
        with pytest.raises(ValueError, match="unital ring"):
            CoefficientTable("empty", (), periodicity=periodicity)
        with pytest.raises(ValueError, match="unital ring"):
            CoefficientTable("zero", ((0, FgAbGroup(0)), (2, FgAbGroup(0))), periodicity=periodicity)


def test_parse_table_file():
    text = """
    # a user table
    0 1
    1 1 Q
    3 0 2 4
    """
    t = parse_table_file("user", text)
    assert t.group_at(0) == Z
    assert t.group_at(1) == Q
    assert t.group_at(3) == FgAbGroup(0, (2, 4))
    assert t.group_at(2).is_zero
    with pytest.raises(ValueError):
        parse_table_file("dup", "0 1\n0 2\n")
    with pytest.raises(ValueError):
        parse_table_file("short", "0\n")


def test_parse_table_file_row_value_errors_name_the_line():
    with pytest.raises(ValueError, match=r"^neg:2: free_rank must be non-negative$"):
        parse_table_file("neg", "0 1\n1 -2\n")
    with pytest.raises(ValueError, match=r"^word:1: invalid literal"):
        parse_table_file("word", "0 one\n")
