import random
from itertools import combinations, product
from math import factorial

import pytest

from simploc import engine
from simploc.coeff import FgAbGroup, Q, Z, builtin_table, parse_table_file
from simploc.dsl import (
    Blowup,
    BundleDatum,
    Disjoint,
    FlagBundle,
    Point,
    SheafDatum,
    StratifiedDescent,
    classify,
    example_library,
    walk,
)
from simploc.engine import (
    FiberTable,
    HypothesisError,
    InconsistentDataError,
    LesWitness,
    NoVerdict,
    UnderdeterminedError,
    UnsupportedError,
    ZERO_FIBER,
    compute_degree0,
    compute_graded,
    decompose_positive_k,
    formal_value_of_table,
    parshin_check,
    positive_split_verdict,
    refute_membership_b,
    ring_degree0,
    sod_count,
    solve_blowup_les,
    verify_comparison,
)
from simploc.group_rep import GroupDatum, augment, elementary_symmetric_class, representation_ring

from .oracles import degreewise_value, matmul, random_class_b_tree, rank_over_q

TRIV = GroupDatum(0)
T2 = GroupDatum(2)
UNIT = builtin_table("unit")
BOTT = builtin_table("bott")


# ---------------------------------------------------------------------------
# sod_count


def test_sod_count_projective_bundle():
    for n in range(1, 8):
        assert sod_count(n, (1,)) == n


def test_sod_count_grassmannian_by_subset_enumeration():
    assert sod_count(4, (2,)) == sum(1 for _ in combinations(range(4), 2))


def test_sod_count_full_flag():
    assert sod_count(3, (1, 1, 1)) == 6


def test_sod_count_range_error():
    with pytest.raises(ValueError):
        sod_count(2, (3,))
    with pytest.raises(ValueError):
        sod_count(3, (1, 0))



def test_sod_count_matches_factorials():
    for rank in range(1, 13):
        for parts in range(1, 4):
            for d_vec in product(range(1, rank + 1), repeat=parts):
                if sum(d_vec) > rank:
                    continue
                expected = factorial(rank) // factorial(rank - sum(d_vec))
                for d in d_vec:
                    expected //= factorial(d)
                assert sod_count(rank, d_vec) == expected


def test_sod_count_huge_rank():
    assert sod_count(10**9 + 1, (1,)) == 10**9 + 1

def test_sod_count_tower_consistency():
    # refining d_vec to unit steps multiplies in the full-flag counts of the
    # pieces: multinomial(n; 1^d) = multinomial(n; d_vec) * prod d_k!
    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(1, total - parts + 2):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    for n in range(1, 9):
        for total in range(1, n + 1):
            for parts in range(1, total + 1):
                for d_vec in compositions(total, parts):
                    full = sod_count(n, (1,) * total)
                    pieces = sod_count(n, d_vec)
                    for d in d_vec:
                        pieces *= sod_count(d, (1,) * d)
                    assert full == pieces, (n, d_vec)


# ---------------------------------------------------------------------------
# compute_degree0


def test_degree0_projective_line_rank_two():
    tree = example_library("projective_space", 1, group=T2)
    assert compute_degree0(tree, T2).rank == 2


def test_degree0_cone_rank_three():
    assert compute_degree0(example_library("cone_of_P1"), TRIV).rank == 3


def test_degree0_cusp_rank_two():
    # split rank arithmetic on (X, P^1, pt, pt), cross-checked against the
    # degreewise solver fed the identity comparison map
    cusp = example_library("cusp")
    assert compute_degree0(cusp, TRIV).rank == 2
    forced = Blowup(
        known=cusp.known,
        unknown_corner="X",
        split=None,
        comparison_maps=((0, ((1, 1, 1),)),),
    )
    value = compute_graded(forced, TRIV, UNIT, degrees=(-2, 0))
    assert value.value_at(0) == FgAbGroup(2)
    assert value.value_at(-1).is_zero


def test_degree0_descent_needs_oracle():
    bare = StratifiedDescent(Point(), SheafDatum(1, (1, 1)), (1,))
    with pytest.raises(UnderdeterminedError):
        compute_degree0(bare, TRIV)


def test_degree0_oracle_consistency_enforced():
    total = example_library("projective_space", 1)
    bad = StratifiedDescent(total, SheafDatum(1, (2, 2)), (1,), oracle_rank=5)
    with pytest.raises(InconsistentDataError):
        compute_degree0(bad, TRIV)


def test_degree0_henselian_rejected():
    from simploc.dsl import HenselianBase

    with pytest.raises(UnsupportedError):
        compute_degree0(HenselianBase(5), TRIV)


def test_degree0_class_c_rank_via_les():
    node = example_library("node")
    module = compute_degree0(node, TRIV)
    assert module.rank == 2
    assert module.ring_presentation is None


def test_basis_labels_recorded():
    tree = example_library("projective_space", 1, group=T2)
    module = compute_degree0(tree, T2)
    assert module.basis_labels == ("pt|c0", "pt|c1")


# ---------------------------------------------------------------------------
# graded values


def test_graded_node_unit_table():
    node = example_library("node")
    value = compute_graded(node, TRIV, UNIT, degrees=(-4, 1))
    assert value.value_at(-1) == Z
    for d in (-4, -3, -2):
        assert value.value_at(d).is_zero
    assert value.value_at(0) == FgAbGroup(2)
    assert value.value_at(1).is_zero


def test_graded_cone_unit_table():
    value = compute_graded(example_library("cone_of_P1"), TRIV, UNIT)
    assert value.shape == "formal"
    assert value.value_at(0) == FgAbGroup(3)
    assert value.value_at(2).is_zero and value.value_at(-1).is_zero


def test_graded_p2_bott_table():
    value = compute_graded(example_library("projective_space", 2), TRIV, BOTT)
    for d in range(-4, 5):
        expected = FgAbGroup(3) if d % 2 == 0 else FgAbGroup(0)
        assert value.value_at(d) == expected


def test_graded_class_c_needs_trivial_group():
    node = example_library("node")
    with pytest.raises(UnsupportedError):
        compute_graded(node, T2, UNIT, degrees=(-1, 0))


def test_graded_missing_map_is_underdetermined():
    node = example_library("node")
    stripped = Blowup(node.known, node.unknown_corner, None, ())
    with pytest.raises(UnderdeterminedError):
        compute_graded(stripped, TRIV, UNIT, degrees=(-1, 0))


def test_graded_class_c_rejects_unbounded_table():
    node = example_library("node")
    with pytest.raises(UnderdeterminedError):
        compute_graded(node, TRIV, BOTT, degrees=(-1, 0))


def test_les_exactness_on_node():
    # substitute the solved groups back and check kernel = image at every
    # three-term segment, via independent rank computations
    node = example_library("node")
    window, witnesses = solve_blowup_les(
        node, TRIV, UNIT, -3, 1, collect_witnesses=True
    )
    by_degree = {w.degree: w for w in witnesses}
    for d, w in by_degree.items():
        src = len(w.phi[0]) if w.phi else 0
        x_rank = window.value_at(d).free_rank
        # exactness at E(Y)+E(Z): im(inclusion) = ker(phi)
        if w.inclusion and w.inclusion[0]:
            composed = matmul([list(r) for r in w.phi], [list(r) for r in w.inclusion]) if w.phi else []
            assert all(v == 0 for row in composed for v in row)
        if src:
            assert rank_over_q(w.inclusion) == src - rank_over_q(w.phi)
        # exactness at E(X): im(boundary from above) = ker(inclusion)
        if x_rank:
            incl_rank = rank_over_q(w.inclusion) if w.inclusion and w.inclusion[0] else 0
            bound_rank = rank_over_q(w.boundary) if w.boundary and w.boundary[0] else 0
            assert bound_rank == x_rank - incl_rank
        # exactness at E(E) one degree above: im(phi_above) = ker(boundary)
        above = by_degree.get(d + 1)
        if above is not None and w.boundary and w.boundary[0]:
            tgt_above = len(w.boundary[0])
            if above.phi and above.phi[0]:
                composed = matmul([list(r) for r in w.boundary], [list(r) for r in above.phi])
                assert all(v == 0 for row in composed for v in row)
                assert rank_over_q(w.boundary) == tgt_above - rank_over_q(above.phi)


def test_underdetermined_above_window():
    node = example_library("node")
    value = compute_graded(node, TRIV, UNIT, degrees=(-1, 0))
    with pytest.raises(UnderdeterminedError):
        value.value_at(5)


def _node_with_maps(maps):
    base = example_library("node")
    return Blowup(base.known, "X", None, maps)


def test_les_multi_degree_maps():
    # coefficient support in degrees 0 and 2 needs maps at both; solved by
    # hand: X_2 = ker(phi_2), X_1 = coker(phi_2), X_0 = ker(phi_0),
    # X_{-1} = coker(phi_0)
    table = parse_table_file("two_rows", "0 1\n2 1\n")
    square = _node_with_maps(
        ((0, ((1, 1, 1), (1, 1, 1))), (2, ((1, 0, 1), (0, 1, 1)))),
    )
    value = compute_graded(square, TRIV, table, degrees=(-3, 3))
    assert value.value_at(3).is_zero
    assert value.value_at(2) == Z  # kernel of the full-rank 2x3 map
    assert value.value_at(1).is_zero  # that map is onto
    assert value.value_at(0) == FgAbGroup(2)
    assert value.value_at(-1) == Z
    assert value.value_at(-2).is_zero and value.value_at(-3).is_zero


def test_les_multi_degree_witnesses_are_exact():
    table = parse_table_file("two_rows", "0 1\n2 1\n")
    square = _node_with_maps(
        ((0, ((1, 1, 1), (1, 1, 1))), (2, ((1, 0, 1), (0, 1, 1)))),
    )
    window, witnesses = solve_blowup_les(
        square, TRIV, table, -3, 3, collect_witnesses=True
    )
    by_degree = {w.degree: w for w in witnesses}
    for d, w in by_degree.items():
        src = len(w.phi[0]) if w.phi else 0
        if w.inclusion and w.inclusion[0] and w.phi:
            composed = matmul([list(r) for r in w.phi], [list(r) for r in w.inclusion])
            assert all(v == 0 for row in composed for v in row)
        if src:
            assert rank_over_q(w.inclusion) == src - rank_over_q(w.phi)
        x_rank = window.value_at(d).free_rank
        if x_rank:
            incl_rank = rank_over_q(w.inclusion) if w.inclusion and w.inclusion[0] else 0
            bound_rank = rank_over_q(w.boundary) if w.boundary and w.boundary[0] else 0
            assert bound_rank == x_rank - incl_rank


def test_les_torsion_cokernel_output():
    # a non-surjective degree-2 map leaves torsion in the degree-1 slot
    table = parse_table_file("two_rows", "0 1\n2 1\n")
    square = _node_with_maps(
        ((0, ((1, 1, 1), (1, 1, 1))), (2, ((2, 0, 0), (0, 3, 0)))),
    )
    value = compute_graded(square, TRIV, table, degrees=(-2, 2))
    assert value.value_at(2) == Z
    assert value.value_at(1) == FgAbGroup(0, (6,))
    assert value.value_at(0) == FgAbGroup(2)
    assert value.value_at(-1) == Z


def test_les_rejects_torsion_corners():
    table = parse_table_file("torsion", "0 1 2\n")  # Z + Z/2 in degree 0
    square = _node_with_maps(((0, ((1, 1, 1), (1, 1, 1))),))
    with pytest.raises(UnderdeterminedError):
        compute_graded(square, TRIV, table, degrees=(-1, 0))


def test_les_rejects_wrong_map_shape():
    square = _node_with_maps(((0, ((1, 1), (1, 1))),))
    with pytest.raises(InconsistentDataError):
        compute_graded(square, TRIV, UNIT, degrees=(-1, 0))


def test_les_nested_nonsplit_squares():
    # outer square whose cover is itself the node: two stacked solves; the
    # inner degree -1 class passes through the outer kernel untouched
    node = example_library("node")
    outer = Blowup(
        known=(("Y", node), ("Z", Point()), ("E", Point())),
        unknown_corner="X",
        split=None,
        comparison_maps=((0, ((1, 1, 1),)),),
    )
    value = compute_graded(outer, TRIV, UNIT, degrees=(-3, 1))
    assert value.value_at(0) == FgAbGroup(2)
    assert value.value_at(-1) == Z
    for d in (-3, -2, 1):
        assert value.value_at(d).is_zero


def test_les_unknown_corner_must_be_base():
    node = example_library("node")
    flipped = Blowup(
        known=(("X", Point()), ("Z", Point()), ("E", Disjoint((Point(), Point())))),
        unknown_corner="Y",
        split=None,
        comparison_maps=((0, ((1, 1, 1), (1, 1, 1))),),
    )
    with pytest.raises(UnderdeterminedError):
        compute_graded(flipped, TRIV, UNIT, degrees=(-1, 0))


def test_every_class_c_entry_passes_one_gate():
    # the degreewise solver's preconditions are checked in one place, so
    # every entry refuses an unsupported group with the same message
    from simploc.group_rep import OpaqueGroup

    node = example_library("node")
    entries = (
        lambda group: compute_degree0(node, group),
        lambda group: compute_graded(node, group, UNIT, degrees=(0, 0)),
        lambda group: refute_membership_b(node, group),
        lambda group: solve_blowup_les(node, group, UNIT, -1, 0),
    )
    trivial_only = (
        "class-C values are computed with trivial group only; "
        "equivariant class-C trees get rank bounds and certificates"
    )
    opaque = OpaqueGroup("irreducibles")
    for group, message in ((T2, trivial_only), (opaque, "opaque groups admit no ring arithmetic")):
        for entry in entries:
            with pytest.raises(UnsupportedError) as exc:
                entry(group)
            assert str(exc.value) == message
    # a class-B tree is never refuted, whatever the group
    assert refute_membership_b(example_library("cusp"), T2) is None


def test_witnesses_over_a_rational_table_drop_the_torsion():
    # coker of (a, b, c) -> (2a, b) is Z/2: over Z the witness is refused
    # (test_witnesses_refuse_a_torsion_cokernel), over Q the Z/2 vanishes
    node = example_library("node")
    torsion = Blowup(node.known, "X", None, ((0, ((2, 0, 0), (0, 1, 0))),))
    window, witnesses = solve_blowup_les(
        torsion, TRIV, builtin_table("rational_deg0"), -1, 0, collect_witnesses=True
    )
    assert dict(window.values) == {0: Q}
    assert window.value_at(-1).is_zero
    by_degree = {w.degree: w for w in witnesses}
    assert sorted(by_degree) == [-1, 0]
    # X_0 = ker(phi_0), spanned by the third basis vector; nothing above
    assert by_degree[0].phi == ((2, 0, 0), (0, 1, 0))
    assert by_degree[0].inclusion == ((0,), (0,), (1,))
    assert by_degree[0].boundary == ((),)
    # X_{-1} = coker(phi_0) tensor Q = 0: no free cokernel part
    assert by_degree[-1] == LesWitness(degree=-1, phi=(), inclusion=(), boundary=())


def test_witnesses_at_a_degree_with_a_zero_side():
    # a map with a zero side is never factored; its witness columns and
    # rows still carry the nonzero side's rank
    nothing = Disjoint(())
    p1 = example_library("projective_space", 1)
    # E = 0: phi_0 maps Z^3 into 0, so X_0 = ker(phi_0) = Z^3
    into_zero = Blowup((("Y", p1), ("Z", Point()), ("E", nothing)), "X", None, ())
    window, witnesses = solve_blowup_les(into_zero, TRIV, UNIT, -1, 0, collect_witnesses=True)
    assert window.value_at(0) == FgAbGroup(3) and window.value_at(-1).is_zero
    by_degree = {w.degree: w for w in witnesses}
    assert by_degree[0] == LesWitness(
        degree=0,
        phi=(),
        inclusion=((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        boundary=((), (), ()),
    )
    assert by_degree[-1] == LesWitness(degree=-1, phi=(), inclusion=(), boundary=())
    # Y = Z = 0: phi_0 maps 0 into Z, so X_{-1} = coker(phi_0) = Z
    out_of_zero = Blowup((("Y", nothing), ("Z", nothing), ("E", Point())), "X", None, ())
    window, witnesses = solve_blowup_les(out_of_zero, TRIV, UNIT, -1, 0, collect_witnesses=True)
    assert window.value_at(-1) == Z and window.value_at(0).is_zero
    by_degree = {w.degree: w for w in witnesses}
    assert by_degree[0] == LesWitness(degree=0, phi=((),), inclusion=(), boundary=())
    assert by_degree[-1] == LesWitness(degree=-1, phi=(), inclusion=(), boundary=((1,),))


def test_a_square_keeps_the_matrices_it_is_given(monkeypatch):
    low, high = ((1, 1, 1), (1, 1, 1)), ((1, 0, 1), (0, 1, 1))
    square = _node_with_maps(((2, high), (0, low)))
    assert square.map_at(0) is low and square.map_at(2) is high
    factored = []
    real_snf = engine.snf

    def recording(matrix):
        factored.append(matrix)
        return real_snf(matrix)

    monkeypatch.setattr(engine, "snf", recording)
    compute_graded(square, TRIV, parse_table_file("two_rows", "0 1\n2 1\n"), degrees=(-3, 3))
    assert len(factored) == 2 and factored[0] is high and factored[1] is low


# ---------------------------------------------------------------------------
# formality and rank fuzzing


def test_formality_matches_degreewise_oracle():
    rng = random.Random(2024)
    checked = 0
    for _ in range(60):
        rank = rng.choice((0, 1, 2, 3))
        group = GroupDatum(rank)
        tree = random_class_b_tree(rng, group, 6)
        for table in (UNIT, BOTT):
            value = compute_graded(tree, group, table)
            for d in range(-4, 5):
                got = value.value_at(d)
                raw = degreewise_value(tree, table, d)
                assert (got.free_rank, tuple(sorted(got.invariant_factors)), got.rational) == raw, (
                    tree,
                    d,
                )
        checked += 1
    assert checked >= 50


def test_rank_additivity_at_split_blowups():
    rng = random.Random(77)
    seen = 0
    for _ in range(80):
        tree = random_class_b_tree(rng, TRIV, 6)
        for path, node in walk(tree):
            if not isinstance(node, Blowup) or node.split is None:
                continue
            ranks = {lbl: compute_degree0(t, TRIV).rank for lbl, t in node.known}
            ranks[node.unknown_corner] = compute_degree0(node, TRIV).rank
            assert ranks["X"] + ranks["E"] == ranks["Y"] + ranks["Z"]
            seen += 1
    assert seen >= 20


def test_oracle_flags_propagate():
    tree = StratifiedDescent(
        example_library("projective_space", 1),
        SheafDatum(1, (2, 2)),
        (1,),
        oracle_rank=2,
    )
    value = compute_graded(tree, TRIV, UNIT)
    assert value.assumed_oracles == ("(root)",)


# ---------------------------------------------------------------------------
# ring presentations


def test_ring_point_is_base_ring():
    pres = ring_degree0(Point(), TRIV)
    assert pres.gens == ()
    assert pres.relations == ()


def test_ring_projective_line_torus():
    tree = example_library("projective_space", 1, group=T2)
    pres = ring_degree0(tree, T2)
    assert pres.gens == ("x1",)
    ring = representation_ring(T2)
    rel = pres.relations[0]
    t1, t2 = ring.gens()
    assert rel.coefficient((2,)) == ring.one
    assert rel.coefficient((1,)) == -(t1 + t2)
    assert rel.coefficient((0,)) == t1 * t2


def test_ring_projective_space_trivial_group_binomials():
    # with all characters trivial the relation is (x - 1)^n
    from math import comb

    for n in (2, 3, 4, 5):
        tree = FlagBundle(
            Point(), BundleDatum(n, split_characters=((),) * n), (1,)
        )
        pres = ring_degree0(tree, TRIV)
        rel = pres.relations[0]
        ring = representation_ring(TRIV)
        for i in range(n + 1):
            expected = (-1) ** i * comb(n, i) * ring.one
            got = rel.coefficient((n - i,))
            if expected == ring.zero:
                assert got is None
            else:
                assert got == expected


def test_ring_unsupported_paths():
    with pytest.raises(UnsupportedError):
        ring_degree0(example_library("grassmannian", 4, 2, group=GroupDatum(4)), GroupDatum(4))
    with pytest.raises(UnsupportedError):
        ring_degree0(example_library("hirzebruch", 1), TRIV)
    with pytest.raises(UnsupportedError):
        ring_degree0(Disjoint((Point(), Point())), TRIV)


def test_ring_augmentation_rank_matches_degree0():
    # quotient by augmented relations: monic towers multiply their degrees
    for group, tree in [
        (T2, example_library("projective_space", 1, group=T2)),
        (GroupDatum(3), example_library("projective_space", 2, group=GroupDatum(3))),
        (
            TRIV,
            FlagBundle(
                FlagBundle(Point(), BundleDatum(2, split_characters=((), ())), (1,)),
                BundleDatum(3, split_characters=((), (), ())),
                (1,),
            ),
        ),
    ]:
        pres = ring_degree0(tree, group)
        rank = 1
        for rel in pres.relations:
            lead = max(sum(m) for m, _ in rel.terms)
            # monic in its own generator after augmentation
            lead_mono = next(m for m, _ in rel.terms if sum(m) == lead)
            assert augment(rel.coefficient(lead_mono)) == 1
            rank *= lead
        assert rank == compute_degree0(tree, group).rank


# ---------------------------------------------------------------------------
# verdicts


def test_verify_comparison_zero_fiber_class_c():
    verdict = verify_comparison(ZERO_FIBER, classify(example_library("node")))
    assert verdict.kind == "equivalence_all_degrees"


def test_verify_comparison_zero_fiber_class_b():
    verdict = verify_comparison(ZERO_FIBER, classify(Point()))
    assert verdict.kind == "equivalence_all_degrees"


def test_verify_comparison_degreewise():
    fiber = FiberTable(known=((0, FgAbGroup(0)), (-1, FgAbGroup(0))), complete=False)
    verdict = verify_comparison(fiber, classify(example_library("cusp")), target_degree=0)
    assert verdict.kind == "iso_in_degree" and verdict.degree == 0
    refused = verify_comparison(fiber, classify(example_library("node")), target_degree=0)
    assert isinstance(refused, NoVerdict)
    assert "class B" in refused.failed_hypothesis


def test_verify_comparison_refuses_on_nonvanishing_fiber():
    fiber = FiberTable(known=((0, FgAbGroup(0)), (-1, Z)), complete=False)
    refused = verify_comparison(fiber, classify(Point()), target_degree=0)
    assert isinstance(refused, NoVerdict)
    assert "-1" in refused.failed_hypothesis


def test_decompose_positive_k():
    cone = example_library("cone_of_P1")
    cls = classify(cone)
    kh_table = parse_table_file("khq", "0 1 Q\n1 1 Q\n3 1 Q\n")
    hcm_table = parse_table_file("hcm", "0 1 Q\n1 1 Q\n3 1 Q\n")
    kh = compute_graded(cone, TRIV, kh_table)
    hcm = formal_value_of_table(hcm_table, TRIV)
    assert decompose_positive_k(kh, hcm, cls, 1) == FgAbGroup(4, rational=True)
    assert decompose_positive_k(kh, hcm, cls, 2) == FgAbGroup(0)
    with pytest.raises(HypothesisError):
        decompose_positive_k(kh, hcm, cls, 0)
    with pytest.raises(HypothesisError):
        decompose_positive_k(kh, hcm, classify(example_library("node")), 1)
    assert positive_split_verdict(cls, 3).kind == "split_decomposition"


def test_refute_membership():
    ev = refute_membership_b(example_library("node"))
    assert ev is not None and ev.degree == -1 and ev.value == Z
    assert refute_membership_b(example_library("cusp")) is None
    assert refute_membership_b(example_library("cone_of_P1")) is None


def test_henselian_class_is_classification_only():
    # C_p trees carry no computable module and get no comparison verdict
    # through the classifying-stack fiber alone
    from simploc.dsl import HenselianBase

    cls = classify(HenselianBase(5))
    assert cls.tag == "C_p"
    refused = verify_comparison(ZERO_FIBER, cls)
    assert isinstance(refused, NoVerdict)
    with pytest.raises(UnsupportedError):
        compute_graded(HenselianBase(5), TRIV, UNIT, degrees=(0, 0))


def test_opaque_group_rejected_by_engine():
    from simploc.group_rep import OpaqueGroup

    opaque = OpaqueGroup("irreducibles")
    with pytest.raises(UnsupportedError):
        compute_degree0(Point(), opaque)
    with pytest.raises(UnsupportedError):
        compute_graded(Point(), opaque, UNIT)


def test_parshin_check():
    verdict = parshin_check(example_library("cusp"), TRIV)
    assert verdict.kind == "vanishing"
    assert "rank 2" in verdict.conclusion_text
    gr = example_library("grassmannian", 4, 2, group=GroupDatum(4))
    verdict = parshin_check(gr, GroupDatum(4))
    assert "rank 6" in verdict.conclusion_text
    with pytest.raises(HypothesisError):
        parshin_check(example_library("node"), TRIV)
    bad_table = parse_table_file("offzero", "0 1 Q\n-1 1 Q\n")
    assert isinstance(parshin_check(example_library("cusp"), TRIV, bad_table), NoVerdict)
