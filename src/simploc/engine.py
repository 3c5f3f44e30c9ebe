"""Recursive evaluation of graded invariants over construction trees.

Degree-zero modules are free over the representation ring with explicit
rank; class-B trees are evaluated through the formality shape (degree-zero
module tensored with the coefficient table).  Class-C trees with trivial
group are evaluated degreewise by solving the long exact sequence of each
non-split blowup square with user-supplied comparison matrices.  Verdict
constructors encode the comparison theorems: a vanishing fiber on the
classifying stack upgrades to an equivalence on class C, and degreewise
vanishing upgrades to per-degree isomorphisms on class B.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import factorial
from typing import Optional, Union

from .coeff import (
    ZERO_GROUP,
    CoefficientTable,
    FgAbGroup,
    SmithForm,
    builtin_table,
    direct_sum,
    snf,
    summand_complement,
    tensor_with_free,
)
from .dsl import (
    Blowup,
    Disjoint,
    FlagBundle,
    MembershipClass,
    Point,
    StratifiedDescent,
    Tree,
    _subpath,
    classify,
    fold,
)
from .group_rep import (
    GroupDatum,
    OpaqueGroup,
    RepRing,
    RepRingElement,
    elementary_symmetric_class,
    representation_ring,
)


class EngineError(Exception):
    """Base class for evaluation failures."""


class UnderdeterminedError(EngineError):
    """The available data does not pin down the requested value."""


class HypothesisError(EngineError):
    """A theorem hypothesis (class tag, degree bound) is not satisfied."""


class UnsupportedError(EngineError):
    """The combination of tree, group and request is out of scope."""


class InconsistentDataError(EngineError):
    """Declared data contradicts itself (ranks, shapes, oracles)."""


# ---------------------------------------------------------------------------
# semiorthogonal counting


def sod_count(rank: int, d_vec: tuple[int, ...]) -> int:
    """Number of pieces in the flag-bundle decomposition: the multinomial
    rank! / (d_1! ... d_m! (rank - sum d)!), i.e. the product of binomials
    along the Grassmannian-bundle tower."""
    d_vec = tuple(d_vec)
    if rank < 1:
        raise ValueError("rank must be positive")
    if any(d < 1 for d in d_vec):
        raise ValueError("dimension vector entries must be positive")
    total = sum(d_vec)
    if total > rank:
        raise ValueError(f"dimension vector total {total} exceeds rank {rank}")
    out = factorial(rank) // factorial(rank - total)
    for d in d_vec:
        out //= factorial(d)
    return out


# ---------------------------------------------------------------------------
# degree-zero modules


@dataclass(frozen=True)
class PresentedPoly:
    """Polynomial in the presentation generators with coefficients in the
    representation ring, stored as (exponent tuple, coefficient) terms."""

    terms: tuple[tuple[tuple[int, ...], RepRingElement], ...]

    def coefficient(self, monomial: tuple[int, ...]) -> Optional[RepRingElement]:
        for mono, coeff in self.terms:
            if mono == monomial:
                return coeff
        return None


@dataclass(frozen=True)
class RingPresentation:
    ring: RepRing
    gens: tuple[str, ...]
    relations: tuple[PresentedPoly, ...]


# unknown corner of a split square -> (the two corners that add, the corner
# that cancels): the unknown's value is their sum minus the third
_SPLIT_SQUARE = {
    "X": (("Y", "Z"), "E"),
    "E": (("Y", "Z"), "X"),
    "Y": (("X", "E"), "Z"),
    "Z": (("X", "E"), "Y"),
}


@dataclass(frozen=True)
class Degree0Module:
    """Free module of the given rank over R(G).

    assumed_oracles lists the descent nodes whose declared rank was consumed.
    basis_labels (named basis cells) and ring_presentation (split
    projectivization towers only, else None) are built on first access.
    """

    rank: int
    tree: Tree = field(compare=False, repr=False)
    group: GroupDatum
    assumed_oracles: tuple[str, ...] = ()

    @cached_property
    def basis_labels(self) -> tuple[str, ...]:
        if classify(self.tree).tag == "B":
            return fold(self.tree, _labels_of)
        return tuple(f"les:{j}" for j in range(self.rank))

    @cached_property
    def ring_presentation(self) -> Optional[RingPresentation]:
        try:
            return ring_degree0(self.tree, self.group)
        except UnsupportedError:
            return None


class _MissingOracle(Exception):
    """A descent node without an oracle rank; carries the node."""


def _rank_of(node: Tree, kids: list[tuple[int, tuple[str, ...]]]) -> tuple[int, tuple[str, ...]]:
    """One node of the class-B degree-0 fold: the rank, and the consumed
    oracle paths relative to the node, children before the node itself."""
    oracles = tuple(_subpath(i, p) for i, (_, below) in enumerate(kids) for p in below)
    if isinstance(node, Point):
        return 1, ()
    if isinstance(node, Disjoint):
        return sum(rank for rank, _ in kids), oracles
    if isinstance(node, FlagBundle):
        return kids[0][0] * sod_count(node.bundle.rank, node.d_vec), oracles
    if isinstance(node, StratifiedDescent):
        if node.oracle_rank is None:
            raise _MissingOracle(node)
        if node.oracle_rank > kids[0][0]:
            raise InconsistentDataError(
                f"oracle rank {node.oracle_rank} exceeds the total-space rank {kids[0][0]}"
            )
        return node.oracle_rank, oracles + ("",)
    # a blowup, split on the class-B path
    ranks = {label: rank for label, (rank, _) in zip(node.known_labels, kids)}
    (plus, other), minus = _SPLIT_SQUARE[node.unknown_corner]
    rank = ranks[plus] + ranks[other] - ranks[minus]
    if rank < 0:
        raise InconsistentDataError("inconsistent split data: negative rank")
    return rank, oracles


def _labels_of(node: Tree, kids: list[tuple[str, ...]]) -> tuple[str, ...]:
    """One node of the basis-label fold over a computed class-B tree."""
    if isinstance(node, Point):
        return ("pt",)
    if isinstance(node, Disjoint):
        return tuple(f"{i}:{lbl}" for i, below in enumerate(kids) for lbl in below)
    if isinstance(node, FlagBundle):
        pieces = sod_count(node.bundle.rank, node.d_vec)
        return tuple(f"{lbl}|c{j}" for lbl in kids[0] for j in range(pieces))
    if isinstance(node, StratifiedDescent):
        return tuple(f"cell{j}" for j in range(node.oracle_rank))
    rank, _ = _rank_of(node, [(len(below), ()) for below in kids])
    return tuple(f"blowup[{node.split}]:{j}" for j in range(rank))


def _degree0(tree: Tree, path: str) -> tuple[int, tuple[str, ...]]:
    """Rank and consumed oracle paths of the class-B tree at ``path``."""
    try:
        rank, oracles = fold(tree, _rank_of)
    except _MissingOracle as exc:
        def first_path(node: Tree, kids: list[Optional[str]]) -> Optional[str]:
            below = (_subpath(i, p) for i, p in enumerate(kids) if p is not None)
            return "" if node is exc.args[0] else next(below, None)

        where = _join(path, fold(tree, first_path))
        raise UnderdeterminedError(
            "rank undetermined: summand certificate only "
            f"(descent node {where} declares no oracle rank)"
        ) from None
    return rank, tuple(_join(path, p) for p in oracles)


def _join(path: str, below: str) -> str:
    """The path ``below`` (relative, "" for the node itself) under ``path``."""
    return "/".join(p for p in (path, below) if p) or "(root)"


def _computable_class(tree: Tree, group: GroupDatum) -> MembershipClass:
    """The tree's class, B or C, or the error for a group or class without
    computable modules."""
    if isinstance(group, OpaqueGroup):
        raise UnsupportedError("opaque groups admit no ring arithmetic")
    cls = classify(tree)
    if cls.tag == "invalid":
        raise HypothesisError("tree classification is invalid (mixed primes)")
    if cls.tag == "C_p":
        raise UnsupportedError("henselian bases carry no computable module")
    return cls


def compute_degree0(tree: Tree, group: GroupDatum) -> Degree0Module:
    """The degree-zero module, free over R(G).

    Class-B trees are evaluated by one fold over the closure rules.  Class-C
    trees are accepted only with trivial group and comparison maps on every
    non-split square; the result then carries rank information only.
    """
    cls = _computable_class(tree, group)
    if cls.tag == "B":
        rank, oracles = _degree0(tree, "")
        return Degree0Module(rank, tree, group, oracles)
    # class C: only the rank is meaningful, via the degreewise solver
    if not group.is_trivial:
        raise UnsupportedError(
            "class-C degree-zero ranks are computed with trivial group only"
        )
    window = _explicit_eval(tree, group, builtin_table("unit"), 0, 0, "")
    value = window.value_at(0)
    if value.invariant_factors:
        raise InconsistentDataError(
            "degree-zero module acquired torsion; free-module model violated"
        )
    return Degree0Module(value.free_rank, tree, group, window.assumed_oracles)


# ---------------------------------------------------------------------------
# ring presentations on the split-projectivization path


def _split_chain(tree: Tree) -> list[tuple[tuple[int, ...], ...]]:
    """Split characters of each projectivization, from the point upwards."""
    chain = []
    while isinstance(tree, FlagBundle):
        if tree.d_vec != (1,):
            raise UnsupportedError("ring presentations need projectivizations (d = (1))")
        if tree.bundle.split_characters is None:
            raise UnsupportedError("ring presentations need split bundles")
        chain.append(tree.bundle.split_characters)
        tree = tree.base
    if not isinstance(tree, Point):
        raise UnsupportedError(
            "ring presentations cover chains of split projectivizations over the point"
        )
    return chain[::-1]


def ring_degree0(tree: Tree, group: GroupDatum) -> RingPresentation:
    """Presentation of the degree-zero ring on split projectivization towers.

    At each bundle P(L_1 + ... + L_n) a generator x (the tautological
    quotient line class) is adjoined with the monic relation
    prod_j (x - [L_j]) = 0 over the ring below.
    """
    if isinstance(group, OpaqueGroup):
        raise UnsupportedError("opaque groups admit no ring arithmetic")
    chain = _split_chain(tree)
    ring = representation_ring(group)
    gens = tuple(f"x{k + 1}" for k in range(len(chain)))
    relations = []
    for k, chars in enumerate(chain):
        n = len(chars)
        terms = []
        for i in range(n + 1):
            coeff = elementary_symmetric_class(ring, list(chars), i)
            if i % 2 == 1:
                coeff = -coeff
            if coeff.is_zero():
                continue
            mono = tuple((n - i) if g == k else 0 for g in range(len(chain)))
            terms.append((mono, coeff))
        relations.append(PresentedPoly(tuple(terms)))
    return RingPresentation(ring, gens, tuple(relations))


# ---------------------------------------------------------------------------
# graded values


@dataclass(frozen=True)
class DegreeWindow:
    """Exact degreewise values on [lo, hi]; degrees below lo are proven zero.
    values is dense and sorted: one (degree, group) pair per degree lo..hi."""

    values: tuple[tuple[int, FgAbGroup], ...]
    lo: int
    hi: int
    assumed_oracles: tuple[str, ...] = ()

    def value_at(self, degree: int) -> FgAbGroup:
        if degree < self.lo:
            return ZERO_GROUP
        if degree > self.hi:
            raise UnderdeterminedError(
                f"degree {degree} lies above the solved window [{self.lo}, {self.hi}]"
            )
        return self.values[degree - self.lo][1]


@dataclass(frozen=True)
class GradedModuleValue:
    """A computed graded invariant value.

    Formal shape: degree-zero module tensored with the point table, valid on
    class-B input; degree i materializes to table[i] tensor Z^rank, read as
    a module descriptor over R(G).  Explicit shape: a solved degree window,
    trivial group only.
    """

    group: GroupDatum
    shape: str  # "formal" | "explicit"
    degree0: Optional[Degree0Module] = None
    table: Optional[CoefficientTable] = None
    window: Optional[DegreeWindow] = None
    provenance: tuple[str, ...] = ()
    assumed_oracles: tuple[str, ...] = ()

    def value_at(self, degree: int) -> FgAbGroup:
        if self.shape == "formal":
            assert self.degree0 is not None and self.table is not None
            return tensor_with_free(self.table.group_at(degree), self.degree0.rank)
        assert self.window is not None
        return self.window.value_at(degree)


def formal_value_of_table(table: CoefficientTable, group: GroupDatum) -> GradedModuleValue:
    """Wrap a fixture table as a rank-one formal value (the table itself)."""
    return GradedModuleValue(
        group=group,
        shape="formal",
        degree0=Degree0Module(1, Point(), group),
        table=table,
        provenance=("fixture table",),
    )


# --- the degreewise solver (trivial group, class C) ------------------------


def _table_floor(table: CoefficientTable) -> int:
    floor = table.min_degree
    if floor is None:
        raise UnderdeterminedError(
            f"table {table.name!r} is unbounded below; degreewise solving needs "
            "bounded-below coefficients"
        )
    return floor


@dataclass(frozen=True)
class LesWitness:
    """Matrices realizing one solved degree of a blowup exact sequence."""

    degree: int
    phi: tuple[tuple[int, ...], ...]  # E(Y)+E(Z) -> E(E) at this degree
    inclusion: tuple[tuple[int, ...], ...]  # E(X) -> E(Y)+E(Z) at this degree
    boundary: tuple[tuple[int, ...], ...]  # E(E) one degree above -> E(X) here


def _free_rank_of(group_value: FgAbGroup, what: str, degree: int) -> int:
    if group_value.invariant_factors:
        raise UnderdeterminedError(
            f"{what} has torsion in degree {degree}; the matrix solver covers free corners only"
        )
    return group_value.free_rank


def _zero_matrix(rows: int, cols: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(0 for _ in range(cols)) for _ in range(rows))


def solve_blowup_les(
    node: Blowup,
    group: GroupDatum,
    table: CoefficientTable,
    lo: int,
    hi: int,
    path: str = "",
    collect_witnesses: bool = False,
) -> tuple[DegreeWindow, list[LesWitness]]:
    """Solve the unknown corner of a non-split square degree by degree.

    Assembles ... -> E_i(X) -> E_i(Y) + E_i(Z) -> E_i(E) -> E_{i-1}(X) -> ...
    and reads the unknown X off as coker(phi_{i+1}) + ker(phi_i), descending
    until the known corners vanish; below that the unknown is forced to zero.
    Only the base corner can be solved for: the stored comparison matrices
    present the restriction map out of the cover and center.
    """
    if node.unknown_corner != "X":
        raise UnderdeterminedError(
            "non-split squares are solved for the base corner only"
        )
    corner_windows = {}
    for i, (label, corner) in enumerate(node.known):
        corner_windows[label] = _explicit_eval(
            corner, group, table, lo - 1, hi + 1, _join(path, str(i))
        )
    floor = min(w.lo for w in corner_windows.values())
    oracles: list[str] = []
    for w in corner_windows.values():
        oracles.extend(w.assumed_oracles)

    def corner_at(label: str, degree: int) -> FgAbGroup:
        return corner_windows[label].value_at(degree)

    rational_seen = {
        g.rational
        for w in corner_windows.values()
        for _, g in w.values
        if not g.is_zero
    }
    if len(rational_seen) > 1:
        raise InconsistentDataError("corners mix integral and rational coefficients")
    rational = rational_seen.pop() if rational_seen else False

    def phi_matrix(degree: int) -> tuple[tuple[tuple[int, ...], ...], int, int]:
        if degree > hi + 1:
            return _zero_matrix(0, 0), 0, 0
        src = _free_rank_of(corner_at("Y", degree), "cover corner", degree) + _free_rank_of(
            corner_at("Z", degree), "center corner", degree
        )
        tgt = _free_rank_of(corner_at("E", degree), "exceptional corner", degree)
        if src == 0 or tgt == 0:
            return _zero_matrix(tgt, src), src, tgt
        matrix = node.map_at(degree)
        if matrix is None:
            raise UnderdeterminedError(
                f"underdetermined LES: missing comparison map in degree {degree}"
            )
        if len(matrix) != tgt or any(len(row) != src for row in matrix):
            raise InconsistentDataError(
                f"comparison map in degree {degree} must be {tgt} x {src}"
            )
        return matrix, src, tgt

    solve_lo = min(lo, floor - 1)
    values: list[tuple[int, FgAbGroup]] = []
    witnesses: list[LesWitness] = []
    for degree in range(hi, solve_lo - 1, -1):
        above, src_above, tgt_above = phi_matrix(degree + 1)
        here, src_here, tgt_here = phi_matrix(degree)
        if tgt_above:
            form_above = snf([list(r) for r in above]) if src_above else None
            if form_above is None:
                coker = FgAbGroup(tgt_above, (), rational)
            else:
                coker = form_above.cokernel()
                if rational:
                    coker = FgAbGroup(coker.free_rank, (), True)
        else:
            form_above = None
            coker = ZERO_GROUP
        if src_here:
            form_here = snf([list(r) for r in here]) if tgt_here else None
            ker_rank = (
                form_here.kernel_rank() if form_here is not None else src_here
            )
        else:
            form_here = None
            ker_rank = 0
        kernel = FgAbGroup(ker_rank, (), rational) if ker_rank else ZERO_GROUP
        value = direct_sum(coker, kernel) if not (coker.is_zero and kernel.is_zero) else ZERO_GROUP
        values.append((degree, value))
        if collect_witnesses:
            witnesses.append(
                _build_witness(
                    degree,
                    here,
                    src_here,
                    tgt_here,
                    form_here,
                    above,
                    src_above,
                    tgt_above,
                    form_above,
                    coker,
                    ker_rank,
                )
            )
    window = DegreeWindow(
        values=tuple(sorted(values)),
        lo=solve_lo,
        hi=hi,
        assumed_oracles=tuple(oracles),
    )
    return window, witnesses


def _build_witness(
    degree: int,
    phi: tuple[tuple[int, ...], ...],
    src: int,
    tgt: int,
    form: Optional[SmithForm],
    phi_above: tuple[tuple[int, ...], ...],
    src_above: int,
    tgt_above: int,
    form_above: Optional[SmithForm],
    coker: FgAbGroup,
    ker_rank: int,
) -> LesWitness:
    """Witness matrices in the basis coker(phi_{deg+1}) + ker(phi_deg)."""
    if coker.invariant_factors:
        raise UnderdeterminedError(
            "witness extraction needs torsion-free cokernels"
        )
    coker_rank = coker.free_rank
    x_rank = coker_rank + ker_rank
    # inclusion into E(Y)+E(Z): kernel basis columns, zero on the coker part
    kernel_cols = form.kernel_basis() if form is not None and tgt else []
    if form is None and src:
        kernel_cols = [[1 if r == j else 0 for r in range(src)] for j in range(src)]
    inclusion = tuple(
        tuple(
            0 if col < coker_rank else kernel_cols[col - coker_rank][row]
            for col in range(x_rank)
        )
        for row in range(src)
    )
    # boundary from E(E) in the degree above: last rows of the left transform
    if tgt_above:
        if form_above is not None:
            rows = form_above.left[form_above.rank :]
        else:
            rows = tuple(
                tuple(1 if c == r else 0 for c in range(tgt_above))
                for r in range(tgt_above)
            )
        boundary = tuple(
            tuple(rows[r][c] for c in range(tgt_above)) for r in range(coker_rank)
        )
    else:
        boundary = _zero_matrix(coker_rank, 0)
    # pad the boundary to land in the full X basis (coker part first)
    boundary_full = tuple(
        boundary[r] if r < coker_rank else tuple(0 for _ in range(tgt_above))
        for r in range(x_rank)
    )
    return LesWitness(degree=degree, phi=phi, inclusion=inclusion, boundary=boundary_full)


def _explicit_eval(
    tree: Tree,
    group: GroupDatum,
    table: CoefficientTable,
    lo: int,
    hi: int,
    path: str,
) -> DegreeWindow:
    """Degreewise value of a (possibly class-C) tree, trivial group."""
    cls = _computable_class(tree, group)
    floor = _table_floor(table)
    if cls.tag == "B":
        rank, oracles = _degree0(tree, path)
        eff_lo = min(lo, floor)
        values = tuple(
            (d, tensor_with_free(table.group_at(d), rank))
            for d in range(eff_lo, hi + 1)
        )
        return DegreeWindow(values, eff_lo, hi, oracles)
    if isinstance(tree, Disjoint):
        subs = [
            _explicit_eval(child, group, table, lo, hi, _join(path, str(i)))
            for i, child in enumerate(tree.children)
        ]
        eff_lo = min([w.lo for w in subs], default=min(lo, floor))
        values = tuple(
            (d, direct_sum(*(w.value_at(d) for w in subs)))
            for d in range(eff_lo, hi + 1)
        )
        oracles = tuple(o for w in subs for o in w.assumed_oracles)
        return DegreeWindow(values, eff_lo, hi, oracles)
    if isinstance(tree, FlagBundle):
        base = _explicit_eval(tree.base, group, table, lo, hi, _join(path, "0"))
        pieces = sod_count(tree.bundle.rank, tree.d_vec)
        values = tuple(
            (d, tensor_with_free(base.value_at(d), pieces))
            for d in range(base.lo, hi + 1)
        )
        return DegreeWindow(values, base.lo, hi, base.assumed_oracles)
    if isinstance(tree, StratifiedDescent):
        raise UnderdeterminedError(
            "stratified descent under non-split data gives a summand certificate only"
        )
    if isinstance(tree, Blowup):
        if tree.split is not None:
            subs = {}
            oracles: list[str] = []
            for i, (label, corner) in enumerate(tree.known):
                w = _explicit_eval(corner, group, table, lo, hi, _join(path, str(i)))
                subs[label] = w
                oracles.extend(w.assumed_oracles)
            eff_lo = min(w.lo for w in subs.values())
            (plus, other), minus = _SPLIT_SQUARE[tree.unknown_corner]
            values = []
            for d in range(eff_lo, hi + 1):
                total = direct_sum(subs[plus].value_at(d), subs[other].value_at(d))
                try:
                    values.append((d, summand_complement(total, subs[minus].value_at(d))))
                except ValueError as exc:
                    raise InconsistentDataError(f"inconsistent split data: {exc}") from None
            return DegreeWindow(tuple(values), eff_lo, hi, tuple(oracles))
        window, _ = solve_blowup_les(tree, group, table, lo, hi, path)
        return window
    raise UnsupportedError(f"no degreewise rule for {type(tree).__name__}")


def compute_graded(
    tree: Tree,
    group: GroupDatum,
    table: CoefficientTable,
    degrees: Optional[tuple[int, int]] = None,
) -> GradedModuleValue:
    """Graded invariant value over the given coefficient table.

    Class-B input yields the formal shape (any group); class-C input is
    solved degreewise and needs the trivial group, bounded-below
    coefficients, comparison maps on every non-split square, and an explicit
    degree window.
    """
    cls = _computable_class(tree, group)
    if cls.tag == "B":
        module = compute_degree0(tree, group)
        return GradedModuleValue(
            group=group,
            shape="formal",
            degree0=module,
            table=table,
            provenance=(f"class-B formality over table {table.name!r}",),
            assumed_oracles=module.assumed_oracles,
        )
    if not group.is_trivial:
        raise UnsupportedError(
            "class-C values are computed with trivial group only; "
            "equivariant class-C trees get rank bounds and certificates"
        )
    if degrees is None:
        raise ValueError("class-C evaluation needs an explicit degree window")
    lo, hi = degrees
    if lo > hi:
        raise ValueError("empty degree window")
    window = _explicit_eval(tree, group, table, lo, hi, "")
    return GradedModuleValue(
        group=group,
        shape="explicit",
        window=window,
        provenance=("degreewise blowup long exact sequences",),
        assumed_oracles=window.assumed_oracles,
    )


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class FiberTable:
    """Homotopy groups of the fiber of a comparison map on the classifying
    stack.  complete=True means unlisted degrees are zero; otherwise they
    are unknown."""

    known: tuple[tuple[int, FgAbGroup], ...]
    complete: bool = True

    def group_at(self, degree: int) -> Optional[FgAbGroup]:
        for d, g in self.known:
            if d == degree:
                return g
        return ZERO_GROUP if self.complete else None

    @property
    def all_vanish(self) -> bool:
        return self.complete and all(g.is_zero for _, g in self.known)


ZERO_FIBER = FiberTable(known=(), complete=True)


@dataclass(frozen=True)
class Verdict:
    """A theorem-backed conclusion together with the hypotheses consumed."""

    kind: str  # equivalence_all_degrees | iso_in_degree | split_decomposition | vanishing | not_in_b
    hypotheses: tuple[str, ...]
    conclusion_text: str
    degree: Optional[int] = None


@dataclass(frozen=True)
class NoVerdict:
    """Absence of a verdict, reporting the failing hypothesis."""

    failed_hypothesis: str

    @property
    def conclusion_text(self) -> str:
        return f"no verdict: {self.failed_hypothesis}"


def verify_comparison(
    fiber_on_bg: FiberTable,
    tree_class: MembershipClass,
    target_degree: Optional[int] = None,
) -> Union[Verdict, NoVerdict]:
    """Comparison verdict from fiber vanishing on the classifying stack.

    A fiber vanishing in every degree upgrades to an equivalence in all
    degrees on class C (hence class B).  Vanishing in degrees i and i-1
    upgrades to an isomorphism in degree i on class B.  C_p trees are
    refused here: their base hypotheses are not expressible through the
    classifying-stack fiber alone.
    """
    if tree_class.tag == "invalid":
        return NoVerdict("tree classification is invalid")
    if fiber_on_bg.all_vanish:
        if tree_class.at_least("C"):
            return Verdict(
                kind="equivalence_all_degrees",
                hypotheses=(
                    f"membership class {tree_class.describe()}",
                    "comparison fiber vanishes in all degrees on the classifying stack",
                ),
                conclusion_text="the comparison map is an equivalence in every degree",
            )
        return NoVerdict(
            f"class {tree_class.describe()} does not support the all-degrees upgrade"
        )
    if target_degree is not None:
        if tree_class.tag != "B":
            return NoVerdict(
                f"degreewise upgrade needs class B; tree is {tree_class.describe()}"
            )
        here = fiber_on_bg.group_at(target_degree)
        below = fiber_on_bg.group_at(target_degree - 1)
        if here is None or below is None:
            return NoVerdict(
                f"fiber groups in degrees {target_degree} and {target_degree - 1} are not known"
            )
        if not here.is_zero:
            return NoVerdict(f"fiber does not vanish in degree {target_degree}")
        if not below.is_zero:
            return NoVerdict(f"fiber does not vanish in degree {target_degree - 1}")
        return Verdict(
            kind="iso_in_degree",
            degree=target_degree,
            hypotheses=(
                "membership class B",
                f"comparison fiber vanishes in degrees {target_degree} and {target_degree - 1} "
                "on the classifying stack",
            ),
            conclusion_text=(
                f"the comparison map is an isomorphism in degree {target_degree}"
            ),
        )
    return NoVerdict("fiber does not vanish in all degrees and no target degree given")


def positive_split_verdict(tree_class: MembershipClass, degree: int) -> Union[Verdict, NoVerdict]:
    """Certificate for the positive-degree direct-sum decomposition of the
    K-groups into the homotopy-invariant and negative-cyclic parts."""
    if tree_class.tag != "B":
        return NoVerdict(f"decomposition needs class B; tree is {tree_class.describe()}")
    if degree < 1:
        return NoVerdict("decomposition holds in positive degrees only")
    return Verdict(
        kind="split_decomposition",
        degree=degree,
        hypotheses=(
            "membership class B",
            "cdh-sheafified negative cyclic homology vanishes in positive degrees "
            "on the classifying stack",
        ),
        conclusion_text=(
            f"degree {degree}: K = KH + HC^- (direct sum of the two computed columns)"
        ),
    )


def decompose_positive_k(
    kh: GradedModuleValue,
    hcminus: GradedModuleValue,
    tree_class: MembershipClass,
    degree: int,
) -> FgAbGroup:
    """Degree-i K-group as the direct sum KH_i + HC^-_i, valid on class B
    for i >= 1."""
    verdict = positive_split_verdict(tree_class, degree)
    if isinstance(verdict, NoVerdict):
        raise HypothesisError(verdict.failed_hypothesis)
    return direct_sum(kh.value_at(degree), hcminus.value_at(degree))


@dataclass(frozen=True)
class NotInB:
    """Witness that no splitting choice can exist: a nonzero value in a
    negative degree, impossible under class-B formality over the unit table."""

    degree: int
    value: FgAbGroup

    def describe(self) -> str:
        return f"nonzero value {self.value.describe()} in degree {self.degree}"


def refute_membership_b(tree: Tree, group: GroupDatum = GroupDatum(0)) -> Optional[NotInB]:
    """Search negative degrees for an obstruction to class-B membership.

    Evaluates the tree over the unit table; any nonzero negative-degree
    value contradicts formality, which forces vanishing below degree zero.
    Returns None when no obstruction is found (in particular on class-B
    trees, where formality computes the shape directly).
    """
    cls = classify(tree)
    if cls.tag == "invalid":
        raise HypothesisError("invalid tree")
    if cls.tag == "B":
        return None
    if cls.tag == "C_p":
        raise UnsupportedError("henselian bases carry no computable module")
    if not group.is_trivial:
        raise UnsupportedError("refutation runs with trivial group only")
    window = _explicit_eval(tree, group, builtin_table("unit"), -1, -1, "")
    for degree in range(-1, window.lo - 1, -1):
        value = window.value_at(degree)
        if not value.is_zero:
            return NotInB(degree=degree, value=value)
    return None


def parshin_check(
    tree: Tree,
    group: GroupDatum,
    point_table: Optional[CoefficientTable] = None,
) -> Union[Verdict, NoVerdict]:
    """Vanishing of rationalized values in all nonzero degrees on class B.

    point_table defaults to the rational degree-zero table; supplying a
    table with support outside degree zero withdraws the hypothesis and no
    verdict is issued.
    """
    cls = classify(tree)
    if cls.tag != "B":
        raise HypothesisError(
            f"vanishing statement needs class B; tree is {cls.describe()}"
        )
    table = point_table if point_table is not None else builtin_table("rational_deg0")
    off_zero = [d for d, g in table.degree_groups if d != 0 and not g.is_zero]
    if off_zero or table.periodicity is not None:
        return NoVerdict(
            "rationalized point values are not concentrated in degree zero"
        )
    module = compute_degree0(tree, group)
    hypotheses = (
        "membership class B",
        "rationalized point values are concentrated in degree zero",
    ) + tuple(f"assumed oracle at {p}" for p in module.assumed_oracles)
    return Verdict(
        kind="vanishing",
        hypotheses=hypotheses,
        conclusion_text=(
            "rationalized values vanish in every degree != 0; "
            f"degree-0 rank {module.rank} over R(G)"
        ),
    )
