"""Evaluation of graded invariants over construction trees.

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
from functools import cache, cached_property, partial
from math import comb
from typing import Optional, Union

from .coeff import (
    ZERO_GROUP,
    CoefficientTable,
    FgAbGroup,
    SmithForm,
    builtin_table,
    direct_sum,
    overlay_rows,
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
    class_tag,
    classify,
    first_path,
    fold,
)
from .group_rep import (
    GroupDatum,
    OpaqueGroup,
    RepRing,
    RepRingElement,
    elementary_symmetric_classes,
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
    if rank < 1:
        raise ValueError("rank must be positive")
    if any(d < 1 for d in d_vec):
        raise ValueError("dimension vector entries must be positive")
    total = sum(d_vec)
    if total > rank:
        raise ValueError(f"dimension vector total {total} exceeds rank {rank}")
    out = 1
    for d in d_vec:
        out *= comb(rank, d)
        rank -= d
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
        if class_tag(self.tree) == "B":
            return fold(self.tree, partial(_labels_of, self.tree))
        return tuple(f"les:{j}" for j in range(self.rank))

    @cached_property
    def ring_presentation(self) -> Optional[RingPresentation]:
        try:
            return ring_degree0(self.tree, self.group)
        except UnsupportedError:
            return None


def _rank_of(root: Tree, node: Tree, kids: list[int]) -> int:
    """One node of the class-B degree-0 fold under ``root``: the rank from
    the children's.  A descent without an oracle rank is named at its first
    path from ``root``."""
    if isinstance(node, Point):
        return 1
    if isinstance(node, Disjoint):
        return sum(kids)
    if isinstance(node, FlagBundle):
        return kids[0] * sod_count(node.bundle.rank, node.d_vec)
    if isinstance(node, StratifiedDescent):
        if node.oracle_rank is None:
            raise UnderdeterminedError(
                "rank undetermined: summand certificate only "
                f"(descent node {first_path(root, node)} declares no oracle rank)"
            )
        if node.oracle_rank > kids[0]:
            raise InconsistentDataError(
                f"oracle rank {node.oracle_rank} exceeds the total-space rank {kids[0]}"
            )
        return node.oracle_rank
    # a blowup, split on the class-B path
    ranks = dict(zip(node.known_labels, kids))
    (plus, other), minus = _SPLIT_SQUARE[node.unknown_corner]
    rank = ranks[plus] + ranks[other] - ranks[minus]
    if rank < 0:
        raise InconsistentDataError("inconsistent split data: negative rank")
    return rank


def _labels_of(root: Tree, node: Tree, kids: list[tuple[str, ...]]) -> tuple[str, ...]:
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
    rank = _rank_of(root, node, [len(below) for below in kids])
    return tuple(f"blowup[{node.split}]:{j}" for j in range(rank))


def _computable_tag(tree: Tree, group: GroupDatum) -> str:
    """The tree's class tag, B or C, or the error for a group or class
    without computable modules."""
    if isinstance(group, OpaqueGroup):
        raise UnsupportedError("opaque groups admit no ring arithmetic")
    tag = class_tag(tree)
    if tag == "invalid":
        raise HypothesisError("tree classification is invalid (mixed primes)")
    if tag == "C_p":
        raise UnsupportedError("henselian bases carry no computable module")
    return tag


def compute_degree0(tree: Tree, group: GroupDatum) -> Degree0Module:
    """The degree-zero module, free over R(G).

    Class-B trees are evaluated by one fold over the closure rules, whose
    rank is cached on the tree like its class; a fold that raises caches
    nothing.  Class-C trees are accepted only with trivial group and
    comparison maps on every non-split square; the result then carries rank
    information only.
    """
    if _computable_tag(tree, group) == "B":
        rank = tree.__dict__.get("_degree0_rank")
        if rank is None:
            rank = tree.__dict__["_degree0_rank"] = fold(tree, partial(_rank_of, tree))
        return Degree0Module(rank, tree, group, classify(tree).oracles_children_first)
    # class C: only the rank is meaningful, via the degreewise solver; over
    # the unit table no value is nonzero above degree 0, so a square's X_0 is
    # ker(phi_0), free: its torsion, coker(phi_0), lands in degree -1
    window = _explicit_eval(tree, group, builtin_table("unit"), 0)
    return Degree0Module(window.value_at(0).free_rank, tree, group, window.assumed_oracles)


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
        # every e_i is a sum of C(n, i) characters, so no term is zero
        for i, coeff in enumerate(elementary_symmetric_classes(ring, chars)):
            mono = tuple((n - i) if g == k else 0 for g in range(len(chain)))
            terms.append((mono, -coeff if i % 2 else coeff))
        relations.append(PresentedPoly(tuple(terms)))
    return RingPresentation(ring, gens, tuple(relations))


# ---------------------------------------------------------------------------
# graded values


@dataclass(frozen=True, repr=False)
class DegreeWindow:
    """Exact degreewise values up to hi; lo is the lowest nonzero degree (hi
    if none), degrees below it are zero.  ``support`` holds sorted (degree,
    value) pairs of [lo, hi] and every degree it does not list is zero: the
    solver lists the nonzero degrees only, so a window costs its support,
    not its width; ``value_at`` and ``rows`` read it, and no copy of it is
    kept.  The dense pairs, ``values``, are built on first read."""

    support: tuple[tuple[int, FgAbGroup], ...]
    lo: int
    hi: int
    assumed_oracles: tuple[str, ...] = ()

    @cached_property
    def values(self) -> tuple[tuple[int, FgAbGroup], ...]:
        """Every degree of [lo, hi] with its value."""
        return tuple(zip(range(self.lo, self.hi + 1), self.rows(self.lo, self.hi)))

    def __repr__(self) -> str:
        return (
            f"DegreeWindow(values={self.values!r}, lo={self.lo!r}, hi={self.hi!r}, "
            f"assumed_oracles={self.assumed_oracles!r})"
        )

    def value_at(self, degree: int) -> FgAbGroup:
        if degree > self.hi:
            raise UnderdeterminedError(
                f"degree {degree} lies above the solved window [{self.lo}, {self.hi}]"
            )
        return self.rows(degree, degree)[0]

    def rows(self, lo: int, hi: int, through=None) -> list:
        """``[through(value_at(d)) for d in range(lo, hi + 1)]`` from the
        support (``overlay_rows``), ``through`` the identity if None."""
        if hi > self.hi:
            self.value_at(max(lo, self.hi + 1))  # raises, as value_at would
        return overlay_rows(self.support, lo, hi, through=through)


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

    @cached_property
    def _tensored(self) -> dict[int, FgAbGroup]:
        """Formal shape: id of a table row -> its tensor with Z^rank, filled as
        read.  The table holds every row it hands out, and equal rows are one
        object, so a periodic table fills a handful of entries."""
        return {}

    def _tensor_of(self, row: FgAbGroup) -> FgAbGroup:
        assert self.degree0 is not None
        value = self._tensored.get(id(row))
        if value is None:
            value = self._tensored[id(row)] = tensor_with_free(row, self.degree0.rank)
        return value

    def value_at(self, degree: int) -> FgAbGroup:
        if self.shape == "formal":
            assert self.table is not None
            return self._tensor_of(self.table.group_at(degree))
        assert self.window is not None
        return self.window.value_at(degree)

    def rows(self, lo: int, hi: int, through=None) -> list:
        """``[through(value_at(d)) for d in range(lo, hi + 1)]`` without a
        lookup per degree, ``through`` the identity if None.  The formal
        shape tensors and maps each row of the table's period once, however
        wide the window; equal rows of it are one object."""
        if self.shape == "formal":
            assert self.table is not None
            tensor = self._tensor_of
            return self.table.rows(lo, hi, tensor if through is None else lambda g: through(tensor(g)))
        assert self.window is not None
        return self.window.rows(lo, hi, through)


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


def _identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(r == c) for c in range(n)) for r in range(n))


@cache
def _zero_map(tgt: int, src: int) -> SmithForm:
    """A map Z^src -> Z^tgt with a zero side: its own Smith form, one per shape."""
    return SmithForm((), 0, tgt, src, ((0,) * src,) * tgt)


def solve_blowup_les(
    node: Blowup,
    group: GroupDatum,
    table: CoefficientTable,
    lo: int,
    hi: int,
    collect_witnesses: bool = False,
) -> tuple[DegreeWindow, list[LesWitness]]:
    """Solve the unknown corner of a non-split square degree by degree.

    Assembles ... -> E_i(X) -> E_i(Y) + E_i(Z) -> E_i(E) -> E_{i-1}(X) -> ...
    and reads the unknown X off as coker(phi_{i+1}) + ker(phi_i).  Only the
    base corner can be solved for: the stored comparison matrices present
    the restriction map out of the cover and center.  Witnesses cover the
    degrees i >= ``lo`` where a corner is nonzero in degree i or i + 1; in
    any other, X and all corners are zero: its witness would be empty.
    """
    witnesses: list[LesWitness] = []
    window = _explicit_eval(node, group, table, hi, witnesses if collect_witnesses else None)
    return window, [w for w in witnesses if w.degree >= lo]


def _les_values(
    node: Blowup,
    corners: dict[str, dict[int, FgAbGroup]],
    top: int,
    witnesses: Optional[list[LesWitness]],
) -> dict[int, FgAbGroup]:
    """A non-split square's base corner up to ``top`` from its corners' maps
    of nonzero degrees, solved only where a corner is nonzero in degree i or
    i + 1 (elsewhere X_i is 0); each phi_i is built once.  Each degree's map
    is factored once per square, kept on the node for every later evaluation
    of the tree."""
    live = [d for c in corners.values() for d in c if d <= top + 1]
    rational_seen = {g.rational for c in corners.values() for d, g in c.items() if d <= top + 1}
    if len(rational_seen) > 1:
        raise InconsistentDataError("corners mix integral and rational coefficients")
    rational = rational_seen.pop() if rational_seen else False
    forms = node.__dict__.setdefault("_forms", {})

    def phi(degree: int) -> SmithForm:
        src = _free_rank_of(corners["Y"].get(degree, ZERO_GROUP), "cover corner", degree)
        src += _free_rank_of(corners["Z"].get(degree, ZERO_GROUP), "center corner", degree)
        tgt = _free_rank_of(corners["E"].get(degree, ZERO_GROUP), "exceptional corner", degree)
        if src == 0 or tgt == 0:
            return _zero_map(tgt, src)
        matrix = node.map_at(degree)
        if matrix is None:
            raise UnderdeterminedError(
                f"underdetermined LES: missing comparison map in degree {degree}"
            )
        if len(matrix) != tgt or any(len(row) != src for row in matrix):
            raise InconsistentDataError(f"comparison map in degree {degree} must be {tgt} x {src}")
        if degree not in forms:
            forms[degree] = snf(matrix)
        return forms[degree]

    values: dict[int, FgAbGroup] = {}
    # descending, so a missing map is met in the same order as by a walk
    # over every degree: the gaps skipped read no map; a degree's phi is
    # the phi above of the next degree down, when that is solved next
    below = here = None
    for degree in sorted({e for d in live for e in (d, d - 1) if e <= top}, reverse=True):
        above = here if below == degree else phi(degree + 1)
        here, below = phi(degree), degree - 1
        # X_i = coker(phi_{i+1}) + Z^ker(phi_i); a rational group drops the torsion
        coker = above.cokernel()
        free = coker.free_rank + here.kernel_rank()
        x = values[degree] = FgAbGroup(free, coker.invariant_factors, rational)
        if witnesses is not None:
            witnesses.append(_build_witness(degree, here, above, x))
    return values


def _build_witness(degree: int, here: SmithForm, above: SmithForm, x: FgAbGroup) -> LesWitness:
    """Witness matrices in the basis coker(phi_{deg+1}) + ker(phi_deg) of X."""
    if x.invariant_factors:
        raise UnderdeterminedError("witness extraction needs torsion-free cokernels")
    x_rank = x.free_rank
    coker_rank = x_rank - here.kernel_rank()
    # inclusion into E(Y)+E(Z): kernel basis columns, zero on the coker part;
    # a map into 0 keeps no column count in its empty matrix
    kernel_cols = here.kernel_basis() if here.rows else _identity(here.cols)
    inclusion = tuple(
        tuple(
            0 if col < coker_rank else kernel_cols[col - coker_rank][row]
            for col in range(x_rank)
        )
        for row in range(here.cols)
    )
    # boundary from E(E) in the degree above: last rows of the left
    # transform, padded with zero rows to the full X basis (coker part first)
    rows = above.left[above.rank :]
    boundary = tuple(
        tuple(rows[r][c] for c in range(above.rows)) if r < coker_rank else (0,) * above.rows
        for r in range(x_rank)
    )
    return LesWitness(degree=degree, phi=here.matrix, inclusion=inclusion, boundary=boundary)


def _refusal(node: Tree) -> Optional[str]:
    """Why a class-C node is underdetermined before reading its children."""
    if isinstance(node, StratifiedDescent):
        return "stratified descent under non-split data gives a summand certificate only"
    if isinstance(node, Blowup) and node.split is None and node.unknown_corner != "X":
        return "non-split squares are solved for the base corner only"
    return None


def _class_c_values(
    node: Tree,
    kids: list[dict[int, FgAbGroup]],
    top: int,
    witnesses: Optional[list[LesWitness]],
) -> dict[int, FgAbGroup]:
    """A class-C node's values up to ``top`` from its children's maps."""
    if isinstance(node, Blowup) and node.split is None:
        return _les_values(node, dict(zip(node.known_labels, kids)), top, witnesses)
    degrees = sorted({d for kid in kids for d in kid if d <= top})
    if isinstance(node, Disjoint):
        return {d: direct_sum(*(kid.get(d, ZERO_GROUP) for kid in kids)) for d in degrees}
    if isinstance(node, FlagBundle):
        pieces = sod_count(node.bundle.rank, node.d_vec)
        return {d: tensor_with_free(kids[0][d], pieces) for d in degrees}
    # a split square
    corners = dict(zip(node.known_labels, kids))
    (plus, other), minus = _SPLIT_SQUARE[node.unknown_corner]
    values = {}
    for d in degrees:
        total = direct_sum(corners[plus].get(d, ZERO_GROUP), corners[other].get(d, ZERO_GROUP))
        try:
            values[d] = summand_complement(total, corners[minus].get(d, ZERO_GROUP))
        except ValueError as exc:
            raise InconsistentDataError(f"inconsistent split data: {exc}") from None
    return values


def _explicit_eval(
    tree: Tree,
    group: GroupDatum,
    table: CoefficientTable,
    hi: int,
    witnesses: Optional[list[LesWitness]] = None,
) -> DegreeWindow:
    """Degreewise values of a class-C tree up to degree ``hi``.

    The one gate of degreewise solving: a computable class, the trivial
    group and a bounded-below table, checked in that order.

    Three passes over the distinct nodes, none recursive.  One fold lists
    them in post-order with their children and class flags, in a list that
    goes with the call: an evaluation leaves on the tree only each square's
    Smith forms.  Backwards, each node gets the largest top degree its
    class-C parents read it to (a parent's top, plus one under a non-split
    square).  Forwards, each node is solved once into a finitely supported
    map of its nonzero degrees up to its top: class B from its rank and the
    table's rows, class C from its children's maps.  Nothing under a node
    that fails before reading its children is read, so on a tree the first
    failure is the one a depth-first evaluation meets.  The root's map
    becomes its window, with the kept class's oracle paths children first;
    no degree is densified.  ``witnesses`` collects a root square's
    witnesses.
    """
    _computable_tag(tree, group)
    if not group.is_trivial:
        raise UnsupportedError(
            "class-C values are computed with trivial group only; "
            "equivariant class-C trees get rank bounds and certificates"
        )
    if table.min_degree is None:
        raise UnderdeterminedError(
            f"table {table.name!r} is unbounded below; degreewise solving needs "
            "bounded-below coefficients"
        )
    nodes = []

    def listed(node: Tree, kids: list[Tree]) -> Tree:
        nodes.append((node, kids, class_tag(node) == "B"))
        return node

    fold(tree, listed)
    # the top degree each node is read to: the largest its parents ask for
    tops = {id(tree): hi}
    for node, kids, class_b in reversed(nodes):
        if id(node) not in tops or not class_b and _refusal(node) is not None:
            continue
        if class_b:
            top = table.min_degree - 1  # class-B parents read ranks only
        else:
            top = tops[id(node)] + (1 if isinstance(node, Blowup) and node.split is None else 0)
        for kid in kids:
            tops[id(kid)] = max(top, tops.get(id(kid), top))

    ranks: dict[int, int] = {}
    values: dict[int, dict[int, FgAbGroup]] = {}
    for node, kids, class_b in nodes:
        if id(node) not in tops:
            continue
        top = tops[id(node)]
        if class_b:
            rank = ranks[id(node)] = _rank_of(tree, node, [ranks[id(k)] for k in kids])
            value = {d: tensor_with_free(g, rank) for d, g in table.degree_groups if d <= top}
        else:
            refusal = _refusal(node)
            if refusal is not None:
                raise UnderdeterminedError(refusal)
            sink = witnesses if node is tree else None
            value = _class_c_values(node, [values[id(k)] for k in kids], top, sink)
        # the one place a node's map keeps its nonzero degrees only
        values[id(node)] = {d: g for d, g in value.items() if not g.is_zero}
    root = values[id(tree)]
    oracles = classify(tree).oracles_children_first
    return DegreeWindow(tuple(sorted(root.items())), min(root, default=hi), hi, oracles)


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
    if _computable_tag(tree, group) == "B":
        module = compute_degree0(tree, group)
        return GradedModuleValue(
            group=group,
            shape="formal",
            degree0=module,
            table=table,
            provenance=(f"class-B formality over table {table.name!r}",),
            assumed_oracles=module.assumed_oracles,
        )
    if degrees is None:
        raise ValueError("class-C evaluation needs an explicit degree window")
    lo, hi = degrees
    if lo > hi:
        raise ValueError("empty degree window")
    window = _explicit_eval(tree, group, table, hi)
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

    kind: str  # equivalence_all_degrees | iso_in_degree | split_decomposition | vanishing
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
        if tree_class.tag in ("B", "C"):
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
    The window ends at degree -1 and lists its nonzero degrees only, so the
    obstruction is its highest listed degree.  Returns None when no
    obstruction is found (in particular on class-B trees, where formality
    computes the shape directly).
    """
    if class_tag(tree) == "B":
        return None
    window = _explicit_eval(tree, group, builtin_table("unit"), -1)
    return NotInB(*window.support[-1]) if window.support else None


def unconcentrated(
    groups: tuple[tuple[int, FgAbGroup], ...], periodic: bool = False
) -> Optional[NoVerdict]:
    """The refusal of the vanishing statement when rationalized point values,
    given as (degree, group) pairs, have a nonzero group off degree zero or
    repeat periodically; None when they are concentrated in degree zero."""
    if periodic or any(d != 0 and not g.is_zero for d, g in groups):
        return NoVerdict("rationalized point values are not concentrated in degree zero")
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
    refused = unconcentrated(table.degree_groups, table.periodicity is not None)
    if refused:
        return refused
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
