"""Construction trees for simple varieties, with validation and classification.

A variety is declared as a term built from: the point, finite disjoint
unions, flag bundles in equivariant vector bundles, stratified descent along
flag bundles in two-term-presented sheaves, and abstract blowup squares
(split or not).  Classification is syntactic: a tree is tagged B when every
blowup square carries a declared splitting, C when some square does not, and
C_p when strictly henselian base points of residue characteristic p appear.
A C tag means "B not established by this tree", not "provably not in B".
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Union

from .group_rep import GroupDatum

BLOWUP_CORNERS = ("X", "Y", "Z", "E")
SPLIT_KINDS = ("retraction", "section")


@dataclass(frozen=True)
class BundleDatum:
    """An equivariant vector bundle: rank, plus optional split weights.

    split_characters, when present, declares the bundle as a sum of
    characters (one per rank).  twist_labels record O(i)-type twists on
    built-in bases; they are bookkeeping for example constructors only.
    """

    rank: int
    split_characters: Optional[tuple[tuple[int, ...], ...]] = None
    twist_labels: Optional[tuple[int, ...]] = None


@dataclass(frozen=True)
class SheafDatum:
    """A sheaf given by a two-term presentation of vector bundles.

    generic_rank is the everywhere-lower-bound rank used by the descent
    rule; presentation_ranks = (rank E1, rank E0) for the cokernel
    presentation E1 -> E0 ->> F.
    """

    generic_rank: int
    presentation_ranks: tuple[int, int]


@dataclass(frozen=True)
class Point:
    """The point: the base of every construction."""


@dataclass(frozen=True)
class HenselianBase:
    """Classification-only base point over a strictly henselian, weakly
    regular, stably coherent ring of residue characteristic p.  Carries no
    computable module."""

    p: int


@dataclass(frozen=True)
class Disjoint:
    children: tuple["Tree", ...]


@dataclass(frozen=True)
class FlagBundle:
    """Relative flag bundle of type d_vec in the given bundle over base."""

    base: "Tree"
    bundle: BundleDatum
    d_vec: tuple[int, ...]


@dataclass(frozen=True)
class StratifiedDescent:
    """Defines the base X given the total space of a stratified flag bundle.

    total_space is the (known) tree upstairs; the node's value is the
    descended X.  oracle_rank, when declared, asserts the degree-zero rank
    of X; every result consuming it is flagged.
    """

    total_space: "Tree"
    sheaf: SheafDatum
    d_vec: tuple[int, ...]
    oracle_rank: Optional[int] = None


@dataclass(frozen=True)
class Blowup:
    """Abstract blowup square (X, Y, Z, E) with one unknown corner.

    known maps three corner labels to trees; the node's value is the
    unknown corner.  split declares how the square splits (retraction of
    E -> Y, or section of Y -> X); None means no splitting is declared.
    comparison_maps carries per-degree integer matrices for the map
    E(Y) + E(Z) -> E(E), consumed by the non-split solver with trivial G.
    """

    known: tuple[tuple[str, "Tree"], ...]
    unknown_corner: str = "X"
    split: Optional[str] = None
    comparison_maps: tuple[tuple[int, tuple[tuple[int, ...], ...]], ...] = ()

    def __post_init__(self) -> None:
        known = tuple(sorted(dict(self.known).items(), key=lambda kv: BLOWUP_CORNERS.index(kv[0])))
        object.__setattr__(self, "known", known)
        object.__setattr__(self, "comparison_maps", tuple(sorted(self.comparison_maps)))

    def corner(self, label: str) -> "Tree":
        for name, tree in self.known:
            if name == label:
                return tree
        raise KeyError(f"corner {label} is the unknown of this square")

    @property
    def known_labels(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.known)

    def map_at(self, degree: int) -> Optional[tuple[tuple[int, ...], ...]]:
        for d, m in self.comparison_maps:
            if d == degree:
                return m
        return None


Tree = Union[Point, HenselianBase, Disjoint, FlagBundle, StratifiedDescent, Blowup]


def children(tree: Tree) -> tuple[Tree, ...]:
    """Child subtrees in stable order; indices name path components."""
    kind = type(tree)
    if kind is FlagBundle:
        return (tree.base,)
    if kind is Point or kind is HenselianBase:
        return ()
    if kind is Blowup:
        return tuple(t for _, t in tree.known)
    if kind is Disjoint:
        return tree.children
    if kind is StratifiedDescent:
        return (tree.total_space,)
    raise TypeError(f"not a construction tree: {tree!r}")


def fold(tree: Tree, visit):
    """Post-order fold: ``visit(node, child_values)`` runs once per distinct
    node object (by ``id()``), after its children, and the root's value is
    returned.  A subtree shared through ``let`` or ``cone`` is evaluated once,
    so values hold no paths: paths are listed from the root by ``_listed``.
    The explicit stack bounds depth by memory, not the recursion limit.
    """
    values: dict[int, object] = {}
    # a node on the stack is still to expand; a (node, kids) pair is
    # visited once the kids above it are done
    stack: list = [tree]
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            node, kids = node
        elif id(node) in values:
            continue
        else:
            kids = children(node)
            if kids:
                stack.append((node, kids))
                stack.extend(reversed(kids))
                continue
        values[id(node)] = visit(node, [values[id(kid)] for kid in kids])
    return values[id(tree)]


_ROOT = "(root)"


def _listed(tree: Tree, count, own):
    """Yield ``(path, item)`` for every item of ``own(node)`` at every path of
    ``tree``, in preorder ("" is the root's path).  ``count(node)`` is the
    number of items at and below the node; only nodes where it is nonzero
    are entered, so the work follows the paths listed.
    """
    stack = [(tree, "")] if count(tree) else []
    while stack:
        node, path = stack.pop()
        for item in own(node):
            yield path, item
        kids = children(node)
        for i in range(len(kids) - 1, -1, -1):
            if count(kids[i]):
                stack.append((kids[i], f"{path}/{i}" if path else str(i)))


def walk(tree: Tree):
    """Yield (path, node) pairs, parents before children, at every path."""
    yield from _listed(tree, lambda n: 1, lambda n: (n,))


def children_first(paths: tuple[str, ...]) -> tuple[str, ...]:
    """Preorder oracle paths reordered so that each node follows the nodes
    below it: the order in which a post-order fold consumes their ranks.
    In preorder a node's descendants follow it directly, so a stack of the
    open ancestors (each with the prefix of the paths below it) suffices."""
    out: list[str] = []
    ancestors: list[tuple[str, str]] = []
    for path in paths:
        while ancestors and not path.startswith(ancestors[-1][1]):
            out.append(ancestors.pop()[0])
        ancestors.append((path, "" if path == _ROOT else path + "/"))
    out.extend(path for path, _ in reversed(ancestors))
    return tuple(out)


def first_path(tree: Tree, target: Tree) -> str:
    """The first path, in preorder, from ``tree`` to the node ``target``."""
    reaches: dict[int, bool] = {}  # whether the target lies at or below a node
    fold(tree, lambda node, kids: reaches.setdefault(id(node), node is target or any(kids)))
    path, _ = next(_listed(tree, lambda n: reaches[id(n)], lambda n: (n,) if n is target else ()))
    return path or _ROOT


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    path: str
    rule: str

    def __repr__(self) -> str:
        where = self.path if self.path else _ROOT
        return f"{where}: {self.rule}"

_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least odd composite passing Miller-Rabin for every base in _WITNESSES
_WITNESS_BOUND = 3_317_044_064_679_887_385_961_981


def _not_prime(n: int) -> Optional[str]:
    """Why n is not accepted as prime, or None: deterministic Miller-Rabin,
    exact below _WITNESS_BOUND."""
    if n < 2:
        return "is not prime"
    for a in _WITNESSES:
        if n % a == 0:
            return None if n == a else "is not prime"
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return "is not prime"
    return None if n < _WITNESS_BOUND else "is too large to certify as prime"


def _own_violations(node: Tree, group: GroupDatum) -> list[str]:
    """The rules the node itself breaks, in check order (children excluded)."""
    out: list[str] = []
    bad = out.append

    kind = type(node)
    if kind is HenselianBase:
        fault = _not_prime(node.p)
        if fault:
            bad(f"henselian residue characteristic {node.p} {fault}")
    elif kind is FlagBundle:
        b = node.bundle
        if b.rank < 1:
            bad("bundle rank must be >= 1")
        if not node.d_vec or any(d < 1 for d in node.d_vec):
            bad("dimension vector entries must be positive")
        if sum(node.d_vec) > b.rank:
            bad(f"d exceeds rank: total {sum(node.d_vec)} > {b.rank}")
        if b.split_characters is not None:
            if len(b.split_characters) != b.rank:
                bad("split characters must match the bundle rank")
            for c in b.split_characters:
                if len(c) != group.lattice_rank:
                    bad(
                        f"character {c} has {len(c)} coordinates; "
                        f"the lattice has rank {group.lattice_rank}"
                    )
        if b.twist_labels is not None and len(b.twist_labels) != b.rank:
            bad("twist labels must match the bundle rank")
    elif kind is StratifiedDescent:
        s = node.sheaf
        if s.generic_rank < 0:
            bad("generic rank must be non-negative")
        if s.generic_rank > s.presentation_ranks[1]:
            bad("generic rank exceeds the presenting bundle rank")
        if not node.d_vec or any(d < 1 for d in node.d_vec):
            bad("dimension vector entries must be positive")
        if sum(node.d_vec) > s.generic_rank:
            bad(f"d exceeds generic rank: total {sum(node.d_vec)} > {s.generic_rank}")
        if node.oracle_rank is not None and node.oracle_rank < 0:
            bad("oracle rank must be non-negative")
    elif kind is Blowup:
        labels = set(node.known_labels)
        if node.unknown_corner not in BLOWUP_CORNERS:
            bad(f"unknown corner {node.unknown_corner!r} is not one of X, Y, Z, E")
        expected = set(BLOWUP_CORNERS) - {node.unknown_corner}
        if labels != expected:
            bad(
                f"blowup square must name exactly the corners {sorted(expected)}; "
                f"got {sorted(labels)}"
            )
        if node.split is not None and node.split not in SPLIT_KINDS:
            bad(f"split must be one of {SPLIT_KINDS} or absent")
        for degree, matrix in node.comparison_maps:
            if len({len(row) for row in matrix}) > 1:
                bad(f"comparison map at degree {degree} is ragged")
        # the maps are sorted, so a repeated degree's entries are adjacent
        degrees = [degree for degree, _ in node.comparison_maps]
        for degree in sorted({d for d, before in zip(degrees[1:], degrees) if d == before}):
            bad(f"comparison maps give degree {degree} more than once")
    return out


def validate(tree: Tree, group: GroupDatum) -> list[Violation]:
    """Check all structural invariants; never raises.

    Returns the empty list when the tree is well formed for the group.
    Violations come in preorder, one per path of a shared node.  The same
    fold classifies every node, so a later ``classify`` reads cached classes.
    """
    return validate_names({"": tree}, group)[""]


def validate_names(trees: dict[str, Tree], group: GroupDatum) -> dict[str, list[Violation]]:
    """Each named tree's violations, with paths from its own root, from one
    fold over all the trees: a subtree shared between names is checked once.
    The fold keeps each node's own rules and its violation count; the paths
    are listed from each name's root."""
    rules: dict[int, list[str]] = {}
    counts: dict[int, int] = {}

    def visit(node: Tree, kids: list) -> tuple[int, _Class]:
        own = _own_violations(node, group)
        if own:
            rules[id(node)] = own
        count = counts[id(node)] = len(own) + sum(n for n, _ in kids)
        return count, _classified(node, [cls for _, cls in kids])

    fold(Disjoint(tuple(trees.values())), visit)
    count, own = (lambda n: counts[id(n)]), (lambda n: rules.get(id(n), ()))
    return {name: [Violation(*v) for v in _listed(tree, count, own)] for name, tree in trees.items()}


# ---------------------------------------------------------------------------
# membership classification


@dataclass(frozen=True)
class MembershipClass:
    """Classification outcome: B, C, C_p, or invalid when the tree mixes
    henselian residue characteristics."""

    tag: str
    prime: Optional[int] = None
    assumed_oracles: tuple[str, ...] = ()

    @cached_property
    def oracles_children_first(self) -> tuple[str, ...]:
        """``assumed_oracles`` in the order a fold reads them, once per class."""
        return children_first(self.assumed_oracles)

    def describe(self) -> str:
        if self.tag == "C_p":
            return f"C_p (p = {self.prime})"
        return self.tag


class _Class(NamedTuple):
    """The class cached on a node, with the number of oracle paths below it."""

    tag: str
    prime: Optional[int]
    oracles: int


def _oracles_at(node: Tree) -> int:
    """1 for a descent node declaring a rank, else 0."""
    return int(type(node) is StratifiedDescent and node.oracle_rank is not None)


def _classified(node: Tree, kids: list[_Class]) -> _Class:
    """The node's class from its children's, cached on the immutable node as
    an instance-dict entry, which ``==``, ``hash`` and ``repr`` ignore."""
    kind = type(node)
    prime = node.p if kind is HenselianBase else None
    mixed = False
    unsplit = kind is Blowup and node.split is None
    oracles = _oracles_at(node)
    for kid in kids:
        if kid.tag == "invalid":
            mixed = True
        elif kid.prime is not None:
            mixed = mixed or prime not in (None, kid.prime)
            prime = kid.prime
        elif kid.tag == "C":
            unsplit = True
        oracles += kid.oracles
    if mixed:
        cls = _Class("invalid", None, oracles)
    else:
        cls = _Class("C_p" if prime is not None else "C" if unsplit else "B", prime, oracles)
    node.__dict__["_membership"] = cls
    return cls


def _class_of(tree: Tree) -> _Class:
    return tree.__dict__.get("_membership") or fold(tree, _classified)


def class_tag(tree: Tree) -> str:
    """The tree's membership tag, read from the class cached on each node;
    unlike ``classify`` it lists no paths."""
    return _class_of(tree).tag


# the root whose class ``classify`` keeps, and drops when it classifies
# another root: the commands on one target list its paths once, while
# classifying every root of a shared let chain keeps one root's paths, not
# each root's.  A weak reference, so a tree's class goes with the tree.
_kept: Callable[[], Optional[Tree]] = lambda: None


def classify(tree: Tree) -> MembershipClass:
    """Syntactic membership class of a validated tree.

    B when every blowup declares a splitting and no henselian base appears;
    C when no henselian base appears but some blowup is unsplit; C_p when
    henselian bases appear and agree on the prime; invalid on mixed primes.
    assumed_oracles lists the descent nodes with a declared rank in preorder.
    The class is cached on each node (``validate`` fills the cache too), and
    the paths are listed from the root, entering only subtrees holding one.
    The result is cached on the root, one root at a time (see ``_kept``).
    """
    global _kept
    cls = tree.__dict__.get("_membership_class")
    if cls is None:
        tag, prime, _ = _class_of(tree)
        paths = _listed(tree, lambda n: n._membership.oracles, lambda n: range(_oracles_at(n)))
        cls = MembershipClass(tag, prime, tuple(path or _ROOT for path, _ in paths))
        kept = _kept()
        if kept is not None:
            del kept.__dict__["_membership_class"]
        tree.__dict__["_membership_class"] = cls
        _kept = weakref.ref(tree)
    return cls


# ---------------------------------------------------------------------------
# example library


def _flag_variety(n: int, d_vec: tuple[int, ...], group: GroupDatum) -> Tree:
    """Flags of type ``d_vec`` in an n-space: a flag bundle over the point,
    with standard torus weights on the n coordinates when the torus is big
    enough (otherwise non-equivariant)."""
    chars = None
    if group.free_rank >= n and not group.finite_orders:
        chars = tuple(group.basis_character(i) for i in range(n))
    return FlagBundle(Point(), BundleDatum(n, split_characters=chars), tuple(d_vec))


NODE_DEGREE0_MAP = ((1, 1, 1), (1, 1, 1))


def example_library(name: str, *params, group: GroupDatum = GroupDatum(0)) -> Tree:
    """Named construction trees for the worked examples.

    Toric entries (projective spaces, Grassmannians, flags, Hirzebruch
    surfaces) carry standard torus weights when the group is a torus of
    sufficient rank.
    """
    if name == "projective_space":
        (n,) = params
        if n < 0:
            raise ValueError("projective space dimension must be >= 0")
        return _flag_variety(n + 1, (1,), group)
    if name == "grassmannian":
        n, d = params
        return _flag_variety(n, (d,), group)
    if name == "flag":
        n, d_vec = params
        return _flag_variety(n, d_vec, group)
    if name == "hirzebruch":
        (m,) = params
        base = example_library("projective_space", 1, group=group)
        return FlagBundle(base, BundleDatum(2, twist_labels=(0, -m)), (1,))
    if name == "cusp":
        # blowup of the cuspidal curve: cover P^1, center pt, exceptional pt;
        # the exceptional inclusion retracts via the structure map
        return Blowup(
            known=(
                ("Y", example_library("projective_space", 1, group=group)),
                ("Z", Point()),
                ("E", Point()),
            ),
            unknown_corner="X",
            split="retraction",
        )
    if name == "node":
        # nodal curve: exceptional locus two points over one center point;
        # no splitting exists, and the degree-0 comparison map is the
        # restriction matrix (a, b, c) -> (a+b+c, a+b+c)
        return Blowup(
            known=(
                ("Y", example_library("projective_space", 1, group=group)),
                ("Z", Point()),
                ("E", Disjoint((Point(), Point()))),
            ),
            unknown_corner="X",
            split=None,
            comparison_maps=((0, NODE_DEGREE0_MAP),),
        )
    if name == "projective_cone":
        base_tree, twist = params
        cover = FlagBundle(base_tree, BundleDatum(2, twist_labels=(0, twist)), (1,))
        return Blowup(
            known=(("Y", cover), ("Z", Point()), ("E", base_tree)),
            unknown_corner="X",
            split="retraction",
        )
    if name == "cone_of_P1":
        p1 = example_library("projective_space", 1, group=group)
        return example_library("projective_cone", p1, 2, group=group)
    raise LookupError(f"unknown library entry {name!r}")


LIBRARY_ENTRIES = (
    ("projective_space", (1,)),
    ("projective_space", (2,)),
    ("grassmannian", (4, 2)),
    ("flag", (3, (1, 1))),
    ("hirzebruch", (2,)),
    ("cusp", ()),
    ("node", ()),
    ("cone_of_P1", ()),
)
