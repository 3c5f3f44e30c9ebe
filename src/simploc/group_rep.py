"""Diagonalizable groups and exact arithmetic in their representation rings.

A group is presented by the rank of its torus part and the orders of its
finite cyclic factors.  Its character lattice M = Z^r x prod Z/l_j is a
finitely generated abelian group; the representation ring is the integral
group algebra Z[M], implemented as finitely supported maps from lattice
elements to integers with convolution product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence


@dataclass(frozen=True)
class GroupDatum:
    """A split torus times finite roots-of-unity factors.

    free_rank is the number of G_m factors, finite_orders the orders of the
    cyclic factors (each >= 2).  The trivial group is GroupDatum(0, ()).
    """

    free_rank: int
    finite_orders: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free_rank must be non-negative")
        object.__setattr__(self, "finite_orders", tuple(self.finite_orders))
        for order in self.finite_orders:
            if order < 2:
                raise ValueError(f"finite factor order {order} must be >= 2")

    @property
    def lattice_rank(self) -> int:
        return self.free_rank + len(self.finite_orders)

    @property
    def is_trivial(self) -> bool:
        return self.lattice_rank == 0

    def character(self, coords: Iterable[int]) -> tuple[int, ...]:
        """Normalize coordinates to a canonical character-lattice element.

        Torsion coordinates are reduced mod the corresponding factor order,
        which makes tuple equality coincide with lattice equality.
        """
        coords = tuple(coords)
        if len(coords) != self.lattice_rank:
            raise ValueError(
                f"expected {self.lattice_rank} coordinates, got {len(coords)}"
            )
        free = coords[: self.free_rank]
        tors = tuple(
            c % order for c, order in zip(coords[self.free_rank :], self.finite_orders)
        )
        return free + tors

    def character_add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return self.character(x + y for x, y in zip(a, b))

    def basis_character(self, i: int) -> tuple[int, ...]:
        """The i-th coordinate character (weight of the i-th lattice slot)."""
        if not 0 <= i < self.lattice_rank:
            raise ValueError(f"no lattice coordinate {i}")
        return self.character(1 if j == i else 0 for j in range(self.lattice_rank))



@dataclass(frozen=True)
class OpaqueGroup:
    """A linearly reductive group known only through an irreducible index set.

    No ring structure is attached; every operation that needs character
    arithmetic rejects such groups.
    """

    label: str


class RepRingElement:
    """Element of the group algebra Z[M]: finite map character -> coefficient.

    Zero-coefficient terms are never stored, so equality is map equality.
    Instances are immutable; arithmetic returns fresh elements.
    """

    __slots__ = ("group", "_terms")

    def __init__(self, group: GroupDatum, terms: Mapping[tuple[int, ...], int]):
        self.group = group
        clean: dict[tuple[int, ...], int] = {}
        for coords, coeff in terms.items():
            key = group.character(coords)
            clean[key] = clean.get(key, 0) + coeff
        self._terms = {c: v for c, v in clean.items() if v}

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        return dict(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RepRingElement):
            return NotImplemented
        return self.group == other.group and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.group, frozenset(self._terms.items())))

    def __add__(self, other: "RepRingElement") -> "RepRingElement":
        other = self._coerce(other)
        out = dict(self._terms)
        for c, v in other._terms.items():
            out[c] = out.get(c, 0) + v
        return RepRingElement(self.group, out)

    def __neg__(self) -> "RepRingElement":
        return RepRingElement(self.group, {c: -v for c, v in self._terms.items()})

    def __sub__(self, other: "RepRingElement") -> "RepRingElement":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "RepRingElement":
        other = self._coerce(other)
        out: dict[tuple[int, ...], int] = {}
        for c1, v1 in self._terms.items():
            for c2, v2 in other._terms.items():
                key = self.group.character_add(c1, c2)
                out[key] = out.get(key, 0) + v1 * v2
        return RepRingElement(self.group, out)

    __rmul__ = __mul__

    def _coerce(self, other) -> "RepRingElement":
        if isinstance(other, RepRingElement):
            if other.group != self.group:
                raise ValueError("elements of different representation rings")
            return other
        if isinstance(other, int):
            zero_char = self.group.character([0] * self.group.lattice_rank)
            return RepRingElement(self.group, {zero_char: other})
        raise TypeError(f"cannot coerce {other!r} into the representation ring")


@dataclass(frozen=True)
class RepRing:
    """Arithmetic handle for Z[M]: carries the group and element constructors.

    The ring is the degree-zero coefficient ring of the equivariant theory on
    the point; as a module over itself it is free of rank one.
    """

    group: GroupDatum

    def __post_init__(self) -> None:
        if isinstance(self.group, OpaqueGroup):
            raise ValueError(
                "opaque linearly reductive groups carry no computable ring structure"
            )

    @property
    def zero(self) -> RepRingElement:
        return RepRingElement(self.group, {})

    @property
    def one(self) -> RepRingElement:
        zero_char = self.group.character([0] * self.group.lattice_rank)
        return RepRingElement(self.group, {zero_char: 1})

    def character_class(self, coords: Iterable[int]) -> RepRingElement:
        """The class [L] of the line with the given character."""
        return RepRingElement(self.group, {self.group.character(coords): 1})

    def from_terms(self, terms: Mapping[tuple[int, ...], int]) -> RepRingElement:
        return RepRingElement(self.group, terms)

    def gens(self) -> list[RepRingElement]:
        return [
            self.character_class(
                [1 if j == i else 0 for j in range(self.group.lattice_rank)]
            )
            for i in range(self.group.lattice_rank)
        ]

    def describe(self) -> str:
        g = self.group
        if g.lattice_rank == 0:
            return "Z"
        gens = [f"t{i + 1}^(+-1)" for i in range(g.free_rank)]
        gens += [f"u{j + 1}" for j in range(len(g.finite_orders))]
        rels = [
            f"u{j + 1}^{order} - 1" for j, order in enumerate(g.finite_orders)
        ]
        head = f"Z[{', '.join(gens)}]"
        return head if not rels else f"{head}/({', '.join(rels)})"


def representation_ring(group: GroupDatum) -> RepRing:
    """The representation ring Z[M] of a diagonalizable group.

    Z for the trivial group, the Laurent ring in n variables for a rank-n
    torus, and the evident group algebra when cyclic factors are present.
    """
    return RepRing(group)


def elementary_symmetric_classes(
    ring: RepRing, chars: Sequence[tuple[int, ...]]
) -> list[RepRingElement]:
    """e_0, ..., e_n evaluated on the n character classes: the classes of the
    exterior powers of the split bundle with the given weights.

    Computed from the generating function prod_j (1 + x [L_j]) by keeping the
    coefficients of x as a vector of ring elements.
    """
    coeffs = [ring.one] + [ring.zero] * len(chars)
    for c in chars:
        cls = ring.character_class(c)
        for k in range(len(chars), 0, -1):
            coeffs[k] = coeffs[k] + coeffs[k - 1] * cls
    return coeffs


def elementary_symmetric_class(
    ring: RepRing, chars: list[tuple[int, ...]], i: int
) -> RepRingElement:
    """e_i evaluated on the character classes: the class of the i-th exterior
    power of the split bundle with the given weights."""
    if not 0 <= i <= len(chars):
        raise ValueError(f"exterior power {i} out of range for {len(chars)} characters")
    return elementary_symmetric_classes(ring, chars)[i]


def augment(element: RepRingElement) -> int:
    """Sum of coefficients: the rank of the underlying non-equivariant class.

    Ring homomorphism Z[M] -> Z sending every character to 1, i.e. restriction
    along the trivial-group inclusion.
    """
    return sum(element.terms.values())
