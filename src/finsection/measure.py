"""Finite probability spaces, finite sigma-algebras as partitions, and the
outer measure induced by measurable covers.

All quantities are exact rationals; every equality test in the package is
exact, so no tolerances appear anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "SampleSpace",
    "SigmaAlgebra",
    "parse_rational",
    "format_rational",
    "trivial_sigma",
    "discrete_sigma",
    "generate_sigma",
    "refines",
    "is_measurable",
    "measurable_cover",
    "outer_measure",
]

_RATIONAL = re.compile(r"^-?\d+(/\d+)?$")


def parse_rational(text) -> Fraction:
    """Parse a "p/q" (or bare integer) literal into an exact Fraction."""
    if not isinstance(text, str) or not _RATIONAL.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational literal: {text!r}") from None


def format_rational(value: Fraction) -> str:
    """Canonical "p/q" form, denominator always present (e.g. "0/1")."""
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class SampleSpace:
    """Ordered finite atom list with exact nonnegative weights summing to 1."""

    atoms: tuple[str, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "weights", tuple(Fraction(w) for w in self.weights))
        if not self.atoms:
            raise ValueError("sample space needs at least one atom")
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("atom ids must be distinct")
        if len(self.weights) != len(self.atoms):
            raise ValueError("exactly one weight per atom required")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        if sum(self.weights) != 1:
            raise ValueError("weights must sum to exactly 1")
        object.__setattr__(self, "_weight_of", dict(zip(self.atoms, self.weights)))

    @classmethod
    def uniform(cls, atoms) -> "SampleSpace":
        atoms = tuple(atoms)
        return cls(atoms, tuple(Fraction(1, len(atoms)) for _ in atoms))

    def weight(self, atom: str) -> Fraction:
        return self._weight_of[atom]

    def prob(self, subset) -> Fraction:
        """Exact probability of a set of atoms."""
        w = self._weight_of
        total = Fraction(0)
        for atom in set(subset):
            if atom not in w:
                raise ValueError(f"unknown atom {atom!r}")
            total += w[atom]
        return total


@dataclass(frozen=True)
class SigmaAlgebra:
    """A finite sigma-algebra, represented by its partition into blocks.

    A set is measurable exactly when it is a union of blocks, which makes
    refinement between sigma-algebras a plain partition relation.
    """

    blocks: tuple[frozenset, ...]

    def __post_init__(self):
        blocks = tuple(sorted((frozenset(b) for b in self.blocks), key=sorted))
        object.__setattr__(self, "blocks", blocks)
        if not blocks:
            raise ValueError("partition needs at least one block")
        block_of = {}
        for block in blocks:
            if not block:
                raise ValueError("partition blocks must be nonempty")
            for atom in block:
                if atom in block_of:
                    raise ValueError("partition blocks must be pairwise disjoint")
                block_of[atom] = block
        object.__setattr__(self, "_block_of", block_of)
        object.__setattr__(self, "_universe", frozenset(block_of))

    @property
    def universe(self) -> frozenset:
        return self._universe

    def block_of(self, atom) -> frozenset:
        """The block holding the atom."""
        if atom not in self._block_of:
            raise ValueError(f"atom {atom!r} not covered by the partition")
        return self._block_of[atom]


def trivial_sigma(atoms) -> SigmaAlgebra:
    return SigmaAlgebra((frozenset(atoms),))


def discrete_sigma(atoms) -> SigmaAlgebra:
    return SigmaAlgebra(tuple(frozenset((a,)) for a in atoms))


def generate_sigma(atoms, family) -> SigmaAlgebra:
    """Coarsest partition of ``atoms`` under which every family member is a
    union of blocks: atoms are grouped by their membership signature.
    Idempotent, and the empty family yields the trivial partition."""
    atoms = tuple(atoms)
    members = [frozenset(m) for m in family]
    for member in members:
        if not member <= set(atoms):
            raise ValueError("family members must be subsets of the atoms")
    groups: dict[tuple[bool, ...], set] = {}
    for atom in atoms:
        signature = tuple(atom in member for member in members)
        groups.setdefault(signature, set()).add(atom)
    return SigmaAlgebra(tuple(frozenset(g) for g in groups.values()))


def refines(finer: SigmaAlgebra, coarser: SigmaAlgebra) -> bool:
    """True iff every block of ``finer`` sits inside a block of ``coarser``.
    Over one universe a block sits inside some coarser block exactly when
    it sits inside the coarser block of any one of its atoms."""
    if finer.universe != coarser.universe:
        return False
    return all(fb <= coarser.block_of(next(iter(fb))) for fb in finer.blocks)


def is_measurable(subset, sigma: SigmaAlgebra) -> bool:
    subset = frozenset(subset)
    return measurable_cover(subset, sigma) == subset


def measurable_cover(subset, sigma: SigmaAlgebra) -> frozenset:
    """The smallest measurable superset: the union of all blocks meeting the
    subset.  Independent of any measure on the space."""
    subset = frozenset(subset)
    if not subset <= sigma.universe:
        raise ValueError("subset must live inside the sigma-algebra's universe")
    return frozenset().union(*{sigma.block_of(a) for a in subset})


def outer_measure(subset, sigma: SigmaAlgebra, space: SampleSpace) -> Fraction:
    """Infimum of probabilities of measurable supersets, attained by the
    measurable cover; agrees with the plain probability on measurable sets."""
    return space.prob(measurable_cover(subset, sigma))
