"""Finite probability spaces, finite sigma-algebras as partitions, and the
outer measure induced by measurable covers.

All quantities are exact rationals; every equality test in the package is
exact, so no tolerances appear anywhere.

A partition that refines another by splitting a few of its blocks can be
derived from it (``SigmaAlgebra._split``): the kept blocks are the same
frozenset objects, and the derived partition records the one it was
derived from, so ``refines`` accepts it against that parent at once, as
``_split`` has already checked the split.  Against any other partition
``refines`` compares the universes by value, then tests every block.  The
derived partition's atom table is a full copy, O(atoms) per partition.

The package's record classes share ``_Record``, written out by hand: a
class decorator that generates these methods compiles them anew at every
import, which a one-call CLI process pays each time.  Its one constructor
stores each field through ``object.__setattr__``, never ``self.__dict__``:
reading that makes the instance build a real dict, and later attribute
loads slow down (9 ns to 27 ns per load in a probe on Python 3.11).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

__all__ = [
    "SampleSpace",
    "SigmaAlgebra",
    "parse_rational",
    "format_rational",
    "trivial_sigma",
    "discrete_sigma",
    "refines",
    "is_measurable",
    "measurable_cover",
    "outer_measure",
]

_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _cut(text: str) -> str:
    """``text`` cut after 20 characters: a quoted document value can be long."""
    return text if len(text) <= 20 else text[:20] + "..."


def parse_rational(text) -> Fraction:
    """Parse a "p/q" (or bare integer) literal of ASCII digits into an exact
    Fraction; the whole string must match, with no surrounding whitespace."""
    if not isinstance(text, str) or not _RATIONAL.fullmatch(text):
        raise ValueError(f"not a rational literal: {_cut(repr(text))}")
    p, _, q = text.partition("/")
    try:
        numerator, denominator = int(p), int(q) if q else 1
    except ValueError:
        # past the interpreter's digit limit for int(str)
        raise ValueError(f"rational literal too long ({len(text)} characters): {text[:20] + '...'!r}") from None
    if not denominator:
        raise ValueError(f"zero denominator in rational literal: {_cut(repr(text))}")
    return Fraction(numerator, denominator)


def format_rational(value: Fraction) -> str:
    """Canonical "p/q" form, denominator always present (e.g. "0/1").  A
    ``Fraction`` is read as given; other values are converted."""
    if type(value) is not Fraction:
        value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


_setattr = object.__setattr__  # bound once: the record constructor calls it per field


class _Record:
    """An immutable record with the fields named in ``_fields``.

    ``__init__`` binds its arguments to the fields by position or keyword
    (``TypeError`` for a missing, extra, unknown or repeated one), stores
    them through ``object.__setattr__`` and calls ``__post_init__``, looked
    up on the instance; the base one does nothing.  After it, assigning or
    deleting any attribute raises ``AttributeError``.  Equal records are of
    one class with equal fields, and hash as the tuple of their fields, so a
    record holding a dict is unhashable; ``repr`` is ``Name(field=value,
    ...)``.  Instances keep their ``__dict__``, so ``pickle`` and ``copy``
    restore them without assigning.
    """

    _fields = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            rest = fields[len(args):]
            if len(args) > len(fields) or kwargs.keys() != set(rest):
                raise TypeError(f"{type(self).__qualname__}() takes {', '.join(fields)} once each, by position or keyword")
            args += tuple(map(kwargs.__getitem__, rest))
        for name, value in zip(fields, args):
            _setattr(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SampleSpace(_Record):
    """Ordered finite atom list with exact nonnegative weights summing to 1.

    Each weight is also kept as an integer numerator over one common
    denominator, so a probability is an integer sum and one Fraction.
    ``Fraction`` weights are kept as given; others are converted."""

    _fields = ("atoms", "weights")

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "weights", tuple(w if type(w) is Fraction else Fraction(w) for w in self.weights))
        if not self.atoms:
            raise ValueError("sample space needs at least one atom")
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("atom ids must be distinct")
        if len(self.weights) != len(self.atoms):
            raise ValueError("exactly one weight per atom required")
        pairs = [(w.numerator, w.denominator) for w in self.weights]
        denominator = math.lcm(*{q for _, q in pairs})
        numerators = [p * (denominator // q) for p, q in pairs]
        if min(numerators) < 0:
            raise ValueError("weights must be nonnegative")
        if sum(numerators) != denominator:
            raise ValueError("weights must sum to exactly 1")
        object.__setattr__(self, "_denominator", denominator)
        object.__setattr__(self, "_numerator_of", dict(zip(self.atoms, numerators)))

    def prob(self, subset) -> Fraction:
        """Exact probability of a set of atoms."""
        if not isinstance(subset, (set, frozenset)):
            subset = set(subset)
        try:
            total = sum(map(self._numerator_of.__getitem__, subset))
        except KeyError as exc:
            raise ValueError(f"unknown atom {exc.args[0]!r}") from None
        return Fraction(total, self._denominator)


class SigmaAlgebra(_Record):
    """A finite sigma-algebra, represented by its partition into blocks.

    A set is measurable exactly when it is a union of blocks, which makes
    refinement between sigma-algebras a plain partition relation.  A
    partition built here records no parent; one made by ``_split`` records
    the partition it was derived from.
    """

    _fields = ("blocks",)

    def __post_init__(self):
        blocks = [frozenset(b) for b in self.blocks]
        if not blocks:
            raise ValueError("partition needs at least one block")
        if not all(blocks):
            raise ValueError("partition blocks must be nonempty")
        block_of = {atom: block for block in blocks for atom in block}
        if len(block_of) != sum(map(len, blocks)):
            raise ValueError("partition blocks must be pairwise disjoint")
        # disjoint blocks have distinct minima, so this is the order of key=sorted
        object.__setattr__(self, "blocks", tuple(sorted(blocks, key=min)))
        object.__setattr__(self, "_block_of", block_of)
        object.__setattr__(self, "_universe", frozenset(block_of))
        object.__setattr__(self, "_parent", None)

    def _split(self, blocks) -> SigmaAlgebra | None:
        """The partition into ``blocks``, derived from this one, or None if
        it is not a refinement that splits some of this partition's blocks.
        A block that is one of this partition's own objects is kept; the
        others are new, and the check runs on them alone: they must be
        nonempty, pairwise disjoint, each inside one block that is not kept,
        and together cover every block that is not kept.  The result shares
        the kept blocks and the universe, and records this partition as its
        parent, so ``refines`` accepts it against this one without a second
        check.  Its atom table is this one's, copied and then updated on the
        new blocks' atoms, and its blocks are sorted by least atom again:
        these two steps still cost O(atoms).  With no new block it is this
        partition."""
        own = set(map(id, self.blocks))
        kept = {id(b) for b in blocks if id(b) in own}
        new = [b for b in blocks if id(b) not in own]
        if len(kept) + len(new) != len(blocks):  # a kept block written twice
            return None
        table = self._block_of
        replaced = {}
        for block in new:
            owner = table.get(next(iter(block))) if block else None
            if owner is None or id(owner) in kept or not block <= owner:
                return None
            replaced[id(owner)] = owner
        size = sum(map(len, replaced.values()))
        if len(kept) + len(replaced) != len(self.blocks) or sum(map(len, new)) != size:
            return None
        if len(frozenset().union(*new)) != size:
            return None
        if not new:
            return self
        block_of = dict(table)
        for block in new:
            block_of.update(dict.fromkeys(block, block))
        out = object.__new__(SigmaAlgebra)
        object.__setattr__(out, "blocks", tuple(sorted(blocks, key=min)))
        object.__setattr__(out, "_block_of", block_of)
        object.__setattr__(out, "_universe", self._universe)
        object.__setattr__(out, "_parent", self)
        return out

    @property
    def universe(self) -> frozenset:
        return self._universe


def trivial_sigma(atoms) -> SigmaAlgebra:
    return SigmaAlgebra((frozenset(atoms),))


def discrete_sigma(atoms) -> SigmaAlgebra:
    return SigmaAlgebra(tuple(frozenset((a,)) for a in atoms))


def refines(finer: SigmaAlgebra, coarser: SigmaAlgebra) -> bool:
    """True iff every block of ``finer`` sits inside a block of ``coarser``.
    Over one universe a block sits inside some coarser block exactly when
    it sits inside the coarser block of any one of its atoms.  A partition
    refines itself, and a partition derived from ``coarser`` by ``_split``
    refines it, at once."""
    if finer is coarser or finer._parent is coarser:
        return True
    if finer.universe != coarser.universe:
        return False
    table = coarser._block_of
    return all(fb <= table[next(iter(fb))] for fb in finer.blocks)


def _blocks_meeting(subset: frozenset, sigma: SigmaAlgebra) -> set:
    if not subset <= sigma.universe:
        raise ValueError("subset must live inside the sigma-algebra's universe")
    return set(map(sigma._block_of.__getitem__, subset))


def is_measurable(subset, sigma: SigmaAlgebra) -> bool:
    """A union of blocks: the disjoint blocks meeting the subset hold no
    atom outside it, so their sizes add up to its size."""
    subset = frozenset(subset)
    return sum(map(len, _blocks_meeting(subset, sigma))) == len(subset)


def measurable_cover(subset, sigma: SigmaAlgebra) -> frozenset:
    """The smallest measurable superset: the union of all blocks meeting the
    subset.  Independent of any measure on the space."""
    return frozenset().union(*_blocks_meeting(frozenset(subset), sigma))


def outer_measure(subset, sigma: SigmaAlgebra, space: SampleSpace) -> Fraction:
    """Infimum of probabilities of measurable supersets, attained by the
    measurable cover; agrees with the plain probability on measurable sets."""
    return space.prob(measurable_cover(subset, sigma))
