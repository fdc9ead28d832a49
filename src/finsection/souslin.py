"""Souslin schemes over finite pavings.

A scheme assigns a set from a paving to every finite tuple of positive
integers; evaluating it unions, over all index sequences, the intersections
along each sequence's prefixes.  Schemes here are *finitely generated*:
indices deeper than the depth bound repeat their deepest stored prefix, and
entries above the branching bound clamp down to it, so the evaluation over
all infinite index sequences collapses to an exact finite computation.

Set values are bitmasks over a fixed enumeration of the ground set, which
keeps every equality test exact.

This module also owns the literal format, whose nodes are keyed by dotted
index strings such as ``"2.1"``.  When every entry is one digit 1-9 (as
in any scheme of branching 9 or less), the keys of a literal are read and
written over the whole key column at once, by a few builtin str/bytes
passes; any other column goes one key at a time, with no memo: no CLI op
of the benchmark or the golden fixtures reads such a column.
"""

from __future__ import annotations

from itertools import accumulate, chain, compress, product, repeat
from math import isqrt
from operator import and_, or_

from .measure import _Record

__all__ = [
    "Paving",
    "SouslinScheme",
    "theta",
    "theta_inv",
    "empty_scheme",
    "eval_scheme",
    "merge_union",
    "merge_intersection",
    "monotonize",
    "check_monotone",
    "scheme_from_literal",
    "scheme_to_literal",
]

# the most index entries (Σ l * branching^l, l = 1..depth) a merge or
# monotonize writes: what its result stores and its literal prints
_ENTRY_BUDGET = 1 << 21
# the most member pairs (members^2) monotonize's closure check tests
_PAIR_BUDGET = 1 << 21


def theta(k: int, m: int) -> int:
    """Square-shell pairing bijection on pairs of positive integers.

    Strictly increasing in each coordinate separately; the shell
    r = max(k, m) fills the output range ((r-1)^2, r^2].
    """
    if k < 1 or m < 1:
        raise ValueError("theta arguments must be positive integers")
    if k <= m:
        return (m - 1) * (m - 1) + (m - 1) + k
    return (k - 1) * (k - 1) + m


def theta_inv(n: int) -> tuple[int, int]:
    """Inverse of :func:`theta`; returns the pair (k, m) with theta(k, m) = n."""
    if n < 1:
        raise ValueError("theta_inv argument must be a positive integer")
    r = isqrt(n - 1) + 1
    d = n - (r - 1) * (r - 1)
    if d <= r - 1:
        return r, d
    return d - (r - 1), r


class Paving(_Record):
    """A finite, nonempty collection of subsets of a finite ground set.

    ``ground`` fixes the element order; members are bitmasks over it.  The
    element -> position table that :meth:`mask_of` reads, and the set of
    values a scheme node may take, are built once, here.
    """

    _fields = ("ground", "member_masks")

    def __post_init__(self):
        if not self.ground:
            raise ValueError("ground set must be nonempty")
        positions = _positions(self.ground)
        if len(positions) != len(self.ground):
            raise ValueError("ground set elements must be distinct")
        if not self.member_masks:
            raise ValueError("paving needs at least one member")
        full = self.full_mask
        for mask in self.member_masks:
            if mask < 0 or mask & ~full:
                raise ValueError("paving member is not a subset of the ground set")
        object.__setattr__(self, "_positions", positions)
        # members plus the internal top (full) and bottom (empty) values
        object.__setattr__(self, "_node_values", frozenset(self.member_masks) | {0, full})

    @classmethod
    def from_sets(cls, ground, members) -> "Paving":
        ground = tuple(ground)
        positions = _positions(ground)
        masks = dict.fromkeys(_mask_with(positions, member) for member in members)
        return cls(ground, tuple(masks))

    @property
    def full_mask(self) -> int:
        return (1 << len(self.ground)) - 1

    def mask_of(self, elems) -> int:
        return _mask_with(self._positions, elems)

    def set_of(self, mask: int) -> frozenset:
        return frozenset(_elements(self.ground, mask))

    def closed_under_finite_ops(self) -> bool:
        """True iff pairwise unions and intersections of members stay members,
        verified by enumeration (pairwise closure implies finite closure)."""
        members = set(self.member_masks)
        return all(a | b in members and a & b in members for a in members for b in members)


def _positions(ground) -> dict:
    """Element -> its position (not its bit, which for N elements would
    hold about N^2/16 bytes); a repeated element keeps its last."""
    try:
        return {e: i for i, e in enumerate(ground)}
    except TypeError:
        raise ValueError("ground set elements must be hashable") from None


def _mask_with(positions, elems) -> int:
    try:
        items = iter(elems)
    except TypeError:
        raise ValueError(f"{elems!r} is not a collection of ground elements") from None
    mask = 0
    for e in items:
        try:
            mask |= 1 << positions[e]
        except (KeyError, TypeError):  # an unhashable element is not in the ground set either
            raise ValueError(f"element {e!r} is not in the ground set") from None
    return mask


def _elements(ground, mask) -> list:
    """Elements of ``ground`` whose bit is set, in ground order."""
    return [e for e, bit in zip(ground, bin(mask)[:1:-1]) if bit == "1"]


class SouslinScheme(_Record):
    """Finitely generated Souslin scheme.

    ``nodes`` maps index tuples within the (depth, branching) bounds to
    masks; missing in-bounds indices default to the full ground set, the
    internal top value.  The empty mask is admitted as an internal bottom
    (it backs the degenerate empty scheme).  The scan that validates the
    keys also keeps the longest key and the largest entry, which bound the
    walk of :func:`eval_scheme`.  Schemes compare and hash by identity.
    """

    _fields = ("paving", "depth", "branching", "nodes")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __post_init__(self):
        if self.depth < 1 or self.branching < 1:
            raise ValueError("depth and branching bounds must be positive")
        nodes = dict(self.nodes)
        entries = set(chain.from_iterable(nodes))
        longest, top = max(map(len, nodes), default=0), max(entries, default=0)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "_longest", longest)
        object.__setattr__(self, "_top", top)
        if (
            all(nodes)
            and longest <= self.depth
            and min(entries, default=1) >= 1
            and top <= self.branching
            and self.paving._node_values.issuperset(nodes.values())
        ):
            return
        # some entry is bad: name the first one
        for index, mask in nodes.items():
            if not index or len(index) > self.depth:
                raise ValueError(f"stored index {index!r} violates the depth bound")
            if any(e < 1 or e > self.branching for e in index):
                raise ValueError(f"stored index {index!r} violates the branching bound")
            if mask not in self.paving._node_values:
                raise ValueError(f"value at {index!r} is not a paving member")

    def node(self, index) -> int:
        """Mask at an arbitrary index tuple under the truncation semantics:
        depth truncates to the bound, entries clamp to the branching bound."""
        if not index:
            raise ValueError("scheme index must be nonempty")
        if min(index) < 1:
            raise ValueError("scheme index entries must be positive")
        b = self.branching
        return self.nodes.get(tuple(min(e, b) for e in index[: self.depth]), self.paving.full_mask)


def empty_scheme(paving: Paving) -> SouslinScheme:
    """The degenerate scheme evaluating to the empty set."""
    return SouslinScheme(paving, 1, 1, {(1,): 0})


def _eval_mask(s: SouslinScheme) -> int:
    """Depth-first walk over the bounded index tree with an explicit stack.

    ``running[k]`` is the intersection along ``index[:k]``, computed once
    and extended to each child.  A subtree whose running intersection is
    already inside the result cannot add to it and is skipped; the walk
    stops once the result is the full set.  Every node past the longest
    stored key reads full, so the walk ends at that length; so does every
    node whose key holds an entry above the largest stored one, so the
    next entry up stands for all of them.
    """
    full = s.paving.full_mask
    depth = max(1, min(s.depth, s._longest))
    branching = min(s.branching, s._top + 1)
    get = s.nodes.get
    result = 0
    index = [0]
    running = [full]
    while index:
        index[-1] += 1
        if index[-1] > branching or not running[-1] & ~result:
            index.pop()
            running.pop()
            continue
        cur = running[-1] & get(tuple(index), full)
        if not cur & ~result:
            continue
        if len(index) == depth:
            result |= cur
            if result == full:
                break
            continue
        index.append(0)
        running.append(cur)
    return result


def eval_scheme(s: SouslinScheme) -> frozenset:
    """The set the scheme produces: the union over all bounded index
    sequences of the intersection along each sequence's prefixes."""
    return s.paving.set_of(_eval_mask(s))


def _check_budget(name: str, depth: int, branching: int):
    sizes = accumulate(length * branching**length for length in range(1, depth + 1))
    if any(size > _ENTRY_BUDGET for size in sizes):
        raise ValueError(f"{name}: a depth {depth} x branching {branching} scheme has over {_ENTRY_BUDGET} index entries")


def _shared_paving(schemes) -> Paving:
    """The first scheme's paving, once every scheme's paving has its ground
    in the same order and the same members, listed in any order."""
    if not schemes:
        raise ValueError("a merge needs at least one scheme")
    first = schemes[0].paving
    members = set(first.member_masks)
    for s in schemes[1:]:
        if s.paving.ground != first.ground or set(s.paving.member_masks) != members:
            raise ValueError("merged schemes must share one paving")
    return first


def _read_through(source: SouslinScheme, axes, full: int) -> list:
    """Masks of ``source`` over ``product(*axes)``, in product order.

    Each axis lists the entries one output coordinate takes, already mapped
    to the source (clamped to its branching bound), or only ``None`` where
    the source does not read that coordinate; the entries that are not
    ``None``, in order, form the source index.  Every stored node of that
    length is read once, into a table keyed by its pattern with ``None`` at
    the unread coordinates, and the product is looked up in it.
    """
    read = [i for i, axis in enumerate(axes) if axis[0] is not None]
    table = {}
    for key, mask in source.nodes.items():
        if len(key) == len(read):
            pattern = [None] * len(axes)
            for i, e in zip(read, key):
                pattern[i] = e
            table[tuple(pattern)] = mask
    return list(map(table.get, product(*axes), repeat(full)))


def _clamped(source: SouslinScheme, branching: int) -> tuple:
    """Entries 1..branching clamped to the source's branching bound."""
    return tuple(min(e, source.branching) for e in range(1, branching + 1))


def _store_level(nodes: dict, length: int, branching: int, values: list, full: int):
    """Add the non-full ``values``, given over every index of ``length``
    entries in 1..branching in product order, to ``nodes``."""
    indices = product(range(1, branching + 1), repeat=length)
    nodes.update(compress(zip(indices, values), map(full.__ne__, values)))


def merge_union(schemes) -> SouslinScheme:
    """One scheme whose evaluation is the union of the inputs' evaluations.

    The first index entry is split by the pairing bijection into a (branch,
    scheme) pair and routed to that scheme's first coordinate; deeper
    entries pass through unchanged.  Bounds are recomputed through theta,
    so they grow quadratically with the number of inputs; intended for
    short lists.  An empty list is refused.
    """
    paving = _shared_paving(schemes)
    count = len(schemes)
    depth = max(s.depth for s in schemes)
    branching = max(theta(s.branching, m) for m, s in enumerate(schemes, start=1))
    _check_budget("merge_union", depth, branching)
    full = paving.full_mask
    skip = (None,) * branching
    nodes = {}
    for length in range(1, depth + 1):
        block = branching ** (length - 1)
        # source number -> its masks over (first entry in 1..its branching)
        # x (output entries 2..length), one block per first entry
        read = {}
        values = []
        for entry in range(1, branching + 1):
            first, which = theta_inv(entry)
            which = min(which, count)
            source = schemes[which - 1]
            if which not in read:
                used = min(length, source.depth)
                axes = [range(1, source.branching + 1)] + [_clamped(source, branching)] * (used - 1)
                read[which] = _read_through(source, axes + [skip] * (length - used), full)
            first = min(first, source.branching)
            values += read[which][(first - 1) * block : first * block]
        _store_level(nodes, length, branching, values, full)
    return SouslinScheme(paving, depth, branching, nodes)


def merge_intersection(schemes) -> SouslinScheme:
    """One scheme whose evaluation is the intersection of the inputs'.

    Depth l is split by the pairing bijection into a (level, scheme) pair;
    the node at depth l reads that scheme's level-many coordinates from the
    index positions the bijection reserves for it.  Bounds grow like the
    square of the input count; intended for short lists.  An empty list is
    refused.
    """
    paving = _shared_paving(schemes)
    count = len(schemes)
    branching = max(s.branching for s in schemes)
    depth = max(theta(s.depth, m) for m, s in enumerate(schemes, start=1))
    _check_budget("merge_intersection", depth, branching)
    full = paving.full_mask
    skip = (None,) * branching
    nodes = {}
    for length in range(1, depth + 1):
        level, which = theta_inv(length)
        source = schemes[min(which, count) - 1]
        # the source reads its first min(level, depth) coordinates
        positions = {theta(j, which) for j in range(1, min(level, source.depth) + 1)}
        clamped = _clamped(source, branching)
        axes = [clamped if p in positions else skip for p in range(1, length + 1)]
        _store_level(nodes, length, branching, _read_through(source, axes, full), full)
    return SouslinScheme(paving, depth, branching, nodes)


def monotonize(s: SouslinScheme) -> SouslinScheme:
    """Evaluation-preserving monotone rebuild of a scheme.

    The node at h becomes the union, over all index tuples dominated by h
    coordinatewise, of the intersections along their prefixes.  Requires
    the paving to be closed under finite unions and intersections so every
    rebuilt value stays representable.

    The rebuild goes level by level.  In product order the parent of index
    q of length l is index q // b of length l - 1, so the intersections
    along the prefixes extend those one level up:

        inter[q] = inter_prev[q // b] & s(index q)

    The dominated union is then one running OR along each coordinate.  Each
    of l rounds moves the last coordinate to the front (one slice per
    entry), bringing another to the back, where its entries sit at stride
    b, and scans it with b - 1 slice ORs; after l rounds every coordinate
    is scanned and product order is back.  At branching 1 no index
    dominates another, so the scan is skipped.  The rebuild costs the sum
    of l * b^l mask operations.
    """
    _check_budget("monotonize", s.depth, s.branching)
    members = len(s.paving.member_masks)
    if members * members > _PAIR_BUDGET:
        raise ValueError(f"monotonize: a paving of {members} members has over {_PAIR_BUDGET} member pairs")
    if not s.paving.closed_under_finite_ops():
        raise ValueError("monotonize requires a union/intersection-closed paving")
    full = s.paving.full_mask
    b = s.branching
    entries = range(1, b + 1)
    nodes = {}
    inter = [full]
    for length in range(1, s.depth + 1):
        masks = map(s.nodes.get, product(entries, repeat=length), repeat(full))
        inter = list(map(and_, chain.from_iterable(map(repeat, inter, repeat(b))), masks))
        table = inter
        if b > 1:
            for _ in range(length):
                table = list(chain.from_iterable(table[e::b] for e in range(b)))
                for e in range(1, b):
                    table[e::b] = map(or_, table[e - 1 :: b], table[e::b])
        _store_level(nodes, length, b, table, full)
    return SouslinScheme(s.paving, s.depth, s.branching, nodes)


def check_monotone(s: SouslinScheme) -> tuple[bool, bool]:
    """(vertical, horizontal) monotonicity over the in-bounds index space.

    Vertical: every child set is contained in its parent.  Horizontal:
    raising one entry by one step never shrinks the set (transitivity then
    gives full coordinatewise dominance).

    Only stored nodes can break either property: a vertical violation
    needs a parent below the full set, and a horizontal one a raised index
    below the full set, and every in-bounds index off ``nodes`` reads as
    the full set.  So the walk covers ``nodes``, not the whole index space,
    and every neighbour it reads is in bounds, so it is read straight from
    ``nodes``.
    """
    full = s.paving.full_mask
    get = s.nodes.get
    vertical = horizontal = True
    for index, mask in s.nodes.items():
        if mask == full:
            continue
        if vertical and len(index) < s.depth and any(get(index + (j,), full) & ~mask for j in range(1, s.branching + 1)):
            vertical = False
        if horizontal:
            for pos, e in enumerate(index):
                if e > 1 and get(index[:pos] + (e - 1,) + index[pos + 1 :], full) & ~mask:
                    horizontal = False
                    break
        if not (vertical or horizontal):
            break
    return vertical, horizontal


def scheme_to_literal(s: SouslinScheme) -> dict:
    """JSON-ready literal: ground_set, paving, depth, branching, and nodes
    keyed by dotted index strings, in the order the scheme stores them.
    Each distinct mask's element list is built once and shared by the
    nodes and members that hold it; the CLI's report writer relies on this
    and encodes each shared list once, found by its identity (a list that
    is not shared is only encoded again).  When no entry is above 9 the
    keys are written over the whole column at once (:func:`_bulk_keys`);
    otherwise each distinct entry is rendered once and each key joined
    from them."""
    ground = [str(e) for e in s.paving.ground]
    lists = {mask: _elements(ground, mask) for mask in {*s.paving.member_masks, *s.nodes.values()}}
    keys = _bulk_keys(s)
    if keys is None:
        texts = {e: str(e) for e in set(chain.from_iterable(s.nodes))}
        keys = [".".join(map(texts.__getitem__, idx)) for idx in s.nodes]
    return {
        "ground_set": ground,
        "paving": [lists[m] for m in s.paving.member_masks],
        "depth": s.depth,
        "branching": s.branching,
        "nodes": dict(zip(keys, map(lists.__getitem__, s.nodes.values()))),
    }


# The whole-column key paths: a key whose entries are all one digit 1-9
# is its index tuple as bytes with a dot between entries, so a few builtin
# str/bytes passes replace a split and a lookup per key.

# separator byte 0 -> "/", entry 1-9 -> its digit
_ENTRY_DIGITS = bytes.maketrans(bytes(range(10)), b"/123456789")
# digit 1-9 -> entry 1-9
_DIGIT_ENTRIES = bytes.maketrans(b"123456789", bytes(range(1, 10)))
# digit 1-9 -> "d", dot and key separator "/" -> ".", any other byte -> "!"
_KEY_SHAPE = bytes(ord("d") if chr(b) in "123456789" else ord(".") if chr(b) in "./" else ord("!") for b in range(256))


def _bulk_keys(s: SouslinScheme):
    """Dotted keys of ``s.nodes`` in order, or None when an entry is above
    9 (the largest entry is kept by the scheme's own scan): an entry of
    10-255 would be written as a raw byte, and one above 255 has none."""
    if s._top > 9:
        return None
    if not s.nodes:
        return []
    data = b"\0".join(map(bytes, s.nodes))
    return ".".join(data.translate(_ENTRY_DIGITS).decode()).replace("./.", "/").split("/")


def _bulk_indices(keys):
    """Index tuples of the dotted ``keys`` in order, or None unless every
    key is entries 1-9 written as ``scheme_to_literal`` writes them.

    The keys joined with "/" must be ASCII (checked first, so a lone
    surrogate never reaches the encoder), read ``d.d.…d`` once each digit
    1-9 is a d and each "/" a dot (so they hold no other character), and
    split back into ``len(keys)`` keys (no key holds a "/")."""
    try:
        text = "/".join(keys)
    except TypeError:  # a key that is not a string
        return None
    if not text.isascii():
        return None
    data = text.encode()
    shape = data.translate(_KEY_SHAPE)
    if shape != b"d." * (len(shape) // 2) + b"d" or data.count(b"/") + 1 != len(keys):
        return None
    return list(map(tuple, data.translate(_DIGIT_ENTRIES, b".").split(b"/")))


def _indices(keys):
    """Index tuple of each dotted key, one key at a time (a key that is not
    a string is read as its ``str``).  An entry must be written as
    ``str(int)`` writes it (the form scheme_to_literal uses), so no two
    keys name one index."""
    for key in keys:
        parts = str(key).split(".")
        try:
            index = tuple(map(int, parts))
        except ValueError:
            index = None
        if index is None or list(map(str, index)) != parts:
            raise ValueError(f"bad scheme index key {key!r}")
        yield index


def _array(value) -> list:
    """A JSON array of ground elements; any other value is refused."""
    if not isinstance(value, list):
        raise ValueError(f"{value!r} is not a collection of ground elements")
    return value


def scheme_from_literal(obj) -> SouslinScheme:
    """Parse the scheme literal format; raises ValueError on malformed input.

    The keys are decoded over the whole column at once when every key is
    entries 1-9 written as :func:`scheme_to_literal` writes them
    (:func:`_bulk_indices`); otherwise one key at a time, each entry read
    by ``int`` and checked against its ``str`` (:func:`_indices`), which
    also names the first bad key.  Each distinct node value becomes a mask
    once."""
    if not isinstance(obj, dict):
        raise ValueError("scheme literal must be an object")
    try:
        ground = _array(obj["ground_set"])
        members = obj["paving"]
        depth = obj["depth"]
        branching = obj["branching"]
        raw_nodes = obj["nodes"]
    except KeyError as exc:
        raise ValueError(f"scheme literal missing or malformed field: {exc}") from exc
    if not (isinstance(members, list) and isinstance(raw_nodes, dict)):
        raise ValueError("scheme literal paving must be an array and its nodes an object")
    if any(not isinstance(v, int) or isinstance(v, bool) for v in (depth, branching)):
        raise ValueError("scheme depth and branching must be integers")
    paving = Paving.from_sets(ground, map(_array, members))
    if not all(isinstance(e, str) for e in ground):
        raise ValueError("ground set elements must be strings")
    nodes = {}
    # node value -> mask, parsed once per literal
    masks: dict[tuple, int] = {}
    indices = _bulk_indices(raw_nodes)
    if indices is None:
        indices = _indices(raw_nodes)  # lazy, so a bad key and a bad value are named in node order
    for index, value in zip(indices, raw_nodes.values()):
        if type(value) is not list:
            _array(value)  # a list subclass passes, anything else raises
        elems = tuple(value)
        try:
            mask = masks[elems]
        except KeyError:
            mask = masks[elems] = paving.mask_of(elems)
        except TypeError:  # an unhashable element
            mask = paving.mask_of(value)  # raises, naming it
        nodes[index] = mask
    return SouslinScheme(paving, depth, branching, nodes)
