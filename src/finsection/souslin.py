"""Souslin schemes over finite pavings.

A scheme assigns a set from a paving to every finite tuple of positive
integers; evaluating it unions, over all index sequences, the intersections
along each sequence's prefixes.  Schemes here are *finitely generated*:
indices deeper than the depth bound repeat their deepest stored prefix, and
entries above the branching bound clamp down to it, so the evaluation over
all infinite index sequences collapses to an exact finite computation.

Set values are bitmasks over a fixed enumeration of the ground set, which
keeps every equality test exact.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import product
from math import isqrt

__all__ = [
    "Paving",
    "CumulativeNodes",
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


@dataclass(frozen=True)
class Paving:
    """A finite, nonempty collection of subsets of a finite ground set.

    ``ground`` fixes the element order; members are bitmasks over it.
    """

    ground: tuple
    member_masks: tuple[int, ...]

    def __post_init__(self):
        if not self.ground:
            raise ValueError("ground set must be nonempty")
        if len(set(self.ground)) != len(self.ground):
            raise ValueError("ground set elements must be distinct")
        if not self.member_masks:
            raise ValueError("paving needs at least one member")
        full = self.full_mask
        for mask in self.member_masks:
            if mask < 0 or mask & ~full:
                raise ValueError("paving member is not a subset of the ground set")

    @classmethod
    def from_sets(cls, ground, members) -> "Paving":
        ground = tuple(ground)
        masks = []
        seen = set()
        for member in members:
            mask = _mask_of(ground, member)
            if mask not in seen:
                seen.add(mask)
                masks.append(mask)
        return cls(ground, tuple(masks))

    @property
    def full_mask(self) -> int:
        return (1 << len(self.ground)) - 1

    def mask_of(self, elems) -> int:
        return _mask_of(self.ground, elems)

    def set_of(self, mask: int) -> frozenset:
        return frozenset(e for i, e in enumerate(self.ground) if mask >> i & 1)

    def closed_under_finite_ops(self) -> bool:
        """True iff pairwise unions and intersections of members stay members,
        verified by enumeration (pairwise closure implies finite closure)."""
        members = set(self.member_masks)
        return all(a | b in members and a & b in members for a in members for b in members)


def _mask_of(ground, elems) -> int:
    pos = {e: i for i, e in enumerate(ground)}
    mask = 0
    for e in elems:
        if e not in pos:
            raise ValueError(f"element {e!r} is not in the ground set")
        mask |= 1 << pos[e]
    return mask


class CumulativeNodes(Mapping):
    """Read-only node map of a cumulative scheme, computed from its masks.

    With r masks the keys are every index tuple of length 1..r with entries
    in 1..r, and the node at a key is ``masks[min(key) - 1]``.  It reads
    exactly like the dict of those Σ r^l entries, but nothing is stored
    beyond the r masks: keys are enumerated lazily and counted
    arithmetically (so ``len`` overflows past r = 15, where the count
    exceeds ``sys.maxsize``).
    """

    def __init__(self, masks):
        self.masks = tuple(masks)

    def __getitem__(self, key):
        r = len(self.masks)
        if not 1 <= len(key) <= r or min(key) < 1 or max(key) > r:
            raise KeyError(key)
        return self.masks[min(key) - 1]

    def __iter__(self):
        r = len(self.masks)
        for length in range(1, r + 1):
            yield from product(range(1, r + 1), repeat=length)

    def __len__(self):
        r = len(self.masks)
        return sum(r**length for length in range(1, r + 1))


@dataclass(frozen=True, eq=False)
class SouslinScheme:
    """Finitely generated Souslin scheme.

    ``nodes`` maps index tuples within the (depth, branching) bounds to
    masks; missing in-bounds indices default to the full ground set, the
    internal top value.  It is a dict of stored entries, or a
    :class:`CumulativeNodes` that computes them.  The empty mask is
    admitted as an internal bottom (it backs the degenerate empty scheme).
    """

    paving: Paving
    depth: int
    branching: int
    nodes: Mapping

    def __post_init__(self):
        if self.depth < 1 or self.branching < 1:
            raise ValueError("depth and branching bounds must be positive")
        allowed = set(self.paving.member_masks)
        allowed.add(self.paving.full_mask)
        allowed.add(0)
        if isinstance(self.nodes, CumulativeNodes):
            # the keys lie in 1..r by construction, so the bounds and the r
            # masks cover every entry
            r = len(self.nodes.masks)
            if r > self.depth or r > self.branching:
                raise ValueError(f"cumulative nodes over {r} masks violate the scheme bounds")
            if any(mask not in allowed for mask in self.nodes.masks):
                raise ValueError("cumulative node value is not a paving member")
            return
        object.__setattr__(self, "nodes", dict(self.nodes))
        for index, mask in self.nodes.items():
            if not index or len(index) > self.depth:
                raise ValueError(f"stored index {index!r} violates the depth bound")
            if any(e < 1 or e > self.branching for e in index):
                raise ValueError(f"stored index {index!r} violates the branching bound")
            if mask not in allowed:
                raise ValueError(f"value at {index!r} is not a paving member")

    def node(self, index) -> int:
        """Mask at an arbitrary index tuple under the truncation semantics:
        depth truncates to the bound, entries clamp to the branching bound."""
        if not index:
            raise ValueError("scheme index must be nonempty")
        if min(index) < 1:
            raise ValueError("scheme index entries must be positive")
        b = self.branching
        key = tuple(index[: self.depth])
        if max(key) > b:
            key = tuple(min(e, b) for e in key)
        return self.nodes.get(key, self.paving.full_mask)

    def node_set(self, index) -> frozenset:
        return self.paving.set_of(self.node(index))

    def with_branching(self, branching: int) -> "SouslinScheme":
        """Same nodes under a raised branching bound."""
        if branching < self.branching:
            raise ValueError("branching bound can only be raised")
        return SouslinScheme(self.paving, self.depth, branching, self.nodes)


def empty_scheme(paving: Paving) -> SouslinScheme:
    """The degenerate scheme evaluating to the empty set."""
    return SouslinScheme(paving, 1, 1, {(1,): 0})


def _eval_mask(s: SouslinScheme) -> int:
    """Depth-first walk over the bounded index tree with an explicit stack.

    ``running[k]`` is the intersection along ``index[:k]``, computed once
    and extended to each child.  A subtree whose running intersection is
    already inside the result cannot add to it and is skipped; the walk
    stops once the result is the full set.
    """
    full = s.paving.full_mask
    depth, branching = s.depth, s.branching
    result = 0
    index = [0]
    running = [full]
    while index:
        index[-1] += 1
        if index[-1] > branching or not running[-1] & ~result:
            index.pop()
            running.pop()
            continue
        cur = running[-1] & s.node(tuple(index))
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


def _shared_paving(schemes, paving):
    if schemes:
        first = schemes[0].paving
        for s in schemes[1:]:
            if s.paving != first:
                raise ValueError("merged schemes must share one paving")
        return first
    if paving is None:
        raise ValueError("an empty merge needs an explicit paving")
    return paving


def merge_union(schemes, paving: Paving | None = None) -> SouslinScheme:
    """One scheme whose evaluation is the union of the inputs' evaluations.

    The first index entry is split by the pairing bijection into a (branch,
    scheme) pair and routed to that scheme's first coordinate; deeper
    entries pass through unchanged.  Bounds are recomputed through theta,
    so they grow quadratically with the number of inputs; intended for
    short lists.  An empty input list yields the empty scheme.
    """
    paving = _shared_paving(schemes, paving)
    if not schemes:
        return empty_scheme(paving)
    count = len(schemes)
    depth = max(s.depth for s in schemes)
    branching = max(theta(s.branching, m) for m, s in enumerate(schemes, start=1))
    full = paving.full_mask
    nodes = {}
    for length in range(1, depth + 1):
        for index in product(range(1, branching + 1), repeat=length):
            first, which = theta_inv(index[0])
            source = schemes[min(which, count) - 1]
            mask = source.node((first,) + index[1:])
            if mask != full:
                nodes[index] = mask
    return SouslinScheme(paving, depth, branching, nodes)


def merge_intersection(schemes, paving: Paving | None = None) -> SouslinScheme:
    """One scheme whose evaluation is the intersection of the inputs'.

    Depth l is split by the pairing bijection into a (level, scheme) pair;
    the node at depth l reads that scheme's level-many coordinates from the
    index positions the bijection reserves for it.  Bounds grow like the
    square of the input count; intended for short lists.  An empty input
    list yields the empty scheme.
    """
    paving = _shared_paving(schemes, paving)
    if not schemes:
        return empty_scheme(paving)
    count = len(schemes)
    branching = max(s.branching for s in schemes)
    depth = max(theta(s.depth, m) for m, s in enumerate(schemes, start=1))
    full = paving.full_mask
    nodes = {}
    for length in range(1, depth + 1):
        level, which = theta_inv(length)
        source = schemes[min(which, count) - 1]
        positions = [theta(j, which) for j in range(1, level + 1)]
        for index in product(range(1, branching + 1), repeat=length):
            mask = source.node(tuple(index[p - 1] for p in positions))
            if mask != full:
                nodes[index] = mask
    return SouslinScheme(paving, depth, branching, nodes)


def monotonize(s: SouslinScheme) -> SouslinScheme:
    """Evaluation-preserving monotone rebuild of a scheme.

    The node at h becomes the union, over all index tuples dominated by h
    coordinatewise, of the intersections along their prefixes.  Requires
    the paving to be closed under finite unions and intersections so every
    rebuilt value stays representable.
    """
    if not s.paving.closed_under_finite_ops():
        raise ValueError("monotonize requires a union/intersection-closed paving")
    full = s.paving.full_mask
    nodes = {}
    for length in range(1, s.depth + 1):
        for bound in product(range(1, s.branching + 1), repeat=length):
            acc = 0
            for n in product(*(range(1, h + 1) for h in bound)):
                cur = full
                for k in range(1, length + 1):
                    cur &= s.node(n[:k])
                    if not cur:
                        break
                acc |= cur
                if acc == full:
                    break
            if acc != full:
                nodes[bound] = acc
    return SouslinScheme(s.paving, s.depth, s.branching, nodes)


def check_monotone(s: SouslinScheme) -> tuple[bool, bool]:
    """(vertical, horizontal) monotonicity over the in-bounds index space.

    Vertical: every child set is contained in its parent.  Horizontal:
    raising one entry by one step never shrinks the set (transitivity then
    gives full coordinatewise dominance).

    Only stored nodes can break either property: a vertical violation
    needs a parent below the full set, and a horizontal one a raised index
    below the full set, and every in-bounds index off ``nodes`` reads as
    the full set.  So the walk covers ``nodes``, not the whole index space.
    """
    full = s.paving.full_mask
    vertical = horizontal = True
    for index, mask in s.nodes.items():
        if mask == full:
            continue
        if vertical and len(index) < s.depth and any(s.node(index + (j,)) & ~mask for j in range(1, s.branching + 1)):
            vertical = False
        if horizontal:
            for pos, e in enumerate(index):
                if e > 1 and s.node(index[:pos] + (e - 1,) + index[pos + 1 :]) & ~mask:
                    horizontal = False
                    break
        if not (vertical or horizontal):
            break
    return vertical, horizontal


def scheme_to_literal(s: SouslinScheme) -> dict:
    """JSON-ready literal: ground_set, paving, depth, branching, and nodes
    keyed by dotted index strings."""
    ground = [str(e) for e in s.paving.ground]

    def elems(mask):
        return [e for i, e in enumerate(ground) if mask >> i & 1]

    return {
        "ground_set": ground,
        "paving": [elems(m) for m in s.paving.member_masks],
        "depth": s.depth,
        "branching": s.branching,
        "nodes": {".".join(str(i) for i in idx): elems(mask) for idx, mask in sorted(s.nodes.items())},
    }


def scheme_from_literal(obj) -> SouslinScheme:
    """Parse the scheme literal format; raises ValueError on malformed input."""
    if not isinstance(obj, dict):
        raise ValueError("scheme literal must be an object")
    try:
        ground = list(obj["ground_set"])
        members = list(obj["paving"])
        depth = obj["depth"]
        branching = obj["branching"]
        raw_nodes = dict(obj["nodes"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"scheme literal missing or malformed field: {exc}") from exc
    if any(not isinstance(v, int) or isinstance(v, bool) for v in (depth, branching)):
        raise ValueError("scheme depth and branching must be integers")
    paving = Paving.from_sets(ground, members)
    nodes = {}
    for key, value in raw_nodes.items():
        parts = str(key).split(".")
        try:
            index = tuple(int(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"bad scheme index key {key!r}") from exc
        nodes[index] = paving.mask_of(value)
    return SouslinScheme(paving, depth, branching, nodes)
