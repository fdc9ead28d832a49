"""Section solvers over finite filtered spaces.

Each solver picks a part of its set, and ``debut`` alone turns the part
into the section time, whose graph then sits inside the set.  The paper
weighs a projection by outer measure, as in general it is only
universally measurable; here a projection of an optional or predictable
set is a finite union of slices, each measurable at the last step, so it
weighs its probability.  A predictable section on the debut strategy
picks the whole set (exact, deficit 0, used as the oracle).  The scheme
route reads a predictable set as a monotone Souslin scheme, picks each
index coordinate as the least branch whose envelope's projection weighs
at least target - eps, and picks the chosen branch.  On the set's
cumulative scheme (C_c the union of its first c nonempty slices, the
node at a key C_min(key)) this has a closed form: depth 0 picks the
least k* whose C_k* clears, and at each later depth the node
C_min(k*, c) fails for c < k* and is C_k* for c >= k*, so k* is picked
again.  Optional and accessible sections split the set into its largest
predictable subset, whose part they pick as above at eps/2 (all of it
on the debut strategy), and thin (index, atoms) rests, of which they add
the fewest leading ones that cover all but eps/2 of the rests'
projection; one debut takes both.  So on either strategy their deficit
can be eps/2 > 0: a rest weighing exactly eps/2 is left out.
``_leading`` counts leading slices for both.  Each solver checks its
input once, on entry: epsilon, strategy, then the set's kind.  No solver
builds a scheme, so only ``build_monotone_scheme`` and
``section_from_scheme`` import the Souslin layer, when they run.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, product
from operator import or_

from .filtered import FilteredSpace, StochasticSet, debut, is_set_of_kind
from .measure import _blocks_meeting, _Record, discrete_sigma

__all__ = [
    "STRATEGY_DEBUT",
    "STRATEGY_SOUSLIN",
    "SectionTrace",
    "SectionResult",
    "OptionalDecomposition",
    "projection",
    "to_interval_representation",
    "build_monotone_scheme",
    "section_from_scheme",
    "predictable_section",
    "measurable_section",
    "decompose_optional",
    "optional_section",
    "accessible_section",
]

STRATEGY_DEBUT = "debut-oracle"
STRATEGY_SOUSLIN = "souslin"


class SectionTrace(_Record):
    """Construction trace: the chosen index prefix, the accepted envelope
    projection measures per depth, and the deficit the debut oracle attains
    on the same target."""

    _fields = ("chosen_prefix", "envelope_measures", "oracle_deficit")


_DEBUT_TRACE = SectionTrace((), (), Fraction(0))  # a section that runs no sweep


class SectionResult(_Record):
    _fields = ("time", "deficit", "strategy", "trace")


class OptionalDecomposition(_Record):
    """Largest predictable subset plus stopping times whose graphs tile the
    remainder (a thin set)."""

    _fields = ("predictable_part", "thin_times")


def projection(S: StochasticSet) -> frozenset:
    """Atoms whose section of the set is nonempty."""
    return frozenset().union(*(atoms for _, atoms in S.slices))


def _check_epsilon(eps) -> Fraction:
    """eps as a Fraction (one given as a Fraction is kept), refused if negative."""
    if type(eps) is not Fraction:
        eps = Fraction(eps)
    if eps < 0:
        raise ValueError("epsilon must be nonnegative")
    return eps


def _checked(S: StochasticSet, X: FilteredSpace, eps, strategy, kind: str, message: str) -> Fraction:
    """The one input check of a section solver: epsilon, then strategy, then
    the set's kind.  Returns eps as a Fraction."""
    eps = _check_epsilon(eps)
    if strategy not in (STRATEGY_DEBUT, STRATEGY_SOUSLIN):
        raise ValueError(f"unknown section strategy {strategy!r}")
    if not is_set_of_kind(S, X, kind):
        raise ValueError(message)
    return eps


def _report(X: FilteredSpace, target: Fraction, part: StochasticSet, strategy, trace: SectionTrace) -> SectionResult:
    """The result for the debut of ``part``, picked from a set whose
    projection weighs ``target``."""
    time = debut(part, X)
    return SectionResult(time, target - X.space.prob(time.finite_support()), strategy, trace)


def _leading(slices, prob, floor: Fraction) -> tuple:
    """The least k >= 1 whose first k (index, atoms) slices weigh at least
    ``floor`` (1 when there are none), and their weight: each slice adds
    the weight of its atoms that no earlier slice holds."""
    covered, mass, k = set(), Fraction(0), 1
    for k, (_, atoms) in enumerate(slices, 1):
        mass += prob(atoms - covered)
        covered |= atoms
        if mass >= floor:
            break
    return k, mass


def to_interval_representation(P_set: StochasticSet, X: FilteredSpace) -> tuple:
    """Realize a predictable set as a union of closed intervals, one
    (left, right) pair of times per nonempty slice: the slice's debut
    (predictable, as the slice is measurable one step back) and the same
    constant on every atom, so each interval is exactly the slice's row of
    cells and their union is the set itself."""
    if not is_set_of_kind(P_set, X, "predictable"):
        raise ValueError("interval representation needs a predictable set")

    def at(k, atoms):  # the time that is k on the atoms and infinite elsewhere
        return debut(StochasticSet.from_slices({k: atoms}), X)
    return tuple((at(k, slice_k), at(k, X.atoms)) for k, slice_k in P_set.slices)


def _cell_ground(X: FilteredSpace) -> tuple:
    """The cells of the space, slice-major: (atoms[i], k) sits at k*n + i."""
    return tuple((atom, k) for k in range(X.n_times) for atom in X.atoms)


def build_monotone_scheme(P_set: StochasticSet, X: FilteredSpace):
    """Monotone ``SouslinScheme`` over interval-realized values that
    produces the set.

    With r nonempty slices the scheme has depth and branching r, and the
    node at an index tuple is the cumulative union of the first
    min(tuple) slices; evaluation recovers the full set while every node
    stays an interval-realizable predictable set.  All Σ r^l nodes are
    stored, so r is refused up front past the scheme ops' entry budget.
    """
    from .souslin import Paving, SouslinScheme, _check_budget, empty_scheme

    if not is_set_of_kind(P_set, X, "predictable"):
        raise ValueError("interval representation needs a predictable set")
    r = len(P_set.slices)
    _check_budget("build_monotone_scheme", r, r)
    cumulative = accumulate(({(atom, k) for atom in atoms} for k, atoms in P_set.slices), or_)
    # C_0 = {}, C_1 .. C_r are distinct (no slice is empty), so member c is C_c
    paving = Paving.from_sets(_cell_ground(X), (frozenset(), *cumulative))
    if not r:
        return empty_scheme(paving)
    masks, entries = paving.member_masks, range(1, r + 1)
    nodes = {key: masks[min(key)] for length in entries for key in product(entries, repeat=length)}
    return SouslinScheme(paving, r, r, nodes)


def _souslin_sweep(scheme, X: FilteredSpace, eps: Fraction) -> tuple:
    """Least-branch envelope selection: the full node's projection weight
    (the target), the chosen branch's set and the trace.

    For a monotone scheme the envelope of an index prefix is the node at
    the prefix padded with the branching bound, and it grows with each
    coordinate, so each coordinate is the least candidate whose envelope's
    projection weighs at least target - eps, found by bisection.  The
    bound clears, as its envelope is the last accepted one (at first, the
    target); each envelope it reads is weighed, with no cache.
    """
    depth, branching, paving = scheme.depth, scheme.branching, scheme.paving

    def weigh(mask: int) -> Fraction:
        return X.space.prob({atom for atom, _ in paving.set_of(mask)})

    target = weigh(scheme.node((branching,) * depth))
    prefix: list[int] = []
    measures: list[Fraction] = []
    for pos in range(depth):
        pad = (branching,) * (depth - pos - 1)
        prefix.append(1 + bisect_left(
            range(1, branching), True, key=lambda c: weigh(scheme.node((*prefix, c, *pad))) >= target - eps
        ))
        measures.append(weigh(scheme.node((*prefix, *pad))))
    chosen = StochasticSet(paving.set_of(scheme.node(tuple(prefix))))
    return target, chosen, SectionTrace(tuple(prefix), tuple(measures), Fraction(0))


def section_from_scheme(scheme, X: FilteredSpace, eps) -> SectionResult:
    """Run the scheme route on a caller-supplied monotone ``SouslinScheme``
    whose node values are predictable sets over the cells of the space,
    listed in its ground in the order of the space's cell ground
    (``_cell_ground``)."""
    from .souslin import check_monotone

    eps = _check_epsilon(eps)
    paving = scheme.paving
    if paving.ground != _cell_ground(X):
        raise ValueError("scheme ground set must be the atoms x grid cells of the space")
    if check_monotone(scheme) != (True, True):
        raise ValueError("section_from_scheme needs a monotone scheme")
    for mask in set(scheme.nodes.values()) | {paving.full_mask}:
        if not is_set_of_kind(StochasticSet(paving.set_of(mask)), X, "predictable"):
            raise ValueError("scheme values must be predictable sets")
    target, chosen, trace = _souslin_sweep(scheme, X, eps)
    return _report(X, target, chosen, STRATEGY_SOUSLIN, trace)


def predictable_section(P_set: StochasticSet, X: FilteredSpace, eps, strategy=STRATEGY_SOUSLIN) -> SectionResult:
    """Predictable time whose graph sits inside the set and whose finiteness
    probability is within eps of the projection's probability, which is its
    outer measure, as the projection is measurable.

    The time is the debut of a part of the set: the whole set on the debut
    strategy, exact on a finite grid; on the scheme strategy the sweep's
    closed-form choice on the set's cumulative scheme (module docstring),
    the fewest leading slices, k*, that clear target - eps, with the trace
    (k*,) * r, every envelope measure that of C_k*.
    """
    eps = _checked(P_set, X, eps, strategy, "predictable", "predictable_section needs a predictable set")
    target, part, trace = _predictable_part(P_set, X, eps, strategy)
    return _report(X, target, part, strategy, trace)


def _predictable_part(P_set: StochasticSet, X: FilteredSpace, eps: Fraction, strategy: str) -> tuple:
    """The projection's weight, the part whose debut is the section, and
    the trace, on a checked set, eps and strategy."""
    prob = X.space.prob
    target = prob(projection(P_set))
    if strategy == STRATEGY_DEBUT:
        return target, P_set, _DEBUT_TRACE
    k_star, mass = _leading(P_set.slices, prob, target - eps)
    r = max(len(P_set.slices), 1)
    return target, StochasticSet.from_slices(dict(P_set.slices[:k_star])), SectionTrace((k_star,) * r, (mass,) * r, Fraction(0))


def measurable_section(S: StochasticSet, space, grid) -> SectionResult:
    """Exact section of an arbitrary stochastic set.

    Under the finest constant filtration every set of cells is predictable,
    so its debut is an exact section, with the projection as its finiteness
    set (deficit 0), and no kind check runs: ``debut`` refuses a cell
    outside the space.
    """
    X = FilteredSpace(space, grid, (discrete_sigma(space.atoms),) * len(grid))
    return SectionResult(debut(S, X), Fraction(0), STRATEGY_DEBUT, _DEBUT_TRACE)


def decompose_optional(O: StochasticSet, X: FilteredSpace) -> OptionalDecomposition:
    """Split an optional set into its largest predictable subset and a thin
    remainder.

    Slice k of the predictable part is the union of lookback blocks inside
    slice k of the input; each leftover slice's debut is one slice-constant
    stopping time, so the remainder is a finite union of stopping-time
    graphs and the predictable part never leaves the input.
    """
    if not is_set_of_kind(O, X, "optional"):
        raise ValueError("decompose_optional needs an optional set")
    part, rests = _split_optional(O, X)
    return OptionalDecomposition(part, tuple(debut(StochasticSet.from_slices({k: rest}), X) for k, rest in rests))


def _split_optional(O: StochasticSet, X: FilteredSpace) -> tuple:
    """The largest predictable subset of a set already known to be optional,
    and the (index, atoms) slices of the thin rest, in index order.  Slice
    k keeps the lookback blocks inside it."""
    predictable = {}
    rests = []
    for k, slice_k in O.slices:
        inside = frozenset().union(*(block for block in _blocks_meeting(slice_k, X.lookback(k)) if block <= slice_k))
        predictable[k] = inside
        rest = slice_k - inside
        if rest:
            rests.append((k, rest))
    return StochasticSet.from_slices(predictable), rests


def optional_section(O: StochasticSet, X: FilteredSpace, eps, strategy=STRATEGY_SOUSLIN) -> SectionResult:
    """Stopping time with graph inside the optional set and deficit at most
    eps: the debut of the part a predictable section picks from the largest
    predictable subset at eps/2, together with the leading thin remainder
    rests that cover all but eps/2 of the remainder's projection mass."""
    eps = _checked(O, X, eps, strategy, "optional", "optional_section needs an optional set")
    return _optional_section(O, X, eps, strategy)


def _optional_section(O: StochasticSet, X: FilteredSpace, eps: Fraction, strategy: str) -> SectionResult:
    """optional_section on a set already known to be optional, with eps and
    strategy already checked.  The inner part and the fewest leading rests
    that leave at most eps/2 of the rests' projection out (none when all of
    it weighs at most eps/2) make one debut: per atom, the earlier entry."""
    part, rests = _split_optional(O, X)
    # The predictable part is predictable by construction and never leaves
    # O, so the inner section needs no check and its graph lies inside O.
    half = eps / 2
    _, inner, trace = _predictable_part(part, X, half, strategy)
    prob = X.space.prob
    remainder_mass = prob(frozenset().union(*(rest for _, rest in rests)))
    taken = _leading(rests, prob, remainder_mass - half)[0] if remainder_mass > half else 0
    return _report(X, prob(projection(O)), inner | StochasticSet.from_slices(dict(rests[:taken])), strategy, trace)


def accessible_section(A_set: StochasticSet, X: FilteredSpace, eps, strategy=STRATEGY_SOUSLIN) -> SectionResult:
    """Optional section specialized to the accessible class.

    On a finite grid every stopping time is accessible, so the accessible
    sigma-algebra coincides with the optional one and the optional
    construction already returns an accessible time.
    """
    eps = _checked(A_set, X, eps, strategy, "optional", "accessible_section needs an optional set")
    return _optional_section(A_set, X, eps, strategy)
