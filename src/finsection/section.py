"""Section solvers over finite filtered spaces.

Two routes produce a section time for a predictable set: the direct debut
(exact on finite models, used as the oracle) and the scheme route, which
reads the set as a monotone Souslin scheme, picks each index coordinate as
the least branch whose envelope's projection weighs at least target - eps,
and returns the debut of the chosen branch.  The paper weighs a projection
by outer measure, as in general it is only universally measurable; here a
projection of an optional or predictable set is a finite union of slices,
each measurable at the last step, so it weighs its probability, and the
debut has deficit 0.  On the set's cumulative scheme (C_c the union of its
first c nonempty slices, the node at a key C_min(key)) this has a closed
form: depth 0 picks the least k* whose C_k* clears, and at each later depth
the node C_min(k*, c) fails for c < k* and is C_k* for c >= k*, so k* is
picked again.  Each solver checks its input once, on entry: epsilon,
strategy, then the set's kind.  Optional and accessible sections reduce to
the unchecked predictable core through the largest-predictable-subset
decomposition, splitting the epsilon budget evenly between the two halves;
the thin remainder is read as slices.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, compress, product

from .filtered import (
    FilteredSpace,
    RandomTime,
    StochasticSet,
    constant_time,
    debut,
    is_set_of_kind,
    restrict,
)
from .measure import _Record, discrete_sigma
from .souslin import Paving, SouslinScheme, _check_budget, check_monotone, empty_scheme

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


def _report(X: FilteredSpace, target: Fraction, time, strategy, prefix=(), measures=()) -> SectionResult:
    """The result for a time sectioning a set whose projection weighs
    ``target``; the debut's deficit is 0, its finite support the projection."""
    trace = SectionTrace(prefix, measures, Fraction(0))
    return SectionResult(time, target - X.space.prob(time.finite_support()), strategy, trace)


def to_interval_representation(P_set: StochasticSet, X: FilteredSpace) -> tuple:
    """Realize a predictable set as a union of closed intervals, one
    (left, right) pair of times per nonempty slice: the left endpoint is
    the slice-restricted constant time (predictable because the slice is
    measurable one step back) and the right endpoint the same constant, so
    each interval is exactly the slice's row of cells and their union is
    the set itself."""
    if not is_set_of_kind(P_set, X, "predictable"):
        raise ValueError("interval representation needs a predictable set")
    return tuple((restrict(constant_time(X.atoms, k), slice_k), constant_time(X.atoms, k)) for k, slice_k in P_set.slices)


def _cell_ground(X: FilteredSpace) -> tuple:
    """The cells of the space, slice-major: (atoms[i], k) sits at k*n + i."""
    return tuple((atom, k) for k in range(X.n_times) for atom in X.atoms)


def build_monotone_scheme(P_set: StochasticSet, X: FilteredSpace) -> SouslinScheme:
    """Monotone scheme over interval-realized values that produces the set.

    With r nonempty slices the scheme has depth and branching r, and the
    node at an index tuple is the cumulative union of the first
    min(tuple) slices; evaluation recovers the full set while every node
    stays an interval-realizable predictable set.  All Σ r^l nodes are
    stored, so r is refused up front past the scheme ops' entry budget.
    """
    if not is_set_of_kind(P_set, X, "predictable"):
        raise ValueError("interval representation needs a predictable set")
    r = len(P_set.slices)
    _check_budget("build_monotone_scheme", r, r)
    n = len(X.atoms)
    bit = {atom: 1 << i for i, atom in enumerate(X.atoms)}
    # slice k's atom mask goes to chunk k; disjoint chunks make sums unions
    cumulative = list(accumulate(sum(map(bit.__getitem__, atoms)) << k * n for k, atoms in P_set.slices))
    paving = Paving(_cell_ground(X), (0, *cumulative))
    if not r:
        return empty_scheme(paving)
    entries = range(1, r + 1)
    nodes = {key: cumulative[min(key) - 1] for length in entries for key in product(entries, repeat=length)}
    return SouslinScheme(paving, r, r, nodes)


def _mask_to_set(X: FilteredSpace, mask: int) -> StochasticSet:
    """The set of a slice-major cell mask, read one n-bit chunk per slice."""
    n = len(X.atoms)
    rows = (bin(mask >> k * n & (1 << n) - 1)[:1:-1] for k in range(X.n_times))
    return StochasticSet.from_slices({k: compress(X.atoms, map("1".__eq__, row)) for k, row in enumerate(rows)})


def _souslin_sweep(scheme: SouslinScheme, X: FilteredSpace, eps: Fraction, target: Fraction):
    """Least-branch envelope selection.

    For a monotone scheme the envelope of an index prefix is the node at
    the prefix padded with the branching bound, and it grows with each
    coordinate, so each coordinate is the least candidate whose envelope's
    projection weighs at least target - eps, found by bisection.  The
    bound clears, as its envelope is the last accepted one (at first, the
    target); each envelope it reads is weighed, with no cache.
    """
    depth, branching = scheme.depth, scheme.branching

    def weigh(mask: int) -> Fraction:
        return X.space.prob(projection(_mask_to_set(X, mask)))

    prefix: list[int] = []
    measures: list[Fraction] = []
    for pos in range(depth):
        pad = (branching,) * (depth - pos - 1)
        prefix.append(1 + bisect_left(
            range(1, branching), True, key=lambda c: weigh(scheme.node((*prefix, c, *pad))) >= target - eps
        ))
        measures.append(weigh(scheme.node((*prefix, *pad))))
    chosen = _mask_to_set(X, scheme.node(tuple(prefix)))
    return tuple(prefix), tuple(measures), chosen


def section_from_scheme(scheme: SouslinScheme, X: FilteredSpace, eps) -> SectionResult:
    """Run the scheme route on a caller-supplied monotone scheme whose node
    values are predictable sets over the cells of the space, listed
    slice-major in its ground: (atoms[i], k) at position k*n + i."""
    eps = _check_epsilon(eps)
    if scheme.paving.ground != _cell_ground(X):
        raise ValueError("scheme ground set must be the atoms x grid cells of the space")
    if check_monotone(scheme) != (True, True):
        raise ValueError("section_from_scheme needs a monotone scheme")
    for mask in set(scheme.nodes.values()) | {scheme.paving.full_mask}:
        if not is_set_of_kind(_mask_to_set(X, mask), X, "predictable"):
            raise ValueError("scheme values must be predictable sets")
    target = X.space.prob(projection(_mask_to_set(X, scheme.node((scheme.branching,) * scheme.depth))))
    prefix, measures, chosen = _souslin_sweep(scheme, X, eps, target)
    return _report(X, target, debut(chosen, X), STRATEGY_SOUSLIN, prefix, measures)


def predictable_section(P_set: StochasticSet, X: FilteredSpace, eps, strategy=STRATEGY_SOUSLIN) -> SectionResult:
    """Predictable time whose graph sits inside the set and whose finiteness
    probability is within eps of the projection's probability, which is its
    outer measure, as the projection is measurable.

    The debut strategy returns the first-entry time, exact on a finite
    grid.  The scheme strategy returns the sweep's result on the set's
    cumulative scheme in its closed form (module docstring): the debut of
    the first k* slices and the trace (k*,) * r, every envelope measure
    that of C_k*.  The prefix measures grow slice by slice, each slice
    adding the probability of its atoms no earlier slice holds, up to k*.
    """
    eps = _checked(P_set, X, eps, strategy, "predictable", "predictable_section needs a predictable set")
    return _report(X, *_predictable_section(P_set, X, eps, strategy))


def _predictable_section(P_set: StochasticSet, X: FilteredSpace, eps: Fraction, strategy: str) -> tuple:
    """predictable_section's ``_report`` arguments, on a checked set, eps and strategy."""
    prob = X.space.prob
    target = prob(projection(P_set))
    if strategy == STRATEGY_DEBUT:
        return target, debut(P_set, X), STRATEGY_DEBUT, (), ()
    covered, mass, floor = set(), Fraction(0), target - eps
    k_star = 1  # the empty set keeps the empty scheme's trace
    for k_star, (_, atoms) in enumerate(P_set.slices, 1):
        mass += prob(atoms - covered)
        covered |= atoms
        if mass >= floor:
            break
    time = debut(StochasticSet.from_slices(dict(P_set.slices[:k_star])), X)
    r = max(len(P_set.slices), 1)
    return target, time, STRATEGY_SOUSLIN, (k_star,) * r, (mass,) * r


def measurable_section(S: StochasticSet, space, grid) -> SectionResult:
    """Exact section of an arbitrary stochastic set.

    Under the finest constant filtration every set of cells is predictable,
    so its debut is an exact section, with the projection as its finiteness
    set, and no kind check runs: ``debut`` refuses a cell outside the space.
    """
    X = FilteredSpace(space, grid, (discrete_sigma(space.atoms),) * len(grid))
    time = debut(S, X)  # first, so a cell outside the space is refused before prob sees it
    return _report(X, X.space.prob(projection(S)), time, STRATEGY_DEBUT)


def decompose_optional(O: StochasticSet, X: FilteredSpace) -> OptionalDecomposition:
    """Split an optional set into its largest predictable subset and a thin
    remainder.

    Slice k of the predictable part is the union of lookback blocks inside
    slice k of the input; each leftover slice becomes the graph of one
    slice-constant stopping time, so the remainder is a finite union of
    stopping-time graphs and the predictable part never leaves the input.
    """
    if not is_set_of_kind(O, X, "optional"):
        raise ValueError("decompose_optional needs an optional set")
    part, rests = _split_optional(O, X)
    return OptionalDecomposition(part, tuple(restrict(constant_time(X.atoms, k), rest) for k, rest in rests))


def _split_optional(O: StochasticSet, X: FilteredSpace) -> tuple:
    """The largest predictable subset of a set already known to be optional,
    and the (index, atoms) slices of the thin rest, in index order.  Slice
    k keeps the lookback blocks inside it, found through the atom table."""
    predictable = {}
    rests = []
    for k, slice_k in O.slices:
        meeting = set(map(X.lookback(k)._block_of.__getitem__, slice_k))
        inside = frozenset().union(*(block for block in meeting if block <= slice_k))
        predictable[k] = inside
        rest = slice_k - inside
        if rest:
            rests.append((k, rest))
    return StochasticSet.from_slices(predictable), rests


def optional_section(O: StochasticSet, X: FilteredSpace, eps, strategy=STRATEGY_SOUSLIN) -> SectionResult:
    """Stopping time with graph inside the optional set and deficit at most
    eps, assembled from a predictable section of the largest predictable
    subset at eps/2 and a prefix of the thin remainder times covering all
    but eps/2 of the leftover projection mass."""
    eps = _checked(O, X, eps, strategy, "optional", "optional_section needs an optional set")
    return _optional_section(O, X, eps, strategy)


def _optional_section(O: StochasticSet, X: FilteredSpace, eps: Fraction, strategy: str) -> SectionResult:
    """optional_section on a set already known to be optional, with eps and
    strategy already checked.  The thin rests are taken in index order until
    all but eps/2 of their projection is covered; each atom keeps the first
    index that covers it, and the time is the minimum with the inner one."""
    part, rests = _split_optional(O, X)
    # The predictable part is predictable by construction and never leaves
    # O, so the inner section needs no check and its graph lies inside O.
    half = eps / 2
    _, inner_time, _, prefix, measures = _predictable_section(part, X, half, strategy)

    prob = X.space.prob
    remainder_mass = prob(frozenset().union(*(rest for _, rest in rests)))
    firsts: dict = {}
    covered = Fraction(0)
    for k, rest in rests:
        if remainder_mass - covered <= half:
            break
        new = rest.difference(firsts)  # the atoms no earlier rest covers
        firsts.update(dict.fromkeys(new, k))
        covered += prob(new)
    values = dict(inner_time.values)
    values.update({atom: k for atom, k in firsts.items() if k < values[atom]})

    return _report(X, prob(projection(O)), RandomTime(values), strategy, prefix, measures)


def accessible_section(A_set: StochasticSet, X: FilteredSpace, eps, strategy=STRATEGY_SOUSLIN) -> SectionResult:
    """Optional section specialized to the accessible class.

    On a finite grid every stopping time is accessible, so the accessible
    sigma-algebra coincides with the optional one and the optional
    construction already returns an accessible time.
    """
    eps = _checked(A_set, X, eps, strategy, "optional", "accessible_section needs an optional set")
    return _optional_section(A_set, X, eps, strategy)
