"""Section solvers over finite filtered spaces.

Two routes produce a section time for a predictable set: the direct debut
(exact on finite models, used as the oracle) and the scheme route, which
rebuilds the set as a monotone Souslin scheme over interval-realized
values, sweeps envelope prefixes greedily until their projected outer
measure clears the epsilon threshold, and returns the debut of the chosen
branch intersection.  Optional and accessible sections reduce to the
predictable case through the largest-predictable-subset decomposition,
splitting the epsilon budget evenly between the two halves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .filtered import (
    FilteredSpace,
    RandomTime,
    StochasticSet,
    combine_min,
    constant_time,
    debut,
    graph,
    infinite_time,
    interval,
    is_set_of_kind,
    restrict,
)
from .measure import discrete_sigma, outer_measure
from .souslin import CumulativeNodes, Paving, SouslinScheme, check_monotone, empty_scheme

__all__ = [
    "STRATEGY_DEBUT",
    "STRATEGY_SOUSLIN",
    "IntervalUnion",
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


@dataclass(frozen=True)
class IntervalUnion:
    """A stochastic set realized as a finite union of closed intervals, each
    from a predictable left time to a pointwise finite stopping time."""

    pairs: tuple
    realized_set: StochasticSet


@dataclass(frozen=True)
class SectionTrace:
    """Construction trace: the chosen index prefix, the accepted envelope
    projection measures per depth, and the deficit the debut oracle attains
    on the same target."""

    chosen_prefix: tuple
    envelope_measures: tuple
    oracle_deficit: Fraction


@dataclass(frozen=True)
class SectionResult:
    time: RandomTime
    deficit: Fraction
    strategy: str
    trace: SectionTrace


@dataclass(frozen=True)
class OptionalDecomposition:
    """Largest predictable subset plus stopping times whose graphs tile the
    remainder (a thin set)."""

    predictable_part: StochasticSet
    thin_times: tuple


def projection(S: StochasticSet) -> frozenset:
    """Atoms whose section of the set is nonempty."""
    return frozenset().union(*S.slices.values())


def _outer(X: FilteredSpace, subset) -> Fraction:
    return outer_measure(subset, X.filtration[-1], X.space)


def _check_epsilon(eps) -> Fraction:
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError("epsilon must be nonnegative")
    return eps


def _normalize_strategy(strategy: str) -> str:
    if strategy in ("debut", STRATEGY_DEBUT):
        return STRATEGY_DEBUT
    if strategy == STRATEGY_SOUSLIN:
        return STRATEGY_SOUSLIN
    raise ValueError(f"unknown section strategy {strategy!r}")


class _NotPredictable(ValueError):
    """A set refused by to_interval_representation for its kind."""


def to_interval_representation(P_set: StochasticSet, X: FilteredSpace) -> IntervalUnion:
    """Realize a predictable set as a union of one closed interval per
    nonempty slice: the left endpoint is the slice-restricted constant
    time (predictable because the slice is measurable one step back) and
    the right endpoint the same constant, so each interval is exactly the
    slice's row of cells."""
    if not is_set_of_kind(P_set, X, "predictable"):
        raise _NotPredictable("interval representation needs a predictable set")
    pairs = []
    realized = StochasticSet.empty()
    for k in sorted(P_set.slices):
        slice_k = P_set.slices[k]
        left = restrict(constant_time(X.atoms, k), slice_k)
        right = constant_time(X.atoms, k)
        pairs.append((left, right))
        realized = realized | interval(left, right, X)
    return IntervalUnion(tuple(pairs), realized)


def _cell_ground(X: FilteredSpace) -> tuple:
    return tuple((atom, k) for atom in X.atoms for k in range(X.n_times))


def build_monotone_scheme(P_set: StochasticSet, X: FilteredSpace) -> SouslinScheme:
    """Monotone scheme over interval-realized values that produces the set.

    With r nonempty slices the scheme has depth and branching r, and the
    node at an index tuple is the cumulative union of the first
    min(tuple) slices; evaluation recovers the full set while every node
    stays an interval-realizable predictable set.  The nodes are computed
    from the r cumulative masks, not stored.
    """
    pairs = to_interval_representation(P_set, X).pairs
    ground = _cell_ground(X)
    if not pairs:
        return empty_scheme(Paving(ground, (0,)))
    cumulative = []
    acc = frozenset()
    for left, _ in pairs:
        acc |= graph(left).cells
        cumulative.append(acc)
    paving = Paving.from_sets(ground, [frozenset()] + cumulative)
    r = len(pairs)
    return SouslinScheme(paving, r, r, CumulativeNodes(paving.mask_of(c) for c in cumulative))


def _mask_to_set(paving: Paving, mask: int) -> StochasticSet:
    return StochasticSet(paving.set_of(mask))


def _souslin_sweep(scheme: SouslinScheme, X: FilteredSpace, eps: Fraction, target_outer: Fraction):
    """Greedy envelope selection.

    For a monotone scheme the envelope of an index prefix is the node at
    the prefix padded with the branching bound, so each sweep step is one
    node lookup; each coordinate is raised until the envelope's projected
    outer measure clears target - eps, which the full bound always does.
    """
    depth, branching = scheme.depth, scheme.branching
    threshold = target_outer - eps
    prefix: list[int] = []
    measures: list[Fraction] = []
    for _ in range(depth):
        accepted = None
        for cand in range(1, branching + 1):
            corner = tuple(prefix) + (cand,) + (branching,) * (depth - len(prefix) - 1)
            envelope = _mask_to_set(scheme.paving, scheme.node(corner))
            measure = _outer(X, projection(envelope))
            if measure >= threshold:
                accepted = (cand, measure)
                break
        if accepted is None:
            raise RuntimeError("envelope sweep failed to stabilize at the branching bound")
        prefix.append(accepted[0])
        measures.append(accepted[1])
    chosen = _mask_to_set(scheme.paving, scheme.node(tuple(prefix)))
    return tuple(prefix), tuple(measures), chosen


def section_from_scheme(scheme: SouslinScheme, X: FilteredSpace, eps) -> SectionResult:
    """Run the scheme route on a caller-supplied monotone scheme whose node
    values are predictable sets over the cells of the space."""
    eps = _check_epsilon(eps)
    if set(scheme.paving.ground) != set(_cell_ground(X)):
        raise ValueError("scheme ground set must be the atoms x grid cells of the space")
    if check_monotone(scheme) != (True, True):
        raise ValueError("section_from_scheme needs a monotone scheme")
    for mask in set(scheme.nodes.values()) | {scheme.paving.full_mask}:
        if not is_set_of_kind(_mask_to_set(scheme.paving, mask), X, "predictable"):
            raise ValueError("scheme values must be predictable sets")
    target = _mask_to_set(scheme.paving, scheme.node((scheme.branching,) * scheme.depth))
    return _souslin_section(scheme, X, eps, target)


def _souslin_section(scheme, X, eps, target) -> SectionResult:
    target_outer = _outer(X, projection(target))
    prefix, measures, chosen = _souslin_sweep(scheme, X, eps, target_outer)
    time = debut(chosen, X)
    deficit = target_outer - X.space.prob(time.finite_support())
    oracle = target_outer - X.space.prob(projection(target))
    return SectionResult(time, deficit, STRATEGY_SOUSLIN, SectionTrace(prefix, measures, oracle))


def predictable_section(P_set: StochasticSet, X: FilteredSpace, eps, strategy=STRATEGY_SOUSLIN) -> SectionResult:
    """Predictable time whose graph sits inside the set and whose finiteness
    probability is within eps of the projection's outer measure.

    The debut strategy returns the first-entry time, exact on a finite
    grid; the scheme strategy follows the monotone-scheme envelope sweep
    and honors the eps budget through its early stop.
    """
    eps = _check_epsilon(eps)
    strategy = _normalize_strategy(strategy)
    refused = "predictable_section needs a predictable set"
    if strategy == STRATEGY_DEBUT:
        if not is_set_of_kind(P_set, X, "predictable"):
            raise ValueError(refused)
        time = debut(P_set, X)
        deficit = _outer(X, projection(P_set)) - X.space.prob(time.finite_support())
        return SectionResult(time, deficit, STRATEGY_DEBUT, SectionTrace((), (), deficit))
    # the scheme's interval representation checks the kind
    try:
        scheme = build_monotone_scheme(P_set, X)
    except _NotPredictable as exc:
        raise ValueError(refused) from exc
    return _souslin_section(scheme, X, eps, P_set)


def measurable_section(S: StochasticSet, space, grid) -> SectionResult:
    """Exact section of an arbitrary stochastic set.

    Under the finest constant filtration every set is predictable, so the
    debut route applies with eps = 0 and recovers the projection as the
    exact finiteness set of the returned time.
    """
    fine = discrete_sigma(space.atoms)
    X = FilteredSpace(space, grid, tuple(fine for _ in range(len(grid))))
    return predictable_section(S, X, Fraction(0), STRATEGY_DEBUT)


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
    return _decompose(O, X)


def _decompose(O: StochasticSet, X: FilteredSpace) -> OptionalDecomposition:
    """decompose_optional on a set already known to be optional."""
    predictable = {}
    thin = []
    for k in sorted(O.slices):
        slice_k = O.slices[k]
        lookback = X.lookback(k)
        meeting = {lookback.block_of(a) for a in slice_k}
        inside = frozenset().union(*(block for block in meeting if block <= slice_k))
        predictable[k] = inside
        rest = slice_k - inside
        if rest:
            thin.append(restrict(constant_time(X.atoms, k), rest))
    return OptionalDecomposition(StochasticSet.from_slices(predictable), tuple(thin))


def optional_section(O: StochasticSet, X: FilteredSpace, eps, strategy=STRATEGY_SOUSLIN) -> SectionResult:
    """Stopping time with graph inside the optional set and deficit at most
    eps, assembled from a predictable section of the largest predictable
    subset at eps/2 and a prefix of the thin remainder times covering all
    but eps/2 of the leftover projection mass."""
    eps = _check_epsilon(eps)
    strategy = _normalize_strategy(strategy)
    if not is_set_of_kind(O, X, "optional"):
        raise ValueError("optional_section needs an optional set")
    return _optional_section(O, X, eps, strategy)


def _optional_section(O: StochasticSet, X: FilteredSpace, eps: Fraction, strategy: str) -> SectionResult:
    """optional_section on a set already known to be optional, with eps and
    strategy already checked."""
    part = _decompose(O, X)
    # The predictable part never leaves O, so the inner section's graph
    # already lies inside O.
    inner = predictable_section(part.predictable_part, X, eps / 2, strategy)

    remainder = O - part.predictable_part
    remainder_mass = X.space.prob(projection(remainder))
    chosen: list[RandomTime] = []
    covered: frozenset = frozenset()
    for t in part.thin_times:
        if remainder_mass - X.space.prob(covered) <= eps / 2:
            break
        chosen.append(t)
        covered = covered | t.finite_support()
    tau = combine_min(chosen) if chosen else infinite_time(X.atoms)

    time = combine_min([inner.time, tau])
    target_outer = _outer(X, projection(O))
    deficit = target_outer - X.space.prob(time.finite_support())
    oracle = target_outer - X.space.prob(projection(O))
    trace = SectionTrace(inner.trace.chosen_prefix, inner.trace.envelope_measures, oracle)
    return SectionResult(time, deficit, inner.strategy, trace)


def accessible_section(A_set: StochasticSet, X: FilteredSpace, eps, strategy=STRATEGY_SOUSLIN) -> SectionResult:
    """Optional section specialized to the accessible class.

    On a finite grid every stopping time is accessible, so the accessible
    sigma-algebra coincides with the optional one and the optional
    construction already returns an accessible time.
    """
    if not is_set_of_kind(A_set, X, "optional"):
        raise ValueError("accessible_section needs an optional set")
    return _optional_section(A_set, X, _check_epsilon(eps), _normalize_strategy(strategy))
