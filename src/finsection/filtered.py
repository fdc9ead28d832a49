"""Discrete time grids, filtrations, random times, and stochastic sets.

Times map atoms to grid indices or infinity (``INF``).  A time is a
stopping (predictable) time exactly when its graph is an optional
(predictable) set, so the time predicates are :func:`is_set_of_kind` on the
graph.  Predictability is the discrete criterion: {tau <= t_k} measurable
one step earlier for k >= 1, and {tau = t_0} measurable at t_0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from operator import is_not
from typing import NamedTuple

from .measure import SampleSpace, SigmaAlgebra, is_measurable, refines

__all__ = [
    "INF",
    "TimeGrid",
    "FilteredSpace",
    "RandomTime",
    "StochasticSet",
    "TimeClassification",
    "constant_time",
    "infinite_time",
    "is_stopping_time",
    "is_predictable_time",
    "debut",
    "graph",
    "interval",
    "restrict",
    "combine_min",
    "combine_sup",
    "shift",
    "is_set_of_kind",
    "classify_time",
]

INF = float("inf")

# the most atom entries (cover times x atoms) classify_time's cover holds,
# each one a value its report prints
_COVER_BUDGET = 1 << 21


def _finite(values):
    """The values that are not the ``INF`` object, as an iterator;
    ``values`` is read twice, so it is a sequence or a dict view."""
    return compress(values, map(is_not, values, repeat(INF)))


def _index_types(types) -> bool:
    """True iff every type in ``types`` is an int type other than bool:
    ``isinstance`` over the distinct types of a column of values."""
    return all(issubclass(t, int) and not issubclass(t, bool) for t in types)


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing nonnegative rational time labels; index-based
    everywhere else, with ``INF`` as the distinguished infinity.
    ``Fraction`` labels are kept as given; others are converted."""

    labels: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(t if type(t) is Fraction else Fraction(t) for t in self.labels))
        if not self.labels:
            raise ValueError("time grid needs at least one point")
        if any(t < 0 for t in self.labels):
            raise ValueError("time labels must be nonnegative")
        if any(a >= b for a, b in zip(self.labels, self.labels[1:])):
            raise ValueError("time labels must be strictly increasing")

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class FilteredSpace:
    """A sample space, a time grid, and a refining partition per grid index."""

    space: SampleSpace
    grid: TimeGrid
    filtration: tuple[SigmaAlgebra, ...]

    def __post_init__(self):
        object.__setattr__(self, "filtration", tuple(self.filtration))
        if len(self.filtration) != len(self.grid):
            raise ValueError("need exactly one sigma-algebra per grid point")
        universe = frozenset(self.space.atoms)
        if self.filtration[0].universe == universe:
            # one object, so the partitions sharing it compare by identity
            universe = self.filtration[0].universe
        object.__setattr__(self, "_atom_set", universe)
        faults = _filtration_faults(universe, self.filtration)
        if faults:
            raise ValueError(faults[0])

    @property
    def atoms(self) -> tuple[str, ...]:
        return self.space.atoms

    @property
    def atom_set(self) -> frozenset:
        return self._atom_set

    @property
    def n_times(self) -> int:
        return len(self.grid)

    def lookback(self, k: int) -> SigmaAlgebra:
        """The sigma-algebra one step before index k (itself at k = 0)."""
        return self.filtration[max(k - 1, 0)]


def _filtration_faults(universe: frozenset, sigmas) -> list[str]:
    """One line per partition that misses the atom set or, when all cover
    it, per step that fails to refine the one before."""
    lines = [
        f"filtration[{k}] does not partition the atom set"
        for k, s in enumerate(sigmas)
        if s.universe is not universe and s.universe != universe
    ]
    steps = enumerate(zip(sigmas, sigmas[1:]), start=1)
    return lines or [f"filtration[{k}] does not refine filtration[{k - 1}]" for k, (a, b) in steps if not refines(b, a)]


@dataclass(frozen=True)
class RandomTime:
    """Total map from atoms to grid indices or ``INF``."""

    values: dict

    def __post_init__(self):
        vals = dict(self.values)
        finite = list(_finite(vals.values()))
        if _index_types(set(map(type, finite))) and min(finite, default=0) >= 0:
            object.__setattr__(self, "values", vals)
            return
        # some value is bad or an infinity other than INF: name or store it
        for atom, v in self.values.items():
            if v == INF:
                vals[atom] = INF
            elif isinstance(v, int) and not isinstance(v, bool) and v >= 0:
                vals[atom] = v
            else:
                raise ValueError(f"bad time value {v!r} for atom {atom!r}")
        object.__setattr__(self, "values", vals)

    def finite_support(self) -> frozenset:
        return frozenset(a for a, v in self.values.items() if v != INF)


def constant_time(atoms, k: int) -> RandomTime:
    return RandomTime({a: k for a in atoms})


def infinite_time(atoms) -> RandomTime:
    return RandomTime({a: INF for a in atoms})


@dataclass(frozen=True, init=False)
class StochasticSet:
    """Subset of atoms x grid indices, stored slice by slice: ``slices`` is
    the tuple of (index, atoms) pairs sorted by index, one nonempty atom
    frozenset per index.  ``cells`` is a derived view of (atom, index)
    pairs; sets with the same cells compare and hash equal."""

    slices: tuple

    def __init__(self, cells=frozenset()):
        slices: dict = {}
        for atom, k in cells:
            slices.setdefault(k, set()).add(atom)
        self._store(slices)

    @classmethod
    def from_slices(cls, slices) -> "StochasticSet":
        """Build from a mapping index -> atoms; empty slices are dropped."""
        out = cls.__new__(cls)
        out._store(slices)
        return out

    def _store(self, slices):
        frozen = {k: frozenset(atoms) for k, atoms in slices.items()}
        object.__setattr__(self, "slices", tuple(sorted((k, atoms) for k, atoms in frozen.items() if atoms)))

    @classmethod
    def empty(cls) -> "StochasticSet":
        return cls.from_slices({})

    @property
    def cells(self) -> frozenset:
        return frozenset((a, k) for k, atoms in self.slices for a in atoms)

    def __or__(self, other):
        out = dict(self.slices)
        for k, atoms in other.slices:
            out[k] = out[k] | atoms if k in out else atoms
        return StochasticSet.from_slices(out)

    def __and__(self, other):
        theirs = dict(other.slices)
        return StochasticSet.from_slices({k: atoms & theirs[k] for k, atoms in self.slices if k in theirs})

    def __sub__(self, other):
        theirs = dict(other.slices)
        return StochasticSet.from_slices({k: atoms - theirs[k] if k in theirs else atoms for k, atoms in self.slices})

    def __le__(self, other):
        theirs = dict(other.slices)
        return all(k in theirs and atoms <= theirs[k] for k, atoms in self.slices)

    def __bool__(self):
        return bool(self.slices)


class TimeClassification(NamedTuple):
    cover: tuple
    ti_part: RandomTime
    acc_part: RandomTime


def _check_total(tau: RandomTime, X: FilteredSpace):
    if set(tau.values) != set(X.atoms):
        raise ValueError("random time must be total on the space's atoms")
    if max(_finite(tau.values.values()), default=0) >= X.n_times:
        raise ValueError("random time values must be grid indices or INF")


def is_stopping_time(tau: RandomTime, X: FilteredSpace) -> bool:
    """True iff every level set {tau <= t_k} is measurable at time t_k.

    The filtration refines, so once {tau <= t_(k-1)} is measurable at
    t_(k-1) it is at t_k too, and {tau <= t_k} is measurable at t_k exactly
    when {tau = t_k}, slice k of the graph, is: the graph is optional."""
    _check_total(tau, X)
    return is_set_of_kind(graph(tau), X, "optional")


def is_predictable_time(tau: RandomTime, X: FilteredSpace) -> bool:
    """Discrete predictability: {tau <= t_k} measurable one step earlier for
    k >= 1, and {tau = t_0} measurable at t_0.  As for stopping times, on a
    refining filtration this holds exactly when each {tau = t_k} is
    measurable at the lookback index of k: the graph is predictable."""
    _check_total(tau, X)
    return is_set_of_kind(graph(tau), X, "predictable")


def _check_cells(S: StochasticSet, X: FilteredSpace):
    n, universe = X.n_times, X.atom_set
    for k, atoms in S.slices:
        outside = atoms - universe if 0 <= k < n else atoms
        if outside:
            raise ValueError(f"cell ({next(iter(outside))!r}, {k}) is outside the space")


def debut(S: StochasticSet, X: FilteredSpace) -> RandomTime:
    """First entry time into the set per atom, infinity when never entered."""
    _check_cells(S, X)
    firsts: dict = dict.fromkeys(X.atoms, INF)
    entered: set = set()
    for k, atoms in S.slices:
        new = atoms - entered
        firsts.update(dict.fromkeys(new, k))
        entered |= new
    return RandomTime(firsts)


def graph(tau: RandomTime) -> StochasticSet:
    """The cells (atom, tau(atom)) where the time is finite."""
    slices: dict = {}
    for atom, v in tau.values.items():
        if v != INF:
            slices.setdefault(v, []).append(atom)
    return StochasticSet.from_slices(slices)


def interval(
    rho: RandomTime,
    tau: RandomTime,
    X: FilteredSpace,
    left_closed: bool = True,
    right_closed: bool = True,
) -> StochasticSet:
    """Stochastic interval between two times with explicit endpoint flags.

    An infinite left endpoint contributes nothing, and the two times are
    not required to be ordered; half-open variants drop the corresponding
    endpoint cells.
    """
    if set(rho.values) != set(tau.values):
        raise ValueError("interval endpoints must share the atom set")
    n = X.n_times
    slices: dict = {}
    for atom in rho.values:
        lo, hi = rho.values[atom], tau.values[atom]
        for k in range(n):
            if (lo <= k if left_closed else lo < k) and (k <= hi if right_closed else k < hi):
                slices.setdefault(k, []).append(atom)
    return StochasticSet.from_slices(slices)


def restrict(tau: RandomTime, subset) -> RandomTime:
    """Keep the time on the given atoms, send everything else to infinity."""
    subset = frozenset(subset)
    return RandomTime({a: (v if a in subset else INF) for a, v in tau.values.items()})


def _combine(times, pick, name: str) -> RandomTime:
    times = list(times)
    if not times:
        raise ValueError(f"{name} needs at least one time")
    atoms = times[0].values.keys()
    if any(t.values.keys() != atoms for t in times):
        raise ValueError("combined times must share the atom set")
    return RandomTime({a: pick(t.values[a] for t in times) for a in atoms})


def combine_min(times) -> RandomTime:
    return _combine(times, min, "combine_min")


def combine_sup(times) -> RandomTime:
    return _combine(times, max, "combine_sup")


def shift(tau: RandomTime, steps: int, X: FilteredSpace) -> RandomTime:
    """Delay a time by whole grid steps; overflow past the grid is infinity."""
    if steps < 1:
        raise ValueError("shift needs a positive step count")
    _check_total(tau, X)
    n = X.n_times
    out = {}
    for atom, v in tau.values.items():
        out[atom] = INF if v == INF or v + steps >= n else v + steps
    return RandomTime(out)


def is_set_of_kind(S: StochasticSet, X: FilteredSpace, kind: str) -> bool:
    """Slice criterion for the two set classes: optional slices are
    measurable at their own index, predictable slices one step earlier
    (index 0 at itself)."""
    if kind not in ("predictable", "optional"):
        raise ValueError(f"unknown stochastic set kind {kind!r}")
    _check_cells(S, X)
    sigma_for = X.filtration.__getitem__ if kind == "optional" else X.lookback
    return all(is_measurable(atoms, sigma_for(k)) for k, atoms in S.slices)


def classify_time(tau: RandomTime, X: FilteredSpace) -> TimeClassification:
    """Split a stopping time into totally inaccessible and accessible parts
    and produce a predictable cover of the accessible graph.

    On a finite grid every stopping time is accessible: each level set is
    covered by lookback blocks, and the constant time on such a block is
    predictable.  The totally inaccessible part is therefore the empty
    restriction, which meets every predictable time with probability zero.
    A cover of more than ``_COVER_BUDGET`` atom entries (times x atoms) is
    refused before any of its times is built.
    """
    _check_total(tau, X)
    G = graph(tau)
    if not is_set_of_kind(G, X, "optional"):
        raise ValueError("classify_time needs a stopping time")
    # per level, the blocks meeting it, in ``blocks`` order (by least atom)
    levels = [(k, sorted(set(map(X.lookback(k)._block_of.__getitem__, hit)), key=min)) for k, hit in G.slices]
    count = sum(len(blocks) for _, blocks in levels)
    if count * len(X.atoms) > _COVER_BUDGET:
        raise ValueError(f"classify_time: a cover of {count} times over {len(X.atoms)} atoms has over {_COVER_BUDGET} entries")
    cover = [RandomTime({**dict.fromkeys(X.atoms, INF), **dict.fromkeys(block, k)}) for k, blocks in levels for block in blocks]
    return TimeClassification(tuple(cover), restrict(tau, frozenset()), tau)
