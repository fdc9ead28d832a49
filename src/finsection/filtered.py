"""Discrete time grids, filtrations, random times, and stochastic sets.

Times map atoms to grid indices or infinity (``INF``).  The predictability
criterion is the discrete one: the level set {tau <= t_k} must already be
measurable one step earlier, with the t_0 level set measurable at t_0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
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


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing nonnegative rational time labels; index-based
    everywhere else, with ``INF`` as the distinguished infinity."""

    labels: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(Fraction(t) for t in self.labels))
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
        object.__setattr__(self, "_atom_set", universe)
        for k, sigma in enumerate(self.filtration):
            if sigma.universe != universe:
                raise ValueError(f"filtration[{k}] does not partition the atom set")
        for k in range(1, len(self.filtration)):
            if not refines(self.filtration[k], self.filtration[k - 1]):
                raise ValueError(f"filtration[{k}] does not refine filtration[{k - 1}]")

    @property
    def atoms(self) -> tuple[str, ...]:
        return self.space.atoms

    @property
    def atom_set(self) -> frozenset:
        return self._atom_set

    @property
    def n_times(self) -> int:
        return len(self.grid)

    def sigma_at(self, k: int) -> SigmaAlgebra:
        return self.filtration[k]

    def lookback(self, k: int) -> SigmaAlgebra:
        """The sigma-algebra one step before index k (itself at k = 0)."""
        return self.filtration[max(k - 1, 0)]


@dataclass(frozen=True)
class RandomTime:
    """Total map from atoms to grid indices or ``INF``."""

    values: dict

    def __post_init__(self):
        vals = {}
        for atom, v in self.values.items():
            if v == INF:
                vals[atom] = INF
            elif isinstance(v, int) and not isinstance(v, bool) and v >= 0:
                vals[atom] = v
            else:
                raise ValueError(f"bad time value {v!r} for atom {atom!r}")
        object.__setattr__(self, "values", vals)

    def value(self, atom):
        return self.values[atom]

    def finite_support(self) -> frozenset:
        return frozenset(a for a, v in self.values.items() if v != INF)

    def level_le(self, k: int) -> frozenset:
        return frozenset(a for a, v in self.values.items() if v <= k)

    def level_eq(self, k: int) -> frozenset:
        return frozenset(a for a, v in self.values.items() if v == k)


def constant_time(atoms, k: int) -> RandomTime:
    return RandomTime({a: k for a in atoms})


def infinite_time(atoms) -> RandomTime:
    return RandomTime({a: INF for a in atoms})


class StochasticSet:
    """Subset of atoms x grid indices, stored as one atom frozenset per
    nonempty slice.  ``cells`` is a derived view of (atom, index) pairs;
    sets with the same cells compare and hash equal."""

    __slots__ = ("slices",)

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
        frozen = ((k, frozenset(atoms)) for k, atoms in slices.items())
        object.__setattr__(self, "slices", MappingProxyType({k: atoms for k, atoms in frozen if atoms}))

    @classmethod
    def empty(cls) -> "StochasticSet":
        return cls.from_slices({})

    @classmethod
    def rectangle(cls, atoms, n_times: int) -> "StochasticSet":
        row = frozenset(atoms)
        return cls.from_slices({k: row for k in range(n_times)})

    @property
    def cells(self) -> frozenset:
        return frozenset((a, k) for k, atoms in self.slices.items() for a in atoms)

    def slice_at(self, k: int) -> frozenset:
        return self.slices.get(k, frozenset())

    def __setattr__(self, name, value):
        raise AttributeError("StochasticSet is immutable")

    def __eq__(self, other):
        if not isinstance(other, StochasticSet):
            return NotImplemented
        return self.slices == other.slices

    def __hash__(self):
        return hash(frozenset(self.slices.items()))

    def __repr__(self):
        return f"StochasticSet.from_slices({dict(sorted(self.slices.items()))!r})"

    def __or__(self, other):
        out = dict(self.slices)
        for k, atoms in other.slices.items():
            out[k] = out[k] | atoms if k in out else atoms
        return StochasticSet.from_slices(out)

    def __and__(self, other):
        theirs = other.slices
        return StochasticSet.from_slices({k: atoms & theirs[k] for k, atoms in self.slices.items() if k in theirs})

    def __sub__(self, other):
        theirs = other.slices
        return StochasticSet.from_slices(
            {k: atoms - theirs[k] if k in theirs else atoms for k, atoms in self.slices.items()}
        )

    def __le__(self, other):
        theirs = other.slices
        return all(k in theirs and atoms <= theirs[k] for k, atoms in self.slices.items())

    def __bool__(self):
        return bool(self.slices)


class TimeClassification(NamedTuple):
    cover: tuple
    ti_part: RandomTime
    acc_part: RandomTime


def _check_total(tau: RandomTime, X: FilteredSpace):
    if set(tau.values) != set(X.atoms):
        raise ValueError("random time must be total on the space's atoms")
    n = X.n_times
    if any(v != INF and v >= n for v in tau.values.values()):
        raise ValueError("random time values must be grid indices or INF")


def is_stopping_time(tau: RandomTime, X: FilteredSpace) -> bool:
    """True iff every level set {tau <= t_k} is measurable at time t_k."""
    _check_total(tau, X)
    return all(is_measurable(tau.level_le(k), X.sigma_at(k)) for k in range(X.n_times))


def is_predictable_time(tau: RandomTime, X: FilteredSpace) -> bool:
    """Discrete predictability: {tau <= t_k} measurable one step earlier for
    k >= 1, and {tau = t_0} measurable at t_0."""
    _check_total(tau, X)
    if not is_measurable(tau.level_eq(0), X.sigma_at(0)):
        return False
    return all(is_measurable(tau.level_le(k), X.sigma_at(k - 1)) for k in range(1, X.n_times))


def debut(S: StochasticSet, X: FilteredSpace) -> RandomTime:
    """First entry time into the set per atom, infinity when never entered."""
    firsts: dict = dict.fromkeys(X.atoms, INF)
    n = X.n_times
    entered: set = set()
    for k in sorted(S.slices):
        atoms = S.slices[k]
        if not atoms <= X.atom_set:
            raise ValueError(f"cell atom {next(iter(atoms - X.atom_set))!r} is not in the space")
        if k < 0 or k >= n:
            raise ValueError(f"cell index {k} is outside the grid")
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


def combine_min(times) -> RandomTime:
    times = list(times)
    if not times:
        raise ValueError("combine_min needs at least one time")
    atoms = times[0].values.keys()
    if any(t.values.keys() != atoms for t in times):
        raise ValueError("combined times must share the atom set")
    return RandomTime({a: min(t.values[a] for t in times) for a in atoms})


def combine_sup(times) -> RandomTime:
    times = list(times)
    if not times:
        raise ValueError("combine_sup needs at least one time")
    atoms = times[0].values.keys()
    if any(t.values.keys() != atoms for t in times):
        raise ValueError("combined times must share the atom set")
    return RandomTime({a: max(t.values[a] for t in times) for a in atoms})


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
    n, universe = X.n_times, X.atom_set
    for k, atoms in S.slices.items():
        in_grid = 0 <= k < n
        if not (in_grid and atoms <= universe):
            outside = atoms - universe if in_grid else atoms
            raise ValueError(f"cell ({next(iter(outside))!r}, {k}) is outside the space")
    sigma_for = X.sigma_at if kind == "optional" else X.lookback
    return all(is_measurable(atoms, sigma_for(k)) for k, atoms in S.slices.items())


def classify_time(tau: RandomTime, X: FilteredSpace) -> TimeClassification:
    """Split a stopping time into totally inaccessible and accessible parts
    and produce a predictable cover of the accessible graph.

    On a finite grid every stopping time is accessible: each level set is
    covered by lookback blocks, and the constant time on such a block is
    predictable.  The totally inaccessible part is therefore the empty
    restriction, which meets every predictable time with probability zero.
    """
    if not is_stopping_time(tau, X):
        raise ValueError("classify_time needs a stopping time")
    cover = []
    for k in range(X.n_times):
        hit = tau.level_eq(k)
        if not hit:
            continue
        for block in X.lookback(k).blocks:
            if block & hit:
                cover.append(restrict(constant_time(X.atoms, k), block))
    return TimeClassification(tuple(cover), restrict(tau, frozenset()), tau)
