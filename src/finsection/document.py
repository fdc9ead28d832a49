"""Fixture documents: one self-describing JSON object holding a filtered
space plus named sets, times, and schemes.

Loading is two-phase: structural problems (wrong JSON shapes and types)
raise :class:`DocumentParseError`, while semantic invariant violations are
collected into a list so a validation run can report all of them at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .filtered import INF, FilteredSpace, RandomTime, StochasticSet, TimeGrid, _filtration_faults
from .measure import SampleSpace, SigmaAlgebra, parse_rational
from .souslin import SouslinScheme, scheme_from_literal

__all__ = [
    "DocumentParseError",
    "FixtureDocument",
    "parse_document",
    "build_document",
    "time_to_literal",
    "time_from_literal",
]


class DocumentParseError(Exception):
    """Structurally malformed fixture document."""


@dataclass
class FixtureDocument:
    X: FilteredSpace
    sets: dict
    times: dict
    schemes: dict


def parse_document(text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DocumentParseError("document must be a JSON object")
    return obj


def _require(obj, key, kind, where):
    if key not in obj:
        raise DocumentParseError(f"{where} is missing {key!r}")
    value = obj[key]
    if not isinstance(value, kind):
        raise DocumentParseError(f"{where}.{key} has the wrong type")
    return value


def _optional(obj, key, where):
    value = obj.get(key, {})
    if not isinstance(value, dict):
        raise DocumentParseError(f"{where}.{key} must be an object")
    return value


def time_from_literal(obj, atoms) -> RandomTime:
    if not isinstance(obj, dict):
        raise ValueError("time literal must be an object")
    values = {}
    for atom, v in obj.items():
        if v == "inf":
            values[atom] = INF
        elif isinstance(v, int) and not isinstance(v, bool):
            values[atom] = v
        else:
            raise ValueError(f"time value for {atom!r} must be a grid index or \"inf\"")
    if set(values) != set(atoms):
        raise ValueError("time literal must assign every atom exactly once")
    return RandomTime(values)


def time_to_literal(tau: RandomTime) -> dict:
    return {atom: ("inf" if v == INF else int(v)) for atom, v in tau.values.items()}


def _set_literal_slices(name, literal) -> dict:
    """Group a set literal's [atom, index] pairs by index; a malformed
    literal raises DocumentParseError."""
    shape = f"sets.{name} must be an array of [atom, index] pairs"
    if not isinstance(literal, list):
        raise DocumentParseError(shape)
    slices: dict[int, list] = {}
    for pair in literal:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise DocumentParseError(shape)
        atom, k = pair
        if not isinstance(atom, str) or not isinstance(k, int) or isinstance(k, bool):
            raise DocumentParseError(shape)
        row = slices.get(k)
        if row is None:
            slices[k] = [atom]
        else:
            row.append(atom)
    return slices


def build_document(obj: dict):
    """Construct a document from parsed JSON.

    Returns (document, violations).  The document is None whenever any
    invariant fails; structural problems raise DocumentParseError instead.
    """
    violations: list[str] = []

    space_obj = _require(obj, "space", dict, "document")
    atom_list = _require(space_obj, "atoms", list, "space")
    prob_list = _require(space_obj, "probs", list, "space")
    if not all(isinstance(a, str) for a in atom_list):
        raise DocumentParseError("space.atoms must be strings")
    space = None
    try:
        weights = [parse_rational(p) for p in prob_list]
        space = SampleSpace(tuple(atom_list), tuple(weights))
    except ValueError as exc:
        violations.append(f"space: {exc}")

    grid_list = _require(obj, "grid", list, "document")
    grid = None
    try:
        grid = TimeGrid(tuple(parse_rational(t) for t in grid_list))
    except ValueError as exc:
        violations.append(f"grid: {exc}")

    filt_list = _require(obj, "filtration", list, "document")
    sigmas = []
    for k, part in enumerate(filt_list):
        if not isinstance(part, list) or not all(isinstance(b, list) and all(isinstance(a, str) for a in b) for b in part):
            raise DocumentParseError(f"filtration[{k}] must be an array of atom arrays")
        try:
            sigmas.append(SigmaAlgebra(tuple(frozenset(b) for b in part)))
        except ValueError as exc:
            violations.append(f"filtration[{k}]: {exc}")
            sigmas.append(None)

    X = None
    if space is not None and grid is not None and all(s is not None for s in sigmas):
        if len(sigmas) != len(grid):
            violations.append("filtration: need exactly one partition per grid point")
        else:
            try:
                X = FilteredSpace(space, grid, tuple(sigmas))
            except ValueError:
                # the space stops at its first fault; list every one
                violations.extend(_filtration_faults(frozenset(space.atoms), sigmas))

    known_atoms = frozenset(space.atoms) if space is not None else None
    sets: dict[str, StochasticSet] = {}
    for name, literal in _optional(obj, "sets", "document").items():
        slices = _set_literal_slices(name, literal)
        if all(
            (known_atoms is None or known_atoms.issuperset(atoms)) and (grid is None or 0 <= k < len(grid))
            for k, atoms in slices.items()
        ):
            sets[name] = StochasticSet.from_slices(slices)
            continue
        # a slice failed: list every bad pair, in document order
        for atom, k in literal:
            if known_atoms is not None and atom not in known_atoms:
                violations.append(f"sets.{name}: unknown atom {atom!r}")
            if grid is not None and not 0 <= k < len(grid):
                violations.append(f"sets.{name}: index {k} outside the grid")

    times: dict[str, RandomTime] = {}
    for name, literal in _optional(obj, "times", "document").items():
        if not isinstance(literal, dict):
            raise DocumentParseError(f"times.{name} must be an object")
        try:
            tau = time_from_literal(literal, space.atoms if space is not None else literal.keys())
        except ValueError as exc:
            violations.append(f"times.{name}: {exc}")
            continue
        if grid is not None and any(v != INF and v >= len(grid) for v in tau.values.values()):
            violations.append(f"times.{name}: value outside the grid")
        else:
            times[name] = tau

    schemes: dict[str, SouslinScheme] = {}
    for name, literal in _optional(obj, "schemes", "document").items():
        try:
            schemes[name] = scheme_from_literal(literal)
        except ValueError as exc:
            violations.append(f"schemes.{name}: {exc}")

    known = {"space", "grid", "filtration", "sets", "times", "schemes"}
    for key in obj:
        if key not in known:
            raise DocumentParseError(f"unknown document field {key!r}")

    if violations or X is None:
        if X is None and not violations:
            violations.append("document: filtered space could not be assembled")
        return None, violations
    return FixtureDocument(X, sets, times, schemes), []
