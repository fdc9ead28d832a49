"""Fixture documents: one self-describing JSON object holding a filtered
space plus named sets, times, and schemes.

Loading is two-phase: structural problems (wrong JSON shapes and types)
raise :class:`DocumentParseError`, while semantic invariant violations are
collected into a list so a validation run can report all of them at once.

Each filtration step is derived from the one before: a block written as
the same atom array as one of the previous step's blocks is that step's
frozenset, and only the other blocks are built and checked, against the
blocks they replace.  So the refinement check and the new frozensets cost
what changes between steps; the atom -> block table is still copied once
per step, O(atoms) each.  When the check fails, the step is built and
checked on its own, so the violation lines are those of the full check.
A step written as the same literal as the step before, where that step
loaded without a fault, is that step's partition object: one list
comparison, and nothing built or checked again, as ``_split`` with no new
block returns the partition it splits.  ``FilteredSpace`` then accepts a
repeated or split step against the one before at once, since it is the
same object or records it as its parent (``measure.refines``), after one
by-value comparison of its universe with the atom set.

Weights and set literals are checked in bulk: a builtin pass over a
column, or over its distinct types, accepts it, and each distinct weight
text is parsed once; a per-item loop names the first bad item.  Time
values are checked once, by ``RandomTime``; a JSON number that does not
read as a finite float (``NaN``, ``Infinity``, ``1e999``) is a parse error.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import groupby, repeat
from operator import itemgetter

from .filtered import INF, FilteredSpace, RandomTime, StochasticSet, TimeGrid, _filtration_faults
from .measure import SampleSpace, SigmaAlgebra, _cut, _Record, parse_rational
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


class FixtureDocument(_Record):
    """A loaded document.  Unlike the other records it can be assigned to,
    and so it is unhashable."""

    _fields = ("X", "sets", "times", "schemes")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None


def _finite_float(text: str) -> float:  # json's hook for NaN, Infinity and non-integers; 1e999 would load as INF
    if not math.isfinite(value := float(text)):
        raise DocumentParseError(f"JSON number {_cut(text)} is not finite")
    return value


# one decoder for every document: json.loads with hooks builds a new one per call
_DECODER = json.JSONDecoder(parse_constant=_finite_float, parse_float=_finite_float)


def parse_document(text: str) -> dict:
    try:
        if text.startswith("\ufeff"):  # json.loads's own check, which decode skips
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        obj = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise DocumentParseError(f"invalid JSON: {exc}") from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise DocumentParseError(f"JSON integer of more than {sys.get_int_max_str_digits()} digits") from exc
    except RecursionError as exc:
        raise DocumentParseError("JSON nested too deeply") from exc
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
    tau = RandomTime({atom: INF if v == "inf" else v for atom, v in obj.items()})  # RandomTime checks each value
    if tau.values.keys() != set(atoms):
        raise ValueError("time literal must assign every atom exactly once")
    return tau


def time_to_literal(tau: RandomTime) -> dict:
    return {atom: ("inf" if v == INF else int(v)) for atom, v in tau.values.items()}


def _set_literal_slices(name, literal) -> dict:
    """Group a set literal's [atom, index] pairs by index; a malformed
    literal raises DocumentParseError.  The pairs are split into an atom
    column and an index column, each type-checked in one pass, and the
    atoms are grouped a run of equal indices at a time."""
    shape = f"sets.{name} must be an array of [atom, index] pairs"
    if not (isinstance(literal, list) and all(map(isinstance, literal, repeat(list)))):
        raise DocumentParseError(shape)
    try:
        atoms = [atom for atom, _ in literal]
        ks = [k for _, k in literal]
    except ValueError:  # a pair of the wrong length
        raise DocumentParseError(shape) from None
    index_types = set(map(type, ks))  # isinstance over the distinct types of the index column
    int_indices = all(issubclass(t, int) and not issubclass(t, bool) for t in index_types)
    if not (all(map(isinstance, atoms, repeat(str))) and int_indices):
        raise DocumentParseError(shape)
    slices: dict[int, list] = {}
    end = 0
    for k, run in groupby(ks):
        start, end = end, end + len(list(run))
        slices.setdefault(k, []).extend(atoms[start:end])
    return slices


def _partition_literal(k, part, previous) -> list:
    """Type-check filtration[k] and read its blocks.  ``previous`` maps the
    first atom of each block of the step before to that block's atom array
    and frozenset; an array equal to one of those arrays is that frozenset.
    Only the other blocks' atoms are type-checked and hashed: an equal array
    holds the same strings, already checked."""
    shape = f"filtration[{k}] must be an array of atom arrays"
    if not (isinstance(part, list) and all(map(isinstance, part, repeat(list)))):
        raise DocumentParseError(shape)
    blocks = []
    for b in part:
        old = previous.get(b[0]) if b and isinstance(b[0], str) else None
        if old is not None and old[0] == b:
            blocks.append(old[1])
        elif all(map(isinstance, b, repeat(str))):
            blocks.append(frozenset(b))
        else:
            raise DocumentParseError(shape)
    return blocks


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
        if all(map(isinstance, prob_list, repeat(str))):
            # in order of first use, so the first bad text is the one named
            parsed = {p: parse_rational(p) for p in dict.fromkeys(prob_list)}
            weights = list(map(parsed.__getitem__, prob_list))
        else:  # raises, naming the first bad weight
            weights = [parse_rational(p) for p in prob_list]
        space = SampleSpace(tuple(atom_list), tuple(weights))
    except ValueError as exc:
        violations.append(f"space: {exc}")

    grid_list = _require(obj, "grid", list, "document")
    grid, n_times = None, None
    try:
        grid = TimeGrid(tuple(parse_rational(t) for t in grid_list))
        n_times = len(grid)
    except ValueError as exc:
        violations.append(f"grid: {exc}")

    filt_list = _require(obj, "filtration", list, "document")
    sigmas = []
    previous: dict = {}  # the last step's blocks: first atom -> (atom array, block)
    for k, part in enumerate(filt_list):
        if k and sigmas[-1] is not None and part == filt_list[k - 1]:
            sigmas.append(sigmas[-1])  # the step before, written again
            continue
        blocks = _partition_literal(k, part, previous)
        sigma = sigmas[-1]._split(blocks) if sigmas and sigmas[-1] is not None else None
        if sigma is None:  # not a split of the step before: build and check it alone
            try:
                sigma = SigmaAlgebra(tuple(blocks))
            except ValueError as exc:
                violations.append(f"filtration[{k}]: {exc}")
        sigmas.append(sigma)
        # a valid step has nonempty, disjoint blocks: one first atom each
        previous = dict(zip(map(itemgetter(0), part), zip(part, blocks))) if sigma is not None else {}

    X = None
    if space is not None and grid is not None and all(s is not None for s in sigmas):
        if len(sigmas) != n_times:
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
            (known_atoms is None or known_atoms.issuperset(atoms)) and (grid is None or 0 <= k < n_times)
            for k, atoms in slices.items()
        ):
            sets[name] = StochasticSet.from_slices(slices)
            continue
        # a slice failed: list every bad pair, in document order
        for atom, k in literal:
            if known_atoms is not None and atom not in known_atoms:
                violations.append(f"sets.{name}: unknown atom {atom!r}")
            if grid is not None and not 0 <= k < n_times:
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
        if grid is not None and max((v for v in tau.values.values() if v != INF), default=0) >= n_times:
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
