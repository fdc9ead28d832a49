"""Independent check of one CLI report against the document it was run on.

The checks work on the raw JSON document with plain frozensets and
``Fraction``s and never call ``finsection``; Souslin evaluation goes through
the brute-force ``oracle_eval`` in ``tests/gen.py``.  A check returns
``None`` when the report is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product

from gen import oracle_eval

ZERO = "0/1"


def _fmt(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


class PlainScheme:
    """A scheme literal as a ground list, index-tuple -> frozenset nodes, and bounds."""

    def __init__(self, literal):
        self.ground = [str(e) for e in literal["ground_set"]]
        self.depth = literal["depth"]
        self.branching = literal["branching"]
        self.nodes = {
            tuple(int(p) for p in key.split(".")): frozenset(str(e) for e in value)
            for key, value in literal["nodes"].items()
        }

    def evaluate(self) -> frozenset:
        return oracle_eval(self.ground, self.nodes, self.depth, self.branching)

    def monotone(self) -> tuple[bool, bool]:
        """(vertical, horizontal) monotonicity over the in-bounds indices,
        absent nodes reading as the full ground set."""
        full = frozenset(self.ground)
        b = self.branching

        def at(index):
            return self.nodes.get(index, full)

        def indices(length):
            return product(range(1, b + 1), repeat=length)

        vertical = all(
            at(index + (j,)) <= at(index)
            for length in range(1, self.depth)
            for index in indices(length)
            for j in range(1, b + 1)
        )
        horizontal = all(
            at(index) <= at(index[:pos] + (index[pos] + 1,) + index[pos + 1 :])
            for length in range(1, self.depth + 1)
            for index in indices(length)
            for pos in range(length)
            if index[pos] < b
        )
        return vertical, horizontal


class DocumentView:
    """The parts of a fixture document the checks read, as plain data."""

    def __init__(self, doc: dict):
        self.atoms = list(doc["space"]["atoms"])
        self.weight = {a: Fraction(p) for a, p in zip(self.atoms, doc["space"]["probs"])}
        self.n_times = len(doc["grid"])
        self.parts = [[frozenset(block) for block in part] for part in doc["filtration"]]
        self.sets = {name: frozenset((a, k) for a, k in cells) for name, cells in doc.get("sets", {}).items()}
        self.times = doc.get("times", {})
        self.schemes = {name: PlainScheme(lit) for name, lit in doc.get("schemes", {}).items()}
        self._evals = {}

    def prob(self, atoms) -> Fraction:
        return sum((self.weight[a] for a in set(atoms)), Fraction(0))

    def evaluate(self, name) -> frozenset:
        if name not in self._evals:
            self._evals[name] = self.schemes[name].evaluate()
        return self._evals[name]


def _measurable(subset, partition) -> bool:
    return all(block <= subset or not block & subset for block in partition)


def _level_le(finite: dict, k: int) -> frozenset:
    return frozenset(a for a, v in finite.items() if v <= k)


def _is_stopping(finite, view) -> bool:
    return all(_measurable(_level_le(finite, k), view.parts[k]) for k in range(view.n_times))


def _is_predictable(finite, view) -> bool:
    at_zero = frozenset(a for a, v in finite.items() if v == 0)
    if not _measurable(at_zero, view.parts[0]):
        return False
    return all(_measurable(_level_le(finite, k), view.parts[k - 1]) for k in range(1, view.n_times))


def _finite_part(literal: dict, view):
    """Finite values of a time literal, or a reason it is malformed."""
    if set(literal) != set(view.atoms):
        return None, "time is not total on the atoms"
    finite = {}
    for atom, v in literal.items():
        if v == "inf":
            continue
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < view.n_times:
            return None, f"time value {v!r} at {atom} is not a grid index"
        finite[atom] = v
    return finite, None


def _check_section(opts, report, view):
    kind = opts["kind"][0]
    target = view.sets[opts["set"][0]]
    eps = Fraction(opts.get("epsilon", [ZERO])[0])
    strategy = opts.get("strategy", ["souslin"])[0]
    expected_strategy = "debut-oracle" if kind == "measurable" or strategy == "debut" else "souslin"
    if report["kind"] != kind or report["epsilon"] != _fmt(eps):
        return "report does not echo kind and epsilon"
    if report["strategy"] != expected_strategy:
        return f"strategy {report['strategy']!r}, expected {expected_strategy!r}"
    finite, why = _finite_part(report["time"], view)
    if why:
        return why
    if not {(a, v) for a, v in finite.items()} <= target:
        return "graph of the section time leaves the target set"
    if kind == "predictable" and not _is_predictable(finite, view):
        return "section time is not predictable"
    if kind in ("optional", "accessible") and not _is_stopping(finite, view):
        return "section time is not a stopping time"
    deficit = view.prob({a for a, _ in target}) - view.prob(finite)
    if report["deficit"] != _fmt(deficit):
        return f"deficit {report['deficit']}, expected {_fmt(deficit)}"
    if deficit > eps:
        return f"deficit {_fmt(deficit)} exceeds epsilon {_fmt(eps)}"
    if report["oracle_deficit"] != ZERO:
        return f"oracle deficit {report['oracle_deficit']}, expected {ZERO}"
    trace = report["trace"]
    if len(trace["m_star"]) != len(trace["envelope_measures"]):
        return "trace prefix and envelope measures differ in length"
    if expected_strategy == "debut-oracle" and trace["m_star"]:
        return "debut strategy reports a scheme prefix"
    if any(not isinstance(m, int) or m < 1 for m in trace["m_star"]):
        return "trace prefix entries must be positive integers"
    return None


def _check_classify(opts, report, view):
    literal = view.times[opts["time"][0]]
    if report["time"] != literal or report["acc_part"] != literal:
        return "time or accessible part differs from the document's time"
    if any(v != "inf" for v in report["ti_part"].values()) or report["ti_finite_mass"] != ZERO:
        return "totally inaccessible part is not empty"
    graph = {f"{a}@{v}" for a, v in literal.items() if v != "inf"}
    if not graph <= set(report["covered"]):
        return "covered cells miss part of the graph"
    return None


def _check_souslin(positional, opts, report, view):
    op = positional[0]
    names = opts["scheme"]
    evals = [view.evaluate(name) for name in names]
    if op == "union":
        expected = frozenset().union(*evals)
    elif op == "intersect":
        expected = frozenset.intersection(*evals)
    else:
        expected = evals[0]
    got = report["eval"]
    if len(got) != len(set(got)) or set(got) != expected:
        return f"eval {sorted(got)} differs from the oracle's {sorted(expected)}"
    if op == "eval":
        result = view.schemes[names[0]]
    else:
        result = PlainScheme(report["result_scheme"])
        if result.evaluate() != expected:
            return "result scheme does not evaluate to the expected set"
    monotone = result.monotone()
    if report["monotone"] != list(monotone):
        return f"monotone flags {report['monotone']}, expected {list(monotone)}"
    if op == "monotonize" and monotone != (True, True):
        return "monotonize result is not monotone"
    return None


def _check_validate(report, view, doc):
    summary = {
        "atoms": len(view.atoms),
        "times": view.n_times,
        "sets": sorted(doc.get("sets", {})),
        "named_times": sorted(doc.get("times", {})),
        "schemes": sorted(doc.get("schemes", {})),
    }
    if report.get("status") != "ok" or report.get("violations") != []:
        return "document reported invalid"
    if report.get("summary") != summary:
        return "summary differs from the generated document"
    return None


def split_argv(argv):
    """Positional words and repeated ``--flag value`` options of a CLI argv."""
    positional, opts = [], {}
    it = iter(argv)
    for word in it:
        if word.startswith("--"):
            opts.setdefault(word[2:], []).append(next(it))
        else:
            positional.append(word)
    return positional, opts


def check(argv, code, out, view: DocumentView, doc: dict):
    """Reason the CLI result is wrong, or None.  ``argv`` excludes the
    document path; ``code`` is the exit code (None if the call raised)."""
    if code is None:
        return "the call raised an exception"
    if code != 0:
        return f"exit code {code}, expected 0"
    if out.count("\n") != 1 or not out.endswith("\n"):
        return "report is not exactly one line"
    try:
        report = json.loads(out)
    except ValueError:
        return "report is not JSON"
    positional, opts = split_argv(argv)
    command = positional[0]
    try:
        if command == "section":
            return _check_section(opts, report, view)
        if command == "classify-time":
            return _check_classify(opts, report, view)
        if command == "souslin":
            return _check_souslin(positional[1:], opts, report, view)
        if command == "validate":
            return _check_validate(report, view, doc)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return f"malformed report: {exc!r}"
    return f"no check for command {command!r}"
