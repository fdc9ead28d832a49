"""Two properties of the CLI's reports on valid documents.

Round trip: every ``result_scheme`` that ``souslin union``, ``intersect``
and ``monotonize`` print, placed in a document, passes ``validate`` and
evaluates under ``souslin eval`` to the ``eval`` and ``monotone`` of the
report that printed it.

Metamorphic: the order in which a document lists filtration blocks, the
atoms of a block, set cells, scheme node keys, paving members and object
keys does not change any command's exit code, stdout or stderr.  The one
exception is ``result_scheme.paving``, which echoes the input's member
order, so it is compared as a set.

The inputs are ``tests/fixtures/fix_b.json`` and the seed-1 documents of
``bench/workloads.py``, imported read-only through ``golden_replay``.
"""

import json
import random
from itertools import count, islice
from pathlib import Path

import pytest

from finsection.cli import main
from golden_replay import FIXTURES, call, workloads

FIX_B = FIXTURES / "fix_b.json"
SEED = 1

FIX_B_ARGVS = [
    ("validate",),
    *(
        ("section", "--kind", kind, "--set", name, "--epsilon", eps, "--strategy", strategy)
        for kind, name in (("predictable", "P"), ("optional", "O"), ("accessible", "O"), ("optional", "R"))
        for eps in ("0/1", "1/4")
        for strategy in ("souslin", "debut")
    ),
    ("section", "--kind", "measurable", "--set", "R"),
    ("classify-time", "--time", "tau"),
    ("classify-time", "--time", "sigma"),
    ("souslin", "eval", "--scheme", "A"),
    ("souslin", "eval", "--scheme", "B"),
    ("souslin", "union", "--scheme", "A", "--scheme", "B"),
    ("souslin", "intersect", "--scheme", "A", "--scheme", "B"),
    ("souslin", "monotonize", "--scheme", "A"),
    ("souslin", "monotonize", "--scheme", "B"),
]
SCHEME_OPS = ("union", "intersect", "monotonize")
_FILE_NUMBERS = count()


def write(doc: dict, tmp_path: Path) -> Path:
    """``doc`` in a new file under ``tmp_path``."""
    path = tmp_path / f"doc{next(_FILE_NUMBERS)}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def run(argv, path: Path) -> tuple:
    """(exit code, stdout, stderr) of one in-process CLI call on ``path``."""
    return call(main, [*argv, str(path)])


def fix_b_cases():
    """(name, document, argvs) for fix_b and all its commands."""
    return [("fix_b", json.loads(FIX_B.read_text(encoding="utf-8")), FIX_B_ARGVS)]


def workload_cases(name: str, pick) -> list:
    """(name, document, argvs) for the seed-1 documents of workload ``name``
    that ``pick`` chooses from its (document name, document) stream, each
    with the workload's ops on it."""
    workload = workloads.WORKLOADS[name](SEED)
    argvs: dict = {}
    for op in workload.ops:
        argvs.setdefault(op.doc, []).append(op.argv)
    return [(doc_name, doc, argvs[doc_name]) for doc_name, doc in pick(workload.documents())]


def first_of_each_kind(documents):
    """The first scheme-algebra document of each op kind and saturation."""
    seen = set()
    for doc_name, doc in documents:
        kind = tuple(doc_name.split("-")[:2])
        if kind not in seen:
            seen.add(kind)
            yield doc_name, doc


# -------------------------------------------------------------- round trip

def scheme_op_cases():
    """Every fix_b and seed-1 scheme-algebra (document, argv) whose op prints
    a result scheme."""
    cases = fix_b_cases() + workload_cases("scheme-algebra", lambda docs: docs)
    return [
        (doc_name, doc, argv)
        for doc_name, doc, argvs in cases
        for argv in argvs
        if argv[0] == "souslin" and argv[1] in SCHEME_OPS
    ]


def test_every_printed_result_scheme_validates_and_evaluates_to_its_report(tmp_path):
    cases = scheme_op_cases()
    assert len(cases) == 4 + 72  # fix_b's four, and the workload's 72
    paths: dict = {}
    for doc_name, doc, argv in cases:
        if doc_name not in paths:
            paths[doc_name] = write(doc, tmp_path)
        code, out, err = run(argv, paths[doc_name])
        assert (code, err) == (0, ""), (doc_name, argv)
        report = json.loads(out)
        placed = write({**doc, "schemes": {**doc["schemes"], "R": report["result_scheme"]}}, tmp_path)
        code, out, err = run(("validate",), placed)
        assert (code, json.loads(out)["status"], err) == (0, "ok", ""), (doc_name, argv, out)
        code, out, err = run(("souslin", "eval", "--scheme", "R"), placed)
        assert (code, err) == (0, ""), (doc_name, argv)
        again = json.loads(out)
        assert (again["eval"], again["monotone"]) == (report["eval"], report["monotone"]), (doc_name, argv)


# ------------------------------------------------------------- metamorphic

def _filtration_blocks(doc, rng):
    for partition in doc["filtration"]:
        rng.shuffle(partition)


def _block_atoms(doc, rng):
    for partition in doc["filtration"]:
        for block in partition:
            rng.shuffle(block)


def _set_cells(doc, rng):
    for cells in doc.get("sets", {}).values():
        rng.shuffle(cells)


def _reordered(obj: dict, rng) -> dict:
    keys = list(obj)
    rng.shuffle(keys)
    return {key: obj[key] for key in keys}


def _node_keys(doc, rng):
    for scheme in doc.get("schemes", {}).values():
        scheme["nodes"] = _reordered(scheme["nodes"], rng)


def _paving_members(doc, rng):
    for scheme in doc.get("schemes", {}).values():
        rng.shuffle(scheme["paving"])


def _object_keys(obj, rng):
    """Every object of the document, its keys in a random order."""
    if isinstance(obj, dict):
        return _reordered({key: _object_keys(value, rng) for key, value in obj.items()}, rng)
    if isinstance(obj, list):
        return [_object_keys(item, rng) for item in obj]
    return obj


SHUFFLES = {
    "filtration-blocks": _filtration_blocks,
    "block-atoms": _block_atoms,
    "set-cells": _set_cells,
    "node-keys": _node_keys,
    "paving-members": _paving_members,
}


def shuffled(doc: dict, kind: str, rng) -> dict:
    """A copy of ``doc`` with one kind of order shuffled, or every kind."""
    out = json.loads(json.dumps(doc))
    for name, shuffle in SHUFFLES.items():
        if kind in (name, "all"):
            shuffle(out, rng)
    return _object_keys(out, rng) if kind in ("object-keys", "all") else out


def paving_as_set(result: tuple) -> tuple:
    """The call's result, with a printed ``result_scheme.paving`` read as a
    set of members."""
    code, out, err = result
    if '"result_scheme"' in out:
        report = json.loads(out)
        report["result_scheme"]["paving"] = sorted(report["result_scheme"]["paving"])
        out = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    return code, out, err


METAMORPHIC_CASES = {
    "fix_b": fix_b_cases,
    "section-souslin": lambda: workload_cases("section-souslin", lambda docs: islice(docs, 2)),
    "debut-wide": lambda: workload_cases("debut-wide", lambda docs: islice(docs, 1)),
    "scheme-algebra": lambda: workload_cases("scheme-algebra", first_of_each_kind),
}


@pytest.mark.parametrize("source", sorted(METAMORPHIC_CASES))
def test_listing_order_leaves_every_report_unchanged(source, tmp_path):
    rng = random.Random(f"{source}:{SEED}")
    for doc_name, doc, argvs in METAMORPHIC_CASES[source]():
        path = write(doc, tmp_path)
        expected = [paving_as_set(run(argv, path)) for argv in argvs]
        for kind in [*SHUFFLES, "object-keys", "all"]:
            path = write(shuffled(doc, kind, rng), tmp_path)
            got = [paving_as_set(run(argv, path)) for argv in argvs]
            changed = [argv for argv, a, b in zip(argvs, expected, got) if a != b]
            assert not changed, f"{doc_name}, {kind} shuffled: {changed[:3]}"
