"""Fuzz the CLI's exit-code contract on whole documents: tests/fixtures/
fix_b.json with one or two nodes of its JSON tree replaced or dropped, run
under one of the CLI's commands with one argument possibly changed.  Every
run returns 0, 2, 3 or 4, or exits through argparse with 2, and none raises."""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsection.cli import main
from golden_replay import call

FIX_B = json.loads((Path(__file__).parent / "fixtures" / "fix_b.json").read_text())

COMMANDS = [
    ["validate"],
    ["section", "--kind", "predictable", "--set", "P", "--epsilon", "0/1"],
    ["section", "--kind", "predictable", "--set", "P", "--strategy", "debut"],
    ["section", "--kind", "optional", "--set", "O", "--epsilon", "1/8"],
    ["section", "--kind", "accessible", "--set", "O"],
    ["section", "--kind", "measurable", "--set", "R"],
    ["classify-time", "--time", "tau"],
    ["souslin", "eval", "--scheme", "A"],
    ["souslin", "union", "--scheme", "A", "--scheme", "B"],
    ["souslin", "intersect", "--scheme", "A", "--scheme", "B"],
    ["souslin", "monotonize", "--scheme", "A"],
]

# any JSON value; an integer can be a scheme depth or branching up to 2^31
junk = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2**31) | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)
tokens = st.sampled_from(["P", "O", "R", "tau", "A", "B", "x", "1/0", "-1/2", "--kind", "--set", "--scheme", "-"]) | st.text(max_size=3)


def paths(tree, prefix=()):
    """Every path from the root to a node of a JSON tree, the root excluded."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree) if isinstance(tree, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


@st.composite
def documents(draw):
    doc = copy.deepcopy(FIX_B)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(junk)
        else:
            del parent[path[-1]]
    return doc


@st.composite
def argvs(draw):
    argv = list(draw(st.sampled_from(COMMANDS)))
    if draw(st.booleans()):
        argv[draw(st.integers(0, len(argv) - 1))] = draw(tokens)
    return argv


def run(argv, doc):
    return call(main, argv, stdin=json.dumps(doc).encode())


@settings(max_examples=200, deadline=None)
@given(argvs(), documents())
def test_cli_on_a_mutated_document_exits_with_a_documented_code(argv, doc):
    code, out, err = run(argv, doc)
    # argparse writes its usage first, and exits 2 on a bad argv
    assert code == 2 or not (out + err).startswith("usage: ")
    assert code in (0, 2, 3, 4)
    assert (out != "") == (code == 0 or argv[0] == "validate" and code == 3)


@pytest.mark.parametrize(
    "blocks",
    [
        pytest.param([[["w1", "w2", "w3", "w4"]]], id="atom-array"),  # frozenset() of a list
        pytest.param([["w1", "w2"], ["w3", None]], id="atom-null"),  # min() over str and None
        pytest.param([["w1", "w2"], ["w3", 4]], id="atom-int"),
    ],
)
def test_a_filtration_atom_that_is_not_a_string_is_a_parse_error(blocks):
    doc = copy.deepcopy(FIX_B)
    doc["filtration"][1] = blocks
    code, out, err = run(["validate"], doc)
    assert (code, out) == (2, "")
    assert err == "parse error: filtration[1] must be an array of atom arrays\n"
