"""Fuzz the scheme-literal slice of the CLI's exit-code contract: `souslin
eval` on a literal whose fields are mutated exits 0, 2, 3 or 4 and never
raises.  Bounds stay small, so every run finishes at once."""

import contextlib
import io
import json
from itertools import product
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from finsection.cli import main

GROUND = ("a", "b", "c", "d")

# any JSON value, small
junk = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)
subsets = st.lists(st.sampled_from(GROUND), max_size=4)
key_text = st.text(alphabet="0123456789.-_+ ١\n", max_size=6)


@st.composite
def scheme_literals(draw):
    """A valid literal over a ground of 1-4 elements with depth and
    branching up to 3, then each field replaced or mutated with some
    probability: key strings, value shapes, paving members, ground
    elements, depth and branching."""
    ground = list(GROUND[: draw(st.integers(1, 4))])
    members = [[e for i, e in enumerate(ground) if bits >> i & 1] for bits in range(1 << len(ground))]
    depth = draw(st.integers(1, 3))
    branching = draw(st.integers(1, 3))
    indices = [i for n in range(1, depth + 1) for i in product(range(1, branching + 1), repeat=n)]
    chosen = draw(st.lists(st.sampled_from(indices), max_size=6, unique=True))
    nodes = {".".join(map(str, i)): draw(st.sampled_from(members)) for i in chosen}
    literal = {"ground_set": ground, "paving": members, "depth": depth, "branching": branching, "nodes": nodes}

    mutate = draw(st.sets(st.sampled_from(["key", "value", "member", "ground", "depth", "branching", "field"])))
    if "key" in mutate:
        nodes[draw(key_text)] = draw(subsets)
    if "value" in mutate:
        nodes[draw(st.sampled_from(sorted(nodes) or ["1"]))] = draw(junk | subsets)
    if "member" in mutate:
        members.append(draw(junk | subsets))
    if "ground" in mutate:
        ground.append(draw(junk))
    for bound in ("depth", "branching"):
        if bound in mutate:
            literal[bound] = draw(st.integers(-1, 3) | junk)
    if "field" in mutate:
        field = draw(st.sampled_from(sorted(literal)))
        if draw(st.booleans()):
            del literal[field]
        else:
            literal[field] = draw(junk)
    return literal if draw(st.integers(0, 20)) else draw(junk)


def eval_document(literal):
    doc = {
        "space": {"atoms": ["w1"], "probs": ["1/1"]},
        "grid": ["0/1"],
        "filtration": [[["w1"]]],
        "schemes": {"S": literal},
    }
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.TextIOWrapper(io.BytesIO(json.dumps(doc).encode()), encoding="utf-8")):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["souslin", "eval", "--scheme", "S"])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(scheme_literals())
def test_souslin_eval_on_a_mutated_literal_exits_with_a_documented_code(literal):
    code, out, err = eval_document(literal)
    assert code in (0, 2, 3, 4)
    assert (out != "") == (code == 0)
    if code == 3:
        assert err.startswith("invariant violation: schemes.S: ")


def test_unmutated_literal_evaluates():
    literal = {"ground_set": ["a", "b"], "paving": [["a"], ["a", "b"]], "depth": 2, "branching": 2, "nodes": {"1.2": ["a"]}}
    code, out, _ = eval_document(literal)
    assert code == 0
    assert json.loads(out)["eval"] == ["a", "b"]
