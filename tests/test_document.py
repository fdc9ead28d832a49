import json
from pathlib import Path

import pytest

from finsection import StochasticSet
from finsection.document import DocumentParseError, build_document

FIX_B = Path(__file__).parent / "fixtures" / "fix_b.json"


def fix_b_with(sets, **changes):
    doc = json.loads(FIX_B.read_text())
    doc["sets"] = sets
    doc.update(changes)
    return doc


# Violation lists recorded from build_document while sets were still
# stored as (atom, index) cells: one line per bad pair, in document order,
# with the unknown-atom line before the index line of the same pair.
RECORDED_VIOLATIONS = [
    (
        "unknown atom at several indices",
        fix_b_with({"S": [["zz", 0], ["w1", 0], ["zz", 1], ["zz", 2]]}),
        ["sets.S: unknown atom 'zz'"] * 3,
    ),
    (
        "index outside the grid",
        fix_b_with({"S": [["w1", 3], ["w2", 0], ["w3", -1]]}),
        ["sets.S: index 3 outside the grid", "sets.S: index -1 outside the grid"],
    ),
    (
        "both in one pair",
        fix_b_with({"S": [["zz", 5]]}),
        ["sets.S: unknown atom 'zz'", "sets.S: index 5 outside the grid"],
    ),
    (
        "repeated pairs across sets",
        fix_b_with({
            "S": [["w1", 0], ["zz", 1], ["w2", 7], ["zz", 7], ["zz", 1], ["w1", 0]],
            "T": [["w4", 2]],
            "U": [["q", 0], ["w1", 4]],
        }),
        [
            "sets.S: unknown atom 'zz'",
            "sets.S: index 7 outside the grid",
            "sets.S: unknown atom 'zz'",
            "sets.S: index 7 outside the grid",
            "sets.S: unknown atom 'zz'",
            "sets.U: unknown atom 'q'",
            "sets.U: index 4 outside the grid",
        ],
    ),
    (
        "invalid space skips the atom check",
        fix_b_with(
            {"S": [["zz", 0], ["w1", 9], ["zz", 9]]},
            space={"atoms": ["w1", "w2", "w3", "w4"], "probs": ["x", "1/4", "1/4", "1/4"]},
        ),
        [
            "space: not a rational literal: 'x'",
            "sets.S: index 9 outside the grid",
            "sets.S: index 9 outside the grid",
        ],
    ),
    (
        "invalid grid skips the index check",
        fix_b_with({"S": [["zz", 0], ["w1", 9], ["zz", 9]]}, grid=["1", "0", "2"]),
        [
            "grid: time labels must be strictly increasing",
            "sets.S: unknown atom 'zz'",
            "sets.S: unknown atom 'zz'",
        ],
    ),
]


@pytest.mark.parametrize(
    "doc, expected", [c[1:] for c in RECORDED_VIOLATIONS], ids=[c[0] for c in RECORDED_VIOLATIONS]
)
def test_set_literal_violations_match_recorded_lines(doc, expected):
    built, violations = build_document(doc)
    assert built is None
    assert violations == expected


@pytest.mark.parametrize("pair", [["w1", True], "w1", ["w1"], ["w1", 0, 1], [1, 0], ["w1", "0"], ["w1", 1.0]])
def test_malformed_pair_is_a_parse_error_even_after_violations(pair):
    doc = fix_b_with({"S": [["zz", 9], pair]})
    with pytest.raises(DocumentParseError, match=r"sets\.S must be an array of \[atom, index\] pairs"):
        build_document(doc)


def test_valid_set_literals_load_as_their_cells():
    doc = fix_b_with({"S": [["w2", 2], ["w1", 0], ["w2", 2], ["w3", 1], ["w1", 2]], "E": []})
    built, violations = build_document(doc)
    assert violations == []
    assert built.sets["S"] == StochasticSet({("w1", 0), ("w3", 1), ("w1", 2), ("w2", 2)})
    assert dict(built.sets["S"].slices).get(2, frozenset()) == {"w1", "w2"}
    assert built.sets["E"] == StochasticSet.empty()
