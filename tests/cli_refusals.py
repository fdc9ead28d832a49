"""One row per refusal of the CLI: (id, argv, change, exit code, line).

``change`` is None for an argv that names its document, if any; otherwise
it maps ``tests/fixtures/fix_b.json``'s JSON tree to the document that is
written to a file and passed as the last argument, as a tree or as its
JSON text.  ``line`` is the one stderr line that names the refusal; a
refusal by the argument parser (a line ``finsection...: error: ...``)
comes after argparse's usage lines.  ``golden_replay.py`` replays the
rows.  The expected argparse lines are computed under the running
interpreter, so the module imports nothing outside the standard library.
"""

import argparse
import json
from pathlib import Path

FIX_B = str(Path(__file__).resolve().parent / "fixtures" / "fix_b.json")


def fix_b_with(**fields):
    return lambda d: {**d, **fields}


def fix_b_scheme_a_with(**fields):
    return lambda d: {**d, "schemes": {**d["schemes"], "A": {**d["schemes"]["A"], **fields}}}


def fix_b_tau_w1(value):
    return lambda d: {**d, "times": {**d["times"], "tau": {**d["times"]["tau"], "w1": value}}}


def fix_b_first_weight(value):
    return lambda d: {**d, "space": {**d["space"], "probs": [value] + d["space"]["probs"][1:]}}


def bare_number(change, text):
    """A change that writes ``text`` unquoted where ``change`` puts a marker;
    it returns the document's JSON text, since json.dumps writes no 1e999."""
    return lambda d: json.dumps(change("<number>")(d)).replace('"<number>"', text)


def _argparse_quotes_choices():
    probe = argparse.ArgumentParser(exit_on_error=False)
    probe.add_argument("x", choices=["a"])
    try:
        probe.parse_args(["b"])
    except argparse.ArgumentError as exc:
        return "'a'" in str(exc)


# argparse quotes each choice of its invalid-choice line in some patch
# releases (3.11.7, 3.13.0) and writes it bare in others (3.13.13)
SHOW_CHOICE = repr if _argparse_quotes_choices() else str


def invalid_choice(prog, argument, value, *choices):
    return f"{prog}: error: argument {argument}: invalid choice: {value!r} (choose from {', '.join(map(SHOW_CHOICE, choices))})"


# JSON's non-standard constants, and numbers past the float range
NOT_FINITE = ("NaN", "Infinity", "-Infinity", "1e999", "-1e999")
# json cannot print an int of more than the interpreter's 4300 digits; theta(K, 1) has about twice K's digits
LONG_K = "9" * 2200
# int() also reads these as 1, 2, 1000 and 3
NOT_ASCII_INTEGERS = (("arabic-indic-digit", "\u0661"), ("spaces", " 2 "), ("underscore", "1_000"), ("plus", "+3"))
SECTION_P = ["section", "--kind", "predictable", "--set", "P"]
EVAL_A = ["souslin", "eval", "--scheme", "A"]

ROWS = [
    ("theta-text", ["theta", "x", "1"], None, 2, "finsection theta: error: argument k: 'x' is not an integer"),
    ("theta-zero", ["theta", "0", "1"], None, 2, "finsection theta: error: argument k: value must be >= 1"),
    ("theta-negative", ["theta", "-1", "1"], None, 2, "finsection theta: error: argument k: value must be >= 1"),
    # only ASCII digits
    *[(f"theta-{name}", ["theta", text, "1"], None, 2, f"finsection theta: error: argument k: {text!r} is not an integer")
      for name, text in NOT_ASCII_INTEGERS],
    # --seed takes the same integers, of any sign
    *[(f"seed-{name}", ["--seed", text, "theta", "1", "1"], None, 2, f"finsection: error: argument --seed: {text!r} is not an integer")
      for name, text in NOT_ASCII_INTEGERS],
    # an argument past the digit limit is an integer all the same; a long one is quoted cut
    ("theta-k-past-digit-limit", ["theta", "9" * 5000, "1"], None, 2,
     "finsection theta: error: argument k: '99999999999999999999...' has more than 4300 digits"),
    ("theta-k-long-text", ["theta", "x" * 36, "1"], None, 2, "finsection theta: error: argument k: 'xxxxxxxxxxxxxxxxxxx... is not an integer"),
    ("theta-extra", ["theta", "1", "2", "x"], None, 2, "finsection: error: unrecognized arguments: x"),
    # each choice list, in the order the parser offers it
    ("unknown-kind", ["section", "--kind", "x", "--set", "P", FIX_B], None, 2,
     invalid_choice("finsection section", "--kind", "x", "predictable", "optional", "measurable", "accessible")),
    ("unknown-strategy", ["section", "--kind", "optional", "--set", "O", "--strategy", "x", FIX_B], None, 2,
     invalid_choice("finsection section", "--strategy", "x", "debut", "souslin")),
    ("unknown-operation", ["souslin", "x", "--scheme", "A", FIX_B], None, 2,
     invalid_choice("finsection souslin", "operation", "x", "eval", "union", "intersect", "monotonize")),
    ("unknown-format", ["--format", "x", "validate", FIX_B], None, 2, invalid_choice("finsection", "--format", "x", "json", "pretty")),
    ("not-an-object", ["validate"], lambda d: [d], 2, "parse error: document must be a JSON object"),
    ("no-grid", ["validate"], lambda d: {k: v for k, v in d.items() if k != "grid"}, 2, "parse error: document is missing 'grid'"),
    ("grid-text", ["validate"], fix_b_with(grid="0"), 2, "parse error: document.grid has the wrong type"),
    ("sets-array", ["validate"], fix_b_with(sets=[]), 2, "parse error: document.sets must be an object"),
    ("set-text", ["validate"], fix_b_with(sets={"P": "x"}), 2, "parse error: sets.P must be an array of [atom, index] pairs"),
    ("atoms-ints", ["validate"], lambda d: {**d, "space": {**d["space"], "atoms": [1, 2, 3, 4]}}, 2,
     "parse error: space.atoms must be strings"),
    ("filtration-atom-ints", ["validate"], lambda d: {**d, "filtration": [[[1, 2]]] + d["filtration"][1:]}, 2,
     "parse error: filtration[0] must be an array of atom arrays"),
    ("time-int", ["validate"], fix_b_with(times={"tau": 3}), 2, "parse error: times.tau must be an object"),
    ("unknown-field", ["validate"], fix_b_with(extra=1), 2, "parse error: unknown document field 'extra'"),
    *[(f"{where}-{text}", ["validate"], bare_number(change, text), 2, f"parse error: JSON number {text} is not finite")
      for text in NOT_FINITE
      for where, change in (("time", fix_b_tau_w1), ("weight", fix_b_first_weight))],
    ("time-long-number", ["validate"], bare_number(fix_b_tau_w1, "1" + "0" * 400 + ".5"), 2,
     "parse error: JSON number 10000000000000000000... is not finite"),
    # a finite float is a number JSON can hold, so RandomTime refuses it
    ("time-float", SECTION_P, fix_b_tau_w1(3.0), 3, "invariant violation: times.tau: bad time value 3.0 for atom 'w1'"),
    ("time-long-text", SECTION_P, fix_b_tau_w1("x" * 100_000), 3,
     "invariant violation: times.tau: bad time value 'xxxxxxxxxxxxxxxxxxx... for atom 'w1'"),
    ("time-long-array", SECTION_P, fix_b_tau_w1(list(range(10_000))), 3,
     "invariant violation: times.tau: bad time value [0, 1, 2, 3, 4, 5, 6... for atom 'w1'"),
    ("bom", ["validate"], lambda d: "\ufeff" + json.dumps(d), 2,
     "parse error: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    # a non-rational text is quoted up to 20 characters, however long it is
    ("weight-long-text", SECTION_P, fix_b_first_weight("x" * 100_000), 3,
     "invariant violation: space: not a rational literal: 'xxxxxxxxxxxxxxxxxxx..."),
    # so is a zero-denominator literal, whose two sides each stay inside the digit limit
    ("weight-long-zero-denominator", SECTION_P, fix_b_first_weight("9" * 4300 + "/" + "0" * 4300), 3,
     "invariant violation: space: zero denominator in rational literal: '9999999999999999999..."),
    ("epsilon-long-text", [*SECTION_P, "--epsilon", "x" * 100_000], lambda d: d, 4,
     "precondition failure: not a rational literal: 'xxxxxxxxxxxxxxxxxxx..."),
    ("theta-too-long", ["theta", LONG_K, "1"], None, 4, "precondition failure: theta value has more than 4300 digits"),
    ("theta-too-long-pretty", ["--format", "pretty", "theta", LONG_K, "1"], None, 4, "precondition failure: theta value has more than 4300 digits"),
    ("time-short-an-atom", SECTION_P, fix_b_with(times={"tau": {"w1": 1, "w2": 1, "w3": "inf"}}), 3,
     "invariant violation: times.tau: time literal must assign every atom exactly once"),
    ("scheme-empty-ground", EVAL_A, fix_b_scheme_a_with(ground_set=[], paving=[[]], nodes={}), 3,
     "invariant violation: schemes.A: ground set must be nonempty"),
    ("scheme-empty-paving", EVAL_A, fix_b_scheme_a_with(paving=[], nodes={}), 3, "invariant violation: schemes.A: paving needs at least one member"),
    ("scheme-depth-0", EVAL_A, fix_b_scheme_a_with(depth=0), 3, "invariant violation: schemes.A: depth and branching bounds must be positive"),
    ("monotonize-two", ["souslin", "monotonize", "--scheme", "A", "--scheme", "B"], lambda d: d, 4,
     "precondition failure: souslin monotonize takes exactly one scheme"),
    ("eval-two", [*EVAL_A, "--scheme", "B"], lambda d: d, 4, "precondition failure: souslin eval takes exactly one scheme"),
    ("data-second-path", ["validate", FIX_B, FIX_B], None, 2, f"finsection: error: unrecognized arguments: {FIX_B} {FIX_B}"),
    ("data-trailing-option", [*SECTION_P, FIX_B, "-x"], None, 2, f"finsection: error: unrecognized arguments: {FIX_B} -x"),
    ("data-lone-option", [*EVAL_A, "-x"], None, 2, "finsection: error: unrecognized arguments: -x"),
]
