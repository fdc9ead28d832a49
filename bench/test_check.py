"""Self-test of the benchmark's output check.

Run from the repository root:  python3 -m pytest bench/test_check.py

A clean run of every command on tests/fixtures/fix_b.json must count zero
failed ops, and each corrupted report must count as one failed op.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]

import check  # noqa: E402
import run  # noqa: E402
from workloads import Op  # noqa: E402

from finsection import cli  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"

FIX_B_OPS = [
    ("validate",),
    ("section", "--kind", "predictable", "--set", "P", "--epsilon", "0/1"),
    ("section", "--kind", "predictable", "--set", "P", "--strategy", "debut"),
    ("section", "--kind", "optional", "--set", "O", "--epsilon", "1/8"),
    ("section", "--kind", "accessible", "--set", "O", "--epsilon", "0/1"),
    ("section", "--kind", "measurable", "--set", "R"),
    ("classify-time", "--time", "tau"),
    ("souslin", "eval", "--scheme", "A"),
    ("souslin", "eval", "--scheme", "B"),
    ("souslin", "union", "--scheme", "A", "--scheme", "B"),
    ("souslin", "intersect", "--scheme", "A", "--scheme", "B"),
    ("souslin", "monotonize", "--scheme", "A"),
]


def _run(argv):
    op = Op(0, argv, "fix_b")
    code, out, _ = run.call(cli, list(argv) + [str(FIXTURES / "fix_b.json")])
    return op, code, out


def _failed(op, code, out):
    verifier = run.Verifier(check, FIXTURES)
    verifier.record(op, code, out)
    verifier.settle()
    return len(verifier.failures)


def test_clean_run_on_fix_b_counts_zero():
    verifier = run.Verifier(check, FIXTURES)
    ops = [Op(op_id, argv, "fix_b") for op_id, argv in enumerate(FIX_B_OPS)]
    for op in ops:
        code, out, _ = run.call(cli, list(op.argv) + [str(FIXTURES / "fix_b.json")])
        verifier.record(op, code, out)
    verifier.settle()
    assert verifier.attempted == len(ops)
    assert verifier.failures == []


@pytest.mark.parametrize("argv", [FIX_B_OPS[3], FIX_B_OPS[5]])
def test_deficit_off_by_one_over_n_fails(argv):
    op, code, out = _run(argv)
    report = json.loads(out)
    wrong = Fraction(report["deficit"]) + Fraction(1, 4)
    report["deficit"] = f"{wrong.numerator}/{wrong.denominator}"
    assert _failed(op, code, json.dumps(report) + "\n") == 1


def test_time_cell_outside_the_set_fails():
    op, code, out = _run(FIX_B_OPS[1])
    report = json.loads(out)
    assert report["time"]["w3"] == "inf"
    report["time"]["w3"] = 2  # (w3, 2) is not a cell of P
    assert _failed(op, code, json.dumps(report) + "\n") == 1


@pytest.mark.parametrize("argv", [FIX_B_OPS[7], FIX_B_OPS[9], FIX_B_OPS[10]])
def test_missing_eval_element_fails(argv):
    op, code, out = _run(argv)
    report = json.loads(out)
    assert report["eval"]
    report["eval"] = report["eval"][1:]
    assert _failed(op, code, json.dumps(report) + "\n") == 1


@pytest.mark.parametrize("argv", [FIX_B_OPS[0], FIX_B_OPS[4], FIX_B_OPS[6], FIX_B_OPS[11]])
def test_wrong_exit_code_fails(argv):
    op, code, out = _run(argv)
    assert code == 0
    assert _failed(op, 4, out) == 1
    assert _failed(op, None, "") == 1


def test_non_monotone_monotonize_result_fails():
    op, code, out = _run(FIX_B_OPS[11])
    report = json.loads(out)
    nodes = report["result_scheme"]["nodes"]
    nodes["1.1"] = ["a", "b", "c"]  # a child above its parent
    report["monotone"] = [False, True]
    assert _failed(op, code, json.dumps(report) + "\n") == 1


def test_predictable_kind_needs_a_predictable_time():
    view = check.DocumentView(json.loads((FIXTURES / "fix_b.json").read_text()))
    # {tau <= 1} = {w1} is not a union of the step-0 blocks
    assert not check._is_predictable({"w1": 1}, view)
    assert check._is_stopping({"w1": 2}, view)
