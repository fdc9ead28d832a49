import argparse
import errno
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from finsection import cli
from finsection.cli import main
from finsection.souslin import scheme_from_literal

FIXTURES = Path(__file__).parent / "fixtures"
FIX_A = str(FIXTURES / "fix_a.json")
FIX_B = str(FIXTURES / "fix_b.json")


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, _ = run_cli(capsys, argv)
    assert code == 0, out
    return json.loads(out)


def test_theta_prints_plain_value(capsys):
    code, out, _ = run_cli(capsys, ["theta", "1", "2"])
    assert code == 0
    assert out == "3\n"


@pytest.mark.parametrize("fmt", ["json", "pretty"])
def test_theta_prints_a_value_just_under_the_digit_limit(capsys, fmt):
    k = "9" * 2150
    code, out, _ = run_cli(capsys, ["--format", fmt, "theta", k, "1"])
    assert code == 0
    assert out == f"{(int(k) - 1) ** 2 + 1}\n"


def test_theta_via_module_execution():
    result = subprocess.run(
        [sys.executable, "-m", "finsection", "theta", "1", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "3\n"


# A report that cannot be written is an I/O failure (exit 2, one stderr
# line, no traceback), for a short report that sits in the stdout buffer
# until the flush and for one longer than the buffer.
SHORT_REPORT = ["validate", FIX_B]
LONG_REPORT = ["--format", "pretty", "souslin", "intersect", "--scheme", "C", "--scheme", "D", str(FIXTURES / "souslin_small.json")]


def run_module_into(stdout, argv):
    return subprocess.run([sys.executable, "-m", "finsection", *argv], stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [SHORT_REPORT, LONG_REPORT], ids=["short", "long"])
def test_a_report_written_to_a_full_disk_exits_2_with_one_line(argv):
    with open("/dev/full", "w") as full:
        result = run_module_into(full, argv)
    assert result.returncode == 2
    assert result.stderr == f"cannot write report: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("argv", [SHORT_REPORT, LONG_REPORT], ids=["short", "long"])
def test_a_report_written_to_a_closed_pipe_exits_2_with_one_line(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = run_module_into(write_end, argv)
    finally:
        os.close(write_end)
    assert result.returncode == 2
    assert result.stderr == f"cannot write report: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n"


def test_closed_stdout_is_a_write_failure(capsys, monkeypatch):
    # a process started with stdout closed (``>&-``) sees sys.stdout as None
    monkeypatch.setattr(sys, "stdout", None)
    assert run_cli(capsys, SHORT_REPORT) == (2, "", "cannot write report: stdout is closed\n")


def test_validate_ok(capsys):
    report = run_json(capsys, ["validate", FIX_B])
    assert report["status"] == "ok"
    assert report["violations"] == []
    assert report["summary"]["sets"] == ["O", "P", "R"]


def test_validate_reports_refinement_violation(capsys):
    code, out, _ = run_cli(capsys, ["validate", str(FIXTURES / "bad_refinement.json")])
    assert code == 3
    report = json.loads(out)
    assert report["status"] == "invalid"
    assert any("filtration[1]" in line for line in report["violations"])


def test_validate_lists_every_refinement_violation(capsys, tmp_path):
    doc = json.loads(Path(FIX_B).read_text())
    doc["filtration"] = [doc["filtration"][2], doc["filtration"][1], doc["filtration"][0]]
    code, out, _ = run_cli(capsys, ["validate", write_document(tmp_path, doc)])
    assert code == 3
    assert json.loads(out)["violations"] == [
        "filtration[1] does not refine filtration[0]",
        "filtration[2] does not refine filtration[1]",
    ]


def test_validate_collects_weight_and_bound_violations(capsys):
    code, out, _ = run_cli(capsys, ["validate", str(FIXTURES / "bad_weights.json")])
    assert code == 3
    report = json.loads(out)
    assert any(line.startswith("space:") for line in report["violations"])
    assert any("outside the grid" in line for line in report["violations"])


def test_main_called_again_after_an_argv_error_gives_a_lone_calls_bytes(capsys):
    argv = ["section", "--kind", "predictable", "--set", "P", "--epsilon", "1/8", FIX_B]
    lone = subprocess.run([sys.executable, "-m", "finsection", *argv], capture_output=True, text=True)
    assert lone.returncode == 0
    # non-default options, then a stray argument that main refuses after parsing
    with pytest.raises(SystemExit) as refused:
        main(["--format", "pretty", "section", "--kind", "optional", "--set", "O", "--strategy", "debut", FIX_B, "stray"])
    assert refused.value.code == 2
    capsys.readouterr()
    assert run_cli(capsys, argv)[:2] == (0, lone.stdout)


@pytest.mark.parametrize(
    "mutate, line",
    [
        pytest.param(
            lambda d: d["filtration"][1][1].remove("w4"), "filtration[1] does not partition the atom set", id="missing-atom"
        ),
        pytest.param(
            lambda d: d["filtration"].pop(), "filtration: need exactly one partition per grid point", id="one-partition-short"
        ),
        pytest.param(
            lambda d: d["filtration"][0].append(["w1"]),
            "filtration[0]: partition blocks must be pairwise disjoint",
            id="overlapping-blocks",
        ),
        pytest.param(
            lambda d: d["times"]["tau"].__setitem__("w1", "x"),
            "times.tau: bad time value 'x' for atom 'w1'",
            id="time-value-text",
        ),
        # RandomTime checks the values in document order and names the first bad one
        pytest.param(
            lambda d: d["times"]["tau"].update(w1=-1, w2="x"),
            "times.tau: bad time value -1 for atom 'w1'",
            id="time-values-negative-then-text",
        ),
        pytest.param(
            lambda d: d["times"]["tau"].__setitem__("w1", 3), "times.tau: value outside the grid", id="time-past-grid"
        ),
        # each distinct weight text is parsed once; the first bad one is still named
        pytest.param(
            lambda d: d["space"].__setitem__("probs", ["1/4", "1/4", "1/0", "1/2", "x", "1/0"]),
            "space: zero denominator in rational literal: '1/0'",
            id="repeated-weights-then-zero-denominator",
        ),
        pytest.param(
            lambda d: d["space"].__setitem__("probs", ["1/4", "1/4", 5, "1/0"]),
            "space: not a rational literal: 5",
            id="repeated-weights-then-number",
        ),
    ],
)
def test_validate_names_each_filtration_and_time_fault(capsys, tmp_path, mutate, line):
    doc = json.loads(Path(FIX_B).read_text())
    mutate(doc)
    code, out, _ = run_cli(capsys, ["validate", write_document(tmp_path, doc)])
    assert code == 3
    assert json.loads(out)["violations"] == [line]


def test_parse_failure_exit_code(capsys):
    code, _, err = run_cli(capsys, ["validate", str(FIXTURES / "bad_parse.json")])
    assert code == 2
    assert "parse error" in err
    code, _, err = run_cli(capsys, ["section", "--kind", "predictable", "--set", "P", "no_such_file.json"])
    assert code == 2


def test_invalid_document_blocks_solvers(capsys):
    code, _, err = run_cli(
        capsys,
        ["section", "--kind", "predictable", "--set", "S", str(FIXTURES / "bad_weights.json")],
    )
    assert code == 3
    assert "invariant violation" in err


def test_section_predictable_fix_b(capsys):
    report = run_json(
        capsys,
        ["section", "--kind", "predictable", "--set", "P", "--epsilon", "0/1", FIX_B],
    )
    assert report["kind"] == "predictable"
    assert report["deficit"] == "0/1"
    assert report["oracle_deficit"] == "0/1"
    assert report["time"] == {"w1": 2, "w2": 2, "w3": "inf", "w4": "inf"}
    assert report["trace"]["m_star"] == [1]
    assert report["trace"]["envelope_measures"] == ["1/2"]


def test_section_strategy_flag(capsys):
    report = run_json(
        capsys,
        ["section", "--kind", "predictable", "--set", "P", "--strategy", "debut", FIX_B],
    )
    assert report["strategy"] == "debut-oracle"
    assert report["trace"]["m_star"] == []


def test_section_optional_and_accessible(capsys):
    for kind in ("optional", "accessible"):
        report = run_json(capsys, ["section", "--kind", kind, "--set", "O", "--epsilon", "1/8", FIX_B])
        assert report["kind"] == kind
        assert report["epsilon"] == "1/8"
        assert report["deficit"] == "0/1"


def test_section_measurable_arbitrary_set(capsys):
    report = run_json(capsys, ["section", "--kind", "measurable", "--set", "R", FIX_B])
    assert report["strategy"] == "debut-oracle"
    assert report["deficit"] == "0/1"
    assert report["time"] == {"w1": 0, "w2": "inf", "w3": 1, "w4": 2}


def test_section_precondition_failures(capsys):
    code, _, err = run_cli(capsys, ["section", "--kind", "predictable", "--set", "O", FIX_B])
    assert code == 4
    assert "precondition failure" in err
    code, _, _ = run_cli(capsys, ["section", "--kind", "optional", "--set", "R", FIX_B])
    assert code == 4
    code, _, _ = run_cli(capsys, ["section", "--kind", "predictable", "--set", "missing", FIX_B])
    assert code == 4


@pytest.mark.parametrize("kind", ["predictable", "optional", "measurable", "accessible"])
def test_section_refuses_a_negative_epsilon(capsys, kind):
    # measurable_section takes no epsilon, but its report prints the one given
    result = run_cli(capsys, ["section", "--kind", kind, "--set", "P", "--epsilon=-1/2", FIX_B])
    assert result == (4, "", "precondition failure: epsilon must be nonnegative\n")


def test_classify_time_report(capsys):
    report = run_json(capsys, ["classify-time", "--time", "tau", FIX_B])
    assert report["ti_finite_mass"] == "0/1"
    assert report["acc_part"] == report["time"]
    assert {"w1": 1, "w2": 1, "w3": "inf", "w4": "inf"} == report["time"]
    # the lookback partition at index 1 is trivial, so the covering
    # predictable time is the constant 1 on the whole block
    assert report["cover"] == [{"w1": 1, "w2": 1, "w3": 1, "w4": 1}]


def test_classify_time_requires_stopping_time(capsys):
    code, _, _ = run_cli(capsys, ["classify-time", "--time", "sigma", FIX_B])
    assert code == 4


def test_souslin_eval(capsys):
    report = run_json(capsys, ["souslin", "eval", "--scheme", "A", FIX_B])
    assert report["eval"] == ["a", "b", "c"]
    assert report["monotone"] == [False, False]


def test_souslin_union_intersect_monotonize(capsys):
    union = run_json(capsys, ["souslin", "union", "--scheme", "A", "--scheme", "B", FIX_B])
    assert union["eval"] == ["a", "b", "c"]
    inter = run_json(capsys, ["souslin", "intersect", "--scheme", "A", "--scheme", "B", FIX_B])
    assert inter["eval"] == ["b", "c"]
    mono = run_json(capsys, ["souslin", "monotonize", "--scheme", "A", FIX_B])
    assert mono["eval"] == ["a", "b", "c"]
    assert mono["monotone"] == [True, True]
    assert "result_scheme" in mono


def test_souslin_eval_on_a_wide_sparse_literal_within_budget(capsys, tmp_path):
    # depth 12 x branching 10 is 10^12 branches, but only one node is stored
    doc = json.loads(Path(FIX_B).read_text())
    doc["schemes"] = {
        "S": {
            "ground_set": ["a", "b"],
            "paving": [["a"], ["a", "b"]],
            "depth": 12,
            "branching": 10,
            "nodes": {"1": ["a"]},
        }
    }
    path = write_document(tmp_path, doc)
    t0 = time.perf_counter()
    assert run_json(capsys, ["validate", path])["status"] == "ok"
    report = run_json(capsys, ["souslin", "eval", "--scheme", "S", path])
    elapsed = time.perf_counter() - t0
    assert report["eval"] == ["a", "b"]
    assert report["monotone"] == [False, True]
    assert elapsed < 1.0, f"took {elapsed:.2f}s (budget 1s)"


@pytest.mark.parametrize(
    "operation, depth, branching, nodes",
    [
        # one stored node: the walk stops at its length, whatever the depth
        ("eval", 10**6, 2, {"1": ["a"]}),
        # entry 3 stands for every entry above the largest stored one, 2
        ("eval", 3, 10**9, {"1": ["a"], "2": ["a"], "2.1": ["a"]}),
        # Σ l * 1^l index entries passes the budget at l = 2048
        ("monotonize", 10**6, 1, {"1": ["a"]}),
    ],
)
def test_souslin_ops_on_tiny_literals_with_huge_bounds_finish_at_once(capsys, tmp_path, operation, depth, branching, nodes):
    doc = json.loads(Path(FIX_B).read_text())
    doc["schemes"] = {
        "S": {"ground_set": ["a", "b"], "paving": [["a"], ["a", "b"]], "depth": depth, "branching": branching, "nodes": nodes}
    }
    path = write_document(tmp_path, doc)
    t0 = time.perf_counter()
    code, _, _ = run_cli(capsys, ["souslin", operation, "--scheme", "S", path])
    elapsed = time.perf_counter() - t0
    assert code in (0, 4)
    assert elapsed < 0.5, f"took {elapsed:.2f}s (budget 0.5s)"


def test_classify_time_over_the_cover_budget_is_refused_at_once(capsys, tmp_path):
    # discrete F_1 and tau = 2 on every atom: 1449 cover times x 1449 atoms
    # is 2,099,601 entries, just over 2^21
    atoms = [f"w{i}" for i in range(1449)]
    singles = [[a] for a in atoms]
    doc = {
        "space": {"atoms": atoms, "probs": ["1/1449"] * len(atoms)},
        "grid": ["0", "1", "2"],
        "filtration": [[atoms], singles, singles],
        "times": {"tau": dict.fromkeys(atoms, 2)},
    }
    path = write_document(tmp_path, doc)
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, ["classify-time", "--time", "tau", path])
    elapsed = time.perf_counter() - t0
    assert (code, out) == (4, "")
    assert err == "precondition failure: classify_time: a cover of 1449 times over 1449 atoms has over 2097152 entries\n"
    assert elapsed < 0.5, f"took {elapsed:.2f}s (budget 0.5s)"


@pytest.mark.parametrize(
    "operation, depth, branching, refused",
    [
        # Σ l * 8^l over l = 1..7 is 16,434,824 index entries
        ("monotonize", 7, 8, "monotonize: a depth 7 x branching 8"),
        # two 5 x 6 schemes merge at branching theta(6, 2) = 27: Σ l * 27^l over l = 1..5
        ("union", 5, 6, "merge_union: a depth 5 x branching 27"),
    ],
)
def test_souslin_builds_over_the_node_budget_are_refused_at_once(capsys, tmp_path, operation, depth, branching, refused):
    scheme = {"ground_set": ["a", "b"], "paving": [["a"], ["a", "b"]], "depth": depth, "branching": branching}
    doc = json.loads(Path(FIX_B).read_text())
    doc["schemes"] = {"S": {**scheme, "nodes": {"1": ["a"]}}, "T": {**scheme, "nodes": {"2": ["a"]}}}
    path = write_document(tmp_path, doc)
    assert run_json(capsys, ["validate", path])["status"] == "ok"
    schemes = ["--scheme", "S", "--scheme", "T"] if operation == "union" else ["--scheme", "S"]
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, ["souslin", operation, *schemes, path])
    elapsed = time.perf_counter() - t0
    assert (code, out) == (4, "")
    assert err == f"precondition failure: {refused} scheme has over 2097152 index entries\n"
    assert elapsed < 0.5, f"took {elapsed:.2f}s (budget 0.5s)"


def test_monotonize_over_the_pair_budget_is_refused_at_once(capsys, tmp_path):
    # the power set of 13 elements: 8192 members, 2^26 pairs for the closure check
    ground = [f"e{i}" for i in range(13)]
    members = [[e for i, e in enumerate(ground) if bits >> i & 1] for bits in range(1 << len(ground))]
    doc = json.loads(Path(FIX_B).read_text())
    doc["schemes"] = {"S": {"ground_set": ground, "paving": members, "depth": 1, "branching": 1, "nodes": {"1": []}}}
    path = write_document(tmp_path, doc)
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, ["souslin", "monotonize", "--scheme", "S", path])
    elapsed = time.perf_counter() - t0
    assert (code, out) == (4, "")
    assert err == "precondition failure: monotonize: a paving of 8192 members has over 2097152 member pairs\n"
    assert elapsed < 0.5, f"took {elapsed:.2f}s (budget 0.5s)"


@pytest.mark.parametrize("operation", ["union", "intersect"])
def test_merges_compare_pavings_by_value_but_keep_ground_order(capsys, tmp_path, operation):
    argv = ["souslin", operation, "--scheme", "A", "--scheme", "B"]
    want = run_cli(capsys, argv + [FIX_B])
    assert want[0] == 0
    doc = json.loads(Path(FIX_B).read_text())
    doc["schemes"]["B"]["paving"].reverse()
    assert run_cli(capsys, argv + [write_document(tmp_path, doc)]) == want
    doc["schemes"]["B"]["ground_set"].reverse()
    refused = run_cli(capsys, argv + [write_document(tmp_path, doc)])
    assert refused == (4, "", "precondition failure: merged schemes must share one paving\n")


@pytest.mark.parametrize(
    "raw, line",
    [
        pytest.param(b"[" * 100_000 + b"]" * 100_000, "parse error: JSON nested too deeply", id="nested-too-deeply"),
        pytest.param(
            b'{"space": 1' + b"0" * 4999 + b"}", "parse error: JSON integer of more than 4300 digits", id="integer-too-long"
        ),
        pytest.param(b'{"space": "\xff"}', "parse error: document is not UTF-8: byte 0xff at offset 11", id="not-utf-8"),
    ],
)
def test_undecodable_documents_are_parse_errors(capsys, tmp_path, raw, line):
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    code, out, err = run_cli(capsys, ["validate", str(path)])
    assert (code, out, err) == (2, "", line + "\n")


def test_souslin_eval_rejects_multiple_schemes(capsys):
    code, _, _ = run_cli(capsys, ["souslin", "eval", "--scheme", "A", "--scheme", "B", FIX_B])
    assert code == 4


def binary_stdin(data: bytes):
    """A stdin backed by a byte buffer, with the text layer a POSIX
    process gets under the C locale: undecodable bytes pass as surrogates,
    and line ends are not translated."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape", newline="\n")


def test_reads_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", binary_stdin(Path(FIX_A).read_bytes()))
    report = run_json(capsys, ["validate"])
    assert report["status"] == "ok"


def test_closed_stdin_is_a_parse_error(capsys, monkeypatch):
    # a process started with stdin closed (``<&-``) sees sys.stdin as None
    monkeypatch.setattr(sys, "stdin", None)
    assert run_cli(capsys, ["validate"]) == (2, "", "parse error: cannot read document: stdin is closed\n")


@pytest.mark.parametrize(
    "raw, line",
    [
        pytest.param(
            Path(FIX_A).read_bytes().replace(b'"w2"', b'"w\xff"'),
            "parse error: document is not UTF-8: byte 0xff at offset 32",
            id="not-utf-8",
        ),
        # text-mode line ends: the offset counts each CRLF as one character
        pytest.param(
            b'{\r\n  "space": {},\r\n  "grid": [,]\r\n}\r\n',
            "parse error: invalid JSON: Expecting value: line 3 column 12 (char 28)",
            id="crlf-syntax-error",
        ),
    ],
)
def test_stdin_is_decoded_like_a_file(capsys, monkeypatch, tmp_path, raw, line):
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    from_file = run_cli(capsys, ["validate", str(path)])
    monkeypatch.setattr(sys, "stdin", binary_stdin(raw))
    from_stdin = run_cli(capsys, ["validate"])
    assert from_file == from_stdin == (2, "", line + "\n")


def test_pretty_format_is_valid_json(capsys):
    code, out, _ = run_cli(capsys, ["--format", "pretty", "validate", FIX_A])
    assert code == 0
    assert json.loads(out)["status"] == "ok"
    assert "\n  " in out


def every_subcommand():
    return [
        ["theta", "7", "9"],
        ["validate", FIX_B],
        ["section", "--kind", "predictable", "--set", "P", "--epsilon", "0/1", FIX_B],
        ["section", "--kind", "optional", "--set", "O", "--epsilon", "1/8", FIX_B],
        ["section", "--kind", "accessible", "--set", "O", FIX_B],
        ["section", "--kind", "measurable", "--set", "R", FIX_B],
        ["classify-time", "--time", "tau", FIX_B],
        ["souslin", "eval", "--scheme", "A", FIX_B],
        ["souslin", "union", "--scheme", "A", "--scheme", "B", FIX_B],
        ["souslin", "intersect", "--scheme", "A", "--scheme", "B", FIX_B],
        ["souslin", "monotonize", "--scheme", "A", FIX_B],
    ]


@pytest.mark.parametrize("argv", every_subcommand(), ids=lambda a: " ".join(a[:2]))
def test_reports_are_byte_identical_across_runs(capsys, argv):
    first = run_cli(capsys, ["--seed", "1"] + argv)
    second = run_cli(capsys, ["--seed", "1"] + argv)
    assert first == second
    assert first[0] == 0


def write_document(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    return str(path)


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


@pytest.mark.parametrize(
    "argv, change, code, line",
    [
        pytest.param(["theta", "x", "1"], None, 2, "finsection theta: error: argument k: 'x' is not an integer", id="theta-text"),
        pytest.param(["theta", "0", "1"], None, 2, "finsection theta: error: argument k: value must be >= 1", id="theta-zero"),
        pytest.param(
            ["theta", "-1", "1"], None, 2, "finsection theta: error: argument k: value must be >= 1", id="theta-negative"
        ),
        # only ASCII digits: int() would also read these as 1, 2, 1000 and 3
        *[
            pytest.param(
                ["theta", text, "1"], None, 2, f"finsection theta: error: argument k: {text!r} is not an integer",
                id=f"theta-{name}",
            )
            for name, text in (("arabic-indic-digit", "\u0661"), ("spaces", " 2 "), ("underscore", "1_000"), ("plus", "+3"))
        ],
        # an argument past the digit limit is an integer all the same; a long one is quoted cut
        pytest.param(
            ["theta", "9" * 5000, "1"], None, 2,
            "finsection theta: error: argument k: '99999999999999999999...' has more than 4300 digits", id="theta-k-past-digit-limit",
        ),
        pytest.param(
            ["theta", "x" * 36, "1"], None, 2, "finsection theta: error: argument k: 'xxxxxxxxxxxxxxxxxxx... is not an integer",
            id="theta-k-long-text",
        ),
        pytest.param(["theta", "1", "2", "x"], None, 2, "finsection: error: unrecognized arguments: x", id="theta-extra"),
        # each choice list, in the order the parser offers it
        pytest.param(
            ["section", "--kind", "x", "--set", "P", FIX_B], None, 2,
            invalid_choice("finsection section", "--kind", "x", "predictable", "optional", "measurable", "accessible"),
            id="unknown-kind",
        ),
        pytest.param(
            ["section", "--kind", "optional", "--set", "O", "--strategy", "x", FIX_B], None, 2,
            invalid_choice("finsection section", "--strategy", "x", "debut", "souslin"), id="unknown-strategy",
        ),
        pytest.param(
            ["souslin", "x", "--scheme", "A", FIX_B], None, 2,
            invalid_choice("finsection souslin", "operation", "x", "eval", "union", "intersect", "monotonize"),
            id="unknown-operation",
        ),
        pytest.param(
            ["--format", "x", "validate", FIX_B], None, 2, invalid_choice("finsection", "--format", "x", "json", "pretty"),
            id="unknown-format",
        ),
        pytest.param(["validate"], lambda d: [d], 2, "parse error: document must be a JSON object", id="not-an-object"),
        pytest.param(
            ["validate"], lambda d: {k: v for k, v in d.items() if k != "grid"}, 2, "parse error: document is missing 'grid'",
            id="no-grid",
        ),
        pytest.param(["validate"], fix_b_with(grid="0"), 2, "parse error: document.grid has the wrong type", id="grid-text"),
        pytest.param(["validate"], fix_b_with(sets=[]), 2, "parse error: document.sets must be an object", id="sets-array"),
        pytest.param(
            ["validate"], fix_b_with(sets={"P": "x"}), 2, "parse error: sets.P must be an array of [atom, index] pairs",
            id="set-text",
        ),
        pytest.param(
            ["validate"], lambda d: {**d, "space": {**d["space"], "atoms": [1, 2, 3, 4]}}, 2,
            "parse error: space.atoms must be strings", id="atoms-ints",
        ),
        pytest.param(
            ["validate"], lambda d: {**d, "filtration": [[[1, 2]]] + d["filtration"][1:]}, 2,
            "parse error: filtration[0] must be an array of atom arrays", id="filtration-atom-ints",
        ),
        pytest.param(["validate"], fix_b_with(times={"tau": 3}), 2, "parse error: times.tau must be an object", id="time-int"),
        pytest.param(["validate"], fix_b_with(extra=1), 2, "parse error: unknown document field 'extra'", id="unknown-field"),
        *[
            pytest.param(["validate"], bare_number(change, text), 2, f"parse error: JSON number {text} is not finite", id=f"{where}-{text}")
            for text in NOT_FINITE
            for where, change in (("time", fix_b_tau_w1), ("weight", fix_b_first_weight))
        ],
        pytest.param(
            ["validate"], bare_number(fix_b_tau_w1, "1" + "0" * 400 + ".5"), 2,
            "parse error: JSON number 10000000000000000000... is not finite", id="time-long-number",
        ),
        # a finite float is a number JSON can hold, so RandomTime refuses it
        pytest.param(
            ["section", "--kind", "predictable", "--set", "P"], fix_b_tau_w1(3.0), 3,
            "invariant violation: times.tau: bad time value 3.0 for atom 'w1'", id="time-float",
        ),
        pytest.param(
            ["section", "--kind", "predictable", "--set", "P"], fix_b_tau_w1("x" * 100_000), 3,
            "invariant violation: times.tau: bad time value 'xxxxxxxxxxxxxxxxxxx... for atom 'w1'", id="time-long-text",
        ),
        pytest.param(
            ["section", "--kind", "predictable", "--set", "P"], fix_b_tau_w1(list(range(10_000))), 3,
            "invariant violation: times.tau: bad time value [0, 1, 2, 3, 4, 5, 6... for atom 'w1'", id="time-long-array",
        ),
        pytest.param(
            ["validate"], lambda d: "\ufeff" + json.dumps(d), 2,
            "parse error: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)", id="bom",
        ),
        # a non-rational text is quoted up to 20 characters, however long it is
        pytest.param(
            ["section", "--kind", "predictable", "--set", "P"], fix_b_first_weight("x" * 100_000), 3,
            "invariant violation: space: not a rational literal: 'xxxxxxxxxxxxxxxxxxx...", id="weight-long-text",
        ),
        # so is a zero-denominator literal, whose two sides each stay inside the digit limit
        pytest.param(
            ["section", "--kind", "predictable", "--set", "P"], fix_b_first_weight("9" * 4300 + "/" + "0" * 4300), 3,
            "invariant violation: space: zero denominator in rational literal: '9999999999999999999...",
            id="weight-long-zero-denominator",
        ),
        pytest.param(
            ["section", "--kind", "predictable", "--set", "P", "--epsilon", "x" * 100_000], lambda d: d, 4,
            "precondition failure: not a rational literal: 'xxxxxxxxxxxxxxxxxxx...", id="epsilon-long-text",
        ),
        pytest.param(
            ["theta", LONG_K, "1"], None, 4, "precondition failure: theta value has more than 4300 digits", id="theta-too-long"
        ),
        pytest.param(
            ["--format", "pretty", "theta", LONG_K, "1"], None, 4,
            "precondition failure: theta value has more than 4300 digits", id="theta-too-long-pretty",
        ),
        pytest.param(
            ["section", "--kind", "predictable", "--set", "P"], fix_b_with(times={"tau": {"w1": 1, "w2": 1, "w3": "inf"}}), 3,
            "invariant violation: times.tau: time literal must assign every atom exactly once", id="time-short-an-atom",
        ),
        pytest.param(
            ["souslin", "eval", "--scheme", "A"], fix_b_scheme_a_with(ground_set=[], paving=[[]], nodes={}), 3,
            "invariant violation: schemes.A: ground set must be nonempty", id="scheme-empty-ground",
        ),
        pytest.param(
            ["souslin", "eval", "--scheme", "A"], fix_b_scheme_a_with(paving=[], nodes={}), 3,
            "invariant violation: schemes.A: paving needs at least one member", id="scheme-empty-paving",
        ),
        pytest.param(
            ["souslin", "eval", "--scheme", "A"], fix_b_scheme_a_with(depth=0), 3,
            "invariant violation: schemes.A: depth and branching bounds must be positive", id="scheme-depth-0",
        ),
        pytest.param(
            ["souslin", "monotonize", "--scheme", "A", "--scheme", "B"], lambda d: d, 4,
            "precondition failure: souslin monotonize takes exactly one scheme", id="monotonize-two",
        ),
        pytest.param(
            ["souslin", "eval", "--scheme", "A", "--scheme", "B"], lambda d: d, 4,
            "precondition failure: souslin eval takes exactly one scheme", id="eval-two",
        ),
        pytest.param(
            ["validate", FIX_B, FIX_B], None, 2, f"finsection: error: unrecognized arguments: {FIX_B} {FIX_B}",
            id="data-second-path",
        ),
        pytest.param(
            ["section", "--kind", "predictable", "--set", "P", FIX_B, "-x"], None, 2,
            f"finsection: error: unrecognized arguments: {FIX_B} -x", id="data-trailing-option",
        ),
        pytest.param(
            ["souslin", "eval", "--scheme", "A", "-x"], None, 2, "finsection: error: unrecognized arguments: -x",
            id="data-lone-option",
        ),
    ],
)
def test_each_refusal_exits_with_its_code_and_names_itself(capsys, tmp_path, argv, change, code, line):
    if change is not None:
        argv = argv + [write_document(tmp_path, change(json.loads(Path(FIX_B).read_text())))]
    try:
        got, by_argparse = main(argv), False
    except SystemExit as exc:
        got, by_argparse = exc.code, True
    lines = capsys.readouterr().err.splitlines()
    assert got == code
    if by_argparse:
        # argparse writes its usage first; its width follows the terminal
        assert lines[0].startswith("usage: finsection") and lines[-1] == line
    else:
        assert lines == [line]


def test_zero_denominator_weight_is_a_violation(capsys, tmp_path):
    doc = json.loads(Path(FIX_B).read_text())
    doc["space"]["probs"][0] = "1/0"
    path = write_document(tmp_path, doc)
    code, out, err = run_cli(capsys, ["validate", path])
    assert code == 3
    assert "Traceback" not in err
    assert any("zero denominator" in line for line in json.loads(out)["violations"])


def test_zero_denominator_epsilon_is_a_precondition_failure(capsys):
    code, out, err = run_cli(capsys, ["section", "--kind", "predictable", "--set", "P", "--epsilon", "1/0", FIX_B])
    assert code == 4
    assert out == ""
    assert "precondition failure" in err


# past the interpreter's 4300-digit limit for int(str)
LONG_LITERAL = "1" + "0" * 5000 + "/1"
TOO_LONG = "rational literal too long (5003 characters): '10000000000000000000...'"


def test_over_long_weight_is_a_violation_quoting_a_truncated_literal(capsys, tmp_path):
    doc = json.loads(Path(FIX_B).read_text())
    doc["space"]["probs"][0] = LONG_LITERAL
    code, out, err = run_cli(capsys, ["validate", write_document(tmp_path, doc)])
    assert (code, err) == (3, "")
    assert json.loads(out)["violations"] == [f"space: {TOO_LONG}"]


def test_over_long_epsilon_is_a_precondition_failure_quoting_a_truncated_literal(capsys):
    argv = ["section", "--kind", "predictable", "--set", "P", "--epsilon", LONG_LITERAL, FIX_B]
    assert run_cli(capsys, argv) == (4, "", f"precondition failure: {TOO_LONG}\n")


@pytest.mark.parametrize("literal", ["1/4\n", "\u0661/4"], ids=["trailing-newline", "arabic-indic-digit"])
def test_non_ascii_or_newline_weight_is_a_violation(capsys, tmp_path, literal):
    doc = json.loads(Path(FIX_B).read_text())
    doc["space"]["probs"][0] = literal
    code, out, err = run_cli(capsys, ["validate", write_document(tmp_path, doc)])
    assert code == 3
    assert "Traceback" not in err
    assert json.loads(out)["violations"] == [f"space: not a rational literal: {literal!r}"]


@pytest.mark.parametrize("literal", ["2\n", "\u0662"], ids=["trailing-newline", "arabic-indic-digit"])
def test_non_ascii_or_newline_grid_label_is_a_violation(capsys, tmp_path, literal):
    doc = json.loads(Path(FIX_B).read_text())
    doc["grid"][2] = literal
    code, out, _ = run_cli(capsys, ["validate", write_document(tmp_path, doc)])
    assert code == 3
    assert json.loads(out)["violations"] == [f"grid: not a rational literal: {literal!r}"]


@pytest.mark.parametrize("literal", ["1/8\n", "\u0661/8"], ids=["trailing-newline", "arabic-indic-digit"])
def test_non_ascii_or_newline_epsilon_is_a_precondition_failure(capsys, literal):
    argv = ["section", "--kind", "predictable", "--set", "P", "--epsilon", literal, FIX_B]
    code, out, err = run_cli(capsys, argv)
    assert code == 4
    assert out == ""
    assert "precondition failure: not a rational literal" in err


def test_bool_cell_index_is_a_parse_error(capsys, tmp_path):
    doc = json.loads(Path(FIX_B).read_text())
    doc["sets"]["P"].append(["w1", True])
    path = write_document(tmp_path, doc)
    code, out, err = run_cli(capsys, ["validate", path])
    assert code == 2
    assert out == ""
    assert "parse error" in err


def test_bool_scheme_depth_is_a_violation(capsys, tmp_path):
    # B has depth 1, so only the bool check can refuse depth true (== 1)
    doc = json.loads(Path(FIX_B).read_text())
    doc["schemes"]["B"]["depth"] = True
    path = write_document(tmp_path, doc)
    code, out, _ = run_cli(capsys, ["validate", path])
    assert code == 3
    assert json.loads(out)["violations"] == ["schemes.B: scheme depth and branching must be integers"]


def set_node(key, value):
    return lambda scheme: scheme["nodes"].__setitem__(key, value)


@pytest.mark.parametrize(
    "mutate, message",
    [
        pytest.param(set_node("1", 5), "5 is not a collection of ground elements", id="node-value-5"),
        pytest.param(lambda s: s["paving"].append(5), "5 is not a collection of ground elements", id="paving-member-5"),
        pytest.param(set_node("1", [["a"]]), "element ['a'] is not in the ground set", id="node-value-nested-list"),
        pytest.param(lambda s: s["ground_set"].append(["a"]), "ground set elements must be hashable", id="ground-element-list"),
        pytest.param(
            lambda s: s.update(ground_set=[1, "1"], paving=[["1"]], nodes={"1": ["1"]}),
            "ground set elements must be strings",
            id="ground-int-beside-its-text",
        ),
        pytest.param(lambda s: s["ground_set"].append(None), "ground set elements must be strings", id="ground-element-null"),
        pytest.param(set_node("1_0", ["a"]), "bad scheme index key '1_0'", id="key-underscore"),
        pytest.param(set_node("\u0661", ["a"]), "bad scheme index key '\u0661'", id="key-arabic-indic-digit"),
        pytest.param(set_node(" 1", ["a"]), "bad scheme index key ' 1'", id="key-leading-space"),
        pytest.param(set_node("01", ["a"]), "bad scheme index key '01'", id="key-leading-zero-beside-1"),
        pytest.param(set_node("\ud800", ["a"]), "bad scheme index key '\\ud800'", id="key-lone-surrogate"),
        pytest.param(set_node("0", ["a"]), "stored index (0,) violates the branching bound", id="key-0"),
        pytest.param(set_node("1", "ab"), "'ab' is not a collection of ground elements", id="node-value-string"),
        pytest.param(
            lambda s: s["paving"].append({"c": 0}), "{'c': 0} is not a collection of ground elements", id="paving-member-object"
        ),
        pytest.param(
            lambda s: s.__setitem__("ground_set", "abc"), "'abc' is not a collection of ground elements", id="ground-set-string"
        ),
        pytest.param(
            lambda s: s.__setitem__("nodes", [["1", ["a"]]]),
            "scheme literal paving must be an array and its nodes an object",
            id="nodes-array-of-pairs",
        ),
    ],
)
def test_malformed_scheme_literal_is_a_violation(capsys, tmp_path, mutate, message):
    doc = json.loads(Path(FIX_B).read_text())
    mutate(doc["schemes"]["A"])
    code, out, err = run_cli(capsys, ["souslin", "eval", "--scheme", "A", write_document(tmp_path, doc)])
    assert code == 3
    assert out == ""
    assert err == f"invariant violation: schemes.A: {message}\n"


# Exit code and exact stdout of eval, union, intersect and monotonize on a
# document built like the scheme-algebra benchmark's (bench/workloads.py's
# lattice paving and scheme literals, seed string "scheme-algebra:fixture"),
# recorded before the merges and monotonize read lookup tables.
GOLDEN_SOUSLIN = json.loads((FIXTURES / "golden_souslin.json").read_text())


@pytest.mark.parametrize("record", GOLDEN_SOUSLIN, ids=lambda r: " ".join(r["argv"][1:-1]))
def test_souslin_reports_match_golden_bytes(capsys, record):
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in record["argv"]]
    code, out, _ = run_cli(capsys, argv)
    assert (code, out) == (record["exit"], record["stdout"])


# Ground elements that JSON escapes, or that spell the text the report
# writer splices at ("NaN", "nodes", '"nodes":NaN').
EDGE_GROUND = ("é", '"q"', "back\\slash", "\x00", "☃", "NaN", "nodes", '"nodes":NaN', "a")


def random_scheme_literal(rng, ground, branching, depth):
    members = [[e for i, e in enumerate(ground) if bits >> i & 1] for bits in range(1 << len(ground))]
    indices = [i for n in range(1, depth + 1) for i in itertools.product(range(1, branching + 1), repeat=n)]
    chosen = rng.sample(indices, rng.randint(0, len(indices)))
    return {
        "ground_set": ground,
        "paving": members,
        "depth": depth,
        "branching": branching,
        "nodes": {".".join(map(str, i)): rng.choice(members) for i in chosen},
    }


def souslin_report(rng, ground, operation, shapes):
    """The CLI's own ``operation`` report over random schemes of the given
    (branching, depth) shapes."""
    schemes = {str(i): scheme_from_literal(random_scheme_literal(rng, ground, *shape)) for i, shape in enumerate(shapes)}
    args = types.SimpleNamespace(operation=operation, scheme_names=list(schemes))
    return cli._souslin_report(args, types.SimpleNamespace(schemes=schemes))


def with_nodes(report, nodes):
    return {**report, "result_scheme": {**report["result_scheme"], "nodes": nodes}}


def writer_cases():
    for seed in range(40):
        rng = random.Random(seed)
        ground = rng.sample(EDGE_GROUND, rng.randint(1, 4))
        shapes = [(rng.randint(1, 3), rng.randint(1, 3)) for _ in "AB"]
        yield souslin_report(rng, ground, "union", shapes)
        yield souslin_report(rng, ground, "intersect", shapes)
        yield souslin_report(rng, ground, "monotonize", shapes[:1])
    # a union of four branching-3 schemes has branching 15, and keys such as "12.10"
    wide = souslin_report(random.Random(0), ["NaN", "é"], "union", [(3, 2)] * 4)
    assert wide["result_scheme"]["branching"] > 9 and "12.10" in wide["result_scheme"]["nodes"]
    yield wide
    yield with_nodes(wide, {})
    yield with_nodes(wide, {key: list(members) for key, members in wide["result_scheme"]["nodes"].items()})  # lists not shared
    yield with_nodes(wide, {"1": [], "2": ["NaN"], "1.1": []})


@pytest.mark.parametrize("fmt", ["json", "pretty"])
def test_merge_reports_are_written_as_json_dumps_writes_them(capsys, fmt):
    """``_emit`` writes a report's nodes table itself; its bytes are those
    of ``json.dumps`` with sorted keys, for each format."""
    layout = {"indent": 2} if fmt == "pretty" else {"separators": (",", ":")}
    for report in writer_cases():
        before = json.dumps(report)
        assert cli._emit(report, fmt) == 0
        assert capsys.readouterr().out == json.dumps(report, sort_keys=True, **layout) + "\n"
        assert json.dumps(report) == before  # the report is left as it was


# Exit code and exact stdout of acceptance criterion 9's commands, of
# validate on the bad_* fixtures and of a refused section and a data command
# on an invalid document, with the stderr of the records that carry it;
# argv names documents by file name only.
GOLDEN = json.loads((FIXTURES / "golden_cli.json").read_text())


@pytest.mark.parametrize("record", GOLDEN, ids=lambda r: " ".join(r["argv"][2:]))
def test_reports_match_golden_bytes(capsys, record):
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in record["argv"]]
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (record["exit"], record["stdout"], record.get("stderr", err))


# Exit code and exact stdout of the debut-wide benchmark's six commands on a
# generated 64-atom, 16-step document (bench/workloads.py's debut document),
# recorded before sets were stored by slice; this holds the block order of
# the classify-time cover and the key order of time literals.
GOLDEN_DEBUT = json.loads((FIXTURES / "golden_debut.json").read_text())


@pytest.mark.parametrize("record", GOLDEN_DEBUT, ids=lambda r: " ".join(r["argv"][:5]))
def test_debut_scale_reports_match_golden_bytes(capsys, record):
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in record["argv"]]
    code, out, _ = run_cli(capsys, argv)
    assert (code, out) == (record["exit"], record["stdout"])


def test_golden_fixtures_give_the_same_bytes_across_processes():
    """The three golden files replayed by ``golden_replay.py`` in child
    processes: under this interpreter with hash seeds 0 and 1, and once
    under each other supported interpreter on PATH that starts."""
    runs = {f"{sys.executable} PYTHONHASHSEED={seed}": (sys.executable, seed) for seed in ("0", "1")}
    for version in ("3.10", "3.12", "3.13"):
        exe = shutil.which(f"python{version}")
        if exe and subprocess.run([exe, "-c", "pass"], capture_output=True).returncode == 0:
            runs[f"python{version}"] = (exe, "0")
    children = {
        label: subprocess.Popen(
            [exe, str(Path(__file__).parent / "golden_replay.py")],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONDONTWRITEBYTECODE="1"),
        )
        for label, (exe, seed) in runs.items()
    }
    print("replayed under:", ", ".join(children))
    total = len(GOLDEN) + len(GOLDEN_SOUSLIN) + len(GOLDEN_DEBUT)
    for label, child in children.items():
        out, err = child.communicate(timeout=60)
        assert child.returncode == 0, f"{label}: {out}{err}"
        assert out.startswith(f"{total} of {total} records match"), f"{label}: {out}"
