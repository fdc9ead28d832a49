import errno
import itertools
import json
import os
import random
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import cli_refusals
import golden_replay
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


def test_reads_from_stdin():
    code, out, _ = golden_replay.call(main, ["validate"], stdin=Path(FIX_A).read_bytes())
    assert (code, json.loads(out)["status"]) == (0, "ok")


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
def test_stdin_is_decoded_like_a_file(tmp_path, raw, line):
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    from_file = golden_replay.call(main, ["validate", str(path)])
    assert from_file == golden_replay.call(main, ["validate"], stdin=raw) == (2, "", line + "\n")


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


@pytest.mark.parametrize("seed", ["0", "-3", "=-3"])
def test_seed_takes_any_integer_and_changes_no_byte(capsys, seed):
    argv = ["--seed" + seed] if seed.startswith("=") else ["--seed", seed]
    assert run_cli(capsys, [*argv, "validate", FIX_B]) == run_cli(capsys, ["validate", FIX_B])


def write_document(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("row", cli_refusals.ROWS, ids=lambda row: row[0])
def test_each_refusal_exits_with_its_code_and_names_itself(tmp_path, row):
    assert golden_replay.check_refusal(main, row, tmp_path) == []


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


def seven_digit_primes(count):
    sieve = bytearray([1]) * 40_000  # 10**6 + i: about 2,900 primes
    for p in range(2, 1021):
        sieve[-10**6 % p :: p] = bytes(len(sieve[-10**6 % p :: p]))
    return [10**6 + i for i, prime in enumerate(sieve) if prime][:count]


def paired_weights_document(denominators):
    """Atoms h_j and l_j weighing d_j // 2 + 1 and the rest over n * d_j, for n
    denominators d_j; h_j split off at step 0 and sit in P at index 1, l_j at
    step 1 and index 2."""
    n = len(denominators)
    heavy, light = [f"h{j}" for j in range(n)], [f"l{j}" for j in range(n)]
    probs = [f"{d // 2 + 1}/{n * d}" for d in denominators] + [f"{d - d // 2 - 1}/{n * d}" for d in denominators]
    return {
        "space": {"atoms": heavy + light, "probs": probs},
        "grid": ["0", "1", "2"],
        "filtration": [[[a] for a in heavy] + [light]] + [[[a] for a in heavy + light]] * 2,
        "sets": {"P": [[a, 1] for a in heavy] + [[a, 2] for a in light]},
    }


DIGITS_REFUSED = "space: the weights' common denominator has more than 4300 digits"


def test_weights_whose_common_denominator_passes_the_digit_limit_are_refused_on_load(capsys, tmp_path):
    # 2048 distinct 7-digit primes x 2^11: a common denominator of about 14,300 digits,
    # and a deficit at eps 3/4 that json could not print
    path = write_document(tmp_path, paired_weights_document([p * 2**11 for p in seven_digit_primes(2048)]))
    assert run_cli(capsys, ["validate", path]) == (3, f'{{"status":"invalid","violations":["{DIGITS_REFUSED}"]}}\n', "")
    argv = ["section", "--kind", "predictable", "--set", "P", "--epsilon", "3/4", path]
    assert run_cli(capsys, argv) == (3, "", f"invariant violation: {DIGITS_REFUSED}\n")


def test_validate_refuses_4000_digit_denominators_at_once(capsys, tmp_path):
    path = write_document(tmp_path, paired_weights_document([10**3999 + j for j in range(64)]))
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, ["validate", path])
    assert (code, json.loads(out)["violations"]) == (3, [DIGITS_REFUSED])
    assert time.perf_counter() - t0 < 0.5


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
@pytest.mark.parametrize("record", golden_replay.records("golden_souslin.json"), ids=lambda r: " ".join(r["argv"][1:-1]))
def test_souslin_reports_match_golden_bytes(record):
    assert golden_replay.check_record(main, record) == []


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
@pytest.mark.parametrize("record", golden_replay.records("golden_cli.json"), ids=lambda r: " ".join(r["argv"][2:]))
def test_reports_match_golden_bytes(record):
    assert golden_replay.check_record(main, record) == []


# Exit code and exact stdout of the debut-wide benchmark's six commands on a
# generated 64-atom, 16-step document (bench/workloads.py's debut document),
# recorded before sets were stored by slice; this holds the block order of
# the classify-time cover and the key order of time literals.
@pytest.mark.parametrize("record", golden_replay.records("golden_debut.json"), ids=lambda r: " ".join(r["argv"][:5]))
def test_debut_scale_reports_match_golden_bytes(record):
    assert golden_replay.check_record(main, record) == []


def test_golden_fixtures_give_the_same_bytes_across_processes():
    """The golden records and the refusal rows replayed by
    ``golden_replay.py`` as a script in child processes: under this
    interpreter with hash seeds 0 and 1, and once under each other
    supported interpreter on PATH that starts."""
    assert golden_replay.replay_across_processes("golden", "refusals") == []
