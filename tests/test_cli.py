import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from finsection.cli import main

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


def test_theta_via_module_execution():
    result = subprocess.run(
        [sys.executable, "-m", "finsection", "theta", "1", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "3\n"


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
    code, _, _ = run_cli(
        capsys, ["section", "--kind", "predictable", "--set", "P", "--epsilon=-1/2", FIX_B]
    )
    assert code == 4


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


def test_souslin_eval_rejects_multiple_schemes(capsys):
    code, _, _ = run_cli(capsys, ["souslin", "eval", "--scheme", "A", "--scheme", "B", FIX_B])
    assert code == 4


def test_reads_from_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(Path(FIX_A).read_text()))
    report = run_json(capsys, ["validate"])
    assert report["status"] == "ok"


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
    path.write_text(json.dumps(doc))
    return str(path)


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


# Exit code and exact stdout of acceptance criterion 9's commands and of
# validate on the bad_* fixtures; argv names documents by file name only.
GOLDEN = json.loads((FIXTURES / "golden_cli.json").read_text())


@pytest.mark.parametrize("record", GOLDEN, ids=lambda r: " ".join(r["argv"][2:]))
def test_reports_match_golden_bytes(capsys, record):
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in record["argv"]]
    code, out, _ = run_cli(capsys, argv)
    assert (code, out) == (record["exit"], record["stdout"])


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
