"""Smoke tests of ``tools/ab_cli.py``, the interleaved A/B timing script."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "ab_cli.py"


SUMMARY = re.compile(
    r"median B/A over (\d+) rounds of (\d+) ops: (\d+\.\d{3}); "
    r"B faster in (\d+) of (\d+) rounds; B/A quartiles (\d+\.\d{3})-(\d+\.\d{3})"
)
FAMILY = re.compile(r"(\w[\w -]*): median B/A (\d+\.\d{3}) over (\d+) ops")


def run_ab(a, b, rounds=1):
    argv = [sys.executable, str(SCRIPT), str(a), str(b), "--workload", "section-souslin", "--rounds", str(rounds)]
    return subprocess.run(argv, capture_output=True, text=True, timeout=120)


def check_summary(rounds):
    """Run a checkout against itself; its round lines, its one family line
    (every section-souslin op is a ``section``) and its last line agree."""
    result = run_ab(ROOT, ROOT, rounds)
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == rounds + 2
    assert [line.split(":")[0] for line in lines[:rounds]] == [f"round {r}" for r in range(1, rounds + 1)]
    ratios = [float(line.rsplit(" ", 1)[1]) for line in lines[:rounds]]
    family = FAMILY.fullmatch(lines[-2])
    assert family, lines[-2]
    summary = SUMMARY.fullmatch(lines[-1])
    assert summary, lines[-1]
    n, ops, median, wins, of, q1, q3 = summary.groups()
    assert int(n) == int(of) == rounds
    assert family.groups() == ("section", median, ops)
    # a ratio printed as 1.000 may be a win or not
    assert sum(ratio < 1 for ratio in ratios) <= int(wins) <= sum(ratio <= 1 for ratio in ratios)
    assert min(ratios) <= float(q1) <= float(median) <= float(q3) <= max(ratios)


def test_a_checkout_against_itself_agrees_and_prints_a_median():
    check_summary(1)


def test_the_summary_counts_wins_and_spans_the_quartiles_over_several_rounds():
    check_summary(3)


@pytest.mark.parametrize("rounds", [0, -1])
def test_fewer_than_one_round_is_refused_before_any_op_runs(rounds):
    result = run_ab(ROOT, ROOT, rounds)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.endswith(f"error: --rounds must be at least 1, not {rounds}\n")


def test_a_checkout_whose_output_differs_exits_1(tmp_path):
    shutil.copytree(ROOT / "src" / "finsection", tmp_path / "src" / "finsection", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "finsection" / "cli.py"
    cli.write_text(cli.read_text().replace('separators=(",", ":")', 'separators=(", ", ":")'))
    result = run_ab(ROOT, tmp_path)
    assert result.returncode == 1
    assert result.stdout.startswith("op 0 (section ") and result.stdout.endswith(": stdout differ\n")
