"""Smoke tests of ``tools/cold_cli.py``, the interleaved cold-process A/B timing script."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "cold_cli.py"
SUMMARY = re.compile(
    r"median over (\d+) rounds: A (\d+\.\d) ms, B (\d+\.\d) ms, B/A (\d+\.\d{3}); B faster in (\d+) of (\d+) rounds"
)


def run_cold(a, b, rounds, *argv):
    command = [sys.executable, str(SCRIPT), str(a), str(b), "--rounds", str(rounds), "--", *argv]
    return subprocess.run(command, capture_output=True, text=True, timeout=120, cwd=ROOT)


def test_a_checkout_against_itself_agrees_and_prints_the_medians():
    result = run_cold(".", ".", 2, "theta", "1", "2")
    assert (result.returncode, result.stderr) == (0, ""), result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["round 1", "round 2"]
    summary = SUMMARY.fullmatch(lines[2])
    assert len(lines) == 3 and summary, lines
    assert summary[1] == summary[6] == "2" and int(summary[5]) <= 2


def test_a_checkout_whose_output_differs_exits_1(tmp_path):
    shutil.copytree(ROOT / "src" / "finsection", tmp_path / "src" / "finsection", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "finsection" / "cli.py"
    cli.write_text(cli.read_text().replace('separators=(",", ":")', 'separators=(", ", ":")'))
    result = run_cold(ROOT, tmp_path, 2, "validate", "tests/fixtures/fix_a.json")
    assert (result.returncode, result.stdout) == (1, "round 1: stdout differ\n")
