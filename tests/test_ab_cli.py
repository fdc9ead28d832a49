"""Smoke tests of ``tools/ab_cli.py``, the interleaved A/B timing script."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "ab_cli.py"


def run_ab(a, b):
    argv = [sys.executable, str(SCRIPT), str(a), str(b), "--workload", "section-souslin", "--rounds", "1"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=120)


def test_a_checkout_against_itself_agrees_and_prints_a_median():
    result = run_ab(ROOT, ROOT)
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("round 1: A ")
    assert lines[1].startswith("median B/A over 1 rounds of ")


def test_a_checkout_whose_output_differs_exits_1(tmp_path):
    shutil.copytree(ROOT / "src" / "finsection", tmp_path / "src" / "finsection", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "finsection" / "cli.py"
    cli.write_text(cli.read_text().replace('separators=(",", ":")', 'separators=(", ", ":")'))
    result = run_ab(ROOT, tmp_path)
    assert result.returncode == 1
    assert result.stdout.startswith("op 0 (section ") and result.stdout.endswith(": stdout differ\n")
