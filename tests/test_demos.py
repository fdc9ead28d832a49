import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from finsection.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()
README_PYTHON = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
README_CLI = [line for block in re.findall(r"^```sh\n(.*?)^```$", README, re.M | re.S) for line in block.splitlines() if line.startswith("finsection ")]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr


def test_section_demo_output_is_independent_of_the_hash_seed():
    demo = ROOT / "demos" / "04_section_theorems.py"
    outputs = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=seed)
        result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode == 0, result.stderr
        outputs.add(result.stdout)
    assert len(outputs) == 1


def test_readme_python_session_runs():
    assert len(README_PYTHON) == 1
    exec(compile(README_PYTHON[0], "README.md", "exec"), {})


@pytest.mark.parametrize("line", README_CLI)
def test_readme_cli_line_exits_0(line, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(shlex.split(line)[1:]) == 0, capsys.readouterr().err


def test_readme_lists_the_cli_lines():
    assert len(README_CLI) == 6
