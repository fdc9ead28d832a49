"""What a cold ``finsection`` process imports.

Each CLI call is its own process, so every module the package pulls in is
paid for on every call.  The package needs only the stdlib modules it
names; class-building machinery (``dataclasses``, ``typing``) and the
source-inspection modules ``dataclasses`` loads would be pure start-up cost.
The process runs with ``-S``: the CLI needs nothing from ``site``.
"""

import os
import subprocess
import sys
from pathlib import Path

from finsection.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
FIX_B = str(Path(__file__).parent / "fixtures" / "fix_b.json")
UNNEEDED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")
SECTION = ["section", "--kind", "optional", "--set", "O", "--epsilon", "1/8", FIX_B]


def run_bare(args):
    """Run this interpreter with ``-S`` and this checkout's ``src`` alone on
    ``PYTHONPATH``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-S", *args], env=env, capture_output=True, text=True, timeout=60)


def test_cli_import_loads_no_class_machinery_and_runs_without_site(capsys):
    probe = f"import sys, finsection.cli; print(sorted(set({UNNEEDED!r}) & set(sys.modules)))"
    done = run_bare(["-c", probe])
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")

    done = run_bare(["-m", "finsection", *SECTION])
    assert main(SECTION) == 0
    assert (done.returncode, done.stdout, done.stderr) == (0, capsys.readouterr().out, "")
