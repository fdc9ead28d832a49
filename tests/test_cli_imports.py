"""What a cold ``finsection`` process imports.

Each CLI call is its own process, so every module the package pulls in is
paid for on every call.  The package needs only the stdlib modules it
names; class-building machinery (``dataclasses``, ``typing``) and the
source-inspection modules ``dataclasses`` loads would be pure start-up
cost, and so would the Souslin layer, which loads only for a call that
needs it: ``theta``, ``souslin``, or any command on a document that holds
a scheme.  The package binds its exports on first use, and the
benchmark's tracer, built after ``gen`` imports from the package, must
still find the Souslin layer.  The process runs with ``-S``: the CLI
needs nothing from ``site``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from golden_replay import call

from finsection.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
FIX_A, FIX_B, DEBUT = (str(FIXTURES / name) for name in ("fix_a.json", "fix_b.json", "debut_64x16.json"))
UNNEEDED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "finsection.souslin")
SECTION = ["section", "--kind", "optional", "--set", "O", "--epsilon", "1/8", FIX_B]
# commands on documents without schemes: the Souslin layer stays unloaded
SCHEME_FREE = [
    ["validate", FIX_A],
    ["section", "--kind", "optional", "--set", "O", "--epsilon", "1/8", FIX_A],
    ["validate", DEBUT],
    ["section", "--kind", "predictable", "--set", "P", "--epsilon", "1/8", DEBUT],
    ["section", "--kind", "optional", "--set", "O", "--epsilon", "1/8", "--strategy", "debut", DEBUT],
    ["section", "--kind", "accessible", "--set", "A", "--epsilon", "1/8", DEBUT],
    ["section", "--kind", "measurable", "--set", "M", DEBUT],
    ["classify-time", "--time", "tau", DEBUT],
]
NEEDS_SOUSLIN = [
    ["souslin", "eval", "--scheme", "A", FIX_B],
    ["theta", "1", "2"],
    ["validate", FIX_B],
    SECTION,
    ["classify-time", "--time", "tau", FIX_B],
]
# one CLI call, then whether it loaded the Souslin layer, as a last stderr line
PROBE = """import sys
from finsection.cli import main
code = main(sys.argv[1:])
print("finsection.souslin" in sys.modules, file=sys.stderr)
raise SystemExit(code)
"""


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


def case(argv, loads):
    return pytest.param(argv, loads, id=" ".join(Path(a).name if a.endswith(".json") else a for a in argv))


@pytest.mark.parametrize(
    "argv, loads", [case(argv, False) for argv in SCHEME_FREE] + [case(argv, True) for argv in NEEDS_SOUSLIN]
)
def test_a_cold_call_loads_the_souslin_layer_only_when_it_needs_it(argv, loads):
    done = run_bare(["-c", PROBE, *argv])
    code, out, err = call(main, argv)
    assert code == 0
    assert (done.returncode, done.stdout, done.stderr) == (code, out, f"{err}{loads}\n")


def test_package_surface_in_a_fresh_process():
    """A private name loads nothing; ``cli`` imports as the first name taken
    from the package; ``*`` binds exactly ``__all__``, which lists the four
    layers' exports in order; ``dir`` lists every export; an unknown name
    raises, naming itself."""
    probe = """import json, sys
import finsection
seen = {}
try:
    finsection._x
except AttributeError as exc:
    seen["private"] = str(exc)
seen["layers"] = sorted(name for name in sys.modules if name.startswith("finsection."))
from finsection import cli
seen["cli"] = cli.main.__module__
namespace = {}
exec("from finsection import *", namespace)
seen["star"] = sorted(set(namespace) ^ {"__builtins__", *finsection.__all__})
seen["same"] = all(namespace[name] is getattr(finsection, name) for name in finsection.__all__)
seen["dir"] = sorted(set(finsection.__all__) - set(dir(finsection)))
from finsection import filtered, measure, section, souslin
seen["all"] = finsection.__all__ == [name for layer in (souslin, measure, filtered, section) for name in layer.__all__]
try:
    finsection.no_such_name
except AttributeError as exc:
    seen["unknown"] = str(exc)
print(json.dumps(seen))
"""
    done = run_bare(["-c", probe])
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout) == {
        "private": "module 'finsection' has no attribute '_x'",
        "layers": [],
        "cli": "finsection.cli",
        "star": [],
        "same": True,
        "dir": [],
        "all": True,
        "unknown": "module 'finsection' has no attribute 'no_such_name'",
    }


def test_bench_tracer_builds_in_bench_run_import_order():
    """``bench/run.py`` imports the CLI, makes its warm-up call, then imports
    ``check`` (which loads ``gen``, and ``gen`` the package's exports) and
    only then builds the tracer, which reads every layer module."""
    probe = f"""import sys
sys.path[:0] = {[str(ROOT / "tests"), str(ROOT / "bench")]!r}
import finsection.cli
finsection.cli.main({SCHEME_FREE[1]!r})
assert "finsection.souslin" not in sys.modules
import check, run, spans
tracer = spans.Tracer(run.TRACED)
print(sorted(run.TRACED - set(tracer.names)))
"""
    done = run_bare(["-c", probe])
    _, out, _ = call(main, SCHEME_FREE[1])
    assert (done.returncode, done.stdout, done.stderr) == (0, out + "[]\n", "")
