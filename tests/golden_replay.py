"""Replay every pinned outcome of the CLI through ``finsection.cli.main`` in this process.

Three sets of outcomes are pinned:

- the golden records of ``tests/fixtures/golden_*.json``: each record's
  argv (a ``.json`` argument names a fixture file), exit code and stdout,
  and its stderr where the record carries one;
- the refusal rows of ``tests/cli_refusals.py``: exit code, an empty
  stdout and the stderr line that names the refusal;
- the sha256 of the (exit code, stdout, stderr) of every op of the three
  workloads of ``bench/workloads.py`` at seed 1, on its generated
  document, stored in ``tests/fixtures/bench_digests.json``.

:func:`call` is the one in-process CLI call that the tests capture.  Run
as a script, this file checks the sets named on its command line
(``golden``, ``refusals``, ``digests``; all three when none is named),
prints one line per outcome that differs, then a summary line, and exits
1 if any differs.  It needs only this checkout's ``src`` and the standard
library, so it runs under any interpreter the package supports, whatever
its hash seed (which orders every frozenset of atom names):

    PYTHONHASHSEED=1 python3 tests/golden_replay.py
    python3.13 tests/golden_replay.py digests

:func:`replay_across_processes` runs the script so in child processes.

``--write-digests`` rewrites the stored digests from the current code
instead; do that only for a change meant to alter the benchmark's output,
and say so in its description.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import cli_refusals

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
GOLDEN = ("golden_cli.json", "golden_souslin.json", "golden_debut.json")
DIGESTS = FIXTURES / "bench_digests.json"
SEED = 1
SETS = ("golden", "refusals", "digests")
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402


def call(main, argv, stdin=None) -> tuple:
    """(exit code, stdout, stderr) of ``main(argv)``; an exit through
    ``SystemExit``, as argparse makes, gives its code.  ``stdin``, if
    given, is the bytes of the standard input, under the text layer a POSIX
    process gets in the C locale: undecodable bytes pass as surrogates, and
    line ends are not translated."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8", errors="surrogateescape", newline="\n")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def records(name: str) -> list:
    """The golden records of fixture file ``name``."""
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


def check_record(main, record) -> list:
    """One line if the record's outcome differs, else none."""
    code, out, err = call(main, [str(FIXTURES / a) if a.endswith(".json") else a for a in record["argv"]])
    if (code, out, err) == (record["exit"], record["stdout"], record.get("stderr", err)):
        return []
    return [f"golden record differs: {' '.join(record['argv'])} (exit {code}, expected {record['exit']})"]


def check_refusal(main, row, doc_dir: Path) -> list:
    """One line if the refusal row's outcome differs, else none.  argparse
    writes its usage lines first; their width follows the terminal."""
    name, argv, change, code, line = row
    if change is not None:
        doc = change(json.loads(Path(cli_refusals.FIX_B).read_text(encoding="utf-8")))
        path = doc_dir / "refusal.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        argv = [*argv, str(path)]
    got, out, err = call(main, argv)
    lines = err.splitlines()
    by_argparse = line.startswith("finsection")
    named = lines[-1:] == [line] and (lines[0].startswith("usage: finsection") if by_argparse else len(lines) == 1)
    if (got, out, named) == (code, "", True):
        return []
    return [f"refusal differs: {name} (exit {got}, expected {code}; stderr ends {lines[-1:]})"]


def op_digests(main, name: str, doc_dir: Path) -> dict:
    """Op label -> sha256 of its (exit code, stdout, stderr), in op order,
    for workload ``name`` at seed 1, whose documents go to ``doc_dir``."""
    workload = workloads.WORKLOADS[name](SEED)
    for doc_name, doc in workload.documents():
        (doc_dir / f"{doc_name}.json").write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
    out = {}
    for op in workload.ops:
        payload = json.dumps(call(main, [*op.argv, str(doc_dir / f"{op.doc}.json")])).encode()
        out[f"{op.op_id} {op.doc} {' '.join(op.argv)}"] = hashlib.sha256(payload).hexdigest()
    return out


def check_digests(main, name: str, doc_dir: Path) -> list:
    """One line per op of workload ``name`` whose digest differs, and one
    if the workload runs other ops than those pinned, or in another order."""
    expected, got = json.loads(DIGESTS.read_text(encoding="utf-8"))[name], op_digests(main, name, doc_dir)
    lines = [f"digest differs: {name} {label}" for label in expected if got.get(label) != expected[label]]
    if list(got) != list(expected):
        lines.append(f"digests differ: {name} runs other ops than the {len(expected)} pinned")
    return lines


def check_sets(main, sets, doc_dir: Path) -> list:
    """One line per outcome of the named sets that differs."""
    checks = {
        "golden": lambda: (line for name in GOLDEN for record in records(name) for line in check_record(main, record)),
        "refusals": lambda: (line for row in cli_refusals.ROWS for line in check_refusal(main, row, doc_dir)),
        "digests": lambda: (line for name in sorted(workloads.WORKLOADS) for line in check_digests(main, name, doc_dir)),
    }
    return [line for name in sets for line in checks[name]()]


def summary(sets=SETS) -> str:
    """The pinned outcomes of the named sets, counted."""
    counts = {
        "golden": f"{sum(len(records(name)) for name in GOLDEN)} golden records",
        "refusals": f"{len(cli_refusals.ROWS)} refusal rows",
        "digests": f"{sum(map(len, json.loads(DIGESTS.read_text(encoding='utf-8')).values()))} benchmark digests",
    }
    parts = [counts[name] for name in sets]
    return " and ".join([", ".join(parts[:-1]), parts[-1]] if len(parts) > 1 else parts)


def replay_across_processes(*sets) -> list:
    """Run the script on ``sets`` in child processes: under this
    interpreter with hash seeds 0 and 1, and once under each other
    supported interpreter on PATH that starts.  Prints which ran; returns
    one line per child that did not exit 0 with its summary."""
    runs = {f"{sys.executable} PYTHONHASHSEED={seed}": (sys.executable, seed) for seed in ("0", "1")}
    for version in ("3.10", "3.12", "3.13"):
        exe = shutil.which(f"python{version}")
        if exe and subprocess.run([exe, "-c", "pass"], capture_output=True).returncode == 0:
            runs[f"python{version}"] = (exe, "0")
    children = {
        label: subprocess.Popen(
            [exe, __file__, *sets],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONDONTWRITEBYTECODE="1"),
        )
        for label, (exe, seed) in runs.items()
    }
    print("replayed", " ".join(sets), "under:", ", ".join(children))
    failures = []
    for label, child in children.items():
        out, err = child.communicate(timeout=120)
        if child.returncode != 0 or not out.startswith(f"{summary(sets)}: all match"):
            failures.append(f"{label}: exit {child.returncode}: {out}{err}")
    return failures


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    from finsection.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        doc_dir = Path(tmp)
        if sys.argv[1:] == ["--write-digests"]:
            digests = {name: op_digests(main, name, doc_dir) for name in sorted(workloads.WORKLOADS)}
            DIGESTS.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
            sys.exit(0)
        sets = tuple(sys.argv[1:]) or SETS
        if not set(sets) <= set(SETS):
            print(f"usage: golden_replay.py [--write-digests | {' '.join(f'[{name}]' for name in SETS)}]", file=sys.stderr)
            sys.exit(2)
        differing = check_sets(main, sets, doc_dir)
    for line in differing:
        print(line)
    verdict = f"{len(differing)} differ" if differing else "all match"
    print(f"{summary(sets)}: {verdict} under Python {sys.version.split()[0]}")
    sys.exit(1 if differing else 0)
