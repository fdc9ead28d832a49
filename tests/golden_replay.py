"""Replay the golden CLI fixtures through ``finsection.cli.main`` in this process.

Reads ``golden_cli.json``, ``golden_souslin.json`` and ``golden_debut.json``
from ``tests/fixtures``, runs each record's argv (a ``.json`` argument names
a fixture file) and compares the exit code and stdout with the record,
and the stderr too where the record carries one.  It prints one line per
record that differs, then a summary line, and exits 1 if any record
differs.  It imports the package from this checkout's ``src`` and nothing
outside the standard library, so it runs under any interpreter the
package supports, whatever its hash seed:

    PYTHONHASHSEED=1 python3 tests/golden_replay.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
GOLDEN = ("golden_cli.json", "golden_souslin.json", "golden_debut.json")


def replay(main) -> tuple:
    """(number of records, one line per record whose exit code, stdout or
    recorded stderr differs)."""
    records = [record for name in GOLDEN for record in json.loads((FIXTURES / name).read_text(encoding="utf-8"))]
    differing = []
    for record in records:
        argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in record["argv"]]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        got = (code, stdout.getvalue(), stderr.getvalue())
        if got != (record["exit"], record["stdout"], record.get("stderr", got[2])):
            differing.append(f"differs: {' '.join(record['argv'])} (exit {code}, expected {record['exit']})")
    return len(records), differing


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    from finsection.cli import main

    count, differing = replay(main)
    for line in differing:
        print(line)
    print(f"{count - len(differing)} of {count} records match under Python {sys.version.split()[0]}")
    sys.exit(1 if differing else 0)
