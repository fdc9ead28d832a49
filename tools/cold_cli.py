"""Interleaved A/B timing of one finsection CLI call as a cold process.

Runs ``-S -m finsection ARGV`` under this interpreter, round after round,
for checkout A and checkout B, each with ``PYTHONPATH=<checkout>/src`` and
``PYTHONDONTWRITEBYTECODE=1``, so every process pays what a fresh CLI call
pays, imports included.  Which side goes first alternates from round to
round, so both see the same stretches of a machine whose speed drifts.
A round whose (exit code, stdout, stderr) differs between the sides stops
the run with exit code 1.  Each round prints both sides' wall time and
B/A; the last line gives each side's median, the median B/A (below 1
means B is faster) and the number of rounds B was faster in.

This is the way to size a change to what a call imports, which
``tools/ab_cli.py`` cannot see, since it imports each side once.  Give
both sides the same bytecode state: with no ``src/finsection/__pycache__``
on either, each process compiles the modules it imports.  A relative path
in ARGV is read from the current directory, by both sides.  Run it from
anywhere:

    python3 tools/cold_cli.py PARENT_CHECKOUT . --rounds 25 -- validate tests/fixtures/fix_a.json
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="checkout A (the baseline)")
    parser.add_argument("b", type=Path, help="checkout B (the change)")
    parser.add_argument("--rounds", type=int, default=25)
    parser.add_argument("argv", nargs="+", help="the CLI's arguments, after --")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error(f"--rounds must be at least 1, not {args.rounds}")
    return args


def cold_call(checkout: Path, argv: list):
    """One CLI call in a fresh ``-S`` process: ((exit code, stdout, stderr), seconds)."""
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    t0 = perf_counter()
    done = subprocess.run([sys.executable, "-S", "-m", "finsection", *argv], env=env, capture_output=True, text=True, timeout=600)
    elapsed = perf_counter() - t0
    return (done.returncode, done.stdout, done.stderr), elapsed


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = (args.a, args.b)
    seconds = ([], [])
    ratios = []
    for r in range(args.rounds):
        outcomes = [None, None]
        for side in (0, 1) if r % 2 == 0 else (1, 0):
            outcomes[side], elapsed = cold_call(checkouts[side], args.argv)
            seconds[side].append(elapsed)
        if outcomes[0] != outcomes[1]:
            fields = [f for f, x, y in zip(("exit code", "stdout", "stderr"), *outcomes) if x != y]
            print(f"round {r + 1}: {', '.join(fields)} differ")
            return 1
        ratios.append(seconds[1][-1] / seconds[0][-1])
        print(f"round {r + 1}: A {seconds[0][-1] * 1e3:.1f} ms, B {seconds[1][-1] * 1e3:.1f} ms, B/A {ratios[-1]:.3f}", flush=True)
    a_ms, b_ms = (statistics.median(side) * 1e3 for side in seconds)
    wins = sum(ratio < 1 for ratio in ratios)
    print(
        f"median over {len(ratios)} rounds: A {a_ms:.1f} ms, B {b_ms:.1f} ms, "
        f"B/A {statistics.median(ratios):.3f}; B faster in {wins} of {len(ratios)} rounds"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
