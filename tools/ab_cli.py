"""Interleaved A/B timing of two checkouts' finsection CLI in one process.

Loads ``src/finsection`` of checkout A and of checkout B under the
module names ``finsection_a`` and ``finsection_b``, writes the documents
of one workload of ``bench/workloads.py`` (this checkout's, imported
without writing bytecode) to a temporary directory, and runs every op on
both sides, round after round.  Which side goes first alternates from op
to op and from round to round, so both see the same stretches of a
machine whose speed drifts.  After the warm-up calls it runs
``gc.collect()`` and ``gc.freeze()``, as ``bench/run.py`` does before it
measures, so the set-up objects of both sides sit outside the
collector's generations and the timed calls see the collector work the
benchmark sees.  An op whose (exit code, stdout, stderr) differs between
the sides stops the run with exit code 1.  Each round prints the ratio of
B's total call time to A's; the last line gives their median, where
below 1 means B is faster, the number of rounds B was faster in, and the
lower and upper quartiles of the ratios, so it shows whether B wins
round after round by more than the rounds spread.  Just before it, one
line per command family (the argv words before the first option, such as
``souslin eval`` or ``section``) gives that family's median B/A over the
rounds and its number of ops, so it shows which commands a gain sits in.

It is meant for sizing a change while it is written; performance claims
come from ``bench/run.py``.  Each side's package is imported once, before
any call is timed, so work done at import time does not show here: a
change that only makes the import cheaper reads about 1.00.  Size such a
change by ``bench/run.py``'s ``setup_s``, with the same bytecode state on
both sides (no ``src/finsection/__pycache__`` on either), or by an
interleaved loop of cold ``python3 -m finsection`` processes.  Run it from
anywhere:

    python3 tools/ab_cli.py PARENT_CHECKOUT . --workload scheme-algebra --seed 1 --rounds 10
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import statistics
import sys
import tempfile
from collections import Counter
from itertools import takewhile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
ALIASES = ("finsection_a", "finsection_b")


def load_cli(checkout: Path, alias: str):
    """Import ``checkout``'s package as ``alias`` and return its ``cli``."""
    package = checkout.resolve() / "src" / "finsection"
    spec = importlib.util.spec_from_file_location(alias, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{alias}.cli")


def call(cli, argv: list):
    """One timed call: ((exit code, stdout, stderr), seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a raising call is an outcome to compare too
            code = f"raised {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
    return (code, out.getvalue(), err.getvalue()), elapsed


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="checkout A (the baseline)")
    parser.add_argument("b", type=Path, help="checkout B (the change)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error(f"--rounds must be at least 1, not {args.rounds}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    sides = [load_cli(checkout, alias) for checkout, alias in zip((args.a, args.b), ALIASES)]
    workload = workloads.WORKLOADS[args.workload](args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in workload.documents():
            (Path(tmp) / f"{name}.json").write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
        argvs = [[*op.argv, str(Path(tmp) / f"{op.doc}.json")] for op in workload.ops]
        families = [" ".join(takewhile(lambda word: not word.startswith("-"), op.argv)) for op in workload.ops]
        family_ratios = {family: [] for family in families}
        for cli in sides:  # warm-up
            call(cli, argvs[0])
        gc.collect()
        gc.freeze()
        ratios = []
        for r in range(args.rounds):
            seconds = [0.0, 0.0]
            family_seconds = {family: [0.0, 0.0] for family in family_ratios}
            for i, argv in enumerate(argvs):
                outcomes = [None, None]
                for side in (0, 1) if (r + i) % 2 == 0 else (1, 0):
                    outcomes[side], elapsed = call(sides[side], argv)
                    seconds[side] += elapsed
                    family_seconds[families[i]][side] += elapsed
                if outcomes[0] != outcomes[1]:
                    fields = [f for f, x, y in zip(("exit code", "stdout", "stderr"), *outcomes) if x != y]
                    print(f"op {i} ({' '.join(argv[:-1])} on {Path(argv[-1]).name}): {', '.join(fields)} differ")
                    return 1
            ratios.append(seconds[1] / seconds[0])
            for family, (a, b) in family_seconds.items():
                family_ratios[family].append(b / a)
            print(f"round {r + 1}: A {seconds[0]:.3f} s, B {seconds[1]:.3f} s, B/A {ratios[-1]:.3f}", flush=True)
    ops = Counter(families)
    for family, family_ratio in family_ratios.items():
        print(f"{family}: median B/A {statistics.median(family_ratio):.3f} over {ops[family]} ops")
    wins = sum(ratio < 1 for ratio in ratios)
    q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1 else ratios * 3
    print(
        f"median B/A over {len(ratios)} rounds of {len(argvs)} ops: {statistics.median(ratios):.3f}; "
        f"B faster in {wins} of {len(ratios)} rounds; B/A quartiles {q1:.3f}-{q3:.3f}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
