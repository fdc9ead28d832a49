"""Interleaved A/B timing of two checkouts' finsection CLI in one process.

Loads ``src/finsection`` of checkout A and of checkout B under the module
names ``finsection_a`` and ``finsection_b``, writes the documents of one
workload of ``bench/workloads.py`` (this checkout's, imported without
writing bytecode) to a temporary directory, and runs every op on both
sides, round after round.  Which side goes first alternates from op to op
and from round to round, so both see the same stretches of a machine
whose speed drifts.  An op whose (exit code, stdout, stderr) differs
between the sides stops the run with exit code 1.  Each round prints the
ratio of B's total call time to A's; the last line gives their median,
where below 1 means B is faster, the number of rounds B was faster in,
and the lower and upper quartiles of the ratios, so it shows whether B
wins round after round by more than the rounds spread.

It is meant for sizing a change while it is written; performance claims
come from ``bench/run.py``.  Run it from anywhere:

    python3 tools/ab_cli.py PARENT_CHECKOUT . --workload scheme-algebra --seed 1 --rounds 10
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import statistics
import sys
import tempfile
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


def call(cli, alias: str, argv: list):
    """One timed call: ((exit code, stdout, stderr), seconds).  The side's
    ``functools`` caches are emptied first, as a fresh process has them."""
    for name, mod in list(sys.modules.items()):
        if name.startswith(alias + "."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
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
    sides = [(load_cli(checkout, alias), alias) for checkout, alias in zip((args.a, args.b), ALIASES)]
    workload = workloads.WORKLOADS[args.workload](args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in workload.documents():
            (Path(tmp) / f"{name}.json").write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
        argvs = [[*op.argv, str(Path(tmp) / f"{op.doc}.json")] for op in workload.ops]
        for cli, alias in sides:  # warm-up
            call(cli, alias, argvs[0])
        ratios = []
        for r in range(args.rounds):
            seconds = [0.0, 0.0]
            for i, argv in enumerate(argvs):
                outcomes = [None, None]
                for side in (0, 1) if (r + i) % 2 == 0 else (1, 0):
                    outcomes[side], elapsed = call(*sides[side], argv)
                    seconds[side] += elapsed
                if outcomes[0] != outcomes[1]:
                    fields = [f for f, x, y in zip(("exit code", "stdout", "stderr"), *outcomes) if x != y]
                    print(f"op {i} ({' '.join(argv[:-1])} on {Path(argv[-1]).name}): {', '.join(fields)} differ")
                    return 1
            ratios.append(seconds[1] / seconds[0])
            print(f"round {r + 1}: A {seconds[0]:.3f} s, B {seconds[1]:.3f} s, B/A {ratios[-1]:.3f}", flush=True)
    wins = sum(ratio < 1 for ratio in ratios)
    q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1 else ratios * 3
    print(
        f"median B/A over {len(ratios)} rounds of {len(argvs)} ops: {statistics.median(ratios):.3f}; "
        f"B faster in {wins} of {len(ratios)} rounds; B/A quartiles {q1:.3f}-{q3:.3f}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
