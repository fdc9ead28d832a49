"""Closed-loop benchmark of the finsection CLI.

One client in one thread calls ``finsection.cli.main(argv)`` in-process on
seeded, generated JSON documents, one call at a time, and checks every
report with the independent checks in ``check.py`` outside the timed
intervals.  Run it from the repository root:

    python3 bench/run.py --workload section-souslin --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced passes over the same op list
and reports the per-layer metrics from the spans (see ``spans.py``).
Every timing is scaled to a fixed machine speed, measured by a reference
loop timed after each call (see ``reference_seconds``).  The last line of
stdout is one JSON object; the lines before it, each starting with ``#``,
repeat every metric by name with its unit and describe the run
environment.  See README.md for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT = BENCH / "out"

SETUP_REPEATS = 9

# Machine-speed reference.  The shared machine runs the same code up to
# 1.6x slower, in stretches from under a second to minutes, so every timing
# is scaled by REFERENCE_S / the median time of ``reference_seconds``
# measured around it: for a call, over the timings taken after it and after
# the REFERENCE_WINDOW calls on either side (a wider window tracks the
# short stretches worse); for a set-up, over SETUP_REFERENCES timings
# before and after it.  The metrics read as seconds on a machine that runs
# the reference loop in REFERENCE_S.
REFERENCE_S = 2e-3
REFERENCE_WINDOW = 2
SETUP_REFERENCES = 5
_REFERENCE_SETS = tuple(frozenset(range(i, i + 40, 3)) for i in range(64))

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# workload -> prefix of the per-layer metrics that must all read 0 on it
BYPASSED = {"debut-wide": "souslin."}

# per-layer metric -> the traced callables whose self time it sums
SELF_MS = {
    "cli.self_ms": ("cli.main",),
    "document.parse_ms": ("document.parse_document",),
    "document.build_ms": ("document.build_document",),
    "document.scheme_literal_ms": ("souslin.scheme_from_literal",),
    "measure.prob_ms": ("measure.SampleSpace.prob",),
    "measure.outer_measure_ms": ("measure.outer_measure",),
    "measure.is_measurable_ms": ("measure.is_measurable",),
    "measure.refines_ms": ("measure.refines",),
    "filtered.space_init_ms": ("filtered.FilteredSpace.__post_init__",),
    "filtered.is_set_of_kind_ms": ("filtered.is_set_of_kind",),
    "filtered.debut_ms": ("filtered.debut",),
    "filtered.time_predicates_ms": ("filtered.is_stopping_time", "filtered.is_predictable_time"),
    "filtered.classify_time_ms": ("filtered.classify_time",),
    "souslin.scheme_init_ms": ("souslin.SouslinScheme.__post_init__",),
    "souslin.eval_ms": ("souslin.eval_scheme",),
    "souslin.merge_ms": ("souslin.merge_union", "souslin.merge_intersection"),
    "souslin.monotonize_ms": ("souslin.monotonize",),
    "souslin.check_monotone_ms": ("souslin.check_monotone",),
    "souslin.literal_out_ms": ("souslin.scheme_to_literal",),
    "section.build_scheme_ms": ("section.build_monotone_scheme",),
    "section.solver_self_ms": (
        "section.predictable_section",
        "section.optional_section",
        "section.accessible_section",
        "section.measurable_section",
        "section.section_from_scheme",
        "section.projection",
        "section.to_interval_representation",
    ),
    "section.decompose_ms": ("section.decompose_optional",),
}
# per-layer metric -> the traced callable whose spans it counts
SPAN_CALLS = {
    "measure.outer_measure_calls": "measure.outer_measure",
    "measure.is_measurable_calls": "measure.is_measurable",
    "measure.refines_calls": "measure.refines",
    "filtered.is_set_of_kind_calls": "filtered.is_set_of_kind",
}
# per-layer metric -> the hot callable (or counter) whose calls it counts
HOT_CALLS = {
    "measure.prob_calls": "measure.SampleSpace.prob",
    "souslin.node_lookups": "souslin.SouslinScheme.node",
    "souslin.scheme_nodes_built": "souslin.scheme_nodes_built",
}
# the callables the tracer wraps: exactly those that feed a metric
TRACED = {name for names in SELF_MS.values() for name in names} | set(SPAN_CALLS.values()) | set(HOT_CALLS.values())


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _commit() -> str:
    """HEAD's commit read from ``.git`` (no git process); ``unknown`` when the
    checkout has no ``.git`` or HEAD's ref is packed."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "finsection").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment_note() -> str:
    return (
        f"commit={_commit()} src_sha256={_source_digest()} "
        f"python={platform.python_version()} nproc={os.cpu_count()} "
        f"affinity={len(os.sched_getaffinity(0))}; load: one client thread in one process, "
        "closed loop, one call at a time; no CPU pinning, no cache dropping, no cgroup "
        "change; other tenants of the machine are not controlled"
    )


def _fresh_cli():
    """Import the package from source as a fresh module tree."""
    for name in [m for m in sys.modules if m == "finsection" or m.startswith("finsection.")]:
        del sys.modules[name]
    return importlib.import_module("finsection.cli")


def clear_package_caches():
    """Empty every ``functools`` cache of the package, as a fresh CLI
    process would start with them."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("finsection."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def reference_seconds() -> float:
    """Seconds for one fixed loop of the kind of work the program does:
    frozenset algebra, dict stores, sorting and ``Fraction`` sums.  It
    never touches ``finsection``, so no change to the program moves it."""
    t0 = perf_counter()
    acc, total, seen = frozenset(), Fraction(0), {}
    for i in range(300):
        a, b = _REFERENCE_SETS[i & 63], _REFERENCE_SETS[(i * 7) & 63]
        acc = (acc | a) & (b | {i})
        seen[a & b] = i
        total += Fraction(i % 5, 8)
        sorted(a ^ b)
    return perf_counter() - t0


def scaled(samples):
    """The call seconds of ``samples``, (call seconds, reference seconds)
    pairs in the order they were taken, at the reference speed."""
    refs = [ref for _, ref in samples]
    w = REFERENCE_WINDOW
    return [
        elapsed * REFERENCE_S / statistics.median(refs[max(0, i - w): i + w + 1])
        for i, (elapsed, _) in enumerate(samples)
    ]


def call(cli, argv):
    """One timed CLI call: (exit code or None if it raised, stdout, seconds).
    The CLI's stderr messages are captured and dropped."""
    clear_package_caches()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a raising call is a failed op, not a crash of the benchmark
            code = None
        elapsed = perf_counter() - t0
    return code, out.getvalue(), elapsed


def set_up(workloads, name, seed, doc_dir):
    """Generate the documents, write them, import the CLI and make one
    warm-up call.  Returns (seconds at the reference speed, workload, cli
    module, argv per op)."""
    refs = [reference_seconds() for _ in range(SETUP_REFERENCES)]
    t0 = perf_counter()
    workload = workloads.WORKLOADS[name](seed)
    doc_dir.mkdir(parents=True, exist_ok=True)
    for doc_name, doc in workload.documents():
        (doc_dir / f"{doc_name}.json").write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
    cli = _fresh_cli()
    argvs = [list(op.argv) + [str(doc_dir / f"{op.doc}.json")] for op in workload.ops]
    call(cli, argvs[0])
    seconds = perf_counter() - t0
    refs += [reference_seconds() for _ in range(SETUP_REFERENCES)]
    return seconds * REFERENCE_S / statistics.median(refs), workload, cli, argvs


class Verifier:
    """Checks each distinct (op, exit code, stdout) once; the verdict is a
    pure function of those, so repeats reuse it.  Results are checked in
    ``settle``, between passes, grouped by document, and documents are read
    back from disk one at a time, so the checker holds little."""

    def __init__(self, check, doc_dir):
        self.check = check
        self.doc_dir = doc_dir
        self.verdicts = {}
        self.pending = {}
        self.runs = collections.Counter()
        self.sweep = {}

    def record(self, op, code, out):
        key = (op.op_id, code, hashlib.sha256(out.encode()).digest())
        self.runs[key] += 1
        if key not in self.verdicts:
            self.pending[key] = (op, code, out)

    def settle(self):
        loaded = None
        for key, (op, code, out) in sorted(self.pending.items(), key=lambda item: item[1][0].doc):
            if loaded is None or loaded[0] != op.doc:
                doc = json.loads((self.doc_dir / f"{op.doc}.json").read_text(encoding="utf-8"))
                loaded = (op.doc, doc, self.check.DocumentView(doc))
            verdict = self.check.check(op.argv, code, out, loaded[2], loaded[1])
            self.verdicts[key] = (op, verdict)
            if op.argv[0] == "section" and verdict is None and code == 0:
                self.sweep[op.op_id] = sum(json.loads(out)["trace"]["m_star"])
        self.pending.clear()

    @property
    def attempted(self):
        return sum(self.runs.values())

    @property
    def failures(self):
        """(op, reason, times run) for every result that failed its check."""
        return [(*self.verdicts[key], n) for key, n in self.runs.items() if self.verdicts[key][1] is not None]


def run_pass(cli, ops, argvs, verifier, on_op=None):
    """One pass over the op list, then a check of its new results.  Returns
    (call seconds, reference seconds timed right after the call) per call."""
    samples = []
    for op, argv in zip(ops, argvs):
        if on_op is not None:
            on_op(op)
        code, out, elapsed = call(cli, argv)
        samples.append((elapsed, reference_seconds()))
        verifier.record(op, code, out)
    verifier.settle()
    return samples


def timing_summary(calls):
    """(calls per second, p50 ms, p90 ms) of a list of call seconds."""
    deciles = statistics.quantiles(calls, n=10, method="inclusive")
    return len(calls) / sum(calls), statistics.median(calls) * 1e3, deciles[8] * 1e3


def end_to_end(cli, workload, argvs, verifier, seconds, setups):
    """Whole passes until about ``seconds`` have gone by.  The throughput
    is calls made ÷ their summed time, and the percentiles are taken over
    the time of every call of every pass, all at the reference speed.
    Also returns the unscaled figures and the reference median."""
    samples, passes = [], 0
    deadline = perf_counter() + seconds
    while True:
        start = perf_counter()
        samples += run_pass(cli, workload.ops, argvs, verifier)
        passes += 1
        now = perf_counter()
        if now + (now - start) / 2 >= deadline:
            break
    ops_per_s, p50, p90 = timing_summary(scaled(samples))
    wall = timing_summary([elapsed for elapsed, _ in samples])
    reference_ms = statistics.median(ref for _, ref in samples) * 1e3
    return {
        "ops_per_s": ops_per_s,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
    }, len(samples), passes, wall, reference_ms


def per_layer(cli, workload, argvs, verifier, seconds, spans_mod, spans_path):
    tracer = spans_mod.Tracer(TRACED)
    untraced = traced = 0.0
    traced_refs = []
    traced_ops = []
    exec_id = itertools.count()

    def on_op(op):
        tracer.op = next(exec_id)
        traced_ops.append(op)

    def plain_pass():
        return sum(scaled(run_pass(cli, workload.ops, argvs, verifier)))

    def traced_pass():
        tracer.install()
        try:
            samples = run_pass(cli, workload.ops, argvs, verifier, on_op)
        finally:
            tracer.uninstall()
        traced_refs.extend(ref for _, ref in samples)
        return sum(scaled(samples))

    # One untimed pass first, so neither side of the first pair pays for a
    # cold start; then pairs of passes, alternating which side goes first.
    run_pass(cli, workload.ops, argvs, verifier)
    deadline = perf_counter() + seconds
    for pair in itertools.count():
        start = perf_counter()
        if pair % 2 == 0:
            plain = plain_pass()
            with_spans = traced_pass()
        else:
            with_spans = traced_pass()
            plain = plain_pass()
        untraced += plain
        traced += with_spans
        now = perf_counter()
        if now + (now - start) / 2 >= deadline:
            break
    tracer.write(spans_path)

    n = len(traced_ops)
    # span times at the reference speed, by the traced passes' reference median
    speed = REFERENCE_S / statistics.median(traced_refs)
    self_s = {name: value * speed for name, value in tracer.self_times().items()}
    span_counts = tracer.span_counts()
    metrics = {}
    for metric, names in SELF_MS.items():
        metrics[metric] = (sum(self_s.get(name, 0.0) for name in names) * 1e3 / n, "ms")
    for metric, name in SPAN_CALLS.items():
        metrics[metric] = (span_counts.get(name, 0) / n, "count")
    for metric, name in HOT_CALLS.items():
        metrics[metric] = (tracer.call_count(name) / n, "count")
    built = span_counts.get("section.build_monotone_scheme", 0)
    nodes_built = tracer.call_count("souslin.scheme_nodes_built")
    read = tracer.lookups_after("section.build_monotone_scheme")
    metrics["section.sweep_candidates"] = (sum(verifier.sweep.get(op.op_id, 0) for op in traced_ops) / n, "count")
    metrics["section.nodes_read_ratio"] = (read / nodes_built if built and nodes_built else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    return metrics, n


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "finsection" / "cli.py").is_file() or not (TESTS / "gen.py").is_file():
        print(f"error: {SRC / 'finsection'} and {TESTS / 'gen.py'} are needed; run from a full checkout", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(SRC), str(TESTS), str(BENCH)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    doc_dir = OUT / "docs" / args.workload
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, workload, cli, argvs = set_up(workloads, args.workload, args.seed, doc_dir)
        setups.append(seconds)

    import check
    import spans

    verifier = Verifier(check, doc_dir)
    # Leave the benchmark's own long-lived objects out of the collector's
    # work, so the program's GC pauses do not scale with them.
    gc.collect()
    gc.freeze()
    if args.trace:
        spans_path = OUT / f"{args.workload}.spans.tsv"
        values, traced_ops = per_layer(cli, workload, argvs, verifier, args.seconds, spans, spans_path)
        samples = f"per-layer values are per op over {traced_ops} traced calls"
        touched = [m for m, (value, _) in values.items() if m.startswith(BYPASSED.get(args.workload, "-")) and value]
        if touched:
            print(f"error: {args.workload} must bypass this layer, but {touched} are nonzero", file=sys.stderr)
            return 3
    else:
        measured, calls, passes, wall, reference_ms = end_to_end(
            cli, workload, argvs, verifier, args.seconds, setups
        )
        samples = (
            f"latency samples={calls} calls ({passes} passes over the op list); unscaled wall time: "
            f"ops_per_s={wall[0]:.6g} latency_p50_ms={wall[1]:.6g} latency_p90_ms={wall[2]:.6g}; "
            f"reference loop median={reference_ms:.4g} ms, scaled to {REFERENCE_S * 1e3:g} ms"
        )
        values = {name: (value, END_TO_END_UNITS[name]) for name, value in measured.items()}

    failures = verifier.failures
    failed = sum(n for _, _, n in failures)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"ops_per_pass={len(workload.ops)}")
    print(f"# env: {environment_note()}")
    print(f"# ops attempted={verifier.attempted} failed={failed} "
          f"failed_ratio={failed / verifier.attempted:.6f} ratio; {samples}")
    for op, reason, n in failures[:20]:
        print(f"# FAILED op {op.op_id} ({' '.join(op.argv)} on {op.doc}), {n} calls: {reason}")
    for name, (value, unit) in values.items():
        print(f"# {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": verifier.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
