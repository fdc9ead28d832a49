"""Batch front-end: load a fixture document, run a solver or check, emit one
JSON report on stdout.

A call runs parse argv -> load -> report -> write, and the first phase
that fails sets the exit code: parse argv 2; load 2 when the document
cannot be read or decoded (bad UTF-8, JSON or document shape), 3 on an
invariant violation in it; report 4, a solver precondition failure; write
2 (a full disk, a closed pipe or a closed stdout).  Otherwise it exits 0,
or 3 for ``validate`` on a document with violations, which it reports.

A call pauses the cyclic garbage collector and restores the state it found
on every exit: a JSON document holds no cycle, yet the collector re-scans
the half-built document every few hundred allocations.  In a fresh process,
``section --kind optional --strategy debut`` on a 5.4 MB document (4096
atoms x 64 steps) took 0.42-0.57 s with the pause, against 0.61-0.80 s
without it, at the same 105 MB peak (Python 3.11, shared 2-vCPU machine).

A ``union``, ``intersect`` or ``monotonize`` report's ``result_scheme.nodes``
table is written by :func:`_nodes_text`, not by ``json.dumps``: a table of
thousands of nodes holds a few dozen distinct member lists, and the writer
encodes each distinct list once.  ``json.dumps`` writes the rest of the
report with a NaN in the table's place, and the table's text is spliced in
at ``"nodes":NaN``.  That text occurs once: no report holds any other
float, and JSON escapes every quote inside a string, so ``s":`` with a
bare quote only ends a key.  The bytes are those ``json.dumps`` writes.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from json.encoder import encode_basestring_ascii

from .document import DocumentParseError, build_document, parse_document, time_to_literal
from .filtered import INF, classify_time
from .measure import _cut, format_rational, parse_rational
from .section import STRATEGY_DEBUT, STRATEGY_SOUSLIN, _check_epsilon, accessible_section, measurable_section
from .section import optional_section, predictable_section
from .souslin import check_monotone, eval_scheme, merge_intersection, merge_union, monotonize, scheme_to_literal, theta

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_PRECONDITION = 4

# The parser offers each table's keys as the choices, in this order.
_KINDS = {  # measurable_section takes no epsilon and no strategy
    "predictable": predictable_section,
    "optional": optional_section,
    "measurable": lambda target, X, eps, strategy: measurable_section(target, X.space, X.grid),
    "accessible": accessible_section,
}
_STRATEGIES = {"debut": STRATEGY_DEBUT, "souslin": STRATEGY_SOUSLIN}
_OPERATIONS = {
    "eval": lambda schemes: schemes[0],
    "union": merge_union,
    "intersect": merge_intersection,
    "monotonize": lambda schemes: monotonize(schemes[0]),
}


def _integer(text: str) -> int:
    try:
        if not (text.isascii() and text.lstrip("-").isdecimal()):  # int() also takes spaces, '_', '+' and other scripts' digits
            raise ValueError
        return int(text)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        if len(text) > limit and text.isdecimal():
            raise argparse.ArgumentTypeError(f"{text[:20] + '...'!r} has more than {limit} digits")
        raise argparse.ArgumentTypeError(f"{_cut(repr(text))} is not an integer")


def _positive_int(text: str) -> int:
    if (value := _integer(text)) < 1:
        raise argparse.ArgumentTypeError("value must be >= 1")
    return value


def _build_parser() -> argparse.ArgumentParser:
    description = "Section-theorem toolkit over finite filtered probability spaces."
    parser = argparse.ArgumentParser(prog="finsection", description=description)
    parser.add_argument("--seed", type=_integer, default=None, help="reserved for randomized workflows; no command reads it")
    parser.add_argument("--format", choices=("json", "pretty"), default="json", help="report rendering")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theta", help="evaluate the pairing bijection")
    p.add_argument("k", type=_positive_int)
    p.add_argument("m", type=_positive_int)

    sub.add_parser("validate", help="check every document invariant")

    p = sub.add_parser("section", help="run a section solver on a named set")
    p.add_argument("--kind", required=True, choices=_KINDS)
    p.add_argument("--set", required=True, dest="set_name")
    p.add_argument("--epsilon", default="0/1")
    p.add_argument("--strategy", choices=_STRATEGIES, default="souslin")

    p = sub.add_parser("classify-time", help="accessible/totally-inaccessible decomposition of a stopping time")
    p.add_argument("--time", required=True, dest="time_name")

    p = sub.add_parser("souslin", help="scheme operations on named schemes")
    p.add_argument("operation", choices=_OPERATIONS)
    p.add_argument("--scheme", required=True, action="append", dest="scheme_names")

    return parser


# built once: argparse keeps no state between parse calls
_PARSER = _build_parser()


def _nodes_text(nodes: dict, pretty: bool) -> str:
    """``nodes`` as ``json.dumps(..., sort_keys=True)`` writes it at
    ``result_scheme.nodes`` of a report, compact or at ``indent=2``.  Each
    distinct member list is encoded once, found by its identity:
    ``scheme_to_literal`` shares one list per mask, and a list that is not
    shared is only encoded again.  A key is integers joined by dots, so it
    is written as it is."""
    if not nodes:
        return "{}"
    at, inner, colon = ("\n      ", "\n        ", '": ') if pretty else ("", "", '":')  # before an entry, before a member
    values = nodes.values()
    lists = dict(zip(map(id, values), values))
    texts = {i: f"[{inner}{(',' + inner).join(map(encode_basestring_ascii, m))}{at}]" if m else "[]" for i, m in lists.items()}
    keys = sorted(nodes)
    pairs = zip(keys, map(texts.__getitem__, map(id, map(nodes.__getitem__, keys))))
    # the closing brace sits one level (two spaces) left of the entries
    return "{" + at + '"' + f',{at}"'.join(map(colon.join, pairs)) + at[:-2] + "}"


def _emit(obj, fmt: str, code: int = EXIT_OK) -> int:
    """Print the report and return ``code``.  A report that cannot be
    written (a full disk, a closed pipe, a closed stdout) is an I/O failure
    like an unreadable document: one stderr line and exit code 2.

    A ``result_scheme`` goes to ``json.dumps`` with a NaN for its nodes
    table, and :func:`_nodes_text` then writes the table in the place of
    ``"nodes":NaN``, which no other part of a report can hold (see the
    module docstring).  A report is built fresh and holds no cycle, so
    ``json.dumps`` skips its cycle check."""
    pretty = fmt == "pretty"
    scheme = obj.get("result_scheme") if type(obj) is dict else None
    if scheme is not None:
        obj = {**obj, "result_scheme": {**scheme, "nodes": float("nan")}}
    if pretty:
        text = json.dumps(obj, sort_keys=True, indent=2, check_circular=False)
    else:
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False)
    if scheme is not None:
        key = '"nodes": ' if pretty else '"nodes":'
        head, _, tail = text.partition(key + "NaN")
        text = head + key + _nodes_text(scheme["nodes"], pretty) + tail
    if sys.stdout is None:  # a process started with stdout closed (``>&-``)
        error = "stdout is closed"
    else:
        try:
            print(text, flush=True)
            return code
        except OSError as exc:
            error = exc
    print(f"cannot write report: {error}", file=sys.stderr)
    return EXIT_PARSE


def _read_document(path):
    """The document's text, from the file at ``path`` or from stdin: its
    bytes decoded as strict UTF-8, with CRLF and lone CR line ends read as
    LF, as a file opened in text mode reads them."""
    try:
        if path is None:
            if sys.stdin is None:
                raise DocumentParseError("cannot read document: stdin is closed")
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as handle:
                data = handle.read()
        text = data.decode("utf-8")
    except OSError as exc:
        raise DocumentParseError(f"cannot read document: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DocumentParseError(f"document is not UTF-8: byte {exc.object[exc.start]:#04x} at offset {exc.start}") from exc
    # the membership test is one fast scan; replace scans slowly even when nothing matches
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _lookup(table: dict, name: str, kind: str):
    if name not in table:
        raise ValueError(f"unknown {kind} {name!r}")
    return table[name]


def _theta_report(args, doc) -> int:
    value, limit = theta(args.k, args.m), sys.get_int_max_str_digits()
    if limit and value >= 10**limit:  # json cannot print an int past the interpreter's digit limit
        raise ValueError(f"theta value has more than {limit} digits")
    return value


def _validate_report(args, doc) -> dict:
    """``doc`` is the document, or the list of its violations if it has any."""
    if type(doc) is list:
        return {"status": "invalid", "violations": sorted(doc)}
    return {"status": "ok", "violations": [], "summary": {
        "atoms": len(doc.X.atoms),
        "times": doc.X.n_times,
        "sets": sorted(doc.sets),
        "named_times": sorted(doc.times),
        "schemes": sorted(doc.schemes),
    }}


def _section_report(args, doc) -> dict:
    target = _lookup(doc.sets, args.set_name, "set")
    eps = _check_epsilon(parse_rational(args.epsilon))  # every kind: measurable_section takes no epsilon, but the report prints it
    result = _KINDS[args.kind](target, doc.X, eps, _STRATEGIES[args.strategy])
    return {
        "kind": args.kind,
        "strategy": result.strategy,
        "epsilon": format_rational(eps),
        "deficit": format_rational(result.deficit),
        "time": time_to_literal(result.time),
        "trace": {
            "m_star": list(result.trace.chosen_prefix),
            "envelope_measures": [format_rational(m) for m in result.trace.envelope_measures],
        },
        "oracle_deficit": format_rational(result.trace.oracle_deficit),
    }


def _classify_report(args, doc) -> dict:
    tau = _lookup(doc.times, args.time_name, "time")
    part = classify_time(tau, doc.X)
    return {
        "time": time_to_literal(tau),
        "ti_part": time_to_literal(part.ti_part),
        "acc_part": time_to_literal(part.acc_part),
        "cover": [time_to_literal(rho) for rho in part.cover],
        "ti_finite_mass": format_rational(doc.X.space.prob(part.ti_part.finite_support())),
        "covered": sorted(f"{atom}@{k}" for atom, k in part.acc_part.values.items() if k != INF),
    }


def _souslin_report(args, doc) -> dict:
    schemes = [_lookup(doc.schemes, name, "scheme") for name in args.scheme_names]
    op = args.operation
    if op in ("eval", "monotonize") and len(schemes) != 1:
        raise ValueError(f"souslin {op} takes exactly one scheme")
    result = _OPERATIONS[op](schemes)
    evaluated = eval_scheme(result)
    report = {
        "operation": op,
        "schemes": list(args.scheme_names),
        "eval": [e for e in result.paving.ground if e in evaluated],
        "monotone": list(check_monotone(result)),
    }
    if op != "eval":
        report["result_scheme"] = scheme_to_literal(result)
    return report


_REPORTS = {
    "theta": _theta_report,
    "validate": _validate_report,
    "section": _section_report,
    "classify-time": _classify_report,
    "souslin": _souslin_report,
}


def main(argv=None) -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv) -> int:
    # a data subcommand takes the document path as an optional trailing
    # positional, theta takes none; parse_known_args keeps it order-free
    args, extra = _PARSER.parse_known_args(argv)
    reads = args.command != "theta"
    if len(extra) > reads or (extra and extra[0].startswith("-")):
        _PARSER.error(f"unrecognized arguments: {' '.join(extra)}")

    doc, violations = None, []
    try:
        if reads:
            doc, violations = build_document(parse_document(_read_document(extra[0] if extra else None)))
    except DocumentParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if violations and args.command != "validate":
        for line in violations:
            print(f"invariant violation: {line}", file=sys.stderr)
        return EXIT_INVALID

    try:  # a document with violations is None; validate reports them
        report = _REPORTS[args.command](args, doc or violations)
    except ValueError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION

    return _emit(report, args.format, EXIT_INVALID if violations else EXIT_OK)


if __name__ == "__main__":
    raise SystemExit(main())
