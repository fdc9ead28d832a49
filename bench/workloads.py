"""Seeded document and op-list generators for the three benchmark workloads.

Everything here works on plain Python data (lists, dicts, frozensets and
``Fraction``); nothing imports ``finsection``.  The op list, the size
ladders and the shape of every document (block counts of each partition,
number of blocks or atoms drawn into each slice, scheme bounds) are fixed
per workload.  The seed draws only the contents: atom weights, which atoms
fall into which block, which blocks a set takes, and scheme node values.
So one pass over the op list costs nearly the same for every seed.

Documents are produced lazily, one at a time, so the benchmark process
never holds all of them at once and its peak memory stays the program's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Iterator

# Size ladders.  The rungs left out on purpose, with their measured cost
# at the seed commit, are listed in README.md.
SOUSLIN_ACTIVE_SLICES = (2, 3, 4, 5, 6)
SOUSLIN_ATOMS = (4, 8, 16, 32)
SOUSLIN_EPSILONS = ("0/1", "1/8", "1/4")
SOUSLIN_SETS = (("predictable", "P"), ("optional", "O"), ("accessible", "A"))

# atoms -> number of documents per grid length; more small documents than
# large ones keeps a pass short enough for several passes per run
DEBUT_ATOMS = {128: 5, 256: 3, 512: 1}
DEBUT_GRID = (16, 32)

EVAL_SHAPES = ((2, 3), (3, 3), (3, 4), (4, 4), (4, 5), (5, 5), (6, 5))
MERGE_SHAPES = ((2, 2), (2, 3), (3, 3), (3, 4))
MONOTONIZE_SHAPES = ((2, 3), (3, 3), (3, 4), (4, 3))
SCHEME_GROUND = 8
SCHEME_VARIANTS = 3


@dataclass(frozen=True)
class Op:
    """One CLI call: ``argv`` without the document path and the document it
    reads.  Every op must exit with code 0."""

    op_id: int
    argv: tuple
    doc: str


@dataclass(frozen=True)
class Workload:
    name: str
    documents: Callable[[], Iterator[tuple[str, dict]]]
    ops: list


def _fmt(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _weights(rng, n):
    raw = [rng.randint(0, 4) for _ in range(n)]
    if not any(raw):
        raw[rng.randrange(n)] = 1
    total = sum(raw)
    return [_fmt(Fraction(x, total)) for x in raw]


def _grid(rng, n):
    labels, t = [], Fraction(0)
    for _ in range(n):
        labels.append(_fmt(t))
        t += Fraction(rng.randint(1, 3), 2)
    return labels


def _filtration(rng, n_atoms, n_times, final_blocks):
    """Refining partitions (lists of atom-index lists) from one block at step
    0 to ``final_blocks`` at the last step, growing linearly by halving the
    largest blocks.  The seed only decides which atoms share a block."""
    order = list(range(n_atoms))
    rng.shuffle(order)
    parts = [[order]]
    for k in range(1, n_times):
        target = 1 + round(k * (final_blocks - 1) / max(n_times - 1, 1))
        blocks = sorted(parts[-1], key=len, reverse=True)
        splits = min(target - len(blocks), sum(len(b) > 1 for b in blocks))
        nxt = []
        for i, block in enumerate(blocks):
            if i < splits:
                half = len(block) // 2
                nxt.extend([block[:half], block[half:]])
            else:
                nxt.append(block)
        parts.append(nxt)
    return parts


def _discrete_from_one(n_atoms, n_times):
    trivial = [list(range(n_atoms))]
    discrete = [[i] for i in range(n_atoms)]
    return [trivial] + [discrete] * (n_times - 1)


def _union(blocks):
    out = set()
    for b in blocks:
        out.update(b)
    return frozenset(out)


def _pick(rng, blocks, share, at_least=0):
    """Union of a fixed number of randomly chosen blocks."""
    count = min(len(blocks), max(at_least, round(share * len(blocks))))
    return _union(rng.sample(blocks, count))


def _lookback(parts, k):
    return parts[max(k - 1, 0)]


def _thin_slice(rng, parts, k, taken):
    """Cells measurable at sigma_k that fill no lookback block outside
    ``taken``, so they add to the thin remainder of an optional set and
    never to its predictable part."""
    thin = set()
    for lookback_block in _lookback(parts, k):
        key = frozenset(lookback_block)
        inner = [b for b in parts[k] if key.issuperset(b)]
        if key & taken or len(inner) < 2 or rng.random() < 0.5:
            continue
        thin |= _union(rng.sample(inner, rng.randint(1, len(inner) - 1)))
    return frozenset(thin)


def _cells(slices, atom_names):
    return [[atom_names[a], k] for k in sorted(slices) for a in sorted(slices[k])]


def _base_document(rng, n_atoms, parts, n_times):
    names = [f"w{i + 1}" for i in range(n_atoms)]
    return names, {
        "space": {"atoms": names, "probs": _weights(rng, n_atoms)},
        "grid": _grid(rng, n_times),
        "filtration": [[[names[a] for a in sorted(b)] for b in p] for p in parts],
    }


# ------------------------------------------------------------ section-souslin

def _souslin_document(rng, r, rung, n_atoms):
    """Sets P (predictable), O and A (optional) whose largest predictable
    parts each have exactly r nonempty slices.  Even rungs use the
    filtration that is discrete from step 1, odd rungs a random one."""
    n_times = r + rung % 3
    if rung % 2 == 0:
        parts = _discrete_from_one(n_atoms, n_times)
    else:
        parts = _filtration(rng, n_atoms, n_times, n_atoms)
    names, doc = _base_document(rng, n_atoms, parts, n_times)
    sets = {}
    for _, set_name in SOUSLIN_SETS:
        active = set(rng.sample(range(n_times), r))
        slices = {}
        for k in range(n_times):
            taken = _pick(rng, _lookback(parts, k), 0.5, at_least=1) if k in active else frozenset()
            if set_name != "P":
                taken |= _thin_slice(rng, parts, k, taken)
            if taken:
                slices[k] = taken
        sets[set_name] = _cells(slices, names)
    doc["sets"] = sets
    return doc


def section_souslin(seed: int) -> Workload:
    """Section solvers on the default souslin strategy, laddered in the
    number r of active slices of the set's largest predictable part."""
    ops = [
        (f"r{r}-n{n}", ("section", "--kind", kind, "--set", set_name, "--epsilon", eps))
        for r in SOUSLIN_ACTIVE_SLICES
        for n in SOUSLIN_ATOMS
        for kind, set_name in SOUSLIN_SETS
        for eps in SOUSLIN_EPSILONS
    ]

    def documents():
        rng = random.Random(f"section-souslin:{seed}")
        for r in SOUSLIN_ACTIVE_SLICES:
            for rung, n_atoms in enumerate(SOUSLIN_ATOMS):
                yield f"r{r}-n{n_atoms}", _souslin_document(rng, r, rung, n_atoms)

    return Workload("section-souslin", documents, _interleave(ops))


# ----------------------------------------------------------------- debut-wide

def _debut_document(rng, n_atoms, n_times):
    """Sets P (predictable), O and A (optional), M (arbitrary) and the
    stopping time tau, each slice drawing a fixed share of the blocks."""
    parts = _filtration(rng, n_atoms, n_times, n_atoms // 8)
    names, doc = _base_document(rng, n_atoms, parts, n_times)
    ks = range(n_times)
    tau = {}
    for k in ks:
        for a in _pick(rng, parts[k], 0.15):
            tau.setdefault(a, k)
    doc["sets"] = {
        "P": _cells({k: _pick(rng, _lookback(parts, k), 0.3) for k in ks}, names),
        "O": _cells({k: _pick(rng, parts[k], 0.3) for k in ks}, names),
        "A": _cells({k: _pick(rng, parts[k], 0.2) for k in ks}, names),
        "M": _cells({k: frozenset(rng.sample(range(n_atoms), n_atoms // 5)) for k in ks}, names),
    }
    doc["times"] = {"tau": {names[a]: tau.get(a, "inf") for a in range(n_atoms)}}
    return doc


def debut_wide(seed: int) -> Workload:
    """Large spaces on the debut strategy, plus validate, measurable sections
    and classify-time: no Souslin scheme is ever built."""
    per_document = [
        ("validate",),
        *(
            ("section", "--kind", kind, "--set", set_name, "--epsilon", "1/8", "--strategy", "debut")
            for kind, set_name in (("predictable", "P"), ("optional", "O"), ("accessible", "A"))
        ),
        ("section", "--kind", "measurable", "--set", "M"),
        ("classify-time", "--time", "tau"),
    ]
    shapes = [(v, n, t) for n, copies in DEBUT_ATOMS.items() for v in range(copies) for t in DEBUT_GRID]
    ops = [(f"n{n}-t{t}-v{v}", argv) for v, n, t in shapes for argv in per_document]

    def documents():
        rng = random.Random(f"debut-wide:{seed}")
        for v, n_atoms, n_times in shapes:
            yield f"n{n_atoms}-t{n_times}-v{v}", _debut_document(rng, n_atoms, n_times)

    return Workload("debut-wide", documents, _interleave(ops))


# ------------------------------------------------------------- scheme-algebra

def _lattice_paving(rng):
    """The empty set plus ``{core} | A_i | B_j`` for every prefix A_i of one
    chain of elements and B_j of another: closed under unions and
    intersections, and every nonempty member holds ``core``, so no
    intersection along a branch is ever empty and the work of each op is
    set by its shape, not by the draw.  The seed relabels the elements.
    Returns (ground, paving, uncovered), where ``uncovered`` tops chain B."""
    labels = [f"e{i + 1}" for i in range(SCHEME_GROUND)]
    ground = list(labels)
    rng.shuffle(labels)
    core, chain_a, chain_b = labels[0], labels[1:4], labels[4:]
    paving = [frozenset()] + [
        frozenset([core, *chain_a[:i], *chain_b[:j]])
        for i in range(len(chain_a) + 1)
        for j in range(len(chain_b) + 1)
    ]
    return ground, paving, chain_b[-1]


def _indices(depth, branching):
    out, level = [], [()]
    for _ in range(depth):
        level = [i + (j,) for i in level for j in range(1, branching + 1)]
        out.extend(level)
    return out


def _scheme_literal(rng, ground, paving, uncovered, depth, branching, saturate):
    """Random literal scheme.  A saturating scheme leaves the all-ones branch
    at the full ground set, so evaluation stops after one branch; otherwise
    every depth-1 node misses ``uncovered`` and evaluation reads all
    branching**depth branches."""
    values = [m for m in paving if m]
    below = [m for m in values if uncovered not in m]
    nodes = {}
    for index in _indices(depth, branching):
        if saturate and all(e == 1 for e in index):
            continue
        if not saturate and len(index) == 1:
            value = rng.choice(below)
        elif rng.random() < 0.5:
            continue
        else:
            value = rng.choice(values)
        nodes[".".join(map(str, index))] = sorted(value)
    return {
        "ground_set": list(ground),
        "paving": [sorted(m) for m in paving],
        "depth": depth,
        "branching": branching,
        "nodes": nodes,
    }


def _scheme_plan():
    """(document name, saturating?, scheme name -> shape, argvs) per document."""
    plan = []
    merges = [("souslin", op, "--scheme", "A", "--scheme", "B") for op in ("union", "intersect")]
    for variant, saturate in product(range(SCHEME_VARIANTS), (True, False)):
        tag = f"{'sat' if saturate else 'unc'}{variant}"
        for d, b in EVAL_SHAPES:
            plan.append((f"eval-{tag}-{d}x{b}", saturate, {"S": (d, b)}, [("souslin", "eval", "--scheme", "S")]))
        for d, b in MERGE_SHAPES:
            plan.append((f"merge-{tag}-{d}x{b}", saturate, {"A": (d, b), "B": (d, b)}, merges))
        for d, b in MONOTONIZE_SHAPES:
            plan.append((f"mono-{tag}-{d}x{b}", saturate, {"S": (d, b)}, [("souslin", "monotonize", "--scheme", "S")]))
    return plan


def scheme_algebra(seed: int) -> Workload:
    """souslin eval / union / intersect / monotonize on literal schemes."""
    plan = _scheme_plan()
    ops = [(name, argv) for name, _, _, argvs in plan for argv in argvs]

    def documents():
        rng = random.Random(f"scheme-algebra:{seed}")
        for name, saturate, shapes, _ in plan:
            ground, paving, uncovered = _lattice_paving(rng)
            schemes = {
                s: _scheme_literal(rng, ground, paving, uncovered, d, b, saturate)
                for s, (d, b) in shapes.items()
            }
            yield name, {
                "space": {"atoms": ["w1"], "probs": ["1/1"]},
                "grid": ["0/1"],
                "filtration": [[["w1"]]],
                "schemes": schemes,
            }

    return Workload("scheme-algebra", documents, _interleave(ops))


def _interleave(pairs):
    """Fixed op order that spreads every rung evenly over the pass (a
    bit-reversal permutation), so each stretch of a pass has the mix."""
    n = len(pairs)
    bits = max(1, (n - 1).bit_length())
    order = sorted(range(1 << bits), key=lambda i: int(f"{i:0{bits}b}"[::-1], 2))
    ranked = [i for i in order if i < n]
    return [Op(op_id, argv, doc) for op_id, (doc, argv) in enumerate(pairs[i] for i in ranked)]


WORKLOADS = {
    "section-souslin": section_souslin,
    "debut-wide": debut_wide,
    "scheme-algebra": scheme_algebra,
}
