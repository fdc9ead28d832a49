"""The document loader derives each filtration step from the one before: a
block written as the same atom array as one of the previous step's blocks
is that step's frozenset, and only the other blocks are built and checked.
These tests hold it to the per-partition check (a plain ``SigmaAlgebra``
per step, then ``_filtration_faults``) on refining chains from
``tests/gen.py`` and on mutated ones, and guard the sharing and the memory
it buys on a large seeded filtration.  The checks of time values are
pinned to their per-value messages."""

import copy
import json
import math
import random
import tracemalloc
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsection import INF, RandomTime, SigmaAlgebra, is_stopping_time
from finsection.document import build_document, time_from_literal, time_to_literal
from finsection.filtered import _filtration_faults
from gen import fix_b, oracle_refines, random_partition, random_refinement

ATOMS = tuple(f"w{i}" for i in range(1, 9))


def document(atoms, parts):
    """A JSON round trip, so no two atom arrays are one list object."""
    n = len(atoms)
    doc = {
        "space": {"atoms": list(atoms), "probs": [f"1/{n}"] * n},
        "grid": [str(k) for k in range(len(parts))],
        "filtration": parts,
    }
    return json.loads(json.dumps(doc))


def per_partition(doc):
    """(partitions, violation lines) of the check that builds every step on
    its own; the partitions are None when any line is found."""
    lines, sigmas = [], []
    for k, part in enumerate(doc["filtration"]):
        try:
            sigmas.append(SigmaAlgebra(tuple(frozenset(b) for b in part)))
        except ValueError as exc:
            lines.append(f"filtration[{k}]: {exc}")
    if lines:
        return None, lines
    lines = _filtration_faults(frozenset(doc["space"]["atoms"]), sigmas)
    return (None if lines else sigmas), lines


@st.composite
def chains(draw):
    """Atoms and a refining chain of partitions, each block written as its
    sorted atoms, so a block kept from one step to the next is written as
    the same array."""
    rng = draw(st.randoms(use_true_random=False))
    atoms = ATOMS[: draw(st.integers(1, len(ATOMS)))]
    sigmas = [random_partition(rng, atoms)]
    for _ in range(draw(st.integers(0, 4))):
        sigmas.append(random_refinement(rng, sigmas[-1]))
    return atoms, [[sorted(b) for b in s.blocks] for s in sigmas]


# ------------------------------------------------------------- mutations
# Each takes a random generator and the chain's parts and changes one step
# in place.  A step's kept blocks are the arrays also written one step
# earlier; the others are new.


def _step(rng, parts):
    k = rng.randrange(len(parts))
    kept = [b for b in parts[k] if k and b in parts[k - 1]]
    new = [b for b in parts[k] if b not in kept]
    return parts[k], kept, new


def reorder_blocks(rng, parts):
    rng.shuffle(_step(rng, parts)[0])


def reorder_atoms(rng, parts):
    rng.choice(_step(rng, parts)[0]).reverse()


def repeat_kept_block(rng, parts):
    part, kept, _ = _step(rng, parts)
    part.append(list(rng.choice(kept or part)))


def repeat_new_block(rng, parts):
    part, _, new = _step(rng, parts)
    part.append(list(rng.choice(new or part)))


def merge_two_blocks(rng, parts):
    part = _step(rng, parts)[0]
    if len(part) > 1:
        i, j = sorted(rng.sample(range(len(part)), 2))
        part[i] = sorted(part[i] + part.pop(j))


def move_atom_across(rng, parts):
    part, kept, new = _step(rng, parts)
    if kept and new:
        pair = [rng.choice(kept), rng.choice(new)]
        rng.shuffle(pair)
    elif len(part) > 1:
        pair = rng.sample(part, 2)
    else:
        return
    source, target = pair
    if source:
        target.append(source.pop(rng.randrange(len(source))))


def drop_atom(rng, parts):
    blocks = [b for b in _step(rng, parts)[0] if b]
    if blocks:
        block = rng.choice(blocks)
        block.pop(rng.randrange(len(block)))


def swap_atom_across(rng, parts):
    """A new block takes an atom of another block in place of one of its
    own, so the block sizes still add up."""
    part, _, new = _step(rng, parts)
    target = rng.choice(new or part)
    others = [b for b in part if b is not target and b]
    if target and others:
        target[rng.randrange(len(target))] = rng.choice(rng.choice(others))


def drop_block(rng, parts):
    part = _step(rng, parts)[0]
    if len(part) > 1:
        part.pop(rng.randrange(len(part)))


def add_unknown_atom(rng, parts):
    rng.choice(_step(rng, parts)[0]).append("zz")


def add_empty_block(rng, parts):
    part = _step(rng, parts)[0]
    part.insert(rng.randint(0, len(part)), [])


def repeat_step(rng, parts):
    """Step k becomes a copy of step k - 1's literal, which a later
    mutation may break on either side."""
    if len(parts) > 1:
        k = rng.randrange(1, len(parts))
        parts[k] = copy.deepcopy(parts[k - 1])


MUTATIONS = [
    reorder_blocks,
    reorder_atoms,
    repeat_kept_block,
    repeat_new_block,
    merge_two_blocks,
    move_atom_across,
    swap_atom_across,
    drop_atom,
    drop_block,
    add_unknown_atom,
    add_empty_block,
    repeat_step,
]


@settings(max_examples=400, deadline=None)
@given(chains(), st.lists(st.sampled_from(MUTATIONS), max_size=3), st.randoms(use_true_random=False))
def test_derived_filtration_equals_the_per_partition_check(chain, mutations, rng):
    atoms, parts = chain
    parts = copy.deepcopy(parts)
    for mutate in mutations:
        mutate(rng, parts)
    doc = document(atoms, parts)
    sigmas, lines = per_partition(doc)
    built, violations = build_document(doc)
    assert violations == lines
    if sigmas is None:
        assert built is None
        return
    filtration = built.X.filtration
    for k, (got, want) in enumerate(zip(filtration, sigmas, strict=True)):
        assert got.blocks == want.blocks
        assert got.universe == want.universe
        assert got._block_of == {a: blk for blk in got.blocks for a in blk}
        if k:
            assert oracle_refines(got, filtration[k - 1])
            for b in doc["filtration"][k]:
                if b in doc["filtration"][k - 1]:
                    shared = next(blk for blk in got.blocks if b[0] in blk)
                    assert any(shared is blk for blk in filtration[k - 1].blocks)


@pytest.mark.parametrize(
    "before, after",
    [
        # the block's owner is looked up by one of its atoms, g only now and then
        pytest.param(
            [list("abcdef"), ["g", "h"]], [list("abcdeg"), ["g", "h"]], id="new-block-takes-an-atom-of-a-kept-one"
        ),
        pytest.param([["a", "b", "c"]], [["a", "b"], ["a"]], id="new-blocks-overlap"),
        pytest.param([["a"], ["b"], ["c", "d"]], [["a"], ["a"], ["c"], ["d"]], id="kept-block-twice-one-dropped"),
        pytest.param([["a", "b"], ["c", "d"]], [["a", "b"], ["b"], ["c", "d"]], id="new-block-inside-a-kept-one"),
        pytest.param([["a", "b"], ["c", "d"]], [["a", "b"], ["b", "a"]], id="kept-block-rewritten-one-dropped"),
        pytest.param([["a", "b"], ["c", "d"]], [["a", "b"], ["c", "zz"]], id="unknown-atom"),
        pytest.param([["a", "b"], ["c", "d"]], [["a"], ["b"], [], ["c", "d"]], id="empty-block"),
        pytest.param([["a", "b"], ["c", "d"]], [["a"], ["c", "d"]], id="dropped-atom"),
        pytest.param([["a", "b"], ["c", "d"]], [], id="no-block"),
        pytest.param([["a", "b"], ["c", "d"]], [["a", "b", "c", "d"]], id="merged"),
    ],
)
def test_each_refused_split_gets_the_per_partition_lines(before, after):
    doc = document(sorted({a for b in before for a in b}), [before, after])
    lines = per_partition(doc)[1]
    assert lines
    assert build_document(doc) == (None, lines)


# --------------------------------------------------------- repeated steps


def test_a_repeated_step_is_the_step_before():
    parts = [[list("abcd")], [["a", "b"], ["c", "d"]], [["a", "b"], ["c", "d"]], [["a", "b"], ["c", "d"]]]
    built, violations = build_document(document("abcd", parts))
    assert violations == []
    filtration = built.X.filtration
    assert filtration[0] is not filtration[1]
    assert all(filtration[k] is filtration[1] for k in range(1, len(parts)))


@pytest.mark.parametrize(
    "parts",
    [
        pytest.param([[list("abcd")], [["a", "b"], ["b", "c", "d"]], [["a", "b"], ["b", "c", "d"]]], id="overlap"),
        pytest.param([[["a", "b"], []], [["a", "b"], []], [["a", "b"], []]], id="empty-block-from-step-0"),
        pytest.param([[list("abcd")], [list("abcz")], [list("abcz")]], id="unknown-atom"),
        pytest.param([[list("abcz")], [list("abcz")], [["a"], ["b", "c", "z"]]], id="unknown-atom-from-step-0"),
    ],
)
def test_a_repeated_invalid_step_gets_one_line_per_step(parts):
    doc = document("abcd", parts)
    lines = per_partition(doc)[1]
    assert len(lines) >= 2
    assert build_document(doc) == (None, lines)


# ------------------------------------------------------ sharing and memory

N_ATOMS, N_STEPS, SPLITS_PER_STEP = 2048, 128, 4
MEMORY_BUDGET_MB = 16


def large_filtration_document():
    """2048 atoms, 128 steps: one block at step 0, then each step halves the
    four largest blocks and writes every other block as it was."""
    rng = random.Random(20231018)
    atoms = [f"w{i}" for i in range(N_ATOMS)]
    order = list(atoms)
    rng.shuffle(order)
    parts = [[order]]
    for _ in range(N_STEPS - 1):
        blocks = sorted(parts[-1], key=len, reverse=True)
        step = []
        for i, block in enumerate(blocks):
            if i < SPLITS_PER_STEP and len(block) > 1:
                step.extend([block[: len(block) // 2], block[len(block) // 2 :]])
            else:
                step.append(block)
        parts.append(step)
    return document(atoms, [[sorted(b) for b in part] for part in parts])


def test_unchanged_blocks_are_shared_and_the_load_stays_small():
    doc = large_filtration_document()
    tracemalloc.start()
    try:
        built, violations = build_document(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert violations == []
    filtration = built.X.filtration
    for before, after in zip(filtration, filtration[1:]):
        old = {b: b for b in before.blocks}
        for block in after.blocks:
            assert old.get(block, block) is block
    # one frozenset per distinct atom array in the document
    written = {tuple(b) for part in doc["filtration"] for b in part}
    assert len({id(b) for sigma in filtration for b in sigma.blocks}) == len(written)
    assert peak < MEMORY_BUDGET_MB * 2**20, f"build_document peak {peak / 2**20:.1f} MB"


# ------------------------------------------------------------ time values


@pytest.mark.parametrize(
    "value, message",
    [
        (True, "bad time value True for atom 'w1'"),
        (3.0, "bad time value 3.0 for atom 'w1'"),
        (-1, "bad time value -1 for atom 'w1'"),
        (math.nan, "bad time value nan for atom 'w1'"),
        (-math.inf, "bad time value -inf for atom 'w1'"),
    ],
)
def test_random_time_refuses_a_bad_value_by_name(value, message):
    with pytest.raises(ValueError) as exc:
        RandomTime({"w0": 0, "w1": value, "w2": INF, "w3": -2})
    assert str(exc.value) == message


def test_random_time_stores_any_infinite_value_as_inf():
    tau = RandomTime({"w1": float("inf"), "w2": 2, "w3": INF})
    assert tau.values == {"w1": INF, "w2": 2, "w3": INF}


# any value equal to INF is infinite, and every reader compares with != INF
@pytest.mark.parametrize("infinite", [float("inf"), Decimal("Infinity")], ids=["float", "decimal"])
def test_a_time_built_with_another_infinite_value_reads_as_infinite(infinite):
    tau = RandomTime({"w1": 1, "w2": 1, "w3": infinite, "w4": math.inf})
    assert tau.finite_support() == {"w1", "w2"}
    assert is_stopping_time(tau, fix_b())
    assert time_to_literal(tau) == {"w1": 1, "w2": 1, "w3": "inf", "w4": "inf"}


@pytest.mark.parametrize(
    "value, message",
    [
        (True, "bad time value True for atom 'w1'"),
        (3.0, "bad time value 3.0 for atom 'w1'"),
        ("Inf", "bad time value 'Inf' for atom 'w1'"),
        (None, "bad time value None for atom 'w1'"),
        (-1, "bad time value -1 for atom 'w1'"),
    ],
)
def test_time_literal_refuses_a_bad_value_by_name(value, message):
    with pytest.raises(ValueError) as exc:
        time_from_literal({"w0": "inf", "w1": value, "w2": 1}, ("w0", "w1", "w2"))
    assert str(exc.value) == message


def test_time_literal_reads_inf_and_indices():
    tau = time_from_literal({"w0": "inf", "w1": 0, "w2": 1}, ("w2", "w1", "w0"))
    assert tau.values == {"w0": INF, "w1": 0, "w2": 1}
    assert tau.values["w0"] is INF
