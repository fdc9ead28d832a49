import random
import re
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsection import (
    Paving,
    SouslinScheme,
    check_monotone,
    empty_scheme,
    eval_scheme,
    merge_intersection,
    merge_union,
    monotonize,
    theta,
    theta_inv,
)

from finsection.souslin import scheme_from_literal, scheme_to_literal
from gen import closure_under_ops, oracle_eval, oracle_index_of_key, oracle_key_of_index

GROUND3 = ("1", "2", "3")


def all_subsets_paving(ground):
    members = []
    for bits in range(1 << len(ground)):
        members.append([e for i, e in enumerate(ground) if bits >> i & 1])
    return Paving.from_sets(ground, members)


def make_scheme(paving, depth, branching, assignments):
    nodes = {idx: paving.mask_of(elems) for idx, elems in assignments.items()}
    return SouslinScheme(paving, depth, branching, nodes)


def eval_of(scheme):
    return eval_scheme(scheme)


def oracle_eval_of(scheme):
    nodes = {idx: scheme.paving.set_of(mask) for idx, mask in scheme.nodes.items()}
    return oracle_eval(scheme.paving.ground, nodes, scheme.depth, scheme.branching)


def random_scheme(rng, paving, max_depth=3, max_branching=3):
    depth = rng.randint(1, max_depth)
    branching = rng.randint(1, max_branching)
    nodes = {}
    masks = list(paving.member_masks)
    for length in range(1, depth + 1):
        for idx in product(range(1, branching + 1), repeat=length):
            if rng.random() < 0.85:
                nodes[idx] = rng.choice(masks)
    return SouslinScheme(paving, depth, branching, nodes)


# ------------------------------------------------------------------ theta

def test_theta_footnote_values():
    assert theta(1, 1) == 1
    assert theta(2, 1) == 2
    assert theta(1, 2) == 3
    assert theta(2, 2) == 4
    assert theta(3, 1) == 5
    assert theta(3, 2) == 6
    assert theta(1, 3) == 7
    assert theta(2, 3) == 8
    assert theta(3, 3) == 9


def test_theta_rejects_nonpositive():
    with pytest.raises(ValueError):
        theta(0, 1)
    with pytest.raises(ValueError):
        theta_inv(0)


def theta_inv_by_enumeration(n):
    # independent oracle: scan the square of side ceil(sqrt(n)) + 1
    side = 1
    while side * side < n:
        side += 1
    for k in range(1, side + 2):
        for m in range(1, side + 2):
            if theta(k, m) == n:
                return (k, m)
    raise AssertionError(f"no preimage for {n}")


def test_theta_inv_matches_enumeration_oracle():
    assert theta_inv(1) == (1, 1)
    assert theta_inv_by_enumeration(5) == (3, 1)
    assert theta_inv(5) == (3, 1)
    assert theta_inv_by_enumeration(9) == (3, 3)
    assert theta_inv(9) == (3, 3)
    for n in range(1, 400):
        assert theta_inv(n) == theta_inv_by_enumeration(n)


@given(st.integers(min_value=1, max_value=10**6))
def test_theta_roundtrip(n):
    assert theta(*theta_inv(n)) == n


@given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=500))
@settings(max_examples=200)
def test_theta_strictly_increasing_per_coordinate(k, m):
    assert theta(k + 1, m) > theta(k, m)
    assert theta(k, m + 1) > theta(k, m)


# ------------------------------------------------------------- evaluation

def test_eval_depth_one_union():
    paving = all_subsets_paving(GROUND3)
    s = make_scheme(paving, 1, 2, {(1,): ["1"], (2,): ["2"]})
    assert eval_of(s) == {"1", "2"}


def test_eval_single_branch_intersection():
    paving = all_subsets_paving(GROUND3)
    s = make_scheme(paving, 2, 1, {(1,): ["1", "2"], (1, 1): ["2", "3"]})
    assert eval_of(s) == {"2"}


def test_eval_matches_bruteforce_on_random_schemes():
    rng = random.Random(20260810)
    for size in (2, 3, 4, 6):
        paving = all_subsets_paving(tuple(str(i) for i in range(size)))
        for _ in range(120):
            s = random_scheme(rng, paving)
            assert eval_of(s) == oracle_eval_of(s)


def test_eval_truncation_agrees_with_deep_oracle():
    # sequences deeper than the bound repeat the deepest prefix value, so a
    # depth-extended oracle run must produce the same set
    rng = random.Random(7)
    paving = all_subsets_paving(GROUND3)
    for _ in range(60):
        s = random_scheme(rng, paving, max_depth=2, max_branching=2)
        nodes = {idx: s.paving.set_of(mask) for idx, mask in s.nodes.items()}
        deep = {}
        for branch in product(range(1, s.branching + 1), repeat=s.depth + 2):
            for k in range(1, s.depth + 3):
                key = branch[:k]
                deep[key] = nodes.get(key[: s.depth], frozenset(s.paving.ground))
        assert eval_of(s) == oracle_eval(s.paving.ground, deep, s.depth + 2, s.branching)
        # node() reads the same values: an index longer than the depth reads
        # its depth-long prefix, and an entry above the branching bound
        # reads the key with that entry clamped to the bound
        for key, cells in deep.items():
            above = tuple(e + 3 if e == s.branching else e for e in key)
            assert s.paving.set_of(s.node(key)) == s.paving.set_of(s.node(above)) == cells


def test_eval_deep_single_branch_literal_matches_oracle():
    # one branch of depth 3000: the walk keeps its own stack, so a depth far
    # past the recursion limit evaluates, and each prefix is intersected once
    depth = 3000
    literal = {
        "ground_set": list(GROUND3),
        "paving": [["1", "2"], ["2", "3"], ["2"]],
        "depth": depth,
        "branching": 1,
        "nodes": {"1": ["1", "2"], ".".join(["1"] * 1500): ["1", "2"], ".".join(["1"] * depth): ["2", "3"]},
    }
    s = scheme_from_literal(literal)
    nodes = {idx: s.paving.set_of(mask) for idx, mask in s.nodes.items()}
    assert eval_of(s) == oracle_eval(s.paving.ground, nodes, depth, 1) == {"2"}


def test_eval_past_the_stored_keys_matches_oracle():
    # bounds above the longest stored key and the largest stored entry: the
    # walk stops at that key's length and at the entry above the largest
    rng = random.Random(31)
    paving = all_subsets_paving(GROUND3)
    for _ in range(150):
        s = random_scheme(rng, paving, max_depth=2, max_branching=2)
        wide = SouslinScheme(paving, s.depth + rng.randint(0, 2), s.branching + rng.randint(0, 2), s.nodes)
        assert eval_of(wide) == oracle_eval_of(wide)


def test_eval_monotone_in_branching_bound():
    rng = random.Random(99)
    paving = all_subsets_paving(GROUND3)
    for _ in range(80):
        s = monotonize(random_scheme(rng, paving, max_depth=2, max_branching=2))
        raised = SouslinScheme(s.paving, s.depth, s.branching + 1, s.nodes)
        assert eval_of(s) <= eval_of(raised)


# ----------------------------------------------------------------- merges

def test_merge_union_singleton_preserves_eval():
    paving = all_subsets_paving(GROUND3)
    s = make_scheme(paving, 2, 2, {(1,): ["1", "2"], (1, 1): ["1"]})
    assert eval_of(merge_union([s])) == eval_of(s)


def test_merge_union_disjoint_depth_one():
    paving = all_subsets_paving(GROUND3)
    s1 = make_scheme(paving, 1, 1, {(1,): ["1"]})
    s2 = make_scheme(paving, 1, 1, {(1,): ["2"]})
    assert eval_of(merge_union([s1, s2])) == {"1", "2"}


def test_merge_intersection_singleton_preserves_eval():
    paving = all_subsets_paving(GROUND3)
    s = make_scheme(paving, 2, 2, {(1,): ["1", "2"], (2, 1): ["3"]})
    assert eval_of(merge_intersection([s])) == eval_of(s)


def test_merge_intersection_depth_one():
    paving = all_subsets_paving(GROUND3)
    s1 = make_scheme(paving, 1, 1, {(1,): ["1", "2"]})
    s2 = make_scheme(paving, 1, 1, {(1,): ["2", "3"]})
    assert eval_of(merge_intersection([s1, s2])) == {"2"}


def test_merges_against_bruteforce_random_pairs():
    rng = random.Random(424242)
    for size in (3, 6):
        paving = all_subsets_paving(tuple(str(i) for i in range(size)))
        for _ in range(500):
            s1 = random_scheme(rng, paving, max_depth=2, max_branching=2)
            s2 = random_scheme(rng, paving, max_depth=2, max_branching=2)
            want_union = oracle_eval_of(s1) | oracle_eval_of(s2)
            want_inter = oracle_eval_of(s1) & oracle_eval_of(s2)
            assert eval_of(merge_union([s1, s2])) == want_union
            assert eval_of(merge_intersection([s1, s2])) == want_inter


def test_merge_triple_lists():
    rng = random.Random(5)
    paving = all_subsets_paving(GROUND3)
    for _ in range(40):
        schemes = [random_scheme(rng, paving, max_depth=2, max_branching=2) for _ in range(3)]
        evals = [oracle_eval_of(s) for s in schemes]
        assert eval_of(merge_union(schemes)) == evals[0] | evals[1] | evals[2]
        assert eval_of(merge_intersection(schemes)) == evals[0] & evals[1] & evals[2]


def test_empty_merge_is_refused():
    for merge in (merge_union, merge_intersection):
        with pytest.raises(ValueError, match="^a merge needs at least one scheme$"):
            merge([])


def test_merge_rejects_mixed_pavings():
    p1 = all_subsets_paving(GROUND3)
    p2 = all_subsets_paving(("1", "2"))
    s1 = make_scheme(p1, 1, 1, {(1,): ["1"]})
    s2 = make_scheme(p2, 1, 1, {(1,): ["1"]})
    with pytest.raises(ValueError):
        merge_union([s1, s2])


# ------------------------------------------------------------- monotonize

def test_monotonize_fixed_example():
    paving = all_subsets_paving(GROUND3)
    s = make_scheme(
        paving, 2, 2, {(1,): ["1"], (2,): ["2"], (1, 1): ["1"], (2, 1): ["2"]}
    )
    out = monotonize(s)
    assert eval_of(out) == eval_of(s) == {"1", "2"}
    assert check_monotone(out) == (True, True)
    # frozen expectations computed with the dominated-union definition
    assert paving.set_of(out.node((1,))) == {"1"}
    assert paving.set_of(out.node((2,))) == {"1", "2"}
    assert paving.set_of(out.node((2, 1))) == {"1", "2"}


def test_monotonize_keeps_already_monotone_eval():
    paving = all_subsets_paving(GROUND3)
    s = make_scheme(paving, 2, 2, {})  # constant full scheme is monotone
    out = monotonize(s)
    assert eval_of(out) == eval_of(s) == set(GROUND3)
    assert check_monotone(out) == (True, True)


def test_monotonize_preserves_eval_on_random_closed_pavings():
    rng = random.Random(1234)
    for trial in range(1000):
        size = rng.randint(2, 5)
        ground = tuple(str(i) for i in range(size))
        if trial % 2:
            paving = all_subsets_paving(ground)
        else:
            seeds = [frozenset(rng.sample(ground, rng.randint(0, size))) for _ in range(3)]
            paving = Paving.from_sets(ground, closure_under_ops(ground, seeds))
        assert paving.closed_under_finite_ops()
        s = random_scheme(rng, paving, max_depth=3, max_branching=2)
        out = monotonize(s)
        assert eval_of(out) == oracle_eval_of(s)
        assert check_monotone(out) == (True, True)


def test_monotonize_rejects_unclosed_paving():
    paving = Paving.from_sets(GROUND3, [["1"], ["2"]])  # union {1,2} missing
    s = make_scheme(paving, 1, 2, {(1,): ["1"], (2,): ["2"]})
    with pytest.raises(ValueError):
        monotonize(s)


def test_monotonize_checks_closure_only_within_the_pair_budget(monkeypatch):
    # members^2 pairs: a chain of m sets over m - 1 elements is closed
    import finsection.souslin as souslin_module

    def chain_scheme(members):
        ground = tuple(str(i) for i in range(members - 1))
        paving = Paving.from_sets(ground, [ground[:i] for i in range(members)])
        return make_scheme(paving, 1, 2, {(1,): ground[:1]})

    monkeypatch.setattr(souslin_module, "_PAIR_BUDGET", 16)
    s = chain_scheme(4)
    assert eval_of(monotonize(s)) == eval_of(s)
    with pytest.raises(ValueError, match=r"^monotonize: a paving of 5 members has over 16 member pairs$"):
        monotonize(chain_scheme(5))


def test_merges_and_monotonize_stop_at_the_node_budget():
    # a result of more than 2^21 index entries (Σ l * b^l over l = 1..d) is
    # refused up front
    paving = all_subsets_paving(GROUND3)
    with pytest.raises(ValueError, match="monotonize: a depth 7 x branching 8 scheme has over 2097152 index entries"):
        monotonize(make_scheme(paving, 7, 8, {(1,): ["1"]}))
    s = make_scheme(paving, 6, 8, {(1,): ["1"]})  # Σ 8^l over l <= 6 is 299,592
    # the merges' bounds: depth theta(6, 2) = 27, branching theta(8, 2) = 51
    with pytest.raises(ValueError, match="merge_intersection: a depth 27 x branching 8 "):
        merge_intersection([s, s])
    with pytest.raises(ValueError, match="merge_union: a depth 6 x branching 51 "):
        merge_union([s, s])


# ---------------------------------------------------------- check_monotone

def test_constant_scheme_is_monotone():
    paving = all_subsets_paving(GROUND3)
    s = make_scheme(paving, 2, 2, {})
    assert check_monotone(s) == (True, True)


def test_vertical_edge_detection():
    paving = all_subsets_paving(GROUND3)
    good = make_scheme(paving, 2, 1, {(1,): ["1", "2"], (1, 1): ["1"]})
    vertical, _ = check_monotone(good)
    assert vertical
    bad = make_scheme(paving, 2, 1, {(1,): ["1"], (1, 1): ["1", "2"]})
    vertical, _ = check_monotone(bad)
    assert not vertical


def test_horizontal_violation_detection():
    paving = all_subsets_paving(GROUND3)
    s = make_scheme(paving, 1, 2, {(1,): ["1", "2"], (2,): ["1"]})
    _, horizontal = check_monotone(s)
    assert not horizontal


def full_walk_monotone(s):
    """Monotonicity flags by visiting every in-bounds index and its
    children and raised neighbours."""
    b = s.branching
    vertical = all(
        not s.node(index + (j,)) & ~s.node(index)
        for length in range(1, s.depth)
        for index in product(range(1, b + 1), repeat=length)
        for j in range(1, b + 1)
    )
    horizontal = all(
        not s.node(index) & ~s.node(index[:pos] + (index[pos] + 1,) + index[pos + 1 :])
        for length in range(1, s.depth + 1)
        for index in product(range(1, b + 1), repeat=length)
        for pos in range(length)
        if index[pos] < b
    )
    return vertical, horizontal


def test_check_monotone_stored_walk_matches_full_walk():
    rng = random.Random(3003)
    seen = set()
    for size in (2, 3, 4):
        ground = tuple(str(i) for i in range(size))
        closed = all_subsets_paving(ground)
        chain = Paving.from_sets(ground, [ground[:i] for i in range(size + 1)])
        for paving in (closed, chain):
            full = paving.full_mask
            for _ in range(150):
                s = random_scheme(rng, paving)
                # store some full-valued nodes explicitly, and drop others
                nodes = {
                    idx: full if rng.random() < 0.2 else mask
                    for idx, mask in s.nodes.items()
                    if rng.random() < 0.8
                }
                for scheme in (s, SouslinScheme(paving, s.depth, s.branching, nodes), monotonize(s)):
                    flags = check_monotone(scheme)
                    assert flags == full_walk_monotone(scheme)
                    seen.add(flags)
                    raised = SouslinScheme(paving, scheme.depth, scheme.branching + 1, scheme.nodes)
                    assert check_monotone(raised) == full_walk_monotone(raised)
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_wide_sparse_literal_evaluates_and_checks_at_once():
    # 10^12 branches and indices, but one stored node: the branch through
    # (2,) reads only full nodes, and only (1,) can break monotonicity
    paving = Paving.from_sets(("a", "b"), [["a"], ["a", "b"]])
    s = make_scheme(paving, 12, 10, {(1,): ["a"]})
    assert eval_of(s) == {"a", "b"}
    assert check_monotone(s) == (False, True)


def test_literal_of_a_sparse_scheme_with_a_huge_entry_is_written_at_once():
    # the literal renders the entries it stores, not every entry up to the largest
    paving = Paving.from_sets(("a", "b"), [["a"], ["a", "b"]])
    s = SouslinScheme(paving, 2, 10**9, {(10**9,): 1, (1, 10**9 - 1): 1})
    literal = scheme_to_literal(s)
    assert literal["nodes"] == {"1000000000": ["a"], "1.999999999": ["a"]}
    assert scheme_from_literal(literal).nodes == s.nodes


# ------------------------------------------------------------- invariants

def test_scheme_validation_rejects_out_of_bounds_nodes():
    paving = all_subsets_paving(GROUND3)
    with pytest.raises(ValueError):
        SouslinScheme(paving, 1, 1, {(1, 1): 0})
    with pytest.raises(ValueError):
        SouslinScheme(paving, 1, 1, {(2,): 0})
    with pytest.raises(ValueError):
        SouslinScheme(paving, 1, 1, {(1,): 1 << len(GROUND3)})


def test_scheme_value_must_come_from_paving():
    paving = Paving.from_sets(GROUND3, [["1"]])
    with pytest.raises(ValueError):
        SouslinScheme(paving, 1, 1, {(1,): paving.mask_of(["1", "2"])})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Paving((), (0,)), "ground set must be nonempty"),
        (lambda: Paving(("a",), ()), "paving needs at least one member"),
        (lambda: Paving(("a",), (2,)), "paving member is not a subset of the ground set"),
        (lambda: Paving(("a",), (-1,)), "paving member is not a subset of the ground set"),
        (lambda: SouslinScheme(Paving(("a",), (1,)), 0, 1, {}), "depth and branching bounds must be positive"),
        (lambda: SouslinScheme(Paving(("a",), (1,)), 1, 0, {}), "depth and branching bounds must be positive"),
        (lambda: SouslinScheme(Paving(("a",), (1,)), 1, 1, {}).node(()), "scheme index must be nonempty"),
        (lambda: SouslinScheme(Paving(("a",), (1,)), 1, 1, {}).node((1, 0)), "scheme index entries must be positive"),
    ],
)
def test_paving_and_scheme_refusals_name_themselves(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_empty_scheme_evaluates_to_nothing():
    paving = Paving.from_sets(GROUND3, [["1"]])
    assert eval_of(empty_scheme(paving)) == frozenset()


# ------------------------------------------- lookup tables against the walks

def dominated_box_monotonize(s):
    """Node table of the monotone rebuild by walking, for every in-bounds
    bound h, each index tuple dominated by h and intersecting along it."""
    full = s.paving.full_mask
    nodes = {}
    for length in range(1, s.depth + 1):
        for bound in product(range(1, s.branching + 1), repeat=length):
            acc = 0
            for n in product(*(range(1, h + 1) for h in bound)):
                cur = full
                for k in range(1, length + 1):
                    cur &= s.node(n[:k])
                acc |= cur
            if acc != full:
                nodes[bound] = acc
    return nodes


def closed_paving(rng, size):
    ground = tuple(str(i) for i in range(size))
    if rng.random() < 0.5:
        return all_subsets_paving(ground)
    seeds = [frozenset(rng.sample(ground, rng.randint(0, size))) for _ in range(rng.randint(1, 3))]
    return Paving.from_sets(ground, closure_under_ops(ground, seeds))


def test_monotonize_matches_dominated_box_walk():
    rng = random.Random(5150)
    kinds = set()
    for trial in range(400):
        paving = closed_paving(rng, rng.randint(1, 4))
        s = random_scheme(rng, paving, max_depth=3, max_branching=3)
        if trial % 4 == 1:
            # saturating: the all-ones branch stays at the full set
            nodes = {idx: m for idx, m in s.nodes.items() if set(idx) != {1}}
            s = SouslinScheme(paving, s.depth, s.branching, nodes)
        elif trial % 4 == 2:
            # every stored entry sits at or below the old bound; the raised
            # indices read the full set
            s = SouslinScheme(paving, s.depth, s.branching + 1, s.nodes)
        elif trial % 4 == 3:
            # a few stored nodes under a deeper bound
            s = SouslinScheme(paving, s.depth + 1, s.branching, dict(list(s.nodes.items())[:3]))
        out = monotonize(s)
        assert (out.depth, out.branching) == (s.depth, s.branching)
        assert out.nodes == dominated_box_monotonize(s)
        assert eval_of(out) == oracle_eval_of(s)
        kinds.add(eval_of(s) == frozenset(paving.ground))
    assert kinds == {True, False}


def test_monotonize_of_a_deep_chain_is_its_running_intersection():
    # at branching 1 the only index of length l is (1,) * l, which dominates
    # nothing else, so its rebuilt node is the intersection along the chain;
    # depth 2047 writes 2,096,128 index entries, inside the budget
    rng = random.Random(2047)
    paving = all_subsets_paving(GROUND3)
    full = paving.full_mask
    masks = [m for m in paving.member_masks if m] + [full] * 40
    s = SouslinScheme(paving, 2047, 1, {(1,) * length: rng.choice(masks) for length in range(1, 2048) if rng.random() < 0.5})
    expected, running = {}, full
    for length in range(1, 2048):
        running &= s.nodes.get((1,) * length, full)
        if running != full:
            expected[(1,) * length] = running
    assert 0 < len(expected) < 2047  # the chain leaves the full set and goes on
    t0 = time.perf_counter()
    out = monotonize(s)
    elapsed = time.perf_counter() - t0
    assert out.nodes == expected
    assert elapsed < 0.5, f"monotonize at depth 2047, branching 1 took {elapsed:.2f} s"


def explicit_union_nodes(schemes):
    """merge_union's node table from its definition, one source.node read
    per in-bounds index."""
    count = len(schemes)
    depth = max(s.depth for s in schemes)
    branching = max(theta(s.branching, m) for m, s in enumerate(schemes, start=1))
    full = schemes[0].paving.full_mask
    nodes = {}
    for length in range(1, depth + 1):
        for index in product(range(1, branching + 1), repeat=length):
            first, which = theta_inv(index[0])
            mask = schemes[min(which, count) - 1].node((first,) + index[1:])
            if mask != full:
                nodes[index] = mask
    return depth, branching, nodes


def explicit_intersection_nodes(schemes):
    """merge_intersection's node table from its definition."""
    count = len(schemes)
    branching = max(s.branching for s in schemes)
    depth = max(theta(s.depth, m) for m, s in enumerate(schemes, start=1))
    full = schemes[0].paving.full_mask
    nodes = {}
    for length in range(1, depth + 1):
        level, which = theta_inv(length)
        positions = [theta(j, which) for j in range(1, level + 1)]
        for index in product(range(1, branching + 1), repeat=length):
            mask = schemes[min(which, count) - 1].node(tuple(index[p - 1] for p in positions))
            if mask != full:
                nodes[index] = mask
    return depth, branching, nodes


def test_merge_tables_match_explicit_node_construction():
    rng = random.Random(8086)
    for trial in range(300):
        paving = all_subsets_paving(tuple(str(i) for i in range(rng.randint(1, 4))))
        count = 1 + trial % 3
        schemes = [random_scheme(rng, paving, max_depth=3 - count // 3, max_branching=3) for _ in range(count)]
        evals = [oracle_eval_of(s) for s in schemes]
        union = merge_union(schemes)
        assert (union.depth, union.branching, union.nodes) == explicit_union_nodes(schemes)
        assert eval_of(union) == frozenset().union(*evals)
        if count < 3:  # three inputs push the intersection's depth to theta(d, 3)
            inter = merge_intersection(schemes)
            assert (inter.depth, inter.branching, inter.nodes) == explicit_intersection_nodes(schemes)
            assert eval_of(inter) == frozenset(paving.ground).intersection(*evals)


# ------------------------------------------------------------ literals

def test_literal_round_trip_keeps_every_node():
    rng = random.Random(77)
    paving = all_subsets_paving(("a", "b", "c"))
    for _ in range(50):
        s = random_scheme(rng, paving, max_depth=3, max_branching=12)
        literal = scheme_to_literal(s)
        back = scheme_from_literal(literal)
        assert (back.depth, back.branching, back.nodes) == (s.depth, s.branching, s.nodes)
        assert scheme_to_literal(back) == literal


class Elements(list):
    """A list subclass, as a library caller may pass for a node value."""


def test_literal_with_integer_keys_and_list_subclass_values_loads_as_its_text_form():
    text = {"ground_set": ["a", "b"], "paving": [["a"], ["a", "b"]], "depth": 2, "branching": 12, "nodes": {}}
    text["nodes"] = {"1": ["a"], "12": ["a", "b"], "2.3": ["a"], "2": []}
    loose = {**text, "nodes": {1: Elements(["a"]), 12: Elements(["a", "b"]), "2.3": Elements(["a"]), 2: Elements()}}
    want, got = scheme_from_literal(text), scheme_from_literal(loose)
    assert (got.depth, got.branching, got.nodes) == (want.depth, want.branching, want.nodes)
    assert scheme_to_literal(got) == scheme_to_literal(want)


@pytest.mark.parametrize("key", ["1_0", "١", " 1", "1 ", "01", "+1", "-0", "1.", ".1", "1..2", "", "1.02", "\ud800", "1/2", "\x00"])
def test_literal_key_must_be_the_canonical_rendering(key):
    literal = {"ground_set": ["a"], "paving": [["a"]], "depth": 2, "branching": 12, "nodes": {key: ["a"]}}
    with pytest.raises(ValueError, match="bad scheme index key"):
        scheme_from_literal(literal)


# key texts and entry texts that are not a single canonical digit 1-9
KEY_JUNK = ["10", "12", "0", "01", "-1", "+1", " 1", "\u0661", "\ud800", "", "1/2", "1.", ".1", "\x00"]


def literal_with_junk_keys(rng, branching):
    """A literal over all subsets of three elements whose canonical keys
    are mixed, in about half the literals, with KEY_JUNK as whole keys or
    as one entry of a key."""
    ground = ["a", "b", "c"]
    members = [[e for i, e in enumerate(ground) if bits >> i & 1] for bits in range(8)]
    depth = rng.randint(1, 4)
    indices = [i for n in range(1, depth + 1) for i in product(range(1, branching + 1), repeat=n)]
    keys = [oracle_key_of_index(i) for i in rng.sample(indices, min(len(indices), rng.randint(1, 12)))]
    for _ in range(rng.choice((0, 0, 1, 2))):
        junk = rng.choice(KEY_JUNK)
        if rng.random() < 0.5:
            parts = rng.choice(keys).split(".")
            parts[rng.randrange(len(parts))] = junk
            junk = ".".join(parts)
        keys.insert(rng.randint(0, len(keys)), junk)
    nodes = {key: rng.choice(members) for key in keys}
    return {"ground_set": ground, "paving": members, "depth": depth, "branching": branching, "nodes": nodes}


def outcome(build):
    try:
        return build()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("branching", [3, 9, 12])
def test_literal_keys_decode_and_encode_as_one_key_at_a_time_would(branching):
    rng = random.Random(f"literal-keys:{branching}")
    for _ in range(300):
        literal = literal_with_junk_keys(rng, branching)

        def reference():
            paving = Paving.from_sets(literal["ground_set"], literal["paving"])
            nodes = {oracle_index_of_key(k): paving.mask_of(v) for k, v in literal["nodes"].items()}
            return list(SouslinScheme(paving, literal["depth"], branching, nodes).nodes.items())

        want = outcome(reference)
        got = outcome(lambda: scheme_from_literal(literal))
        if isinstance(got, tuple):  # refused
            assert got == want, literal
            continue
        assert list(got.nodes.items()) == want, literal
        written = scheme_to_literal(got)["nodes"]
        assert list(written) == [oracle_key_of_index(i) for i in got.nodes]
        assert written == literal["nodes"]


@pytest.mark.parametrize(
    "branching, indices",
    [
        (12, [(1, 2), (10,), (3, 11, 12), (9,)]),
        (12, [(12, 12, 12)]),
        (10**9, [(1,), (10**9, 2), (5, 10**9)]),
        (10**9, [(1, 9), (2,)]),
    ],
)
def test_literal_keys_with_any_entries_are_written_as_join_writes_them(branching, indices):
    paving = Paving.from_sets(("a", "b"), [["a"], ["b"]])
    s = SouslinScheme(paving, 3, branching, dict.fromkeys(indices, paving.mask_of(["a"])))
    assert list(scheme_to_literal(s)["nodes"]) == [oracle_key_of_index(i) for i in indices]


def test_literal_keys_naming_one_index_do_not_collide():
    literal = {"ground_set": ["a"], "paving": [[], ["a"]], "depth": 1, "branching": 2, "nodes": {"1": [], "01": ["a"]}}
    with pytest.raises(ValueError, match="bad scheme index key '01'"):
        scheme_from_literal(literal)


@pytest.mark.parametrize(
    "key, message",
    [("0", r"stored index \(0,\) violates the branching bound"), ("-1", r"stored index \(-1,\) violates the branching bound")],
)
def test_canonical_out_of_bounds_key_reaches_the_bound_check(key, message):
    literal = {"ground_set": ["a"], "paving": [["a"]], "depth": 1, "branching": 1, "nodes": {key: ["a"]}}
    with pytest.raises(ValueError, match=message):
        scheme_from_literal(literal)


def test_scheme_validation_names_the_first_bad_entry():
    paving = Paving.from_sets(GROUND3, [["1"], ["1", "2"]])
    one = paving.mask_of(["1"])
    cases = [
        ({(1,): one, (1, 1, 1): one, (3,): one}, r"stored index \(1, 1, 1\) violates the depth bound"),
        ({(1,): one, (): one}, r"stored index \(\) violates the depth bound"),
        ({(1,): one, (1, 0): one, (3,): one}, r"stored index \(1, 0\) violates the branching bound"),
        ({(2, 3): one, (1,): 1 << 7}, r"stored index \(2, 3\) violates the branching bound"),
        ({(1,): one, (2, 1): paving.mask_of(["2"])}, r"value at \(2, 1\) is not a paving member"),
    ]
    for nodes, message in cases:
        with pytest.raises(ValueError, match=message):
            SouslinScheme(paving, 2, 2, nodes)
    # the internal top and bottom values are admitted
    SouslinScheme(paving, 2, 2, {(1,): 0, (2, 2): paving.full_mask})


def test_paving_masks_read_one_element_table():
    ground = ("x", 2, ("t", 1), "y")
    paving = Paving.from_sets(ground, [["x", 2], [("t", 1)], ["x", "x"], [2, "x"]])
    assert paving.member_masks == (0b0011, 0b0100, 0b0001)
    for bits in range(1 << len(ground)):
        elems = paving.set_of(bits)
        assert elems == {e for i, e in enumerate(ground) if bits >> i & 1}
        assert paving.mask_of(elems) == bits
    with pytest.raises(ValueError, match="element 'z' is not in the ground set"):
        paving.mask_of(["x", "z"])
    with pytest.raises(ValueError, match=r"element \['x'\] is not in the ground set"):
        paving.mask_of([["x"]])
    with pytest.raises(ValueError, match="5 is not a collection of ground elements"):
        paving.mask_of(5)
    with pytest.raises(ValueError, match="ground set elements must be hashable"):
        Paving.from_sets(["x", ["y"]], [["x"]])
    with pytest.raises(ValueError, match="ground set elements must be distinct"):
        Paving(("x", "x"), (1,))
