import random
import time
from fractions import Fraction
from itertools import product

import pytest

from finsection import (
    INF,
    FilteredSpace,
    Paving,
    SampleSpace,
    RandomTime,
    SouslinScheme,
    StochasticSet,
    build_monotone_scheme,
    check_monotone,
    classify_time,
    constant_time,
    decompose_optional,
    eval_scheme,
    graph,
    infinite_time,
    interval,
    is_predictable_time,
    is_set_of_kind,
    is_stopping_time,
    measurable_section,
    optional_section,
    accessible_section,
    predictable_section,
    projection,
    restrict,
    section_from_scheme,
    to_interval_representation,
    TimeGrid,
    discrete_sigma,
    trivial_sigma,
    STRATEGY_DEBUT,
    STRATEGY_SOUSLIN,
)
from finsection.souslin import scheme_to_literal

import gen
from gen import fix_a, fix_b, oracle_eval


def weight_deficit(X, target, time):
    # independent accounting: plain weight sums, no sigma-algebra machinery
    return X.space.prob(projection(target)) - X.space.prob(time.finite_support())


def fix_b_late_pair_set():
    return StochasticSet(frozenset({("w1", 2), ("w2", 2)}))


# ------------------------------------------------------------- projection

def test_projection_basics():
    X = fix_a()
    assert projection(StochasticSet.empty()) == frozenset()
    assert projection(StochasticSet(frozenset((a, 0) for a in X.atoms))) == set(X.atoms)
    tau = RandomTime({"w1": 1, "w2": INF})
    assert projection(graph(tau)) == tau.finite_support()


# ------------------------------------------------- interval representation

def realized(pairs, X):
    """The union of the closed intervals [[left, right]]."""
    out = StochasticSet.empty()
    for left, right in pairs:
        out = out | interval(left, right, X)
    return out


def test_interval_representation_of_empty_set():
    assert to_interval_representation(StochasticSet.empty(), fix_a()) == ()


def test_interval_representation_fix_b_single_slice():
    X = fix_b()
    P = fix_b_late_pair_set()
    pairs = to_interval_representation(P, X)
    assert len(pairs) == 1
    left, right = pairs[0]
    assert left == restrict(constant_time(X.atoms, 2), {"w1", "w2"})
    assert right == constant_time(X.atoms, 2)
    assert realized(pairs, X) == P


def test_interval_representation_roundtrips_and_validates():
    rng = random.Random(101)
    for _ in range(300):
        X = gen.random_filtered_space(rng, max_atoms=8, max_times=4)
        P = gen.random_predictable_set(rng, X)
        pairs = to_interval_representation(P, X)
        for left, right in pairs:
            assert is_predictable_time(left, X)
            assert is_stopping_time(right, X)
            assert all(v != INF for v in right.values.values())
        assert realized(pairs, X) == P


def test_interval_representation_rejects_non_predictable():
    X = fix_a()
    with pytest.raises(ValueError):
        to_interval_representation(StochasticSet(frozenset({("w1", 1)})), X)


# --------------------------------------------------------- scheme building

def test_scheme_for_empty_set():
    X = fix_a()
    s = build_monotone_scheme(StochasticSet.empty(), X)
    assert eval_scheme(s) == frozenset()
    assert check_monotone(s) == (True, True)


def test_scheme_for_single_slice_set_is_depth_one():
    X = fix_b()
    s = build_monotone_scheme(fix_b_late_pair_set(), X)
    assert s.depth == 1 and s.branching == 1
    assert eval_scheme(s) == fix_b_late_pair_set().cells


def test_roundtrip_exhaustive_small_fixtures():
    # scheme eval and interval realization both recover the set exactly
    for X in gen.exhaustive_spaces(4, 3):
        for P in gen.predictable_sets_of(X):
            assert eval_scheme(build_monotone_scheme(P, X)) == P.cells
            assert realized(to_interval_representation(P, X), X) == P


def test_scheme_eval_matches_bruteforce_on_random_sets():
    rng = random.Random(202)
    for _ in range(200):
        X = gen.random_filtered_space(rng, max_atoms=6, max_times=4)
        P = gen.random_predictable_set(rng, X)
        s = build_monotone_scheme(P, X)
        assert check_monotone(s) == (True, True)
        nodes = {idx: s.paving.set_of(mask) for idx, mask in s.nodes.items()}
        assert oracle_eval(s.paving.ground, nodes, s.depth, s.branching) == P.cells
        assert eval_scheme(s) == P.cells


def explicit_cumulative_literal(P, X):
    """Literal of the table {idx: cum[min(idx) - 1]} over every index with
    length and entries in 1..r, where cum[i] is the union of the first i + 1
    nonempty slices of P, over the slice-major cell ground."""
    ground = [(a, k) for k in range(X.n_times) for a in X.atoms]
    cum = []
    acc = set()
    for k in range(X.n_times):
        row = {cell for cell in P.cells if cell[1] == k}
        if row:
            acc |= row
            cum.append(frozenset(acc))
    r = len(cum)
    values = [[str(c) for c in ground if c in cells] for cells in cum]
    return {
        "ground_set": [str(c) for c in ground],
        "paving": [[]] + values,
        "depth": r,
        "branching": r,
        "nodes": {
            ".".join(map(str, idx)): values[min(idx) - 1]
            for length in range(1, r + 1)
            for idx in sorted(product(range(1, r + 1), repeat=length))
        },
    }


def test_closed_form_scheme_matches_explicit_table_exhaustive():
    # the scheme of a predictable set depends on the set and the cells of the
    # space only, so each (atoms, grid length, set) is checked once
    seen = set()
    for X in gen.exhaustive_spaces(4, 3):
        for P in gen.predictable_sets_of(X):
            key = (X.atoms, X.n_times, P.cells)
            if not P.cells or key in seen:
                continue
            seen.add(key)
            s = build_monotone_scheme(P, X)
            assert scheme_to_literal(s) == explicit_cumulative_literal(P, X)


def test_section_from_scheme_checks_every_computed_value():
    # a monotone cumulative scheme whose first mask, w1 at index 1, is not
    # predictable under the trivial partition at index 0
    X = fix_b()
    ground = tuple((a, k) for k in range(X.n_times) for a in X.atoms)
    first = frozenset({("w1", 1)})
    second = first | {("w1", 2)}
    paving = Paving.from_sets(ground, [frozenset(), first, second])
    masks = [paving.mask_of(first), paving.mask_of(second)]
    scheme = SouslinScheme(paving, 2, 2, {key: masks[min(key) - 1] for key in [(1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]})
    assert check_monotone(scheme) == (True, True)
    with pytest.raises(ValueError, match="predictable"):
        section_from_scheme(scheme, X, Fraction(0))


def test_section_from_scheme_refuses_a_permuted_cell_ground():
    # the same cells listed atom-major: every cell is there, in the wrong order
    X = fix_b()
    ground = tuple((a, k) for a in X.atoms for k in range(X.n_times))
    cells = frozenset({("w1", 2), ("w2", 2)})
    paving = Paving.from_sets(ground, [frozenset(), cells])
    scheme = SouslinScheme(paving, 1, 1, {(1,): paving.mask_of(cells)})
    with pytest.raises(ValueError, match="scheme ground set must be the atoms x grid cells of the space"):
        section_from_scheme(scheme, X, Fraction(0))


def test_section_from_scheme_refuses_a_non_monotone_scheme():
    X = fix_b()
    ground = tuple((a, k) for k in range(X.n_times) for a in X.atoms)
    late = frozenset({("w1", 2), ("w2", 2)})
    paving = Paving.from_sets(ground, [frozenset(), late])
    # the child (1, 2) reads as the full set, outside its parent
    scheme = SouslinScheme(paving, 2, 2, {(1,): paving.mask_of(late)})
    assert check_monotone(scheme) == (False, True)
    with pytest.raises(ValueError, match="section_from_scheme needs a monotone scheme"):
        section_from_scheme(scheme, X, Fraction(0))


def test_scheme_of_seven_slices_is_refused_at_once():
    # Σ l * 7^l over l = 1..7 index entries is past the scheme ops' budget
    X = FilteredSpace(SampleSpace(("w1",), (Fraction(1),)), TimeGrid(tuple(Fraction(k) for k in range(7))), (discrete_sigma(("w1",)),) * 7)
    P = StochasticSet(frozenset(("w1", k) for k in range(7)))
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="build_monotone_scheme: a depth 7 x branching 7 scheme has over 2097152 index entries"):
        build_monotone_scheme(P, X)
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.5, f"took {elapsed:.2f}s (budget 0.5s)"
    assert eval_scheme(build_monotone_scheme(StochasticSet.from_slices(dict(P.slices[:6])), X)) == P.cells - {("w1", 6)}


def test_souslin_route_on_a_grid_of_64_points_within_budget():
    # 63 active slices: the stored table would hold sum 63^l nodes
    atoms = tuple(f"w{i}" for i in range(1, 9))
    space = SampleSpace(atoms, tuple(Fraction(i, 36) for i in range(1, 9)))
    grid = TimeGrid(tuple(Fraction(k) for k in range(64)))
    X = FilteredSpace(space, grid, tuple(discrete_sigma(atoms) for _ in range(64)))
    P = StochasticSet(frozenset(
        cell
        for k in range(1, 64)
        for cell in ((atoms[(k - 1) % 8], k), (atoms[3 * k % 8], k))
    ))
    t0 = time.perf_counter()
    exact = predictable_section(P, X, Fraction(0), STRATEGY_DEBUT)
    for eps in (Fraction(0), Fraction(1, 4)):
        res = predictable_section(P, X, eps, STRATEGY_SOUSLIN)
        assert len(res.trace.chosen_prefix) == 63
        assert 0 <= res.deficit <= eps
        assert res.deficit == weight_deficit(X, P, res.time)
        assert res.trace.oracle_deficit == 0
        assert is_predictable_time(res.time, X)
        assert graph(res.time) <= P
        if eps == 0:
            assert X.space.prob(res.time.finite_support()) == X.space.prob(exact.time.finite_support())
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"souslin route at grid 64 took {elapsed:.2f}s (budget 5s)"


def test_souslin_route_on_64_atoms_and_256_points_within_budget():
    # trivial partition at 0, discrete after; about 0.05 of the cells at
    # indices 2..255, so some 250 slices are active
    atoms = tuple(f"w{i}" for i in range(64))
    X = FilteredSpace(
        SampleSpace(atoms, (Fraction(1, len(atoms)),) * len(atoms)),
        TimeGrid(tuple(Fraction(k) for k in range(256))),
        (trivial_sigma(atoms),) + (discrete_sigma(atoms),) * 255,
    )
    rng = random.Random(1)
    P = StochasticSet(frozenset((a, k) for k in range(2, 256) for a in atoms if rng.random() < 0.05))
    assert is_set_of_kind(P, X, "predictable")
    t0 = time.perf_counter()
    exact = predictable_section(P, X, Fraction(0), STRATEGY_DEBUT)
    for eps in (Fraction(0), Fraction(1, 8)):
        res = predictable_section(P, X, eps, STRATEGY_SOUSLIN)
        assert is_predictable_time(res.time, X)
        assert graph(res.time) <= P
        assert 0 <= res.deficit <= eps
        assert res.deficit == weight_deficit(X, P, res.time)
        if eps == 0:
            assert X.space.prob(res.time.finite_support()) == X.space.prob(exact.time.finite_support())
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"souslin route at 64 atoms x 256 points took {elapsed:.2f}s (budget 5s)"


# ------------------------------------------------------ predictable section

def test_predictable_section_of_empty_set():
    X = fix_a()
    for strategy in (STRATEGY_DEBUT, STRATEGY_SOUSLIN):
        res = predictable_section(StochasticSet.empty(), X, Fraction(1, 8), strategy)
        assert res.time == infinite_time(X.atoms)
        assert res.deficit == 0


def test_predictable_section_fix_b_exact():
    X = fix_b()
    P = fix_b_late_pair_set()
    res = predictable_section(P, X, Fraction(0), STRATEGY_DEBUT)
    assert res.time == restrict(constant_time(X.atoms, 2), {"w1", "w2"})
    assert X.space.prob(res.time.finite_support()) == Fraction(1, 2)
    assert res.deficit == 0
    assert res.strategy == STRATEGY_DEBUT


def test_predictable_section_contract_random():
    rng = random.Random(303)
    for _ in range(250):
        X = gen.random_filtered_space(rng, max_atoms=8, max_times=4)
        P = gen.random_predictable_set(rng, X)
        for eps in (Fraction(0), Fraction(1, 8)):
            for strategy in (STRATEGY_DEBUT, STRATEGY_SOUSLIN):
                res = predictable_section(P, X, eps, strategy)
                assert is_predictable_time(res.time, X)
                assert graph(res.time) <= P
                assert res.deficit == weight_deficit(X, P, res.time)
                assert 0 <= res.deficit <= eps
                if strategy == STRATEGY_DEBUT:
                    assert res.deficit == 0


def test_strategies_agree_at_zero_epsilon():
    rng = random.Random(404)
    for _ in range(200):
        X = gen.random_filtered_space(rng, max_atoms=8, max_times=4)
        P = gen.random_predictable_set(rng, X)
        a = predictable_section(P, X, Fraction(0), STRATEGY_DEBUT)
        b = predictable_section(P, X, Fraction(0), STRATEGY_SOUSLIN)
        assert X.space.prob(a.time.finite_support()) == X.space.prob(b.time.finite_support())


def test_trace_envelopes_are_monotone():
    rng = random.Random(505)
    for _ in range(150):
        X = gen.random_filtered_space(rng, max_atoms=8, max_times=4)
        P = gen.random_predictable_set(rng, X)
        target = X.space.prob(projection(P))
        for eps in (Fraction(0), Fraction(1, 8)):
            res = predictable_section(P, X, eps, STRATEGY_SOUSLIN)
            measures = list(res.trace.envelope_measures)
            assert measures == sorted(measures, reverse=True)
            assert all(m >= target - eps for m in measures)
            assert len(res.trace.chosen_prefix) == len(measures)
            assert res.trace.oracle_deficit == 0


def test_envelopes_grow_in_each_coordinate_and_stabilize():
    from finsection import outer_measure

    rng = random.Random(606)
    for _ in range(60):
        X = gen.random_filtered_space(rng, max_atoms=6, max_times=4)
        P = gen.random_predictable_set(rng, X)
        s = build_monotone_scheme(P, X)
        b = s.branching
        sigma = X.filtration[-1]
        for depth_pos in range(s.depth):
            prev = None
            for value in range(1, b + 1):
                idx = (b,) * depth_pos + (value,) + (b,) * (s.depth - depth_pos - 1)
                cells = s.paving.set_of(s.node(idx))
                measure = outer_measure({a for a, _ in cells}, sigma, X.space)
                if prev is not None:
                    assert measure >= prev
                prev = measure
            full = X.space.prob(projection(P))
            assert prev == full  # stabilizes at the whole target


def test_section_from_user_supplied_scheme():
    X = fix_b()
    ground = tuple((a, k) for k in range(X.n_times) for a in X.atoms)
    inner = frozenset({("w1", 2), ("w2", 2)})
    outer_set = inner | frozenset((a, 1) for a in X.atoms)
    paving = Paving.from_sets(ground, [frozenset(), inner, outer_set])
    a_mask, b_mask = paving.mask_of(inner), paving.mask_of(outer_set)
    nodes = {
        (1,): a_mask,
        (2,): b_mask,
        (1, 1): a_mask,
        (1, 2): a_mask,
        (2, 1): a_mask,
        (2, 2): b_mask,
    }
    scheme = SouslinScheme(paving, 2, 2, nodes)
    assert check_monotone(scheme) == (True, True)

    exact = section_from_scheme(scheme, X, Fraction(0))
    assert is_predictable_time(exact.time, X)
    assert graph(exact.time) <= StochasticSet(outer_set)
    assert exact.deficit == 0

    loose = section_from_scheme(scheme, X, Fraction(1, 2))
    assert loose.trace.chosen_prefix == (1, 1)
    assert loose.deficit == Fraction(1, 2)
    assert graph(loose.time) <= StochasticSet(inner)


def test_section_preconditions():
    X = fix_a()
    bad = StochasticSet(frozenset({("w1", 1)}))
    with pytest.raises(ValueError):
        predictable_section(bad, X, Fraction(0))
    with pytest.raises(ValueError):
        predictable_section(StochasticSet.empty(), X, Fraction(-1, 2))
    with pytest.raises(ValueError):
        predictable_section(StochasticSet.empty(), X, Fraction(0), "magic")


# ------------------------------------------------------ measurable section

def test_measurable_section_empty():
    X = fix_a()
    res = measurable_section(StochasticSet.empty(), X.space, X.grid)
    assert res.time == infinite_time(X.atoms)
    assert res.deficit == 0


def test_measurable_section_recovers_graph_selector():
    X = fix_b()
    tau = RandomTime({"w1": 0, "w2": 2, "w3": 1, "w4": INF})
    res = measurable_section(graph(tau), X.space, X.grid)
    assert res.time == tau


def test_measurable_section_random_sets():
    rng = random.Random(707)
    for _ in range(300):
        X = gen.random_filtered_space(rng, max_atoms=8, max_times=4)
        S = gen.random_any_set(rng, X)
        res = measurable_section(S, X.space, X.grid)
        assert res.time.finite_support() == projection(S)
        assert graph(res.time) <= S
        assert res.deficit == 0


# -------------------------------------------------- optional decomposition

def test_decompose_predictable_input_has_no_remainder():
    X = fix_b()
    P = fix_b_late_pair_set()
    part = decompose_optional(P, X)
    assert part.predictable_part == P
    assert part.thin_times == ()


def test_decompose_fix_a_thin_graph():
    X = fix_a()
    O = StochasticSet(frozenset({("w1", 1)}))
    part = decompose_optional(O, X)
    assert part.predictable_part == StochasticSet.empty()
    assert part.thin_times == (RandomTime({"w1": 1, "w2": INF}),)


def test_decompose_random_cover_identity():
    rng = random.Random(808)
    for _ in range(300):
        X = gen.random_filtered_space(rng, max_atoms=8, max_times=4)
        O = gen.random_optional_set(rng, X)
        part = decompose_optional(O, X)
        assert is_set_of_kind(part.predictable_part, X, "predictable")
        assert part.predictable_part <= O
        rebuilt = part.predictable_part
        for t in part.thin_times:
            assert is_stopping_time(t, X)
            rebuilt = rebuilt | graph(t)
        assert rebuilt == O


def test_decompose_keeps_largest_predictable_subset():
    for X in gen.exhaustive_spaces(2, 2):
        for O in gen.optional_sets_of(X):
            part = decompose_optional(O, X)
            for Q in gen.predictable_sets_of(X):
                if Q <= O:
                    assert Q <= part.predictable_part


# --------------------------------------------------------- optional section

def test_optional_section_empty():
    X = fix_a()
    res = optional_section(StochasticSet.empty(), X, Fraction(0))
    assert res.time == infinite_time(X.atoms)
    assert res.deficit == 0


def test_optional_section_fix_a_exact():
    X = fix_a()
    O = StochasticSet(frozenset({("w1", 1)}))
    res = optional_section(O, X, Fraction(0))
    assert res.time == RandomTime({"w1": 1, "w2": INF})
    assert X.space.prob(res.time.finite_support()) == Fraction(1, 2)
    assert res.deficit == 0


@pytest.mark.parametrize("strategy", [STRATEGY_DEBUT, STRATEGY_SOUSLIN])
@pytest.mark.parametrize("section", [optional_section, accessible_section])
def test_thin_rests_weighing_exactly_half_eps_are_left_out(section, strategy):
    """The thin rest {w1, w2} at step 1 (not F_0-measurable) weighs 1/2,
    exactly eps/2 at eps = 1, so no rest is taken: the section is the debut
    of the predictable part {w3, w4} at step 2, and its deficit is eps/2."""
    X = fix_b()
    O = StochasticSet(frozenset({("w1", 1), ("w2", 1), ("w3", 2), ("w4", 2)}))
    res = section(O, X, Fraction(1), strategy)
    assert res.time == RandomTime({"w1": INF, "w2": INF, "w3": 2, "w4": 2})
    assert res.deficit == Fraction(1, 2)


def test_optional_section_contract_random():
    rng = random.Random(909)
    for _ in range(250):
        X = gen.random_filtered_space(rng, max_atoms=8, max_times=4)
        O = gen.random_optional_set(rng, X)
        for eps in (Fraction(0), Fraction(1, 8)):
            res = optional_section(O, X, eps)
            assert is_stopping_time(res.time, X)
            assert graph(res.time) <= O
            assert res.deficit == weight_deficit(X, O, res.time)
            assert 0 <= res.deficit <= eps
            assert res.trace.oracle_deficit == 0


def small_spaces_and_null_atom_variants():
    """``gen.exhaustive_spaces(3, 4)``, and each space of two or more atoms
    again with its first atom weighing 0."""
    for X in gen.exhaustive_spaces(3, 4):
        yield X
        n = len(X.atoms)
        if n > 1:
            yield FilteredSpace(SampleSpace(X.atoms, (Fraction(0),) + (Fraction(1, n - 1),) * (n - 1)), X.grid, X.filtration)


def test_an_optional_set_is_evanescent_exactly_when_no_section_and_no_stopping_time_sees_it():
    """The section theorem's standard use: two optional sets A and B are
    indistinguishable when no stopping time meets A Δ B with positive
    probability.  A Δ B is optional, and every optional set C is C Δ ∅, so
    for each C these agree: some brute-force stopping time meets C with
    positive probability; the exact optional section of C has finite mass
    above 0; P(π(C)) > 0.  On a null atom a nonempty C goes unseen."""
    seen = set()
    for X in small_spaces_and_null_atom_variants():
        weight = dict(zip(X.atoms, X.space.weights))
        taus = list(gen.stopping_times(X))
        for C in gen.optional_sets_of(X):
            cells = C.cells
            met = any(weight[a] > 0 and (a, k) in cells for tau in taus for a, k in tau.items())
            mass = X.space.prob(optional_section(C, X, 0).time.finite_support())
            projected = sum(weight[a] for a in gen.oracle_projection(cells))
            assert met == (mass > 0) == (projected > 0), (X, C)
            seen.add((met, bool(cells)))
    assert seen == {(True, True), (False, True), (False, False)}


def test_optional_section_preconditions():
    X = fix_a()
    with pytest.raises(ValueError):
        optional_section(StochasticSet(frozenset({("w2", 0)})), X, Fraction(0))
    with pytest.raises(ValueError):
        optional_section(StochasticSet.empty(), X, Fraction(-1))


# ------------------------------------------------------- kind checks, once

@pytest.mark.parametrize(
    "entry, message",
    [
        (decompose_optional, "decompose_optional needs an optional set"),
        (lambda S, X: optional_section(S, X, Fraction(0)), "optional_section needs an optional set"),
        (lambda S, X: accessible_section(S, X, Fraction(0)), "accessible_section needs an optional set"),
        (lambda S, X: predictable_section(S, X, Fraction(0)), "predictable_section needs a predictable set"),
    ],
    ids=["decompose_optional", "optional_section", "accessible_section", "predictable_section"],
)
def test_each_public_entry_refuses_a_set_of_the_wrong_kind(entry, message):
    X = fix_b()
    not_optional = StochasticSet(frozenset({("w1", 0)}))  # needs the trivial sigma at 0
    with pytest.raises(ValueError, match=message):
        entry(not_optional, X)


@pytest.mark.parametrize("entry", [predictable_section, optional_section, accessible_section])
def test_section_solvers_take_only_the_two_strategy_constants(entry):
    # the CLI's "--strategy debut" is its own spelling of STRATEGY_DEBUT
    X = fix_b()
    P = fix_b_late_pair_set()
    for strategy in ("debut", "souslin-oracle", None):
        with pytest.raises(ValueError, match=f"^unknown section strategy {strategy!r}$"):
            entry(P, X, Fraction(0), strategy)


@pytest.mark.parametrize("strategy", [STRATEGY_DEBUT, STRATEGY_SOUSLIN], ids=["debut", "souslin"])
def test_each_public_entry_checks_its_set_once(monkeypatch, strategy):
    import finsection.section as section_module

    calls = []
    checked = section_module.is_set_of_kind

    def counting(S, X, kind):
        calls.append((S, kind))
        return checked(S, X, kind)

    monkeypatch.setattr(section_module, "is_set_of_kind", counting)
    X = fix_b()
    O = StochasticSet(frozenset({("w1", 1), ("w2", 1), ("w3", 2), ("w4", 2)}))
    decompose_optional(O, X)
    assert calls == [(O, "optional")]
    for entry in (optional_section, accessible_section):
        calls.clear()
        entry(O, X, Fraction(0), strategy)
        assert calls == [(O, "optional")]


@pytest.mark.parametrize("strategy", [STRATEGY_DEBUT, STRATEGY_SOUSLIN], ids=["debut", "souslin"])
def test_predictable_section_checks_its_set_once(monkeypatch, strategy):
    import finsection.section as section_module

    calls = []
    checked = section_module.is_set_of_kind

    def counting(S, X, kind):
        calls.append((S, kind))
        return checked(S, X, kind)

    monkeypatch.setattr(section_module, "is_set_of_kind", counting)
    X = fix_b()
    P = StochasticSet(frozenset({("w1", 1), ("w2", 1), ("w3", 1), ("w4", 1), ("w1", 2), ("w2", 2)}))
    predictable_section(P, X, Fraction(0), strategy)
    assert calls == [(P, "predictable")]
    calls.clear()
    not_predictable = StochasticSet(frozenset({("w1", 1)}))
    with pytest.raises(ValueError) as refused:
        predictable_section(not_predictable, X, Fraction(0), strategy)
    assert str(refused.value) == "predictable_section needs a predictable set"
    assert calls == [(not_predictable, "predictable")]


@pytest.mark.parametrize("strategy", [STRATEGY_DEBUT, STRATEGY_SOUSLIN], ids=["debut", "souslin"])
def test_predictable_section_names_a_cell_outside_the_space(strategy):
    X = fix_b()
    with pytest.raises(ValueError, match=r"cell \('w1', 3\) is outside the space"):
        predictable_section(StochasticSet(frozenset({("w1", 3)})), X, Fraction(0), strategy)
    with pytest.raises(ValueError, match=r"interval representation needs a predictable set"):
        to_interval_representation(StochasticSet(frozenset({("w1", 1)})), X)


# ------------------------------------------------------- accessible section

def test_accessible_section_empty():
    X = fix_a()
    res = accessible_section(StochasticSet.empty(), X, Fraction(0))
    assert res.time == infinite_time(X.atoms)


def test_accessible_matches_predictable_on_predictable_input():
    rng = random.Random(111)
    for _ in range(150):
        X = gen.random_filtered_space(rng, max_atoms=6, max_times=4)
        P = gen.random_predictable_set(rng, X)
        a = accessible_section(P, X, Fraction(0))
        b = predictable_section(P, X, Fraction(0))
        assert X.space.prob(a.time.finite_support()) == X.space.prob(b.time.finite_support())


def test_accessible_section_returns_accessible_time():
    rng = random.Random(222)
    for _ in range(200):
        X = gen.random_filtered_space(rng, max_atoms=8, max_times=4)
        O = gen.random_optional_set(rng, X)
        res = accessible_section(O, X, Fraction(1, 8))
        part = classify_time(res.time, X)
        assert X.space.prob(part.ti_part.finite_support()) == 0
        covered = StochasticSet.empty()
        for rho in part.cover:
            covered = covered | graph(rho)
        assert graph(res.time) <= covered
