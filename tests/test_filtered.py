import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsection import (
    INF,
    FilteredSpace,
    RandomTime,
    SampleSpace,
    SigmaAlgebra,
    StochasticSet,
    TimeGrid,
    classify_time,
    combine_min,
    combine_sup,
    constant_time,
    debut,
    discrete_sigma,
    graph,
    infinite_time,
    interval,
    is_predictable_time,
    is_set_of_kind,
    is_stopping_time,
    projection,
    restrict,
    shift,
    trivial_sigma,
)

import gen
from gen import fix_a, fix_b


def three_point_space():
    atoms = ("w1", "w2", "w3")
    space = SampleSpace(atoms, (Fraction(1, 3),) * 3)
    grid = TimeGrid((Fraction(0), Fraction(1), Fraction(2)))
    mid = SigmaAlgebra((frozenset({"w1"}), frozenset({"w2", "w3"})))
    return FilteredSpace(space, grid, (trivial_sigma(atoms), mid, discrete_sigma(atoms)))


def random_predictable_time(rng, X):
    return debut(gen.random_predictable_set(rng, X), X)


# ------------------------------------------------------------- structure

def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(())
    with pytest.raises(ValueError):
        TimeGrid((Fraction(1), Fraction(1)))
    with pytest.raises(ValueError):
        TimeGrid((Fraction(-1), Fraction(0)))


def test_filtration_must_refine():
    X = fix_a()
    with pytest.raises(ValueError):
        FilteredSpace(X.space, X.grid, (X.filtration[1], X.filtration[0]))


def test_random_time_values_checked():
    with pytest.raises(ValueError):
        RandomTime({"a": -1})
    with pytest.raises(ValueError):
        RandomTime({"a": Fraction(1, 2)})
    t = RandomTime({"a": 0, "b": INF})
    assert t.finite_support() == {"a"}


# --------------------------------------------------------- time predicates

def test_constant_start_time_is_stopping_and_predictable():
    X = fix_a()
    t0 = constant_time(X.atoms, 0)
    assert is_stopping_time(t0, X)
    assert is_predictable_time(t0, X)


def test_fix_a_level_set_enumeration():
    X = fix_a()
    hit_late = RandomTime({"w1": 1, "w2": INF})
    assert is_stopping_time(hit_late, X)
    # {tau <= 0} = {w1} is not trivial-measurable
    early = RandomTime({"w1": 0, "w2": INF})
    assert not is_stopping_time(early, X)
    # {tau <= 1} = {w1} lands in F_0, which is trivial
    assert not is_predictable_time(hit_late, X)
    assert is_predictable_time(constant_time(X.atoms, 1), X)


def test_predictable_implies_stopping():
    rng = random.Random(11)
    for _ in range(200):
        X = gen.random_filtered_space(rng, max_atoms=6, max_times=4)
        rho = random_predictable_time(rng, X)
        assert is_predictable_time(rho, X)
        assert is_stopping_time(rho, X)


def test_time_predicates_equal_their_level_set_definition_exhaustive():
    # every total time, stopping or not, against the definition read off
    # plain frozensets: {tau <= t_k} a union of blocks of F_k (stopping), or
    # of F_(k-1) for k >= 1 with {tau = t_0} a union of blocks of F_0
    def union_of_blocks(A, partition):
        return all(block <= A or not block & A for block in partition.blocks)

    spaces = times = 0
    outcomes = set()
    for X in gen.exhaustive_spaces(3, 3):
        spaces += 1
        n, parts = X.n_times, X.filtration
        for values in itertools.product([*range(n), INF], repeat=len(X.atoms)):
            times += 1
            tau = RandomTime(dict(zip(X.atoms, values)))
            le = [frozenset(a for a, v in zip(X.atoms, values) if v <= k) for k in range(n)]
            stopping = all(union_of_blocks(le[k], parts[k]) for k in range(n))
            predictable = union_of_blocks(le[0], parts[0]) and all(
                union_of_blocks(le[k], parts[k - 1]) for k in range(1, n)
            )
            assert is_stopping_time(tau, X) == stopping, (X, values)
            assert is_predictable_time(tau, X) == predictable, (X, values)
            outcomes.add((stopping, predictable))
    assert (spaces, times) == (51, 1880)
    assert outcomes == {(True, True), (True, False), (False, False)}


# ------------------------------------------------------------------ debut

def test_debut_of_empty_set_is_infinite():
    X = fix_a()
    assert debut(StochasticSet.empty(), X) == infinite_time(X.atoms)


def test_debut_picks_first_entry():
    X = fix_a()
    S = StochasticSet(frozenset({("w1", 0), ("w2", 1)}))
    assert debut(S, X) == RandomTime({"w1": 0, "w2": 1})


def test_debut_of_full_rectangle_is_start():
    X = fix_b()
    S = StochasticSet.from_slices({k: X.atoms for k in range(X.n_times)})
    assert debut(S, X) == constant_time(X.atoms, 0)


def test_graph_debut_roundtrips():
    assert graph(infinite_time(("a", "b"))) == StochasticSet.empty()
    assert graph(constant_time(("a", "b"), 0)).cells == {("a", 0), ("b", 0)}
    rng = random.Random(21)
    for _ in range(200):
        X = gen.random_filtered_space(rng, max_atoms=5, max_times=4)
        tau = gen.random_stopping_time(rng, X)
        assert debut(graph(tau), X) == tau


def test_graph_of_debut_contained_in_set():
    rng = random.Random(22)
    for _ in range(200):
        X = gen.random_filtered_space(rng, max_atoms=5, max_times=4)
        S = gen.random_any_set(rng, X)
        assert graph(debut(S, X)) <= S


# --------------------------------------------------------- representation

ORACLE_ATOMS = gen.ATOM_NAMES  # at most 6 atoms
ORACLE_TIMES = 5
plain_cells = st.frozensets(
    st.tuples(st.sampled_from(ORACLE_ATOMS), st.integers(0, ORACLE_TIMES - 1)), max_size=30
)


def oracle_slices(cells) -> dict:
    out: dict = {}
    for atom, k in cells:
        out.setdefault(k, set()).add(atom)
    return out


def oracle_space() -> FilteredSpace:
    space = SampleSpace.uniform(ORACLE_ATOMS)
    grid = TimeGrid(tuple(Fraction(k) for k in range(ORACLE_TIMES)))
    return FilteredSpace(space, grid, (discrete_sigma(ORACLE_ATOMS),) * ORACLE_TIMES)


@given(plain_cells, plain_cells)
@settings(max_examples=200, deadline=None)
def test_slices_agree_with_plain_cell_sets(ca, cb):
    A, B = StochasticSet(ca), StochasticSet(cb)
    # both constructors, with and without empty slices, build one set
    padded = {**{k: [] for k in range(-1, ORACLE_TIMES + 1)}, **oracle_slices(ca)}
    for other in (StochasticSet.from_slices(oracle_slices(ca)), StochasticSet.from_slices(padded)):
        assert other == A and hash(other) == hash(A)
    assert A.cells == ca
    assert StochasticSet(A.cells) == A
    for k in range(-1, ORACLE_TIMES + 1):
        assert A.slice_at(k) == {a for a, j in ca if j == k}
    assert (A | B).cells == ca | cb
    assert (A & B).cells == ca & cb
    assert (A - B).cells == ca - cb
    assert (A <= B) == (ca <= cb)
    assert (A == B) == (ca == cb)
    assert bool(A) == bool(ca)
    assert projection(A) == gen.oracle_projection(ca)
    assert debut(A, oracle_space()).values == gen.oracle_debut(ca, ORACLE_ATOMS)


def test_cells_outside_the_space_are_refused():
    X = fix_a()
    for cells in ({("w1", 2)}, {("w1", -1)}, {("zz", 0)}, {("w1", 0), ("zz", 1)}):
        S = StochasticSet(cells)
        with pytest.raises(ValueError, match="outside the space"):
            is_set_of_kind(S, X, "optional")
        with pytest.raises(ValueError):
            debut(S, X)


# -------------------------------------------------------------- intervals

def test_interval_with_infinite_left_endpoint_is_empty():
    X = fix_b()
    for tau in (constant_time(X.atoms, 2), infinite_time(X.atoms)):
        assert not interval(infinite_time(X.atoms), tau, X)


def test_interval_full_rectangle():
    X = fix_b()
    lo = constant_time(X.atoms, 0)
    hi = constant_time(X.atoms, X.n_times - 1)
    assert interval(lo, hi, X) == StochasticSet.from_slices({k: X.atoms for k in range(X.n_times)})


def test_interval_reversed_endpoints_is_empty():
    X = fix_b()
    assert not interval(constant_time(X.atoms, 2), constant_time(X.atoms, 0), X)


def test_half_open_flags():
    X = fix_b()
    lo = constant_time(X.atoms, 0)
    hi = constant_time(X.atoms, 2)
    closed = interval(lo, hi, X)
    no_left = interval(lo, hi, X, left_closed=False)
    no_right = interval(lo, hi, X, right_closed=False)
    assert no_left.cells == {(a, k) for a, k in closed.cells if k > 0}
    assert no_right.cells == {(a, k) for a, k in closed.cells if k < 2}


# ------------------------------------------------------------ restriction

def test_restrict_extremes():
    X = fix_a()
    tau = RandomTime({"w1": 1, "w2": 0})
    assert restrict(tau, X.atoms) == tau
    assert restrict(tau, frozenset()) == infinite_time(X.atoms)


def test_restrict_to_late_block_breaks_predictability():
    X = fix_a()
    tau = restrict(constant_time(X.atoms, 1), {"w1"})
    assert is_stopping_time(tau, X)
    assert not is_predictable_time(tau, X)


# ---------------------------------------------------------------- combine

def test_combine_min_idempotent():
    X = fix_a()
    tau = RandomTime({"w1": 1, "w2": INF})
    assert combine_min([tau, tau]) == tau
    with pytest.raises(ValueError):
        combine_min([])


def test_min_and_sup_preserve_predictability():
    rng = random.Random(33)
    for _ in range(1000):
        X = gen.random_filtered_space(rng, max_atoms=6, max_times=4)
        rhos = [random_predictable_time(rng, X) for _ in range(rng.randint(1, 3))]
        assert is_predictable_time(combine_min(rhos), X)
        assert is_predictable_time(combine_sup(rhos), X)


# ------------------------------------------------------------------ shift

def test_shift_of_infinite_time():
    X = fix_a()
    assert shift(infinite_time(X.atoms), 1, X) == infinite_time(X.atoms)


def test_shift_overflow_is_vacuously_predictable():
    X = fix_a()
    tau = RandomTime({"w1": 1, "w2": INF})
    shifted = shift(tau, 1, X)
    assert shifted == infinite_time(X.atoms)
    assert is_predictable_time(shifted, X)


def test_shift_of_hitting_time_on_three_point_grid():
    X = three_point_space()
    hit = debut(StochasticSet(frozenset({("w2", 1), ("w3", 1)})), X)
    assert is_stopping_time(hit, X)
    assert is_predictable_time(shift(hit, 1, X), X)


def test_shift_of_any_stopping_time_is_predictable():
    rng = random.Random(44)
    for _ in range(300):
        X = gen.random_filtered_space(rng, max_atoms=6, max_times=4)
        tau = gen.random_stopping_time(rng, X)
        assert is_predictable_time(shift(tau, rng.randint(1, 2), X), X)


def test_remaining_closure_properties():
    # restriction to {rho <= tau} and to a time-zero block stay predictable
    rng = random.Random(55)
    for _ in range(300):
        X = gen.random_filtered_space(rng, max_atoms=6, max_times=4)
        rho = random_predictable_time(rng, X)
        tau = gen.random_stopping_time(rng, X)
        A = frozenset(a for a in X.atoms if rho.values[a] <= tau.values[a])
        assert is_predictable_time(restrict(rho, A), X)
        block = next(iter(X.sigma_at(0).blocks))
        assert is_predictable_time(restrict(constant_time(X.atoms, 0), block), X)


# ---------------------------------------------------------- set kind check

def test_empty_set_is_both_kinds():
    X = fix_a()
    assert is_set_of_kind(StochasticSet.empty(), X, "predictable")
    assert is_set_of_kind(StochasticSet.empty(), X, "optional")
    with pytest.raises(ValueError):
        is_set_of_kind(StochasticSet.empty(), X, "progressive")


def test_fix_a_singleton_cell_is_optional_not_predictable():
    X = fix_a()
    S = StochasticSet(frozenset({("w1", 1)}))
    assert is_set_of_kind(S, X, "optional")
    assert not is_set_of_kind(S, X, "predictable")


def test_forward_interval_of_predictable_time_is_predictable():
    rng = random.Random(66)
    for _ in range(1000):
        X = gen.random_filtered_space(rng, max_atoms=6, max_times=4)
        rho = random_predictable_time(rng, X)
        S = interval(rho, infinite_time(X.atoms), X)
        assert is_set_of_kind(S, X, "predictable")


def test_graph_intersection_with_optional_set_stays_stopping():
    # the time whose graph is graph(tau) cut down to an optional set is
    # again a stopping time (optional sets play the progressive role here)
    rng = random.Random(123)
    for _ in range(300):
        X = gen.random_filtered_space(rng, max_atoms=8, max_times=4)
        tau = gen.random_stopping_time(rng, X)
        S = gen.random_optional_set(rng, X)
        cut = debut(graph(tau) & S, X)
        assert is_stopping_time(cut, X)
        assert graph(cut) == graph(tau) & S


def test_debut_regularity_exhaustive_then_randomized():
    for X in gen.exhaustive_spaces(4, 3):
        for S in gen.optional_sets_of(X):
            assert is_stopping_time(debut(S, X), X)
        for S in gen.predictable_sets_of(X):
            assert is_predictable_time(debut(S, X), X)
    rng = random.Random(77)
    for _ in range(300):
        X = gen.random_filtered_space(rng, max_atoms=12, max_times=5)
        assert is_stopping_time(debut(gen.random_optional_set(rng, X), X), X)
        assert is_predictable_time(debut(gen.random_predictable_set(rng, X), X), X)


# ----------------------------------------------------------- classify_time

def test_classify_infinite_time():
    X = fix_a()
    part = classify_time(infinite_time(X.atoms), X)
    assert part.cover == ()
    assert part.ti_part == infinite_time(X.atoms)
    assert part.acc_part == infinite_time(X.atoms)


def test_classify_fix_a_example():
    X = fix_a()
    tau = RandomTime({"w1": 1, "w2": INF})
    part = classify_time(tau, X)
    assert part.cover == (constant_time(X.atoms, 1),)
    assert X.space.prob(part.ti_part.finite_support()) == 0
    assert part.acc_part == tau


def test_classify_rejects_non_stopping_times():
    X = fix_a()
    with pytest.raises(ValueError):
        classify_time(RandomTime({"w1": 0, "w2": INF}), X)


def test_classify_decomposition_properties():
    rng = random.Random(88)
    for _ in range(300):
        X = gen.random_filtered_space(rng, max_atoms=8, max_times=4)
        tau = gen.random_stopping_time(rng, X)
        part = classify_time(tau, X)
        assert graph(part.ti_part) | graph(part.acc_part) == graph(tau)
        assert X.space.prob(part.ti_part.finite_support()) == 0
        covered = StochasticSet.empty()
        for rho in part.cover:
            assert is_predictable_time(rho, X)
            covered = covered | graph(rho)
        assert graph(part.acc_part) <= covered
