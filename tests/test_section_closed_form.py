"""The section solvers against the constructions they shortcut.

``predictable_section(..., "souslin")`` computes the envelope sweep over
the set's cumulative scheme in closed form; ``section_from_scheme`` on the
built scheme runs the sweep itself, so the two must agree on time, deficit
and trace.  The optional and accessible sections read the thin remainder
slice by slice; here they are checked against the assembly that builds one
slice-constant stopping time per thin slice and takes their minimum, and
``classify_time``'s cover against one restricted constant time per
lookback block.
"""

import random
import tracemalloc
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from finsection import (
    FilteredSpace,
    SampleSpace,
    SectionResult,
    SectionTrace,
    StochasticSet,
    TimeGrid,
    accessible_section,
    build_monotone_scheme,
    classify_time,
    combine_min,
    constant_time,
    decompose_optional,
    discrete_sigma,
    infinite_time,
    optional_section,
    outer_measure,
    predictable_section,
    projection,
    restrict,
    section_from_scheme,
    trivial_sigma,
    STRATEGY_DEBUT,
    STRATEGY_SOUSLIN,
)

import gen

EPSILONS = tuple(map(Fraction, ("0", "1/8", "1/4", "1/2", "1", "2")))
MEMORY_BUDGET_MB = 1


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans(), st.sampled_from(EPSILONS))
def test_closed_form_equals_the_sweep_on_the_built_scheme(rng, empty, eps):
    X = gen.random_filtered_space(rng)
    P = StochasticSet.empty() if empty else gen.random_predictable_set(rng, X)
    closed = predictable_section(P, X, eps, STRATEGY_SOUSLIN)
    assert closed == section_from_scheme(build_monotone_scheme(P, X), X, eps)
    r = max(len(P.slices), 1)
    assert closed.trace.chosen_prefix == closed.trace.chosen_prefix[:1] * r


def reference_thin_times(O, X):
    """One restricted constant time per slice's leftover after its lookback
    blocks inside the slice are taken out, each atom's block looked up."""
    thin = []
    for k, slice_k in O.slices:
        lookback = X.lookback(k)
        inside = frozenset().union(*(b for b in (b for b in lookback.blocks if b & slice_k) if b <= slice_k))
        if slice_k - inside:
            thin.append(restrict(constant_time(X.atoms, k), slice_k - inside))
    return thin


def reference_optional_section(O, X, eps, strategy):
    """Predictable section of the largest predictable subset at eps/2, the
    minimum with a prefix of the thin times chosen by the eps/2 rule."""
    part = decompose_optional(O, X)
    inner = predictable_section(part.predictable_part, X, eps / 2, strategy)
    remainder_mass = X.space.prob(projection(O - part.predictable_part))
    chosen, covered = [], frozenset()
    for t in reference_thin_times(O, X):
        if remainder_mass - X.space.prob(covered) <= eps / 2:
            break
        chosen.append(t)
        covered |= t.finite_support()
    tau = combine_min(chosen) if chosen else infinite_time(X.atoms)
    time = combine_min([inner.time, tau])
    target_outer = outer_measure(projection(O), X.filtration[-1], X.space)
    oracle = target_outer - X.space.prob(projection(O))
    trace = SectionTrace(inner.trace.chosen_prefix, inner.trace.envelope_measures, oracle)
    return SectionResult(time, target_outer - X.space.prob(time.finite_support()), inner.strategy, trace)


def ordered(times):
    return [list(t.values.items()) for t in times]


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(EPSILONS))
def test_optional_assembly_and_classify_cover_equal_the_per_slice_times(rng, eps):
    X = gen.random_filtered_space(rng)
    O = gen.random_optional_set(rng, X)
    part = decompose_optional(O, X)
    assert ordered(part.thin_times) == ordered(reference_thin_times(O, X))
    for strategy in (STRATEGY_DEBUT, STRATEGY_SOUSLIN):
        expected = reference_optional_section(O, X, eps, strategy)
        for solver in (optional_section, accessible_section):
            res = solver(O, X, eps, strategy)
            assert res == expected
            assert list(res.time.values) == list(X.atoms)
    tau = gen.random_stopping_time(rng, X)
    cover = [
        restrict(constant_time(X.atoms, k), block)
        for k in range(X.n_times)
        for block in X.lookback(k).blocks
        if any(tau.values[a] == k for a in block)
    ]
    assert ordered(classify_time(tau, X).cover) == ordered(cover)


def test_souslin_route_memory_stays_in_the_cells_of_the_set():
    # trivial partition at 0, discrete after, about 0.05 of the cells at
    # indices 2 and up; building the scheme's masks peaked near 10 MB here
    for n, points in ((256, 256), (32, 1024)):
        atoms = tuple(f"w{i}" for i in range(n))
        X = FilteredSpace(
            SampleSpace(atoms, (Fraction(1, len(atoms)),) * len(atoms)),
            TimeGrid(tuple(Fraction(k) for k in range(points))),
            (trivial_sigma(atoms),) + (discrete_sigma(atoms),) * (points - 1),
        )
        rng = random.Random(1)
        P = StochasticSet(frozenset((a, k) for k in range(2, points) for a in atoms if rng.random() < 0.05))
        tracemalloc.start()
        try:
            res = predictable_section(P, X, Fraction(0), STRATEGY_SOUSLIN)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.deficit == 0
        assert peak < MEMORY_BUDGET_MB * 2**20, f"souslin route at {n} x {points} peaked at {peak / 2**20:.2f} MB"
