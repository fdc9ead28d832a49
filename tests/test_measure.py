import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsection import (
    SampleSpace,
    SigmaAlgebra,
    discrete_sigma,
    format_rational,
    generate_sigma,
    is_measurable,
    measurable_cover,
    outer_measure,
    parse_rational,
    refines,
    trivial_sigma,
)

from gen import all_partitions, all_sigmas, measurable_subsets, oracle_outer, oracle_refines


def subsets_of(atoms):
    atoms = tuple(atoms)
    for r in range(len(atoms) + 1):
        for combo in combinations(atoms, r):
            yield frozenset(combo)


# -------------------------------------------------------------- rationals

def test_rational_round_trip():
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("3") == Fraction(3)
    assert format_rational(Fraction(0)) == "0/1"
    assert format_rational(Fraction(2, 16)) == "1/8"


def test_rational_rejects_noise():
    for bad in ("0.5", "1/2/3", "", "one", None, 0.5):
        with pytest.raises(ValueError):
            parse_rational(bad)


# ------------------------------------------------------------ sample space

def test_space_validation():
    with pytest.raises(ValueError):
        SampleSpace(("a", "a"), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        SampleSpace(("a", "b"), (Fraction(3, 4), Fraction(1, 2)))
    with pytest.raises(ValueError):
        SampleSpace(("a", "b"), (Fraction(-1, 2), Fraction(3, 2)))


def test_space_allows_zero_weights():
    space = SampleSpace(("a", "b"), (Fraction(1), Fraction(0)))
    assert space.prob({"b"}) == 0
    assert space.prob({"a", "b"}) == 1


# ---------------------------------------------------------- generate_sigma

def test_generate_sigma_empty_family_is_trivial():
    assert generate_sigma(("a", "b"), []) == trivial_sigma(("a", "b"))


def test_generate_sigma_single_set():
    sigma = generate_sigma(("a", "b", "c"), [{"a"}])
    assert set(sigma.blocks) == {frozenset({"a"}), frozenset({"b", "c"})}


def test_generate_sigma_is_coarsest_qualifying_partition():
    # oracle: enumerate every partition, keep those whose block-unions
    # include each family member, and demand the result is the coarsest
    rng = random.Random(31337)
    atoms = ("a", "b", "c", "d", "e")
    for _ in range(60):
        family = [frozenset(rng.sample(atoms, rng.randint(0, 4))) for _ in range(rng.randint(0, 3))]
        sigma = generate_sigma(atoms, family)
        qualifying = []
        for part in all_partitions(atoms):
            candidate = SigmaAlgebra(part)
            if all(is_measurable(m, candidate) for m in family):
                qualifying.append(candidate)
        assert sigma in qualifying
        assert all(refines(q, sigma) for q in qualifying)


@given(st.lists(st.sets(st.sampled_from(["a", "b", "c", "d"])), max_size=4))
@settings(max_examples=100)
def test_generate_sigma_idempotent(family):
    atoms = ("a", "b", "c", "d")
    sigma = generate_sigma(atoms, family)
    again = generate_sigma(atoms, list(sigma.blocks))
    assert again == sigma


# ------------------------------------------------------------ measurability

def test_is_measurable_trivial_cases():
    sigma = SigmaAlgebra((frozenset({"a", "b"}), frozenset({"c"})))
    assert is_measurable(frozenset(), sigma)
    assert not is_measurable({"a"}, sigma)  # half a block
    assert is_measurable({"a", "b", "c"}, sigma)  # union of two blocks


def test_cover_trivial_cases():
    assert measurable_cover(frozenset(), trivial_sigma(("a", "b"))) == frozenset()
    assert measurable_cover({"a"}, trivial_sigma(("a", "b"))) == {"a", "b"}


def test_cover_is_cheapest_measurable_superset():
    rng = random.Random(77)
    atoms = ("a", "b", "c", "d", "e")
    space = SampleSpace(atoms, (Fraction(1, 5),) * 5)
    for sigma in all_sigmas(atoms)[:30]:
        for _ in range(8):
            A = frozenset(rng.sample(atoms, rng.randint(0, 5)))
            cover = measurable_cover(A, sigma)
            assert A <= cover and is_measurable(cover, sigma)
            assert space.prob(cover) == oracle_outer(A, sigma, space)


def test_cover_minimality():
    atoms = ("a", "b", "c", "d")
    for sigma in all_sigmas(atoms):
        for A in subsets_of(atoms):
            cover = measurable_cover(A, sigma)
            for sub in measurable_subsets(sigma):
                if sub < cover:
                    assert not A <= sub


def test_block_lookups_match_block_scans_exhaustive():
    # every partition of every atom prefix up to five atoms, against the
    # definitions that scan the blocks of plain frozensets
    prefixes = [tuple("abcde"[:n]) for n in range(1, 6)]
    sigmas = [SigmaAlgebra(p) for atoms in prefixes for p in all_partitions(atoms)]
    for finer in sigmas:
        for coarser in sigmas:
            assert refines(finer, coarser) == oracle_refines(finer, coarser)
    for sigma in sigmas:
        universe = frozenset().union(*sigma.blocks)
        for atom in universe:
            assert sigma.block_of(atom) == next(b for b in sigma.blocks if atom in b)
        with pytest.raises(ValueError):
            sigma.block_of("z")
        for A in subsets_of(sorted(universe)):
            cover = frozenset().union(*(b for b in sigma.blocks if b & A))
            assert measurable_cover(A, sigma) == cover
            assert is_measurable(A, sigma) == all(b <= A or not b & A for b in sigma.blocks)


# ------------------------------------------------------------ outer measure

def test_outer_measure_examples():
    two = SampleSpace(("a", "b"), (Fraction(1, 2), Fraction(1, 2)))
    assert outer_measure(frozenset(), trivial_sigma(two.atoms), two) == 0
    # under the trivial partition the only superset of {a} is the whole space
    assert oracle_outer({"a"}, trivial_sigma(two.atoms), two) == 1
    assert outer_measure({"a"}, trivial_sigma(two.atoms), two) == 1
    assert outer_measure({"a"}, discrete_sigma(two.atoms), two) == Fraction(1, 2)


def test_outer_measure_extends_the_probability():
    atoms = ("a", "b", "c", "d")
    space = SampleSpace(atoms, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)))
    for sigma in all_sigmas(atoms):
        for A in measurable_subsets(sigma):
            assert outer_measure(A, sigma, space) == space.prob(A)


def test_outer_measure_monotone_and_subadditive_exhaustive():
    atoms = ("a", "b", "c", "d", "e")
    space = SampleSpace(
        atoms, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8), Fraction(0))
    )
    subsets = list(subsets_of(atoms))
    for sigma in all_sigmas(atoms):
        star = {A: outer_measure(A, sigma, space) for A in subsets}
        for A in subsets:
            for B in subsets:
                if A <= B:
                    assert star[A] <= star[B]
                assert star[A | B] <= star[A] + star[B]


def test_outer_measure_continuous_on_increasing_chains():
    atoms = ("a", "b", "c", "d")
    space = SampleSpace(atoms, (Fraction(1, 4),) * 4)
    for sigma in all_sigmas(atoms):
        star = {A: outer_measure(A, sigma, space) for A in subsets_of(atoms)}
        for A in subsets_of(atoms):
            for B in subsets_of(atoms):
                if not A <= B:
                    continue
                for C in subsets_of(atoms):
                    if not B <= C:
                        continue
                    values = [star[A], star[B], star[C]]
                    assert values == sorted(values)
                    assert star[A | B | C] == values[-1]


def test_outer_measure_continuity_random_larger_spaces():
    rng = random.Random(4242)
    for _ in range(200):
        n = rng.randint(5, 8)
        atoms = tuple(f"w{i}" for i in range(n))
        raw = [rng.randint(0, 4) for _ in atoms]
        if not any(raw):
            raw[0] = 1
        space = SampleSpace(atoms, tuple(Fraction(x, sum(raw)) for x in raw))
        sigma = SigmaAlgebra(rng.choice(list(all_partitions(atoms))))
        chain = []
        current = set()
        for _ in range(rng.randint(1, 4)):
            current |= {a for a in atoms if rng.random() < 0.3}
            chain.append(frozenset(current))
        values = [outer_measure(s, sigma, space) for s in chain]
        assert values == sorted(values)
        assert outer_measure(frozenset().union(*chain), sigma, space) == values[-1]


def test_outer_measure_matches_enumeration_oracle_on_random_spaces():
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.randint(1, 5)
        atoms = tuple("abcde"[:n])
        raw = [rng.randint(0, 3) for _ in atoms]
        if not any(raw):
            raw[0] = 1
        space = SampleSpace(atoms, tuple(Fraction(x, sum(raw)) for x in raw))
        blocks = list(all_partitions(atoms))
        sigma = SigmaAlgebra(rng.choice(blocks))
        A = frozenset(rng.sample(atoms, rng.randint(0, n)))
        assert outer_measure(A, sigma, space) == oracle_outer(A, sigma, space)
