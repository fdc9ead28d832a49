import random
from fractions import Fraction
from itertools import combinations

import pytest

from finsection import (
    FilteredSpace,
    SampleSpace,
    SigmaAlgebra,
    TimeGrid,
    discrete_sigma,
    format_rational,
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


def test_rational_needs_the_whole_string_in_ascii_digits():
    # "$" would match before a trailing newline, and both \d and Fraction
    # take non-ASCII decimal digits
    for bad in ("1/2\n", "3\n", " 1/2", "1/2 ", "\u0661/2", "1/\u0662", "\uff11", "1\n/2"):
        with pytest.raises(ValueError, match="not a rational literal"):
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


def test_prob_matches_a_fraction_sum_with_mixed_denominators():
    rng = random.Random(404)
    for _ in range(200):
        n = rng.randint(1, 9)
        atoms = tuple(f"x{i}" for i in range(n))
        cuts = sorted(Fraction(rng.randint(0, 60), rng.choice((1, 2, 3, 5, 7, 12, 60))) for _ in range(n - 1))
        cuts = [min(c, Fraction(1)) for c in cuts]
        weights = [b - a for a, b in zip([Fraction(0)] + cuts, cuts + [Fraction(1)])]
        space = SampleSpace(atoms, weights)
        for _ in range(5):
            subset = [a for a in atoms if rng.random() < 0.5]
            oracle = sum((w for a, w in zip(atoms, weights) if a in subset), Fraction(0))
            assert space.prob(frozenset(subset)) == oracle
            assert space.prob(subset + subset) == oracle  # each atom counted once
        with pytest.raises(ValueError, match="unknown atom 'zz'"):
            space.prob({atoms[0], "zz"})


def test_weights_must_sum_to_one_over_mixed_denominators():
    SampleSpace(("a", "b", "c"), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    with pytest.raises(ValueError, match="sum to exactly 1"):
        SampleSpace(("a", "b", "c"), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 7)))


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


def test_blocks_are_ordered_as_their_sorted_atom_lists():
    rng = random.Random(505)
    atoms = [f"a{i}" for i in range(12)]
    for _ in range(300):
        pool = rng.sample(atoms, rng.randint(1, len(atoms)))
        labels = [rng.randrange(len(pool)) for _ in pool]
        blocks = [frozenset(a for a, lab in zip(pool, labels) if lab == j) for j in set(labels)]
        rng.shuffle(blocks)
        assert SigmaAlgebra(blocks).blocks == tuple(sorted(blocks, key=sorted))


def test_partition_blocks_must_be_nonempty():
    for blocks in ([frozenset()], [frozenset({"a"}), frozenset()], [frozenset(), frozenset({"a"}), frozenset({"a"})]):
        with pytest.raises(ValueError, match="partition blocks must be nonempty"):
            SigmaAlgebra(blocks)
    with pytest.raises(ValueError, match="partition needs at least one block"):
        SigmaAlgebra(())
    with pytest.raises(ValueError, match="pairwise disjoint"):
        SigmaAlgebra([frozenset({"a", "b"}), frozenset({"b"})])


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
        assert sigma._block_of == {atom: b for b in sigma.blocks for atom in b}
        for A in subsets_of(sorted(universe)):
            cover = frozenset().union(*(b for b in sigma.blocks if b & A))
            assert measurable_cover(A, sigma) == cover
            assert is_measurable(A, sigma) == all(b <= A or not b & A for b in sigma.blocks)


# ----------------------------------------------------- derived partitions


def derive(parent, blocks):
    """``parent._split`` of ``blocks``, each block equal to one of the
    parent's passed as the parent's own object."""
    own = {b: b for b in parent.blocks}
    return parent._split([own.get(frozenset(b), frozenset(b)) for b in blocks])


def test_refines_takes_a_derived_partition_at_once_and_others_the_general_way():
    # every split of every partition of four atoms, against every partition
    sigmas = [SigmaAlgebra(p) for p in all_partitions(tuple("abcd"))]
    for parent in sigmas:
        for child in sigmas:
            if not oracle_refines(child, parent):
                continue
            derived = derive(parent, child.blocks)
            assert derived.blocks == child.blocks
            assert refines(derived, parent)
            # the parent refines a derived partition only when nothing was split
            assert refines(parent, derived) == (derived.blocks == parent.blocks)
            for other in sigmas:
                assert refines(derived, other) == oracle_refines(derived, other)
                assert refines(other, derived) == oracle_refines(other, derived)


def test_a_built_partition_records_no_parent():
    parent = SigmaAlgebra([frozenset("ab"), frozenset("cd")])
    assert SigmaAlgebra(derive(parent, ["a", "b", "cd"]).blocks)._parent is None
    assert derive(parent, ["a", "b", "cd"])._parent is parent
    assert derive(parent, ["ab", "cd"]) is parent


def test_a_filtration_through_a_derived_partition_is_checked_against_its_own_step():
    parent = SigmaAlgebra([frozenset("ab"), frozenset("cd")])
    derived = derive(parent, ["a", "b", "cd"])
    other = SigmaAlgebra([frozenset("ac"), frozenset("bd")])
    assert not refines(derived, other)
    space = SampleSpace(tuple("abcd"), (Fraction(1, 4),) * 4)
    grid = TimeGrid((0, 1, 2))
    assert FilteredSpace(space, grid, (trivial_sigma("abcd"), parent, derived)).filtration[2] is derived
    with pytest.raises(ValueError, match=r"filtration\[2\] does not refine filtration\[1\]"):
        FilteredSpace(space, grid, (trivial_sigma("abcd"), other, derived))


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
