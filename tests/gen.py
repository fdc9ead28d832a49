"""Deterministic fixture builders, exhaustive enumerators, and independent
oracles shared across the test suite.

The oracles deliberately avoid the library's representations (they work on
plain frozensets and dicts) so each check runs through two routes.
"""

from fractions import Fraction
from itertools import product

from finsection import (
    INF,
    FilteredSpace,
    SampleSpace,
    SigmaAlgebra,
    StochasticSet,
    TimeGrid,
    debut,
    discrete_sigma,
    trivial_sigma,
)

ATOM_NAMES = ("a", "b", "c", "d", "e", "f")


# ---------------------------------------------------------------- fixtures

def fix_a() -> FilteredSpace:
    """Two fair atoms, grid 0..1, trivial then discrete partitions."""
    space = SampleSpace(("w1", "w2"), (Fraction(1, 2), Fraction(1, 2)))
    grid = TimeGrid((Fraction(0), Fraction(1)))
    return FilteredSpace(space, grid, (trivial_sigma(space.atoms), discrete_sigma(space.atoms)))


def fix_b() -> FilteredSpace:
    """Four fair atoms, grid 0..2, trivial / pairs / discrete partitions."""
    atoms = ("w1", "w2", "w3", "w4")
    space = SampleSpace(atoms, tuple(Fraction(1, 4) for _ in atoms))
    grid = TimeGrid((Fraction(0), Fraction(1), Fraction(2)))
    mid = SigmaAlgebra((frozenset({"w1", "w2"}), frozenset({"w3", "w4"})))
    return FilteredSpace(space, grid, (trivial_sigma(atoms), mid, discrete_sigma(atoms)))


# ------------------------------------------------------------- enumerators

def all_partitions(items):
    """Every partition of the items, as tuples of frozensets."""
    items = list(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for part in all_partitions(rest):
        yield part + (frozenset({first}),)
        for i, block in enumerate(part):
            yield part[:i] + (block | {first},) + part[i + 1 :]


def all_sigmas(atoms):
    return [SigmaAlgebra(p) for p in all_partitions(atoms)]


def refining_chains(atoms, length):
    """Every filtration of the given length over the atoms."""
    sigmas = all_sigmas(atoms)

    def extend(chain):
        if len(chain) == length:
            yield tuple(chain)
            return
        for sigma in sigmas:
            if not chain or oracle_refines(sigma, chain[-1]):
                yield from extend(chain + [sigma])

    yield from extend([])


def measurable_subsets(sigma: SigmaAlgebra):
    """All unions of blocks."""
    blocks = sigma.blocks
    out = []
    for bits in range(1 << len(blocks)):
        acc = frozenset()
        for i, block in enumerate(blocks):
            if bits >> i & 1:
                acc |= block
        out.append(acc)
    return out


def exhaustive_spaces(max_atoms, max_times):
    """Every uniform filtered space with at most the given sizes."""
    for n in range(1, max_atoms + 1):
        atoms = ATOM_NAMES[:n]
        space = SampleSpace(atoms, tuple(Fraction(1, n) for _ in atoms))
        for n_times in range(1, max_times + 1):
            grid = TimeGrid(tuple(Fraction(k) for k in range(n_times)))
            for chain in refining_chains(atoms, n_times):
                yield FilteredSpace(space, grid, chain)


def _sets_from_slices(X, slice_choices):
    for combo in product(*slice_choices):
        cells = frozenset((a, k) for k, sl in enumerate(combo) for a in sl)
        yield StochasticSet(cells)


def predictable_sets_of(X: FilteredSpace):
    choices = [measurable_subsets(X.lookback(k)) for k in range(X.n_times)]
    yield from _sets_from_slices(X, choices)


def optional_sets_of(X: FilteredSpace):
    choices = [measurable_subsets(X.filtration[k]) for k in range(X.n_times)]
    yield from _sets_from_slices(X, choices)


# ------------------------------------------------------ random generation

def random_space(rng, max_atoms=16) -> SampleSpace:
    n = rng.randint(1, max_atoms)
    atoms = tuple(f"w{i}" for i in range(1, n + 1))
    raw = [rng.randint(0, 4) for _ in atoms]
    if not any(raw):
        raw[rng.randrange(n)] = 1
    total = sum(raw)
    return SampleSpace(atoms, tuple(Fraction(x, total) for x in raw))


def random_grid(rng, max_times=5) -> TimeGrid:
    n = rng.randint(1, max_times)
    labels = []
    current = Fraction(0)
    for _ in range(n):
        labels.append(current)
        current += Fraction(rng.randint(1, 3), rng.choice((1, 2)))
    return TimeGrid(tuple(labels))


def random_partition(rng, atoms) -> SigmaAlgebra:
    atoms = list(atoms)
    rng.shuffle(atoms)
    blocks: list[list] = []
    for a in atoms:
        if blocks and rng.random() < 0.6:
            rng.choice(blocks).append(a)
        else:
            blocks.append([a])
    return SigmaAlgebra(tuple(frozenset(b) for b in blocks))


def random_refinement(rng, sigma: SigmaAlgebra) -> SigmaAlgebra:
    blocks = []
    for block in sigma.blocks:
        items = list(block)
        if len(items) > 1 and rng.random() < 0.5:
            rng.shuffle(items)
            cut = rng.randint(1, len(items) - 1)
            blocks.append(frozenset(items[:cut]))
            blocks.append(frozenset(items[cut:]))
        else:
            blocks.append(block)
    return SigmaAlgebra(tuple(blocks))


def random_filtered_space(rng, max_atoms=16, max_times=5) -> FilteredSpace:
    space = random_space(rng, max_atoms)
    grid = random_grid(rng, max_times)
    sigmas = [random_partition(rng, space.atoms)]
    for _ in range(len(grid) - 1):
        sigmas.append(random_refinement(rng, sigmas[-1]))
    return FilteredSpace(space, grid, tuple(sigmas))


def _random_union_of_blocks(rng, sigma, density=0.4) -> frozenset:
    acc = frozenset()
    for block in sigma.blocks:
        if rng.random() < density:
            acc |= block
    return acc


def random_predictable_set(rng, X: FilteredSpace) -> StochasticSet:
    cells = set()
    for k in range(X.n_times):
        for a in _random_union_of_blocks(rng, X.lookback(k)):
            cells.add((a, k))
    return StochasticSet(frozenset(cells))


def random_optional_set(rng, X: FilteredSpace) -> StochasticSet:
    cells = set()
    for k in range(X.n_times):
        for a in _random_union_of_blocks(rng, X.filtration[k]):
            cells.add((a, k))
    return StochasticSet(frozenset(cells))


def random_any_set(rng, X: FilteredSpace, density=0.3) -> StochasticSet:
    cells = frozenset(
        (a, k) for a in X.atoms for k in range(X.n_times) if rng.random() < density
    )
    return StochasticSet(cells)


def random_stopping_time(rng, X: FilteredSpace):
    return debut(random_optional_set(rng, X), X)


# ----------------------------------------------------------------- oracles

def oracle_eval(ground, nodes, depth, branching) -> frozenset:
    """Direct double-loop scheme evaluation over plain frozensets: union over
    every bounded index sequence of the intersection along its prefixes,
    with absent nodes read as the full ground set."""
    ground = frozenset(ground)
    result = set()
    for branch in product(range(1, branching + 1), repeat=depth):
        cur = set(ground)
        for k in range(1, depth + 1):
            cur &= nodes.get(branch[:k], ground)
        result |= cur
    return frozenset(result)


def oracle_projection(cells) -> frozenset:
    """Atoms of a plain frozenset of (atom, index) cells."""
    return frozenset(atom for atom, _ in cells)


def oracle_debut(cells, atoms) -> dict:
    """First index per atom over a plain frozenset of cells, INF when the
    atom has no cell."""
    return {a: min((k for b, k in cells if b == a), default=INF) for a in atoms}


def oracle_outer(subset, sigma: SigmaAlgebra, space: SampleSpace) -> Fraction:
    """Outer measure by enumerating every measurable superset."""
    subset = frozenset(subset)
    best = None
    for candidate in measurable_subsets(sigma):
        if subset <= candidate:
            p = space.prob(candidate)
            if best is None or p < best:
                best = p
    return best


def oracle_refines(finer: SigmaAlgebra, coarser: SigmaAlgebra) -> bool:
    """Refinement by scanning blocks: both partitions cover the same atoms,
    and every block of the finer one sits inside some block of the coarser."""
    if frozenset().union(*finer.blocks) != frozenset().union(*coarser.blocks):
        return False
    return all(any(fb <= cb for cb in coarser.blocks) for fb in finer.blocks)


def oracle_index_of_key(key) -> tuple:
    """A dotted scheme node key's index, read one entry at a time: each
    entry must be written as ``str(int)`` writes it; a key that is not a
    string is read as its ``str``."""
    index = []
    for part in str(key).split("."):
        try:
            entry = int(part)
        except ValueError:
            entry = None
        if entry is None or str(entry) != part:
            raise ValueError(f"bad scheme index key {key!r}")
        index.append(entry)
    return tuple(index)


def oracle_key_of_index(index) -> str:
    """The dotted key of one index tuple."""
    return ".".join(map(str, index))


def closure_under_ops(ground, members):
    """Close a family of frozensets under pairwise unions and intersections."""
    family = {frozenset(m) for m in members}
    changed = True
    while changed:
        changed = False
        current = list(family)
        for i, a in enumerate(current):
            for b in current[i:]:
                for candidate in (a | b, a & b):
                    if candidate not in family:
                        family.add(candidate)
                        changed = True
    return family
