# Section solvers: pick a time inside a stochastic set whose finiteness
# probability nearly exhausts the projection's outer measure.
#
# The scheme route mirrors the constructive proof machinery: realize the
# predictable set as a monotone scheme over interval-valued nodes, sweep
# envelope prefixes until their projected mass clears the epsilon budget,
# then take the debut of the chosen branch.

from fractions import Fraction

from finsection import (
    FilteredSpace,
    SampleSpace,
    SigmaAlgebra,
    StochasticSet,
    TimeGrid,
    build_monotone_scheme,
    check_monotone,
    decompose_optional,
    discrete_sigma,
    eval_scheme,
    graph,
    measurable_section,
    optional_section,
    predictable_section,
    projection,
    to_interval_representation,
    trivial_sigma,
)

atoms = ("w1", "w2", "w3", "w4")
space = SampleSpace(atoms, (Fraction(1, 4),) * 4)
grid = TimeGrid((Fraction(0), Fraction(1), Fraction(2), Fraction(3)))
halves = SigmaAlgebra((frozenset({"w1", "w2"}), frozenset({"w3", "w4"})))
X = FilteredSpace(space, grid, (trivial_sigma(atoms), halves, halves, discrete_sigma(atoms)))

# A predictable set: the left half at time 2, everything at time 3.  The
# first cumulative envelope carries only half the projection mass, so a
# loose epsilon lets the sweep stop there while epsilon 0 must go deeper.
P = StochasticSet(frozenset({("w1", 2), ("w2", 2)} | {(a, 3) for a in atoms}))

pairs = to_interval_representation(P, X)
print("interval pairs:", len(pairs))

scheme = build_monotone_scheme(P, X)
print("scheme bounds:", (scheme.depth, scheme.branching), "monotone:", check_monotone(scheme))
print("scheme eval == P:", eval_scheme(scheme) == P.cells)
print()

for eps in (Fraction(0), Fraction(1, 2)):
    res = predictable_section(P, X, eps)
    print(f"eps={eps}: time={res.time.values} deficit={res.deficit}")
    print("   prefix:", res.trace.chosen_prefix, "envelopes:", res.trace.envelope_measures)
print()

# An optional set that is not predictable: the left half at time 1.
O = StochasticSet(frozenset({("w1", 1), ("w2", 1)}))
part = decompose_optional(O, X)
print("largest predictable subset:", sorted(part.predictable_part.cells))
print("thin remainder times:", [t.values for t in part.thin_times])
opt = optional_section(O, X, Fraction(0))
print("optional section:", opt.time.values, "deficit:", opt.deficit)
print("graph inside O:", graph(opt.time) <= O)
print()

# Arbitrary sets get an exact section through the constant filtration.
S = StochasticSet(frozenset({("w2", 0), ("w2", 2), ("w4", 1)}))
res = measurable_section(S, space, grid)
print("measurable section:", res.time.values)
print("finite support == projection:", res.time.finite_support() == projection(S))
