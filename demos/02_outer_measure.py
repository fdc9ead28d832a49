# Outer measure on a finite space: covers, extension, and continuity.
#
# The outer measure of a set is the cheapest probability of a measurable
# superset.  With a finite sigma-algebra (a partition) the infimum is
# attained by the union of all blocks the set touches.

from fractions import Fraction

from finsection import (
    SampleSpace,
    generate_sigma,
    is_measurable,
    measurable_cover,
    outer_measure,
    trivial_sigma,
)

space = SampleSpace(("a", "b", "c", "d"), (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)))

# generate_sigma groups atoms by their membership signature, giving the
# coarsest partition making every listed set measurable.
sigma = generate_sigma(space.atoms, [{"a", "b"}])
print("blocks:", [sorted(b) for b in sigma.blocks])

target = {"a", "c"}
print("is {a,c} measurable?", is_measurable(target, sigma))
print("cover of {a,c}:", sorted(measurable_cover(target, sigma)))
print("P*({a,c}) =", outer_measure(target, sigma, space))
print()

# On measurable sets the outer measure is just the probability.
print("P*({a,b}) =", outer_measure({"a", "b"}, sigma, space), "= P =", space.prob({"a", "b"}))

# Under the trivial partition everything nonempty covers to the whole space.
print("P*({c}) under trivial sigma:", outer_measure({"c"}, trivial_sigma(space.atoms), space))
print()

# Increasing chains: the outer measure of the union is the limit (= last).
chain = [{"a"}, {"a", "c"}, {"a", "c", "d"}]
values = [outer_measure(s, sigma, space) for s in chain]
print("chain values:", values, "union:", outer_measure(set().union(*chain), sigma, space))
