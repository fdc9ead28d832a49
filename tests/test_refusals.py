"""Library refusals that no CLI path reaches, one pinned message each, and
the conversions a caller's plain int takes on its way to a Fraction."""

import re
from fractions import Fraction

import pytest

from finsection import (
    INF,
    FilteredSpace,
    RandomTime,
    SampleSpace,
    StochasticSet,
    TimeGrid,
    build_monotone_scheme,
    combine_min,
    constant_time,
    format_rational,
    interval,
    is_measurable,
    is_stopping_time,
    optional_section,
    predictable_section,
    shift,
    trivial_sigma,
)
from finsection.document import time_from_literal

from gen import fix_a


def one_sigma_for_two_points():
    atoms = ("w1", "w2")
    FilteredSpace(SampleSpace(atoms, (Fraction(1, 2),) * 2), TimeGrid((0, 1)), (trivial_sigma(atoms),))


def partial_time():
    is_stopping_time(RandomTime({"w1": 0}), fix_a())


def time_past_the_grid():
    is_stopping_time(RandomTime({"w1": 0, "w2": 2}), fix_a())


def endpoints_on_other_atoms():
    interval(constant_time(("w1", "w2"), 0), constant_time(("w1",), 1), fix_a())


def times_on_other_atoms():
    combine_min([constant_time(("w1", "w2"), 0), constant_time(("w1",), 1)])


def zero_step_shift():
    shift(constant_time(("w1", "w2"), 0), 0, fix_a())


def no_atoms():
    SampleSpace((), ())


def subset_outside_the_universe():
    is_measurable({"z"}, trivial_sigma(("w1", "w2")))


def scheme_of_an_optional_set():
    build_monotone_scheme(StochasticSet({("w1", 1)}), fix_a())


def time_literal_as_a_list():
    time_from_literal([["w1", 0]], ("w1",))


REFUSALS = [
    (one_sigma_for_two_points, "need exactly one sigma-algebra per grid point"),
    (partial_time, "random time must be total on the space's atoms"),
    (time_past_the_grid, "random time values must be grid indices or INF"),
    (endpoints_on_other_atoms, "interval endpoints must share the atom set"),
    (times_on_other_atoms, "combined times must share the atom set"),
    (zero_step_shift, "shift needs a positive step count"),
    (no_atoms, "sample space needs at least one atom"),
    (subset_outside_the_universe, "subset must live inside the sigma-algebra's universe"),
    (scheme_of_an_optional_set, "interval representation needs a predictable set"),
    (time_literal_as_a_list, "time literal must be an object"),
]


@pytest.mark.parametrize("call, message", [pytest.param(call, message, id=call.__name__) for call, message in REFUSALS])
def test_library_refusal_pins_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_format_rational_converts_an_int():
    assert format_rational(3) == "3/1"
    assert format_rational(Fraction(6, 4)) == "3/2"


def test_solvers_take_an_int_epsilon_as_its_fraction():
    X = fix_a()
    P = StochasticSet({("w1", 1), ("w2", 1)})
    O = StochasticSet({("w1", 1)})
    for solve, S in ((predictable_section, P), (optional_section, O)):
        got, want = solve(S, X, 0), solve(S, X, Fraction(0))
        assert got == want
        assert type(got.deficit) is Fraction
    assert predictable_section(P, X, 0).time.values == {"w1": 1, "w2": 1}
    assert optional_section(O, X, 0).time.values == {"w1": 1, "w2": INF}
