"""The record contract of the package's record classes, one row per class.

Records share one constructor, ``_Record.__init__``: it takes each field
by position or keyword, once, and refuses a missing field, an extra
positional argument, an unknown keyword and a field given twice with a
``TypeError`` naming the class.  It stores through ``object.__setattr__``
rather than ``self.__dict__``, whose first read makes every later
attribute load slower.  Records compare by the tuple of their fields and
only with records of their own class, hash as that tuple, print as
``Name(field=value, ...)``, refuse assignment and deletion, and survive
``pickle`` and ``copy``.  Four classes differ: ``SouslinScheme`` compares
and hashes by identity, a record holding a dict (a ``RandomTime``, a
``SectionResult``, a ``TimeClassification``) or a ``FixtureDocument`` is
unhashable, a ``FixtureDocument`` can also be assigned to, and a
``StochasticSet`` is built from its cells, not from its one field.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from finsection import (
    INF,
    FilteredSpace,
    OptionalDecomposition,
    Paving,
    RandomTime,
    SampleSpace,
    SectionResult,
    SectionTrace,
    SigmaAlgebra,
    SouslinScheme,
    StochasticSet,
    TimeClassification,
    TimeGrid,
    discrete_sigma,
    trivial_sigma,
)
from finsection.document import FixtureDocument

HALF = Fraction(1, 2)


def space(weights=(HALF, HALF)):
    return FilteredSpace(SampleSpace(("a", "b"), weights), TimeGrid((0, 1)), (trivial_sigma("ab"), discrete_sigma("ab")))


def paving(members=(0, 1, 3)):
    return Paving(("a", "b"), members)


def trace(deficit=Fraction(0)):
    return SectionTrace((1,), (HALF,), deficit)


def classification(cover=()):
    return TimeClassification(cover, RandomTime({"a": INF, "b": INF}), RandomTime({"a": 0, "b": INF}))


# (class, its fields in order, two builders of unequal records, hashable)
ROWS = [
    (SampleSpace, ("atoms", "weights"), lambda: SampleSpace(("a", "b"), (HALF, HALF)),
     lambda: SampleSpace(("a", "b"), (Fraction(1, 4), Fraction(3, 4))), True),
    (SigmaAlgebra, ("blocks",), lambda: discrete_sigma("ab"), lambda: trivial_sigma("ab"), True),
    (TimeGrid, ("labels",), lambda: TimeGrid((0, 1)), lambda: TimeGrid((0, 2)), True),
    (FilteredSpace, ("space", "grid", "filtration"), space, lambda: space((Fraction(1, 4), Fraction(3, 4))), True),
    (RandomTime, ("values",), lambda: RandomTime({"a": 0, "b": INF}), lambda: RandomTime({"a": 1, "b": INF}), False),
    (StochasticSet, ("slices",), lambda: StochasticSet({("a", 0)}), lambda: StochasticSet({("b", 0)}), True),
    (Paving, ("ground", "member_masks"), paving, lambda: paving((0, 3)), True),
    (SouslinScheme, ("paving", "depth", "branching", "nodes"), lambda: SouslinScheme(paving(), 1, 2, {(1,): 1}),
     lambda: SouslinScheme(paving(), 1, 2, {(1,): 3}), True),
    (SectionTrace, ("chosen_prefix", "envelope_measures", "oracle_deficit"), trace, lambda: trace(HALF), True),
    (SectionResult, ("time", "deficit", "strategy", "trace"),
     lambda: SectionResult(RandomTime({"a": 0, "b": INF}), HALF, "souslin", trace()),
     lambda: SectionResult(RandomTime({"a": 0, "b": INF}), HALF, "debut-oracle", trace()), False),
    (OptionalDecomposition, ("predictable_part", "thin_times"), lambda: OptionalDecomposition(StochasticSet(), ()),
     lambda: OptionalDecomposition(StochasticSet({("a", 1)}), ()), True),
    (FixtureDocument, ("X", "sets", "times", "schemes"), lambda: FixtureDocument(space(), {}, {}, {}),
     lambda: FixtureDocument(space(), {"S": StochasticSet()}, {}, {}), False),
    (TimeClassification, ("cover", "ti_part", "acc_part"), classification,
     lambda: classification((RandomTime({"a": 0, "b": 0}),)), False),
]


def fields_of(record, fields):
    return tuple(getattr(record, name) for name in fields)


@pytest.mark.parametrize("cls, fields, make, make_other, hashable", ROWS, ids=[row[0].__name__ for row in ROWS])
def test_record_contract(cls, fields, make, make_other, hashable):
    a, twin, other = make(), make(), make_other()
    by_identity = cls is SouslinScheme

    # equal fields give equal records (by value) and equal hashes
    assert fields_of(a, fields) == fields_of(twin, fields)
    assert (a == twin) is not by_identity
    assert a == a and not a != a
    if cls is not StochasticSet:  # built from cells, not from its one field
        by_keyword = cls(**dict(zip(fields, fields_of(a, fields))))
        assert fields_of(by_keyword, fields) == fields_of(a, fields)
    if by_identity:
        assert hash(a) == object.__hash__(a)
    elif hashable:
        assert hash(a) == hash(twin) == hash(fields_of(a, fields))
    else:
        with pytest.raises(TypeError):
            hash(a)
    # different fields give unequal records
    assert fields_of(a, fields) != fields_of(other, fields)
    assert a != other and not a == other
    # a record never equals a record of another class, nor its own fields
    for row in ROWS:
        if row[0] is not cls:
            assert a != row[2]()
    assert a != fields_of(a, fields)

    assert repr(a).startswith(f"{cls.__name__}({fields[0]}=")

    # pickle and copy restore the fields without assigning
    for clone in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(clone) is cls
        assert fields_of(clone, fields) == fields_of(a, fields)
        assert (clone == a) is not by_identity

    if cls is FixtureDocument:  # mutable: a field can be assigned and deleted
        twin.sets = {"S": StochasticSet()}
        assert twin == other
        del twin.schemes
        assert not hasattr(twin, "schemes")
        return
    for name in fields:
        with pytest.raises(AttributeError, match=name):
            setattr(a, name, None)
        with pytest.raises(AttributeError, match=name):
            delattr(a, name)
    assert fields_of(a, fields) == fields_of(twin, fields)


@pytest.mark.parametrize("cls, fields, make", [row[:3] for row in ROWS if row[0] is not StochasticSet],
                         ids=[row[0].__name__ for row in ROWS if row[0] is not StochasticSet])
def test_record_constructor_binds_each_field_once(cls, fields, make):
    values = fields_of(make(), fields)
    refusal = rf"{cls.__name__}\(\) takes {', '.join(fields)} once each"
    for args, kwargs in [
        (values[:-1], {}),  # the last field missing
        ((), dict(zip(fields[1:], values[1:]))),  # the first field missing
        ((*values, None), {}),  # an extra positional argument
        (values, {"unknown": None}),  # an unknown keyword
        (values[:1], dict(zip(fields, values))),  # the first field by position and by keyword
    ]:
        with pytest.raises(TypeError, match=refusal):
            cls(*args, **kwargs)
