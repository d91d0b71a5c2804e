"""The four result records are named tuples: fixed fields, the keyword repr
they had as frozen dataclasses, immutable, and equal and hashed by value."""

import io
import json
from fractions import Fraction

import pytest

from partpoly import (
    Partition,
    approximate,
    avg_table,
    collision_search,
)
from partpoly.cli import run

REPRS = [
    (
        lambda: avg_table(3),
        ("n", "values", "monotone", "first_violation"),
        "AvgReport(n=3, values=(Fraction(1, 4), Fraction(5, 12), Fraction(1, 2)), "
        "monotone=True, first_violation=None)",
    ),
    (
        lambda: approximate(Fraction(1, 3), Fraction(1, 4)).steps[0],
        ("index", "weights", "start_index", "integral", "error_bound"),
        "DensityStep(index=1, weights=(1, 1), start_index=4, integral=Fraction(7, 20), "
        "error_bound=Fraction(3, 40))",
    ),
    (
        lambda: approximate(Fraction(1, 3), Fraction(1, 4)),
        ("target", "epsilon", "start_index", "interval", "steps", "achieved_error"),
        "DensityTrace(target=Fraction(1, 3), epsilon=Fraction(1, 4), start_index=4, "
        "interval=(Fraction(11, 40), Fraction(17, 40)), steps=(DensityStep(index=1, "
        "weights=(1, 1), start_index=4, integral=Fraction(7, 20), "
        "error_bound=Fraction(3, 40)),), achieved_error=Fraction(1, 60))",
    ),
    (
        lambda: collision_search(9, 3, 2),
        ("n", "length", "order", "groups", "keys"),
        "CollisionReport(n=9, length=3, order=2, groups=((Partition(<2^2,5^1>), "
        "Partition(<1^1,4^2>)),), keys=((3, 9, 24),))",
    ),
]


@pytest.mark.parametrize("make, fields, text", REPRS)
def test_record_is_a_value(make, fields, text):
    record = make()
    assert record._fields == fields
    assert repr(record) == text
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None  # __slots__ = (): no instance dict
    twin = make()
    assert twin == record and hash(twin) == hash(record)
    assert type(record)(**record._asdict()) == record
    assert type(record._replace()) is type(record)
    assert record == tuple(getattr(record, f) for f in fields)


def test_record_properties():
    trace = approximate(Fraction(1, 3), Fraction(1, 4))
    assert trace.steps[0].partition == Partition([4, 0, 0, 4])  # α(4) ⊕ β(4)
    assert trace.result == trace.steps[-1].partition
    out = io.StringIO()
    assert run(["collide", "--n", "9", "--length", "3", "--order", "2", "--format", "json"], out) == 0
    assert json.loads(out.getvalue()) == {
        "n": 9,
        "length": 3,
        "order": 2,
        "groups": [[{"multiplicities": ["0", "2", "0", "0", "1"]},
                    {"multiplicities": ["1", "0", "0", "2"]}]],
    }
