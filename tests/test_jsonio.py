from fractions import Fraction

import numpy as np
import pytest

from cubekit.jsonio import as_number, canonical_dumps, decode_number, jsonable


@pytest.mark.parametrize(
    "raw, value",
    [
        (3, 3),
        (np.int32(-4), -4),
        ("3/2", Fraction(3, 2)),
        ("1.5", Fraction(3, 2)),
        ("6/3", 2),
        (2.0, 2),
        (Fraction(7, 7), 1),
    ],
)
def test_as_number_is_exact_and_integral_values_are_ints(raw, value):
    got = as_number(raw)
    assert got == value and type(got) is type(value)


@pytest.mark.parametrize("raw", ["1/0", "-3/0", "abc"])
def test_malformed_number_is_a_value_error(raw):
    with pytest.raises(ValueError):
        as_number(raw)


def test_zero_denominator_pair_is_a_value_error():
    with pytest.raises(ValueError, match="zero denominator"):
        decode_number([1, 0])


def test_canonical_dumps_keeps_bools_ints_and_rationals_apart():
    report = {
        "b": [True, np.bool_(False), 1, 0, np.int64(2)],
        "a": (Fraction(3, 2), Fraction(4, 2), 2.5, 3.0, None, "x"),
        7: frozenset({5, 4}),
    }
    assert canonical_dumps(report) == (
        '{"7":[4,5],"a":[[3,2],2,[5,2],3,null,"x"],"b":[true,false,1,0,2]}\n'
    )
    out = jsonable([True, 1, np.bool_(True), np.int32(1)])
    assert [type(x) for x in out] == [bool, int, bool, int]


def test_jsonable_refuses_unknown_types():
    with pytest.raises(TypeError, match="cannot serialize"):
        jsonable({"x": object()})
