from fractions import Fraction

import numpy as np
import pytest

from cubekit.jsonio import as_number, decode_number


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
