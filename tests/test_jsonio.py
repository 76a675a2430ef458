import json
from fractions import Fraction

import numpy as np
import pytest

from cubekit import jsonio
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


def _exact(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize(
    "obj",
    [
        {"x": 2.5, "y": [1.0, -0.125, 1e20, 1e-7]},
        {"f": np.float64(3.0), "g": np.float64(0.1)},
        {"i": [np.int64(7), np.int32(-3), np.uint8(255)], "b": [np.bool_(True), np.bool_(False)]},
        {"s": {3, 1, 2}, "fs": frozenset({Fraction(3, 2), Fraction(1, 2)}), "t": (1, (2, 3))},
        {7: [1], "a": 2},
        {"a": {None: 1, "b": 2}},
        {"dot": "v1.2", "exp": "made-e-up", "both": ["e+", "Infinity", "NaN"], "plain": "promote"},
        {"q": Fraction(6, 4), "w": Fraction(5, 1), "n": None, "u": "\u00e9"},
        [],
        {},
    ],
)
def test_canonical_dumps_is_the_exact_encoding(obj):
    assert canonical_dumps(obj) == _exact(obj)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_a_non_finite_float_is_refused_as_on_the_exact_path(value):
    with pytest.raises(Exception) as exact:
        _exact({"x": [value]})
    with pytest.raises(type(exact.value), match=str(exact.value)):
        canonical_dumps({"x": [value]})


def test_canonical_dumps_makes_one_encoder_call_without_floats(monkeypatch):
    calls = []
    dumps = json.dumps
    monkeypatch.setattr(jsonio.json, "dumps", lambda *a, **kw: calls.append(a) or dumps(*a, **kw))
    report = {"command": "promote", "sizes": [np.int64(3), 4], "ratio": Fraction(3, 2), "set": {2, 1}}
    assert canonical_dumps(report) == '{"command":"promote","ratio":[3,2],"set":[1,2],"sizes":[3,4]}\n'
    assert len(calls) == 1
    assert canonical_dumps({"x": 0.5}) == '{"x":[1,2]}\n' and len(calls) == 3
