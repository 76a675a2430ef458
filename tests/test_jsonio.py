import json
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubekit import jsonio
from cubekit.cli import main
from cubekit.graphs import grid_graph, path_graph
from cubekit.jsonio import as_number, canonical_dumps, decode_number, encode_rows, jsonable
from cubekit.walls import Wallspace, dual_cube_complex

from helpers import halfspace_lists, hyperplane_lists, skeleton_of, star_graph


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
        # fragments under sorted keys, next to a float (the exact path), and
        # next to strings that encode as a fragment's placeholder does
        {"z": encode_rows("[%d,%d]", [[9, 10], [99, 100]]), "a": 0.5, "m": {"y": encode_rows("%d", [7])}},
        {"s": '"\x00', "t": ["\x00"], "z": encode_rows("%d", [999, 1000])},
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
    report = {
        "command": "promote", "sizes": [np.int64(3), 4], "ratio": Fraction(3, 2), "set": {2, 1},
        "rows": encode_rows("[%d,%d]", [[0, 1]]), "ids": [encode_rows("%d", [9, 10])],
    }
    assert canonical_dumps(report) == (
        '{"command":"promote","ids":[[9,10]],"ratio":[3,2],"rows":[[0,1]],"set":[1,2],"sizes":[3,4]}\n'
    )
    assert len(calls) == 1
    assert canonical_dumps({"x": 0.5}) == '{"x":[1,2]}\n' and len(calls) == 3


# ---------------------------------------------------------------------------
# encode_rows against json.dumps of the lists and dicts it replaces

# template -> the JSON value of one row, as the report once built it
TEMPLATES = {
    "%d": lambda r: r[0],
    "[%d,%d]": lambda r: r,
    '{"distance":%d,"pair":[%d,%d],"sum":%d}': lambda r: {"pair": r[1:3], "distance": r[0], "sum": r[3]},
}


def _nested(items: list, groups) -> list:
    """`items` cut into runs of the first sizes, those into runs of the
    next, and so on."""
    for sizes in groups:
        ends = np.cumsum(sizes).tolist()
        items = [items[a:b] for a, b in zip([0] + ends, ends)]
    return items


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _first_difference(text: str, expected: str):
    """None when the texts are equal, else the first differing position and
    the texts around it (pytest's own diff of megabyte strings takes
    minutes)."""
    if text == expected:
        return None
    at = next((i for i, (a, b) in enumerate(zip(text, expected)) if a != b), min(len(text), len(expected)))
    return at, text[at - 20 : at + 20], expected[at - 20 : at + 20]


@st.composite
def tables(draw):
    """(template, rows x slots int table, nesting group sizes, block size)."""
    template = draw(st.sampled_from(sorted(TEMPLATES)))
    slots = template.count("%d")
    # ids around every digit boundary up to 10^4, negatives and 64-bit extremes
    edges = [b + d for b in (0, 9, 99, 999, 9999) for d in (0, 1)]
    value = st.one_of(st.sampled_from(edges), st.integers(-(2**63), 2**63 - 1))
    rows = draw(st.lists(st.lists(value, min_size=slots, max_size=slots), max_size=40))
    groups, count = [], len(rows)
    for _ in range(draw(st.integers(0, 3) if rows else st.just(0))):
        cuts = sorted(draw(st.sets(st.integers(1, count - 1), max_size=count - 1))) if count > 1 else []
        sizes = np.diff([0, *cuts, count]).tolist()
        groups.append(sizes)
        count = len(sizes)
    return template, rows, groups, draw(st.integers(1, 12))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(tables())
def test_encode_rows_is_json_dumps_of_the_nested_rows(case):
    template, rows, groups, block = case
    table = np.array(rows, dtype=np.int64).reshape(len(rows), template.count("%d"))
    with mock.patch.object(jsonio, "_BLOCK", block):  # many blocks, cut anywhere
        fragment = encode_rows(template, table, *groups)
    expected = _dumps(_nested([TEMPLATES[template](r) for r in rows], groups))
    assert fragment.text == expected
    assert canonical_dumps({"t": fragment, "a": 1}) == '{"a":1,"t":%s}\n' % expected


def test_encode_rows_refuses_groups_that_do_not_cut_the_rows():
    with pytest.raises(ValueError, match="do not cut"):
        encode_rows("%d", np.arange(3), [2, 2])
    with pytest.raises(ValueError, match="do not cut"):
        encode_rows("%d", np.arange(3), [3, 0])


@pytest.mark.parametrize(
    "skeleton",
    [
        pytest.param(lambda: skeleton_of(path_graph(1)), id="zero-walls"),
        pytest.param(lambda: skeleton_of(star_graph(12)), id="one-vertex-sides"),
        pytest.param(lambda: skeleton_of(grid_graph(11, 11)), id="grid-ids-past-99"),
        # 1,099 walls of 1,100 members each: ids past 999, more than one block
        pytest.param(lambda: skeleton_of(path_graph(1100)), id="path-past-one-block"),
        pytest.param(lambda: dual_cube_complex(Wallspace(4, (((0,), (1, 2, 3)), ((0, 1), (2, 3))))).skeleton,
                     id="dual"),
    ],
)
def test_skeleton_report_is_json_dumps_of_its_lists(skeleton):
    c = skeleton()
    report = c.to_dict()
    assert _first_difference(report["hyperplanes"].text, _dumps(hyperplane_lists(c))) is None
    assert _first_difference(report["halfspaces"].text, _dumps(halfspace_lists(c))) is None
    # the cached tuples read the same labels
    assert [list(map(list, h)) for h in c.hyperplanes] == hyperplane_lists(c)


def test_df_check_without_samples_writes_an_empty_table(tmp_path, capsys):
    fixture = str(tmp_path / "tree.json")
    assert main(["gen-fixture", "tree-axes", "--n", "20", "--out", fixture]) == 0
    capsys.readouterr()
    assert main(["df-check", "--in", fixture, "--s", "2000", "--samples", "0"]) == 0
    assert '"sample_rows":[]' in capsys.readouterr().out
