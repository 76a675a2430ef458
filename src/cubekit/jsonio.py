"""Canonical JSON helpers: exact rationals, sorted keys, atomic writes,
and the shape checks of input documents.

Rationals serialize as [numerator, denominator]; integers stay integers.
Identical in-memory reports serialize to identical bytes, in one C-level
`json.dumps` where no float or non-str key needs the exact path
(`canonical_dumps`).  An input value of the wrong kind is a `ShapeError`
that names its path in the document, such as `domains[2].pi[0]`.

The big int tables of a report (sampled rows, pairs, hyperplanes and
halfspaces) never become Python lists.  `encode_rows` writes a table
straight from its int64 array as JSON text: each row is a literal template
with `%d` slots, such as `[%d,%d]`, optionally nested in groups of runs of
rows, and the rows are %-formatted in blocks of `_BLOCK` members, so only
one block's Python ints are alive at once.  The text is an `Encoded`
fragment: `canonical_dumps` sorts the keys around it and splices its text
in as is, and `jsonable` decodes it with `json.loads`, so the exact path and
any independent re-encoding see plain lists.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def as_number(x) -> int | Fraction:
    """Exact value of an int, Fraction, float or string ('3/2', '1.5');
    integral values come back as int.  A zero denominator ('1/0') is a
    ValueError, like any other malformed number."""
    if isinstance(x, (int, np.integer)):
        return int(x)
    try:
        f = Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None
    return int(f) if f.denominator == 1 else f


def encode_number(x):
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else [x.numerator, x.denominator]
    if isinstance(x, float):
        if x.is_integer():
            return int(x)
        f = Fraction(x).limit_denominator(10**9)
        return [f.numerator, f.denominator]
    raise TypeError(f"not a number: {x!r}")


@dataclass(frozen=True)
class Encoded:
    """A JSON value already written as canonical text (sorted keys, no
    spaces, no floats), spliced into `canonical_dumps` as is."""

    text: str


_BLOCK = 1 << 20  # members %-formatted per block


def encode_rows(template: str, table, *groups: np.ndarray) -> Encoded:
    """The JSON array of the rows of an int table, each row written as
    `template`, a literal with one `%d` per column (`[%d,%d]`, or `%d` for a
    flat array, one member a row).

    `groups` nests the rows: the first gives the sizes of consecutive runs
    of rows, each run wrapped in `[...]`; the next the sizes of consecutive
    runs of those runs; and so on.  Every size is positive and each level's
    sizes add up to the count of the level below.  A row's text is its
    template with one `[` per run it opens, one `]` per run it closes and a
    comma, so a block of about `_BLOCK` members is one %-format of its rows'
    joined texts over its values.
    """
    flat = np.asarray(table, dtype=np.int64).reshape(-1)
    slots = template.count("%d")
    rows = len(flat) // slots
    depth = len(groups) + 1
    # a row's text is texts[opens * depth + closes], its code
    texts = np.array(
        ["[" * o + template + "]" * c + "," for o in range(depth) for c in range(depth)], dtype=object
    )
    marks = []  # (the rows that open, or close, one run of a level; their weight in the code)
    first = last = np.arange(rows)  # the first and the last row of each run of the level below
    for sizes in groups:
        sizes = np.asarray(sizes, dtype=np.int64)
        if (sizes < 1).any() or int(sizes.sum()) != len(first):
            raise ValueError(f"group sizes {sizes.tolist()} do not cut {len(first)} runs")
        ends = np.cumsum(sizes)
        first, last = first[ends - sizes], last[ends - 1]
        marks += [(first, depth), (last, 1)]
    step = max(1, _BLOCK // slots)
    out = ["["]
    for a in range(0, rows, step):
        b = min(a + step, rows)
        code = np.zeros(b - a, dtype=np.int64)
        for at, weight in marks:
            cut = at[np.searchsorted(at, a) : np.searchsorted(at, b)] - a
            code += weight * np.bincount(cut, minlength=b - a)
        out.append("".join(texts[code].tolist()) % tuple(flat[a * slots : b * slots].tolist()))
    if rows:
        out[-1] = out[-1][:-1]  # the last row's comma
    out.append("]")
    return Encoded("".join(out))


def jsonable(obj):
    """Recursively convert values (numpy, Fraction, sets) to JSON-safe types;
    an `Encoded` fragment is decoded."""
    t = type(obj)
    if t is int or t is str:  # most scalars of a report; type(True) is bool
        return obj
    if t is Encoded:
        return json.loads(obj.text)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(jsonable(v) for v in obj)
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer, Fraction, float)):
        return encode_number(obj)
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj)}")


_FLOAT_MARKS = (".", "e+", "e-")  # in the repr of any finite float, never of an int
_SLOT = "\x00"  # stands in for a fragment in the encoder's input
_SLOT_TEXT = json.dumps(_SLOT)  # and in its output


def canonical_dumps(obj) -> str:
    """json.dumps(jsonable(obj)), key-sorted and spaceless, and a newline, in
    one C-level json.dumps with `jsonable` as its hook.  Each `Encoded`
    fragment is written as a placeholder string, in text order, and its text
    is spliced in at the placeholder afterwards; the float-mark scan reads
    only the text around the fragments.  A float mark there (even in a
    string), a NaN (ValueError), keys mixing str with others (TypeError) or
    a placeholder's text met in a string send obj down the exact path, where
    `jsonable` decodes the fragments.  Keys must be str."""
    fragments = []

    def hook(value):
        if type(value) is Encoded:
            fragments.append(value.text)
            return _SLOT
        return jsonable(value)

    try:
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=hook, allow_nan=False)
        parts = text.split(_SLOT_TEXT)
        if len(parts) == len(fragments) + 1 and not any(
            mark in part for part in parts for mark in _FLOAT_MARKS
        ):
            spliced = [parts[0]]
            for fragment, part in zip(fragments, parts[1:]):
                spliced += (fragment, part)
            return "".join([*spliced, "\n"])
    except (TypeError, ValueError):
        pass
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":")) + "\n"


def atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


class ShapeError(ValueError):
    """An input JSON value that is missing or of the wrong kind."""


_KINDS = {dict: "an object", list: "an array", int: "an integer", str: "a string"}


def _kind_of(value) -> str:
    if isinstance(value, bool):
        return "a boolean"
    return "null" if value is None else _KINDS.get(type(value), "a number")


def load_json(path: str) -> dict:
    """The JSON object in the file at `path`, the top level of every input."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ShapeError(f"{path} holds {_kind_of(data)}, not a JSON object")
    return data


def expect(value, kind: type, path: str, length: int | None = None):
    """`value` if it is a JSON value of `kind` (dict, list, int or str; a
    boolean is no integer) with `length` entries if given, else a
    ShapeError naming `path`."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ShapeError(f"{path} is {_kind_of(value)}, not {_KINDS[kind]}")
    if length is not None and len(value) != length:
        raise ShapeError(f"{path} has {len(value)} entries, not {length}")
    return value


def at(path: str, key: str) -> str:
    """The path of member `key` of the object at `path` ('' at the top)."""
    return f"{path}.{key}" if path else key


def member(obj: dict, key: str, kind: type, path: str = ""):
    """obj[key] checked by `expect`, where `path` names obj."""
    where = at(path, key)
    if key not in obj:
        raise ShapeError(f"{where} is missing")
    return expect(obj[key], kind, where)


def ints(value, path: str, length: int | None = None) -> list[int]:
    """A JSON array of integers, checked by `expect`."""
    for i, x in enumerate(expect(value, list, path, length)):
        if type(x) is not int:
            expect(x, int, f"{path}[{i}]")
    return value


def int_rows(value, path: str, length: int | None = None) -> list[list[int]]:
    """A JSON array of `ints` arrays; well-formed rows are checked in bulk,
    and the paths are spelled out only to name a fault."""
    rows = expect(value, list, path)
    if not (
        set(map(type, rows)) <= {list}
        and (length is None or set(map(len, rows)) <= {length})
        and set(map(type, itertools.chain.from_iterable(rows))) <= {int}
    ):
        for j, row in enumerate(rows):
            ints(row, f"{path}[{j}]", length)
    return rows


def flat_int_rows(value, path: str) -> tuple[np.ndarray, list[int] | None]:
    """(members, lengths): the rows of `int_rows(value, path)` end to end as
    one int64 array, and the length of each row, or None when every row
    has one entry."""
    rows = int_rows(value, path)
    try:
        members = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64)
    except OverflowError:
        raise ShapeError(f"{path} holds an integer outside the 64-bit range") from None
    if len(members) == len(rows) and set(map(len, rows)) <= {1}:
        return members, None
    return members, list(map(len, rows))


def decode_number(v, path: str = "value") -> int | Fraction:
    """Inverse of encode_number: [p, q] or a plain number (an integer, a
    float or a string such as '3/2'), as_number-normalized (so [p, 1]
    decodes to the int p).  Any other value is a ShapeError naming `path`."""
    if isinstance(v, list):
        p, q = ints(v, path, 2)
        if q == 0:
            raise ShapeError(f"{path} has a zero denominator: {v!r}")
        return as_number(Fraction(p, q))
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise ShapeError(f"{path} is {_kind_of(v)}, not a number")
    try:
        return as_number(v)
    except (ValueError, OverflowError):  # a malformed string, 1/0, NaN or an infinity
        raise ShapeError(f"{path} is {v!r}, not a number") from None


def number(obj: dict, key: str, path: str = "") -> int | Fraction:
    """obj[key] decoded by `decode_number`, where `path` names obj."""
    where = at(path, key)
    if key not in obj:
        raise ShapeError(f"{where} is missing")
    return decode_number(obj[key], where)
