"""Canonical JSON helpers: exact rationals, sorted keys, atomic writes,
and the shape checks of input documents.

Rationals serialize as [numerator, denominator]; integers stay integers.
Identical in-memory reports serialize to identical bytes, in one C-level
`json.dumps` where no float or non-str key needs the exact path
(`canonical_dumps`).  An input value of the wrong kind is a `ShapeError`
that names its path in the document, such as `domains[2].pi[0]`.
"""

from __future__ import annotations

import itertools
import json
import os
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


def jsonable(obj):
    """Recursively convert values (numpy, Fraction, sets) to JSON-safe types."""
    t = type(obj)
    if t is int or t is str:  # most scalars of a report; type(True) is bool
        return obj
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


def canonical_dumps(obj) -> str:
    """json.dumps(jsonable(obj)), key-sorted and spaceless, and a newline, in
    one C-level json.dumps with `jsonable` as its hook.  A float mark in the
    text (even in a string), a NaN (ValueError) or keys mixing str with
    others (TypeError) send obj down the exact path.  Keys must be str."""
    try:
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=jsonable, allow_nan=False)
        if not any(mark in text for mark in _FLOAT_MARKS):
            return text + "\n"
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
