"""Canonical JSON helpers: exact rationals, sorted keys, atomic writes.

Rationals serialize as [numerator, denominator]; integers stay integers.
Identical in-memory reports serialize to identical bytes.
"""

from __future__ import annotations

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


def decode_number(v) -> int | Fraction:
    """Inverse of encode_number: [p, q] or a plain number, as_number-normalized
    (so [p, 1] decodes to the int p)."""
    if isinstance(v, list):
        p, q = int(v[0]), int(v[1])
        if q == 0:
            raise ValueError(f"zero denominator in {v!r}")
        return as_number(Fraction(p, q))
    return as_number(v)


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


def canonical_dumps(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":")) + "\n"


def atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def load_json(path: str) -> dict:
    """The JSON object in the file at `path`, the top level of every input."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        kind = {list: "an array", str: "a string"}.get(type(data), "a scalar")
        raise ValueError(f"{path} holds {kind}, not a JSON object")
    return data
