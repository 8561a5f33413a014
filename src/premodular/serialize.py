"""JSON schemas and the single two-schema loader.

Input files are discriminated by a top-level "type": "premodular" or
"metric_group".  Loading always runs the module validator and fails on
any violation.  Serialization round trips bit-exactly: all rationals
travel as strings, CycNums as {"n": conductor, "c": [[num, den], ...]}.
Conductors (each, and their lcm over a datum), the lcm of the q
denominators, ring rank and fusion multiplicities are capped, and so is
the size of a premodular datum's arrays, in coefficient slots and in
words with the length of their shared denominator
(cyclotomic.check_budget), before anything is allocated at their size;
q values and CycNum coefficients are bounded in digits, element keys in
coordinates.  Wherever the schema has a list, a JSON list is required: a
string or an object there is refused, never unpacked.  Every field, a
metric group's q keys and q values included, is read by checks that each
run over its whole list and name the first entry they refuse; integers
are read by _integers alone.  q is read as arrays into metric_groups'
checked builder ("()" is the key of no coordinates) and written from Q/D
by metric_group_to_json, the one formatter of q values.
"""

from __future__ import annotations

import itertools
import json
import math
import re

import numpy as np

from .cyclotomic import MAX_SLOTS, CycArray, euler_phi, exact_dtype, make_root
from .data import PremodularData, validate_premodular
from .fusion_ring import MAX_MULT, MAX_RANK, FusionRing
from .metric_groups import MAX_CONDUCTOR, MetricGroup, _checked_q, _key_array, format_element, validate_metric_group
from .validation import ValidationError

__all__ = [
    "ParseError",
    "ValidationError",
    "load_datum",
    "loads_datum",
    "datum_to_json",
    "ring_to_json",
    "ring_from_json",
    "premodular_to_json",
    "premodular_from_json",
    "metric_group_to_json",
    "metric_group_from_json",
    "format_element",
]

# digits allowed in each part of a rational field: far more than any q value
# needs (its reduced denominator divides 2 * SIZE_CAP), few enough that no
# later step meets a huge integer
MAX_DIGITS = 32
_DIGIT_BOUND = 10**MAX_DIGITS
_RATIONAL = re.compile(rf"-?[0-9]{{1,{MAX_DIGITS}}}(/[0-9]{{1,{MAX_DIGITS}}})?")
_INTEGER = re.compile(r"-?[0-9]+")
_INT64_MIN = -(2**63)


class ParseError(ValueError):
    """The file is not valid JSON or does not match either schema."""


def _is_integer(x) -> bool:
    """Whether x reads as an int: a JSON integer, or a string of ASCII
    digits with an optional leading minus; a float or a boolean is
    refused rather than truncated, and so is any other string int()
    would read (" 16", "1_6", non-ASCII digits)."""
    return type(x) is int or type(x) is str and _INTEGER.fullmatch(x) is not None


def _capped_conductor(n: int) -> int:
    """n, rejected before anything is allocated at conductor n."""
    if n > MAX_CONDUCTOR:
        raise ValueError(f"conductor {n} exceeds the cap {MAX_CONDUCTOR}")
    return n


def _refuse(values, ok, what: str):
    """Raise the error of a whole-list check that failed, naming the
    first of values that ok refuses."""
    bad = next(x for x in values if not ok(x))
    raise ValueError(f"{what}, got {bad!r:.40}")


def _integers(values: list) -> list:
    """values as ints, each as _is_integer reads it, in one type pass and
    one regex map over the list."""
    types = set(map(type, values))
    if types <= {int}:
        return values
    if types <= {int, str}:
        strings = values if types == {str} else [x for x in values if type(x) is str]
        if all(map(_INTEGER.fullmatch, strings)):
            return list(map(int, values))
    _refuse(values, _is_integer, "expected an integer")


def _lists(values: list, what: str, size: int | None = None) -> list:
    """values, refused unless each is a JSON list, of `size` items if
    size is given: a string or an object is refused, never unpacked."""
    if set(map(type, values)) - {list}:
        _refuse(values, lambda x: type(x) is list, f"{what} must be a list")
    if size is not None and set(map(len, values)) - {size}:
        _refuse(values, lambda x: len(x) == size, f"{what} must have {size} items")
    return values


def _field(obj: dict, key: str) -> list:
    """obj[key], refused unless it is a JSON list."""
    return _lists([obj[key]], f'"{key}"')[0]


def _flat(lists) -> list:
    return list(itertools.chain.from_iterable(lists))


def _largest(values: list) -> int:
    """The largest magnitude in a list of ints, 0 if it is empty."""
    return max(-min(values, default=0), max(values, default=0))


def _cycnum_parts(entries: list) -> tuple[list, list]:
    """The conductors of the CycNum objects in entries and all their
    coefficient parts in one list, numerator and denominator
    alternating.  Each check runs on a whole list and raises its own
    error; premodular_from_json checks the parts of all fields at once."""
    conductors = _integers([obj["n"] for obj in entries])
    _capped_conductor(max(conductors, default=1))
    coefficients = _lists([obj["c"] for obj in entries], 'a CycNum "c"')
    if list(map(len, coefficients)) != list(map(euler_phi, conductors)):
        raise ValueError("coefficient vector length must be euler_phi(conductor)")
    return conductors, _integers(_flat(_lists(_flat(coefficients), "a coefficient pair", 2)))


# -- fusion rings -------------------------------------------------------------


def ring_to_json(ring: FusionRing) -> dict:
    return {
        "labels": list(ring.labels),
        "unit": ring.unit_index,
        "dual": list(map(int, ring.dual)),
        "fusion": ring.fusion.tolist(),
    }


def _fusion_entries(fusion: list, r: int) -> np.ndarray:
    """The fusion entries [a, b, c, n] as an (n, 4) int64 array, each
    check on whole lists; FusionRing sorts them and keeps the last n of
    a repeated (a, b, c)."""
    values = _integers(_flat(_lists(fusion, "a fusion entry", 4)))
    indices = values[:]
    del indices[3::4]
    if min(indices, default=0) < 0 or max(indices, default=0) >= r:
        k = next(k for k, x in enumerate(indices) if not 0 <= x < r) // 3 * 3
        raise ValueError(f"fusion index out of range: {tuple(indices[k:k + 3])}")
    mults = values[3::4]
    if max(mults, default=0) > MAX_MULT:
        raise ValueError(f"multiplicity {max(mults)} exceeds the cap {MAX_MULT}")
    if min(mults, default=0) < _INT64_MIN:
        raise ValueError(f"multiplicity {min(mults)} is below the int64 range")
    return np.array(values, dtype=np.int64).reshape(-1, 4)


def ring_from_json(obj: dict) -> FusionRing:
    try:
        labels = [str(x) for x in _field(obj, "labels")]
        r = len(labels)
        if r > MAX_RANK:
            raise ValueError(f"rank {r} exceeds the cap {MAX_RANK}")
        return FusionRing(
            labels=labels,
            fusion=_fusion_entries(_field(obj, "fusion"), r),
            unit_index=_integers([obj["unit"]])[0],
            dual=_integers(_field(obj, "dual")),
        )
    except (KeyError, IndexError, TypeError, ValueError, ArithmeticError) as exc:
        raise ParseError(f"bad fusion ring: {exc}") from None


# -- premodular data ----------------------------------------------------------


def premodular_to_json(data: PremodularData) -> dict:
    out = {"type": "premodular"}
    out.update(ring_to_json(data.ring))
    out["dims"] = [d.to_json() for d in data.dims]
    out["twists"] = [t.to_json() for t in data.twists]
    if data.s is not None:
        out["s"] = [[e.to_json() for e in row] for row in data.s]
    return out


def _theta_exp_parts(theta_exp: list) -> tuple[list, list]:
    """_cycnum_parts of the twists e^(2 pi i p/q) given as rational
    exponents [p, q]."""
    values = _integers(_flat(_lists(theta_exp, "a theta_exp entry", 2)))
    _capped_conductor(max(values[1::2], default=1))
    roots = list(map(make_root, values[0::2], values[1::2]))
    return [t.conductor for t in roots], [x for t in roots for c in t.num for x in (c, 1)]


def premodular_from_json(obj: dict) -> PremodularData:
    ring = ring_from_json(obj)
    try:
        dims = _cycnum_parts(_field(obj, "dims"))
        if "theta_exp" in obj and "twists" not in obj:
            twists = _theta_exp_parts(_field(obj, "theta_exp"))
        else:
            twists = _cycnum_parts(_field(obj, "twists"))
        rows = _lists(_field(obj, "s"), 'a row of "s"') if "s" in obj else None
        s = ([], []) if rows is None else _cycnum_parts(_flat(rows))
        conductors, parts = dims[0] + twists[0] + s[0], dims[1] + twists[1] + s[1]
        bound = _largest(parts)
        if bound >= _DIGIT_BOUND:
            raise ValueError(f"CycNum coefficient part has more than {MAX_DIGITS} digits")
        if not all(parts[1::2]):
            raise ZeroDivisionError("CycNum coefficient with a zero denominator")
        k, t = len(dims[0]), len(twists[0])
        # validation computes at the lcm of all conductors, on arrays of
        # at most r x r x phi(M) coefficient slots
        M = _capped_conductor(math.lcm(*conductors))
        r = ring.rank
        slots = max(r * r, k, t, len(conductors) - k - t) * euler_phi(M)
        if slots > MAX_SLOTS:
            raise ValueError(f"rank {r} at conductor {M} needs {slots} coefficient slots, "
                             f"above the budget {MAX_SLOTS}")
        parts = np.array(parts, dtype=exact_dtype(bound)).reshape(-1, 2)
        values = CycArray.from_parts(M, conductors, parts[:, 0], parts[:, 1], (len(conductors),))
        s = None if rows is None else values[k + t:]
        if s is not None and len(rows) == r and all(len(row) == r for row in rows):
            s = s.reshape(r, r)
        return PremodularData(ring=ring, dims=values[:k], twists=values[k:k + t], s=s)
    except (KeyError, IndexError, TypeError, ValueError, ArithmeticError) as exc:
        raise ParseError(f"bad premodular datum: {exc}") from None


# -- metric groups ------------------------------------------------------------


def metric_group_to_json(mg: MetricGroup) -> dict:
    """q in element order, which is the sorted order of its keys, each
    value Q/D reduced by gcd(Q, D): no Fraction is built."""
    g = np.gcd(mg.Q, mg.D).tolist()
    return {
        "type": "metric_group",
        "orders": list(mg.cyclic_orders),
        "q": {format_element(x): f"{v // h}/{mg.D // h}" for x, v, h in zip(mg.elements(), mg.Q.tolist(), g)},
    }


def _element_keys(keys: list, arity: int) -> np.ndarray | None:
    """The q keys "(x1,...,xk)" as _key_array gives them, each check on the
    whole list: a key of another shape or of more than `arity` coordinates
    is refused before any coordinate is converted, then the coordinates,
    spaces stripped, are read by _integers ("()" has none)."""
    inner = [s[1:-1].strip() if s[:1] == "(" and s[-1:] == ")" else None for s in (k.strip() for k in keys)]
    ok = [s is not None and (not s or s.count(",") < arity) for s in inner]
    if not all(ok):
        raise ParseError(f"bad element key {keys[ok.index(False)]!r}")
    coords = [s.split(",") if s else [] for s in inner]
    return _key_array(list(map(len, coords)), _integers([t.strip() for t in _flat(coords)]), arity)


def _rationals(values: list) -> tuple[list, list]:
    """The q values as numerators and denominators, in one type pass and
    one regex map over the list: each an int, or a string "p" or "p/q",
    with at most MAX_DIGITS digits in each part.  Floats, booleans,
    decimal points and exponents are refused, and then a zero
    denominator."""
    text = list(map(str, values)) if set(map(type, values)) <= {int, str} else None
    if text is None or not all(map(_RATIONAL.fullmatch, text)):
        _refuse(values, lambda x: type(x) in (int, str) and _RATIONAL.fullmatch(str(x)),
                f"expected an integer or a string p/q of at most {MAX_DIGITS} digits each")
    parts = [x.partition("/") for x in text]
    dens = [int(q or 1) for _, _, q in parts]
    if not all(dens):
        raise ZeroDivisionError(f"q value {text[dens.index(0)]} has a zero denominator")
    return [int(p) for p, _, _ in parts], dens


def metric_group_from_json(obj: dict) -> MetricGroup:
    try:
        if not isinstance(obj["orders"], list) or not isinstance(obj["q"], dict):
            raise ParseError('bad metric group: "orders" must be a list and "q" an object')
        orders = _integers(obj["orders"])
        coords = _element_keys(list(obj["q"]), len(orders))
        return MetricGroup._from_array(orders, *_checked_q(orders, coords, *_rationals(list(obj["q"].values()))))
    except (ParseError, ValidationError):
        raise
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise ParseError(f"bad metric group: {exc}") from None


# -- loader -------------------------------------------------------------------


def datum_to_json(datum) -> dict:
    if isinstance(datum, MetricGroup):
        return metric_group_to_json(datum)
    if isinstance(datum, PremodularData):
        return premodular_to_json(datum)
    raise TypeError(f"cannot serialize {type(datum).__name__}")


def loads_datum(text: str):
    """Parse and validate a datum from a JSON string."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, an integer literal past
        # int's digit limit, or arrays and objects nested past the recursion limit
        raise ParseError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict) or "type" not in obj:
        raise ParseError('missing the "type" discriminator')
    kind = obj["type"]
    if kind == "premodular":
        datum, validate = premodular_from_json(obj), validate_premodular
    elif kind == "metric_group":
        datum, validate = metric_group_from_json(obj), validate_metric_group
    else:
        raise ParseError(f'unknown "type": {kind!r}')
    del obj  # validation needs only the datum: free the decoded JSON first
    report = validate(datum)
    if not report.ok:
        raise ValidationError(report)
    return datum


def load_datum(path: str):
    """Load a premodular datum or metric group from a JSON file.

    Raises ParseError on malformed input and ValidationError (with the
    witness list) when the datum fails its validator.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return loads_datum(text)
