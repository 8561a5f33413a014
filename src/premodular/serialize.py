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
coordinates.
"""

from __future__ import annotations

import itertools
import json
import math
import re

import numpy as np

from .cyclotomic import MAX_SLOTS, CycArray, CycNum, euler_phi, exact_dtype, make_root
from .data import PremodularData, validate_premodular
from .fusion_ring import MAX_MULT, MAX_RANK, FusionRing
from .metric_groups import MAX_CONDUCTOR, MetricGroup, format_element, validate_metric_group
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
_ITERABLE = {list, str, dict}  # the JSON values that unpack


class ParseError(ValueError):
    """The file is not valid JSON or does not match either schema."""


def _parse_element(key: str, arity: int):
    """A key "(x1,...,xk)" as a tuple; more than `arity` coordinates is
    refused before any is converted, and each, spaces stripped, is read
    as by _integer."""
    inner = key.strip()
    if not (inner.startswith("(") and inner.endswith(")")):
        raise ParseError(f"bad element key {key!r}")
    inner = inner[1:-1].strip()
    if not inner or inner.count(",") >= arity:
        raise ParseError(f"bad element key {key!r}")
    return tuple(_integer(t.strip()) for t in inner.split(","))


def _integer(x) -> int:
    """x as an int: a JSON integer, or a string of ASCII digits with an
    optional leading minus; a float or a boolean is refused rather than
    truncated, and so is any other string int() would read (" 16",
    "1_6", non-ASCII digits)."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str) and _INTEGER.fullmatch(x):
        return int(x)
    raise ValueError(f"expected an integer, got {x!r:.40}")


def _rational(x) -> tuple[int, int]:
    """x as (numerator, denominator): an int, or a string "p" or "p/q",
    with at most MAX_DIGITS digits in each part; floats, booleans,
    decimal points and exponents are refused."""
    if isinstance(x, str) and _RATIONAL.fullmatch(x):
        p, _, q = x.partition("/")
        q = int(q or 1)
        if not q:
            raise ZeroDivisionError(f"q value {x} has a zero denominator")
        return int(p), q
    if isinstance(x, int) and not isinstance(x, bool) and abs(x) < _DIGIT_BOUND:
        return x, 1
    raise ValueError(f"expected an integer or a string p/q of at most {MAX_DIGITS} digits each, got {x!r:.40}")


def _coefficient_part(x) -> int:
    """x as an int of at most MAX_DIGITS digits, the bound on each part
    of a q value."""
    x = _integer(x)
    if abs(x) >= _DIGIT_BOUND:
        raise ValueError(f"CycNum coefficient part has more than {MAX_DIGITS} digits")
    return x


def _capped_conductor(n) -> int:
    """n as an int, rejected before anything is allocated at conductor n."""
    n = _integer(n)
    if n > MAX_CONDUCTOR:
        raise ValueError(f"conductor {n} exceeds the cap {MAX_CONDUCTOR}")
    return n


def _cycnum_from_json(obj) -> CycNum:
    n = _capped_conductor(obj["n"])
    parts = [(_coefficient_part(p), _coefficient_part(q)) for p, q in obj["c"]]
    if not all(q for _, q in parts):
        raise ZeroDivisionError("CycNum coefficient with a zero denominator")
    den = math.lcm(*(q for _, q in parts))
    return CycNum(n, [p * (den // q) for p, q in parts], den)


def _integers(values: list):
    """values as ints, read in bulk as _integer reads each one, or None
    if _integer would refuse any of them."""
    types = set(map(type, values))
    if not types <= {int, str}:
        return None
    if str in types:
        strings = values if types == {str} else [x for x in values if type(x) is str]
        if not all(map(_INTEGER.fullmatch, strings)):
            return None
        try:
            return list(map(int, values))
        except ValueError:  # past int's digit limit
            return None
    return values


def _largest(values: list) -> int:
    """The largest magnitude in a list of ints, 0 if it is empty."""
    return max(-min(values, default=0), max(values, default=0))


def _cycnums_in_bulk(entries: list):
    """The conductors of the CycNum objects in entries, all their
    coefficient parts in one list, numerator and denominator
    alternating, and the largest magnitude of a part, with the checks of
    _cycnum_from_json run on whole lists; None if any check fails."""
    try:
        conductors = _integers([obj["n"] for obj in entries])
        coefficients = [obj["c"] for obj in entries]
    except (KeyError, TypeError):
        return None
    if conductors is None or not all(1 <= n <= MAX_CONDUCTOR for n in conductors):
        return None
    # _cycnum_from_json unpacks the pairs, so a string or an object of
    # the right length reads as the list of its characters or keys
    if set(map(type, coefficients)) - _ITERABLE or list(map(len, coefficients)) != list(map(euler_phi, conductors)):
        return None
    pairs = list(itertools.chain.from_iterable(coefficients))
    if set(map(type, pairs)) - _ITERABLE or set(map(len, pairs)) - {2}:
        return None
    parts = _integers(list(itertools.chain.from_iterable(pairs)))
    bound = None if parts is None else _largest(parts)
    if bound is None or bound >= _DIGIT_BOUND or not all(parts[1::2]):
        return None
    return conductors, parts, bound


def _entries(value, depth: int):
    """What reading a JSON value of CycNums gives: its items, or with
    depth 2 the items of each of its rows."""
    return value if depth == 1 else itertools.chain.from_iterable(value)


def _cycnum_parts(value, depth: int = 1) -> tuple[list, list, int]:
    """_cycnums_in_bulk of the CycNums in a JSON value.  When it refuses
    them, _cycnum_from_json reads them in order and raises at the first
    bad one, with its message."""
    try:
        entries = list(_entries(value, depth))
    except TypeError:  # the value, or a row, is not iterable
        entries = None
    parts = None if entries is None else _cycnums_in_bulk(entries)
    if parts is None:
        for obj in _entries(value, depth):
            _cycnum_from_json(obj)
        raise AssertionError("CycNums refused in bulk were each read alone")
    return parts


# -- fusion rings -------------------------------------------------------------


def ring_to_json(ring: FusionRing) -> dict:
    fusion = [
        [int(a), int(b), int(c), int(ring.mult[a, b, c])]
        for a, b, c in np.argwhere(ring.mult != 0)
    ]
    return {
        "labels": list(ring.labels),
        "unit": ring.unit_index,
        "dual": list(map(int, ring.dual)),
        "fusion": fusion,
    }


def _fusion_entry(entry, r: int) -> None:
    """Check one fusion entry [a, b, c, n], raising at its first bad field."""
    a, b, c, n = map(_integer, entry)
    if not (0 <= a < r and 0 <= b < r and 0 <= c < r):
        raise ValueError(f"fusion index out of range: {(a, b, c)}")
    if n > MAX_MULT:
        raise ValueError(f"multiplicity {n} exceeds the cap {MAX_MULT}")


def _fusion_entries(fusion: list, r: int):
    """The fusion entries [a, b, c, n] as int64 arrays a, b, c, n, read
    in bulk with the checks of _fusion_entry on whole lists; a repeated
    (a, b, c) keeps its last n.  When the bulk checks refuse them,
    _fusion_entry reads them in order and raises at the first bad one;
    if each one reads, a multiplicity is below int64."""
    values = None
    # _fusion_entry unpacks an entry, as it does a string or an object of four items
    if not (set(map(type, fusion)) - _ITERABLE or set(map(len, fusion)) - {4}):
        values = _integers(list(itertools.chain.from_iterable(fusion)))
    # an index below MAX_RANK <= MAX_MULT, a multiplicity at most MAX_MULT and in int64
    if values is not None and min(values, default=0) >= _INT64_MIN and max(values, default=0) <= MAX_MULT:
        a, b, c, n = np.array(values, dtype=np.int64).reshape(-1, 4).T
        if not ((a < 0) | (b < 0) | (c < 0) | (a >= r) | (b >= r) | (c >= r)).any():
            keys = (a * r + b) * r + c
            order = np.argsort(keys, kind="stable")
            last = order[np.diff(keys[order], append=-1) != 0]
            return a[last], b[last], c[last], n[last]
    for entry in fusion:
        _fusion_entry(entry, r)
    raise OverflowError("a multiplicity is below the int64 range")


def ring_from_json(obj: dict) -> FusionRing:
    try:
        if not all(isinstance(obj[k], list) for k in ("labels", "dual", "fusion")):
            raise ValueError('"labels", "dual" and "fusion" must be lists')
        labels = [str(x) for x in obj["labels"]]
        r = len(labels)
        if r > MAX_RANK:
            raise ValueError(f"rank {r} exceeds the cap {MAX_RANK}")
        mult = np.zeros((r, r, r), dtype=np.int64)
        a, b, c, n = _fusion_entries(obj["fusion"], r)
        mult[a, b, c] = n
        return FusionRing(
            labels=labels,
            unit_index=_integer(obj["unit"]),
            mult=mult,
            dual=[_integer(x) for x in obj["dual"]],
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


def _theta_exp_parts(theta_exp) -> tuple[list, list, int]:
    """_cycnums_in_bulk of the twists e^(2 pi i p/q) given as rational
    exponents [p, q]."""
    roots = [make_root(_integer(p), _capped_conductor(q)) for p, q in theta_exp]
    parts = [x for t in roots for c in t.num for x in (c, 1)]
    return [t.conductor for t in roots], parts, _largest(parts)


def premodular_from_json(obj: dict) -> PremodularData:
    ring = ring_from_json(obj)
    try:
        dims = _cycnum_parts(obj["dims"])
        if "twists" in obj:
            twists = _cycnum_parts(obj["twists"])
        elif "theta_exp" in obj:
            twists = _theta_exp_parts(obj["theta_exp"])
        else:
            raise KeyError("twists")
        rows = obj.get("s")
        s = ([], [], 0) if rows is None else _cycnum_parts(rows, depth=2)
        conductors, parts = dims[0] + twists[0] + s[0], dims[1] + twists[1] + s[1]
        k, t = len(dims[0]), len(twists[0])
        # validation computes at the lcm of all conductors, on arrays of
        # at most r x r x phi(M) coefficient slots
        M = _capped_conductor(math.lcm(*conductors))
        r = ring.rank
        slots = max(r * r, k, t, len(conductors) - k - t) * euler_phi(M)
        if slots > MAX_SLOTS:
            raise ValueError(f"rank {r} at conductor {M} needs {slots} coefficient slots, "
                             f"above the budget {MAX_SLOTS}")
        parts = np.array(parts, dtype=exact_dtype(max(dims[2], twists[2], s[2]))).reshape(-1, 2)
        values = CycArray.from_parts(M, conductors, parts[:, 0], parts[:, 1], (len(conductors),))
        s = None if rows is None else values[k + t:]
        if s is not None and len(rows) == r and all(len(row) == r for row in rows):
            s = s.reshape(r, r)
        return PremodularData(ring=ring, dims=values[:k], twists=values[k:k + t], s=s)
    except ParseError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, ArithmeticError) as exc:
        raise ParseError(f"bad premodular datum: {exc}") from None


# -- metric groups ------------------------------------------------------------


def metric_group_to_json(mg: MetricGroup) -> dict:
    return {
        "type": "metric_group",
        "orders": list(mg.cyclic_orders),
        "q": {format_element(x): f"{v.numerator}/{v.denominator}" for x, v in sorted(mg.qtable.items())},
    }


def metric_group_from_json(obj: dict) -> MetricGroup:
    try:
        if not isinstance(obj["orders"], list) or not isinstance(obj["q"], dict):
            raise ParseError('bad metric group: "orders" must be a list and "q" an object')
        orders = [_integer(n) for n in obj["orders"]]
        # from_pairs raises ValidationError on a structural failure and
        # ValueError on q denominators with an lcm above MAX_CONDUCTOR
        table = {_parse_element(k, len(orders)): _rational(v) for k, v in obj["q"].items()}
        return MetricGroup.from_pairs(orders, table)
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
