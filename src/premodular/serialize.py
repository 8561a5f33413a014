"""JSON schemas and the single two-schema loader.

Input files are discriminated by a top-level "type": "premodular" or
"metric_group".  Loading always runs the module validator and fails on
any violation.  Serialization round trips bit-exactly: all rationals
travel as strings, CycNums as {"n": conductor, "c": [[num, den], ...]}.
Conductors (each, and their lcm over a datum), the lcm of the q
denominators, ring rank and fusion multiplicities are capped before
anything is allocated at their size; q values and CycNum coefficients
are bounded in digits, element keys in coordinates.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from .cyclotomic import CycNum, make_root
from .data import PremodularData, validate_premodular
from .fusion_ring import MAX_MULT, MAX_RANK, FusionRing
from .metric_groups import MAX_CONDUCTOR, MetricGroup, format_element, validate_metric_group
from .validation import ValidationReport

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


class ParseError(ValueError):
    """The file is not valid JSON or does not match either schema."""


class ValidationError(ValueError):
    """The datum parsed but fails its validator."""

    def __init__(self, report: ValidationReport):
        super().__init__(str(report))
        self.report = report


def _parse_element(key: str, arity: int):
    """A key "(x1,...,xk)" as a tuple; more than `arity` coordinates is
    refused before any is converted."""
    inner = key.strip()
    if not (inner.startswith("(") and inner.endswith(")")):
        raise ParseError(f"bad element key {key!r}")
    inner = inner[1:-1].strip()
    if not inner or inner.count(",") >= arity:
        raise ParseError(f"bad element key {key!r}")
    return tuple(int(t) for t in inner.split(","))


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


def ring_from_json(obj: dict) -> FusionRing:
    try:
        if not all(isinstance(obj[k], list) for k in ("labels", "dual", "fusion")):
            raise ValueError('"labels", "dual" and "fusion" must be lists')
        labels = [str(x) for x in obj["labels"]]
        r = len(labels)
        if r > MAX_RANK:
            raise ValueError(f"rank {r} exceeds the cap {MAX_RANK}")
        mult = np.zeros((r, r, r), dtype=np.int64)
        for a, b, c, n in (map(_integer, entry) for entry in obj["fusion"]):
            if not (0 <= a < r and 0 <= b < r and 0 <= c < r):
                raise ValueError(f"fusion index out of range: {(a, b, c)}")
            if n > MAX_MULT:
                raise ValueError(f"multiplicity {n} exceeds the cap {MAX_MULT}")
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


def premodular_from_json(obj: dict) -> PremodularData:
    ring = ring_from_json(obj)
    try:
        dims = [_cycnum_from_json(d) for d in obj["dims"]]
        if "twists" in obj:
            twists = [_cycnum_from_json(t) for t in obj["twists"]]
        elif "theta_exp" in obj:
            # rational exponents: e^(2 pi i p/q)
            twists = [make_root(_integer(p), _capped_conductor(q)) for p, q in obj["theta_exp"]]
        else:
            raise KeyError("twists")
        s = None
        if obj.get("s") is not None:
            s = [[_cycnum_from_json(e) for e in row] for row in obj["s"]]
        # validation computes at the lcm of all conductors
        _capped_conductor(math.lcm(*(x.conductor for row in [dims, twists, *(s or [])] for x in row)))
        return PremodularData(ring=ring, dims=dims, twists=twists, s=s)
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
        # from_pairs raises ValueError for q denominators with an lcm above MAX_CONDUCTOR
        table = {_parse_element(k, len(orders)): _rational(v) for k, v in obj["q"].items()}
        return MetricGroup.from_pairs(orders, table)
    except ParseError:
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
    except ValueError as exc:  # JSONDecodeError, or an integer literal past int's digit limit
        raise ParseError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict) or "type" not in obj:
        raise ParseError('missing the "type" discriminator')
    kind = obj["type"]
    if kind == "premodular":
        datum = premodular_from_json(obj)
        report = validate_premodular(datum)
    elif kind == "metric_group":
        datum = metric_group_from_json(obj)
        report = validate_metric_group(datum)
    else:
        raise ParseError(f'unknown "type": {kind!r}')
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
