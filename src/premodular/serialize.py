"""JSON schemas and the single two-schema loader.

Files are discriminated by a top-level "type", "premodular" or
"metric_group", and loading always runs the module validator.  All
rationals travel as strings, cyclotomic values as {"n": conductor, "c":
[[num, den], ...]}, so serialization round trips bit-exactly.
Conductors (each, and their lcm), the lcm of the q denominators, ring
rank, fusion multiplicities and the size of a premodular datum's arrays
(cyclotomic.check_budget) are capped before anything is allocated at
their size; q values and coefficient parts are bounded in digits.
Wherever the schema has a list, a JSON list is required: a string or an
object there is refused, never unpacked.  Every field is read by checks
that each run over a whole list and name the first entry they refuse:
integers by _integers, q values by _rationals, q keys ("()" has no
coordinates) by _element_keys into metric_groups' checked builder, and
the coefficient parts of dims, twists and s by _integers, a field at a
time; the caps on parts and fusion entries are checked on the int64 array
they are read into (Python ints past int64).  q is written from Q/D by
q_to_json, under metric_groups.element_labels.

A premodular file in the layout json.dumps writes is read from its text,
with no JSON tree built (_premodular_text): one regular expression, _DOC,
matches the whole file, numpy parses the numbers of each field, all of
at most 18 digits, and the entries and rows of dims, twists and s are
read off the positions of their braces and brackets.  The same caps and
checks run, in the helpers both routes call (_checked_rank,
_checked_fusion, _capped_conductor, _check_lengths), and both end in
_premodular.  Any other file, and one that a check refuses, is read by
json.loads and premodular_from_json, which give its datum or its error
message: the datum is the same either way.

A metric-group file in the layout json.dumps writes for it, {"type":
"metric_group", "orders": [...], "q": {"(c1,...,ck)": "p/q", ...}}
with JSON integer orders, keys of digits with no spaces and unsigned
values, every number of at most 18 digits, is read from its text too
(_metric_group_text): _METRIC_GROUP_DOC matches the whole file, the keys'
structure must be one coordinate per order on as many keys as A has
elements, and numpy parses every coordinate, numerator and denominator
at once.  Both readers end in _checked_q and validate_metric_group.  A
file in another layout, or one that a check refuses (a zero denominator,
or any check of _checked_q), is read by json.loads and
metric_group_from_json from scratch, which give its group or its error
message.  The layout patterns' possessive repeats need Python 3.11.

loads_datum pauses the cyclic garbage collector from json.loads until
the datum is read: a rank-32 file decodes into about 9,000 lists and
dicts, enough for a dozen collections that free nothing in a tree.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import operator
import re

import numpy as np

from .cyclotomic import MAX_SLOTS, CycArray, euler_phi, exact_dtype, magnitude, make_root
from .data import PremodularData, validate_premodular
from .fusion_ring import MAX_MULT, MAX_RANK, FusionRing
from .metric_groups import (
    MAX_CONDUCTOR, MetricGroup, _checked_order, _checked_q, _key_array, element_labels, validate_metric_group)
from .validation import ValidationError

__all__ = [
    "ParseError",
    "ValidationError",
    "load_datum",
    "loads_datum",
    "collector_paused",
    "datum_to_json",
    "ring_to_json",
    "ring_from_json",
    "premodular_to_json",
    "premodular_from_json",
    "metric_group_to_json",
    "metric_group_from_json",
    "q_to_json",
]

# digits allowed in each part of a rational field: far more than any q value
# needs (its reduced denominator divides 2 * SIZE_CAP), few enough that no
# later step meets a huge integer
MAX_DIGITS = 32
_DIGIT_BOUND = 10**MAX_DIGITS
_RATIONAL = re.compile(rf"-?[0-9]{{1,{MAX_DIGITS}}}(/[0-9]{{1,{MAX_DIGITS}}})?")
_INTEGER = re.compile(r"-?[0-9]+")
# lines of _INTEGER strings pass this charset; an exact regex's grouped
# repeat would keep a stack entry per line
_DIGIT_LINES = re.compile(r"[-0-9\n]+")
_INT64_MIN = -(2**63)
_N, _C = operator.itemgetter("n"), operator.itemgetter("c")


class ParseError(ValueError):
    """The file is not valid JSON or does not match either schema."""


def _is_integer(x) -> bool:
    """Whether x is a JSON integer or an ASCII digit string, minus allowed."""
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
    """values as ints, as _is_integer reads them (one type pass, one charset
    match, one int() per distinct value), else _refuse names the first."""
    types = set(map(type, values))
    if types <= {int}:
        return values
    if types <= {int, str}:
        strings = values if types == {str} else [x for x in values if type(x) is str]
        text = "\n".join(strings)
        if text.count("\n") == len(strings) - 1 and _DIGIT_LINES.fullmatch(text):
            try:
                ints = {x: int(x) for x in dict.fromkeys(values)}
            except ValueError:
                if all(map(_INTEGER.fullmatch, strings)):
                    raise  # a string past int's digit limit, as int() reports it
            else:
                return list(map(ints.__getitem__, values))
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


def _array(values: list) -> np.ndarray:
    """A list of ints as an int64 array, or as an object array of them
    when one is past the int64 range: the caps are checked on it."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _check_lengths(conductors: np.ndarray, lengths: np.ndarray) -> None:
    """Refuse unless the i-th CycNum has lengths[i] = euler_phi(conductors[i])
    coefficients, naming the first conductor below 1 if there is one; the
    conductors are capped before this factors them."""
    if len(conductors) and conductors.min() < 1:
        euler_phi(int(conductors[(conductors < 1).argmax()]))  # raises
    distinct, of = np.unique(conductors, return_inverse=True)
    if (np.array(list(map(euler_phi, distinct.tolist())), dtype=np.int64)[of] != lengths).any():
        raise ValueError("coefficient vector length must be euler_phi(conductor)")


def _cycnum_parts(entries: list) -> tuple[list, np.ndarray]:
    """The conductors of the CycNum objects in entries and all their
    coefficient parts in one array, numerator and denominator
    alternating.  Each check runs on a whole list and raises its own
    error; premodular_from_json checks the parts of all fields at once."""
    conductors = _integers(list(map(_N, entries)))
    _capped_conductor(max(conductors, default=1))
    coefficients = _lists(list(map(_C, entries)), 'a CycNum "c"')
    _check_lengths(_array(conductors), np.fromiter(map(len, coefficients), np.int64, len(coefficients)))
    return conductors, _array(_integers(_flat(_lists(_flat(coefficients), "a coefficient pair", 2))))


# -- fusion rings -------------------------------------------------------------


def ring_to_json(ring: FusionRing) -> dict:
    return {
        "labels": list(ring.labels),
        "unit": ring.unit_index,
        "dual": list(map(int, ring.dual)),
        "fusion": ring.fusion.tolist(),
    }


def _checked_rank(labels: list) -> int:
    """The rank of a ring with these labels, refused past the rank cap."""
    if len(labels) > MAX_RANK:
        raise ValueError(f"rank {len(labels)} exceeds the cap {MAX_RANK}")
    return len(labels)


def _fusion_entries(fusion: list, r: int) -> np.ndarray:
    """The fusion entries [a, b, c, n] as an (n, 4) int64 array (of Python
    ints where a value is past int64, which a check then refuses)."""
    return _checked_fusion(_array(_integers(_flat(_lists(fusion, "a fusion entry", 4)))).reshape(-1, 4), r)


def _checked_fusion(entries: np.ndarray, r: int) -> np.ndarray:
    """entries, an (n, 4) array of fusion entries, each check on the whole
    array; FusionRing sorts them and keeps the last n of a repeated
    (a, b, c)."""
    indices = entries[:, :3]
    # the extremes of the whole contiguous array first, far cheaper than
    # reducing the strided columns of every entry
    if len(entries) and (entries.min() < 0 or entries.max() >= r):
        bad = ((indices < 0) | (indices >= r)).any(axis=1)
        if bad.any():
            raise ValueError(f"fusion index out of range: {tuple(indices[bad.argmax()].tolist())}")
    mults = entries[:, 3]
    if len(mults) and mults.max() > MAX_MULT:
        raise ValueError(f"multiplicity {int(mults.max())} exceeds the cap {MAX_MULT}")
    if len(mults) and mults.min() < _INT64_MIN:
        raise ValueError(f"multiplicity {int(mults.min())} is below the int64 range")
    return entries


def ring_from_json(obj: dict) -> FusionRing:
    try:
        labels = [str(x) for x in _field(obj, "labels")]
        r = _checked_rank(labels)
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
    out["dims"] = data.dims.to_json()
    out["twists"] = data.twists.to_json()
    if data.s is not None:
        out["s"] = data.s.to_json()
    return out


def _theta_exp_parts(theta_exp: list) -> tuple[list, list]:
    """_cycnum_parts of the twists e^(2 pi i p/q) given as rational
    exponents [p, q]."""
    values = _integers(_flat(_lists(theta_exp, "a theta_exp entry", 2)))
    _capped_conductor(max(values[1::2], default=1))
    roots = list(map(make_root, values[0::2], values[1::2]))
    return [t.M for t in roots], _array([x for t in roots for c in t.num.tolist() for x in (c, 1)])


def _premodular(ring: FusionRing, conductors: list, parts: np.ndarray, k: int, t: int,
                rows: list | None) -> PremodularData:
    """The datum from the conductors of dims (the first k), twists (the next
    t) and s, and their coefficient parts, numerator and denominator
    alternating; rows are the lengths of the rows of s, None without s.
    Either reader ends here, and the caps on the values are checked here."""
    bound = magnitude(parts)
    if bound >= _DIGIT_BOUND:
        raise ValueError(f"CycNum coefficient part has more than {MAX_DIGITS} digits")
    if (parts[1::2] == 0).any():
        raise ZeroDivisionError("CycNum coefficient with a zero denominator")
    # validation computes at the lcm of all conductors, on arrays of
    # at most r x r x phi(M) coefficient slots
    M = _capped_conductor(math.lcm(*set(conductors)))
    r = ring.rank
    slots = max(r * r, k, t, len(conductors) - k - t) * euler_phi(M)
    if slots > MAX_SLOTS:
        raise ValueError(f"rank {r} at conductor {M} needs {slots} coefficient slots, "
                         f"above the budget {MAX_SLOTS}")
    parts = parts.astype(exact_dtype(bound), copy=False).reshape(-1, 2)
    values = CycArray.from_parts(M, conductors, parts[:, 0], parts[:, 1], (len(conductors),))
    s = None if rows is None else values[k + t:]
    if s is not None and len(rows) == r and set(rows) <= {r}:
        s = s.reshape(r, r)
    return PremodularData(ring=ring, dims=values[:k], twists=values[k:k + t], s=s)


def premodular_from_json(obj: dict) -> PremodularData:
    ring = ring_from_json(obj)
    try:
        dims = _cycnum_parts(_field(obj, "dims"))
        if "theta_exp" in obj and "twists" not in obj:
            twists = _theta_exp_parts(_field(obj, "theta_exp"))
        else:
            twists = _cycnum_parts(_field(obj, "twists"))
        rows = _lists(_field(obj, "s"), 'a row of "s"') if "s" in obj else None
        s = ([], _array([])) if rows is None else _cycnum_parts(_flat(rows))
        return _premodular(ring, dims[0] + twists[0] + s[0], np.concatenate([dims[1], twists[1], s[1]]),
                           len(dims[0]), len(twists[0]), None if rows is None else list(map(len, rows)))
    except (KeyError, IndexError, TypeError, ValueError, ArithmeticError) as exc:
        raise ParseError(f"bad premodular datum: {exc}") from None


def _json_list(item: str) -> str:
    return rf"\[{item}(?:, {item})*+\]"


# A premodular file as json.dumps writes it with its default separators: the
# keys of premodular_to_json in its order, an integer "conductor" (ignored)
# allowed after "fusion"; JSON integers, and coefficient parts as strings, of
# at most 18 digits, so every number fits int64; labels of printable ASCII
# but a quote or a backslash; no list empty, so no two commas are adjacent
# in a field once everything but numbers and commas is dropped.  No repeat
# needs to backtrack, so all are possessive.
_INT = r"-?+(?:0|[1-9][0-9]{0,17}+)"
_PART = r'"-?+[0-9]{1,18}+"'
_CYCNUMS = _json_list(r'\{"n": ' + _INT + r', "c": ' + _json_list(rf"\[{_PART}, {_PART}\]") + r"\}")
_DOC = re.compile(
    r'\{"type": "premodular", "labels": (?P<labels>' + _json_list(r'"[ !#-\[\]-~]*+"')
    + r'), "unit": (?P<unit>' + _INT + r'), "dual": (?P<dual>' + _json_list(_INT)
    + r'), "fusion": (?P<fusion>' + _json_list(rf"\[{_INT}, {_INT}, {_INT}, {_INT}\]")
    + r'), (?:"conductor": ' + _INT + r', )?+"dims": (?P<dims>' + _CYCNUMS
    + r'), "twists": (?P<twists>' + _CYCNUMS + r')(?:, "s": (?P<s>' + _json_list(_CYCNUMS) + r"))?+\}")
# bytes.translate deletions that leave a field's numbers and commas, and its
# structure: its {, } and [ in order
_NOT_NUMBERS = bytes(c for c in range(256) if c not in b"-0123456789,")
_NOT_STRUCTURE = bytes(c for c in range(256) if c not in b"{}[")
_OPEN, _CLOSE, _BRACKET = b"{}["


def _numbers(field: str) -> np.ndarray:
    """The integers in a field of a file in a layout read from its text, in
    order, as int64."""
    return np.fromstring(field.encode().translate(None, _NOT_NUMBERS), dtype=np.int64, sep=",")


def _premodular_text(text: str) -> PremodularData | None:
    """The datum in a file in the _DOC layout, read from its text with the
    checks of premodular_from_json: None for a file in any other layout,
    or one that a check refuses, which premodular_from_json then reads and
    refuses with its own message.  In the structure of dims, twists and s,
    an entry is a { and a [ for its "c", one [ per coefficient pair and a
    }; a { right after a [ starts dims, twists or a row of s."""
    match = _DOC.fullmatch(text)
    if match is None:
        return None
    try:
        labels = match["labels"][2:-2].split('", "')
        fusion = _checked_fusion(_numbers(match["fusion"]).reshape(-1, 4), _checked_rank(labels))
        ring = FusionRing(labels, int(match["unit"]), fusion, _numbers(match["dual"]).tolist())
        values = text[match.start("dims"):match.end("s" if match["s"] is not None else "twists")]
        nums = _numbers(values)
        structure = np.frombuffer(values.encode().translate(None, _NOT_STRUCTURE), dtype=np.uint8)
        opens, closes = np.flatnonzero(structure == _OPEN), np.flatnonzero(structure == _CLOSE)
        pairs = closes - opens - 2
        counts = 2 * pairs + 1  # a conductor and two parts a pair
        heads = np.cumsum(counts) - counts
        conductors = nums[heads]
        _capped_conductor(conductors.max())
        _check_lengths(conductors, pairs)
        coefficient = np.ones(len(nums), dtype=bool)
        coefficient[heads] = False
        starts = np.flatnonzero(structure[opens - 1] == _BRACKET).tolist() + [len(opens)]
        rows = np.diff(starts[2:]).tolist() if match["s"] is not None else None
        return _premodular(ring, conductors.tolist(), nums[coefficient], starts[1], starts[2] - starts[1], rows)
    except (KeyError, IndexError, TypeError, ValueError, ArithmeticError):
        return None


# -- metric groups ------------------------------------------------------------


def q_to_json(mg: MetricGroup) -> dict:
    """q in element order, which is the sorted order of its keys, each
    value Q/D reduced by gcd(Q, D): no Fraction is built."""
    g = np.gcd(mg.Q, mg.D)
    values = map("{}/{}".format, (mg.Q // g).tolist(), (mg.D // g).tolist())
    return dict(zip(element_labels(tuple(mg.cyclic_orders)), values))


def metric_group_to_json(mg: MetricGroup) -> dict:
    return {"type": "metric_group", "orders": list(mg.cyclic_orders), "q": q_to_json(mg)}


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


# A metric-group file as json.dumps writes metric_group_to_json's dict: JSON
# integer orders, keys "(c1,...,ck)" of digits with no spaces and unsigned
# "p/q" values, every number of at most 18 digits, so each fits int64.  The
# pattern is the same for every number of orders: the keys' arity is checked
# on their structure, so a long "orders" compiles no pattern of its size.
_Q_ENTRY = r'"\((?:[0-9]{1,18}+(?:,[0-9]{1,18}+)*+)?+\)": "[0-9]{1,18}+/[0-9]{1,18}+"'
_METRIC_GROUP_DOC = re.compile(
    r'\{"type": "metric_group", "orders": \[(?P<orders>(?:' + _INT + r"(?:, " + _INT + r')*+)?+)\], "q": \{(?P<q>'
    + _Q_ENTRY + r"(?:, " + _Q_ENTRY + r")*+)\}\}")
# bytes.translate arguments that leave the q keys' structure, their ( , and
# ), and the q entries' numbers, the colons and slashes turned into commas
_NOT_KEYS = bytes(c for c in range(256) if c not in b"(,)")
_NOT_Q_NUMBERS = bytes(c for c in range(256) if c not in b"0123456789,:/")
_TO_COMMAS = bytes.maketrans(b":/", b",,")


def _metric_group_text(text: str) -> MetricGroup | None:
    """The group in a file in the _METRIC_GROUP_DOC layout, read from its
    text and built by _checked_q, as metric_group_from_json builds it:
    None for a file in any other layout, with keys not of one coordinate
    per order, as many as A has elements, or with a zero denominator, or
    one that _checked_q refuses, which metric_group_from_json then reads
    and refuses with its own message.  Each entry's numbers are its
    coordinates, numerator and denominator; "()", the trivial group's one
    key, has no coordinates, so there the first number follows a comma."""
    match = _METRIC_GROUP_DOC.fullmatch(text)
    if match is None:
        return None
    try:
        orders = _numbers(match["orders"]).tolist()
        n, k = _checked_order(orders), len(orders)
        q = match["q"].encode()
        keys, key = q.translate(None, _NOT_KEYS), b"(" + b"," * (k - 1) + b")"
        if len(keys) != (len(key) + 1) * n - 1 or keys != b",".join([key] * n):
            return None
        numbers = q.translate(_TO_COMMAS, _NOT_Q_NUMBERS)
        entries = np.fromstring(numbers[1:] if k == 0 else numbers, dtype=np.int64, sep=",").reshape(n, k + 2)
        if not entries[:, k + 1].all():
            return None
        num, den = entries[:, k].tolist(), entries[:, k + 1].tolist()
        return MetricGroup._from_array(orders, *_checked_q(orders, entries[:, :k], num, den))
    except ValueError:  # ValidationError among them
        return None


# -- loader -------------------------------------------------------------------


def datum_to_json(datum) -> dict:
    if isinstance(datum, MetricGroup):
        return metric_group_to_json(datum)
    if isinstance(datum, PremodularData):
        return premodular_to_json(datum)
    raise TypeError(f"cannot serialize {type(datum).__name__}")


def _parse(text: str):
    """The datum in a JSON string and its validator: a premodular or
    metric-group file in the json.dumps layout is read from its text, any
    other by json.loads."""
    for read, validate in ((_premodular_text, validate_premodular), (_metric_group_text, validate_metric_group)):
        datum = read(text)
        if datum is not None:
            return datum, validate
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, an integer literal past
        # int's digit limit, or arrays and objects nested past the recursion limit
        raise ParseError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict) or "type" not in obj:
        raise ParseError('missing the "type" discriminator')
    kind = obj["type"]
    if kind == "premodular":
        return premodular_from_json(obj), validate_premodular
    if kind == "metric_group":
        return metric_group_from_json(obj), validate_metric_group
    raise ParseError(f'unknown "type": {kind!r}')


def collector_paused(fn, *args):
    """fn(*args), called with the cyclic garbage collector paused and then
    left as it was found, enabled or disabled, however the call ends."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return fn(*args)
    finally:
        if enabled:
            gc.enable()


def loads_datum(text: str):
    """Parse and validate a datum from a JSON string, with the collector
    paused while the JSON is decoded and read; the decoded JSON is freed
    before validation.  The pause is process-wide: it assumes one thread
    loads at a time, as in the CLI."""
    datum, validate = collector_paused(_parse, text)
    report = validate(datum)
    if not report.ok:
        raise ValidationError(report)
    return datum


def load_datum(path: str):
    """Load a premodular datum or metric group from a JSON file: ParseError
    on malformed input, ValidationError when the datum fails validation."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return loads_datum(text)
