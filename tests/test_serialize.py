import gc
import itertools
import json
import random
import re
import time
import tomllib
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from oracles import integers_by_regex_map, random_slightly_degenerate
from premodular import serialize
from premodular.catalog import catalog_get, catalog_list
from premodular.cli import cli_run
from premodular.cyclotomic import euler_phi, make_root
from premodular.data import validate_premodular
from premodular.fusion_ring import MAX_MULT, MAX_RANK
from premodular.metric_groups import MetricGroup, from_gram, to_premodular
from premodular.serialize import (
    MAX_CONDUCTOR,
    MAX_DIGITS,
    ParseError,
    ValidationError,
    datum_to_json,
    loads_datum,
    load_datum,
    metric_group_from_json,
    metric_group_to_json,
    premodular_from_json,
    ring_from_json,
    ring_to_json,
)
from test_fuzz import _paths
from test_output_digests import CORPORA


def _one_at(n):
    """1 as a well-formed element of Q(zeta_n): euler_phi(n) coefficients."""
    return {"n": n, "c": [["1", "1"]] + [["0", "1"]] * (euler_phi(n) - 1)}


@pytest.mark.parametrize("name", [n for n, _, _ in catalog_list()])
def test_round_trip_every_catalog_entry(name):
    payload = catalog_get(name).payload
    text = json.dumps(datum_to_json(payload))
    again = loads_datum(text)
    assert again == payload


def test_round_trip_is_byte_stable(tmp_path):
    payload = catalog_get("ising:5").payload
    one = json.dumps(datum_to_json(payload))
    two = json.dumps(datum_to_json(loads_datum(one)))
    assert one == two


def test_theta_exp_alternative_form():
    # rebuild the premodular datum with twists given as rational exponents
    from premodular.metric_groups import to_premodular

    data = to_premodular(catalog_get("svec").payload)
    pm = datum_to_json(data)
    del pm["twists"]
    pm["theta_exp"] = [["0", "1"], ["1", "2"]]
    loaded = premodular_from_json(pm)
    assert loaded.twists[0] == make_root(0, 1)
    assert loaded.twists[1] == make_root(1, 2)
    assert loads_datum(json.dumps(pm)) == data


@pytest.mark.parametrize("field", ["theta_exp", "dims", "lcm"])
def test_conductor_above_the_cap_is_a_parse_error(field):
    n = MAX_CONDUCTOR + 1
    obj = datum_to_json(catalog_get("ising:1").payload)
    if field == "theta_exp":
        del obj["twists"]
        obj["theta_exp"] = [[0, 1], [1, 2], [1, n]]
    elif field == "dims":
        obj["dims"][0] = _one_at(n)
    else:
        # each conductor is under the cap, their lcm 8400 is not
        obj["dims"][0], obj["dims"][1] = _one_at(336), _one_at(25)
    with pytest.raises(ParseError, match="exceeds the cap"):
        premodular_from_json(obj)


def test_theta_exp_denominator_at_the_cap_loads():
    obj = datum_to_json(catalog_get("ising:1").payload)
    del obj["twists"]
    obj["theta_exp"] = [[0, 1], [1, 2], [1, MAX_CONDUCTOR]]
    assert premodular_from_json(obj).twists[2] == make_root(1, MAX_CONDUCTOR)


def test_cycnum_coefficient_digits_are_capped():
    obj = datum_to_json(catalog_get("ising:1").payload)
    at_cap = "1" + "0" * (MAX_DIGITS - 1)
    obj["dims"][2]["c"][1] = [at_cap, at_cap]  # 1, written in MAX_DIGITS digits each
    obj["dims"][2]["c"][0] = ["0", at_cap]
    assert loads_datum(json.dumps(obj)) == catalog_get("ising:1").payload
    obj["dims"][2]["c"][0] = ["0", at_cap + "0"]
    with pytest.raises(ParseError, match="digits"):
        premodular_from_json(obj)


def test_negative_coefficient_denominator_is_normalized():
    obj = datum_to_json(catalog_get("ising:1").payload)
    obj["dims"][2]["c"][1] = ["-1", "2"]
    expected = premodular_from_json(json.loads(json.dumps(obj))).dims[2]
    obj["dims"][2]["c"][1] = ["1", "-2"]
    loaded = premodular_from_json(obj).dims[2]
    assert loaded == expected
    assert loaded.to_json() == expected.to_json()
    assert loaded.to_json()["c"][1] == ["-1", "2"]


def test_conductor_key_is_ignored():
    obj = datum_to_json(catalog_get("ising:1").payload)
    assert "conductor" not in obj
    plain = loads_datum(json.dumps(obj))
    obj["conductor"] = 16
    assert loads_datum(json.dumps(obj)) == plain == catalog_get("ising:1").payload


def test_ring_caps_are_parse_errors():
    ring = {"labels": [str(a) for a in range(MAX_RANK + 1)], "unit": 0,
            "dual": list(range(MAX_RANK + 1)), "fusion": []}
    with pytest.raises(ParseError, match="exceeds the cap"):
        ring_from_json(ring)

    obj = datum_to_json(catalog_get("ising:1").payload)
    obj["fusion"][-1][3] = MAX_MULT
    assert ring_from_json(obj).row(2)[2, 1] == MAX_MULT
    obj["fusion"][-1][3] = MAX_MULT + 1
    with pytest.raises(ParseError, match="exceeds the cap"):
        ring_from_json(obj)


def test_repeated_fusion_entry_keeps_its_last_multiplicity():
    obj = datum_to_json(catalog_get("ising:1").payload)
    a, b, c, n = obj["fusion"][-1]
    obj["fusion"].insert(0, [a, b, c, n + 4])
    assert ring_from_json(obj).row(a)[b, c] == n
    obj["fusion"].append([a, b, c, n + 2])
    assert ring_from_json(obj).row(a)[b, c] == n + 2


ISING_FUSION = [[0, 0, 0, 1], [0, 1, 1, 1], [0, 2, 2, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 2, 2, 1],
                [2, 0, 2, 1], [2, 1, 2, 1], [2, 2, 0, 1], [2, 2, 1, 1]]


@pytest.mark.parametrize("edit, fusion, kinds", [
    # a repeated (a, b, c) whose last multiplicity is 0 leaves no entry
    ([[2, 2, 1, 3], [2, 2, 1, 0]], ISING_FUSION[:-1], {"AssociativityViolation"}),
    # an explicit zero is no entry
    ([[1, 1, 1, 0]], ISING_FUSION, set()),
    # a negative multiplicity is kept, and reported
    ([[1, 1, 1, -2]], ISING_FUSION[:5] + [[1, 1, 1, -2]] + ISING_FUSION[5:], {"NegativeMultiplicity"}),
])
def test_fusion_entries_written_as_the_nonzeros_in_order(edit, fusion, kinds):
    obj = datum_to_json(catalog_get("ising:1").payload)
    assert obj["fusion"] == ISING_FUSION
    obj["fusion"] += edit
    ring = ring_from_json(obj)
    assert ring_to_json(ring)["fusion"] == fusion
    report = validate_premodular(premodular_from_json(obj))
    assert report.kinds() == kinds, str(report)
    if kinds == {"NegativeMultiplicity"}:
        assert [v.witness for v in report.violations] == [(1, 1, 1)]


def _ising_with(path, value):
    """ising:1 as JSON with the field at path set to value."""
    obj = datum_to_json(catalog_get("ising:1").payload)
    node = obj
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return obj


def _theta_exp(second):
    """ising:1 as JSON with its twists as theta_exp, the second written as given."""
    obj = datum_to_json(catalog_get("ising:1").payload)
    del obj["twists"]
    obj["theta_exp"] = [[0, 1], second, [1, 16]]
    return obj


# lists of the schema written as another value; the strings, the zero
# pair and the theta_exp object read as the right value when unpacked
# into their characters or keys, and a null s would read as no s
NON_LISTS = {
    "coefficient pair as a string": _ising_with(("dims", 0, "c"), ["11"]),
    "coefficient pair as an object": _ising_with(("dims", 0, "c"), [{"1": "1", "2": "1"}]),
    "zero coefficient pair as an object": _ising_with(("dims", 2, "c", 0), {"0": "1", "1": "1"}),
    "fusion entry as a string": _ising_with(("fusion", 0), "0001"),
    "theta_exp entry as a string": _theta_exp("12"),
    "theta_exp entry as an object": _theta_exp({"1": 0, "2": 0}),
    "dims as an object": _ising_with(("dims",), {str(a): {"n": 1, "c": [["1", "1"]]} for a in range(3)}),
    "s as null": _ising_with(("s",), None),
}


@pytest.mark.parametrize("name", sorted(NON_LISTS))
def test_a_non_list_where_the_schema_has_a_list_exits_2(name, tmp_path, capsys):
    with pytest.raises(ParseError, match="must be a list"):
        premodular_from_json(NON_LISTS[name])
    path = tmp_path / "non_list.json"
    path.write_text(json.dumps(NON_LISTS[name]))
    capsys.readouterr()
    for command in ("validate", "analyze"):
        assert cli_run([command, str(path)]) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: bad ") and "must be a list" in err, err


# one file per parse message, each with exactly one bad entry
MESSAGES = [
    (("dims", 0, "n"), 1.5, "bad premodular datum: expected an integer, got 1.5"),
    (("s", 1, 1, "n"), "1_6", "bad premodular datum: expected an integer, got '1_6'"),
    (("fusion", 0, 3), True, "bad fusion ring: expected an integer, got True"),
    (("twists", 2, "n"), 2 * MAX_CONDUCTOR, f"bad premodular datum: conductor {2 * MAX_CONDUCTOR} "
                                            f"exceeds the cap {MAX_CONDUCTOR}"),
    (("dims", 0, "c"), [["1", "1"], ["0", "1"]],
     "bad premodular datum: coefficient vector length must be euler_phi(conductor)"),
    (("dims", 2, "c", 0), ["0", "1" + "0" * MAX_DIGITS],
     f"bad premodular datum: CycNum coefficient part has more than {MAX_DIGITS} digits"),
    (("dims", 2, "c", 0), ["0", "0"], "bad premodular datum: CycNum coefficient with a zero denominator"),
    (("fusion", 0, 2), 3, "bad fusion ring: fusion index out of range: (0, 0, 3)"),
    (("fusion", 0, 3), MAX_MULT + 1, f"bad fusion ring: multiplicity {MAX_MULT + 1} exceeds the cap {MAX_MULT}"),
]


@pytest.mark.parametrize("path, value, message", MESSAGES)
def test_parse_messages_name_the_bad_entry(path, value, message):
    with pytest.raises(ParseError) as err:
        premodular_from_json(_ising_with(path, value))
    assert str(err.value) == message


def _ising_with_all(edits):
    """ising:1 as JSON with the field at each path of edits set to its value."""
    obj = datum_to_json(catalog_get("ising:1").payload)
    for path, value in edits.items():
        node = obj
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
    return obj


# the refusals of the caps on fusion entries and coefficient parts, with
# the message and the order of the checks they had while the checks ran
# over lists of ints: the first bad index in file order (entry 1 here,
# though entry 4 has a bad index in an earlier column), values past int64
# either way, the largest multiplicity over the cap, and the digit cap
# before zero denominators wherever each is in the file
CAP_MESSAGES = {
    "first bad index in file order": (
        {("fusion", 1, 2): 3, ("fusion", 4, 0): -1}, "bad fusion ring: fusion index out of range: (0, 1, 3)"),
    "index past int64": (
        {("fusion", 0, 1): 2**63}, "bad fusion ring: fusion index out of range: (0, 9223372036854775808, 0)"),
    "index below int64": (
        {("fusion", 2, 0): str(-(2**63) - 1)},
        "bad fusion ring: fusion index out of range: (-9223372036854775809, 2, 2)"),
    "multiplicity past int64": (
        {("fusion", 0, 3): 2**64}, f"bad fusion ring: multiplicity {2**64} exceeds the cap {MAX_MULT}"),
    "largest multiplicity over the cap": (
        {("fusion", 0, 3): MAX_MULT + 1, ("fusion", 3, 3): MAX_MULT + 5},
        f"bad fusion ring: multiplicity {MAX_MULT + 5} exceeds the cap {MAX_MULT}"),
    "multiplicity below int64": (
        {("fusion", 5, 3): -(2**63) - 1}, f"bad fusion ring: multiplicity {-(2**63) - 1} is below the int64 range"),
    "over the cap and below int64": (
        {("fusion", 0, 3): -(2**63) - 1, ("fusion", 9, 3): MAX_MULT + 1},
        f"bad fusion ring: multiplicity {MAX_MULT + 1} exceeds the cap {MAX_MULT}"),
    "33 digits after a zero denominator": (
        {("dims", 2, "c", 0): ["0", "0"], ("twists", 2, "c", 5): ["-" + "9" * 33, "1"]},
        f"bad premodular datum: CycNum coefficient part has more than {MAX_DIGITS} digits"),
    "33 digits before a zero denominator": (
        {("dims", 0, "c", 0): ["1", "1" + "0" * 32], ("s", 2, 2, "c", 1): ["1", "0"]},
        f"bad premodular datum: CycNum coefficient part has more than {MAX_DIGITS} digits"),
    "zero denominator beside a part past int64": (
        {("dims", 2, "c", 1): [str(2**70), "3"], ("twists", 1, "c", 0): ["-1", "0"]},
        "bad premodular datum: CycNum coefficient with a zero denominator"),
}


@pytest.mark.parametrize("name", sorted(CAP_MESSAGES))
def test_cap_refusals_keep_their_messages(name):
    edits, message = CAP_MESSAGES[name]
    with pytest.raises(ParseError) as err:
        premodular_from_json(_ising_with_all(edits))
    assert str(err.value) == message


def test_a_part_of_magnitude_2_63_loads_exactly():
    # -2^63 fits int64, but its magnitude does not: the parts go to Python ints
    data = premodular_from_json(_ising_with(("dims", 2, "c", 1), [str(-(2**63)), "1"]))
    assert data.dims.num.dtype == object and data.dims[2].num[1] == -(2**63)


# loads_datum pauses the cyclic collector while it reads a file: each case
# ends in its own way, and each leaves the collector as it was found
_BAD_FIELD = json.dumps(_ising_with(("dims", 0, "n"), 1.5))
_FAILS_VALIDATION = json.dumps(_ising_with(("dims", 2), {"n": 1, "c": [["1", "1"]]}))
COLLECTOR_CASES = {
    "valid": (json.dumps(datum_to_json(catalog_get("ising:1").payload)), None),
    "bad JSON": ("{", ParseError),
    "nested past the recursion limit": ("[" * 100_000 + "]" * 100_000, ParseError),
    "bad field": (_BAD_FIELD, ParseError),
    "failing validation": (_FAILS_VALIDATION, ValidationError),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("name", sorted(COLLECTOR_CASES))
def test_loads_datum_leaves_the_collector_as_it_found_it(name, enabled):
    text, error = COLLECTOR_CASES[name]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            loads_datum(text)
        else:
            with pytest.raises(error):
                loads_datum(text)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_no_collection_starts_while_a_rank_32_file_is_loaded():
    # decoding the file builds thousands of containers, enough for several
    # collections, and all of them are freed again by reference counting
    text = json.dumps(datum_to_json(to_premodular(from_gram([2, 16], [Fraction(1, 2), Fraction(1, 32)]))))
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    was = gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(count)
    try:
        loads_datum(text)
    finally:
        gc.callbacks.remove(count)
        if not was:
            gc.disable()
    assert starts == []


_Z2 = {"(0)": "0", "(1)": "1/2"}
_VALUE_MESSAGE = f"bad metric group: expected an integer or a string p/q of at most {MAX_DIGITS} digits each, got "
_FAILED = "input      : {path}\nvalidation : failed\n"
# one metric-group file per case: (orders, q, exit code, stdout, stderr)
METRIC_GROUP_OUTPUTS = {
    "bad orders entry": (["2", 2.5], _Z2, 2, "", "bad metric group: expected an integer, got 2.5"),
    "q not an object": ([2], [["(0)", "0"], ["(1)", "1/2"]], 2, "",
                        'bad metric group: "orders" must be a list and "q" an object'),
    "malformed key": ([2], {"(0)": "0", "(1": "1/2"}, 2, "", "bad element key '(1'"),
    "underscore coordinate": ([2], {"(0)": "0", "(1_0)": "1/2"}, 2, "",
                              "bad metric group: expected an integer, got '1_0'"),
    "too many coordinates": ([2], {"(0)": "0", "(1,0)": "1/2"}, 2, "", "bad element key '(1,0)'"),
    "float value": ([2], {"(0)": "0", "(1)": 0.5}, 2, "", _VALUE_MESSAGE + "0.5"),
    "exponent value": ([2], {"(0)": "0", "(1)": "1e5"}, 2, "", _VALUE_MESSAGE + "'1e5'"),
    "33-digit value": ([2], {"(0)": "0", "(1)": "1" + "0" * 32}, 2, "", _VALUE_MESSAGE + repr("1" + "0" * 32)),
    "zero denominator": ([2], {"(0)": "0", "(1)": "1/0"}, 2, "", "bad metric group: q value 1/0 has a zero denominator"),
    "32-digit denominator": ([2], {"(0)": "0", "(1)": "1/" + "9" * 32}, 2, "",
                             f"bad metric group: q denominators have an lcm above the cap {MAX_CONDUCTOR}"),
    # "( 1)" is the element (1): the last value given for it is kept
    "normalised duplicate": ([2], {"(0)": "0", "(1)": "1/4", "( 1)": "1/2"}, 0,
                             "input      : {path}\nvalidation : ok\n", None),
    "short key": ([2, 2], {"(0,0)": "0", "(0,1)": "0", "(1)": "0", "(1,1)": "1/2"}, 2,
                  _FAILED + "CoverageViolation at (): qtable must cover exactly the group elements\n", None),
    # "()" has no coordinates: a short key on any group but the trivial one
    "empty key": ([2], {"(0)": "0", "()": "1/2"}, 2,
                  _FAILED + "CoverageViolation at (): qtable must cover exactly the group elements\n", None),
    "two out of range": ([2, 2], {"(0,0)": "0", "(0,1)": "1", "(1,0)": "0", "(1,1)": "3/2"}, 2,
                         _FAILED + "RangeViolation at (0, 1): q value 1 outside [0,1)\n"
                         "RangeViolation at (1, 1): q value 3/2 outside [0,1)\n", None),
}


@pytest.mark.parametrize("name", sorted(METRIC_GROUP_OUTPUTS))
def test_metric_group_validate_outputs_are_pinned(name, tmp_path, capsys):
    orders, q, code, out, message = METRIC_GROUP_OUTPUTS[name]
    obj = {"type": "metric_group", "orders": orders, "q": q}
    path = tmp_path / "mg.json"
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert cli_run(["validate", str(path)]) == (code, out.format(path=path))
    assert capsys.readouterr().err == ("" if message is None else f"error: {message}\n")
    if message is not None:
        with pytest.raises(ParseError) as err:
            metric_group_from_json(obj)
        assert str(err.value) == message
    elif code == 0:
        assert metric_group_from_json(obj).qtable[(1,)] == Fraction(1, 2)


def test_trivial_group_round_trips_through_json(tmp_path):
    # "()" is the key with no coordinates, the trivial group's one element
    trivial = MetricGroup([], {(): 0})
    obj = metric_group_to_json(trivial)
    assert obj["q"] == {"()": "0/1"}
    assert metric_group_from_json(obj) == trivial
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(obj))
    for command in ("validate", "analyze"):
        assert cli_run([command, str(path)])[0] == 0


def test_parse_errors():
    with pytest.raises(ParseError):
        loads_datum("not json")
    with pytest.raises(ParseError):
        loads_datum(json.dumps({"orders": [2]}))  # missing discriminator
    with pytest.raises(ParseError):
        loads_datum(json.dumps({"type": "widget"}))
    with pytest.raises(ParseError):
        loads_datum(json.dumps({"type": "metric_group", "orders": [2], "q": {"0": "0/1"}}))


def test_negative_fusion_index_is_a_parse_error():
    obj = datum_to_json(catalog_get("ising:1").payload)
    obj["fusion"][0][0] = -1
    with pytest.raises(ParseError):
        loads_datum(json.dumps(obj))


def test_validation_error_carries_witnesses():
    obj = datum_to_json(catalog_get("svec").payload)
    obj["q"]["(1)"] = "1/3"
    with pytest.raises(ValidationError) as err:
        loads_datum(json.dumps(obj))
    assert "QuadraticLawViolation" in err.value.report.kinds()


def test_corrupted_dimension_in_premodular_file(tmp_path):
    from premodular.metric_groups import to_premodular

    data = to_premodular(catalog_get("svec").payload)
    obj = datum_to_json(data)
    obj["dims"][1] = {"n": 1, "c": [["2", "1"]]}  # d_e = 2
    del obj["s"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValidationError) as err:
        load_datum(str(path))
    assert "DimensionCharacterViolation" in err.value.report.kinds()


def test_metric_group_element_key_format():
    obj = {
        "type": "metric_group",
        "orders": [2, 2],
        "q": {"(0,0)": "0/1", "(0,1)": "0/1", "(1,0)": "0/1", "(1,1)": "1/2"},
    }
    mg = metric_group_from_json(obj)
    assert mg.qtable == catalog_get("toric").payload.qtable


# strings an integer reader meets: newlines, signs, spaces, underscores and
# non-ASCII digits (some of which int() reads), the empty string, and
# strings at and past int's 4300-digit limit; lists of integer strings
# alone, lists with these among them, and lists of ints and strings
_INTEGER_PARTS = st.sampled_from(["\n", "-", "+", " ", "_", "\u0661", "\uff11", "", "0", "1", "7", "12", "x"])
_INTEGER_STRINGS = st.one_of(st.integers(-10**20, 10**20).map(str), st.lists(_INTEGER_PARTS, max_size=4).map("".join),
                             st.sampled_from(["9" * 4300, "-" + "9" * 4300, "1" * 4301, "2" * 5000]))
_INTEGER_LISTS = st.one_of(st.lists(st.integers(-3, 3).map(str), max_size=20), st.lists(_INTEGER_STRINGS, max_size=8),
                           st.lists(st.one_of(st.integers(-3, 3), _INTEGER_STRINGS), max_size=8))


def _outcome(read, values):
    """What read(values) returns, or the type and message of what it
    raises."""
    try:
        return read(values)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(_INTEGER_LISTS)
def test_integers_equal_the_regex_map(values):
    assert _outcome(serialize._integers, values) == _outcome(integers_by_regex_map, values)


@pytest.mark.parametrize("values, bad", [(["1\n2"], "'1\\n2'"), (["-", "1"], "'-'"), (["1", "", "2"], "''"),
                                         (["1" * 4301, "-"], "'-'"), ([1, "-"], "'-'"), ([2, "1\n2"], "'1\\n2'")])
def test_integers_name_the_string_refused(values, bad):
    # a newline inside a string, and strings the charset passes but int()
    # refuses, before and after one past the digit limit and among ints
    with pytest.raises(ValueError) as err:
        serialize._integers(values)
    assert str(err.value) == f"expected an integer, got {bad}"


def test_integers_past_the_digit_limit_fail_as_int_does():
    with pytest.raises(ValueError, match="4301 digits"):
        serialize._integers(["1", "1" * 4301, "2" * 5000])


# -- the coefficient reader on hostile parts -------------------------------------------

_FAILED = "input      : <path>\nvalidation : failed\nBalancingViolation at (1, 1): supplied s disagrees with balancing formula\n"
_REFUSED = "error: bad premodular datum: "
# a part in place of the numerator and of the denominator of the last coefficient of
# s_{1,1} (1/1) in a linearized Z2 x Z4 file: the parsed value where the reader takes
# the part, else the message; a pair in place of that coefficient pair
HOSTILE_PARTS = {
    "-0": 0, "007": 7, "1-2": "expected an integer, got '1-2'", "-": "expected an integer, got '-'",
    "": "expected an integer, got ''", "--1": "expected an integer, got '--1'",
    "1\n2": "expected an integer, got '1\\n2'", " 16": "expected an integer, got ' 16'",
    "1_6": "expected an integer, got '1_6'", "١": "expected an integer, got '١'",
    "１": "expected an integer, got '１'", "9" * 19: 10**19 - 1,
    "9" * 33: "CycNum coefficient part has more than 32 digits", str(2**63 - 1): 2**63 - 1,
    str(-(2**63)): -(2**63), 5: 5, True: "expected an integer, got True",
}
HOSTILE_PAIRS = {
    "3 items": (["1", "1", "1"], "a coefficient pair must have 2 items, got ['1', '1', '1']"),
    "a string": ("12", "a coefficient pair must be a list, got '12'"),
    "an object": ({"a": "1", "b": "1"}, "a coefficient pair must be a list, got {'a': '1', 'b': '1'}"),
}


def _z2_z4_with(edit):
    doc = datum_to_json(to_premodular(from_gram([2, 4], [Fraction(1, 2), Fraction(1, 8)])))
    edit(doc["s"][1][1]["c"])
    return doc


def _validate_run(doc, tmp_path, capsys):
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(doc))
    code, out = cli_run(["validate", str(path)])
    return code, out.replace(str(path), "<path>"), capsys.readouterr().err


@pytest.mark.parametrize("part", list(HOSTILE_PARTS), ids=repr)
@pytest.mark.parametrize("at", [0, 1], ids=["numerator", "denominator"])
def test_hostile_coefficient_parts_read_as_before(part, at, tmp_path, capsys):
    # the outcomes of the reader that ran int() on each string: a part is
    # read as int() reads it, or refused with the message naming it,
    # whether the join goes through numpy or falls back
    doc = _z2_z4_with(lambda c: c[-1].__setitem__(at, part))
    expected = HOSTILE_PARTS[part]
    if expected == 0 and at == 1:
        expected = "CycNum coefficient with a zero denominator"
    got = _validate_run(doc, tmp_path, capsys)
    if isinstance(expected, str):
        assert got == (2, "", f"{_REFUSED}{expected}\n")
    else:
        assert got == (2, _FAILED, "")  # no part read here is 1, so s_{1,1} = i breaks
        z = make_root(1, 4)
        assert premodular_from_json(doc).s[1, 1] == (z * expected if at == 0 else z * Fraction(1, expected))


@pytest.mark.parametrize("pair", list(HOSTILE_PAIRS))
def test_hostile_coefficient_pairs_refused_as_before(pair, tmp_path, capsys):
    value, message = HOSTILE_PAIRS[pair]
    doc = _z2_z4_with(lambda c: c.__setitem__(-1, value))
    assert _validate_run(doc, tmp_path, capsys) == (2, "", f"{_REFUSED}{message}\n")


# -- the text route ----------------------------------------------------------------


def _fields(data):
    """Everything a parsed datum holds, with the dtypes and types of its
    arrays and ints, for comparison."""
    ring = data.ring
    columns = [(x.dtype, x.tolist()) for x in (ring.a, ring.b, ring.c, ring.m, ring.start)]
    values = [None if v is None else (v.M, v.den, v.num.dtype, v.num.shape, v.num.tolist(), v.conductor.tolist())
              for v in (data.dims, data.twists, data.s)]
    return ring.labels, ring.unit_index, type(ring.unit_index), ring.dual, list(map(type, ring.dual)), columns, values


def _json_loads_route(text):
    return premodular_from_json(json.loads(text))


def _routes_agree(text) -> bool:
    """Whether the text route read text; the datum it reads, and the datum
    or the error of the loader either way, are those of json.loads and
    premodular_from_json."""
    datum = serialize._premodular_text(text)
    expected = _outcome(lambda t: _fields(_json_loads_route(t)), text)
    if datum is not None:
        assert _fields(datum) == expected
    assert _outcome(lambda t: _fields(serialize._parse(t)[0]), text) == expected
    return datum is not None


def _linearized(seed: int) -> dict:
    """A linearized group of order 8 to 64 from seed, as JSON."""
    rng = random.Random(seed)
    while (mg := random_slightly_degenerate(rng, 64)).order < 8:
        pass
    return datum_to_json(to_premodular(mg))


@pytest.mark.parametrize("corpus, taken", [("premodular", 52), ("nonpointed", 15)])
def test_the_text_route_reads_the_digest_inputs_as_json_loads_does(corpus, taken):
    # the linearized groups, with and without s, the Z2 twists and four of
    # the mutated ising files; json.loads reads the other mutated files and
    # the theta_exp ones
    inputs = CORPORA[corpus][1]()
    assert sum(_routes_agree(text) for _, text in inputs.values()) == taken


@pytest.mark.parametrize("seed", range(8))
def test_the_text_route_reads_linearized_groups_as_json_loads_does(seed):
    doc = _linearized(seed)
    r = len(doc["labels"])
    assert 8 <= r <= 64
    # as perfbench writes them, with the conductor that the loader ignores
    # after "fusion", and without s
    keys = list(doc)
    written = {**{k: doc[k] for k in keys[:5]}, "conductor": seed * 10**17, **{k: doc[k] for k in keys[5:]}}
    no_s = {k: v for k, v in doc.items() if k != "s"}
    for obj in (doc, written, no_s):
        assert _routes_agree(json.dumps(obj))
    assert serialize._premodular_text(json.dumps(doc)).s.shape == (r, r)


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


# what one edit of a document writes: a coefficient part, an integer or an empty list
_EDITS = {
    "part": (str, ["-0", "007", "-00", "0" * 18, "9" * 18, "-" + "9" * 18, "9" * 19, "-" + "9" * 19, "1" + "0" * 18,
                   "0"]),
    "integer": (int, [0, 1, 3, -1, 10**17, -(10**17), 10**18, MAX_MULT + 1, MAX_CONDUCTOR + 1]),
    "list": (list, [[]]),
}


@st.composite
def _dumps_documents(draw):
    """Premodular documents as json.dumps writes them, of rank 1 to 3, with
    and without "conductor" and "s": each coefficient list is phi(n) long,
    and all but a quarter have one part, integer or list of any level
    replaced, by a part or an integer of 18 or 19 digits, leading zeros,
    "-0" or an empty list."""
    r = draw(st.integers(1, 3))
    index = st.integers(0, r - 1)

    def cycnums(size):
        ns = draw(st.lists(st.sampled_from([1, 2, 3, 4, 8, 12]), min_size=size, max_size=size))
        return [{"n": n, "c": draw(st.lists(st.tuples(st.integers(-3, 3).map(str), st.sampled_from("123")).map(list),
                                            min_size=euler_phi(n), max_size=euler_phi(n)))} for n in ns]

    doc = {"type": "premodular",
           "labels": draw(st.lists(st.text("ab(),1 ", max_size=3), min_size=r, max_size=r, unique=True)), "unit": 0,
           "dual": draw(st.lists(index, min_size=r, max_size=r)),
           "fusion": draw(st.lists(st.tuples(index, index, index, st.integers(0, 3)).map(list), min_size=1, max_size=4))}
    if draw(st.booleans()):
        doc["conductor"] = draw(st.integers(0, 10**18 - 1))
    doc["dims"], doc["twists"] = cycnums(r), cycnums(r)
    if draw(st.booleans()):
        doc["s"] = [cycnums(r) for _ in range(r)]
    edit = draw(st.sampled_from([None, *_EDITS]))
    if edit is not None:
        kind, values = _EDITS[edit]
        path = draw(st.sampled_from([p for p in _paths(doc) if type(_at(doc, p)) is kind and p != ("type",)]))
        _at(doc, path[:-1])[path[-1]] = draw(st.sampled_from(values))
    return json.dumps(doc)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(_dumps_documents())
def test_the_text_route_reads_dumps_documents_as_json_loads_does(text):
    _routes_agree(text)


def test_an_empty_row_of_s_at_rank_1_is_read_as_json_loads_reads_it():
    # no row is dropped: s stays a flat array of no values, which
    # validation refuses, as it does on the json.loads route
    doc = {"type": "premodular", "labels": ["1"], "unit": 0, "dual": [0], "fusion": [[0, 0, 0, 1]],
           "dims": [_one_at(1)], "twists": [_one_at(1)], "s": [[]]}
    _routes_agree(json.dumps(doc))
    assert premodular_from_json(doc).s.shape == (0,)


def _rank_32_text() -> str:
    return json.dumps(datum_to_json(to_premodular(from_gram([2, 2, 8], [Fraction(1, 2), Fraction(1, 4),
                                                                        Fraction(1, 16)]))))


def test_a_rank_32_file_in_the_dumps_layout_is_read_without_json_loads(tmp_path, monkeypatch):
    text = _rank_32_text()
    path = tmp_path / "rank32.json"
    path.write_text(text)
    expected = cli_run(["analyze", str(path), "--format", "json"]), _fields(_json_loads_route(text))

    def refuse(*args, **kwargs):
        raise AssertionError("json.loads called")

    monkeypatch.setattr(serialize.json, "loads", refuse)
    assert (cli_run(["analyze", str(path), "--format", "json"]), _fields(load_datum(str(path)))) == expected


def _edit(text: str, old: str, new: str) -> str:
    assert old in text
    return text.replace(old, new, 1)


_DUMPS = json.dumps(datum_to_json(to_premodular(from_gram([2, 4], [Fraction(1, 2), Fraction(1, 8)]))))
_THETA_EXP = {k: v for k, v in json.loads(_DUMPS).items() if k != "twists"} | {
    "theta_exp": [[0, 1]] * 8}
# one deviation each from the json.dumps layout of a linearized Z2 x Z4 file,
# the JSON valid unless the name says otherwise
DEVIATIONS = {
    "indented": json.dumps(json.loads(_DUMPS), indent=1),
    "a space before a comma": _edit(_DUMPS, '"1", "1"', '"1" , "1"'),
    "no space after a colon": _edit(_DUMPS, '"unit": 0', '"unit":0'),
    "a trailing newline": _DUMPS + "\n",
    "trailing text (not JSON)": _DUMPS + "x",
    "reordered keys": _edit(_edit(_DUMPS, '"unit": 0, ', ""), '"labels"', '"unit": 0, "labels"'),
    "a duplicate key": _edit(_DUMPS, '"unit": 0', '"unit": 1, "unit": 0'),
    "a duplicate s": _DUMPS[:-1] + ', "s": []}',
    "an integer coefficient part": _edit(_DUMPS, '["1", "1"]', '[1, "1"]'),
    "an escaped label": _edit(_DUMPS, '"(0,0)"', '"\\u0028\\u0030,0)"'),
    "a non-ASCII label": _edit(_DUMPS, '"(0,0)"', '"(0,0)é"'),
    "theta_exp": json.dumps(_THETA_EXP),
    "a 19-digit part": _edit(_DUMPS, '["1", "1"]', f'["{10**18}", "1"]'),
    "an empty s": _edit(_DUMPS, _DUMPS[_DUMPS.index('"s": '):], '"s": []}'),
}


@pytest.mark.parametrize("first, second", [(-2, 0), (0, -2), (-(10**30), -1)])
def test_the_first_conductor_below_1_is_the_one_refused(first, second):
    doc = json.loads(_DUMPS)
    doc["dims"][1]["n"], doc["dims"][3]["n"] = first, second
    with pytest.raises(ParseError, match=rf"conductor must be positive, got {first}$"):
        serialize._parse(json.dumps(doc))


def _opcodes(node):
    """The names of the opcodes in a parsed regular expression."""
    if isinstance(node, (tuple, list, re._parser.SubPattern)):
        for x in node:
            yield from _opcodes(x)
    elif isinstance(node, re._constants._NamedIntConstant):
        yield node.name


def test_the_declared_python_compiles_the_layout_pattern():
    # re accepts possessive repeats and atomic groups from Python 3.11 on, and
    # serialize's patterns are compiled when it is imported: an older
    # interpreter that pyproject.toml admits could not load any file
    assert "POSSESSIVE_REPEAT" in _opcodes(re._parser.parse("a*+"))
    patterns = [x for x in vars(serialize).values() if isinstance(x, re.Pattern)]
    assert {serialize._DOC, serialize._METRIC_GROUP_DOC} <= set(patterns)
    newer = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"} & {op for x in patterns for op in _opcodes(re._parser.parse(x.pattern))}
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["requires-python"]
    assert declared.startswith(">=")
    assert not newer or tuple(map(int, declared[2:].split("."))) >= (3, 11)


@pytest.mark.parametrize("name", sorted(DEVIATIONS))
def test_each_deviation_from_the_dumps_layout_reads_as_json_loads_reads_it(name, tmp_path, capsys, monkeypatch):
    path = tmp_path / "deviation.json"
    path.write_text(DEVIATIONS[name], encoding="utf-8")
    assert serialize._premodular_text(DEVIATIONS[name]) is None
    runs = []
    for text_route in (serialize._premodular_text, lambda text: None):
        monkeypatch.setattr(serialize, "_premodular_text", text_route)
        code, out = cli_run(["analyze", str(path)])
        runs.append((code, out, capsys.readouterr().err))
    assert runs[0] == runs[1]


# -- the metric-group text route ------------------------------------------------


def _group_fields(mg):
    """A metric group's orders, their types, Q and D, for comparison."""
    return mg.cyclic_orders, list(map(type, mg.cyclic_orders)), mg.Q.dtype, mg.Q.tolist(), mg.D, type(mg.D)


def _metric_routes_agree(text) -> bool:
    """Whether the metric-group text route read text; the group it reads,
    and the group or the error of the loader either way, are those of
    json.loads and metric_group_from_json."""
    mg = serialize._metric_group_text(text)
    if mg is not None:
        assert _group_fields(mg) == _group_fields(metric_group_from_json(json.loads(text)))
    parsed = lambda t: _group_fields(serialize._parse(t)[0])
    with mock.patch.object(serialize, "_metric_group_text", lambda t: None):
        expected = _outcome(parsed, text)
    assert _outcome(parsed, text) == expected
    return mg is not None


def test_the_metric_group_route_reads_the_digest_inputs_as_json_loads_does():
    # every form (the trivial group among them), survey, catalog and
    # presented group; json.loads reads the 120 mutated and renamed files
    inputs = CORPORA["metric"][1]()
    assert sum(_metric_routes_agree(text) for _, text in inputs.values()) == 140


@pytest.mark.parametrize("seed", range(20))
def test_the_metric_group_route_reads_dumped_groups_as_json_loads_does(seed):
    rng = random.Random(seed)
    groups = [random_slightly_degenerate(rng, 64), random_slightly_degenerate(rng, 4096),
              from_gram([1, rng.randint(1, 6), 1], [Fraction(rng.randrange(12), 12)] * 3)]
    for mg in groups:
        assert _metric_routes_agree(json.dumps(metric_group_to_json(mg)))


# what one edit of a metric-group document writes: an order, a key or a value
_METRIC_EDITS = {
    "orders": [0, 1, -1, -0.0, 10**18, 10**19, "2", True, None],
    "key": ["()", "(0)", "(0,0)", "(00)", "( 0)", "(0, 0)", "(4096)", "(" + "9" * 19 + ")", "(-1)", "0", "(x)"],
    "value": ["0/1", "-0/1", "0", "1", 0, 1, "1/0", "0/0", "1/2", "3/2", "01/02", "1/" + "9" * 18, "1/" + "9" * 19,
              "9" * 19 + "/" + "9" * 20, " 1/2", 0.5, None],
}


@st.composite
def _metric_group_documents(draw):
    """Metric-group documents as json.dumps writes them, on 0 to 3 orders of
    1 to 4 with values p/q in [0, 1), all but a quarter with one order, key
    or value replaced, or the key dropped or duplicated."""
    orders = draw(st.lists(st.integers(1, 4), max_size=3))
    elements = ["(" + ",".join(map(str, x)) + ")" for x in itertools.product(*map(range, orders))]
    q = {key: draw(st.sampled_from(["0/1", "1/2", "1/4", "3/4", "1/8", "5/6", "2/4"])) for key in elements}
    edit = draw(st.sampled_from([None, "orders", "key", "value", "drop", "duplicate"]))
    if edit == "orders" and orders:
        orders[draw(st.integers(0, len(orders) - 1))] = draw(st.sampled_from(_METRIC_EDITS["orders"]))
    elif edit in ("key", "drop", "duplicate"):
        at = draw(st.integers(0, len(q) - 1))
        items = list(q.items())
        key, value = items[at]
        new = {"key": [(draw(st.sampled_from(_METRIC_EDITS["key"])), value)], "drop": [],
               "duplicate": [(key, value), (key, "1/2")]}[edit]
        q = dict(items[:at] + new + items[at + 1:])
        if edit == "duplicate":  # a dict has no duplicate key: write the second into the text
            text = json.dumps({"type": "metric_group", "orders": orders, "q": q})
            return text.replace(f'"{key}": "{value}"', f'"{key}": "{value}", "{key}": "1/2"', 1)
    elif edit == "value":
        q[draw(st.sampled_from(elements))] = draw(st.sampled_from(_METRIC_EDITS["value"]))
    return json.dumps({"type": "metric_group", "orders": orders, "q": q})


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(_metric_group_documents())
def test_the_metric_group_route_reads_dumps_documents_as_json_loads_does(text):
    _metric_routes_agree(text)


_GROUP = json.dumps(metric_group_to_json(from_gram([2, 4], [Fraction(1, 2), Fraction(1, 8)])))
_LONG_ORDERS = json.dumps({"type": "metric_group", "orders": [1] * 10**5, "q": {"()": "0/1"}})
# one deviation each from the json.dumps layout of the Z2 x Z4 file above, and
# files in the layout that the route reads (True) or refuses (False)
METRIC_DEVIATIONS = {
    "the trivial group": (json.dumps(metric_group_to_json(from_gram([], []))), True),
    "orders with ones": (json.dumps(metric_group_to_json(from_gram([1, 2, 1], [0, Fraction(1, 4), 0]))), True),
    "a 19-digit part": (_edit(_GROUP, '"1/8"', f'"1/{10**18}"'), False),
    "a 19-digit coordinate": (_edit(_GROUP, '"(0,1)"', f'"(0,{10**18 + 1})"'), False),
    "-0/1": (_edit(_GROUP, '"0/1"', '"-0/1"'), False),
    "an integer value": (_edit(_GROUP, '"0/1"', "0"), False),
    "a p value": (_edit(_GROUP, '"0/1"', '"0"'), False),
    "a space in a key": (_edit(_GROUP, '"(0,1)"', '"(0, 1)"'), False),
    "indent=2": (json.dumps(json.loads(_GROUP), indent=2), False),
    "reordered keys": (json.dumps({"type": "metric_group", "q": json.loads(_GROUP)["q"], "orders": [2, 4]}), False),
    "reordered q keys": (_edit(_edit(_GROUP, '"(0,0)": "0/1", ', ""), '"(0,1)"', '"(0,0)": "0/1", "(0,1)"'), True),
    "a duplicate q key": (_edit(_GROUP, '"(0,1)": "1/8"', '"(0,1)": "1/2", "(0,1)": "1/8"'), False),
    "a coordinate at 4096": (_edit(_GROUP, '"(1,3)"', '"(1,4099)"'), False),
    "a zero denominator": (_edit(_GROUP, '"1/8"', '"1/0"'), False),
    "a short key": (_edit(_GROUP, '"(1,3)"', '"(1)"'), False),
    "a long key": (_edit(_GROUP, '"(1,3)"', '"(1,3,0)"'), False),
    # a long key and a short one: read as rows of k + 2 numbers, these give the
    # zero form on Z2 x Z2, but the first key has three coordinates
    "keys of shifted arity": ('{"type": "metric_group", "orders": [2, 2], "q": {"(0,0,0)": "1/0", "(1)": "0/1", '
                              '"(1,0)": "0/1", "(1,1)": "0/1"}}', False),
    "a value outside [0, 1)": (_edit(_GROUP, '"1/8"', '"9/8"'), False),
    "10^5 orders": (_LONG_ORDERS, False),
}


@pytest.mark.parametrize("name", sorted(METRIC_DEVIATIONS))
def test_each_metric_group_deviation_reads_as_json_loads_reads_it(name, tmp_path, capsys, monkeypatch):
    text, taken = METRIC_DEVIATIONS[name]
    path = tmp_path / "deviation.json"
    path.write_text(text, encoding="utf-8")
    assert (serialize._metric_group_text(text) is not None) == taken == _metric_routes_agree(text)
    runs = []
    for text_route in (serialize._metric_group_text, lambda text: None):
        monkeypatch.setattr(serialize, "_metric_group_text", text_route)
        code, out = cli_run(["analyze", str(path)])
        runs.append((code, out, capsys.readouterr().err))
    assert runs[0] == runs[1]


def test_a_long_orders_list_is_refused_in_time():
    # the pattern is the same for every number of orders, and 10^5 ones
    # give a group of one element, whose key "()" has the wrong arity:
    # the route refuses the file in about 10 ms
    started = time.perf_counter()
    assert serialize._metric_group_text(_LONG_ORDERS) is None
    assert time.perf_counter() - started < 0.5


def test_a_survey_file_in_the_dumps_layout_is_read_without_json_loads(tmp_path, monkeypatch):
    text = json.dumps(metric_group_to_json(random_slightly_degenerate(random.Random(3), 64)))
    path = tmp_path / "survey.json"
    path.write_text(text)
    expected = cli_run(["analyze", str(path), "--format", "json"]), _group_fields(load_datum(str(path)))

    def refuse(*args, **kwargs):
        raise AssertionError("json.loads called")

    monkeypatch.setattr(serialize.json, "loads", refuse)
    assert (cli_run(["analyze", str(path), "--format", "json"]), _group_fields(load_datum(str(path)))) == expected
