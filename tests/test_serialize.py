import json
from fractions import Fraction

import pytest

from premodular.catalog import catalog_get, catalog_list
from premodular.cli import cli_run
from premodular.cyclotomic import euler_phi, make_root
from premodular.data import validate_premodular
from premodular.fusion_ring import MAX_MULT, MAX_RANK
from premodular.metric_groups import MetricGroup
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
