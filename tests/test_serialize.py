import json

import pytest

from premodular.catalog import catalog_get, catalog_list
from premodular.cyclotomic import euler_phi, make_root
from premodular.fusion_ring import MAX_MULT, MAX_RANK
from premodular.serialize import (
    MAX_CONDUCTOR,
    MAX_DIGITS,
    ParseError,
    ValidationError,
    datum_to_json,
    loads_datum,
    load_datum,
    metric_group_from_json,
    premodular_from_json,
    ring_from_json,
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
    assert ring_from_json(obj).mult[2, 2, 1] == MAX_MULT
    obj["fusion"][-1][3] = MAX_MULT + 1
    with pytest.raises(ParseError, match="exceeds the cap"):
        ring_from_json(obj)


def test_repeated_fusion_entry_keeps_its_last_multiplicity():
    obj = datum_to_json(catalog_get("ising:1").payload)
    a, b, c, n = obj["fusion"][-1]
    obj["fusion"].insert(0, [a, b, c, n + 4])
    assert ring_from_json(obj).mult[a, b, c] == n
    obj["fusion"].append([a, b, c, n + 2])
    assert ring_from_json(obj).mult[a, b, c] == n + 2


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
