import json
from pathlib import Path

import pytest

from premodular.catalog import catalog_get
from premodular.cli import cli_run
from premodular.serialize import loads_datum


def test_validate_ok(write_datum):
    code, out = cli_run(["validate", write_datum("svec")])
    assert code == 0
    assert "ok" in out


def test_validate_reports_violations_with_exit_2(write_datum, tmp_path):
    path = write_datum("svec")
    text = json.loads(open(path).read())
    text["q"]["(1)"] = "1/3"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(text))
    code, out = cli_run(["validate", str(bad), "--format", "json"])
    assert code == 2
    assert "QuadraticLawViolation" in out


KAPPA_KEYS = {"n_self_dual", "n_e_twisted", "kappa_plus", "kappa_minus", "verdict"}


def test_analyze_svec_json_fields(write_datum):
    code, out = cli_run(["analyze", write_datum("svec"), "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["classification"] == "slightly_degenerate"
    assert rep["components"]["component_count"] == 2
    assert rep["kappa"]["kappa_minus"] == "1/1"
    assert set(rep["kappa"]) == KAPPA_KEYS
    assert rep["verdict"] == "extension_exists_S"
    assert rep["validation"] == "ok"
    assert "timings" not in json.dumps(rep)


def test_analyze_semion(write_datum):
    code, out = cli_run(["analyze", write_datum("semion"), "--format", "json"])
    rep = json.loads(out)
    assert code == 0
    assert rep["classification"] == "nondegenerate"
    assert rep["components"]["component_count"] == 1
    assert rep["kappa"] is None
    assert rep["verdict"] == "already_nondegenerate"


def test_analyze_premodular_input(write_datum):
    code, out = cli_run(["analyze", write_datum("ising:1"), "--format", "json"])
    rep = json.loads(out)
    assert code == 0
    assert rep["classification"] == "nondegenerate"


def test_kappa_subcommand(write_datum):
    code, out = cli_run(["kappa", write_datum("svec"), "--format", "json"])
    assert code == 0
    assert json.loads(out)["kappa"]["n_self_dual"] == 2
    assert set(json.loads(out)["kappa"]) == KAPPA_KEYS

    code, _ = cli_run(["kappa", write_datum("semion")])
    assert code == 2


def test_components_subcommand(write_datum):
    code, out = cli_run(["components", write_datum("svec"), "--format", "json"])
    assert code == 0
    rep = json.loads(out)["components"]
    assert rep["component_count"] == 2
    assert rep["magnetic_index"] is not None
    assert rep["seed"] == 0


def test_extend_svec(write_datum):
    code, out = cli_run(["extend", write_datum("svec"), "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["count"] == 8
    assert sorted(e["signature"] for e in rep["extensions"]) == list(range(8))
    assert "non-pointed extensions" in rep["note"]


def test_extend_requires_metric_group(write_datum):
    code, _ = cli_run(["extend", write_datum("ising:1")])
    assert code == 2


def test_extend_rejects_nondegenerate(write_datum):
    code, _ = cli_run(["extend", write_datum("semion")])
    assert code == 2


def test_extend_order_cap(write_datum):
    code, _ = cli_run(["extend", write_datum("svec"), "--max-order", "2"])
    assert code == 2


def test_gauss_subcommand(write_datum):
    code, out = cli_run(["gauss", write_datum("z4-q:1"), "--format", "json"])
    assert code == 0
    rep = json.loads(out)
    assert rep["signature_mod8"] == 1
    assert rep["radical_size"] == 1

    code, out = cli_run(["gauss", write_datum("svec"), "--format", "json"])
    assert json.loads(out)["signature_mod8"] is None


def test_catalog_show_round_trips():
    code, out = cli_run(["catalog", "show", "svec"])
    assert code == 0
    assert loads_datum(out) == catalog_get("svec").payload


def test_catalog_show_parametric_key_validation_failure():
    assert cli_run(["catalog", "show", "pointed:2:1/3"])[0] == 2


def test_catalog_list_lines():
    code, out = cli_run(["catalog", "list"])
    assert code == 0
    assert len(out.strip().splitlines()) >= 18


def test_usage_errors():
    assert cli_run(["analyze"])[0] == 2                     # missing path
    assert cli_run(["analyze", "x.json", "--bogus"])[0] == 2
    assert cli_run(["frobnicate"])[0] == 2
    assert cli_run(["catalog", "show"])[0] == 2
    assert cli_run(["catalog", "show", "nonsense"])[0] == 2
    assert cli_run(["analyze", "does-not-exist.json"])[0] == 2
    assert cli_run(["analyze", "x.json", "--seed", "-1"])[0] == 2
    assert cli_run(["extend", "x.json", "--threads", "2"])[0] == 2  # no such option
    assert cli_run(["extend", "x.json", "--max-order", "-4"])[0] == 2


def test_parse_error_exit_2(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{{{{")
    assert cli_run(["analyze", str(path)])[0] == 2


def _set_q_list(obj):
    obj["q"] = list(obj["q"].items())


def _set_orders_string(obj):
    obj["orders"] = "".join(map(str, obj["orders"]))


def _set_zero_denominator(obj):
    obj["dims"][0]["c"][0][1] = "0"


def _set_huge_multiplicity(obj):
    obj["fusion"][0][3] = 2**63


def _set_labels_string(obj):
    obj["labels"] = "".join(label[0] for label in obj["labels"])


def _set_dual_string(obj):
    obj["dual"] = "".join(map(str, obj["dual"]))


def _set_huge_theta_denominator(obj):
    del obj["twists"]
    obj["theta_exp"] = [[0, 1], [1, 2], [1, 10**9]]


@pytest.mark.parametrize("name, mutate", [
    ("svec-x-semion", _set_q_list),
    ("svec-x-semion", _set_orders_string),
    ("ising:1", _set_zero_denominator),
    ("ising:1", _set_huge_multiplicity),
    ("ising:1", _set_labels_string),
    ("ising:1", _set_dual_string),
    ("ising:1", _set_huge_theta_denominator),
])
def test_malformed_fields_exit_2(name, mutate, write_datum, tmp_path):
    obj = json.loads(Path(write_datum(name)).read_text())
    mutate(obj)
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(obj))
    for command in ("validate", "analyze"):
        assert cli_run([command, str(path)]) == (2, ""), command


def test_internal_cross_check_failure_exits_1(write_datum, monkeypatch):
    from premodular.errors import CrossCheckMismatch

    def boom(data):
        raise CrossCheckMismatch("forced for the exit-code contract test")

    monkeypatch.setattr("premodular.cli.extension_verdict", boom)
    code, out = cli_run(["analyze", write_datum("svec")])
    assert code == 1 and out == ""


def test_stdout_determinism_across_runs(write_datum):
    path = write_datum("svec-x-semion")
    outputs = {cli_run(["analyze", path, "--format", "json"])[1] for _ in range(5)}
    assert len(outputs) == 1


def test_table_output_is_fixed_width(write_datum):
    code, out = cli_run(["analyze", write_datum("svec")])
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    colons = {l.index(":") for l in lines}
    assert len(colons) == 1  # aligned
