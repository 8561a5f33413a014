import collections
import enum
import functools
import json
import math
import os
import re
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import premodular
from premodular.catalog import catalog_get
from premodular.cli import _emit_json, cli_run
from premodular.cyclotomic import euler_phi
from premodular.fusion_ring import MAX_RANK
from premodular.metric_groups import MAX_CONDUCTOR, MetricGroup, from_gram, to_premodular
from premodular.serialize import MAX_SLOTS, datum_to_json, loads_datum


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


def test_trivial_group_runs_every_subcommand(tmp_path):
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps({"type": "metric_group", "orders": [], "q": {"()": "0/1"}}))
    code, out = cli_run(["analyze", str(path), "--format", "json"])
    rep = json.loads(out)
    assert code == 0 and rep["classification"] == "nondegenerate"
    assert rep["components"]["component_count"] == 1
    code, out = cli_run(["gauss", str(path), "--format", "json"])
    rep = json.loads(out)
    assert code == 0 and rep["radical_size"] == 1 and rep["signature_mod8"] == 0
    for command in ("kappa", "extend"):
        assert cli_run([command, str(path)]) == (2, "")


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


_LOADED_MODULES = """
import sys
from premodular.cli import cli_run
for path in sys.argv[1:]:
    for command in ("validate", "analyze", "kappa", "components", "extend", "gauss"):
        for fmt in ("table", "json"):
            cli_run([command, path, "--format", fmt])
print("numpy.ma" in sys.modules)
"""


def test_no_subcommand_imports_numpy_ma(write_datum):
    # numpy.ma (imported by np.unique, among others) adds to every
    # process's start-up time
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(premodular.__file__)))
    paths = [write_datum("svec", "svec.json"), write_datum("ising:1", "ising.json")]
    proc = subprocess.run([sys.executable, "-c", _LOADED_MODULES, *paths],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.stdout == "False\n", proc.stderr


def test_usage_errors():
    assert cli_run(["analyze"])[0] == 2                     # missing path
    assert cli_run(["analyze", "x.json", "--bogus"])[0] == 2
    assert cli_run(["frobnicate"])[0] == 2
    assert cli_run(["catalog", "show"])[0] == 2
    assert cli_run(["catalog", "show", "nonsense"])[0] == 2
    assert cli_run(["catalog", "list", "svec"]) == (2, "")  # a name on list does nothing
    assert cli_run(["catalog", "list", "svec", "--format", "json"]) == (2, "")
    assert cli_run(["catalog", "list", "--format", "json", "svec"]) == (2, "")
    assert cli_run(["analyze", "does-not-exist.json"])[0] == 2
    assert cli_run(["analyze", "x.json", "--seed", "-1"])[0] == 2
    assert cli_run(["extend", "x.json", "--threads", "2"])[0] == 2  # no such option
    assert cli_run(["extend", "x.json", "--max-order", "-4"])[0] == 2


def test_parser_is_built_once_and_reused(write_datum, capsys):
    from premodular.cli import _build_parser

    assert _build_parser() is _build_parser()
    assert cli_run(["validate", write_datum("svec")])[0] == 0
    capsys.readouterr()
    assert cli_run(["analyze", write_datum("svec"), "--bogus"]) == (2, "")
    err = capsys.readouterr().err
    assert "unrecognized arguments: --bogus" in err and err.count("usage: premodular") == 1
    assert cli_run(["analyze", write_datum("svec")])[0] == 0


def test_parse_error_exit_2(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{{{{")
    assert cli_run(["analyze", str(path)])[0] == 2


FILE_SUBCOMMANDS = ("validate", "analyze", "kappa", "components", "extend", "gauss")


@pytest.mark.parametrize("command", FILE_SUBCOMMANDS)
def test_non_utf8_file_exits_2(command, tmp_path, capsys):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\xff\xfe\x00junk")
    assert cli_run([command, str(path)]) == (2, "")
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")


def test_module_entry_point_runs_the_cli(tmp_path):
    # python -m premodular.cli must run the command, not import and exit 0
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(premodular.__file__)))
    proc = subprocess.run([sys.executable, "-m", "premodular.cli", "validate", str(tmp_path / "missing.json")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "cannot read" in proc.stderr


# extend with _smith_normal_form patched to double the last invariant
# factor, so that the overgroup's order cross-check fails
_BROKEN_PUSHOUT = """
import sys
from premodular import cli, metric_groups
snf = metric_groups._smith_normal_form
def doubled(M):
    d, P = snf(M)
    return d[:-1] + [2 * d[-1]], P
metric_groups._smith_normal_form = doubled
cli.main()
"""


def test_a_failed_cross_check_exits_1_under_python_O(write_datum):
    # the cross-checks raise CrossCheckMismatch, which python -O keeps,
    # where it would strip an assert and go on with a wrong overgroup
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(premodular.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", _BROKEN_PUSHOUT, "extend", write_datum("svec")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("internal invariant failure: the overgroup over a0 = ")


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_analyze_timings_go_to_stderr_only(fmt, write_datum, capsys):
    path = write_datum("svec")
    plain = cli_run(["analyze", path, "--format", fmt])
    assert capsys.readouterr().err == ""
    assert cli_run(["analyze", path, "--format", fmt, "--timings"]) == plain
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "[timing] load_validate", "[timing] classify", "[timing] components", "[timing] kappa_verdict"]
    for line in lines:
        assert re.fullmatch(r"\[timing\] [a-z_]+: [0-9]+\.[0-9] ms", line), line


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


def _set_fractional_multiplicity(obj):
    obj["fusion"][0][3] = 1.9


def _set_boolean_multiplicity(obj):
    obj["fusion"][0][3] = True


def _set_fractional_unit(obj):
    obj["unit"] = 0.7


def _set_fractional_dual(obj):
    obj["dual"][1] = 1.2


def _set_fractional_order(obj):
    obj["orders"] = [2.7]


def _set_boolean_order(obj):
    # svec presented on Z1 x Z2, with the order 1 given as true
    obj["orders"] = [True, 2]
    obj["q"] = {"(0," + key[1:]: value for key, value in obj["q"].items()}


def _set_fractional_theta_numerator(obj):
    del obj["twists"]
    obj["theta_exp"] = [[0, 1], [1, 2], [1.5, 16]]


def _set_fractional_conductor(obj):
    obj["dims"][0]["n"] = 1.0


def _set_fractional_coefficient(obj):
    obj["dims"][0]["c"][0] = [1.5, 1]


def _set_underscore_order(obj):
    obj["orders"] = ["0_2"]  # int() reads it as 2


def _set_padded_order(obj):
    obj["orders"] = [" 2 "]


def _set_non_ascii_unit(obj):
    obj["unit"] = "\uff10"  # FULLWIDTH DIGIT ZERO, which int() reads as 0


def _set_underscore_conductor(obj):
    obj["twists"][2]["n"] = "1_6"


def _set_underscore_fusion_entry(obj):
    obj["fusion"][0][3] = "0_1"


def _set_float_q(obj):
    obj["q"]["(1,0)"] = 0.5  # the right value, as a float


def _set_decimal_string_q(obj):
    obj["q"]["(1,0)"] = "0.5"


def _set_boolean_q(obj):
    obj["q"]["(0,0)"] = False  # the right value, as a boolean


def _set_exponent_q(obj):
    obj["q"]["(1,0)"] = "1e1000000"


def _set_overlong_q(obj):
    obj["q"]["(1,0)"] = "1" + "0" * 40 + "/2" + "0" * 40  # 1/2 in 41 + 41 digits


def _set_long_element_key(obj):
    obj["q"]["(0,0,0)"] = obj["q"].pop("(0,0)")


def _set_overlong_coefficient(obj):
    obj["dims"][2]["c"][1] = ["1" + "0" * 32] * 2  # sqrt 2 kept, its 1 in 33 + 33 digits


def _set_overlong_coefficient_denominator(obj):
    obj["dims"][2]["c"][0] = ["0", "1" + "0" * 32]  # 0 over 33 digits


def _set_underscore_key(obj):
    obj["q"]["(0_1)"] = obj["q"].pop("(1)")  # int() reads it as 1


def _set_non_ascii_key(obj):
    obj["q"]["( \uff11 )"] = obj["q"].pop("(1)")  # FULLWIDTH DIGIT ONE


def _set_plus_sign_key(obj):
    obj["q"]["(+1)"] = obj["q"].pop("(1)")


# past the 4,300-digit limit of int(); written unquoted by the test below
_HUGE_INTEGER = "1" + "0" * 4999


def _set_huge_integer_q(obj):
    obj["q"]["(0,0)"] = _HUGE_INTEGER


@pytest.mark.parametrize("name, mutate", [
    ("svec-x-semion", _set_q_list),
    ("svec-x-semion", _set_orders_string),
    ("ising:1", _set_zero_denominator),
    ("ising:1", _set_huge_multiplicity),
    ("ising:1", _set_labels_string),
    ("ising:1", _set_dual_string),
    ("ising:1", _set_huge_theta_denominator),
    ("ising:1", _set_fractional_multiplicity),
    ("ising:1", _set_boolean_multiplicity),
    ("ising:1", _set_fractional_unit),
    ("ising:1", _set_fractional_dual),
    ("svec", _set_fractional_order),
    ("svec", _set_boolean_order),
    ("ising:1", _set_fractional_theta_numerator),
    ("ising:1", _set_fractional_conductor),
    ("ising:1", _set_fractional_coefficient),
    ("svec", _set_underscore_order),
    ("svec", _set_padded_order),
    ("ising:1", _set_non_ascii_unit),
    ("ising:1", _set_underscore_conductor),
    ("ising:1", _set_underscore_fusion_entry),
    ("svec-x-semion", _set_float_q),
    ("svec-x-semion", _set_decimal_string_q),
    ("svec-x-semion", _set_boolean_q),
    ("svec-x-semion", _set_exponent_q),
    ("svec-x-semion", _set_overlong_q),
    ("svec-x-semion", _set_long_element_key),
    ("ising:1", _set_overlong_coefficient),
    ("ising:1", _set_overlong_coefficient_denominator),
    ("svec-x-semion", _set_huge_integer_q),
    ("svec", _set_underscore_key),
    ("svec", _set_non_ascii_key),
    ("svec", _set_plus_sign_key),
])
def test_malformed_fields_exit_2(name, mutate, write_datum, tmp_path):
    obj = json.loads(Path(write_datum(name)).read_text())
    mutate(obj)
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(obj).replace(f'"{_HUGE_INTEGER}"', _HUGE_INTEGER))
    for command in ("validate", "analyze"):
        assert cli_run([command, str(path)]) == (2, ""), command


def test_plain_digit_strings_still_load_as_integers(write_datum, tmp_path):
    spaced = {"(0,0)": "( 0, 0 )", "(0,1)": "(0, 1)", "(1,0)": " (1 ,0) ", "(1,1)": "(1,1 )"}
    for name, mutate in (("svec", lambda obj: obj.update(orders=["2"])),
                         ("ising:1", lambda obj: obj["twists"][2].update(n="16")),
                         ("svec-x-semion", lambda obj: obj.update(
                             q={spaced[k]: v for k, v in obj["q"].items()}))):
        obj = json.loads(Path(write_datum(name)).read_text())
        mutate(obj)
        path = tmp_path / "digits.json"
        path.write_text(json.dumps(obj))
        assert cli_run(["validate", str(path)])[0] == 0, name


def _cyclic_group_json(path, n, values):
    path.write_text(json.dumps({"type": "metric_group", "orders": [n],
                                "q": {f"({x})": v for x, v in enumerate(values)}}))
    return str(path)


def test_q_denominator_cap_at_the_parse_boundary(tmp_path):
    # q(x) = x^2 / 8192 on Z4096: the largest group and the largest D
    # a form can have both pass
    path = _cyclic_group_json(tmp_path / "z4096.json", 4096,
                              [f"{x * x % 8192}/8192" for x in range(4096)])
    assert cli_run(["validate", path]) == (0, f"input      : {path}\nvalidation : ok\n")
    # one denominator 8193, or an lcm 3 * 2731 = 8193, is refused unread
    for values in (["0", "1/8193"], ["1/3", "1/2731"]):
        path = _cyclic_group_json(tmp_path / "over.json", 2, values)
        for fmt in ("table", "json"):
            assert cli_run(["validate", path, "--format", fmt]) == (2, "")


_RSS_GROWTH = """
import resource, sys
from premodular.cli import cli_run
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
code, out = cli_run(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def _rss_growth(*argv):
    """The exit code of one CLI run in a fresh process and the growth of
    its peak RSS in KB (ru_maxrss is in KB)."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(premodular.__file__)))
    proc = subprocess.run([sys.executable, "-c", _RSS_GROWTH, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    return tuple(map(int, proc.stdout.split()))


def test_gauss_at_the_largest_conductor_stays_small(tmp_path):
    # one reduction at conductor 8192 needs no phi x phi table: the peak
    # RSS of a fresh process grows by under 50 MB
    path = _cyclic_group_json(tmp_path / "z4096.json", 4096,
                              [f"{x * x % 8192}/8192" for x in range(4096)])
    code, grown_kb = _rss_growth("gauss", path)
    assert code == 0 and grown_kb < 50 * 1024, (code, grown_kb)


def test_gauss_at_a_large_prime_conductor_stays_small(tmp_path):
    # rad(4093) = 4093: the reduction's growth bound sums the rows x^j mod
    # Phi_4093, and a 4092 x 4092 identity among them grew the peak by about 100 MB
    path = _cyclic_group_json(tmp_path / "z4093.json", 4093, [f"{2 * x * x % 4093}/4093" for x in range(4093)])
    code, grown_kb = _rss_growth("gauss", path)
    assert code == 0 and grown_kb < 50 * 1024, (code, grown_kb)


def test_twist_at_a_large_prime_conductor_exits_2_and_stays_small(tmp_path):
    # one twist at conductor 8191, prime: an 8190 x 8190 identity among the
    # rows of its growth bound grew the peak by about 500 MB
    path = tmp_path / "theta_8191.json"
    path.write_text(json.dumps({"type": "premodular", "labels": ["1"], "unit": 0, "dual": [0],
                                "fusion": [[0, 0, 0, 1]], "dims": [{"n": 1, "c": [["1", "1"]]}],
                                "theta_exp": [[1, 8191]]}))
    code, grown_kb = _rss_growth("validate", str(path))
    assert code == 2 and grown_kb < 50 * 1024, (code, grown_kb)


_TIMED_RUN = """
import resource, sys, time
from premodular.cli import cli_run
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
start = time.perf_counter()
code, out = cli_run(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before, time.perf_counter() - start)
"""


def _limit_resources():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    resource.setrlimit(resource.RLIMIT_CPU, (30, 30))


def test_coefficient_slots_above_the_budget_exit_2_at_once(tmp_path):
    # rank 65 with one twist at conductor MAX_CONDUCTOR and no s: its s
    # would need 65^2 phi(8192) slots, 3% over the budget, and the file
    # is refused after the parse, before any array is allocated
    r, n = 65, MAX_CONDUCTOR
    assert r * r * euler_phi(n) > MAX_SLOTS >= (r - 1) ** 2 * euler_phi(n)
    one = {"n": 1, "c": [["1", "1"]]}
    twist = {"n": n, "c": [["1", "1"]] + [["0", "1"]] * (euler_phi(n) - 1)}
    path = tmp_path / "over_budget.json"
    path.write_text(json.dumps({"type": "premodular", "labels": [str(a) for a in range(r)], "unit": 0,
                                "dual": list(range(r)), "fusion": [], "dims": [one] * r,
                                "twists": [one] * (r - 1) + [twist]}))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(premodular.__file__)))
    proc = subprocess.run([sys.executable, "-c", _TIMED_RUN, "validate", str(path)], capture_output=True,
                          text=True, env=env, timeout=120, preexec_fn=_limit_resources)
    code, grown_kb, seconds = proc.stdout.split()
    assert (int(code), proc.stderr) == (2, f"error: bad premodular datum: rank {r} at conductor {n} needs "
                                           f"{r * r * euler_phi(n)} coefficient slots, above the budget "
                                           f"{MAX_SLOTS}\n")
    assert int(grown_kb) < 50 * 1024 and float(seconds) < 2, (grown_kb, seconds)


def test_twist_at_conductor_8190_exits_2_within_a_second(tmp_path):
    # Phi_8190 = Phi_2730(x^3), built from the binomials x^d - 1 for d | 2730
    # rather than by dividing x^2730 - 1 by every Phi_d
    one = {"n": 1, "c": [["1", "1"]]}
    path = tmp_path / "theta_8190.json"
    path.write_text(json.dumps({"type": "premodular", "labels": ["1"], "unit": 0, "dual": [0],
                                "fusion": [[0, 0, 0, 1]], "dims": [one], "theta_exp": [[8189, 8190]]}))
    assert len(path.read_text()) == 157
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(premodular.__file__)))
    proc = subprocess.run([sys.executable, "-c", _TIMED_RUN, "validate", str(path)], capture_output=True,
                          text=True, env=env, timeout=120, preexec_fn=_limit_resources)
    code, _, seconds = proc.stdout.split()
    assert (int(code), proc.stderr) == (2, "")
    assert float(seconds) < 1, seconds


def test_analyze_on_su2_63_times_svec_takes_under_10_seconds(tmp_path):
    # rank 128, non-pointed: the join over every entry does about r^5
    # work on SU(2)_k and took 55 s; over the rows of the generators
    # (0,f) and (1,1) it takes a fraction of a second
    path = tmp_path / "su2-63-svec.json"
    path.write_text(json.dumps(datum_to_json(oracles.deligne(oracles.su2(63), oracles.svec()))))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(premodular.__file__)))
    proc = subprocess.run([sys.executable, "-c", _TIMED_RUN + "print(out)", "analyze", str(path), "--format", "json"],
                          capture_output=True, text=True, env=env, timeout=120, preexec_fn=_limit_resources)
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    timing, out = proc.stdout.split("\n", 1)
    code, _, seconds = timing.split()
    payload = json.loads(out)
    assert (int(code), proc.stderr) == (0, "")
    assert (payload["fermion"], payload["components"]["component_count"], payload["kappa"]["kappa_minus"],
            payload["verdict"]) == ("(0,f)", 2, "64/1", "extension_exists_S")
    assert float(seconds) < 10, seconds


def test_rank_256_ring_is_held_as_its_nonzeros(write_datum):
    # the linearized (Z/2)^8: a fusion ring of 65,536 nonzeros, whose
    # r x r x r tensor would take 128 MiB and put the growth above 150 MB;
    # held as its nonzeros, validating the file grows the peak by about
    # 46 MB, 35 MB of them the decoded JSON, and validation adds nothing
    # to the peak the parse leaves
    path = write_datum(to_premodular(from_gram([2] * 8, [Fraction(1, 4)] * 8)))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(premodular.__file__)))
    proc = subprocess.run([sys.executable, "-c", _TIMED_RUN, "validate", path], capture_output=True,
                          text=True, env=env, timeout=120, preexec_fn=_limit_resources)
    code, grown_kb, seconds = proc.stdout.split()
    assert (int(code), proc.stderr) == (0, "")
    assert int(grown_kb) < 80 * 1024, grown_kb


def test_linearization_above_the_rank_cap_exits_2(write_datum, capsys):
    # |A| = 512: the metric group validates; analysis reads the form, not
    # a linearization, but keeps the linearization's cap and message
    mg = from_gram([2, MAX_RANK], [Fraction(1, 2), Fraction(1, 2 * MAX_RANK)])
    path = write_datum(mg)
    assert cli_run(["validate", path])[0] == 0
    capsys.readouterr()
    for command in ("analyze", "kappa", "components"):
        for fmt in ("table", "json"):
            assert cli_run([command, path, "--format", fmt]) == (2, ""), command
            assert capsys.readouterr().err == "error: linearization capped at rank 256, |A| = 512\n", command


def test_internal_cross_check_failure_exits_1(write_datum, monkeypatch):
    from premodular.errors import CrossCheckMismatch

    def boom(data, cls):
        raise CrossCheckMismatch("forced for the exit-code contract test")

    # both verdicts: a metric group's, read off its form, and premodular
    # data's; kappa reads its report from the verdict, as analyze does
    for name in ("form_verdict", "extension_verdict"):
        monkeypatch.setattr(f"premodular.cli.{name}", boom)
    for command in ("analyze", "kappa"):
        for entry in ("svec", "ising:1"):
            code, out = cli_run([command, write_datum(entry)])
            assert code == 1 and out == "", (command, entry)


def test_extend_exits_1_when_a_kept_class_sum_is_off_its_phase(write_datum, monkeypatch, capsys):
    # each kept class's exact Gauss sum against class 0's times its phase step
    from premodular import metric_groups

    reduce_rows = metric_groups.reduce_rows

    def perturbed(v, n):
        rows = reduce_rows(v, n)
        rows[3, 0] += 1
        return rows

    monkeypatch.setattr(metric_groups, "reduce_rows", perturbed)
    for fmt in ("table", "json"):
        assert cli_run(["extend", write_datum("svec-x-semion"), "--format", fmt]) == (1, "")
        assert "has an exact Gauss sum other than" in capsys.readouterr().err


def test_extend_exits_1_when_a_phase_is_off_the_eighths(write_datum, monkeypatch, capsys):
    # a wrong c(u) -> u table takes u off the 2-torsion of Z2 x Z16, where
    # q(u) = u^2/32 is not a whole number of eighths
    from premodular import metric_groups

    table = metric_groups._pairing_preimages
    monkeypatch.setattr(metric_groups, "_pairing_preimages", lambda *args: np.roll(table(*args), 1))
    for fmt in ("table", "json"):
        assert cli_run(["extend", write_datum("pointed:2x16:1/2,1/32"), "--format", fmt]) == (1, "")
        assert "off the first one's eighths" in capsys.readouterr().err


def test_extend_exits_1_unless_all_8_signatures_occur(write_datum, monkeypatch):
    from premodular import metric_groups

    search = metric_groups._extension_candidates

    def without_phase_3(mg, e):
        return (cand for cand in search(mg, e) if cand.phase != 3)

    monkeypatch.setattr(metric_groups, "_extension_candidates", without_phase_3)
    for fmt in ("table", "json"):
        assert cli_run(["extend", write_datum("svec"), "--format", fmt]) == (1, "")


@pytest.mark.parametrize("command", ["analyze", "components", "kappa"])
@pytest.mark.parametrize("name", ["svec", "semion", "ising:1", "rep-z2"])
def test_each_subcommand_classifies_once(command, name, write_datum, monkeypatch):
    # premodular data is classified on its arrays, a metric group on its form
    from premodular import data, metric_groups

    calls = []

    def counting(classify):
        def counted(d):
            calls.append(d)
            return classify(d)
        return counted

    for classify in (data.classify_degeneracy, metric_groups.classify_form):
        for module in [m for key, m in sys.modules.items() if key.startswith("premodular")]:
            if getattr(module, classify.__name__, None) is classify:
                monkeypatch.setattr(module, classify.__name__, counting(classify))
    code, _ = cli_run([command, write_datum(name)])
    assert code == (2 if command == "kappa" and name != "svec" else 0)
    assert len(calls) == 1


def _count_calls(monkeypatch, calls, fn):
    """Count in calls[fn.__name__] the calls of fn, under its name in every
    premodular module that binds it."""
    def counted(*args):
        calls[fn.__name__] += 1
        return fn(*args)

    for module in [m for key, m in sys.modules.items() if key.startswith("premodular")]:
        if getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)


def _count_property(monkeypatch, calls, name):
    """Count in calls[name] the computations of MetricGroup's cached
    property name."""
    func = vars(MetricGroup)[name].func

    def counted(mg):
        calls[name] += 1
        return func(mg)

    prop = functools.cached_property(counted)
    prop.__set_name__(MetricGroup, name)
    monkeypatch.setattr(MetricGroup, name, prop)


@pytest.mark.parametrize("command", ["validate", "analyze", "kappa", "components", "extend", "gauss"])
@pytest.mark.parametrize("name", ["svec-x-semion", "pointed:2x3x5:1/2,1/3,2/5"])
def test_each_subcommand_derives_the_group_tables_once(command, name, write_datum, monkeypatch):
    # validation builds the loaded group's coordinate table and generator
    # pairings; the radical, the form route, gauss and the extension
    # search read them and build no table of their own
    from premodular import metric_groups

    calls = collections.Counter()
    _count_calls(monkeypatch, calls, metric_groups._coordinates)
    _count_property(monkeypatch, calls, "pairings")
    path = write_datum(name)
    for fmt in ("table", "json"):
        calls.clear()
        assert cli_run([command, path, "--format", fmt])[0] == 0
        assert calls == {"_coordinates": 1, "pairings": 1}


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("name", ["svec", "z4-q:1", "toric"])
def test_gauss_computes_each_quantity_once(name, fmt, write_datum, monkeypatch):
    from premodular import metric_groups

    calls = collections.Counter()
    _count_calls(monkeypatch, calls, metric_groups.gauss_sum)
    _count_property(monkeypatch, calls, "_radical")
    assert cli_run(["gauss", write_datum(name), "--format", fmt])[0] == 0
    assert calls == {"gauss_sum": 1, "_radical": 1}


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


_JSON_STRINGS = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=8),  # lone surrogates included
    st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f\n\t", "é", "\u2028", "\ud800", "\udfff", "\U0001f600", ""]),
)
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), _JSON_STRINGS,
    st.integers(), st.integers(min_value=2**64, max_value=2**200), st.integers(min_value=-2**200, max_value=-2**64),
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 1e-7, 5e-324, 1.7976931348623157e308]),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_JSON_STRINGS, children, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(_JSON_VALUES)
def test_emit_json_writes_the_bytes_of_json_dumps(obj):
    assert _emit_json(obj) == oracles.json_text(obj)


class _Text(str):
    pass


class _Level(enum.IntEnum):
    ONE = 1


_REFUSED_BY_JSON = [{(1,): 0}, [{1j: 0}], [object()], {"x": {1, 2}}, b"bytes"]
# what json.dumps converts but no payload holds: keys not str, and
# instances of subclasses of str, int and float
_CONVERTED_BY_JSON = [{1: 0}, {1.5: 0}, {True: 0}, {None: 0}, _Text("x"), [_Level.ONE], {"x": np.float64(0.5)}]


@pytest.mark.parametrize("obj", _REFUSED_BY_JSON + _CONVERTED_BY_JSON)
def test_emit_json_refuses_what_json_dumps_refuses(obj):
    """The writer refuses what json.dumps refuses, and what it converts
    that no payload holds."""
    if any(obj is x for x in _REFUSED_BY_JSON):
        with pytest.raises(TypeError):
            oracles.json_text(obj)
    else:
        oracles.json_text(obj)
    with pytest.raises(TypeError):
        _emit_json(obj)
