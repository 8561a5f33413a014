"""Exit-code fuzz gate: hostile edits of catalog JSON never escape the
exit-code contract.

Each case replaces one or two fields of a catalog entry's JSON with
values from a fixed pool of hostile values, or renames one q key of a
metric group to a key from a fixed pool of hostile element keys, or
edits a metric group's q or orders as a whole object, or
edits the structure (nesting far past the recursion limit, a top-level
list, a field deleted, given a value of the wrong type or written twice
with a hostile first value), and every file subcommand must exit 0 or 2
without raising.  A few cases run as separate processes under resource
limits and a timeout, where stderr must hold no traceback.
"""

import copy
import itertools
import json
import os
import random
import resource
import subprocess
import sys

import premodular
from hypothesis import HealthCheck, given, settings, strategies as st

from premodular.catalog import catalog_get
from premodular.cli import cli_run
from premodular.serialize import datum_to_json

ENTRIES = ("svec", "svec-x-semion", "toric", "z4-q:3", "rep-z2", "ising:1", "ising:7")
SUBCOMMANDS = ("validate", "analyze", "kappa", "components", "extend", "gauss")
HOSTILE = (
    None, True, False, 0, 1, -1, 2, 3, 64, 2**31, 2**63, -(2**63), 10**40, 0.5, -0.0,
    float("nan"), float("inf"), "", "x", "0", "-1", "1/0", "0/0", "1/2", "-3/4", "(0)",
    "(0,0)", "1e9", "9" * 40, [], [0], [[]], [0, 0, 0, 0], [["1", "0"]], ["1", "-2"], {},
    {"n": 1, "c": []}, {"n": 0, "c": [["1", "1"]]}, {"n": 5, "c": [["1", "1"]] * 4},
    {"(0)": "0"}, "11", "0001", {"0": 0, "1": 0},
)
METRIC_ENTRIES = ("svec", "svec-x-semion", "toric", "z4-q:3", "rep-z2")
HOSTILE_KEYS = (
    "", "()", "(", ")", "(0", "0)", "0", "0,1", "(,)", "(0,)", "(,0)", "(0,,1)", "(0,0,0)",
    "(" + ",".join(["0"] * 5000) + ")", "((0))", "[0]", "(0)(1)", "(-1)", "(-0)", "(+1)",
    "(1_0)", "(0_1)", "( \uff11 )", "(\u0661)", "(1.0)", "(1e0)", "(0x1)", "(1/1)", "(nan)",
    "(true)", "(4)", "(1,4)", "(9" + "9" * 40 + ")", "(" + "1" * 5000 + ")", " ( 1 ) ",
    "(\t1,\n0\u3000)", "(0, 1)", "(1,1)",
)


def _paths(node, prefix=()):
    """Every path into a JSON document, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _replace(doc, path, value):
    """doc with the field at path set to value; a path that an earlier
    replacement removed leaves doc as it is."""
    if not path:
        return value
    node = doc
    for step in path[:-1]:
        try:
            node = node[step]
        except (KeyError, IndexError, TypeError):
            return doc
    if isinstance(node, (dict, list)) and (isinstance(node, dict) or path[-1] < len(node)):
        node[path[-1]] = value
    return doc


def _mutated(name, choose):
    """name's JSON with 1-2 fields replaced; choose(seq) picks one item."""
    doc = datum_to_json(catalog_get(name).payload)
    for _ in range(choose((1, 2))):
        doc = _replace(doc, choose(list(_paths(doc))), copy.deepcopy(choose(HOSTILE)))
    return json.dumps(doc)


def _renamed(name, choose):
    """name's JSON with one q key renamed to a hostile element key."""
    doc = datum_to_json(catalog_get(name).payload)
    doc["q"][choose(HOSTILE_KEYS)] = doc["q"].pop(choose(sorted(doc["q"])))
    return json.dumps(doc)


@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_hostile_json_exits_0_or_2(tmp_path_factory, data):
    text = _mutated(data.draw(st.sampled_from(ENTRIES)), lambda seq: data.draw(st.sampled_from(seq)))
    path = tmp_path_factory.getbasetemp() / "hostile.json"
    path.write_text(text)
    for command in SUBCOMMANDS:
        code, _ = cli_run([command, str(path)])
        assert code in (0, 2), (command, text)


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_hostile_element_keys_exit_0_or_2(tmp_path_factory, data):
    text = _renamed(data.draw(st.sampled_from(METRIC_ENTRIES)), lambda seq: data.draw(st.sampled_from(seq)))
    path = tmp_path_factory.getbasetemp() / "hostile_key.json"
    path.write_text(text)
    for command in SUBCOMMANDS:
        code, _ = cli_run([command, str(path)])
        assert code in (0, 2), (command, text)


def _limit_resources():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    resource.setrlimit(resource.RLIMIT_CPU, (30, 30))


def test_hostile_json_in_a_process_exits_0_or_2_without_traceback(tmp_path):
    rng = random.Random(8)
    src = os.path.dirname(os.path.dirname(premodular.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for k, command in enumerate(SUBCOMMANDS):
        path = tmp_path / f"hostile{k}.json"
        path.write_text(_mutated(rng.choice(ENTRIES), rng.choice))
        proc = subprocess.run(
            [sys.executable, "-c", "from premodular.cli import main; main()", command, str(path)],
            capture_output=True, text=True, env=env, timeout=60, preexec_fn=_limit_resources,
        )
        assert proc.returncode in (0, 2), (command, path.read_text(), proc.stderr)
        assert "Traceback" not in proc.stderr, proc.stderr


# arrays nested this deep exceed any recursion limit the decoder runs
# under; SHALLOW decodes, and the value is then refused
DEEP, SHALLOW = 100_000, 500
STRUCTURE_ENTRIES = ("svec-x-semion", "ising:1")
WRONG_TYPES = (None, True, 1, 0.5, "x", [], [[]], {}, {"n": 1})


def _with(doc, path, raw):
    """doc as JSON text with the field at path replaced by the JSON text raw."""
    return json.dumps(_replace(copy.deepcopy(doc), path, "\0")).replace('"\\u0000"', raw)


def _structural_cases():
    """(name, JSON text) for each structural edit: deep nesting in
    orders, in a premodular s and at the top level, a top-level list, and
    every field of a metric group and a premodular file deleted, given a
    value of each wrong type, or written twice with a value of each wrong
    type first."""
    deep, shallow = "[" * DEEP + "]" * DEEP, "[" * SHALLOW + "]" * SHALLOW
    mg, pm = (datum_to_json(catalog_get(name).payload) for name in STRUCTURE_ENTRIES)
    cases = [
        ("nested orders", _with(mg, ("orders",), shallow)),
        ("nested s entry", _with(pm, ("s", 0, 0), shallow)),
        ("deep orders", _with(mg, ("orders",), deep)),
        ("deep s entry", _with(pm, ("s", 0, 0), deep)),
        ("deep s entry part", _with(pm, ("s", 1, 1, "c", 0), deep)),
        ("deep top-level list", deep),
        ("deep top-level object", '{"a": ' * DEEP + "0" + "}" * DEEP),
        ("top-level list", json.dumps([mg])),
        ("top-level string", json.dumps("premodular")),
    ]
    for name, doc in zip(STRUCTURE_ENTRIES, (mg, pm)):
        for key in doc:
            cases.append((f"{name} without {key}", json.dumps({k: v for k, v in doc.items() if k != key})))
            cases += [(f"{name} {key} = {value!r}", json.dumps(_replace(copy.deepcopy(doc), (key,), value)))
                      for value in WRONG_TYPES]
            # the key written twice, a hostile value first: the decoder keeps the last
            cases += [(f"{name} {key} twice, first {value!r}", f"{{{json.dumps(key)}: {json.dumps(value)}, "
                       + json.dumps(doc)[1:]) for value in WRONG_TYPES]
    return cases


def test_structural_edits_exit_0_or_2(tmp_path):
    path = tmp_path / "structure.json"
    for name, text in _structural_cases():
        path.write_text(text)
        for command in SUBCOMMANDS:
            code, _ = cli_run([command, str(path)])
            assert code in (0, 2), (command, name)
            if name.startswith(("nested", "deep", "top-level")):
                assert code == 2, (command, name)


MIXED_VALUES = (0, "1/2", 0.5, True, None, ["0"], "3/4", 1)


def _whole_q_cases():
    """(name, JSON object) for metric groups edited as whole objects: q
    empty, keys spaced so that they normalise onto elements already given,
    one q mixing values of every JSON type, and the orders as strings."""
    for name in METRIC_ENTRIES:
        doc = datum_to_json(catalog_get(name).payload)
        q = doc["q"]
        spaced = {" " + key.replace("(", "( ").replace(",", " ,"): value for key, value in q.items()}
        yield f"{name} empty q", {**doc, "q": {}}
        yield f"{name} spaced keys", {**doc, "q": {**q, **spaced}}
        yield f"{name} '( 1)' and ' (0) '", {**doc, "q": {**q, "( 1)": "1/2", " (0) ": "0"}}
        yield f"{name} mixed values", {**doc, "q": dict(zip([*q, *spaced], itertools.cycle(MIXED_VALUES)))}
        yield f"{name} string orders", {**doc, "orders": list(map(str, doc["orders"]))}


def test_whole_q_objects_exit_0_or_2(tmp_path):
    path = tmp_path / "whole_q.json"
    for name, doc in _whole_q_cases():
        path.write_text(json.dumps(doc))
        for command in SUBCOMMANDS:
            code, _ = cli_run([command, str(path)])
            assert code in (0, 2), (command, name)


def test_whole_q_objects_in_a_process_exit_0_or_2_without_traceback(tmp_path):
    src = os.path.dirname(os.path.dirname(premodular.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for k, (name, doc) in enumerate(_whole_q_cases()):
        if not name.startswith("svec-x-semion"):
            continue
        path = tmp_path / f"whole_q{k}.json"
        path.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-c", "from premodular.cli import main; main()", "analyze", str(path)],
            capture_output=True, text=True, env=env, timeout=60, preexec_fn=_limit_resources,
        )
        assert proc.returncode in (0, 2), (name, proc.stderr)
        assert "Traceback" not in proc.stderr, (name, proc.stderr)


def test_structural_edits_in_a_process_exit_2_without_traceback(tmp_path):
    src = os.path.dirname(os.path.dirname(premodular.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    cases = dict(_structural_cases())
    for k, name in enumerate(["deep orders", "deep s entry", "deep top-level list", "top-level list",
                              "ising:1 without dims", "ising:1 s = {'n': 1}", "svec-x-semion q = [[]]"]):
        path = tmp_path / f"structure{k}.json"
        path.write_text(cases[name])
        proc = subprocess.run(
            [sys.executable, "-c", "from premodular.cli import main; main()", "analyze", str(path)],
            capture_output=True, text=True, env=env, timeout=60, preexec_fn=_limit_resources,
        )
        assert proc.returncode == 2, (name, proc.stderr)
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr, (name, proc.stderr)


def _denominator_cases():
    """(name, JSON text) for premodular files whose values over one
    denominator would not fit the budget: an s row of 65,536 rationals
    over distinct 32-digit denominators, whose lcm has about 2 10^6
    digits, and a rank-256 group ring of (Z/2)^8 with no s and its
    twists at distinct 32-digit integers, whose inverses share a
    denominator of about 27,000 bits that each of the 65,536 entries of
    a synthesized s would carry twice."""
    one = {"n": 1, "c": [["1", "1"]]}
    row = [{"n": 1, "c": [["1", str(10**31 + 2 * i + 1)]]} for i in range(2**16)]
    yield "s over distinct denominators", json.dumps(
        {"type": "premodular", "labels": ["1"], "unit": 0, "dual": [0], "fusion": [[0, 0, 0, 1]],
         "dims": [one], "twists": [one], "s": [row]})
    r = 256
    twists = [one] + [{"n": 1, "c": [[str(10**31 + 2 * a + 1), "1"]]} for a in range(1, r)]
    yield "twists at distinct large integers", json.dumps(
        {"type": "premodular", "labels": [str(a) for a in range(r)], "unit": 0, "dual": list(range(r)),
         "fusion": [[a, b, a ^ b, 1] for a in range(r) for b in range(r)], "dims": [one] * r,
         "twists": twists})


def test_denominators_over_the_budget_exit_2_in_a_process(tmp_path):
    src = os.path.dirname(os.path.dirname(premodular.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for k, (name, text) in enumerate(_denominator_cases()):
        path = tmp_path / f"denominators{k}.json"
        path.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-c", "from premodular.cli import main; main()", "validate", str(path)],
            capture_output=True, text=True, env=env, timeout=60, preexec_fn=_limit_resources,
        )
        assert proc.returncode == 2, (name, proc.stderr)
        assert proc.stderr.startswith("error: ") and "above the budget" in proc.stderr, (name, proc.stderr)
        assert "Traceback" not in proc.stderr, (name, proc.stderr)
