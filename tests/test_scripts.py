import ast
import importlib
import json
import pathlib
import runpy

import pytest

from premodular.catalog import catalog_list
from premodular.cli import cli_run

SCRIPTS = pathlib.Path(__file__).parent.parent / "scripts"
CATALOG_OUTPUTS = runpy.run_path(str(SCRIPTS / "catalog_outputs.py"))
PARAMETRIC_KEYS = CATALOG_OUTPUTS["PARAMETRIC_KEYS"]
GOLDEN = pathlib.Path(__file__).parent / "data" / "catalog_outputs.json"


def test_sixteenfold_script(capsys):
    runpy.run_path(str(SCRIPTS / "sixteenfold.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "16 extensions total" in out
    assert out.count("pointed") >= 8 and out.count("ising-type") >= 8


def test_survey_script(capsys):
    runpy.run_path(str(SCRIPTS / "survey_catalog.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "extension_exists_S" in out
    assert len(out.strip().splitlines()) >= 20


def test_catalog_outputs_script(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["catalog_outputs.py"])
    runpy.run_path(str(SCRIPTS / "catalog_outputs.py"), run_name="__main__")
    runs = json.loads(capsys.readouterr().out)
    assert runs["catalog show svec"]["exit"] == 0
    assert runs["validate svec.json --format table"] == {
        "exit": 0, "stdout": "input      : svec.json\nvalidation : ok\n"}
    assert runs["extend ising_1.json --format json"] == {"exit": 2, "stdout": ""}
    assert {run["exit"] for run in runs.values()} == {0, 2}
    # every entry and key once as shown, every metric group once more linearized
    pointed = sum(kind == "metric_group" for _, kind, _ in catalog_list())
    assert sum(key.startswith("analyze ") for key in runs) == 2 * (
        len(catalog_list()) + len(PARAMETRIC_KEYS) + pointed + len(PARAMETRIC_KEYS))
    assert runs["analyze svec-premodular.json --format table"]["exit"] == 0
    assert runs["extend pointed_2x16_1-2,1-32.json --format table"]["exit"] == 0


def test_catalog_outputs_match_the_golden_document(tmp_path):
    # tests/data/catalog_outputs.json is the script's output at the commit
    # that added it; any change to a catalog CLI run's exit code or stdout
    # shows up here
    text = json.dumps(CATALOG_OUTPUTS["catalog_outputs"](tmp_path), indent=1) + "\n"
    if text != GOLDEN.read_text():
        new, old = json.loads(text), json.loads(GOLDEN.read_text())
        changed = sorted(key for key in new.keys() | old.keys() if new.get(key) != old.get(key))
        raise AssertionError(
            f"{len(changed)} catalog runs differ from {GOLDEN.name}, first {changed[:5]}.  Compare "
            "with the parent commit: run `PYTHONPATH=src python3 scripts/catalog_outputs.py "
            "> outputs.json` here and in a checkout of the parent and diff the two files.  If "
            "the change is intended, write this checkout's output over tests/data/catalog_outputs.json.")


def test_catalog_outputs_script_on_files(tmp_path, monkeypatch, capsys):
    # given files, the script runs every file subcommand on them, with the
    # keys and stdout of the catalog run on the same files
    for name in ("svec", "ising:1"):
        (tmp_path / f"{name.replace(':', '_')}.json").write_text(cli_run(["catalog", "show", name])[1])
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.argv", ["catalog_outputs.py", "svec.json", "ising_1.json"])
    runpy.run_path(str(SCRIPTS / "catalog_outputs.py"), run_name="__main__")
    runs = json.loads(capsys.readouterr().out)
    golden = json.loads(GOLDEN.read_text())
    assert len(runs) == 2 * 2 * len(CATALOG_OUTPUTS["SUBCOMMANDS"])
    assert runs == {key: golden[key] for key in runs}
    assert runs["validate svec.json --format table"]["stdout"] == "input      : svec.json\nvalidation : ok\n"


# argv: (keys in order, fixed fields)
STAGE_COST = {
    "analyze 4 3": ("group layout_check_s text_route_s parse_validate_s classify_s characters_s verdict_s render_s total_s",
                    {"group": "2x4x3"}),
    "extend 5": ("base layout_check_s text_route_s parse_validate_s search_s payload_s render_s total_s", {"base": "2x5"}),
    "load 4": ("rank bytes layout_check_s text_route_s json_loads_s ring_s coefficients_s ring_validation_s premodular_validation_s residues_s "
               "residue_checks_s twist_check_s synthesis_s validation_without_s_s analysis_s render_s total_s gc_collections", {"rank": 8, "bytes": 3788}),
    "ring 16": ("rank generators validate_s validate_peak_mb generators_s restricted_join_s full_join_s fpdim_s",
                {"rank": 16, "generators": 2}),
    "su2 6": ("rank generators validate_s validate_peak_mb generators_s restricted_join_s full_join_s fpdim_s",
              {"rank": 7, "generators": 1}),
}


def _stage_cost(argv, monkeypatch):
    monkeypatch.setattr("sys.argv", ["stage_cost.py", *argv.split()])
    runpy.run_path(str(SCRIPTS / "stage_cost.py"), run_name="__main__")


@pytest.mark.parametrize("argv", STAGE_COST, ids=lambda argv: argv.split()[0])
def test_stage_cost_script(argv, capsys, monkeypatch):
    _stage_cost(f"{argv} --repeats 1", monkeypatch)
    line = json.loads(capsys.readouterr().out)
    keys, fixed = STAGE_COST[argv]
    assert list(line) == keys.split() and {key: line[key] for key in fixed} == fixed
    # every stage time is positive but load's three differences
    assert all(line[key] > 0 for key in line if key.endswith("_s") and key not in (
        "coefficients_s", "premodular_validation_s", "residue_checks_s"))
    assert line.get("validate_peak_mb", 0) >= 0
    assert [c >= 0 for c in line.get("gc_collections", [0, 0, 0])] == [True] * 3


@pytest.mark.parametrize("argv", ["ring 7", "ring 1", "ring 0", "ring 16 32", "load 1", "analyze 4 --repeats 0",
                                  "extend", "survey 4", "analyze 16 16", "load 256", "load 8 16 32", "extend 64 64",
                                  "ring 258", "su2 1", "su2 4 4", "su2 256"], ids=lambda argv: argv.replace(" ", "_"))
def test_stage_cost_script_refuses_bad_arguments(argv, capsys, monkeypatch):
    with pytest.raises(SystemExit) as exit_:
        _stage_cost(argv, monkeypatch)
    assert exit_.value.code == 2 and capsys.readouterr().out == ""


def test_every_script_is_run_by_a_test():
    # a script no test runs can break unseen
    tree = ast.parse(pathlib.Path(__file__).read_text())
    run = {node.right.value for node in ast.walk(tree) if isinstance(node, ast.BinOp)
           and isinstance(node.left, ast.Name) and node.left.id == "SCRIPTS" and isinstance(node.right, ast.Constant)}
    assert {path.name for path in SCRIPTS.glob("*.py")} <= run


def _tracer_patches():
    tree = ast.parse((SCRIPTS.parent / "perfbench" / "layers.py").read_text())
    return next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PATCHES"]
    )


def test_tracer_patches_resolve():
    # perfbench/layers.py rebinds these imported names when tracing; a
    # missing one would otherwise surface only in perfbench/selftest.py
    patches = _tracer_patches()
    assert patches
    for module, name, _ in patches:
        assert callable(getattr(importlib.import_module(module), name)), (module, name)


def test_cli_handlers_call_the_names_the_tracer_rebinds(write_datum, monkeypatch):
    # a handler that called its callee by another route would drop out of
    # the traced spans without any error; no handler linearizes a metric
    # group any more, so to_premodular alone is not required
    cli = importlib.import_module("premodular.cli")
    names = [name for module, name, _ in _tracer_patches() if module == "premodular.cli" and name != "to_premodular"]
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    assert cli.cli_run(["analyze", write_datum("z4-q:1", "z4.json"), "--format", "json"])[0] == 0
    assert cli.cli_run(["analyze", write_datum("ising:1", "ising.json"), "--format", "json"])[0] == 0
    assert cli.cli_run(["extend", write_datum("svec", "svec.json"), "--format", "json"])[0] == 0
    assert all(calls.values()), calls
    # kappa classifies and judges through the same names, and exits 2 on
    # ising, which has no fermion line
    calls.update(dict.fromkeys(names, 0))
    assert cli.cli_run(["kappa", write_datum("ising:1", "ising.json"), "--format", "json"])[0] == 2
    assert calls["classify_degeneracy"] == calls["extension_verdict"] == 1, calls
