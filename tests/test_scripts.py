import ast
import importlib
import json
import pathlib
import runpy

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


def test_ring_validation_cost_script(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["ring_validation_cost.py", "16", "--repeats", "1"])
    runpy.run_path(str(SCRIPTS / "ring_validation_cost.py"), run_name="__main__")
    line = json.loads(capsys.readouterr().out)
    assert line["rank"] == 16 and line["validate_s"] > 0 and line["ru_maxrss_growth_mb"] >= 0 and line["join_s"] > 0
    assert line["fpdim_s"] > 0


def test_extend_cost_script(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["extend_cost.py", "5", "--repeats", "1"])
    runpy.run_path(str(SCRIPTS / "extend_cost.py"), run_name="__main__")
    line = json.loads(capsys.readouterr().out)
    stages = ["parse_validate_s", "search_s", "payload_s", "render_s"]
    assert list(line) == ["base", *stages, "total_s"] and line["base"] == "2x5"
    assert all(line[key] > 0 for key in [*stages, "total_s"])


def test_analyze_cost_script(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["analyze_cost.py", "4", "3", "--repeats", "1"])
    runpy.run_path(str(SCRIPTS / "analyze_cost.py"), run_name="__main__")
    line = json.loads(capsys.readouterr().out)
    stages = ["parse_validate_s", "linearize_s", "classify_s", "characters_s", "verdict_s", "render_s"]
    assert list(line) == ["group", *stages, "total_s"] and line["group"] == "2x4x3"
    assert all(line[key] > 0 for key in [*stages, "total_s"])


def test_load_cost_script(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["load_cost.py", "4", "--repeats", "1"])
    runpy.run_path(str(SCRIPTS / "load_cost.py"), run_name="__main__")
    line = json.loads(capsys.readouterr().out)
    stages = ["json_loads_s", "ring_s", "coefficients_s", "ring_validation_s", "premodular_validation_s",
              "analysis_s", "render_s"]
    assert list(line) == ["rank", "bytes", *stages, "total_s", "gc_collections"] and line["rank"] == 8
    assert line["bytes"] > 0 and all(line[key] > 0 for key in ["json_loads_s", "ring_s", "total_s"])
    assert len(line["gc_collections"]) == 3 and all(c >= 0 for c in line["gc_collections"])


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
    # the traced spans without any error
    cli = importlib.import_module("premodular.cli")
    names = [name for module, name, _ in _tracer_patches() if module == "premodular.cli"]
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    assert cli.cli_run(["analyze", write_datum("z4-q:1", "z4.json"), "--format", "json"])[0] == 0
    assert cli.cli_run(["extend", write_datum("svec", "svec.json"), "--format", "json"])[0] == 0
    assert all(calls.values()), calls
