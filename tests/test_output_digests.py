"""Output identity on metric-group inputs, pinned by digest.

tests/data/metric_group_digests.json maps every file subcommand, in both
formats, on each input below to the sha256 of json.dumps([exit code,
stdout, stderr]) of its run, keyed as scripts/catalog_outputs.py keys
its runs ("analyze survey-3.json --format json").  The inputs are built
here from seeds, each named for the seed that rebuilds it:
- survey-S: random_slightly_degenerate(random.Random(S), 64);
- form-S: test_metric_groups._random_form(random.Random(S)), a form on
  1-3 factors, order-1 factors among them, of every classification, and
  form-trivial, the trivial group;
- the catalog's metric groups, under their catalog names;
- mutated-S and renamed-S: test_fuzz's _mutated and _renamed of a
  metric-group entry, random.Random(S) choosing the entry and the edit
  from the HOSTILE and HOSTILE_KEYS pools, so that exit-2 paths are
  pinned too.

A change that alters output on purpose regenerates the file in the same
change and names the changed entries:

    PYTHONPATH=src python3 tests/test_output_digests.py > tests/data/metric_group_digests.json
"""

import hashlib
import json
import pathlib
import random
import runpy
import tempfile

from premodular.catalog import catalog_get, catalog_list
from premodular.metric_groups import from_gram, random_slightly_degenerate
from premodular.serialize import metric_group_to_json
from test_fuzz import METRIC_ENTRIES, _mutated, _renamed
from test_metric_groups import _random_form

DIGESTS = pathlib.Path(__file__).parent / "data" / "metric_group_digests.json"
RUN_FILE = runpy.run_path(str(pathlib.Path(__file__).parent.parent / "scripts" / "catalog_outputs.py"))["_run_file"]
SEEDS = {"survey": 40, "form": 60, "mutated": 80, "renamed": 40}


def _text(mg) -> str:
    return json.dumps(metric_group_to_json(mg))


def inputs() -> dict:
    """{name: (the expression that rebuilds the input, its JSON text)}."""
    out = {"form-trivial": ("from_gram([], [])", _text(from_gram([], [])))}
    for s in range(SEEDS["survey"]):
        out[f"survey-{s}"] = (f"random_slightly_degenerate(random.Random({s}), 64)",
                              _text(random_slightly_degenerate(random.Random(s), 64)))
    for s in range(SEEDS["form"]):
        out[f"form-{s}"] = (f"test_metric_groups._random_form(random.Random({s}))",
                            _text(_random_form(random.Random(s))))
    for name, kind, _ in catalog_list():
        if kind == "metric_group":
            out[name.replace(":", "_")] = (f"catalog_get({name!r})", _text(catalog_get(name).payload))
    for edit, fn in (("mutated", _mutated), ("renamed", _renamed)):
        for s in range(SEEDS[edit]):
            rng = random.Random(s)
            out[f"{edit}-{s}"] = (f"test_fuzz.{fn.__name__}(rng.choice(METRIC_ENTRIES), rng.choice) with "
                                  f"rng = random.Random({s})", fn(rng.choice(METRIC_ENTRIES), rng.choice))
    return out


def digests(workdir: pathlib.Path, built: dict) -> dict:
    """The digest of every run on the inputs in built, written to workdir."""
    runs = {}
    for name, (_, text) in built.items():
        path = workdir / f"{name}.json"
        path.write_text(text)
        RUN_FILE(runs, workdir, path)
    return {key: hashlib.sha256(json.dumps(run).encode()).hexdigest() for key, run in runs.items()}


def test_metric_group_outputs_match_their_digests(tmp_path):
    built = inputs()
    new, old = digests(tmp_path, built), json.loads(DIGESTS.read_text())
    changed = [key for key in [*old, *new.keys() - old.keys()] if new.get(key) != old.get(key)]
    if changed:
        name = changed[0].split()[1].removesuffix(".json")
        raise AssertionError(
            f"{len(changed)} runs differ from {DIGESTS.name}, first `{changed[0]}`, whose input is "
            f"{built[name][0] if name in built else 'no longer built'}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(digests(pathlib.Path(tmp), inputs()), indent=1))
