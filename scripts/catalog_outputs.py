#!/usr/bin/env python3
"""Print the exit code and stdout of every CLI run over the catalog, as
one JSON document.

Each fixed catalog entry, and each parametric key in PARAMETRIC_KEYS
(extension bases up to the default --max-order 64, two with cross
terms, a fermion line beside a nondegenerate block on each base shape
of the extend benchmark, and two order-32 bases with 8 cosets of 2A),
is written to a file with `catalog show` and then run through every
file subcommand in both formats;
`catalog list` is run in both formats too.  Every metric group among
them is also linearized and written as a premodular file with s
supplied (`<name>-premodular.json`), which is run through every file
subcommand in both formats, and the SHA-256 of that file is recorded,
so the premodular parse path and the linearization's JSON are pinned as
well.  File paths are printed relative to the scratch directory, so two
checkouts compare with one diff:

    PYTHONPATH=src python3 scripts/catalog_outputs.py > outputs.json

Given files, it runs every file subcommand in both formats on those
files instead, with their paths printed relative to the working
directory:

    PYTHONPATH=src python3 scripts/catalog_outputs.py data/*.json > outputs.json
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

from premodular.catalog import catalog_get, catalog_list
from premodular.cli import cli_run
from premodular.metric_groups import MetricGroup, to_premodular
from premodular.serialize import datum_to_json

SUBCOMMANDS = ("validate", "analyze", "kappa", "components", "extend", "gauss")
FORMATS = ("table", "json")
PARAMETRIC_KEYS = (
    "pointed:2x16:1/2,1/32",
    "pointed:2x2x4:1/2,1/4,1/8",
    "pointed:2x3x5:1/2,1/3,2/5",
    "pointed:2x4:0,1/8:1/2",
    "pointed:2x8:1/2,1/16:1/2",
    "pointed:2x2x2:1/2,1/4,3/4",
    "pointed:2x3:1/2,1/3",
    "pointed:2x5:1/2,2/5",
    "pointed:2x7:1/2,1/7",
    "pointed:2x9:1/2,2/9",
    "pointed:2x2x8:1/2,1/4,1/16",
    "pointed:2x4x4:1/2,1/8,3/8",
    "pointed:2x1x4:1/2,0,1/8",
    "pointed:2x3x3:1/2,1/3,2/3",
)


def _run_file(runs, workdir, path):
    """Run every file subcommand in both formats on path; each run's exit
    code, stdout and stderr, with workdir's prefix dropped from paths."""
    name = os.path.relpath(path, workdir)
    for command in SUBCOMMANDS:
        for fmt in FORMATS:
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code, out = cli_run([command, str(path), "--format", fmt])
            runs[f"{command} {name} --format {fmt}"] = (
                code, *(text.replace(f"{workdir}/", "") for text in (out, err.getvalue())))


def _document(runs) -> dict:
    return {key: {"exit": code, "stdout": out} for key, (code, out, *_) in runs.items()}


def catalog_outputs(workdir: pathlib.Path) -> dict:
    runs = {f"catalog list --format {fmt}": cli_run(["catalog", "list", "--format", fmt])
            for fmt in FORMATS}
    for name in [name for name, _, _ in catalog_list()] + list(PARAMETRIC_KEYS):
        code, text = cli_run(["catalog", "show", name])
        runs[f"catalog show {name}"] = (code, text)
        stem = name.replace(":", "_").replace("/", "-")
        path = workdir / f"{stem}.json"
        path.write_text(text)
        _run_file(runs, workdir, path)
        payload = catalog_get(name).payload
        if isinstance(payload, MetricGroup):
            text = json.dumps(datum_to_json(to_premodular(payload)))
            runs[f"linearize {name} sha256"] = (0, hashlib.sha256(text.encode()).hexdigest())
            path = workdir / f"{stem}-premodular.json"
            path.write_text(text)
            _run_file(runs, workdir, path)
    return _document(runs)


def file_outputs(files) -> dict:
    runs = {}
    workdir = pathlib.Path.cwd()
    for file in files:
        _run_file(runs, workdir, workdir / file)
    return _document(runs)


def main():
    if sys.argv[1:]:
        print(json.dumps(file_outputs(sys.argv[1:]), indent=1))
        return
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(catalog_outputs(pathlib.Path(tmp)), indent=1))


if __name__ == "__main__":
    main()
