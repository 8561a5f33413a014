#!/usr/bin/env python3
"""Print the exit code and stdout of every CLI run over the catalog, as
one JSON document.

Each fixed catalog entry, and each parametric key in PARAMETRIC_KEYS
(extension bases up to the default --max-order 64, two with cross
terms), is written to a file with `catalog show` and then run through
every file subcommand in both formats; `catalog list` is run in both
formats too.  File paths are printed relative to the
scratch directory, so two checkouts compare with one diff:

    PYTHONPATH=src python3 scripts/catalog_outputs.py > outputs.json
"""

import json
import pathlib
import tempfile

from premodular.catalog import catalog_list
from premodular.cli import cli_run

SUBCOMMANDS = ("validate", "analyze", "kappa", "components", "extend", "gauss")
FORMATS = ("table", "json")
PARAMETRIC_KEYS = (
    "pointed:2x16:1/2,1/32",
    "pointed:2x2x4:1/2,1/4,1/8",
    "pointed:2x3x5:1/2,1/3,2/5",
    "pointed:2x4:0,1/8:1/2",
    "pointed:2x8:1/2,1/16:1/2",
)


def catalog_outputs(workdir: pathlib.Path) -> dict:
    runs = {f"catalog list --format {fmt}": cli_run(["catalog", "list", "--format", fmt])
            for fmt in FORMATS}
    for name in [name for name, _, _ in catalog_list()] + list(PARAMETRIC_KEYS):
        code, text = cli_run(["catalog", "show", name])
        runs[f"catalog show {name}"] = (code, text)
        path = workdir / f"{name.replace(':', '_').replace('/', '-')}.json"
        path.write_text(text)
        for command in SUBCOMMANDS:
            for fmt in FORMATS:
                code, out = cli_run([command, str(path), "--format", fmt])
                runs[f"{command} {path.name} --format {fmt}"] = (
                    code, out.replace(f"{workdir}/", ""))
    return {key: {"exit": code, "stdout": out} for key, (code, out) in runs.items()}


def main():
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(catalog_outputs(pathlib.Path(tmp)), indent=1))


if __name__ == "__main__":
    main()
