#!/usr/bin/env python3
"""Print, as one JSON line, where one `analyze --format json` run on a
slightly degenerate metric group spends its time, in process: reading
and validating the file, the linearization, the classification, the
characters of the transparent subring, the extension verdict and
rendering.

The group is the fermion line q = x^2/2 beside one nondegenerate block
per given order n, q = y^2/(2n) (n even) or y^2/n (n odd): the survey
benchmark's shape of item.  Each stage is timed on its own, the later
ones on the output of one earlier run, and total_s is the whole
`cli_run`; each time is the best of --repeats calls.

    PYTHONPATH=src python3 scripts/analyze_cost.py 32
    PYTHONPATH=src python3 scripts/analyze_cost.py 4 8
    PYTHONPATH=src python3 scripts/analyze_cost.py 3 7
"""

import argparse
import json
import os
import tempfile
import time
from fractions import Fraction

from premodular import cli
from premodular.components import ring_characters
from premodular.data import classify_degeneracy
from premodular.klein import extension_verdict
from premodular.metric_groups import from_gram, to_premodular
from premodular.serialize import load_datum, metric_group_to_json


def _best(repeats: int, fn, *args) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def measure(orders: list[int], repeats: int) -> dict:
    group = from_gram([2, *orders], [Fraction(1, 2)] + [Fraction(1 if n % 2 == 0 else 2, 2 * n) for n in orders])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "group.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(metric_group_to_json(group), fh)
        mg = load_datum(path)
        data = to_premodular(mg)
        cls = classify_degeneracy(data)
        payload, _, _ = cli.run_analysis(path)
        times = {
            "parse_validate_s": _best(repeats, load_datum, path),
            "linearize_s": _best(repeats, to_premodular, mg),
            "classify_s": _best(repeats, classify_degeneracy, data),
            "characters_s": _best(repeats, ring_characters, data, cls, 0),
            "verdict_s": _best(repeats, extension_verdict, data, cls),
            "render_s": _best(repeats, cli._emit_json, payload),
            "total_s": _best(repeats, cli.cli_run, ["analyze", path, "--format", "json"]),
        }
    return {"group": "x".join(map(str, [2, *orders])), **{key: round(t, 6) for key, t in times.items()}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("orders", type=int, nargs="+", metavar="ORDER",
                        help="the order of each nondegenerate block, at least 2")
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args()
    if min(args.orders) < 2:
        parser.error("every order must be at least 2")
    print(json.dumps(measure(args.orders, args.repeats)))


if __name__ == "__main__":
    main()
