#!/usr/bin/env python3
"""Print, as one JSON line, where one `extend --format json` run on the
base Z2 x Zn spends its time, in process: reading and validating the
file, the extension search, building the JSON payload and rendering it.

The base is the fermion line q = x^2/2 beside the nondegenerate block
q = y^2/(2n) (n even) or y^2/n (n odd).  Each stage is timed on its own,
the later ones on the output of one earlier run, and total_s is the
whole `cli_run`; each time is the best of --repeats calls.

    for n in 2 5 9 16; do PYTHONPATH=src python3 scripts/extend_cost.py $n; done
"""

import argparse
import json
import os
import tempfile
import time
from fractions import Fraction

from premodular import cli
from premodular.metric_groups import enumerate_pointed_extensions, from_gram
from premodular.serialize import load_datum, metric_group_to_json


def _best(repeats: int, fn, *args) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def measure(n: int, repeats: int) -> dict:
    base = from_gram([2, n], [Fraction(1, 2), Fraction(1 if n % 2 == 0 else 2, 2 * n)])
    max_order = max(64, 4 * n)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "base.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(metric_group_to_json(base), fh)
        mg = load_datum(path)
        results = enumerate_pointed_extensions(mg, max_order=max_order)
        payload, _ = cli._extension_report(path, results)
        times = {
            "parse_validate_s": _best(repeats, load_datum, path),
            "search_s": _best(repeats, enumerate_pointed_extensions, mg, max_order),
            "payload_s": _best(repeats, cli._extension_report, path, results),
            "render_s": _best(repeats, cli._emit_json, payload),
            "total_s": _best(repeats, cli.cli_run, ["extend", path, "--format", "json", "--max-order", str(max_order)]),
        }
    return {"base": f"2x{n}", **{key: round(t, 6) for key, t in times.items()}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n", type=int, help="the order of the nondegenerate factor, at least 2")
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args()
    if args.n < 2:
        parser.error("n must be at least 2")
    print(json.dumps(measure(args.n, args.repeats)))


if __name__ == "__main__":
    main()
