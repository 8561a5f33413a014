#!/usr/bin/env python3
"""Print, as one JSON line, where one `analyze --format json` run on a
premodular file spends its time, in process: decoding the JSON, reading
the fusion ring, reading and lifting the coefficients, validating the
ring, validating the premodular data, the analysis and rendering.

The file is the linearization of Z2 x Zn, the fermion line q = x^2/2
beside q = y^2/(2n) (n even) or y^2/n (n odd), with s supplied: a file
of rank 2n like the premodular-load benchmark's.  Each stage is timed on
its own, the later ones on the output of one earlier run, and total_s is
the whole `cli_run`; each time is the best of --repeats calls.  Two
stages contain another, and report the difference of the two best
times: coefficients_s is premodular_from_json less ring_s, and
premodular_validation_s is validate_premodular less ring_validation_s.
gc_collections counts the cyclic collections of each generation during
one more `cli_run`.

    for n in 4 8 16 32; do PYTHONPATH=src python3 scripts/load_cost.py $n; done
"""

import argparse
import gc
import json
import os
import tempfile
import time
from fractions import Fraction

from premodular import cli
from premodular.components import ring_characters
from premodular.data import classify_degeneracy, validate_premodular
from premodular.fusion_ring import validate_fusion_ring
from premodular.klein import extension_verdict
from premodular.metric_groups import from_gram, to_premodular
from premodular.serialize import datum_to_json, premodular_from_json, ring_from_json


def _best(repeats: int, fn, *args) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _analysis(data):
    cls = classify_degeneracy(data)
    return ring_characters(data, cls, 0), extension_verdict(data, cls)


def measure(n: int, repeats: int) -> dict:
    base = from_gram([2, n], [Fraction(1, 2), Fraction(1 if n % 2 == 0 else 2, 2 * n)])
    text = json.dumps(datum_to_json(to_premodular(base)))
    obj = json.loads(text)
    data = premodular_from_json(obj)
    argv = ["analyze", "", "--format", "json"]
    with tempfile.TemporaryDirectory() as tmp:
        argv[1] = path = os.path.join(tmp, "linearized.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        payload, _, _ = cli.run_analysis(path)
        ring = _best(repeats, ring_from_json, obj)
        ring_validation = _best(repeats, validate_fusion_ring, data.ring)
        times = {
            "json_loads_s": _best(repeats, json.loads, text),
            "ring_s": ring,
            "coefficients_s": _best(repeats, premodular_from_json, obj) - ring,
            "ring_validation_s": ring_validation,
            "premodular_validation_s": _best(repeats, validate_premodular, data) - ring_validation,
            "analysis_s": _best(repeats, _analysis, data),
            "render_s": _best(repeats, cli._emit_json, payload),
            "total_s": _best(repeats, cli.cli_run, argv),
        }
        before = [g["collections"] for g in gc.get_stats()]
        cli.cli_run(argv)
        collections = [g["collections"] - b for g, b in zip(gc.get_stats(), before)]
    return {"rank": 2 * n, "bytes": len(text), **{key: round(t, 6) for key, t in times.items()},
            "gc_collections": collections}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n", type=int, help="the order of the second factor, at least 2")
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args()
    if args.n < 2:
        parser.error("n must be at least 2")
    print(json.dumps(measure(args.n, args.repeats)))


if __name__ == "__main__":
    main()
