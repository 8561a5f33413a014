#!/usr/bin/env python3
"""Print, as one JSON line, where one CLI run or one ring validation
spends its time, in process, stage by stage.

    analyze ORDER...  `analyze --format json` on the group, which reads its
                      form: classify_form, form_characters, form_verdict
    extend ORDER...   `extend --format json --max-order M` on the group,
                      M = max(64, 4 * the product of the orders)
    load ORDER...     `analyze --format json` on the group's linearization
                      with s, and the cyclic collections of each generation
                      during one more run
    ring RANK         validate_fusion_ring on the group ring of Z2 x Z(RANK/2)
                      and the tracemalloc peak of one such call; the
                      associativity test's generating set S, its size, the
                      join over the rows of S and over every row, and fpdim,
                      on the same ring: a group ring takes the table route
                      (FusionRing.table), gathers from its product table
    su2 K             the same on the ring of SU(2)_K, rank K + 1, not pointed:
                      the entry route, the join over the nonzero entries

The group is the fermion line q = x^2/2 beside one nondegenerate block per
ORDER n, q = y^2/(2n) (n even) or y^2/n (n odd): a survey benchmark item and,
with one ORDER, an extend or premodular-load one.  Its order, twice the
product of the ORDERs, may be at most MAX_RANK for analyze (whose cap is the
linearization's) and load (which linearizes it) and SIZE_CAP for extend, and
RANK and K + 1 at most MAX_RANK; a larger one is a usage error, before anything
is built.  Each stage is timed on its own, the later ones on the output of one
earlier run, and total_s is the whole `cli_run`; each time is the best of
--repeats calls (20, 3 for ring and su2).  load's and ring's stages that
read the ring run each call on a fresh copy of it, with no product table
and, for load, no residues or fusion channels kept from an earlier call, so
that their one-time set-up counts as it does in every CLI item.  analyze's
and extend's layout_check_s is the match of the group's file against the
json.dumps layout that the loader reads from its text, and text_route_s that
whole route, the match included, which builds the group that
parse_validate_s reads and validates.  analyze's classify_s runs on a new
copy of the loaded group each call, one that carries the coordinate and
pairing tables that parse+validate built but not the radical, which the
group keeps once computed and the CLI reads off the pairings in that stage.

load's layout_check_s is the match of the file against the json.dumps layout
that the loader reads from its text, and text_route_s that whole route, the
match included, which gives the datum that analyze goes on with; json_loads_s,
ring_s and coefficients_s time the json.loads route that reads any other file.
coefficients_s is premodular_from_json less ring_s, and load's
premodular_validation_s validate_premodular less ring_validation_s.  That
splits in two: residues_s evaluates dims, twists and s modulo the first split
prime of the datum's conductor (the one prime a linearized group needs), and
residue_checks_s is the rest, the unit and duality checks and the checks on
residues.  Of those, twist_check_s is the check that every twist is a root
of unity, on a datum with no residues kept, and synthesis_s gives the
residues of s modulo that prime from the balancing formula on the same
datum without s (dims and twists evaluated too), as validation does when a
file has none; validation_without_s_s is validate_premodular on that
datum (ring validation included), whose s stage is that synthesis and the
conjugation check.  The parse stages run with the cyclic collector paused, as
loads_datum runs them.  ring's and su2's restricted_join_s is the join that
decides associativity, over the rows of S; full_join_s is the join over every
row, which writes the witnesses of a ring that fails it.  fpdim_s may use
several BLAS threads (OPENBLAS_NUM_THREADS=1 keeps one).
numpy reports its buffers to tracemalloc, so validate_peak_mb counts them.

    PYTHONPATH=src python3 scripts/stage_cost.py analyze 4 8
    for n in 2 5 9 16; do PYTHONPATH=src python3 scripts/stage_cost.py extend $n; done
    for n in 4 8 16 32; do PYTHONPATH=src python3 scripts/stage_cost.py load $n; done
    for r in 64 128 256; do PYTHONPATH=src python3 scripts/stage_cost.py ring $r; done
    for k in 20 40 63; do PYTHONPATH=src python3 scripts/stage_cost.py su2 $k; done
"""

import argparse
import contextlib
import copy
import gc
import json
import math
import pathlib
import tempfile
import time
import tracemalloc
from fractions import Fraction

import numpy as np

from premodular import cli
from premodular.components import form_characters, ring_characters
from premodular.cyclotomic import residues, split_primes
from premodular.data import PremodularData, _not_roots_of_unity, classify_degeneracy, validate_premodular
from premodular.data import _residues as kept_residues
from premodular.fusion_ring import (
    MAX_RANK, FusionRing, _associativity_witnesses, _generators, fpdim, group_ring, validate_fusion_ring)
from premodular.klein import extension_verdict, form_verdict
from premodular.metric_groups import (
    SIZE_CAP, classify_form, enumerate_pointed_extensions, from_gram, to_premodular)
from premodular.serialize import (
    _DOC, _METRIC_GROUP_DOC, _metric_group_text, _premodular_text, collector_paused, datum_to_json, load_datum,
    metric_group_to_json, premodular_from_json, ring_from_json)


def _best(repeats: int, fn, *args) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _group(orders: tuple[int, ...]):
    return from_gram([2, *orders], [Fraction(1, 2)] + [Fraction(1 if n % 2 == 0 else 2, 2 * n) for n in orders])


def _label(orders: tuple[int, ...]) -> str:
    return "x".join(map(str, [2, *orders]))


@contextlib.contextmanager
def _written(text: str):
    """The path of a temporary file that holds text."""
    with tempfile.TemporaryDirectory() as tmp:
        (path := pathlib.Path(tmp, "datum.json")).write_text(text, encoding="utf-8")
        yield str(path)


def _classify_copy(mg):
    fresh = copy.copy(mg)
    del fresh._radical
    return classify_form(fresh)


def _text_route(repeats: int, text: str) -> dict:
    """The match of a metric-group file against the json.dumps layout, and
    the whole text route, which reads the file the CLI goes on with."""
    return {"layout_check_s": _best(repeats, _METRIC_GROUP_DOC.fullmatch, text),
            "text_route_s": _best(repeats, collector_paused, _metric_group_text, text)}


def analyze(repeats: int, *orders: int) -> dict:
    text = json.dumps(metric_group_to_json(_group(orders)))
    with _written(text) as path:
        mg = load_datum(path)
        cls = classify_form(mg)
        payload, _, _ = cli.run_analysis(path)
        return {
            "group": _label(orders),
            **_text_route(repeats, text),
            "parse_validate_s": _best(repeats, load_datum, path),
            "classify_s": _best(repeats, _classify_copy, mg),
            "characters_s": _best(repeats, form_characters, mg, cls, 0),
            "verdict_s": _best(repeats, form_verdict, mg, cls),
            "render_s": _best(repeats, cli._emit_json, payload),
            "total_s": _best(repeats, cli.cli_run, ["analyze", path, "--format", "json"]),
        }


def extend(repeats: int, *orders: int) -> dict:
    max_order = max(64, 4 * math.prod(orders))
    text = json.dumps(metric_group_to_json(_group(orders)))
    with _written(text) as path:
        mg = load_datum(path)
        results = enumerate_pointed_extensions(mg, max_order=max_order)
        payload, _ = cli._extension_report(path, results)
        return {
            "base": _label(orders),
            **_text_route(repeats, text),
            "parse_validate_s": _best(repeats, load_datum, path),
            "search_s": _best(repeats, enumerate_pointed_extensions, mg, max_order),
            "payload_s": _best(repeats, cli._extension_report, path, results),
            "render_s": _best(repeats, cli._emit_json, payload),
            "total_s": _best(repeats, cli.cli_run, ["extend", path, "--format", "json", "--max-order", str(max_order)]),
        }


def _analysis(data):
    cls = classify_degeneracy(data)
    return ring_characters(data, cls, 0), extension_verdict(data, cls)


def _fresh(ring: FusionRing) -> FusionRing:
    """A copy of ring without its product table, which the first call
    that needs it derives, as it does once for each ring the CLI reads."""
    fresh = copy.copy(ring)
    fresh.__dict__.pop("table", None)
    return fresh


def _afresh(fn, ring: FusionRing, *args):
    return fn(_fresh(ring), *args)


def _validate_afresh(data):
    return validate_premodular(PremodularData(_fresh(data.ring), data.dims, data.twists, data.s))


def _twist_check(data):
    return _not_roots_of_unity(PremodularData(data.ring, data.dims, data.twists, data.s))


def _first_prime(data):
    return split_primes(data.dims.M, 1, 1)[0]


def _residues(data):
    p = _first_prime(data)
    return [residues(x.num, x.M, p) for x in (data.dims, data.twists, data.s)]


def _synthesis(data):
    return kept_residues(PremodularData(_fresh(data.ring), data.dims, data.twists), "s", _first_prime(data))


def _validate_without_s(data):
    return validate_premodular(PremodularData(_fresh(data.ring), data.dims, data.twists))


def load(repeats: int, *orders: int) -> dict:
    text = json.dumps(datum_to_json(to_premodular(_group(orders))))
    obj = json.loads(text)
    data = premodular_from_json(obj)
    with _written(text) as path:
        argv = ["analyze", path, "--format", "json"]
        payload, _, _ = cli.run_analysis(path)
        ring = _best(repeats, collector_paused, ring_from_json, obj)
        ring_validation = _best(repeats, _afresh, validate_fusion_ring, data.ring)
        validation = _best(repeats, _validate_afresh, data) - ring_validation
        evaluation = _best(repeats, _residues, data)
        line = {
            "rank": 2 * math.prod(orders),
            "bytes": len(text),
            "layout_check_s": _best(repeats, _DOC.fullmatch, text),
            "text_route_s": _best(repeats, collector_paused, _premodular_text, text),
            "json_loads_s": _best(repeats, collector_paused, json.loads, text),
            "ring_s": ring,
            "coefficients_s": _best(repeats, collector_paused, premodular_from_json, obj) - ring,
            "ring_validation_s": ring_validation,
            "premodular_validation_s": validation,
            "residues_s": evaluation,
            "residue_checks_s": validation - evaluation,
            "twist_check_s": _best(repeats, _twist_check, data),
            "synthesis_s": _best(repeats, _synthesis, data),
            "validation_without_s_s": _best(repeats, _validate_without_s, data),
            "analysis_s": _best(repeats, _analysis, data),
            "render_s": _best(repeats, cli._emit_json, payload),
            "total_s": _best(repeats, cli.cli_run, argv),
        }
        before = [g["collections"] for g in gc.get_stats()]
        cli.cli_run(argv)
    return {**line, "gc_collections": [g["collections"] - b for g, b in zip(gc.get_stats(), before)]}


def _ring_costs(repeats: int, r: FusionRing) -> dict:
    validate = _best(repeats, _afresh, validate_fusion_ring, r)
    tracemalloc.start()
    report = validate_fusion_ring(_fresh(r))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    if not report.ok:
        raise SystemExit(f"rank {r.rank}: {report}")
    S = _generators(r)
    return {"rank": r.rank, "generators": len(S), "validate_s": validate, "validate_peak_mb": round(peak / 2**20, 2),
            "generators_s": _best(repeats, _afresh, _generators, r),
            "restricted_join_s": _best(repeats, _afresh, _associativity_witnesses, r, 1, S),
            "full_join_s": _best(repeats, _afresh, _associativity_witnesses, r, 10),
            "fpdim_s": _best(repeats, fpdim, r)}


def ring(repeats: int, rank: int) -> dict:
    x, y = np.unravel_index(np.arange(rank), shape := (2, rank // 2))
    add = np.ravel_multi_index((x[:, None] + x, y[:, None] + y), shape, mode="wrap")
    inverse = np.ravel_multi_index((-x, -y), shape, mode="wrap").tolist()
    return _ring_costs(repeats, group_ring([str(k) for k in range(rank)], add, 0, inverse))


def su2(repeats: int, k: int) -> dict:
    """N^l_{i,j} = 1 for |i - j| <= l <= min(i + j, 2k - i - j), i + j + l even."""
    fusion = [[i, j, l, 1] for i in range(k + 1) for j in range(k + 1)
              for l in range(abs(i - j), min(i + j, 2 * k - i - j) + 1, 2)]
    return _ring_costs(repeats, FusionRing([str(j) for j in range(k + 1)], 0, fusion, list(range(k + 1))))


# mode: (measure, default repeats, cap on the group's order or the ring's rank)
MODES = {"analyze": (analyze, 20, MAX_RANK), "extend": (extend, 20, SIZE_CAP), "load": (load, 20, MAX_RANK),
         "ring": (ring, 3, MAX_RANK), "su2": (su2, 3, MAX_RANK)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("n", type=int, nargs="+", metavar="N",
                        help="ORDER..., each at least 2, one even RANK or one level K")
    parser.add_argument("--repeats", type=int, help="calls per stage, at least 1 (default 20, 3 for ring and su2)")
    args = parser.parse_args()
    measure, repeats, cap = MODES[args.mode]
    one = args.mode in ("ring", "su2")
    if min(args.n) < 2 or one and len(args.n) != 1 or args.mode == "ring" and args.n[0] % 2:
        parser.error("each ORDER must be at least 2, ring takes one even RANK and su2 one K, at least 2")
    if (order := {"ring": args.n[0], "su2": args.n[0] + 1}.get(args.mode, 2 * math.prod(args.n))) > cap:
        parser.error(f"the {'ring would have rank' if one else 'group would have order'} {order}, "
                     f"above {args.mode}'s cap {cap}")
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")
    line = measure(args.repeats or repeats, *args.n)
    print(json.dumps({key: round(v, 6) if key.endswith("_s") else v for key, v in line.items()}))


if __name__ == "__main__":
    main()
