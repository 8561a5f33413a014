"""The four workloads: seeded items, their expected outputs and checks.

An item is one CLI invocation (argv) and the expectation its output is
checked against.  Items are grouped into rounds.  The timed batch runs
every round, and the number of rounds follows from --seconds and a fixed
nominal cost per round (hostspeed), never from the clock: so every seed
and every run of a workload does the same amount and mix of work, only
with other coefficients.  Warm-up items come from their own seed stream
and never reappear in the timed rounds.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import inputs

NAMES = ("survey", "extend", "premodular-load", "cli-cold")
MIN_ITEMS = 20  # so that item_tail_ms has ten samples beyond it and sits above the median


@dataclass
class Item:
    id: str
    argv: list[str]
    expected: dict
    check: object  # (expected, exit code, stdout) -> bool


@dataclass
class Workload:
    rounds: list[list[Item]]
    warmup: list[Item]
    cold: bool = False  # items run as fresh `premodular` processes


class _Writer:
    def __init__(self, workdir):
        self.workdir = workdir

    def write(self, name, obj) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(obj))
        return path


def _round_count(seconds, round_s, per_round, cap=None) -> int:
    """Rounds for `seconds` of nominal work, at least MIN_ITEMS items."""
    n = max(math.ceil(MIN_ITEMS / per_round), round(seconds / round_s))
    return n if cap is None else min(n, cap)


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


# -- survey ------------------------------------------------------------------------

# Strata of the criterion-2 generator's cost proxy k |A|^2 (validation
# checks bilinearity on k generators over |A|^2 pairs): upper bounds of
# nine strata holding about a tenth of its draws each, the first about a
# fifth.  A round holds one group from each stratum.  Within a stratum the
# rounds cycle through the generator's shapes in a fixed order, and the
# seed draws only coefficients and factor order, so the cost of the batch
# does not depend on the seed.
_SURVEY_STRATA = (512, 2048, 3888, 5000, 5832, 7500, 8192, 9408, math.inf)
_SURVEY_ROUND_S = 0.9  # nominal seconds per round


def _check_survey(expected, code, out):
    if code != 0:
        return False
    rep = json.loads(out)
    return (
        rep["classification"] == "slightly_degenerate"
        and rep["components"]["component_count"] == 2
        and rep["kappa"]["kappa_minus"] == expected["kappa_minus"]
    )


def _survey_item(writer, tag, orders, nums):
    path = writer.write(f"{tag}.json", inputs.metric_group_json(orders, inputs.diagonal_form(orders, nums)))
    expected = {"kappa_minus": _frac(Fraction(inputs.two_torsion(orders), 2))}
    return Item(f"{tag}:{'x'.join(map(str, orders))}", ["analyze", path, "--format", "json"], expected, _check_survey)


def _survey_shapes():
    """Block orders (fermion line aside) that the criterion-2 generator
    can draw, grouped by stratum, each stratum in order of the proxy: one
    to three cyclic blocks from BLOCK_ORDERS, each at most 32 divided by
    the orders drawn before it, so |A| <= 64 with the fermion line."""
    shapes = set()

    def grow(blocks, budget):
        if blocks:
            shapes.add(tuple(sorted(blocks)))
        if len(blocks) < 3:
            for n in inputs.BLOCK_ORDERS:
                if n <= budget:
                    grow(blocks + [n], budget // n)

    grow([], 32)
    strata = [[] for _ in _SURVEY_STRATA]
    for proxy, shape in sorted(((len(s) + 1) * (2 * math.prod(s)) ** 2, s) for s in shapes):
        strata[next(i for i, top in enumerate(_SURVEY_STRATA) if proxy <= top)].append(shape)
    return strata


@functools.lru_cache(maxsize=None)
def _survey_keys(shape):
    """Every (orders, numerators) of this shape plus the fermion line."""
    keys = set()
    for nums in itertools.product(*(inputs.block_coeffs(n) for n in shape)):
        for blocks in itertools.permutations(list(zip(shape, nums)) + [(2, 2)]):
            keys.add((tuple(n for n, _ in blocks), tuple(a for _, a in blocks)))
    return sorted(keys)


def _draw_survey(rng, shapes, start, seen):
    """An unseen group of the first shape from `start` on (cyclically) that
    has one left.  Which shape runs out when depends only on how often it
    was drawn, so the shapes drawn do not depend on the seed."""
    for j in range(len(shapes)):
        keys = [k for k in _survey_keys(shapes[(start + j) % len(shapes)]) if k not in seen]
        if keys:
            key = rng.choice(keys)
            seen.add(key)
            return key
    raise RuntimeError("no unseen group left in a survey stratum")


def build_survey(seed, writer, seconds):
    warm_rng, rng = inputs.stream(seed, "warmup"), inputs.stream(seed, "timed")
    strata = _survey_shapes()
    seen = set()
    # two cheap groups from the first stratum's largest shapes
    warm = [_draw_survey(warm_rng, strata[0], len(strata[0]) - k, seen) for k in (1, 2)]
    warmup = [_survey_item(writer, f"warm{k}", *key) for k, key in enumerate(warm)]
    rounds = []
    for r in range(_round_count(seconds, _SURVEY_ROUND_S, len(strata))):
        keys = [_draw_survey(rng, shapes, r, seen) for shapes in strata]
        rounds.append([_survey_item(writer, f"r{r}i{i}", *key) for i, key in enumerate(keys)])
    return Workload(rounds, warmup)


# -- extend ------------------------------------------------------------------------

# Z2 (svec) has one presentation, so it is the warm-up; Z2xZ2xZ4 (20 s) and
# Z2xZ16 (44 s) are too slow to repeat.  The middle shapes come twice a
# round, so the median item falls inside eight Z2xZ4 bases and the
# eleventh largest inside eight Z2xZ7 bases, not near the edge of a group.
_EXTEND_SHAPES = ((2, 2), (2, 3), (2, 4), (2, 4), (2, 5), (2, 5), (2, 7), (2, 7), (2, 2, 2), (2, 9))
# Z2xZ3 has 4 distinct presentations (2 coefficients x 2 factor orders),
# which caps the rounds that never repeat an item.  All four rounds always
# run, whatever --seconds, so the latency percentiles fall on the same
# shapes in every run.
_EXTEND_MAX_ROUNDS = 4


def _check_extend(expected, code, out):
    if code != 0:
        return False
    rep = json.loads(out)
    exts = rep["extensions"]
    return (
        rep["count"] == 8
        and sorted(e["signature"] for e in exts) == list(range(8))
        and all(math.prod(e["orders"]) == expected["order"] for e in exts)
    )


def _extend_presentations(shape):
    """Distinct q-tables of the fermion line plus nondegenerate blocks on
    this shape, over coefficients, automorphisms and factor orders."""
    out = []
    for perm in sorted(set(itertools.permutations(range(len(shape))))):
        orders = tuple(shape[i] for i in perm)
        choices = [[2] if i == 0 else inputs.block_coeffs(shape[i]) for i in perm]
        out += [(orders, values) for values in inputs.presentations(orders, choices)]
    return sorted(set(out))  # equal factor orders give the same table more than once


def _extend_item(writer, tag, orders, values):
    q = inputs.table_dict(orders, values)
    path = writer.write(f"{tag}.json", inputs.metric_group_json(orders, q))
    expected = {"order": 2 * math.prod(orders)}
    return Item(f"{tag}:{'x'.join(map(str, orders))}", ["extend", path, "--format", "json"], expected, _check_extend)


def build_extend(seed, writer, seconds):
    rng = inputs.stream(seed, "timed")
    warmup = [_extend_item(writer, "warm0", (2,), (Fraction(0), Fraction(1, 2)))]
    tables, picks = {}, []
    for shape in _EXTEND_SHAPES:
        if shape not in tables:
            tables[shape] = _extend_presentations(shape)
            rng.shuffle(tables[shape])
        picks.append([tables[shape].pop() for _ in range(_EXTEND_MAX_ROUNDS)])
    rounds = []
    for r in range(_EXTEND_MAX_ROUNDS):
        row = [_extend_item(writer, f"r{r}i{i}", *p[r]) for i, p in enumerate(picks)]
        rng.shuffle(row)
        rounds.append(row)
    return Workload(rounds, warmup)


# -- premodular-load --------------------------------------------------------------

# Nondegenerate blocks beside the fermion line, one fixed structure per
# rank (the seed draws coefficients and factor order), so items of one
# rank cost the same in every run.  The rank-64 item (Z2 x Z4 x Z8,
# conductor 16) carries the r^4 associativity einsum.  A round runs
# ising, 8, 16, 32 x 8, 64 in this fixed order: the einsum arrays are
# large enough that an item's time depends on what ran before it (the
# allocator's state), so the order does not vary with the seed.  The
# median item and the eleventh largest both fall inside the rank-32
# items, not at a gap between sizes.  The eight ising entries allow at
# most eight rounds without repeats.
_LOAD_BLOCKS = ((4,), (8,)) + ((2, 8),) * 8 + ((4, 8),)
_LOAD_ROUND_S = 3.0  # nominal seconds per round
_LOAD_MAX_ROUNDS = 8


def _unseen(draw, seen, tries=10_000):
    for _ in range(tries):
        key = draw()
        if key not in seen:
            seen.add(key)
            return key
    raise RuntimeError("no unseen input left to draw")


def _check_load(expected, code, out):
    return code == 0 and json.loads(out)["classification"] == expected["classification"]


def build_premodular_load(seed, writer, seconds):
    warm_rng, rng = inputs.stream(seed, "warmup"), inputs.stream(seed, "timed")
    argv = lambda path: ["analyze", path, "--format", "json"]
    slightly = {"classification": "slightly_degenerate"}
    key = inputs.fixed_blocks(warm_rng, (2, 2))  # Z4 + fermion has only 8 presentations, all timed
    seen = {key}
    path = writer.write("warm0.json", inputs.linearized_json(key[0], inputs.diagonal_form(*key)))
    warmup = [Item("warm0:rank8", argv(path), slightly, _check_load)]
    nus = list(range(1, 16, 2))
    rng.shuffle(nus)
    rounds = []
    for r in range(_round_count(seconds, _LOAD_ROUND_S, 1 + len(_LOAD_BLOCKS), _LOAD_MAX_ROUNDS)):
        path = writer.write(f"r{r}ising{nus[r]}.json", inputs.ising_json(nus[r]))
        row = [Item(f"r{r}:ising{nus[r]}", argv(path), {"classification": "nondegenerate"}, _check_load)]
        for i, blocks in enumerate(_LOAD_BLOCKS):
            key = _unseen(lambda: inputs.fixed_blocks(rng, blocks), seen)
            path = writer.write(f"r{r}i{i}.json", inputs.linearized_json(key[0], inputs.diagonal_form(*key)))
            row.append(Item(f"r{r}i{i}:rank{math.prod(key[0])}", argv(path), slightly, _check_load))
        rounds.append(row)
    return Workload(rounds, warmup)


# -- cli-cold ----------------------------------------------------------------------

_COLD_PASS_S = 8.5  # nominal seconds per pass over the catalog (51 processes)


def _check_cold(expected, code, out):
    return code == 0 and code == expected["code"] and out == expected["stdout"]


def build_cli_cold(seed, writer, seconds, cli_run):
    """Cold-process mix, in whole passes over the catalog; expected stdout
    comes from the in-process cli_run on the same argv.  Every pass writes
    its own copies of the inputs, so only `catalog list`, which reads no
    file, repeats."""
    rng = inputs.stream(seed, "timed")
    _, listing = cli_run(["catalog", "list", "--format", "json"])
    entries = json.loads(listing)
    shown = {e["name"]: json.loads(cli_run(["catalog", "show", e["name"]])[1]) for e in entries}

    def item(tag, argv):
        code, out = cli_run(argv)
        return Item(tag, argv, {"code": code, "stdout": out}, _check_cold)

    warm = inputs.fixed_blocks(inputs.stream(seed, "warmup"), (4,))  # one small shape, so the set-up cost does not depend on the seed
    path = writer.write("warm0.json", inputs.metric_group_json(warm[0], inputs.diagonal_form(*warm)))
    warmup = [item("warm0:validate", ["validate", path])]
    pool = []
    for p in range(max(1, round(seconds / _COLD_PASS_S))):
        jobs = [("catalog", None)]
        for e in entries:
            jobs += [("analyze", e["name"]), ("validate", e["name"])]
            if e["kind"] == "metric_group":
                jobs.append(("gauss", e["name"]))
        jobs.append(("extend", "svec"))
        rng.shuffle(jobs)
        for cmd, name in jobs:
            if cmd == "catalog":
                pool.append(item(f"p{p}:catalog-list", ["catalog", "list"]))
                continue
            path = writer.write(f"p{p}-{name.replace(':', '_')}-{cmd}.json", shown[name])
            pool.append(item(f"p{p}:{cmd}:{name}", [cmd, path]))
    return Workload([[it] for it in pool], warmup, cold=True)


def build(name, seed, workdir, seconds, cli_run):
    writer = _Writer(workdir)
    if name == "survey":
        return build_survey(seed, writer, seconds)
    if name == "extend":
        return build_extend(seed, writer, seconds)
    if name == "premodular-load":
        return build_premodular_load(seed, writer, seconds)
    return build_cli_cold(seed, writer, seconds, cli_run)
