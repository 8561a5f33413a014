"""Output identity on metric-group and premodular inputs, pinned by digest.

tests/data/metric_group_digests.json, tests/data/premodular_digests.json
and tests/data/nonpointed_digests.json map every file subcommand, in both
formats, on each input of their corpus to the sha256 of json.dumps([exit code, stdout, stderr]) of its
run, keyed as scripts/catalog_outputs.py keys its runs ("analyze
survey-3.json --format json").  The inputs are built here from seeds,
each named for the seed that rebuilds it.

The metric-group corpus:
- survey-S: random_slightly_degenerate(random.Random(S), 64);
- form-S: test_metric_groups._random_form(random.Random(S)), a form on
  1-3 factors, order-1 factors among them, of every classification, and
  form-trivial, the trivial group;
- the catalog's metric groups, under their catalog names;
- mutated-S and renamed-S: test_fuzz's _mutated and _renamed of a
  metric-group entry, random.Random(S) choosing the entry and the edit
  from the HOSTILE and HOSTILE_KEYS pools, so that exit-2 paths are
  pinned too;
- presented-<shape>-S: _presented(random.Random(S), shape), a diagonal
  slightly degenerate form on each base shape of the extend benchmark
  composed with a random automorphism of A, so that extend's classes and
  signatures are pinned on presentations that are not diagonal.

The premodular corpus:
- linear-S: to_premodular(random_slightly_degenerate(random.Random(S), 32))
  with s, and linear-S-nos the same file without s, whose residues
  validation reads off the balancing formula, inverting the twists by
  conjugation;
- z2-S: the group ring of Z2 with dims 1, no s and a twist theta
  (_z2_theta), nearly always not a root of unity and some over a
  coefficient denominator other than 1, refused with a twist violation
  before s is reached; z2-two and z2-sqrt2, with theta = 2 and theta =
  sqrt 2, refused the same way; and z2-i and z2-zeta8, whose s comes
  from conj(theta): theta = i validates, and theta = zeta8 fails the
  conjugation of s, since theta^4 != 1;
- ising-1-S and ising-7-S: test_fuzz's _mutated of the entries ising:1
  and ising:7, random.Random(S) choosing the edit;
- theta-8190 and theta-8191: rank 1 with the unit's twist at the largest
  conductors, refused with a unit-twist violation;
- z2k-8190-R for R = 8, 16 and 32: the group ring of Z2^k of rank R, a
  xor b on labels a, b, with dims 1, no s and theta_a = e^(2 pi i (7a^2
  + a)/8190), refused with an s-conjugation violation at the largest
  conductor.

The non-pointed corpus, oracles.su2_corpus built from closed formulas:
su2-k, SU(2)_k, and su2-k-svec and su2-k-repz2, its Deligne products
with sVec and Rep(Z2), for k in oracles.SU2_LEVELS, without s.

A change that alters output on purpose regenerates the file in the same
change and names the changed entries:

    PYTHONPATH=src python3 tests/test_output_digests.py metric > tests/data/metric_group_digests.json
    PYTHONPATH=src python3 tests/test_output_digests.py premodular > tests/data/premodular_digests.json
    PYTHONPATH=src python3 tests/test_output_digests.py nonpointed > tests/data/nonpointed_digests.json
"""

import hashlib
import itertools
import json
import math
import pathlib
import random
import runpy
import sys
import tempfile
from fractions import Fraction

from oracles import random_slightly_degenerate, su2_corpus
from premodular.catalog import catalog_get, catalog_list
from premodular.cyclotomic import ONE, CycNum, euler_phi, from_rational, make_root
from premodular.metric_groups import from_gram, to_premodular
from premodular.serialize import datum_to_json, metric_group_to_json
from test_fuzz import METRIC_ENTRIES, _mutated, _renamed
from test_metric_groups import _random_form

DATA = pathlib.Path(__file__).parent / "data"
RUN_FILE = runpy.run_path(str(pathlib.Path(__file__).parent.parent / "scripts" / "catalog_outputs.py"))["_run_file"]
SEEDS = {"survey": 40, "form": 60, "mutated": 80, "renamed": 40, "presented": 4,
         "linear": 10, "z2": 24, "ising": 80}
# the base shapes of the extend benchmark: the fermion line's Z2 first
PRESENTED_SHAPES = ((2, 2), (2, 3), (2, 4), (2, 5), (2, 7), (2, 2, 2), (2, 9))


def _text(mg) -> str:
    return json.dumps(metric_group_to_json(mg))


def _presented(rng, shape) -> str:
    """The document of q o phi: q the fermion line x^2/2 on Z2 beside a
    nondegenerate block a x^2/(2n) on each other factor Z_n of shape,
    factor order shuffled, and phi a random automorphism of A, drawn as
    generator images of the right orders until they generate A."""
    blocks = [(2, 2)] + [(n, rng.choice([a for a in range(1 + n % 2, 2 * n, 2) if math.gcd(a, n) == 1]))
                         for n in shape[1:]]
    rng.shuffle(blocks)
    orders = [n for n, _ in blocks]
    elements = list(itertools.product(*map(range, orders)))
    while True:
        images = [rng.choice([y for y in elements if all(n * c % m == 0 for c, m in zip(y, orders))])
                  for n in orders]
        phi = [tuple(sum(c * y[j] for c, y in zip(x, images)) % m for j, m in enumerate(orders)) for x in elements]
        if len(set(phi)) == len(elements):
            break
    q = [sum(Fraction(a * c * c, 2 * n) for (n, a), c in zip(blocks, y)) % 1 for y in phi]
    return json.dumps({"type": "metric_group", "orders": orders,
                       "q": {"(" + ",".join(map(str, x)) + ")": f"{v.numerator}/{v.denominator}"
                             for x, v in zip(elements, q)}})


def metric_inputs() -> dict:
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
    for shape in PRESENTED_SHAPES:
        for s in range(SEEDS["presented"]):
            out[f"presented-{'x'.join(map(str, shape))}-{s}"] = (f"_presented(random.Random({s}), {shape})",
                                                                  _presented(random.Random(s), shape))
    return out


def _z2_theta(rng):
    """A nonzero twist at a conductor from a fixed set, with coefficients
    of at most 3 over a denominator from 1..4, made real (theta +
    conj(theta)) for every other draw so that s passes its conjugation
    check as often as it fails it."""
    n = rng.choice((1, 3, 4, 5, 8, 12, 16))
    while True:
        den = rng.choice((1, 1, 2, 3, 4))
        theta = CycNum(n, [Fraction(rng.randint(-3, 3), den) for _ in range(euler_phi(n))])
        if rng.random() < 0.5:
            theta = theta + theta.conj()
        if not theta.is_zero() and not theta.is_one():
            return theta


def premodular_inputs() -> dict:
    """{name: (the expression that rebuilds the input, its JSON text)}."""
    out = {}
    for s in range(SEEDS["linear"]):
        doc = datum_to_json(to_premodular(random_slightly_degenerate(random.Random(s), 32)))
        rebuild = f"datum_to_json(to_premodular(random_slightly_degenerate(random.Random({s}), 32)))"
        out[f"linear-{s}"] = (rebuild, json.dumps(doc))
        del doc["s"]
        out[f"linear-{s}-nos"] = (rebuild + ' without "s"', json.dumps(doc))
    ring = {"labels": ["1", "g"], "unit": 0, "dual": [0, 1],
            "fusion": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]]}
    twists = {"z2-two": ("from_rational(2)", from_rational(2)),
              "z2-sqrt2": ("make_root(1, 8) + make_root(-1, 8)", make_root(1, 8) + make_root(-1, 8)),
              "z2-i": ("make_root(1, 4)", make_root(1, 4)), "z2-zeta8": ("make_root(1, 8)", make_root(1, 8))}
    for s in range(SEEDS["z2"]):
        twists[f"z2-{s}"] = (f"_z2_theta(random.Random({s}))", _z2_theta(random.Random(s)))
    for name, (rebuild, theta) in twists.items():
        doc = {"type": "premodular", **ring, "dims": [ONE.to_json()] * 2, "twists": [ONE.to_json(), theta.to_json()]}
        out[name] = (f"the Z2 group ring with twist {rebuild}", json.dumps(doc))
    for name in ("ising:1", "ising:7"):
        for s in range(SEEDS["ising"]):
            rng = random.Random(s)
            out[f"{name.replace(':', '-')}-{s}"] = (f"test_fuzz._mutated({name!r}, rng.choice) with "
                                                     f"rng = random.Random({s})", _mutated(name, rng.choice))
    for n in (8190, 8191):
        doc = {"type": "premodular", "labels": ["1"], "unit": 0, "dual": [0], "fusion": [[0, 0, 0, 1]],
               "dims": [ONE.to_json()], "theta_exp": [[1, n]]}
        out[f"theta-{n}"] = (f"rank 1 with theta_exp [[1, {n}]]", json.dumps(doc))
    for r in (8, 16, 32):
        doc = {"type": "premodular", "labels": [str(a) for a in range(r)], "unit": 0, "dual": list(range(r)),
               "fusion": [[a, b, a ^ b, 1] for a in range(r) for b in range(r)],
               "dims": [ONE.to_json()] * r, "theta_exp": [[(7 * a * a + a) % 8190, 8190] for a in range(r)]}
        out[f"z2k-8190-{r}"] = (f"the Z2^k group ring of rank {r} with theta_exp [[(7a^2 + a) mod 8190, 8190]] "
                                "for label a", json.dumps(doc))
    return out


def nonpointed_inputs() -> dict:
    """{name: (the expression that rebuilds the input, its JSON text)}."""
    return {name: (f"oracles.su2_corpus()[{name!r}]", json.dumps(datum_to_json(data)))
            for name, data in su2_corpus().items()}


CORPORA = {"metric": (DATA / "metric_group_digests.json", metric_inputs),
           "premodular": (DATA / "premodular_digests.json", premodular_inputs),
           "nonpointed": (DATA / "nonpointed_digests.json", nonpointed_inputs)}


def digests(workdir: pathlib.Path, built: dict) -> dict:
    """The digest of every run on the inputs in built, written to workdir."""
    runs = {}
    for name, (_, text) in built.items():
        path = workdir / f"{name}.json"
        path.write_text(text)
        RUN_FILE(runs, workdir, path)
    return {key: hashlib.sha256(json.dumps(run).encode()).hexdigest() for key, run in runs.items()}


def _check(tmp_path, corpus):
    path, inputs = CORPORA[corpus]
    built = inputs()
    new, old = digests(tmp_path, built), json.loads(path.read_text())
    changed = [key for key in [*old, *new.keys() - old.keys()] if new.get(key) != old.get(key)]
    if changed:
        name = changed[0].split()[1].removesuffix(".json")
        raise AssertionError(
            f"{len(changed)} runs differ from {path.name}, first `{changed[0]}`, whose input is "
            f"{built[name][0] if name in built else 'no longer built'}")


def test_metric_group_outputs_match_their_digests(tmp_path):
    _check(tmp_path, "metric")


def test_premodular_outputs_match_their_digests(tmp_path):
    _check(tmp_path, "premodular")


def test_nonpointed_outputs_match_their_digests(tmp_path):
    _check(tmp_path, "nonpointed")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(digests(pathlib.Path(tmp), CORPORA[sys.argv[1]][1]()), indent=1))
