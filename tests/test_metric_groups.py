import cmath
import functools
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import (direct_sum, fermion, framed_s_entry, isometry_rel_point, radical, random_slightly_degenerate,
                     relative_centralizer, signature_mod8)
from premodular import metric_groups
from premodular.catalog import catalog_get, catalog_list
from premodular.components import form_characters, ring_characters
from premodular.cyclotomic import ONE, magnitude, make_root, narrow, reduce_rows, root_table
from premodular.data import (
    CentreKind,
    PremodularData,
    classify_degeneracy,
    validate_premodular,
)
from premodular.errors import CrossCheckMismatch, GroupsTooLarge, NotSlightlyDegenerate
from premodular.fusion_ring import MAX_RANK, fpdim
from premodular.klein import extension_verdict, form_verdict
from premodular.metric_groups import (
    MAX_CONDUCTOR,
    MetricGroup,
    _extension_candidates,
    classify_form,
    enumerate_pointed_extensions,
    from_gram,
    gauss_sum,
    to_premodular,
    validate_metric_group,
)
from premodular.cli import cli_run
from premodular.serialize import metric_group_from_json, metric_group_to_json
from premodular.validation import ValidationError


def mg(name):
    return catalog_get(name).payload


def test_validate_examples():
    assert validate_metric_group(mg("svec")).ok
    bad = MetricGroup([2], {(0,): Fraction(0), (1,): Fraction(1, 3)})
    rep = validate_metric_group(bad)
    assert "QuadraticLawViolation" in rep.kinds()
    assert validate_metric_group(from_gram([4], [Fraction(1, 8)])).ok


def test_coverage_violation():
    table = {(0,): Fraction(0)}
    with pytest.raises(ValidationError) as exc:
        MetricGroup([2], table)
    assert "CoverageViolation" in exc.value.report.kinds()
    assert exc.value.report.to_json() == oracles.validate_fractions([2], table).to_json()


@pytest.mark.parametrize("orders", [[], [1], [2, 1, 4], [3, 9], [2, 2, 2, 2]])
def test_index_helpers_match_the_mixed_radix_oracle(orders):
    # oracle: itertools.product lists the elements in mixed-radix order
    elements = list(itertools.product(*map(range, orders)))
    coords = metric_groups._coordinates(orders)
    assert coords.dtype == np.int64 and coords.shape == (len(orders), len(elements))
    assert [tuple(col) for col in coords.T.tolist()] == elements
    at = {x: i for i, x in enumerate(elements)}
    rng = np.random.default_rng(len(elements))
    # coordinates in [-3n, 2n + 9], mostly negative or not below n; a leading shape (k, a, b)
    raw = rng.integers(-3, 3, size=(len(orders), 5, 7)) * np.array(orders, dtype=np.int64).reshape(-1, 1, 1)
    raw += rng.integers(0, 10, size=raw.shape)
    index = metric_groups._index(orders, raw)
    assert index.dtype == np.int64 and index.shape == (5, 7)
    expected = [[at[tuple(c % n for c, n in zip(raw[:, i, j].tolist(), orders))] for j in range(7)] for i in range(5)]
    assert index.tolist() == expected
    assert metric_groups._index(orders, coords).tolist() == list(range(len(elements)))


def test_order_one_factors_are_tolerated():
    g = from_gram([1, 2], [Fraction(0), Fraction(1, 2)])
    assert validate_metric_group(g).ok
    # a coefficient on an order-1 factor multiplies only zero coordinates
    assert from_gram([1, 2], [Fraction(1, 10**6), Fraction(1, 2)]) == g
    assert fermion(g) == (0, 1)
    assert radical(g) == [(0, 0), (0, 1)]
    assert len(enumerate_pointed_extensions(g, max_order=8)) == 8


def test_radical_gauss_signature_examples():
    svec = mg("svec")
    assert radical(svec) == [(0,), (1,)]
    assert gauss_sum(svec).is_zero()
    assert signature_mod8(svec) is None

    semion = mg("semion")
    assert radical(semion) == [(0,)]
    assert gauss_sum(semion) == ONE + make_root(1, 4)  # 1 + i
    assert signature_mod8(semion) == 1

    z4 = from_gram([4], [Fraction(1, 8)])
    assert radical(z4) == [(0,)]
    assert gauss_sum(z4) == 2 * make_root(1, 8)
    assert signature_mod8(z4) == 1


def test_fermion_detection():
    assert fermion(mg("svec")) == (1,)
    assert fermion(mg("semion")) is None
    assert fermion(mg("rep-z2")) is None
    assert fermion(mg("svec-x-semion")) == (1, 0)


def test_to_premodular_examples():
    svec = to_premodular(mg("svec"))
    assert [t == ONE for t in svec.twists] == [True, False]
    assert svec.twists[1] == make_root(1, 2)

    semion = to_premodular(mg("semion"))
    assert semion.twists[1] == make_root(1, 4)
    assert framed_s_entry(semion, "(1)", "(1)") == make_root(1, 2)  # -1

    trivial = to_premodular(MetricGroup([1], {(0,): Fraction(0)}))
    assert trivial.ring.rank == 1
    assert validate_premodular(trivial).ok


@pytest.mark.parametrize("name", ["svec", "rep-z2", "semion", "toric", "three-fermion",
                                  "svec-x-semion", "z4-q:7"])
def test_to_premodular_passes_validation(name):
    assert validate_premodular(to_premodular(mg(name))).ok


def test_to_premodular_validates_on_random_groups():
    rng = random.Random(5)
    for _ in range(10):
        g = random_slightly_degenerate(rng, max_order=16)
        assert validate_metric_group(g).ok
        assert validate_premodular(to_premodular(g)).ok


def assert_same_linearization(g):
    data, expected = to_premodular(g), oracles.linearize(g)
    assert data.ring.labels == expected.ring.labels
    assert data.ring.unit_index == expected.ring.unit_index
    assert data.ring.dual == expected.ring.dual
    assert np.array_equal(data.ring.fusion, expected.ring.fusion)
    assert data.dims == expected.dims
    assert data.twists == expected.twists
    assert data.s == expected.s


LINEARIZED_GROUPS = (
    [name for name, _, _ in catalog_list() if isinstance(mg(name), MetricGroup)]
    + ["pointed:2x4:0,1/8:1/2", "pointed:2x8:1/2,1/16:1/2", "pointed:2x3x5:1/2,1/3,2/5"]
)


@pytest.mark.parametrize("name", LINEARIZED_GROUPS)
def test_linearization_matches_oracle_on_catalog_groups(name):
    assert_same_linearization(mg(name))


def test_linearization_matches_oracle_on_random_groups():
    for seed in range(12):
        assert_same_linearization(random_slightly_degenerate(random.Random(seed)))


def test_linearization_matches_oracle_with_cross_terms_and_order_one_factors():
    forms = [
        from_gram([2, 4], [Fraction(1, 2), Fraction(1, 8)], [Fraction(1, 2)]),
        from_gram([4, 4], [Fraction(1, 8), Fraction(3, 8)], [Fraction(1, 4)]),
        from_gram([3, 3], [Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 3)]),
        from_gram([2, 2, 2], [Fraction(0)] * 3, [Fraction(1, 2), Fraction(0), Fraction(1, 2)]),
        from_gram([1, 2], [Fraction(0), Fraction(1, 2)]),
        from_gram([3, 1, 4], [Fraction(1, 3), Fraction(0), Fraction(1, 8)]),
        MetricGroup([1], {(0,): Fraction(0)}),
        MetricGroup([], {(): Fraction(0)}),
    ]
    for g in forms:
        assert validate_metric_group(g).ok
        assert_same_linearization(g)


def assert_form_route_matches_linearization(g, seed=0):
    """The reports read off the form equal those of the linearization:
    classification, characters and verdict, kappa included; returns the
    kind."""
    data, cls = to_premodular(g), classify_form(g)
    assert cls == classify_degeneracy(data)
    assert form_characters(g, cls, seed) == ring_characters(data, cls, seed)
    assert form_verdict(g, cls) == extension_verdict(data, cls)
    return cls.kind


def _random_form(rng):
    """A form on 1-3 cyclic factors of order 1-12, |A| <= 64: q(x) =
    sum a_i x_i^2/(2 n_i) with a_i n_i even, plus sum c_ij x_i x_j /
    gcd(n_i, n_j), which is well defined for every a and c."""
    orders = []
    for _ in range(rng.randint(1, 3)):
        n = rng.choice([1, 2, 2, 3, 4, 4, 5, 6, 8, 9, 12])
        if math.prod(orders) * n <= 64:
            orders.append(n)
    diag = [Fraction(rng.randrange(0, 2 * n, 1 if n % 2 == 0 else 2), 2 * n) for n in orders]
    cross = [Fraction(rng.randrange(math.gcd(n, m)), math.gcd(n, m))
             for i, n in enumerate(orders) for m in orders[i + 1:]]
    return from_gram(orders, diag, cross)


@pytest.mark.parametrize("name", LINEARIZED_GROUPS)
def test_form_route_matches_linearization_on_catalog_groups(name):
    assert_form_route_matches_linearization(mg(name))


def test_form_route_matches_linearization_on_random_slightly_degenerate_groups():
    for seed in range(300):
        g = random_slightly_degenerate(random.Random(seed))
        assert assert_form_route_matches_linearization(g, seed) is CentreKind.SLIGHTLY_DEGENERATE


def test_form_route_matches_linearization_on_seeded_forms():
    rng, kinds, shapes = random.Random(31), [], set()
    for g in [MetricGroup([], {(): Fraction(0)}), *(_random_form(rng) for _ in range(1200))]:
        assert validate_metric_group(g).ok
        kinds.append(assert_form_route_matches_linearization(g, rng.randrange(2**64)))
        shapes.add(tuple(g.cyclic_orders))
    # every classification, and order-1 factors, occur
    assert min(map(kinds.count, CentreKind)) >= 50, {kind: kinds.count(kind) for kind in CentreKind}
    assert sum(1 in orders for orders in shapes) >= 20


def test_form_kappa_checks_the_twist_identity():
    # Z2 x Z4 with q(x) = x_1^2/2 + x_2^2/8, one value off: the generators
    # still pair trivially with e = (1,0) alone, so the table classifies as
    # slightly degenerate, but q(e + (0,2)) != q((0,2)) + 1/2
    g = from_gram([2, 4], [Fraction(1, 2), Fraction(1, 8)])
    Q = g.Q.copy()
    Q[2] = (Q[2] + 1) % g.D
    tampered = MetricGroup._from_array([2, 4], Q, g.D)
    cls = classify_form(tampered)
    assert (cls.kind, cls.transparent) == (CentreKind.SLIGHTLY_DEGENERATE, ["(0,0)", "(1,0)"])
    with pytest.raises(CrossCheckMismatch, match=r"^twist identity fails: theta\(\(1,2\)\) != -theta\(\(0,2\)\)$"):
        form_verdict(tampered, cls)


def test_radical_labels_are_the_element_labels():
    # classify_form names the radical from its coordinates, as element_labels
    # names every element
    for mg in [from_gram([], []), from_gram([1, 2, 1], [0, Fraction(1, 2), 0])] + [
            _random_form(random.Random(s)) for s in range(40)]:
        labels = metric_groups.element_labels(tuple(mg.cyclic_orders))
        assert classify_form(mg).transparent == [labels[i] for i in mg._radical.tolist()]


def test_analyze_builds_no_label_table(tmp_path, monkeypatch):
    # analyze names the one or two radical elements alone: element_labels,
    # all |A| labels, is never called on a slightly degenerate group
    calls = []

    def counted(orders):
        calls.append(orders)
        return labels(orders)

    paths = [tmp_path / f"group-{seed}.json" for seed in range(4)]
    for seed, path in enumerate(paths):
        path.write_text(json.dumps(metric_group_to_json(random_slightly_degenerate(random.Random(seed), 64))))
    labels = metric_groups.element_labels
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "premodular"]:
        if getattr(module, "element_labels", None) is labels:
            monkeypatch.setattr(module, "element_labels", counted)
    assert [cli_run(["analyze", str(path)])[0] for path in paths] == [0] * 4
    assert calls == []


def test_linearized_values_take_one_byte_a_slot():
    # a root of unity at a conductor up to 512, the largest a
    # linearization meets, has power-basis coefficients of at most 127:
    # the largest, 3, is at D = 385; these conductors have the most
    # prime factors, where the reduction by Phi_D grows values most
    conductors = (210, 330, 385, 390, 420, 462, 510, 512)
    assert max(magnitude(oracles.root_table(D)) for D in conductors) <= 127
    data = to_premodular(mg("svec-x-semion"))
    assert {data.dims.num.dtype, data.twists.num.dtype, data.s.num.dtype} == {np.dtype(np.int8)}
    # and so does an s synthesized from them
    fresh = PremodularData(data.ring, data.dims, data.twists)
    assert validate_premodular(fresh).ok and fresh.s is None
    s = oracles.synthesized_s(fresh)
    assert s.num.dtype == np.int8 and s == data.s


def test_root_table_equals_the_reduced_identity():
    # every conductor a linearization meets: rank <= MAX_RANK, so D <= 2 MAX_RANK
    for D in range(1, 2 * MAX_RANK + 1):
        expected = oracles.root_table(D)
        table = root_table(D)
        assert table.dtype == narrow(expected).dtype and np.array_equal(table, expected), D


def test_linearization_uses_no_pairwise_group_calls(monkeypatch):
    # the pairwise Fraction helpers live in the oracles only, and the
    # linearization reads Q and D, never the Fraction table
    assert not any(hasattr(MetricGroup, name) for name in ("add", "scale", "q", "b"))

    def refuse(self):
        raise AssertionError("to_premodular must not build the Fraction table")

    monkeypatch.setattr(MetricGroup, "qtable", property(refuse))
    assert to_premodular(mg("svec-x-semion")).ring.rank == 4


def test_isometry_examples():
    z4_1 = from_gram([4], [Fraction(1, 8)])
    z4_5 = from_gram([4], [Fraction(5, 8)])
    # units square to 1 mod 8 only for k = k', so k=1 and k=5 differ
    assert not isometry_rel_point(z4_1, z4_5, (2,), (2,))
    assert not oracles.brute_isometry_rel_point(z4_1, z4_5, (2,), (2,))

    svec = mg("svec")
    assert isometry_rel_point(svec, svec, (1,), (1,))

    toric, three_f = mg("toric"), mg("three-fermion")
    assert not isometry_rel_point(toric, three_f, (1, 1), (1, 0))

    # package agrees with the exhaustive-bijection oracle on Z4 forms
    z4_3 = from_gram([4], [Fraction(3, 8)])
    for a in (z4_1, z4_3, z4_5):
        for b in (z4_1, z4_3, z4_5):
            assert isometry_rel_point(a, b, (2,), (2,)) == \
                oracles.brute_isometry_rel_point(a, b, (2,), (2,))


def test_isometry_point_free_flag():
    sem, sem_bar = mg("semion"), mg("semion-bar")
    assert not isometry_rel_point(sem, sem_bar)
    assert isometry_rel_point(sem, sem)
    # Z2 x Z3 presented as Z6: same group, same form values
    z6 = from_gram([6], [Fraction(1, 3)])
    z2x3 = from_gram([2, 3], [Fraction(0), Fraction(1, 3)])
    expected = sorted(z6.qtable.values()) == sorted(z2x3.qtable.values())
    assert isometry_rel_point(z6, z2x3) == expected


def test_signature_additivity_on_direct_sums():
    nondeg = ["semion", "semion-bar", "toric", "three-fermion", "z4-q:1", "z4-q:3"]
    for na in nondeg:
        for nb in nondeg:
            a, b = mg(na), mg(nb)
            s = direct_sum(a, b)
            assert validate_metric_group(s).ok
            assert signature_mod8(s) == (signature_mod8(a) + signature_mod8(b)) % 8


def test_enumerate_requires_slight_degeneracy():
    with pytest.raises(NotSlightlyDegenerate):
        enumerate_pointed_extensions(mg("semion"))


def test_enumerate_respects_order_cap():
    with pytest.raises(GroupsTooLarge):
        enumerate_pointed_extensions(mg("svec"), max_order=2)


def test_svec_extensions_match_brute_force_oracle():
    results = enumerate_pointed_extensions(mg("svec"))
    assert len(results) == 8

    oracle_classes = oracles.oracle_pointed_extensions(mg("svec"), (1,))
    assert len(oracle_classes) == 8
    # exact 1-1 matching between package classes and oracle classes
    matched = set()
    for r in results:
        hits = [
            k
            for k, (omg, of) in enumerate(oracle_classes)
            if k not in matched
            and oracles.brute_isometry_rel_point(r.group, omg, r.fermion_image, of)
        ]
        assert len(hits) >= 1, "package class missing from oracle"
        matched.add(hits[0])
    assert len(matched) == 8


def test_svec_extension_structure():
    results = enumerate_pointed_extensions(mg("svec"))
    z4s = [r for r in results if r.group.cyclic_orders == [4]]
    klein4 = [r for r in results if r.group.cyclic_orders == [2, 2]]
    assert len(z4s) == 4 and len(klein4) == 4
    assert sorted(r.group.qtable[(1,)] for r in z4s) == [Fraction(k, 8) for k in (1, 3, 5, 7)]
    multisets = sorted(tuple(sorted(r.group.qtable.values())) for r in klein4)
    h = Fraction(1, 2)
    assert multisets == sorted([
        (0, 0, 0, h),
        (0, Fraction(1, 4), Fraction(1, 4), h),
        (0, h, h, h),
        (0, h, Fraction(3, 4), Fraction(3, 4)),
    ])
    # normalized Gauss sums are exactly the eight eighth roots
    assert sorted(r.signature for r in results) == list(range(8))
    for r in results:
        assert r.gauss == 2 * make_root(r.signature, 8)


@pytest.mark.parametrize("base", [
    mg("svec"),
    mg("svec-x-semion"),
    from_gram([2, 3], [Fraction(1, 2), Fraction(1, 3)]),
    from_gram([2, 4], [Fraction(1, 2), Fraction(1, 8)]),
], ids=["svec", "svec-x-semion", "z2xz3", "z2xz4"])
def test_extension_invariants(base):
    base_pm = to_premodular(base)
    base_total = fpdim(base_pm.ring)[0]
    for r in enumerate_pointed_extensions(base):
        ext = r.group
        # Gauss-sum modulus: |sigma|^2 = |A'| exactly
        sigma = gauss_sum(ext)
        assert sigma * sigma.conj() == ext.order
        data = to_premodular(ext)
        assert classify_degeneracy(data).kind is CentreKind.NONDEGENERATE
        assert abs(fpdim(data.ring)[0] - 2 * base_total) < 1e-9
        # centralizer of the embedded base is exactly {0, fermion image}
        image = set()
        for x in base.elements():
            acc = ext.zero()
            for c, g_img in zip(x, r.embedding):
                acc = oracles.group_add(ext, acc, oracles.group_scale(ext, c, g_img))
            image.add(acc)
        image_labels = {"(" + ",".join(map(str, y)) + ")" for y in image}
        cent = relative_centralizer(data, image_labels)
        zero_lab = "(" + ",".join(map(str, ext.zero())) + ")"
        ferm_lab = "(" + ",".join(map(str, r.fermion_image)) + ")"
        assert cent == {zero_lab, ferm_lab}


def _slightly_degenerate_forms(orders):
    for q in oracles.all_forms_by_gram(orders):
        g = MetricGroup(list(orders), dict(q))
        if fermion(g) is not None:
            yield g


@functools.lru_cache(maxsize=None)
def _seeded_bases():
    """Every slightly degenerate form on [2, 4] and [4, 2] (8 each) and a
    seeded sample of 10 of the 112 on Z2^3 (all of them take over a minute
    in the isometry test), built once for the tests that share them."""
    rng = random.Random(1602)
    bases = [*_slightly_degenerate_forms([2, 4]), *_slightly_degenerate_forms([4, 2])]
    assert len(bases) == 16
    sample = {}
    while len(sample) < 10:
        g = MetricGroup([2, 2, 2], oracles.random_form_by_gram(rng, [2, 2, 2]))
        if fermion(g) is not None:
            sample.setdefault(tuple(sorted(g.qtable.items())), g)
    return (*bases, *sample.values())


def test_equal_signature_candidates_are_isometric_rel_fermion():
    # the torsor argument behind keeping one extension per signature (per
    # phase, the signature less the first candidate's), checked against
    # the isometry search on every survivor
    for base in _seeded_bases():
        by_phase = {}
        for cand in _extension_candidates(base, base._fermion_index):
            by_phase.setdefault(cand.phase, []).append(cand)
        assert sorted(by_phase) == list(range(8))
        for first, *rest in by_phase.values():
            for cand in rest:
                assert isometry_rel_point(first.group, cand.group,
                                          first.fermion_image, cand.fermion_image)


EXTEND_BENCHMARK_BASES = ("pointed:2x2:1/2,1/4", "pointed:2x3:1/2,1/3", "pointed:2x4:1/2,1/8", "pointed:2x5:1/2,2/5",
                          "pointed:2x7:1/2,1/7", "pointed:2x9:1/2,2/9", "pointed:2x2x2:1/2,1/4,3/4")


def test_pairing_conditions_match_built_and_validated_candidates():
    # the conditions on chi against building every pushout table and running
    # the radical and the validator on it: same candidates, same order; and
    # each candidate's exact phase against the signature of its built group,
    # off by the one offset that enumerate_pointed_extensions applies
    bases = [mg("svec"), mg("svec-x-semion"), *_seeded_bases(), *map(mg, EXTEND_BENCHMARK_BASES),
             *(random_slightly_degenerate(random.Random(s), 32) for s in range(20))]
    for base in bases:
        survivors = oracles.pushout_survivors(base, fermion(base))
        cands = list(_extension_candidates(base, base._fermion_index))
        assert [(c.group, c.embedding, c.fermion_image) for c in cands] == survivors
        (offset,) = {(signature_mod8(c.group) - c.phase) % 8 for c in cands}
        assert {(r.signature - r.phase) % 8 for r in enumerate_pointed_extensions(base)} == {offset}


@pytest.mark.parametrize("base", [
    mg("svec-x-semion"),
    from_gram([2, 16], [Fraction(1, 2), Fraction(1, 32)]),
], ids=["svec-x-semion", "z2xz16"])
def test_only_the_kept_classes_get_an_exact_gauss_sum(base, monkeypatch):
    # the 8 kept classes' sums are the rows of one reduction, of their
    # counts of Q mod L, beside class 0's counts rolled by each other
    # class's phase step; no class takes a Gauss sum of its own, and one
    # float embedding, of class 0's sum, anchors every signature
    tables, anchors = [], []

    def recorded(v, n):
        tables.append(v.copy())
        return reduce_rows(v, n)

    def anchor(sigma, order):
        anchors.append(sigma)
        return signature(sigma, order)

    signature = metric_groups._signature_from_gauss
    monkeypatch.setattr(metric_groups, "reduce_rows", recorded)
    monkeypatch.setattr(metric_groups, "_signature_from_gauss", anchor)
    monkeypatch.setattr(metric_groups, "gauss_sum", lambda g: pytest.fail("a class took its own Gauss sum"))
    results = enumerate_pointed_extensions(base)
    (counts,) = tables
    L = results[0].L
    assert counts.shape == (15, L) and (counts.sum(axis=1) == 2 * base.order).all()
    for r, row in zip(results, counts):
        assert np.array_equal(row, np.bincount(r.values, minlength=L))
        assert r.gauss == gauss_sum(r.group) and r.gauss.conductor == r.group.D
    for r, row in zip(results[1:], counts[8:]):
        assert np.array_equal(row, np.roll(counts[0], (r.phase - results[0].phase) % 8 * L // 8))
    assert anchors == [results[0].gauss]
    # the search's other candidates carry no exact sum and no signature
    assert all(c.gauss is None and c.signature is None for c in _extension_candidates(base, base._fermion_index))


def test_signature_of_one_gauss_sum_is_within_the_same_1e_9():
    # the kept classes' anchor and the gauss command read a sum this way
    def signature(z):
        return metric_groups._signature_from_gauss(SimpleNamespace(embed=lambda: z), 1)

    roots = [cmath.exp(2j * cmath.pi * s / 8) for s in range(8)]
    assert [signature(z) for z in roots] == list(range(8))
    assert [signature(z * (1 + 5e-10)) for z in roots] == list(range(8))
    for bad in (roots[3] * (1 + 2e-9), 1j * cmath.exp(2e-9j), 0.5 + 0j, complex("nan")):
        with pytest.raises(ArithmeticError, match="not an eighth root of unity"):
            signature(bad)


def test_extensions_deterministic_across_runs():
    base = mg("svec")
    first = [r.sort_key() for r in enumerate_pointed_extensions(base)]
    for _ in range(3):
        assert [r.sort_key() for r in enumerate_pointed_extensions(base)] == first


@pytest.mark.parametrize("key", [
    "pointed:2x4:1/2,1/8",
    "pointed:2x16:1/2,1/32",
    "pointed:2x2x4:1/2,1/4,1/8",
    "pointed:2x3x5:1/2,1/3,2/5",
], ids=["z2xz4", "z2xz16", "z2xz2xz4", "z2xz3xz5"])
def test_extend_a_larger_base(key):
    # slightly degenerate bases up to the default max_order 64: the 8
    # classes exist and are nondegenerate of order 2|A|
    base = mg(key)
    results = enumerate_pointed_extensions(base)
    assert sorted(r.signature for r in results) == list(range(8))
    for r in results:
        assert r.group.order == 2 * base.order
        assert len(radical(r.group)) == 1
        data = to_premodular(r.group)
        assert classify_degeneracy(data).kind is CentreKind.NONDEGENERATE


def test_order_four_base_matches_general_oracle():
    # exhaustive search over every abelian group of order 8, every
    # quadratic form on it and every embedding, vs the optimized path
    base = mg("svec-x-semion")
    results = enumerate_pointed_extensions(base, max_order=16)
    oracle_classes = oracles.oracle_pointed_extensions_general(base, fermion(base))
    assert len(results) == len(oracle_classes) == 8
    matched = set()
    for r in results:
        hit = next(
            k for k, (omg, of) in enumerate(oracle_classes)
            if k not in matched
            and oracles.brute_isometry_rel_point(r.group, omg, r.fermion_image, of)
        )
        matched.add(hit)
    assert len(matched) == 8
    assert sorted(r.signature for r in results) == list(range(8))


def test_base_with_odd_part_matches_general_oracle():
    base = from_gram([2, 3], [Fraction(1, 2), Fraction(1, 3)])
    results = enumerate_pointed_extensions(base, max_order=16)
    oracle_classes = oracles.oracle_pointed_extensions_general(base, (1, 0))
    assert len(results) == len(oracle_classes) == 8
    # overgroups keep the odd part: shapes are Z12 and Z2 x Z6
    shapes = sorted(tuple(r.group.cyclic_orders) for r in results)
    assert shapes == [(2, 6)] * 4 + [(12,)] * 4
    matched = set()
    for r in results:
        hit = next(
            k for k, (omg, of) in enumerate(oracle_classes)
            if k not in matched
            and oracles.brute_isometry_rel_point(r.group, omg, r.fermion_image, of)
        )
        matched.add(hit)
    assert len(matched) == 8


def test_isometry_agrees_with_bijection_oracle_on_random_forms():
    rng = random.Random(424242)
    pool = []
    for orders in ([2], [4], [2, 2], [3], [6], [2, 3], [8], [2, 4]):
        for q in oracles.all_forms_by_gram(orders):
            pool.append(MetricGroup(list(orders), dict(q)))
    rng.shuffle(pool)
    small = [g for g in pool if g.order <= 8][:60]
    for _ in range(120):
        a, b = rng.choice(small), rng.choice(small)
        pa = rng.choice(sorted(a.elements()))
        pb = rng.choice(sorted(b.elements()))
        assert isometry_rel_point(a, b, pa, pb) == \
            oracles.brute_isometry_rel_point(a, b, pa, pb)


def test_smith_normal_form_properties():
    from premodular.metric_groups import _smith_normal_form

    def det(M):
        n = len(M)
        if n == 1:
            return M[0][0]
        return sum(
            (-1) ** j * M[0][j] * det([row[:j] + row[j + 1:] for row in M[1:]])
            for j in range(n)
        )

    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 4)
        M = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        if det(M) == 0:
            continue
        d, P = _smith_normal_form(M)
        assert abs(det(P)) == 1, "row transform must be unimodular"
        prod = 1
        for i, di in enumerate(d):
            prod *= di
            if i + 1 < len(d) and d[i + 1]:
                assert d[i + 1] % di == 0, "divisibility chain"
        assert prod == abs(det(M)), "product of divisors must match |det|"
        # every relation column must die in the quotient coordinates
        for j in range(n):
            col = [M[i][j] for i in range(n)]
            coords = [sum(P[i][k] * col[k] for k in range(n)) % d[i] for i in range(n)]
            assert all(c == 0 for c in coords)


def test_extension_classes_invariant_under_base_relabeling():
    # the same form presented with swapped coordinates must give the same
    # class list up to isometry rel fermion
    a = from_gram([2, 2], [Fraction(1, 2), Fraction(1, 4)])
    b = from_gram([2, 2], [Fraction(1, 4), Fraction(1, 2)])
    ra = enumerate_pointed_extensions(a, max_order=16)
    rb = enumerate_pointed_extensions(b, max_order=16)
    assert len(ra) == len(rb)
    assert sorted(r.signature for r in ra) == sorted(r.signature for r in rb)
    for x, y in zip(ra, rb):
        assert isometry_rel_point(x.group, y.group, x.fermion_image, y.fermion_image)


ORACLE_SHAPES = ([2], [4], [3], [6], [8], [2, 2], [2, 4], [3, 3], [2, 8], [2, 2, 2])


def test_validator_agrees_with_brute_force_oracle():
    rng = random.Random(5200)
    # q(0) = 1/3 on the trivial group passes every law but q(0) = 0
    tables = [MetricGroup([], {(): Fraction(1, 3)})]
    for orders in ORACLE_SHAPES:
        den = 2 * math.lcm(*orders)
        for _ in range(6):
            q = oracles.random_form_by_gram(rng, orders)
            tables.append(MetricGroup(list(orders), q))
            for n_tampered in (1, 1, 2, 2):
                bad = dict(q)
                for x in rng.sample(sorted(bad), n_tampered):
                    bad[x] = Fraction(rng.randrange(den), den)
                tables.append(MetricGroup(list(orders), bad))
            random_table = {x: Fraction(rng.randrange(den), den) for x in q}
            tables.append(MetricGroup(list(orders), random_table))
    # on Z2^3 every table with q(0) = 0 and values in Z/4 satisfies
    # q(2x) = 4q(x), so only the generator-pair law can reject these
    elems = sorted(oracles._elements([2, 2, 2]))
    for _ in range(150):
        table = {x: Fraction(rng.randrange(4), 4) if any(x) else Fraction(0) for x in elems}
        tables.append(MetricGroup([2, 2, 2], table))
    verdicts = [oracles._is_quadratic(g.qtable, g.cyclic_orders) for g in tables]
    assert 60 <= sum(verdicts) < len(tables) // 2  # both verdicts, in quantity
    for g, expected in zip(tables, verdicts):
        assert validate_metric_group(g).ok == expected, (g.cyclic_orders, g.qtable)


def _tampered_value(rng, orders):
    den = rng.choice([2 * math.lcm(*orders), 3, 5, 16])
    return Fraction(rng.randrange(den), den)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(orders=st.sampled_from(ORACLE_SHAPES), seed=st.integers(0, 2**32 - 1),
       case=st.sampled_from(["valid", "value", "cross"]))
def test_validator_report_matches_the_fraction_oracle(orders, seed, case):
    # the whole report, kinds, witnesses and details in order, against
    # the element-by-element validator on the Fraction table
    rng = random.Random(seed)
    diag_choices, cross_choices = oracles._gram_choices(orders)
    diag = [rng.choice(c) for c in diag_choices]
    cross = [rng.choice(c) for c in cross_choices]
    if case == "cross":
        # a generator value or cross term off its lattice spoils the laws
        # away from the generators
        terms = diag + cross
        terms[rng.randrange(len(terms))] = _tampered_value(rng, orders)
        diag, cross = terms[:len(diag)], terms[len(diag):]
    table = dict(from_gram(orders, diag, cross).qtable)
    if case == "value":
        table[rng.choice(sorted(table))] = _tampered_value(rng, orders)
    g = MetricGroup(orders, table)
    assert validate_metric_group(g).to_json() == oracles.validate_fractions(orders, table).to_json()


STRUCTURAL_KINDS = {"OrdersViolation", "SizeCapViolation", "CoverageViolation", "RangeViolation"}


@pytest.mark.parametrize("orders, table", [
    ([2, 0], {}),
    ([4096, 2], {}),
    ([2], {(0,): Fraction(0)}),
    ([2], {(0,): Fraction(0), (1,): Fraction(1, 2), (2,): Fraction(0)}),
    ([2], {(0,): Fraction(0), (3,): Fraction(1, 2)}),
    ([2], {0: Fraction(0), 1: Fraction(1, 2)}),
    ([2, 2], {(0, 0): Fraction(-1, 2), (0, 1): Fraction(1), (1, 0): Fraction(0), (1, 1): Fraction(3, 2)}),
    ([], {(): Fraction(1, 3)}),
], ids=["orders", "size-cap", "missing", "extra", "stray", "non-tuple", "range", "trivial"])
def test_structural_reports_match_the_fraction_oracle(orders, table):
    # a table failing a structural check is never built; the constructor
    # raises the report.  "trivial" passes them (q(0) = 1/3 breaks a law),
    # so it is built and the validator reports it.
    expected = oracles.validate_fractions(orders, table)
    assert not expected.ok
    if expected.kinds() & STRUCTURAL_KINDS:
        with pytest.raises(ValidationError) as exc:
            MetricGroup(orders, table)
        report = exc.value.report
    else:
        report = validate_metric_group(MetricGroup(orders, table))
    assert report.to_json() == expected.to_json()


def _key_text(x, spaced=False) -> str:
    """The JSON key of a coordinate tuple; spaced, the same element with
    spaces around its coordinates."""
    return "( " + " , ".join(map(str, x)) + " )" if spaced else "(" + ",".join(map(str, x)) + ")"


BUILDER_CASES = ["valid", "duplicate", "short", "negative", "out-of-range", "40-digit", "ranges",
                 "lcm", "lcm-and-range"]


def _builder_entries(orders, seed, case):
    """A seeded table as (key tuple, JSON key, value) entries in file
    order: a form from generator data, shuffled, then spoiled by case."""
    rng = random.Random(seed)
    diag_choices, cross_choices = oracles._gram_choices(orders)
    q = from_gram(orders, [rng.choice(c) for c in diag_choices], [rng.choice(c) for c in cross_choices]).qtable
    entries = [(x, _key_text(x), v) for x, v in q.items()]
    rng.shuffle(entries)
    i, j = rng.randrange(len(entries)), rng.randrange(len(orders))
    x, v = entries[i][0], entries[i][2]
    if case == "duplicate":
        # a spaced key of the same element with a bad value, mostly given
        # first, so that the value after it wins
        bad = rng.choice([Fraction(1), Fraction(-1, 2), Fraction(1, 3), Fraction(1, 8209)])
        entries.insert(i if rng.random() < 0.7 else len(entries), (x, _key_text(x, spaced=True), bad))
    elif case == "short":
        y = x[:rng.randrange(len(x))]
        entries.insert(rng.randrange(len(entries) + 1), (y, _key_text(y), v))
    elif case in ("negative", "out-of-range", "40-digit"):
        c = {"negative": -rng.randint(1, 5), "out-of-range": orders[j] + rng.randrange(3),
             "40-digit": 10**39 + rng.randrange(10**39)}[case]
        y = x[:j] + (c,) + x[j + 1:]
        if rng.random() < 0.5:
            entries[i] = (y, _key_text(y), v)
        else:
            entries.append((y, _key_text(y), v))
    spoiled = []
    if case in ("lcm", "lcm-and-range"):
        # one reduced denominator above the cap, or two whose lcm is
        over = [Fraction(1, 8209)] if len(entries) < 3 or rng.random() < 0.5 else [Fraction(1, 8191), Fraction(1, 8190)]
        spoiled = rng.sample(range(len(entries)), len(over))
        for k, w in zip(spoiled, over):
            entries[k] = (*entries[k][:2], w)
    if case in ("ranges", "lcm-and-range"):
        rest = [k for k in range(len(entries)) if k not in spoiled]
        for k in rng.sample(rest, min(len(rest), rng.randint(2, 3) if case == "ranges" else 1)):
            entries[k] = (*entries[k][:2], rng.choice([Fraction(1), Fraction(3, 2), Fraction(-1, 2), Fraction(5, 4)]))
    return entries


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(orders=st.sampled_from(ORACLE_SHAPES), seed=st.integers(0, 2**32 - 1), case=st.sampled_from(BUILDER_CASES))
def test_the_checked_builder_matches_the_fraction_oracle(orders, seed, case):
    # the JSON reader and the Fraction-dict constructor build through one
    # checked builder: each gives the oracle's report on the table the
    # file means, the last value of each element in the place it first
    # appears, or refuses denominators whose lcm is above the cap
    entries = _builder_entries(orders, seed, case)
    table = {x: v for x, _, v in entries}
    obj = {"type": "metric_group", "orders": orders,
           "q": {text: f"{v.numerator}/{v.denominator}" for _, text, v in entries}}
    expected = oracles.validate_fractions(orders, table)
    structural = bool(expected.kinds() & STRUCTURAL_KINDS)
    over_cap = not structural and math.lcm(*(v.denominator for v in table.values())) > MAX_CONDUCTOR
    for build in (lambda: MetricGroup(orders, table), lambda: metric_group_from_json(obj)):
        if structural:
            with pytest.raises(ValidationError) as exc:
                build()
            assert exc.value.report.to_json() == expected.to_json()
        elif over_cap:
            with pytest.raises(ValueError, match=f"lcm above the cap {MAX_CONDUCTOR}"):
                build()
        else:
            assert validate_metric_group(build()).to_json() == expected.to_json()
    # each case reaches the outcome it was made for
    if case != "duplicate":
        assert (structural, over_cap) == (case not in ("valid", "lcm"), case == "lcm"), case


def test_tampered_q_tables_are_rejected():
    rng = random.Random(31337)
    for _ in range(20):
        g = random_slightly_degenerate(rng, max_order=16)
        victims = [x for x in g.elements() if x != g.zero()]
        x0 = rng.choice(victims)
        table = dict(g.qtable)
        table[x0] = (table[x0] + Fraction(1, 3)) % 1
        rep = validate_metric_group(MetricGroup(g.cyclic_orders, table))
        assert not rep.ok
        assert rep.kinds() & {"QuadraticLawViolation", "BilinearityViolation"}


def test_random_generator_produces_valid_slightly_degenerate_groups():
    rng = random.Random(99)
    sizes = set()
    for _ in range(20):
        g = random_slightly_degenerate(rng, max_order=64)
        assert g.order <= 64
        sizes.add(g.order)
        assert validate_metric_group(g).ok
        assert fermion(g) is not None
    assert len(sizes) > 1, "generator should vary group sizes"
