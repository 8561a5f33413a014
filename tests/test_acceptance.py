"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  Criterion 7 is split: 7a covers the cyclotomic suite
and the exact S-matrix identities in their derivable form; 7b runs the
identity in the form the requirements checklist originally worded it,
which is inconsistent with the validated axioms and fails on the
non-self-dual Z4 entries, so it is marked strict-xfail with the
analysis in its reason string.
"""

import json
import random
import time
from fractions import Fraction

import pytest

import oracles
from conftest import premodular_form
from premodular.catalog import catalog_get, catalog_list
from premodular.cli import cli_run
from premodular.components import ring_characters
from premodular.cyclotomic import ONE, make_root
from premodular.data import (
    CentreKind,
    classify_degeneracy,
    gauss_sum as premodular_gauss,
    relative_centralizer,
    validate_premodular,
)
from premodular.fusion_ring import dual_permutation_matrix, fpdim
from premodular.klein import eta_scalar, kappa_invariants
from premodular.metric_groups import (
    enumerate_pointed_extensions,
    random_slightly_degenerate,
    to_premodular,
    validate_metric_group,
)

ALL_NAMES = [n for n, _, _ in catalog_list()]
MODULAR_NAMES = [n for n in ALL_NAMES
                 if classify_degeneracy(premodular_form(n)).kind is CentreKind.NONDEGENERATE]
SLIGHTLY_DEGENERATE_NAMES = [
    n for n in ALL_NAMES
    if classify_degeneracy(premodular_form(n)).kind is CentreKind.SLIGHTLY_DEGENERATE
]


def _report(tag, ok, extra=""):
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


def test_criterion_1_svec_pipeline(write_datum):
    t0 = time.perf_counter()
    code, out = cli_run(["analyze", write_datum("svec"), "--format", "json"])
    elapsed = time.perf_counter() - t0
    rep = json.loads(out)
    ok = (
        code == 0
        and rep["classification"] == "slightly_degenerate"
        and rep["components"]["component_count"] == 2
        and rep["kappa"]["n_self_dual"] == 2
        and rep["kappa"]["kappa_plus"] == "1/1"
        and rep["kappa"]["kappa_minus"] == "1/1"
        and rep["verdict"] == "extension_exists_S"
        and elapsed < 1.0
    )
    _report("1 (svec pipeline)", ok, f"{elapsed:.3f}s")


def test_criterion_2_klein_cross_check():
    t0 = time.perf_counter()
    data_sets = [(premodular_form(n), None) for n in SLIGHTLY_DEGENERATE_NAMES]
    rng = random.Random(160916)
    groups = [random_slightly_degenerate(rng, max_order=64) for _ in range(100)]
    for mg in groups:
        assert validate_metric_group(mg).ok
        data_sets.append((to_premodular(mg), mg))
    checked = 0
    for data, mg in data_sets:
        rep = kappa_invariants(data)  # raises CrossCheckMismatch if the twist identity fails
        assert rep.n_e_twisted == 0 and rep.kappa_minus >= Fraction(1, 2)
        if mg is not None:
            # oracle: in a pointed datum a* = a exactly on the 2-torsion
            assert rep.n_self_dual == sum(1 for x in mg.elements() if mg.scale(2, x) == mg.zero())
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 100 + len(SLIGHTLY_DEGENERATE_NAMES) and elapsed < 30.0
    _report("2 (Klein cross-check, %d data)" % checked, ok, f"{elapsed:.1f}s")


def test_criterion_3_component_character_agreement():
    for name in ALL_NAMES:
        data = premodular_form(name)
        comp = ring_characters(data)
        trans = relative_centralizer(data, set(data.labels))
        assert comp.count == len(trans) == len(comp.characters), name
        _, fp = fpdim(data.ring)
        fp_by_label = dict(zip(data.labels, fp))
        dim_chi = comp.characters[comp.dim_index]
        for lab in trans:
            assert abs(dim_chi[lab] - fp_by_label[lab]) <= 1e-8, (name, lab)
    _report("3 (component/character agreement, %d entries)" % len(ALL_NAMES), True)


def test_criterion_4_sixteenfold_pointed_half(write_datum):
    t0 = time.perf_counter()
    svec = catalog_get("svec").payload
    results = enumerate_pointed_extensions(svec)

    # pairwise non-isometric rel fermion (exhaustive bijection check)
    for i, a in enumerate(results):
        for b in results[i + 1:]:
            assert not oracles.brute_isometry_rel_point(
                a.group, b.group, a.fermion_image, b.fermion_image
            )

    # normalized Gauss sums are exactly the 8 eighth roots of unity
    sigs = sorted(r.signature for r in results)
    assert sigs == list(range(8))
    for r in results:
        assert r.gauss == 2 * make_root(r.signature, 8)

    # independent oracle: exhaustive search over all order-4 overgroups
    # and all quadratic extensions
    oracle_classes = oracles.oracle_pointed_extensions(svec, (1,))
    assert len(oracle_classes) == 8
    matched = set()
    for r in results:
        hit = next(
            k for k, (omg, of) in enumerate(oracle_classes)
            if k not in matched
            and oracles.brute_isometry_rel_point(r.group, omg, r.fermion_image, of)
        )
        matched.add(hit)
    assert len(matched) == 8

    # the CLI surface agrees
    code, out = cli_run(["extend", write_datum("svec"), "--format", "json"])
    assert code == 0 and json.loads(out)["count"] == 8

    elapsed = time.perf_counter() - t0
    ok = len(results) == 8 and elapsed < 10.0
    _report("4 (16-fold way, pointed half)", ok, f"{elapsed:.2f}s")


def test_criterion_5_ising_family():
    t0 = time.perf_counter()
    svec_total = fpdim(premodular_form("svec").ring)[0]
    for nu in range(1, 16, 2):
        data = catalog_get(f"ising:{nu}").payload
        assert validate_premodular(data).ok
        assert classify_degeneracy(data).kind is CentreKind.NONDEGENERATE
        assert relative_centralizer(data, {"1", "psi"}) == {"1", "psi"}
        assert premodular_gauss(data) == 2 * make_root(nu, 16)
        assert abs(fpdim(data.ring)[0] - 2 * svec_total) < 1e-9
    # together with criterion 4 this exhibits 16 distinct minimal
    # extensions: 8 pointed (even signature) + 8 Ising-type (odd)
    pointed_sigs = {r.signature for r in enumerate_pointed_extensions(catalog_get("svec").payload)}
    assert pointed_sigs == set(range(8))
    ising_phases = [2 * make_root(nu, 16) for nu in range(1, 16, 2)]
    assert all(
        ising_phases[i] != ising_phases[j]
        for i in range(8) for j in range(i + 1, 8)
    )
    elapsed = time.perf_counter() - t0
    ok = elapsed < 2.0
    _report("5 (Ising family, 8 + 8 = 16 extensions)", ok, f"{elapsed:.2f}s")


def test_criterion_6_eta_properties():
    for name in ALL_NAMES:
        data = premodular_form(name)
        for a, lab in enumerate(data.labels):
            dual_lab = data.labels[data.ring.dual[a]]
            assert eta_scalar(data, lab) == eta_scalar(data, dual_lab), (name, lab)
    for name in SLIGHTLY_DEGENERATE_NAMES:
        data = premodular_form(name)
        cls = classify_degeneracy(data)
        assert eta_scalar(data, cls.fermion) == -ONE, name
    _report("6 (eta symmetry and fermion sign)", True)


def test_criterion_7a_exact_arithmetic_soundness():
    # roots of unity of every order <= 64 power back to 1 exactly
    for q in range(1, 65):
        for p in range(1, q):
            assert make_root(p, q) ** q == ONE
    # lifting laws and conjugation
    import math

    rng = random.Random(7)
    for _ in range(50):
        p1, q1 = rng.randrange(0, 48), rng.randrange(1, 48)
        p2, q2 = rng.randrange(0, 48), rng.randrange(1, 48)
        x, y = make_root(p1, q1) * rng.randrange(1, 5), make_root(p2, q2) + 1
        m = math.lcm(x.conductor, y.conductor) * 2
        assert (x + y).lift(m) == x.lift(m) + y.lift(m)
        assert (x * y).lift(m) == x.lift(m) * y.lift(m)
        assert x.conj().conj() == x
        assert (x * y).conj() == x.conj() * y.conj()

    # exact S-matrix identities on all modular catalog entries:
    # s.s = (sum d^2) C and s.conj(s) = (sum d^2) Id
    for name in MODULAR_NAMES:
        data = premodular_form(name)
        r = data.ring.rank
        total = None
        for d in data.dims:
            sq = d * d
            total = sq if total is None else total + sq
        C = dual_permutation_matrix(data.ring)
        for a in range(r):
            for b in range(r):
                square = None
                unitary = None
                for c in range(r):
                    t1 = data.s[a][c] * data.s[c][b]
                    t2 = data.s[a][c] * data.s[c][b].conj()
                    square = t1 if square is None else square + t1
                    unitary = t2 if unitary is None else unitary + t2
                assert square == total * int(C[a, b]), (name, a, b)
                assert unitary == total * (1 if a == b else 0), (name, a, b)
    _report("7a (exact arithmetic + S-matrix identities)", True)


@pytest.mark.xfail(
    strict=True,
    reason="the checklist's original wording s.conj(s) = (sum d^2) C contradicts "
    "the validated axioms: conj(s) = C s forces s.conj(s) = (sum d^2) Id, so the "
    "worded form fails exactly on the non-self-dual z4-q:k entries.  The "
    "derivable identities are verified exactly in criterion 7a.",
)
def test_criterion_7b_s_matrix_identity_as_literally_stated():
    failures = []
    for name in MODULAR_NAMES:
        data = premodular_form(name)
        r = data.ring.rank
        total = None
        for d in data.dims:
            sq = d * d
            total = sq if total is None else total + sq
        C = dual_permutation_matrix(data.ring)
        for a in range(r):
            for b in range(r):
                acc = None
                for c in range(r):
                    t = data.s[a][c] * data.s[c][b].conj()
                    acc = t if acc is None else acc + t
                if acc != total * int(C[a, b]):
                    failures.append((name, a, b))
    print(f"ACCEPTANCE 7b (literal s.conj(s) = D^2 C): FAIL on {sorted({f[0] for f in failures})}")
    assert not failures, f"stated identity fails at {failures[:4]} (and more)"


def test_criterion_8_determinism(write_datum):
    for name in ALL_NAMES:
        path = write_datum(name, filename=f"{name.replace(':', '_')}.json")
        outputs = set()
        for _ in range(5):
            code, out = cli_run(["analyze", path, "--format", "json"])
            assert code == 0, name
            outputs.add(out)
        assert len(outputs) == 1, f"{name} output not byte-identical"
    _report("8 (byte-identical analyze across repeated runs)", True)
