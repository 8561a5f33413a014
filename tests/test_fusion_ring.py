import functools
import itertools
import random

import numpy as np
import pytest

from oracles import brute_associative, brute_duality_violations, dense_associativity_witnesses
from premodular import fusion_ring
from premodular.errors import UnknownLabel
from premodular.fusion_ring import (
    FusionRing,
    dual_permutation_matrix,
    fpdim,
    fusion_matrix,
    validate_fusion_ring,
)

from conftest import premodular_form


def z2_ring():
    mult = np.zeros((2, 2, 2), dtype=np.int64)
    mult[0, 0, 0] = mult[0, 1, 1] = mult[1, 0, 1] = mult[1, 1, 0] = 1
    return FusionRing(labels=["1", "e"], unit_index=0, mult=mult, dual=[0, 1])


def ising_ring():
    mult = np.zeros((3, 3, 3), dtype=np.int64)
    mult[0] = np.eye(3)
    mult[:, 0] = np.eye(3)
    mult[1, 1, 0] = 1
    mult[1, 2, 2] = mult[2, 1, 2] = 1
    mult[2, 2, 0] = mult[2, 2, 1] = 1
    return FusionRing(labels=["1", "psi", "sigma"], unit_index=0, mult=mult, dual=[0, 1, 2])


def test_z2_group_ring_is_valid():
    assert validate_fusion_ring(z2_ring()).ok


def test_ising_ring_is_valid_and_brute_force_associative():
    ring = ising_ring()
    assert validate_fusion_ring(ring).ok
    # independent oracle: the raw 81-quadruple associativity loop
    assert brute_associative(ring.mult.tolist())


def test_broken_duality_is_reported():
    ring = ising_ring()
    ring.mult[2, 1, 0] = 1  # N^1_{sigma,psi} = 1: sigma would have two duals
    rep = validate_fusion_ring(ring)
    assert not rep.ok
    assert "DualityViolation" in rep.kinds()
    witnesses = [v.witness for v in rep.violations if v.kind == "DualityViolation"]
    assert (2, 1) in witnesses


def s3_ring():
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    mult = np.zeros((6, 6, 6), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            mult[i, j, index[tuple(p[k] for k in q)]] = 1
    inverse = [index[tuple(sorted(range(3), key=p.__getitem__))] for p in perms]
    return FusionRing(labels=["".join(map(str, p)) for p in perms], unit_index=0,
                      mult=mult, dual=inverse)


def test_broken_commutativity_is_reported():
    ring = ising_ring()
    ring.mult[1, 2, 2] = 0  # psi.sigma loses sigma, sigma.psi keeps it
    rep = validate_fusion_ring(ring)
    assert "CommutativityViolation" in rep.kinds()
    # associativity is checked only on commutative rings: this ring is
    # not associative either, but that is not reported
    assert not brute_associative(ring.mult.tolist())
    assert "AssociativityViolation" not in rep.kinds()


def test_noncommutative_group_ring_reports_commutativity_only():
    ring = s3_ring()
    assert brute_associative(ring.mult.tolist())
    assert validate_fusion_ring(ring).kinds() == {"CommutativityViolation"}


def test_broken_associativity_is_reported():
    # Z3 group ring with 1.1 redirected from 2 to 1: (1.1).2 = 0 but
    # 1.(1.2) = 1; unit, commutativity and duality all still hold
    mult = np.zeros((3, 3, 3), dtype=np.int64)
    for a in range(3):
        for b in range(3):
            mult[a, b, (a + b) % 3] = 1
    mult[1, 1, 2] = 0
    mult[1, 1, 1] = 1
    ring = FusionRing(labels=["0", "1", "2"], unit_index=0, mult=mult, dual=[0, 2, 1])
    rep = validate_fusion_ring(ring)
    assert "AssociativityViolation" in rep.kinds()
    assert not any(v.kind in ("UnitViolation", "CommutativityViolation", "DualityViolation")
                   for v in rep.violations)
    # and the independent brute-force loop agrees
    assert not brute_associative(mult.tolist())


def _random_commutative_table(rng):
    r = rng.randint(2, 5)
    mult = np.zeros((r, r, r), dtype=np.int64)
    mult[0] = mult[:, 0] = np.eye(r, dtype=np.int64)
    for a in range(1, r):
        for b in range(a, r):
            for c in range(r):
                mult[a, b, c] = mult[b, a, c] = rng.choice((0, 0, 0, 1, 2))
    return mult


def _tampered_group_ring(rng):
    n = rng.randint(2, 6)
    mult = np.zeros((n, n, n), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            mult[a, b, (a + b) % n] = 1
    if rng.random() < 0.8:
        a, b, c = (rng.randrange(n) for _ in range(3))
        mult[a, b, c] = mult[b, a, c] = rng.randint(0, 2)
    return mult


def test_associativity_verdict_agrees_with_brute_force_oracle():
    rng = random.Random(20210531)
    verdicts = []
    for make in (_random_commutative_table, _tampered_group_ring):
        for _ in range(200):
            mult = make(rng)
            r = len(mult)
            ring = FusionRing(labels=[str(a) for a in range(r)], unit_index=0,
                              mult=mult, dual=list(range(r)))
            witnesses = [v.witness for v in validate_fusion_ring(ring).violations
                         if v.kind == "AssociativityViolation"]
            associative = brute_associative(mult.tolist())
            assert associative == (not witnesses), mult.tolist()
            assert len(witnesses) <= 10
            for a, b, c, d in witnesses:  # d occurs differently in (a.b).c and a.(b.c)
                assert mult[a, b] @ mult[:, c, d] != mult[b, c] @ mult[a, :, d]
            verdicts.append(associative)
    assert 50 <= sum(verdicts) <= 350


def _group_mult(orders):
    """Multiplicity tensor of Z_{n1} x ... x Z_{nk}, elements in mixed radix."""
    els = np.array(list(itertools.product(*(range(n) for n in orders))))
    radix = np.cumprod([1, *orders[:0:-1]])[::-1]
    total = ((els[:, None, :] + els[None, :, :]) % orders) @ radix
    r = len(els)
    mult = np.zeros((r, r, r), dtype=np.int64)
    mult[np.arange(r)[:, None], np.arange(r)[None, :], total] = 1
    return mult


def _tamper(mult, rng, times):
    """Replace the product of `times` random pairs by a random row, keeping
    the table commutative."""
    mult = mult.copy()
    r = len(mult)
    for _ in range(times):
        a, b = rng.randrange(1, r), rng.randrange(1, r)
        row = np.zeros(r, dtype=np.int64)
        for _ in range(rng.randint(1, 3)):
            row[rng.randrange(r)] += rng.randint(1, 3)
        mult[a, b] = mult[b, a] = row
    return mult


@functools.cache
def _seeded_cases():
    """(table, the dense oracle's witnesses) on random commutative tables
    and on group rings of rank 16 to 64, whole and tampered."""
    rng = random.Random(6)
    tables = [_random_commutative_table(rng) for _ in range(100)]
    tables += [_tampered_group_ring(rng) for _ in range(100)]
    for orders, tampers in (([2, 8], (0, 1, 1, 2, 3)), ([4, 4], (1, 2)), ([2, 16], (0, 1, 1, 2)),
                            ([32], (1, 3)), ([2, 4, 8], (0, 1, 2))):
        tables += [_tamper(_group_mult(orders), rng, times) for times in tampers]
    return [(mult, dense_associativity_witnesses(mult)) for mult in tables]


def _witnesses(mult, kind="AssociativityViolation"):
    r = len(mult)
    ring = FusionRing(labels=[str(a) for a in range(r)], unit_index=0, mult=mult,
                      dual=list(range(r)))
    return [v.witness for v in validate_fusion_ring(ring).violations if v.kind == kind]


@pytest.mark.parametrize("block", [fusion_ring._JOIN_BLOCK, 50])
def test_associativity_witnesses_equal_the_dense_oracle(block, monkeypatch):
    # a block of 50 pairs splits each b into chunks merged into the running
    # sums, which only dense rings do at the default block size
    monkeypatch.setattr(fusion_ring, "_JOIN_BLOCK", block)
    for mult, expected in _seeded_cases():
        assert _witnesses(mult) == expected, mult.tolist()
    # none, a few, and the cap all occur, and the cap cuts across b
    counts = [(len(expected), len({b for _, b, _, _ in expected})) for _, expected in _seeded_cases()]
    assert (0, 0) in counts and any(0 < n < 10 for n, _ in counts)
    assert any(n == 10 and bs > 1 for n, bs in counts)


def test_rank_128_group_ring_validates_and_a_tampered_copy_is_caught():
    mult = _group_mult([2, 64])
    ring = FusionRing(labels=[str(a) for a in range(128)], unit_index=0, mult=mult,
                      dual=[int(np.flatnonzero(mult[a, :, 0])[0]) for a in range(128)])
    assert validate_fusion_ring(ring).ok
    mult = _tamper(mult, random.Random(128), 2)
    witnesses = _witnesses(mult)
    assert len(witnesses) == 10
    for a, b, c, d in witnesses:  # d occurs differently in (a.b).c and a.(b.c)
        assert mult[a, b] @ mult[:, c, d] != mult[b, c] @ mult[a, :, d]


def test_duality_witnesses_and_details_equal_the_loop():
    rng = random.Random(66)
    for _ in range(100):
        mult = _random_commutative_table(rng)
        r = len(mult)
        for _ in range(rng.randint(0, 3)):
            mult[rng.randrange(r), rng.randrange(r), 0] = rng.randint(0, 2)
        dual = list(range(r))
        if r > 2 and rng.random() < 0.5:
            dual[1], dual[2] = 2, 1
        ring = FusionRing(labels=[str(a) for a in range(r)], unit_index=0, mult=mult, dual=dual)
        found = [(v.witness, v.detail) for v in validate_fusion_ring(ring).violations
                 if v.kind == "DualityViolation"]
        assert found == brute_duality_violations(mult.tolist(), dual, 0)


def test_fibonacci_ring_is_valid():
    # e.e = 1 + e: noninvertible but perfectly associative
    mult = np.zeros((2, 2, 2), dtype=np.int64)
    mult[0, 0, 0] = mult[0, 1, 1] = mult[1, 0, 1] = 1
    mult[1, 1, 0] = mult[1, 1, 1] = 1
    ring = FusionRing(labels=["1", "t"], unit_index=0, mult=mult, dual=[0, 1])
    assert validate_fusion_ring(ring).ok
    total, vec = fpdim(ring)
    golden = (1 + np.sqrt(5)) / 2
    assert abs(vec[1] - golden) < 1e-9
    assert abs(total - (1 + golden**2)) < 1e-9


def test_fusion_matrix_examples():
    assert np.array_equal(fusion_matrix(z2_ring(), "e"), [[0, 1], [1, 0]])
    assert np.array_equal(
        fusion_matrix(ising_ring(), "sigma"), [[0, 0, 1], [0, 0, 1], [1, 1, 0]]
    )
    for ring in (z2_ring(), ising_ring()):
        unit = ring.labels[ring.unit_index]
        assert np.array_equal(fusion_matrix(ring, unit), np.eye(ring.rank, dtype=np.int64))
    with pytest.raises(UnknownLabel):
        fusion_matrix(z2_ring(), "bogus")


def test_fpdim_values():
    total, vec = fpdim(z2_ring())
    assert abs(total - 2) < 1e-9 and np.allclose(vec, [1, 1], atol=1e-9)

    total, vec = fpdim(ising_ring())
    # oracle: numpy spectrum of the sigma matrix
    eig = max(np.linalg.eigvals(fusion_matrix(ising_ring(), "sigma").astype(float)).real)
    assert abs(vec[2] - eig) < 1e-9
    assert abs(vec[2] - np.sqrt(2)) < 1e-9
    assert abs(total - 4) < 1e-9

    z4 = premodular_form("z4-q:1").ring
    assert abs(fpdim(z4)[0] - 4) < 1e-9


def test_dual_permutation_matrix_examples():
    assert np.array_equal(dual_permutation_matrix(z2_ring()), np.eye(2, dtype=np.int64))
    assert np.array_equal(dual_permutation_matrix(ising_ring()), np.eye(3, dtype=np.int64))
    z4 = premodular_form("z4-q:1").ring
    D = dual_permutation_matrix(z4)
    assert [int(np.argmax(row)) for row in D] == [0, 3, 2, 1]


@pytest.mark.parametrize("name", ["svec", "semion", "toric", "z4-q:3", "ising:1", "svec-x-semion"])
def test_ring_properties(name):
    ring = premodular_form(name).ring
    assert validate_fusion_ring(ring).ok
    mats = [fusion_matrix(ring, lab) for lab in ring.labels]
    for A in mats:
        for B in mats:
            assert np.array_equal(A @ B, B @ A)
    D = dual_permutation_matrix(ring)
    _, vec = fpdim(ring)
    for a, lab in enumerate(ring.labels):
        dual_lab = ring.labels[ring.dual[a]]
        assert np.array_equal(D @ mats[a] @ D, fusion_matrix(ring, dual_lab))
        assert abs(vec[a] - vec[ring.dual[a]]) < 1e-9
