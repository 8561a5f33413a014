import itertools
import random

import numpy as np
import pytest

from oracles import brute_associative
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
