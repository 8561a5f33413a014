import collections
import functools
import itertools
import json
import random

import numpy as np
import pytest

from oracles import (brute_associative, brute_duality_violations, dense, dense_associativity_witnesses, fusion_matrix,
                     generation_certificate, ring_from_dense, su2_corpus, validate_fusion_ring_dense)
from premodular import fusion_ring
from premodular.errors import UnknownLabel
from premodular.fusion_ring import (
    FusionRing,
    dual_permutation_matrix,
    fpdim,
    group_ring,
    validate_fusion_ring,
)

from conftest import premodular_form, with_entries


def z2_ring():
    fusion = [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]]
    return FusionRing(labels=["1", "e"], unit_index=0, fusion=fusion, dual=[0, 1])


def ising_ring():
    fusion = [[0, 0, 0, 1], [0, 1, 1, 1], [0, 2, 2, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 2, 2, 1],
              [2, 0, 2, 1], [2, 1, 2, 1], [2, 2, 0, 1], [2, 2, 1, 1]]
    return FusionRing(labels=["1", "psi", "sigma"], unit_index=0, fusion=fusion, dual=[0, 1, 2])


def test_z2_group_ring_is_valid():
    assert validate_fusion_ring(z2_ring()).ok


def test_ising_ring_is_valid_and_brute_force_associative():
    ring = ising_ring()
    assert validate_fusion_ring(ring).ok
    # independent oracle: the raw 81-quadruple associativity loop
    assert brute_associative(dense(ring).tolist())


def test_broken_duality_is_reported():
    ring = with_entries(ising_ring(), [2, 1, 0, 1])  # N^1_{sigma,psi} = 1: sigma would have two duals
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
    return ring_from_dense(mult, labels=["".join(map(str, p)) for p in perms], dual=inverse)


def test_broken_commutativity_is_reported():
    ring = with_entries(ising_ring(), [1, 2, 2, 0])  # psi.sigma loses sigma, sigma.psi keeps it
    rep = validate_fusion_ring(ring)
    assert "CommutativityViolation" in rep.kinds()
    # associativity is checked only on commutative rings: this ring is
    # not associative either, but that is not reported
    assert not brute_associative(dense(ring).tolist())
    assert "AssociativityViolation" not in rep.kinds()


def test_noncommutative_group_ring_reports_commutativity_only():
    ring = s3_ring()
    assert brute_associative(dense(ring).tolist())
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
    ring = ring_from_dense(mult, dual=[0, 2, 1])
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
            witnesses = [v.witness for v in validate_fusion_ring(ring_from_dense(mult)).violations
                         if v.kind == "AssociativityViolation"]
            associative = brute_associative(mult.tolist())
            assert associative == (not witnesses), mult.tolist()
            assert len(witnesses) <= 10
            for a, b, c, d in witnesses:  # d occurs differently in (a.b).c and a.(b.c)
                assert mult[a, b] @ mult[:, c, d] != mult[b, c] @ mult[a, :, d]
            verdicts.append(associative)
    assert 50 <= sum(verdicts) <= 350


def _group_table(orders):
    """Addition table of Z_{n1} x ... x Z_{nk}, elements in mixed radix."""
    els = np.array(list(itertools.product(*(range(n) for n in orders))))
    radix = np.cumprod([1, *orders[:0:-1]])[::-1]
    return ((els[:, None, :] + els[None, :, :]) % orders) @ radix


def _group_mult(orders):
    """Multiplicity tensor of Z_{n1} x ... x Z_{nk}, elements in mixed radix."""
    total = _group_table(orders)
    r = len(total)
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
    return [v.witness for v in validate_fusion_ring(ring_from_dense(mult)).violations if v.kind == kind]


@pytest.mark.parametrize("block", [fusion_ring._JOIN_BLOCK, 2**18, 50, 1])
def test_associativity_witnesses_equal_the_dense_oracle(block, monkeypatch):
    # a block holds max(_JOIN_BLOCK, r^2) pairs: the default and 2^18 span
    # many rows b; 50 and 1 leave blocks of max(50, r^2) and r^2 pairs,
    # which split every row b of more (dense tables, tampered products)
    # into blocks merged into the sums of the rows still open
    monkeypatch.setattr(fusion_ring, "_JOIN_BLOCK", block)
    for mult, expected in _seeded_cases():
        assert _witnesses(mult) == expected, mult.tolist()
        # a smaller limit stops the join early, at the oracle's first
        # `limit` witnesses; limits past their number give them all
        ring = ring_from_dense(mult)
        for limit in range(1, min(len(expected), 9) + 2):
            assert fusion_ring._associativity_witnesses(ring, limit) == expected[:limit], (limit, mult.tolist())
    # none, a few, and the cap all occur, and the cap cuts across b
    counts = [(len(expected), len({b for _, b, _, _ in expected})) for _, expected in _seeded_cases()]
    assert (0, 0) in counts and any(0 < n < 10 for n, _ in counts)
    assert any(n == 10 and bs > 1 for n, bs in counts)


def test_restricted_join_equals_the_dense_oracle_on_its_rows():
    # the join over the entries of some rows b gives the oracle's
    # witnesses whose b is among them, in the same order
    rng, counts = random.Random(7), []
    for mult, _ in _seeded_cases():
        ring, r = ring_from_dense(mult), len(mult)
        middle = sorted(rng.sample(range(r), rng.randint(1, r)))
        expected = dense_associativity_witnesses(mult, 10, middle)
        for limit in (1, 3, 10):
            assert fusion_ring._associativity_witnesses(ring, limit, middle) == expected[:limit], mult.tolist()
        counts.append(len(expected))
    assert counts.count(0) >= 50 and counts.count(10) >= 20, collections.Counter(counts)


def _edited_rings(rng, count):
    """Seeded rings with every kind of defect: random commutative tables
    and group rings, whole and tampered, with some entries made negative,
    the unit's row or column edited, products edited on one side only, a
    unit other than 0, or a dual that is no involution or no permutation."""
    for k in range(count):
        if k % 3 == 2:
            mult = _tamper(_group_mult(rng.choice(([2, 4], [8], [2, 2, 4]))), rng, rng.randint(0, 2))
        else:
            mult = (_random_commutative_table, _tampered_group_ring)[k % 3](rng)
        r = len(mult)
        cell = lambda: tuple(rng.randrange(r) for _ in range(3))
        if rng.random() < 0.15:
            for _ in range(rng.choice((1, 3, 12))):
                mult[cell()] = -rng.randint(1, 3)
        if rng.random() < 0.3:
            for _ in range(rng.choice((1, 2, 12))):
                a, b, c = cell()
                mult[(0, b, c) if rng.random() < 0.5 else (a, 0, c)] = rng.randint(0, 2)
        if rng.random() < 0.25:
            for _ in range(rng.randint(1, 3)):
                mult[cell()] = rng.randint(0, 2)
        unit = rng.randrange(r) if rng.random() < 0.15 else 0
        dual = [int(np.flatnonzero(mult[a, :, 0])[0]) if mult[a, :, 0].any() else a for a in range(r)]
        roll = rng.random()
        if roll < 0.15:
            dual = rng.sample(range(r), r)
        elif roll < 0.25:
            dual = [rng.randrange(r) for _ in range(r)]
        yield ring_from_dense(mult, unit_index=unit, dual=dual)


def test_reports_equal_the_dense_oracle():
    kinds = []
    for ring in _edited_rings(random.Random(13), 600):
        report, expected = validate_fusion_ring(ring), validate_fusion_ring_dense(ring)
        assert report.violations == expected.violations, ring.fusion.tolist()
        # byte for byte: every witness holds Python ints
        assert json.dumps(report.to_json()) == json.dumps(expected.to_json())
        kinds += [v.kind for v in report.violations]
    counts = collections.Counter(kinds)
    assert counts.keys() == {"NegativeMultiplicity", "UnitViolation", "CommutativityViolation",
                             "AssociativityViolation", "DualityViolation"}, counts
    assert min(counts.values()) >= 20, counts


def test_rank_128_group_ring_validates_and_a_tampered_copy_is_caught():
    mult = _group_mult([2, 64])
    ring = ring_from_dense(mult, dual=[int(np.flatnonzero(mult[a, :, 0])[0]) for a in range(128)])
    assert validate_fusion_ring(ring).ok
    mult = _tamper(mult, random.Random(128), 2)
    witnesses = _witnesses(mult)
    assert len(witnesses) == 10
    for a, b, c, d in witnesses:  # d occurs differently in (a.b).c and a.(b.c)
        assert mult[a, b] @ mult[:, c, d] != mult[b, c] @ mult[a, :, d]


def _table_ring(T):
    """The pointed ring of an r x r product table, a.b = T[a, b] once;
    the dual of a is the first b with a.b = 0, or a if there is none."""
    T = np.asarray(T)
    r = len(T)
    dual = [int(np.argmax(row == 0)) if (row == 0).any() else a for a, row in enumerate(T)]
    return group_ring([str(a) for a in range(r)], T, 0, dual)


def _commutative_loop(rng, r):
    """A random commutative loop on 0..r-1 with identity 0: a symmetric
    Latin square whose row 0 is 0, 1, ..., r - 1, filled cell by cell
    with the symbols in random order, backtracking on a dead end."""
    T = np.full((r, r), -1)
    T[0] = T[:, 0] = np.arange(r)
    cells = [(a, b) for a in range(1, r) for b in range(a, r)]

    def fill(k):
        if k == len(cells):
            return True
        a, b = cells[k]
        used = set(T[a].tolist()) | set(T[b].tolist())
        for x in rng.sample(range(r), r):
            if x not in used:
                T[a, b] = T[b, a] = x
                if fill(k + 1):
                    return True
        T[a, b] = T[b, a] = -1
        return False

    assert fill(0)
    return T


def _tamper_table(T, rng, pairs):
    """T with the products a.b = b.a of the given pairs moved to another
    label, so the table stays pointed and commutative."""
    T = T.copy()
    for a, b in pairs:
        T[a, b] = T[b, a] = rng.choice([x for x in range(len(T)) if x != T[a, b]])
    return T


def _pointed_tables(rng):
    """Commutative loops of order 5 (groups), 6 and 8 (mostly not
    associative; order 7 is slow to fill); group tables whole and
    with one or two products moved, among them a product of two labels
    that the greedy generating set leaves out (3 and 5: Z2 x Z8 is
    generated by 0, 1, 8 and (Z/2)^4 by 0, 1, 2, 4, 8); and tables that
    break the unit axiom: constant (every label a generator), min, a
    group with its identity at r - 1, x.y = -x - y, which is not
    associative, and a rank-3 table that fails only with 0 as the middle
    factor, which a generating set taking the unit for granted passes."""
    tables = [_commutative_loop(rng, rng.choice((5, 6, 8))) for _ in range(60)]
    for orders in ([2, 8], [4, 4], [2, 2, 4], [2, 2, 2, 2], [3, 5], [7]):
        T = _group_table(orders)
        r = len(T)
        tables.append(T)
        for times in (1, 1, 2, 2):
            tables.append(_tamper_table(T, rng, [(rng.randrange(1, r), rng.randrange(1, r)) for _ in range(times)]))
        if r == 16:
            tables.append(_tamper_table(T, rng, [(3, 5)]))
    x, y = np.meshgrid(np.arange(6), np.arange(6), indexing="ij")
    tables += [np.zeros((6, 6), dtype=np.int64), np.minimum(x, y), (x + y + 1) % 6, (-x - y) % 6,
               np.array([[0, 2, 1], [2, 1, 2], [1, 2, 1]])]
    return tables


def test_pointed_reports_equal_the_dense_oracle_and_the_full_join():
    associative = []
    for T in _pointed_tables(random.Random(16)):
        ring = _table_ring(T)
        report = validate_fusion_ring(ring)
        expected = validate_fusion_ring_dense(ring)
        assert report.violations == expected.violations, T.tolist()
        assert json.dumps(report.to_json()) == json.dumps(expected.to_json())
        # the full join alone gives the same witnesses in the same order
        witnesses = [v.witness for v in report.violations if v.kind == "AssociativityViolation"]
        assert witnesses == fusion_ring._associativity_witnesses(ring, 10)
        # every triple: (a.b).c against a.(b.c)
        associative.append(np.array_equal(T[T], T[:, T]))
        assert associative[-1] == (not witnesses)
    loops = associative[:60]
    assert 0 < sum(loops) < 30 and sum(associative) >= 15, (sum(loops), sum(associative))


def _su2_rings():
    """The rings of the non-pointed corpus of rank at most 22, whole and
    with one or two products replaced on both sides (_tamper)."""
    rng = random.Random(2)
    for name, data in su2_corpus().items():
        if data.ring.rank <= 22:
            yield name, data.ring
            for times in (1, 2):
                yield f"{name} tampered {times}", ring_from_dense(_tamper(dense(data.ring), rng, times),
                                                                  data.ring.labels, 0, data.ring.dual)


def test_su2_reports_equal_the_dense_oracle():
    # SU(2)_k and its products are associative; a tampered copy that is
    # not gets the full join's witnesses
    failing = 0
    for name, ring in _su2_rings():
        report = validate_fusion_ring(ring)
        assert report.violations == validate_fusion_ring_dense(ring).violations, name
        assert report.ok or "tampered" in name, name
        failing += any(v.kind == "AssociativityViolation" for v in report.violations)
    assert failing >= 12, failing


def _generator_pool():
    """Rings without negative multiplicities: the pointed tables, the
    edited rings, the non-pointed corpus and group rings of rank 64."""
    yield from (_table_ring(T) for T in _pointed_tables(random.Random(16)))
    yield from (ring for ring in _edited_rings(random.Random(13), 200) if (ring.m > 0).all())
    yield from (ring for _, ring in _su2_rings())
    yield from (_table_ring(_group_table(orders)) for orders in ([64], [2, 32], [2] * 6, [4, 4, 4]))


def test_generators_are_greedy_and_certified():
    sizes = []
    for ring in _generator_pool():
        N, I, r = dense(ring), ring.unit_index, ring.rank
        S = fusion_ring._generators(ring)
        steps, reached = generation_certificate(N, I, S)
        assert reached == set(range(r)), ring
        # each generator is the smallest label the earlier ones leave out
        for i, g in enumerate(S):
            assert g == min(set(range(r)) - generation_certificate(N, I, S[:i])[1]), ring
        # each joined c is x.y less labels joined before it
        G = {I, *S}
        for c, x, y in steps:
            rest = N[x, y].copy()
            rest[c] -= 1
            assert {x, y} <= G and c not in G and N[x, y, c] == 1 and set(np.flatnonzero(rest).tolist()) <= G
            G.add(c)
        sizes.append(len(S))
    # one generator (Z64, SU(2)_k), several, and every label but the unit
    assert {1, 2, 6}.issubset(sizes), collections.Counter(sizes)


def _witness_holds(T, a, b, c, d):
    """Whether d occurs differently in (a.b).c and (c.b).a = a.(b.c)."""
    return (T[T[a, b], c] == d) != (T[T[c, b], a] == d)


def test_the_full_join_never_runs_on_a_valid_rank_256_group_ring(monkeypatch):
    # (Z/2)^8 needs eight generators besides 0 and Z16 x Z16 two; the
    # restricted join runs on at most log2 r rows, the unit's not among them
    join, middles = fusion_ring._associativity_witnesses, []

    def restricted(ring, limit, middle=None):
        assert middle is not None, "the full join ran on a valid group ring"
        middles.append(middle)
        return join(ring, limit, middle)

    tables = [_group_table([2] * 8), _group_table([16, 16])]
    with monkeypatch.context() as patch:
        patch.setattr(fusion_ring, "_associativity_witnesses", restricted)
        for T in tables:
            assert validate_fusion_ring(_table_ring(T)).ok
    assert middles == [[1, 2, 4, 8, 16, 32, 64, 128], [1, 16]]
    rng = random.Random(256)
    for T in tables:
        T = _tamper_table(T, rng, [(3, 5)])
        ring = _table_ring(T)
        witnesses = [v.witness for v in validate_fusion_ring(ring).violations if v.kind == "AssociativityViolation"]
        assert len(witnesses) == 10 and witnesses == fusion_ring._associativity_witnesses(ring, 10)
        assert all(_witness_holds(T, *w) for w in witnesses)


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
        found = [(v.witness, v.detail) for v in validate_fusion_ring(ring_from_dense(mult, dual=dual)).violations
                 if v.kind == "DualityViolation"]
        assert found == brute_duality_violations(mult.tolist(), dual, 0)


def test_fibonacci_ring_is_valid():
    # e.e = 1 + e: noninvertible but perfectly associative
    fusion = [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 1]]
    ring = FusionRing(labels=["1", "t"], unit_index=0, fusion=fusion, dual=[0, 1])
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


@pytest.mark.parametrize("orders", [[2] * 8, [2, 128]])
def test_fpdim_of_rank_256_group_rings(orders):
    elements = list(itertools.product(*map(range, orders)))
    at = {x: i for i, x in enumerate(elements)}
    add = [[at[tuple((a + b) % n for a, b, n in zip(x, y, orders))] for y in elements] for x in elements]
    inverse = [at[tuple(-a % n for a, n in zip(x, orders))] for x in elements]
    total, vec = fpdim(group_ring([str(x) for x in elements], np.array(add), 0, inverse))
    assert abs(total - 256) < 1e-9 and np.allclose(vec, 1, rtol=0, atol=1e-9)


def test_fpdim_raises_when_no_vector_is_a_character():
    # no entries: N = 0, so no vector with FPdim(1) = 1 is a character
    with pytest.raises(ArithmeticError):
        fpdim(FusionRing(["1", "x"], 0, [], [0, 1]))


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
