import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
from conftest import premodular_form
from premodular.cyclotomic import ONE, CycNum, euler_phi, from_rational, make_root
from premodular.data import (
    CentreKind,
    PremodularData,
    classify_degeneracy,
    framed_s_entry,
    gauss_sum,
    mueger_centre,
    relative_centralizer,
    validate_premodular,
)
from premodular.errors import NotASubcategory
from premodular.fusion_ring import dual_permutation_matrix
from premodular.metric_groups import from_gram, random_slightly_degenerate, to_premodular


def svec_data():
    return to_premodular(from_gram([2], [Fraction(1, 2)]))


def test_svec_validates_with_synthesized_s():
    data = svec_data()
    fresh = type(data).from_values(data.ring, dims=data.dims, twists=data.twists, s=None)
    rep = validate_premodular(fresh)
    assert rep.ok
    # the fermion line is invisible to everything: s = all-ones
    assert all(fresh.s[a][b] == ONE for a in range(2) for b in range(2))


def test_dimension_character_violation():
    data = svec_data()
    bad = type(data).from_values(data.ring, dims=[data.dims[0], from_rational(2)],
                                 twists=data.twists, s=None)
    rep = validate_premodular(bad)
    assert not rep.ok
    assert "DimensionCharacterViolation" in rep.kinds()


def test_zero_scalars_are_reported_not_raised():
    data = svec_data()
    bad = type(data).from_values(data.ring, dims=data.dims,
                                 twists=[data.twists[0], from_rational(0)], s=None)
    rep = validate_premodular(bad)
    assert "ZeroTwistViolation" in rep.kinds()

    bad = type(data).from_values(data.ring, dims=[data.dims[0], from_rational(0)],
                                 twists=data.twists, s=None)
    rep = validate_premodular(bad)
    assert "ZeroDimViolation" in rep.kinds()


def test_ising_balancing_by_hand():
    data = premodular_form("ising:1")
    i_sigma, i_psi = 2, 1
    assert data.s[i_sigma][i_sigma].is_zero()
    d_sigma = make_root(1, 8) + make_root(-1, 8)
    assert data.s[i_sigma][i_psi] == -d_sigma
    # oracle: evaluate the balancing sum sum_c N^c theta_c d_c directly
    # for (sigma, psi): the only channel is sigma itself
    theta_sigma = data.twists[i_sigma]
    by_hand = theta_sigma.inverse() * (-1) * (theta_sigma * d_sigma)
    assert data.s[i_sigma][i_psi] == by_hand


def test_supplied_s_must_match_balancing():
    data = svec_data()
    tampered = [list(row) for row in data.s]
    tampered[1][1] = from_rational(-1)
    bad = type(data).from_values(data.ring, dims=data.dims, twists=data.twists, s=tampered)
    rep = validate_premodular(bad)
    assert "BalancingViolation" in rep.kinds()


def test_framed_entries():
    svec = svec_data()
    assert framed_s_entry(svec, "(1)", "(1)") == ONE

    semion = premodular_form("semion")
    assert framed_s_entry(semion, "(1)", "(1)") == from_rational(-1)

    ising = premodular_form("ising:1")
    assert framed_s_entry(ising, "sigma", "psi") == from_rational(-1)


def test_relative_centralizer():
    ising = premodular_form("ising:1")
    assert relative_centralizer(ising, {"1"}) == {"1", "psi", "sigma"}
    assert relative_centralizer(ising, {"1", "psi"}) == {"1", "psi"}

    semion = premodular_form("semion")
    assert relative_centralizer(semion, {"(0)", "(1)"}) == {"(0)"}

    with pytest.raises(NotASubcategory):
        relative_centralizer(ising, {"1", "sigma"})  # sigma^2 leaves the set
    with pytest.raises(NotASubcategory):
        relative_centralizer(ising, {"psi"})  # no unit


def test_mueger_centre():
    svec = svec_data()
    centre = mueger_centre(svec)
    assert centre.ring.labels == svec.ring.labels
    assert centre.twists == svec.twists
    assert validate_premodular(centre).ok

    semion = premodular_form("semion")
    centre = mueger_centre(semion)
    assert centre.ring.labels == ["(0)"]
    assert validate_premodular(centre).ok

    z4 = to_premodular(from_gram([4], [Fraction(1, 4)]))  # q(x) = x^2/4
    centre = mueger_centre(z4)
    assert centre.ring.labels == ["(0)", "(2)"]
    assert centre.twists[1] == ONE  # transparent boson
    assert validate_premodular(centre).ok


def test_classification():
    assert classify_degeneracy(svec_data()).kind is CentreKind.SLIGHTLY_DEGENERATE
    assert classify_degeneracy(svec_data()).fermion == "(1)"
    assert classify_degeneracy(premodular_form("ising:1")).kind is CentreKind.NONDEGENERATE
    z4 = to_premodular(from_gram([4], [Fraction(1, 4)]))
    cls = classify_degeneracy(z4)
    assert cls.kind is CentreKind.OTHER_DEGENERATE
    assert cls.fermion is None and cls.bosonic == 2


def test_rep_z2_is_tannakian_not_slightly_degenerate():
    cls = classify_degeneracy(premodular_form("rep-z2"))
    assert cls.kind is CentreKind.OTHER_DEGENERATE
    assert cls.bosonic == 2 and cls.fermionic == 0


MODULAR = ["semion", "semion-bar", "toric", "three-fermion",
           "z4-q:1", "z4-q:3", "z4-q:5", "z4-q:7",
           "ising:1", "ising:3", "ising:5", "ising:7",
           "ising:9", "ising:11", "ising:13", "ising:15"]


@pytest.mark.parametrize("name", MODULAR)
def test_gauss_sum_modulus_on_modular_entries(name):
    # |sum d^2 theta|^2 = sum d^2, exactly, when the centre is trivial
    data = premodular_form(name)
    assert classify_degeneracy(data).kind is CentreKind.NONDEGENERATE
    sigma = gauss_sum(data)
    total = None
    for d in data.dims:
        sq = d * d
        total = sq if total is None else total + sq
    assert sigma * sigma.conj() == total


@pytest.mark.parametrize("name", MODULAR)
def test_s_matrix_unitarity_identity(name):
    # exact unnormalized-S identities for modular data:
    #   s . s       = (sum d^2) C   (C the charge conjugation permutation)
    #   s . conj(s) = (sum d^2) Id
    # (the second follows from the first since conj(s) = C s)
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


@pytest.mark.parametrize("name", ["svec", "rep-z2", "semion", "toric", "svec-x-semion",
                                  "z4-q:1", "ising:1", "ising:7"])
def test_transparent_labels_match_centralizer_of_everything(name):
    data = premodular_form(name)
    assert set(classify_degeneracy(data).transparent) == relative_centralizer(data, set(data.labels))


@pytest.mark.parametrize("name", MODULAR + ["svec", "rep-z2", "svec-x-semion"])
def test_s_columns_are_ring_characters(name):
    # in any ribbon datum the Hopf-link column of b diagonalizes fusion:
    # s_{a,b} s_{a',b} = d_b sum_c N^c_{a,a'} s_{c,b}, exactly
    data = premodular_form(name)
    r = data.ring.rank
    N = oracles.dense(data.ring)
    # symmetry and the first row, which validation derives from balancing
    I = data.ring.unit_index
    for a in range(r):
        assert data.s[I][a] == data.dims[a], (name, a)
        for b in range(r):
            assert data.s[a][b] == data.s[b][a], (name, a, b)
    for b in range(r):
        for a in range(r):
            for a2 in range(a, r):
                lhs = data.s[a][b] * data.s[a2][b]
                rhs = None
                for c in range(r):
                    m = int(N[a, a2, c])
                    if m:
                        term = data.s[c][b] * m
                        rhs = term if rhs is None else rhs + term
                rhs = data.dims[b] * rhs
                assert lhs == rhs, (name, a, a2, b)


def _rep_s3():
    """The character ring of the symmetric group on three letters with
    trivial twists: a non-pointed datum with rational dims 1, 1, 2."""
    mult = np.zeros((3, 3, 3), dtype=np.int64)
    mult[0], mult[:, 0] = np.eye(3), np.eye(3)
    mult[1, 1, 0] = mult[1, 2, 2] = mult[2, 1, 2] = 1
    mult[2, 2, 0] = mult[2, 2, 1] = mult[2, 2, 2] = 1
    ring = oracles.ring_from_dense(mult, labels=["1", "sgn", "std"])
    return PremodularData.from_values(ring, [ONE, ONE, from_rational(2)], [ONE] * 3)


def _big_z2():
    """Z2 with d = 1 and theta = 2^70 sqrt(2), coefficients above 2^63,
    so its arrays hold Python ints; balancing gives s_{1,1} = 2^-141."""
    ring = to_premodular(from_gram([2], [Fraction(0)])).ring
    return PremodularData.from_values(ring, [ONE, ONE], [ONE, CycNum(8, [0, 2**70, 0, -2**70])])


BASES = ["svec", "rep-z2", "semion", "toric", "three-fermion", "svec-x-semion", "z4-q:1",
         "z4-q:3", "ising:1", "ising:7", "ising:13", "rep-s3", "big-z2", "random:3", "random:8"]


def _base(name):
    if name in ("rep-s3", "big-z2"):
        data = _rep_s3() if name == "rep-s3" else _big_z2()
        assert validate_premodular(data).ok
        return data
    if name.startswith("random:"):
        return to_premodular(random_slightly_degenerate(random.Random(int(name[7:])), max_order=16))
    data = premodular_form(name)
    return PremodularData.from_values(data.ring, list(data.dims), list(data.twists),
                                      [list(row) for row in data.s])


def _value(draw):
    """A CycNum at a small conductor, with small coefficients or with
    coefficients above 2^63."""
    n = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 15, 16, 30]))
    big = draw(st.booleans())
    coeffs = [draw(st.integers(-3, 3)) + (2**70 if big and k == 0 else 0) for k in range(euler_phi(n))]
    return CycNum(n, coeffs, draw(st.integers(1, 3)))


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_array_checks_match_the_cycnum_oracle(data):
    # valid and tampered data, s supplied or synthesized: the same
    # witnesses in the same order, the same synthesized s with the same
    # conductors, and the same transparent set
    base = _base(data.draw(st.sampled_from(BASES)))
    dims, twists, s = oracles.premodular_lists(base)
    r, dual = base.ring.rank, base.ring.dual
    a = data.draw(st.integers(0, r - 1))
    tamper = data.draw(st.sampled_from(["none", "dim", "twist", "dual pair", "s", "s pair", "unit"]))
    if tamper == "dim":
        dims[a] = _value(data.draw)
    elif tamper == "twist":
        twists[a] = _value(data.draw)
    elif tamper == "dual pair":
        # theta_a = theta_{a*} keeps the dual checks and breaks the rest
        twists[a] = twists[dual[a]] = _value(data.draw)
    elif tamper == "s":
        s[a][data.draw(st.integers(0, r - 1))] = _value(data.draw)
    elif tamper == "s pair":
        b = data.draw(st.integers(0, r - 1))
        s[a][b] = s[b][a] = _value(data.draw)
    elif tamper == "unit":
        dims[base.ring.unit_index] = _value(data.draw)
    if data.draw(st.booleans()):
        s = None
    datum = PremodularData.from_values(base.ring, dims, twists, s)
    report = validate_premodular(datum)
    expected, expected_s = oracles.validate_premodular_cycnum(base.ring, dims, twists, s)
    assert report.to_json() == expected.to_json()
    if datum.s is not None:
        synthesized = [list(row) for row in datum.s]
        assert synthesized == expected_s
        assert [[x.conductor for x in row] for row in synthesized] == [
            [x.conductor for x in row] for row in expected_s]
        assert classify_degeneracy(datum) == oracles.classify_degeneracy_cycnum(datum)


def test_coefficients_above_int64_run_on_python_ints():
    data = _big_z2()
    assert data.twists.num.dtype == object
    assert validate_premodular(data).ok
    assert data.s[1, 1] == from_rational(Fraction(1, 2**141))
    assert classify_degeneracy(data) == oracles.classify_degeneracy_cycnum(data)
    assert classify_degeneracy(data).transparent == ["(0)"]
