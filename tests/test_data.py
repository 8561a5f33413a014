from fractions import Fraction

import pytest

from conftest import premodular_form
from premodular.cyclotomic import ONE, from_rational, make_root
from premodular.data import (
    CentreKind,
    classify_degeneracy,
    framed_s_entry,
    gauss_sum,
    mueger_centre,
    relative_centralizer,
    validate_premodular,
)
from premodular.errors import NotASubcategory
from premodular.fusion_ring import dual_permutation_matrix
from premodular.metric_groups import from_gram, to_premodular


def svec_data():
    return to_premodular(from_gram([2], [Fraction(1, 2)]))


def test_svec_validates_with_synthesized_s():
    data = svec_data()
    fresh = type(data)(ring=data.ring, conductor=data.conductor,
                       dims=data.dims, twists=data.twists, s=None)
    rep = validate_premodular(fresh)
    assert rep.ok
    # the fermion line is invisible to everything: s = all-ones
    assert all(fresh.s[a][b] == ONE for a in range(2) for b in range(2))


def test_dimension_character_violation():
    data = svec_data()
    bad = type(data)(ring=data.ring, conductor=data.conductor,
                     dims=[data.dims[0], from_rational(2)], twists=data.twists, s=None)
    rep = validate_premodular(bad)
    assert not rep.ok
    assert "DimensionCharacterViolation" in rep.kinds()


def test_zero_scalars_are_reported_not_raised():
    data = svec_data()
    bad = type(data)(ring=data.ring, conductor=data.conductor,
                     dims=data.dims, twists=[data.twists[0], from_rational(0)], s=None)
    rep = validate_premodular(bad)
    assert "ZeroTwistViolation" in rep.kinds()

    bad = type(data)(ring=data.ring, conductor=data.conductor,
                     dims=[data.dims[0], from_rational(0)], twists=data.twists, s=None)
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
    tampered = [row[:] for row in data.s]
    tampered[1][1] = from_rational(-1)
    bad = type(data)(ring=data.ring, conductor=data.conductor,
                     dims=data.dims, twists=data.twists, s=tampered)
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

    semion = premodular_form("semion")
    centre = mueger_centre(semion)
    assert centre.ring.labels == ["(0)"]

    z4 = to_premodular(from_gram([4], [Fraction(1, 4)]))  # q(x) = x^2/4
    centre = mueger_centre(z4)
    assert centre.ring.labels == ["(0)", "(2)"]
    assert centre.twists[1] == ONE  # transparent boson


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
    N = data.ring.mult
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
