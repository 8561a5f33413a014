import random
from fractions import Fraction

import pytest

from conftest import premodular_form, with_entries
from premodular.cyclotomic import ONE, from_rational, make_root
from premodular.data import classify_degeneracy, validate_premodular
from premodular.errors import CrossCheckMismatch, NotSlightlyDegenerate
from premodular.klein import eta_scalar, extension_verdict, kappa_invariants
from premodular.metric_groups import (
    from_gram,
    random_slightly_degenerate,
    to_premodular,
)


def verdict(data):
    return extension_verdict(data, classify_degeneracy(data))


def test_eta_examples():
    svec = premodular_form("svec")
    assert eta_scalar(svec, "(0)") == ONE
    assert eta_scalar(svec, "(1)") == from_rational(-1)

    ising = premodular_form("ising:1")
    assert eta_scalar(ising, "1") == ONE
    assert eta_scalar(ising, "sigma") == make_root(1, 16) * (make_root(1, 8) + make_root(-1, 8))


def test_kappa_on_svec():
    rep = kappa_invariants(premodular_form("svec"))
    assert rep.n_self_dual == 2 and rep.n_e_twisted == 0
    assert rep.kappa_plus == rep.kappa_minus == Fraction(1)
    assert rep.verdict == "extension_exists_S"


def test_kappa_on_svec_x_semion():
    rep = kappa_invariants(premodular_form("svec-x-semion"))
    # oracle: pointed self-duality means 2-torsion; all 4 elements of
    # Z2 x Z2 are 2-torsion
    assert rep.n_self_dual == 4
    assert (rep.kappa_plus, rep.kappa_minus) == (Fraction(2), Fraction(2))


def test_kappa_on_z2_x_z4():
    mg = from_gram([2, 4], [Fraction(1, 2), Fraction(1, 8)])
    rep = kappa_invariants(to_premodular(mg))
    # oracle: #2-torsion in Z2 x Z4 is 2 * 2 = 4
    assert rep.n_self_dual == 4 and rep.n_e_twisted == 0
    assert (rep.kappa_plus, rep.kappa_minus) == (Fraction(2), Fraction(2))


def test_tampered_twists_fail_the_twist_identity():
    # Z2 x Z4 with fermion e = (1,0); give a = (0,1) and e.a = (1,1) the
    # same twist while s keeps its valid entries, so the classification
    # still finds the fermion but theta_{e.a} = -theta_a fails
    data = to_premodular(from_gram([2, 4], [Fraction(1, 2), Fraction(1, 8)]))
    a, ea = data.ring.index("(0,1)"), data.ring.index("(1,1)")
    twists = list(data.twists)
    twists[ea] = twists[a]
    data = type(data).from_values(data.ring, data.dims, twists, [list(row) for row in data.s])
    assert classify_degeneracy(data).fermion == "(1,0)"
    assert not validate_premodular(data).ok
    with pytest.raises(CrossCheckMismatch, match="twist identity"):
        kappa_invariants(data)
    with pytest.raises(CrossCheckMismatch, match="twist identity"):
        verdict(data)


def test_fermion_product_that_is_not_simple_fails_the_cross_check():
    # Z2 x Z4 with fermion e = (1,0); give e.(0,1) multiplicity 2 in the
    # fusion tensor while s and the dims, which the classification reads,
    # keep their valid entries
    data = to_premodular(from_gram([2, 4], [Fraction(1, 2), Fraction(1, 8)]))
    e, a, ea = (data.ring.index(x) for x in ("(1,0)", "(0,1)", "(1,1)"))
    data.ring = with_entries(data.ring, [e, a, ea, 2])
    assert classify_degeneracy(data).fermion == "(1,0)"
    with pytest.raises(CrossCheckMismatch, match=r"product of \(1,0\) and \(0,1\) is not simple"):
        kappa_invariants(data)


def test_kappa_requires_a_fermion():
    with pytest.raises(NotSlightlyDegenerate):
        kappa_invariants(premodular_form("semion"))


def test_verdicts():
    v = verdict(premodular_form("svec"))
    assert v.code == "extension_exists_S"
    assert v.kappa is not None and v.kappa.kappa_minus == 1

    assert verdict(premodular_form("semion")).code == "already_nondegenerate"

    z4 = to_premodular(from_gram([4], [Fraction(1, 4)]))
    assert verdict(z4).code == "outside_scope"


def test_random_pointed_cross_check_properties():
    rng = random.Random(20240817)
    for _ in range(25):
        mg = random_slightly_degenerate(rng, max_order=32)
        data = to_premodular(mg)
        cls = classify_degeneracy(data)
        assert cls.kind.value == "slightly_degenerate"
        rep = kappa_invariants(data)  # raises CrossCheckMismatch if the twist identity fails
        assert rep.n_e_twisted == 0
        assert rep.kappa_minus >= Fraction(1, 2)
        # eta symmetry and the fermion sign
        for a, lab in enumerate(data.labels):
            assert eta_scalar(data, lab) == eta_scalar(data, data.labels[data.ring.dual[a]])
        assert eta_scalar(data, cls.fermion) == from_rational(-1)


@pytest.mark.parametrize("name", ["svec", "rep-z2", "semion", "toric", "three-fermion",
                                  "svec-x-semion", "z4-q:1", "ising:1", "ising:9"])
def test_eta_symmetry_on_catalog(name):
    data = premodular_form(name)
    for a, lab in enumerate(data.labels):
        assert eta_scalar(data, lab) == eta_scalar(data, data.labels[data.ring.dual[a]])
