import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
from conftest import premodular_form
from premodular.components import _exact_group_characters, _numeric_characters, ring_characters
from premodular.data import classify_degeneracy, relative_centralizer
from premodular.fusion_ring import fpdim
from premodular.metric_groups import from_gram, to_premodular


def characters(data, seed=0):
    return ring_characters(data, classify_degeneracy(data), seed=seed)


def test_semion_single_component():
    comp = characters(premodular_form("semion"))
    assert comp.count == 1
    assert comp.characters == [{"(0)": comp.characters[0]["(0)"]}]
    assert abs(comp.characters[0]["(0)"] - 1) < 1e-12
    assert comp.dim_index == 0 and comp.magnetic_index is None


def test_svec_two_components_with_magnetic():
    comp = characters(premodular_form("svec"))
    assert comp.count == 2
    values_at_e = sorted(round(chi["(1)"].real) for chi in comp.characters)
    assert values_at_e == [-1, 1]
    assert comp.magnetic_index is not None
    assert abs(comp.characters[comp.magnetic_index]["(1)"] + 1) < 1e-9
    assert abs(comp.characters[comp.dim_index]["(1)"] - 1) < 1e-9


def test_tannakian_boson_has_no_magnetic_character():
    z4 = to_premodular(from_gram([4], [Fraction(1, 4)]))
    comp = characters(z4)
    assert comp.count == 2
    vals = sorted(round(chi["(2)"].real) for chi in comp.characters)
    assert vals == [-1, 1]
    assert comp.magnetic_index is None


@pytest.mark.parametrize("name", ["svec", "rep-z2", "semion", "toric", "three-fermion",
                                  "svec-x-semion", "z4-q:1", "ising:1", "ising:15"])
def test_count_agreement_and_dim_character(name):
    data = premodular_form(name)
    comp = characters(data)
    trans = relative_centralizer(data, set(data.labels))
    assert comp.count == len(trans) == len(comp.characters)
    _, fp = fpdim(data.ring)
    fp_by_label = dict(zip(data.labels, fp))
    dim_chi = comp.characters[comp.dim_index]
    for lab in trans:
        assert abs(dim_chi[lab] - fp_by_label[lab]) < 1e-8


@pytest.mark.parametrize("name", ["svec", "svec-x-semion", "rep-z2"])
def test_numeric_path_agrees_with_exact_group_characters(name):
    # the group-like data goes through the exact path; drive the numeric
    # solver directly on the same matrices and match the character sets
    data = premodular_form(name)
    comp = characters(data, seed=7)
    idx = [data.ring.index(lab) for lab in comp.labels]
    mats = [oracles.dense(data.ring)[a].T[np.ix_(idx, idx)].astype(float) for a in idx]
    numeric = _numeric_characters(mats, seed=7)
    numeric_sorted = sorted(
        tuple((round(z.real, 6), round(z.imag, 6)) for z in chi) for chi in numeric
    )
    exact_sorted = sorted(
        tuple((round(chi[lab].real, 6), round(chi[lab].imag, 6)) for lab in comp.labels)
        for chi in comp.characters
    )
    assert numeric_sorted == exact_sorted
    for chi_n, chi_e in zip(numeric_sorted, exact_sorted):
        for zn, ze in zip(chi_n, chi_e):
            assert abs(complex(*zn) - complex(*ze)) < 1e-10


def test_seed_is_recorded_and_deterministic():
    data = premodular_form("svec")
    a = characters(data, seed=123).to_json()
    b = characters(data, seed=123).to_json()
    assert a == b and a["seed"] == 123


def test_cyclic_order_four_transparent_subring():
    # q = 0 on Z4: everything transparent, characters are the fourth roots
    comp = characters(to_premodular(from_gram([4], [Fraction(0)])))
    assert comp.count == 4
    vals = sorted(
        (round(chi["(1)"].real, 9), round(chi["(1)"].imag, 9)) for chi in comp.characters
    )
    assert vals == [(-1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (1.0, 0.0)]
    assert comp.magnetic_index is None


def rep_s3_datum():
    """Symmetric rank-3 datum with a non-invertible simple: the character
    ring of the symmetric group on three letters, trivial twists."""
    import numpy as np

    from premodular.cyclotomic import ONE, from_rational
    from premodular.data import PremodularData, validate_premodular

    mult = np.zeros((3, 3, 3), dtype=np.int64)
    mult[0] = np.eye(3)
    mult[:, 0] = np.eye(3)
    mult[1, 1, 0] = 1
    mult[1, 2, 2] = mult[2, 1, 2] = 1
    mult[2, 2, 0] = mult[2, 2, 1] = mult[2, 2, 2] = 1
    ring = oracles.ring_from_dense(mult, labels=["1", "sgn", "std"])
    data = PremodularData.from_values(
        ring,
        dims=[ONE, ONE, from_rational(2)],
        twists=[ONE, ONE, ONE],
        s=None,
    )
    assert validate_premodular(data).ok
    return data


def test_numeric_path_on_non_invertible_transparent_subring():
    # trivial twists make every simple transparent, and "std" is not
    # invertible, so this exercises the generic eigensolve end to end
    data = rep_s3_datum()
    comp = characters(data, seed=3)
    assert comp.count == 3
    cols = sorted(
        tuple(round(chi[lab].real) for lab in ("1", "sgn", "std"))
        for chi in comp.characters
    )
    assert cols == [(1, -1, 0), (1, 1, -1), (1, 1, 2)]
    dim_chi = comp.characters[comp.dim_index]
    assert abs(dim_chi["std"] - 2) < 1e-8
    assert comp.magnetic_index is None


ABELIAN_SHAPES = [[1], [2], [5], [2, 2], [2, 4], [3, 3], [8], [2, 2, 2], [4, 4], [5, 5], [3, 9],
                  [2, 2, 2, 2, 2, 2], [6, 10], [2, 4, 8], [4, 4, 4], [64]]


@pytest.mark.parametrize("orders", ABELIAN_SHAPES, ids=lambda o: "x".join(map(str, o)))
def test_exact_characters_are_all_the_characters(orders):
    # |Hom(G, Q/Z)| = |G|, so n distinct multiplicative maps are all of
    # them; the product table is shuffled so that no element order helps
    rng = random.Random(math.prod(orders) * 31 + len(orders))
    elems = list(itertools.product(*(range(k) for k in orders)))
    rng.shuffle(elems)
    pos = {x: i for i, x in enumerate(elems)}
    prod = [[pos[tuple((a + b) % k for a, b, k in zip(x, y, orders))] for y in elems] for x in elems]
    n = len(elems)
    chars = _exact_group_characters(prod)
    assert len(chars) == n
    # every value has order dividing n, so n chi is an integer table
    assert all(0 <= v < 1 and (n * v).denominator == 1 for chi in chars for v in chi)
    V = np.array([[int(n * v) for v in chi] for chi in chars], dtype=np.int64)
    assert len(np.unique(V, axis=0)) == n
    assert ((V[:, :, None] + V[:, None, :]) % n == V[:, np.array(prod)]).all()
