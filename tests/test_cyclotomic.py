import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from premodular.cyclotomic import CycNum, ONE, ZERO, euler_phi, from_rational, make_root
from premodular.serialize import _cycnum_from_json

CONDUCTORS = [1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 24, 48]

small_fractions = st.fractions(
    min_value=-6, max_value=6, max_denominator=12
)


@st.composite
def cycnums(draw, conductors=CONDUCTORS):
    n = draw(st.sampled_from(conductors))
    coeffs = draw(
        st.lists(small_fractions, min_size=euler_phi(n), max_size=euler_phi(n))
    )
    return CycNum(n, coeffs)


def test_make_root_identity_cases():
    assert make_root(1, 1) == ONE
    assert make_root(0, 1) == ONE
    assert make_root(1, 2) == from_rational(-1)


def test_sqrt2_from_eighth_roots():
    # oracle: 2 cos(pi/4)
    val = (make_root(1, 8) + make_root(-1, 8)).embed()
    assert abs(val - 2 * math.cos(math.pi / 4)) < 1e-12
    assert abs(val.imag) < 1e-12


def test_exponent_addition():
    assert make_root(1, 8) * make_root(1, 8) == make_root(1, 4)


def test_conjugation_inverts_the_root():
    assert make_root(3, 16).conj() == make_root(13, 16)


def test_cross_conductor_equality():
    z6, z3 = make_root(1, 6), make_root(1, 3)
    lhs = z6
    rhs = ONE + z3
    # oracle: complex embeddings agree, and the degree-bounded normal
    # forms at the common conductor agree exactly
    assert abs(lhs.embed() - rhs.embed()) < 1e-12
    assert lhs == rhs


def test_embed_reference_points():
    assert from_rational(1).embed() == 1.0 + 0.0j
    assert from_rational(-1).embed() == -1.0 + 0.0j
    z = make_root(1, 16).embed()
    assert abs(z.real - math.cos(math.pi / 8)) < 1e-14
    assert abs(z.imag - math.sin(math.pi / 8)) < 1e-14


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_root_power_round_trip_all_orders():
    # make_root(p,q)^q = 1 exactly for 1 <= p < q <= 64
    for q in range(1, 65):
        for p in range(1, q):
            assert make_root(p, q) ** q == ONE


@given(cycnums(), cycnums())
@settings(max_examples=60, deadline=None)
def test_lifting_commutes_with_arithmetic(x, y):
    m = math.lcm(x.conductor, y.conductor) * 2
    assert (x + y).lift(m) == x.lift(m) + y.lift(m)
    assert (x * y).lift(m) == x.lift(m) * y.lift(m)
    assert x.lift(m) == x


@given(cycnums())
@settings(max_examples=60, deadline=None)
def test_norm_is_nonnegative_real(x):
    z = (x * x.conj()).embed()
    assert abs(z.imag) < 1e-10
    assert z.real >= -1e-10


@given(cycnums())
@settings(max_examples=40, deadline=None)
def test_inverse_round_trip(x):
    if x.is_zero():
        return
    assert x * x.inverse() == ONE


@given(cycnums())
@settings(max_examples=60, deadline=None)
def test_embedding_is_a_homomorphism(x):
    # multiplying by a root rotates the embedding
    w = make_root(1, 12)
    assert cmath.isclose((x * w).embed(), x.embed() * w.embed(), abs_tol=1e-9)


@given(cycnums())
@settings(max_examples=60, deadline=None)
def test_json_round_trip_bit_exact(x):
    obj = x.to_json()
    y = _cycnum_from_json(obj)
    assert y.conductor == x.conductor and y.coeffs == x.coeffs


def test_conjugation_is_an_involution_and_fixes_rationals():
    x = make_root(5, 48) * 3 + from_rational(Fraction(2, 7))
    assert x.conj().conj() == x
    assert from_rational(Fraction(2, 7)).conj() == from_rational(Fraction(2, 7))
