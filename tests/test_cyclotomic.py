import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from premodular.cyclotomic import CycNum, ONE, ZERO, _reduce, cyclotomic_poly, euler_phi, from_rational, make_root
from premodular.serialize import premodular_from_json

import oracles
from oracles import FractionCycNum

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


@pytest.mark.parametrize("n", [1, 2, 15, 16, 30, 48, 60, 105, 128, 8192])
def test_reduction_keeps_the_value_at_the_root(n):
    # oracle: the polynomial and its reduction, both evaluated at zeta_n
    # in doubles term by term, with no use of Phi_n
    rng = random.Random(n)
    roots = [cmath.exp(2j * cmath.pi * k / n) for k in range(n)]
    for length in [rng.randint(1, 2 * n + 1) for _ in range(4)] + [2 * n + 1]:
        poly = [rng.randint(-9, 9) for _ in range(length)]
        reduced = _reduce(poly, n)
        assert len(reduced) == euler_phi(n) and all(type(c) is int for c in reduced)
        direct = math.fsum(c * roots[k % n].real for k, c in enumerate(poly)) \
            + 1j * math.fsum(c * roots[k % n].imag for k, c in enumerate(poly))
        value = sum(c * roots[k] for k, c in enumerate(reduced))
        assert abs(value - direct) <= 1e-9 * (1 + sum(map(abs, poly)) + sum(map(abs, reduced)))


def test_cyclotomic_poly_matches_the_division_oracle():
    for n in range(1, 513):
        assert cyclotomic_poly(n) == oracles.cyclotomic_poly(n), n


@pytest.mark.parametrize("n", [2730, 4095, 6006, 7560, 8186, 8190, 8191, 8192])
def test_cyclotomic_poly_at_large_conductors(n):
    # oracle: x^n - 1 is the product of Phi_d over the divisors d of n, at
    # x = 2 and x = 3 in exact integers
    phi = cyclotomic_poly(n)
    assert len(phi) == euler_phi(n) + 1 and phi[-1] == 1
    for x in (2, 3):
        product = math.prod(sum(c * x**k for k, c in enumerate(cyclotomic_poly(d)))
                            for d in range(1, n + 1) if n % d == 0)
        assert product == x**n - 1


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
    obj = {"labels": ["1"], "unit": 0, "dual": [0], "fusion": [[0, 0, 0, 1]],
           "dims": [x.to_json()], "twists": [ONE.to_json()]}
    y = premodular_from_json(obj).dims[0]
    assert y.conductor == x.conductor and y.coeffs == x.coeffs


def test_conjugation_is_an_involution_and_fixes_rationals():
    x = make_root(5, 48) * 3 + from_rational(Fraction(2, 7))
    assert x.conj().conj() == x
    assert from_rational(Fraction(2, 7)).conj() == from_rational(Fraction(2, 7))


def _assert_matches(x: CycNum, oracle: FractionCycNum):
    """x is in normal form and equals the oracle coefficient for coefficient."""
    assert x.den > 0 and math.gcd(x.den, *x.num) == 1
    assert len(x.num) == euler_phi(x.conductor)
    assert x.den == 1 or not x.is_zero()
    assert (x.conductor, x.coeffs) == (oracle.n, oracle.coeffs)
    assert x.to_json() == oracle.to_json()


@given(cycnums(), cycnums(), st.sampled_from(CONDUCTORS))
@settings(max_examples=150, deadline=None)
def test_integer_kernel_matches_the_fraction_oracle(x, y, k):
    fx, fy = FractionCycNum(x.conductor, x.coeffs), FractionCycNum(y.conductor, y.coeffs)
    _assert_matches(x, fx)
    m = x.conductor * k
    _assert_matches(x.lift(m), fx.lift(m))
    _assert_matches(x + y, fx + fy)
    _assert_matches(x - y, fx - fy)
    _assert_matches(x * y, fx * fy)
    _assert_matches(-x, -fx)
    _assert_matches(x.conj(), fx.conj())
    if not x.is_zero():
        _assert_matches(x.inverse(), fx.inverse())
    assert (x == y) == (fx == fy)
    assert x.lift(m) == x and (x - x).is_zero() and (x - x).den == 1


def test_from_rational_takes_only_exact_rationals():
    assert from_rational(3) == CycNum(1, [3])
    assert from_rational(Fraction(-2, 6)) == CycNum(1, [-1], 3)
    # 0.1 would be a 2^-55 binary fraction and "1e-3" a decimal string
    for bad in (0.1, 1.0, True, "1e-3", "1/2"):
        with pytest.raises(TypeError):
            from_rational(bad)


def test_coefficients_must_be_exact():
    assert CycNum(4, [1, Fraction(1, 2)]) == CycNum(4, [2, 1], 2)
    for bad in (0.5, 1.0, True, False, "1"):
        with pytest.raises(TypeError):
            CycNum(4, [bad, 0])
