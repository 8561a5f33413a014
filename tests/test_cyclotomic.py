import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from premodular import cyclotomic
from premodular.cyclotomic import (CycArray, CycNum, ONE, ZERO, _reduce, cyclotomic_poly, euler_phi, from_rational,
                                   magnitude, make_root, map_rows, mul_rows, narrow)
from premodular.data import _unequal
from premodular.serialize import premodular_from_json

import oracles
from oracles import FractionCycNum

CONDUCTORS = [1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 24, 48]

small_fractions = st.fractions(
    min_value=-6, max_value=6, max_denominator=12
)


@st.composite
def cycnums(draw, conductors=CONDUCTORS, coefficients=small_fractions):
    n = draw(st.sampled_from(conductors))
    coeffs = draw(
        st.lists(coefficients, min_size=euler_phi(n), max_size=euler_phi(n))
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


# parts past 2^53, where converting each to a float before dividing would round twice
_COEFFICIENTS = st.one_of(st.just(0), st.integers(-3, 3), st.integers(2**60, 2**80), st.integers(-2**80, -2**60))


@st.composite
def cycnums_over_a_denominator(draw):
    n = draw(st.sampled_from(CONDUCTORS))
    coeffs = draw(st.lists(_COEFFICIENTS, min_size=euler_phi(n), max_size=euler_phi(n)))
    den = draw(st.one_of(st.integers(1, 12), st.integers(2**54, 2**70)))
    return CycNum(n, coeffs, den)


@given(cycnums_over_a_denominator())
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
def test_json_and_embed_match_the_fraction_route(x):
    assert x.to_json() == oracles.cycnum_to_json_by_fractions(x)
    z, w = x.embed(), oracles.cycnum_embed_by_fractions(x)
    assert (z.real.hex(), z.imag.hex()) == (w.real.hex(), w.imag.hex())


def test_json_and_embed_of_pinned_values():
    for x in (ZERO, ONE, from_rational(Fraction(-3, 6)), CycNum(8, [0, -2, 4, 0], 6), CycNum(3, [1, 1], 3)):
        assert x.to_json() == oracles.cycnum_to_json_by_fractions(x)
        assert x.embed() == oracles.cycnum_embed_by_fractions(x)
    assert CycNum(8, [0, -2, 4, 0], 6).to_json() == {"n": 8, "c": [["0", "1"], ["-1", "3"], ["2", "3"], ["0", "1"]]}


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


# radicals of three primes, and coefficients past 2^62, where mul_rows and
# map_rows compute on Python ints; the examples pin one coefficient of
# 2^63, which no int64 kernel holds, and a monomial inverse over 2^70
_WIDE_CONDUCTORS = [30, 60, 105]
_WIDE_COEFFICIENTS = st.one_of(small_fractions, st.integers(2**62, 2**70), st.integers(-2**70, -2**62))
_BIG = CycNum(105, [2**63] + [1] * (euler_phi(105) - 1))


@given(cycnums(_WIDE_CONDUCTORS, _WIDE_COEFFICIENTS), cycnums(_WIDE_CONDUCTORS, _WIDE_COEFFICIENTS),
       st.sampled_from([1, 2, 7]))
@example(_BIG, _BIG, 2)
@example(CycNum(60, [0, 0, 0, 2**70] + [0] * (euler_phi(60) - 4), 3), make_root(1, 105), 1)
@example(CycNum(30, [Fraction(1, 2)] + [2**62] * 7), ZERO, 1)
@example(from_rational(-2**69), ZERO, 1)
@settings(max_examples=30, deadline=None)
def test_kernel_route_matches_the_fraction_oracle_at_wide_conductors(x, y, k):
    fx, fy = FractionCycNum(x.conductor, x.coeffs), FractionCycNum(y.conductor, y.coeffs)
    m = x.conductor * k
    _assert_matches(x.lift(m), fx.lift(m))
    _assert_matches(x + y, fx + fy)
    _assert_matches(x * y, fx * fy)
    _assert_matches(x.conj(), fx.conj())
    if not x.is_zero():
        assert x * x.inverse() == ONE
        # the Fraction Euclid takes about 0.5 s on a dense value at 105, so
        # there it runs on the pinned one
        if x.conductor < 105 or x == _BIG:
            _assert_matches(x.inverse(), fx.inverse())


def test_every_dtype_choice_bounds_minus_2_63():
    # np.abs(-2^63) is -2^63 in int64; each kernel must still see 2^63
    low = np.array([-2**63, 5])
    assert magnitude(low) == 2**63 and magnitude(np.array([-2**63])) == 2**63
    assert narrow(low).dtype == np.int64 and narrow(low).tolist() == [-2**63, 5]
    # z_4^2 = -1, and z_6^2 = z_6 - 1: the result leaves int64
    assert _reduce(np.array([0, 0, -2**63]), 4) == (2**63, 0)
    assert _reduce([2**59, 0, 0, 0] * 17, 4) == (17 * 2**59, 0)  # z_4^4 = 1 folds 17 terms past 2^63
    assert map_rows(np.array([[-2**63]]), [2], 4).tolist() == [[2**63, 0]]
    assert mul_rows(np.array([[-2**63]]), np.array([[2]]), 1).tolist() == [[-2**64]]
    # a zero factor against an object-dtype factor that no int64 holds
    for a, b in ((np.array([[0, 0]]), np.array([[2**63, 1]], dtype=object)),
                 (np.array([[0, 0]]), np.array([[2**63, 0]], dtype=object))):
        assert mul_rows(a, b, 4).tolist() == mul_rows(b, a, 4).tolist() == [[0, 0]]
    got = CycArray.from_parts(6, [3], np.array([0, -2**63]), np.array([1, 1]), (1,))
    assert got.num.tolist() == [[2**63, -2**63]]
    # -2^63 / 1 against 0 / 2: scaling by 2 wraps to 0 in int64
    assert _unequal(np.array([[-2**63]]), 1, np.array([[0]]), 2).tolist() == [True]


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


@st.composite
def array_parts(draw):
    """(M, conductors, nums, dens): entries at divisors of M, their
    coefficients over denominators up to 12, some past int64."""
    M = draw(st.sampled_from([1, 12, 16, 60, 210, 2730]))
    divisors = [d for d in range(1, M + 1) if M % d == 0]
    conductors = draw(st.lists(st.sampled_from(divisors), max_size=3 if M == 2730 else 12))
    width = sum(map(euler_phi, conductors))
    bound = draw(st.sampled_from([3, 10**9, 10**30]))
    nums = draw(st.lists(st.integers(-bound, bound), min_size=width, max_size=width))
    dens = draw(st.lists(st.integers(1, 12), min_size=width, max_size=width))
    return M, conductors, nums, dens


@given(array_parts(), st.sampled_from([1, 40, 400, cyclotomic.BLOCK]), st.booleans())
@settings(max_examples=80, deadline=None)
def test_from_parts_matches_the_lift_per_conductor(parts, block, as_arrays):
    # a small BLOCK splits the rows into many blocks, down to one row each
    M, conductors, nums, dens = parts
    if as_arrays:
        nums, dens = np.array(nums, dtype=object), np.array(dens, dtype=object)
    saved, cyclotomic.BLOCK = cyclotomic.BLOCK, block
    try:
        got = CycArray.from_parts(M, conductors, nums, dens, (len(conductors),))
        want = oracles.cycarray_from_parts_by_conductor(M, conductors, nums, dens, (len(conductors),))
    finally:
        cyclotomic.BLOCK = saved
    assert (got.M, got.den, got.num.dtype) == (want.M, want.den, want.num.dtype)
    assert np.array_equal(got.num, want.num) and np.array_equal(got.conductor, want.conductor)
