import cmath
import math
import operator
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import premodular
from premodular import cyclotomic
from premodular.cyclotomic import (CycArray, CycNum, MINUS_ONE, ONE, ZERO, cyclotomic_poly, euler_phi, from_rational,
                                   magnitude, make_root, map_rows, mul_rows, narrow, power_rows, reduce_rows,
                                   reduction_growth)
from premodular.serialize import premodular_from_json

import oracles
from oracles import FractionCycNum, _unequal

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
    # every scalar constructor gives a value: a shape-() CycArray at its conductor
    for x in (make_root(3, 8), cyclotomic.root_sum([1, 2, 3], 4), from_rational(3), ZERO, ONE, MINUS_ONE,
              CycNum(12, [1, 0, 2, 0]), CycArray.from_values([make_root(1, 3), ONE])[1]):
        assert type(x) is CycArray and x.shape == () and x.M == x.conductor


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
        ZERO.inverse()


@pytest.mark.parametrize("n", [1, 2, 15, 16, 30, 48, 60, 105, 128, 8192])
def test_reduction_keeps_the_value_at_the_root(n):
    # oracle: the polynomial and its reduction, both evaluated at zeta_n
    # in doubles term by term, with no use of Phi_n
    rng = random.Random(n)
    roots = [cmath.exp(2j * cmath.pi * k / n) for k in range(n)]
    for length in [rng.randint(1, n) for _ in range(4)] + [n]:
        poly = [rng.randint(-9, 9) for _ in range(length)]
        reduced = tuple(map_rows(np.array(poly, dtype=object), np.arange(length), n).tolist())
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


def _assert_matches(x: CycArray, oracle):
    """x is in normal form and equals the oracle coefficient for
    coefficient: a value, held at its own conductor, against a
    FractionCycNum, or an array against a list of them, entry by entry
    (each read by index, at its own conductor)."""
    if isinstance(oracle, list):
        assert x.shape == (len(oracle),) and x.den > 0 and math.gcd(x.den, *x.num.ravel().tolist()) == 1
        for entry, want in zip(x, oracle):
            _assert_matches(entry, want)
        return
    assert x.shape == () and x.M == x.conductor
    assert x.den > 0 and math.gcd(x.den, *x.num.tolist()) == 1
    assert len(x.num) == euler_phi(x.M)
    assert x.den == 1 or not x.is_zero()
    assert (x.M, x.coeffs) == (oracle.n, oracle.coeffs)
    assert x.to_json() == oracle.to_json()


def _oracle(x: CycArray):
    """The FractionCycNum of a value, or the list of those of an array's
    entries."""
    return [_oracle(e) for e in x] if x.shape else FractionCycNum(x.M, x.coeffs)


@given(cycnums(), cycnums(), st.sampled_from(CONDUCTORS), st.lists(cycnums(), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_integer_kernel_matches_the_fraction_oracle(x, y, k, values):
    # values also as one array of mixed entry conductors, against x by
    # broadcasting and against itself reversed, entry by entry: each
    # result entry at the lcm of its operands' conductors
    fx, fy = _oracle(x), _oracle(y)
    _assert_matches(x, fx)
    m = x.M * k
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
    a, b = CycArray.from_values(values), CycArray.from_values(values[::-1])
    fa, fb = _oracle(a), _oracle(b)
    _assert_matches(a, [FractionCycNum(v.M, v.coeffs) for v in values])
    assert a.to_json() == [f.to_json() for f in fa]
    _assert_matches(a + x, [f + fx for f in fa])
    _assert_matches(x - a, [fx - f for f in fa])
    _assert_matches(a * x, [f * fx for f in fa])
    _assert_matches(a - b, [f - g for f, g in zip(fa, fb)])
    _assert_matches(a * b, [f * g for f, g in zip(fa, fb)])
    _assert_matches(-a, [-f for f in fa])
    _assert_matches(a.conj(), [f.conj() for f in fa])
    _assert_matches(a.lift(a.M * k), [f.lift(a.M * k) for f in fa])
    if all(not v.is_zero() for v in values):
        _assert_matches(a.inverse(), [f.inverse() for f in fa])
    assert (a == b) == all(f == g for f, g in zip(fa, fb))


# radicals of three primes, and coefficients past 2^62, where mul_rows and
# map_rows compute on Python ints; the examples pin one coefficient of
# 2^63, which no int64 kernel holds, and a monomial inverse over 2^70
_WIDE_CONDUCTORS = [30, 60, 105]
_WIDE_COEFFICIENTS = st.one_of(small_fractions, st.integers(2**62, 2**70), st.integers(-2**70, -2**62))
_BIG = CycNum(105, [2**63] + [1] * (euler_phi(105) - 1))


@given(cycnums(_WIDE_CONDUCTORS, _WIDE_COEFFICIENTS), cycnums(_WIDE_CONDUCTORS, _WIDE_COEFFICIENTS),
       st.sampled_from([1, 2, 7]), st.lists(cycnums(_WIDE_CONDUCTORS + [1, 8], _WIDE_COEFFICIENTS), min_size=1,
                                            max_size=3))
@example(_BIG, _BIG, 2, [_BIG, make_root(1, 3), MINUS_ONE])
@example(CycNum(60, [0, 0, 0, 2**70] + [0] * (euler_phi(60) - 4), 3), make_root(1, 105), 1, [_BIG, ZERO])
@example(CycNum(30, [Fraction(1, 2)] + [2**62] * 7), ZERO, 1, [from_rational(-2**69), make_root(1, 8)])
@example(from_rational(-2**69), ZERO, 1, [from_rational(2**64)])
@settings(max_examples=30, deadline=None)
def test_kernel_route_matches_the_fraction_oracle_at_wide_conductors(x, y, k, values):
    # values also as one array, on Python ints where a coefficient is
    # past int64, against x by broadcasting
    fx, fy = _oracle(x), _oracle(y)
    m = x.M * k
    _assert_matches(x.lift(m), fx.lift(m))
    _assert_matches(x + y, fx + fy)
    _assert_matches(x * y, fx * fy)
    _assert_matches(x.conj(), fx.conj())
    if not x.is_zero():
        assert x * x.inverse() == ONE
        # the Fraction Euclid takes about 0.5 s on a dense value at 105, so
        # there it runs on the pinned one
        if x.M < 105 or x == _BIG:
            _assert_matches(x.inverse(), fx.inverse())
    a = CycArray.from_values(values)
    fa = _oracle(a)
    _assert_matches(a, [FractionCycNum(v.M, v.coeffs) for v in values])
    _assert_matches(a + x, [f + fx for f in fa])
    _assert_matches(x * a, [fx * f for f in fa])
    _assert_matches(a * a, [f * f for f in fa])
    _assert_matches(a.conj(), [f.conj() for f in fa])
    if all(not v.is_zero() for v in values):
        assert a * a.inverse() == CycArray.from_values([ONE] * len(values))


@pytest.mark.parametrize("n", [6, 30, 210, 2730])
def test_reduction_from_the_highest_nonzero_row_matches_the_fraction_oracle(n):
    # the long division starts at the highest row holding a nonzero: rows
    # zero at and above phi(n), rows nonzero only below a middle column,
    # and dense rows, in one batch (which starts at the batch's highest
    # row) and one by one
    rng = random.Random(n)
    rows = [[rng.randint(-9, 9) if j < width else 0 for j in range(n)]
            for width in (euler_phi(n), n // 2, n) for _ in range(3)]
    expected = [[int(c) for c in FractionCycNum._reduce(n, row)] for row in rows]
    assert reduce_rows(np.array(rows, dtype=np.int64), n).tolist() == expected
    for row, value in zip(rows, expected):
        assert reduce_rows(np.array(row, dtype=np.int64), n).tolist() == value


@pytest.mark.parametrize("n, R, growth", [(2, 2, 4), (16, 2, 4), (6, 6, 8), (90, 30, 24), (30, 30, 24),
                                          (210, 210, 136), (420, 210, 136)])
def test_power_rows_are_the_reduced_identity_and_give_the_growth(n, R, growth):
    # x^j mod Phi_R for phi(R) <= j < R = rad(n) are the rows of the
    # table of the z_R^j below its identity; the growth is twice the
    # table's largest column sum of magnitudes
    table = oracles.root_table(R)
    assert np.array_equal(np.array(list(power_rows(n))), table[euler_phi(R):])
    assert reduction_growth(n) == 2 * np.abs(table).sum(axis=0).max() == growth


_ROOTS_AT_8190 = """
import math, time
from premodular.cyclotomic import make_root
ks = [k for k in range(1, 1728) if math.gcd(k, 8190) == 1][:20]
start = time.process_time()
roots = [make_root(k, 8190) for k in ks]
seconds = time.process_time() - start
assert all(z.num[k] == 1 and sum(map(abs, z.num)) == 1 for k, z in zip(ks, roots))
print(seconds)
"""


def _one_cpu_second():
    resource.setrlimit(resource.RLIMIT_CPU, (1, 1))


def test_roots_at_conductor_8190_stay_within_a_cpu_second():
    # z^k for k below phi(8190) = 1728 is already in the power basis, so
    # the division by Phi_2730 has no row to start from; when it ran all
    # 2,154 of its statements, these 20 roots took about a CPU second
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(premodular.__file__)))
    proc = subprocess.run([sys.executable, "-c", _ROOTS_AT_8190], capture_output=True, text=True, env=env,
                          timeout=120, preexec_fn=_one_cpu_second)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 0.3, proc.stdout


def test_every_dtype_choice_bounds_minus_2_63():
    # np.abs(-2^63) is -2^63 in int64; each kernel must still see 2^63
    low = np.array([-2**63, 5])
    assert magnitude(low) == 2**63 and magnitude(np.array([-2**63])) == 2**63
    assert narrow(low).dtype == np.int64 and narrow(low).tolist() == [-2**63, 5]
    # z_4^2 = -1, and z_6^2 = z_6 - 1: the result leaves int64
    assert map_rows(np.array([0, 0, -2**63]), np.arange(3), 4).tolist() == [2**63, 0]
    assert map_rows(np.array([[-2**63]]), [2], 4).tolist() == [[2**63, 0]]
    assert mul_rows(np.array([[-2**63]]), np.array([[2]]), 1).tolist() == [[-2**64]]
    # a zero factor against an object-dtype factor that no int64 holds
    for a, b in ((np.array([[0, 0]]), np.array([[2**63, 1]], dtype=object)),
                 (np.array([[0, 0]]), np.array([[2**63, 0]], dtype=object))):
        assert mul_rows(a, b, 4).tolist() == mul_rows(b, a, 4).tolist() == [[0, 0]]
    got = CycArray.from_parts(6, [3], np.array([0, -2**63]), np.array([1, 1]), (1,))
    assert got.num.tolist() == [[2**63, -2**63]]
    # -2^63 / 1 against 0 / 2: scaling by 2 wraps to 0 in int64 (the exact oracle's comparison)
    assert _unequal(np.array([[-2**63]]), 1, np.array([[0]]), 2).tolist() == [True]
    # residues of -2^63, at the edge of int64, equal those of the same value as a Python int
    p = cyclotomic.split_primes(4, 1, 1)[0]
    assert (cyclotomic.residues(np.array([[-2**63, 5]]), 4, p)
            == cyclotomic.residues(np.array([[-2**63, 5]], dtype=object), 4, p)).all()


def test_from_rational_takes_only_exact_rationals():
    assert from_rational(3) == CycNum(1, [3])
    assert from_rational(Fraction(-2, 6)) == CycNum(1, [-1], 3)
    # 0.1 would be a 2^-55 binary fraction and "1e-3" a decimal string
    for bad in (0.1, 1.0, True, "1e-3", "1/2"):
        with pytest.raises(TypeError):
            from_rational(bad)


def test_booleans_and_floats_are_refused_by_every_operator():
    # one coercion rule: an int or a Fraction is a value at conductor 1,
    # anything else makes an operator raise TypeError and == False; there
    # is no division, and a negative power raises before any loop
    z = make_root(1, 8)
    for x in (z, CycArray.from_values([z, ONE])):
        for bad in (True, False, 0.5, 1.0, "1"):
            for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.pow):
                with pytest.raises(TypeError):
                    op(x, bad)
                with pytest.raises(TypeError):
                    op(bad, x)
            assert (x == bad) is False and (x != bad) is True
        assert x * 1 == x and x + Fraction(0) == x and (x == 1) is False
        for y in (z, ONE, 1, Fraction(1, 2), x):
            with pytest.raises(TypeError):
                x / y
            with pytest.raises(TypeError):
                y / x
        for k in (-1, -2**70):
            with pytest.raises(ValueError, match="negative"):
                x ** k
        assert x ** 0 == (CycArray.from_values([ONE] * len(x)) if x.shape else ONE)
        assert x ** 3 == x * x * x


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


@pytest.mark.parametrize("M", [1, 2, 3, 4, 6, 12, 16, 30, 64, 105, 210, 2310, 8190, 8192])
def test_residues_are_a_ring_map_that_conjugation_reverses(M):
    # products go to entrywise products and conj to the reversed units,
    # on dense and on sparse arrays (each takes its own evaluation) and
    # on Python ints past int64
    rng, phi = np.random.default_rng(M), euler_phi(M)
    p, rows = cyclotomic.split_primes(M, 1, 1)[0], 40 if phi <= 64 else 3
    conj = -np.arange(phi) % M
    for density in (1.0, 0.02):
        a = rng.integers(-5, 6, (rows, phi)) * (rng.random((rows, phi)) < density)
        b = rng.integers(-5, 6, (rows, phi))
        ra, rb = cyclotomic.residues(a, M, p), cyclotomic.residues(b, M, p)
        assert (ra * rb % p == cyclotomic.residues(mul_rows(a, b, M), M, p)).all()
        assert (cyclotomic.residues(map_rows(a, conj, M), M, p) == ra[:, ::-1]).all()
        big = a.astype(object) * (2**70 + 1)
        assert (cyclotomic.residues(big, M, p) == ra * ((2**70 + 1) % p) % p).all()
