"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value is a vector of rationals in the power basis 1, z, ..., z^(phi(N)-1)
of Q[x]/Phi_N(x), where Phi_N is the N-th cyclotomic polynomial, stored as
integer numerators `num` over one positive `den` with gcd(den, *num) == 1
(zero has den == 1).  Phi_N is monic, so arithmetic runs on integers;
Fractions appear only in `coeffs`, for display; JSON and `embed` work
from `num` and `den`.  The conductor N is fixed per value;
mixed-conductor arithmetic lifts both operands to the lcm via the ring
map z_N -> z_M^(M/N).  Normal forms are unique at a fixed conductor, so
equality compares den and num after lifting to a common conductor.

There is one arithmetic, the array kernels reduce_rows, map_rows and
mul_rows, vectorized over the rows of an integer array (see reduce_rows
for the exactness bound).  CycArray holds many values at one conductor
M in the same normal form, as one such array.  A CycNum runs the same
kernels on its one row: lift, conj and the inverse of a monomial are a
map_rows, a product is a mul_rows, and _reduce, which reduces a
polynomial of any degree (root_sum, _descend and the end of
_inverse_euclid), folds it into one row for reduce_rows.  Only the
extended Euclid of CycNum.inverse stays a scalar algorithm: an inverse
by the norm, the product of the other Galois conjugates over N(x), was
measured slower at conductors 16, 30, 48 and 210.

CycArray.from_parts builds one from entries at any divisors of M with
one scatter of all their coefficients and one reduction per block of
rows.  Values given with their own denominators share one, their lcm,
which every entry carries: check_budget bounds the array's size counted
in 64-bit words, one a coefficient slot and one more for every 64 bits
of the denominator.

Phi_n is Phi_R(x^(n/R)) for the radical R of n, Phi_R a product of
binomials x^d - 1 and their inverses (cyclotomic_poly); it, euler_phi,
the radical and the descent to a smaller conductor all come from one
cached factorization (_primes).  No floating point enters any exact
path; `embed` is the only bridge to complex doubles.
"""

from __future__ import annotations

import cmath
import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

import numpy as np

from .errors import DatumTooLarge

__all__ = ["CycNum", "CycArray", "make_root", "root_sum", "from_rational", "euler_phi",
           "reduce_rows", "map_rows", "mul_rows", "exact_dtype", "magnitude", "narrow", "check_budget",
           "MAX_SLOTS", "ZERO", "ONE", "MINUS_ONE"]

# array values built at once by the array kernels: a few arrays of about
# this many entries are live at a time, and a product over a block of
# rows holds at most BLOCK / 2 int64 values, 128 KiB, glibc's default
# mmap threshold.  Above it each such temporary is mapped and faulted in
# afresh on every call (at 2^16, about 220 page faults per analyze of a
# group of order 64)
BLOCK = 2**15
# coefficient slots r^2 phi(M) of the arrays a premodular datum needs:
# every catalog entry and every linearized group (rank <= MAX_RANK,
# conductor <= 2 exp(A)) fits, the largest being Z_256 with q = x^2/512,
# 256^2 * phi(512) = 2^24; over a denominator of b bits, a slot counts
# as 1 + b // 64 of them (check_budget)
MAX_SLOTS = 2**24

@lru_cache(maxsize=None)
def _primes(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n, ascending: the one factorization
    behind euler_phi, cyclotomic_poly, _descend and every radical rad(n)
    = prod(_primes(n))."""
    out, m, p = [], n, 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return tuple(out)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError(f"conductor must be positive, got {n}")
    for p in _primes(n):
        n -= n // p
    return n


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, little-endian, length euler_phi(n)+1, monic.

    Phi_n(x) = Phi_R(x^(n/R)) for R = rad(n), and Phi_R is the product of
    (x^d - 1)^mu(R/d) over the divisors d of R: the factors with mu = 1
    are multiplied out, then those with mu = -1 divided out exactly, each
    product and quotient by a binomial costing one pass."""
    primes = _primes(n)
    R, poly, factors = prod(primes), [1], ([], [])  # the d with mu(R/d) = 1, and = -1
    for k in range(len(primes) + 1):
        for c in itertools.combinations(primes, k):
            factors[(len(primes) - k) % 2].append(prod(c))
    for d in factors[0]:
        poly = [a - b for a, b in zip([0] * d + poly, poly + [0] * d)]
    for d in factors[1]:
        # poly = (x^d - 1) q, so q[k] = q[k - d] - poly[k]
        q = [-c for c in poly[:len(poly) - d]]
        for k in range(d, len(q)):
            q[k] += q[k - d]
        poly = q
    out = [0] * ((len(poly) - 1) * (n // R) + 1)
    out[::n // R] = poly
    assert len(out) == euler_phi(n) + 1
    return tuple(out)


def _reduce(coeffs, n: int) -> tuple[int, ...]:
    """Reduce an integer polynomial (any degree) to the power basis at
    conductor n: its exponents folded mod n into one row (z_n^n = 1),
    then reduce_rows."""
    v = np.array(coeffs, dtype=object)
    fold = max(1, -(-len(v) // n))
    w = np.zeros(fold * n, dtype=exact_dtype(magnitude(v) * fold, reduction_growth(n)))
    w[:len(v)] = v
    return tuple(reduce_rows(w.reshape(fold, n).sum(axis=0), n).tolist())


def _map(values, cols, n: int) -> tuple[int, ...]:
    """sum_k values[k] z_n^cols[k] in the power basis at conductor n, for
    integer values and distinct cols below n: map_rows on one row."""
    return tuple(map_rows(np.array(values, dtype=object), cols, n).tolist())


def _normal(n: int, num, den: int) -> "CycNum":
    """num/den at conductor n in normal form (den != 0)."""
    g = gcd(den, *num) if den > 0 else -gcd(den, *num)
    if g != 1:
        num = tuple(c // g for c in num)
        den //= g
    return CycNum._raw(n, tuple(num), den)


class CycNum:
    """Element of Q(zeta_N), immutable: the power-basis coefficients are
    num[k] / den."""

    __slots__ = ("conductor", "num", "den")
    __hash__ = None  # equality crosses conductors; do not hash

    def __new__(cls, conductor: int, coeffs, den: int = 1):
        """The value with coefficients coeffs[k] / den, each an int or a
        Fraction; floats and booleans are refused."""
        coeffs = list(coeffs)
        if len(coeffs) != euler_phi(conductor):
            raise ValueError("coefficient vector length must be euler_phi(conductor)")
        if any(isinstance(c, bool) or not isinstance(c, (int, Fraction)) for c in coeffs):
            raise TypeError("CycNum coefficients must be int or Fraction")
        if not den:
            raise ZeroDivisionError("CycNum denominator is zero")
        common = lcm(*(c.denominator for c in coeffs))
        return _normal(conductor, [c.numerator * (common // c.denominator) for c in coeffs], den * common)

    def __setattr__(self, *a):
        raise AttributeError("CycNum is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _raw(conductor: int, num: tuple[int, ...], den: int) -> "CycNum":
        obj = object.__new__(CycNum)
        object.__setattr__(obj, "conductor", conductor)
        object.__setattr__(obj, "num", num)
        object.__setattr__(obj, "den", den)
        return obj

    # -- conductor handling ---------------------------------------------------

    def lift(self, m: int) -> "CycNum":
        """Lift to conductor m (self.conductor must divide m)."""
        n = self.conductor
        if m == n:
            return self
        if m % n != 0:
            raise ValueError(f"cannot lift conductor {n} to non-multiple {m}")
        # Z[zeta_m] meets Q(zeta_n) in Z[zeta_n], so lifting keeps the
        # content of the numerator and the result is in normal form
        return CycNum._raw(m, _map(self.num, np.arange(len(self.num)) * (m // n), m), self.den)

    @staticmethod
    def _common(a: "CycNum", b: "CycNum"):
        m = lcm(a.conductor, b.conductor)
        return a.lift(m), b.lift(m), m

    @staticmethod
    def _coerce(x) -> "CycNum":
        if isinstance(x, CycNum):
            return x
        if isinstance(x, (int, Fraction)):
            return from_rational(x)
        return NotImplemented

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        other = CycNum._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, m = CycNum._common(self, other)
        den = lcm(a.den, b.den)
        fa, fb = den // a.den, den // b.den
        return _normal(m, [x * fa + y * fb for x, y in zip(a.num, b.num)], den)

    __radd__ = __add__

    def __neg__(self):
        return CycNum._raw(self.conductor, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        other = CycNum._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return CycNum._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return _normal(self.conductor, [c * f.numerator for c in self.num], self.den * f.denominator)
        if not isinstance(other, CycNum):
            return NotImplemented
        a, b, m = CycNum._common(self, other)
        num = mul_rows(np.array(a.num, dtype=object), np.array(b.num, dtype=object), m)
        return _normal(m, num.tolist(), a.den * b.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = CycNum._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_one():
            return self
        return self * other.inverse()

    def __rtruediv__(self, other):
        return CycNum._coerce(other) / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def inverse(self) -> "CycNum":
        if self.is_zero():
            raise ZeroDivisionError("division by zero CycNum")
        n = self.conductor
        nz = [(i, c) for i, c in enumerate(self.num) if c]
        if len(nz) == 1:
            # (c/den) z^k inverts to (den/c) z^(n-k), since z^n = 1
            k, c = nz[0]
            return _normal(n, _map([self.den], [-k % n], n), c)
        return self._inverse_euclid()

    def _inverse_euclid(self) -> "CycNum":
        # fraction-free extended Euclid against Phi_n: each step keeps
        # t_i * num = r_i (mod Phi_n), divides each pair by its content,
        # and Phi_n is irreducible, so the chain ends at a constant r_1;
        # deg t_i <= phi - deg r_(1-i), so length phi + 1 holds every t
        n, phi = self.conductor, len(self.num)

        def deg(p):
            return max((i for i, c in enumerate(p) if c), default=-1)

        r0, r1 = list(cyclotomic_poly(n)), list(self.num) + [0]
        t0, t1 = [0] * (phi + 1), [1] + [0] * phi
        while (d1 := deg(r1)) > 0:
            d0 = deg(r0)
            if d0 < d1:
                r0, r1, t0, t1 = r1, r0, t1, t0
                continue
            g = gcd(r0[d0], r1[d1])
            f0, f1, shift = r1[d1] // g, r0[d0] // g, [0] * (d0 - d1)
            r0 = [f0 * x - f1 * y for x, y in zip(r0, shift + r1)]
            t0 = [f0 * x - f1 * y for x, y in zip(t0, shift + t1)]
            g = gcd(*r0, *t0)
            r0, t0 = [x // g for x in r0], [x // g for x in t0]
        if not r1[0]:
            raise ZeroDivisionError("division by zero CycNum")
        # t1 * num = r1[0] (mod Phi_n), so (num / den)^-1 = den * t1 / r1[0]
        return _normal(n, _reduce([self.den * t for t in t1], n), r1[0])

    def conj(self) -> "CycNum":
        """Complex conjugation, the Galois action z -> z^(-1)."""
        n = self.conductor
        if n <= 2:
            return self
        # an automorphism of Z[zeta_n] keeps the content: still normal
        return CycNum._raw(n, _map(self.num, -np.arange(len(self.num)) % n, n), self.den)

    # -- predicates and comparison -------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def __eq__(self, other):
        other = CycNum._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = (self, other) if self.conductor == other.conductor else CycNum._common(self, other)[:2]
        return a.den == b.den and a.num == b.num

    # -- embedding and display -------------------------------------------------

    def embed(self) -> complex:
        """Evaluate at zeta_N = exp(2*pi*i/N) in double precision."""
        n, den = self.conductor, self.den
        # int / int is correctly rounded, so c / den is float(Fraction(c, den))
        return sum(
            ((c / den) * cmath.exp(2j * cmath.pi * k / n) for k, c in enumerate(self.num) if c),
            complex(0),
        )

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                mono = f"z{self.conductor}" if k == 1 else f"z{self.conductor}^{k}"
                terms.append(mono if c == 1 else f"{c}*{mono}")
        return "CycNum(0)" if not terms else "CycNum(" + " + ".join(terms) + ")"

    # -- JSON -------------------------------------------------------------------

    def to_json(self) -> dict:
        """{"n": conductor, "c": [[num, den], ...]}, each coefficient in
        lowest terms (0 as 0/1), as strings."""
        den = self.den
        return {
            "n": self.conductor,
            "c": [[str(c // g), str(den // g)] for c in self.num for g in [gcd(c, den)]],
        }


@lru_cache(maxsize=None)
def _root_cached(num: int, den: int) -> CycNum:
    return CycNum._raw(den, _map([1], [num], den), 1)


def make_root(numerator: int, denominator: int) -> CycNum:
    """The root of unity exp(2*pi*i*numerator/denominator), in normal form
    at conductor denominator/gcd."""
    if denominator < 1:
        raise ValueError("denominator must be >= 1")
    e = numerator % denominator
    g = gcd(e, denominator)
    return _root_cached(e // g, denominator // g)


def root_sum(counts, n: int) -> CycNum:
    """sum_k counts[k] exp(2*pi*i*k/n) for integer counts, in normal form
    at conductor n."""
    return _normal(n, _reduce(counts, n), 1)


def from_rational(x) -> CycNum:
    """Embed an int or a Fraction at conductor 1; floats, booleans and
    strings are refused, as by CycNum."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"from_rational takes an int or a Fraction, got {type(x).__name__}")
    return CycNum._raw(1, (x.numerator,), x.denominator)


ZERO = from_rational(0)
ONE = from_rational(1)
MINUS_ONE = from_rational(-1)


# -- arrays of values at one conductor ------------------------------------------


@lru_cache(maxsize=None)
def _low_arrays(n: int):
    """The degrees i and the coefficients c, two int64 arrays, of the
    nonzero terms c x^i of Phi_n below the leading x^phi(n)."""
    low = np.array(cyclotomic_poly(n)[:-1], dtype=np.int64)
    deg = np.flatnonzero(low)
    return deg, low[deg]


@lru_cache(maxsize=None)
def reduction_growth(n: int) -> float:
    """G such that reduce_rows(v, n) is at most G max|v| in magnitude:
    with R = rad(n), G = 2 max_i sum_(j < R) |c_ij| for x^j = sum_i c_ij
    x^i mod Phi_R, the factor 2 for the fold.  The rows x^j (j >= phi(R))
    follow from x^(j-1) by one shift and one subtraction of Phi_R; inf if
    any leaves 2^31.  G depends only on rad(n): 4 when it is prime, 8
    for 6, 24 for 30, 136 for 210."""
    R = prod(_primes(n))
    phi, low = euler_phi(R), np.array(cyclotomic_poly(R)[:-1], dtype=np.int64)
    row = np.zeros(phi, dtype=np.int64)
    row[-1] = 1
    total = np.ones(phi, dtype=np.int64)  # x^j for j < phi is a unit vector
    for _ in range(R - phi):
        row = np.concatenate(([0], row[:-1])) - row[-1] * low
        if np.abs(row).max() >= 2**31:
            return float("inf")
        total += np.abs(row)
    return 2.0 * float(total.max())


def exact_dtype(bound: int, growth: float = 1.0):
    """int64 when bound * growth, a bound on every magnitude an array
    expression takes, is below 2^62 (the margin absorbs the rounding of
    a float growth), else object: the same expressions on Python ints."""
    return np.int64 if bound < 2.0**62 / growth else object


def check_budget(slots: int, den: int) -> None:
    """Raise DatumTooLarge if an array of this many coefficient slots
    over the denominator den is above MAX_SLOTS words: a scaled numerator
    is about as long as den, so a slot takes 1 + b // 64 words for a
    denominator of b bits."""
    words = slots * (1 + den.bit_length() // 64)
    if words > MAX_SLOTS:
        raise DatumTooLarge(f"{slots} coefficient slots over a denominator of {den.bit_length()} bits "
                            f"need {words} words, above the budget {MAX_SLOTS}")


def magnitude(a: np.ndarray) -> int:
    """The largest |entry| of an integer array, as a Python int: from the
    largest and the least entry, since np.abs wraps -2^63 to itself."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def narrow(a: np.ndarray) -> np.ndarray:
    """a in the narrowest of int8, int16, int32 and int64 that holds its
    values; an object array stays one.  Every kernel converts its
    operands to the dtype its own bound needs before any arithmetic, so
    a stored array need only hold its values."""
    if a.dtype != object:
        bound = magnitude(a)
        for dtype in (np.int8, np.int16, np.int32):
            if bound <= np.iinfo(dtype).max:
                return a.astype(dtype)
    return a


def reduce_rows(v: np.ndarray, n: int) -> np.ndarray:
    """The values sum_j v[..., j] z_n^j, for a last axis of length at most
    2n, in the power basis at conductor n: a (..., phi(n)) array of v's
    dtype.  v is scratch space: when its last axis has length n or more,
    the result is computed in it and is a view of it.

    Only additions, subtractions and products by integers occur, which
    int64 computes exactly modulo 2^64; so an int64 result is exact when
    the true one is below 2^63 in magnitude, as it is when
    reduction_growth(n) max|v| < 2^63, whatever values the long division
    passes through.  The same holds for the shifted adds of mul_rows.

    z_n^n = 1 folds the top half into place.  Then with R = rad(n) and
    t = n / R, Phi_n(x) = Phi_R(x^t), so for each u < t the coefficients
    of x^(t i + u) form a polynomial in x^t; all of them, over all
    entries, are long-divided by Phi_R at once, top coefficient first.
    """
    lead, L = v.shape[:-1], v.shape[-1]
    if L < n:
        w = np.zeros(lead + (n,), dtype=v.dtype)
        w[..., :L] = v
    else:
        w = v[..., :n]
        w[..., :L - n] += v[..., n:]
    R = prod(_primes(n))
    phi, (deg, coef) = euler_phi(R), _low_arrays(R)
    w = w.reshape(lead + (R, n // R))
    for k in range(R - 1, phi - 1, -1):
        w[..., k - phi + deg, :] -= coef[:, None] * w[..., k:k + 1, :]
    return w[..., :phi, :].reshape(lead + (euler_phi(n),))


def map_rows(v: np.ndarray, cols, n: int) -> np.ndarray:
    """The values sum_k v[..., k] z_n^cols[k] at conductor n, for distinct
    cols below n: a lift (cols = k n/m from conductor m) or the complex
    conjugation (cols = -k mod n), in blocks of about BLOCK values."""
    lead = v.shape[:-1]
    v = v.reshape(-1, v.shape[-1])
    v = v.astype(exact_dtype(magnitude(v), reduction_growth(n)), copy=False)
    out = np.empty((len(v), euler_phi(n)), dtype=v.dtype)
    step = max(1, BLOCK // n)
    for i in range(0, len(v), step):
        w = np.zeros((len(v[i:i + step]), n), dtype=v.dtype)
        w[:, cols] = v[i:i + step]
        out[i:i + step] = reduce_rows(w, n)
    return out.reshape(lead + (euler_phi(n),))


def mul_rows(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The entrywise products of the values a and b at conductor n,
    numerator arrays (..., phi(n)) broadcast against each other.

    The factor with fewer nonzeros drives shifted adds, each nonzero
    coefficient adding a scaled row of the other factor (a root of unity
    at a power-of-two conductor has one nonzero, so multiplying by it
    costs phi(n) per entry, not phi(n)^2); then one reduction.  Every
    coefficient before the reduction is a sum of at most phi(n) products,
    so the result is exact in int64 (see reduce_rows) when phi(n) max|a|
    max|b| reduction_growth(n) < 2^62, and computed on Python ints
    otherwise.  A factor
    whose values are all rational makes one shift, of 0, and nothing to
    reduce: it scales the other, in a dtype that holds both factors.
    """
    for x, y in ((a, b), (b, a)):
        if not x[..., 1:].any():
            dtype = exact_dtype(max(magnitude(x), 1) * max(magnitude(y), 1))
            return x[..., :1].astype(dtype, copy=False) * y.astype(dtype, copy=False)
    a, b = np.broadcast_arrays(a, b)
    shape, phi = a.shape, a.shape[-1]
    a, b = a.reshape(-1, phi), b.reshape(-1, phi)
    if np.count_nonzero(a) > np.count_nonzero(b):
        a, b = b, a
    dtype = exact_dtype(magnitude(a) * magnitude(b) * phi, reduction_growth(n))
    a, b = a.astype(dtype, copy=False), b.astype(dtype, copy=False)
    out = np.zeros((len(a), max(2 * phi - 1, n)), dtype=dtype)
    cols, rows = np.nonzero(a.T)
    cuts = np.searchsorted(cols, np.arange(phi + 1))
    for i in np.flatnonzero(np.diff(cuts)):
        at = rows[cuts[i]:cuts[i + 1]]
        if len(at) == len(a):
            out[:, i:i + phi] += a[:, i, None] * b
        else:
            out[at, i:i + phi] += a[at, i, None] * b[at]
    return reduce_rows(out, n).reshape(shape)


def _descend(num: list, m: int, n: int) -> list:
    """The power-basis coefficients at conductor n, a divisor of m, of a
    value given by its coefficients num at conductor m that lies in
    Q(zeta_n), one prime at a time: m = p k.

    If p divides k, Phi_m(x) = Phi_k(x^p), so the value's coefficients sit
    at the multiples of p.  Otherwise z_m^j = z_k^(u j) z_p^(w j) with
    p u = 1 mod k and k w = 1 mod p; in the basis z_k^a z_p^b (b < p-1)
    the value is its z_p^0 part, once z_p^(p-1) = -(1 + ... + z_p^(p-2))."""
    while m != n:
        p = _primes(m // n)[0]
        k = m // p
        if k % p == 0:
            num = num[::p]
        else:
            u, w = pow(p, -1, k), pow(k, -1, p)
            poly = [0] * k
            for j, c in enumerate(num):
                e = w * j % p
                if c and e == 0:
                    poly[u * j % k] += c
                elif c and e == p - 1:
                    poly[u * j % k] -= c
            num = list(_reduce(poly, k))
        m = k
    return num


class CycArray:
    """An array of values of Q(zeta_M) at one conductor M, in CycNum's
    normal form: num[..., k] / den is the coefficient of z_M^k, with
    den > 0 and gcd(den, all of num) == 1; num is an int64 array, or an
    object array of Python ints where a value needs it (exact_dtype).
    conductor[...] gives the conductor of each entry as a CycNum, a
    divisor of M; indexing an entry builds that CycNum.  Equality is
    equality of every value."""

    __slots__ = ("M", "num", "den", "conductor")
    __hash__ = None

    def __init__(self, M: int, num: np.ndarray, den: int, conductor):
        g = gcd(den, int(np.gcd.reduce(num, axis=None)) if num.size else 0) if den != 1 else 1
        self.M, self.num, self.den = M, num // g if g != 1 else num, den // g
        self.conductor = np.asarray(conductor, dtype=np.int64)

    @classmethod
    def from_parts(cls, M: int, conductors, nums, dens, shape) -> "CycArray":
        """Entries given in order: entry i has conductor conductors[i],
        dividing M, and its phi(conductors[i]) coefficients are the next
        items of nums over dens (integer sequences or arrays).  Raises
        DatumTooLarge, before any value is scaled, once the lcm of dens
        takes the array over check_budget.  Rows go in blocks of about
        BLOCK values, as in map_rows, so the scratch space stays bounded:
        a row has M slots against phi(M) kept, and M / phi(M) is below
        4.82 for every M below 30030 (4.8125 at 2310)."""
        nums, dens = (x if isinstance(x, np.ndarray) else np.array(x, dtype=object) for x in (nums, dens))
        conductors = np.array(conductors, dtype=np.int64).reshape(-1)
        if (M % conductors).any():
            raise ValueError(f"conductors {sorted(set(conductors.tolist()))} do not all divide {M}")
        den = 1
        if (dens != 1).any():
            for q in set(dens.tolist()):
                den = lcm(den, q)
                check_budget(len(conductors) * euler_phi(M), den)
            nums = nums.astype(object) * (den // dens.astype(object))
        values = nums.astype(exact_dtype(magnitude(nums), reduction_growth(M)), copy=False)
        # coefficient k of entry i goes to column k M/c_i of row i, all
        # conductors in one scatter, then one reduction per block of rows
        phis = np.array([euler_phi(c) for c in conductors.tolist()], dtype=np.int64)
        starts = np.concatenate(([0], np.cumsum(phis)))
        rows = np.repeat(np.arange(len(conductors)), phis)
        cols = (np.arange(starts[-1]) - starts[rows]) * (M // conductors)[rows]
        num = np.empty((len(conductors), euler_phi(M)), dtype=values.dtype)
        step = max(1, BLOCK // M)
        for i in range(0, len(conductors), step):
            lo, hi = starts[i], starts[min(i + step, len(conductors))]
            w = np.zeros((len(num[i:i + step]), M), dtype=values.dtype)
            w[rows[lo:hi] - i, cols[lo:hi]] = values[lo:hi]
            num[i:i + step] = reduce_rows(w, M)
        return cls(M, num.reshape(tuple(shape) + (euler_phi(M),)), den, conductors.reshape(shape))

    @classmethod
    def from_values(cls, values, M: int | None = None) -> "CycArray":
        """CycNums in a list, or in a list of equal-length lists, at
        conductor M (by default the lcm of their conductors)."""
        rows = [list(row) for row in values] if values and not isinstance(values[0], CycNum) else None
        flat = [v for row in rows for v in row] if rows is not None else list(values)
        shape = (len(rows), len(rows[0]) if rows else 0) if rows is not None else (len(flat),)
        return cls.from_parts(M or lcm(*(v.conductor for v in flat)), [v.conductor for v in flat],
                              [c for v in flat for c in v.num], [v.den for v in flat for _ in v.num], shape)

    @property
    def shape(self) -> tuple:
        return self.num.shape[:-1]

    def __len__(self):
        return len(self.num)

    def __getitem__(self, index):
        num = self.num[index]
        if num.ndim > 1:
            return CycArray(self.M, num, self.den, self.conductor[index])
        n = int(self.conductor[index])
        return _normal(n, _descend(num.tolist(), self.M, n), self.den)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def reshape(self, *shape) -> "CycArray":
        return CycArray(self.M, self.num.reshape(shape + self.num.shape[-1:]), self.den,
                        self.conductor.reshape(shape))

    def lift(self, m: int) -> "CycArray":
        """The same values at conductor m, a multiple of M."""
        if m == self.M:
            return self
        cols = np.arange(euler_phi(self.M)) * (m // self.M)
        return CycArray(m, map_rows(self.num, cols, m), self.den, self.conductor)

    def __eq__(self, other):
        if not isinstance(other, CycArray):
            return NotImplemented
        if self.shape != other.shape:
            return False
        m = lcm(self.M, other.M)
        a, b = self.lift(m), other.lift(m)
        # the normal form is unique at a fixed conductor
        return a.den == b.den and np.array_equal(a.num, b.num)

    def __repr__(self):
        return f"CycArray(M={self.M}, shape={self.shape}, den={self.den})"
