"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value is a vector of rationals in the power basis 1, z, ..., z^(phi(N)-1)
of Q[x]/Phi_N(x), where Phi_N is the N-th cyclotomic polynomial, stored as
integer numerators `num` over one positive `den` with gcd(den, *num) == 1
(zero has den == 1).  Phi_N is monic, so arithmetic runs on integers;
Fractions appear only in `coeffs`, for display, JSON and `embed`.  The
conductor N is fixed per value; mixed-conductor arithmetic lifts both
operands to the lcm via the ring map z_N -> z_M^(M/N).  Normal forms are
unique at a fixed conductor, so equality compares den and num after
lifting to a common conductor.

No floating point enters any exact path; `embed` is the only bridge to
complex doubles.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

__all__ = ["CycNum", "make_root", "root_sum", "from_rational", "euler_phi", "ZERO", "ONE", "MINUS_ONE"]

@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError(f"conductor must be positive, got {n}")
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (little-endian), den monic-led."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        if c % lead != 0:
            raise ArithmeticError("non-exact polynomial division")
        q = c // lead
        out[k] = q
        if q:
            for i, d in enumerate(den):
                num[k + i] -= q * d
    if any(num[: len(den) - 1]):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, little-endian, length euler_phi(n)+1, monic."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, list(cyclotomic_poly(d)))
    assert len(poly) == euler_phi(n) + 1
    return tuple(poly)


@lru_cache(maxsize=None)
def _low_terms(n: int) -> tuple[tuple[int, int], ...]:
    """(i, c) for each nonzero coefficient c of x^i in Phi_n below the
    leading x^phi(n)."""
    return tuple((i, c) for i, c in enumerate(cyclotomic_poly(n)[:-1]) if c)


def _reduce(coeffs: list[int], n: int) -> tuple[int, ...]:
    """Reduce an integer polynomial (any degree) to the power basis at
    conductor n: long division by the monic Phi_n, top coefficient first."""
    phi = euler_phi(n)
    if len(coeffs) <= phi:
        return tuple(coeffs) + (0,) * (phi - len(coeffs))
    out = list(coeffs)
    low = _low_terms(n)
    for k in range(len(out) - 1, phi - 1, -1):
        c = out[k]
        if c:
            # subtract c x^(k - phi) Phi_n, which clears x^k
            shift = k - phi
            for i, t in low:
                out[shift + i] -= c * t
    return tuple(out[:phi])


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
        step = m // n
        poly = [0] * ((len(self.num) - 1) * step + 1)
        for k, c in enumerate(self.num):
            if c:
                poly[k * step] = c
        # Z[zeta_m] meets Q(zeta_n) in Z[zeta_n], so lifting keeps the
        # content of the numerator and the result is in normal form
        return CycNum._raw(m, _reduce(poly, m), self.den)

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
        an = [(i, c) for i, c in enumerate(a.num) if c]
        bn = [(j, c) for j, c in enumerate(b.num) if c]
        if not an or not bn:
            return CycNum._raw(m, (0,) * euler_phi(m), 1)
        prod = [0] * (an[-1][0] + bn[-1][0] + 1)
        for i, ca in an:
            for j, cb in bn:
                prod[i + j] += ca * cb
        return _normal(m, _reduce(prod, m), a.den * b.den)

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
            poly = [0] * (n - k + 1)
            poly[(n - k) % n] = self.den
            return _normal(n, _reduce(poly, n), c)
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
        poly = [0] * n
        poly[0] = self.num[0]
        for k in range(1, len(self.num)):
            c = self.num[k]
            if c:
                poly[n - k] += c
        # an automorphism of Z[zeta_n] keeps the content: still normal
        return CycNum._raw(n, _reduce(poly, n), self.den)

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
        n = self.conductor
        return sum(
            (float(c) * cmath.exp(2j * cmath.pi * k / n) for k, c in enumerate(self.coeffs) if c),
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
        return {
            "n": self.conductor,
            "c": [[str(c.numerator), str(c.denominator)] for c in self.coeffs],
        }


@lru_cache(maxsize=None)
def _root_cached(num: int, den: int) -> CycNum:
    poly = [0] * (num + 1)
    poly[num] = 1
    return CycNum._raw(den, _reduce(poly, den), 1)


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
    return _normal(n, _reduce(list(counts), n), 1)


def from_rational(x) -> CycNum:
    """Embed an int or a Fraction at conductor 1; floats, booleans and
    strings are refused, as by CycNum."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"from_rational takes an int or a Fraction, got {type(x).__name__}")
    return CycNum._raw(1, (x.numerator,), x.denominator)


ZERO = from_rational(0)
ONE = from_rational(1)
MINUS_ONE = from_rational(-1)
