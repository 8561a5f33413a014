"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value is a vector of rationals in the power basis 1, z, ..., z^(phi(N)-1)
of Q[x]/Phi_N(x), where Phi_N is the N-th cyclotomic polynomial.  The
conductor N is fixed per value; mixed-conductor arithmetic lifts both
operands to the lcm via the ring map z_N -> z_M^(M/N).  Normal forms are
unique at a fixed conductor, so equality is coefficient comparison after
lifting to a common conductor.

No floating point enters any exact path; `embed` is the only bridge to
complex doubles.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

__all__ = ["CycNum", "make_root", "from_rational", "euler_phi", "ZERO", "ONE", "MINUS_ONE"]

_F0 = Fraction(0)
_F1 = Fraction(1)


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


_ROW_CACHE: dict[int, list[tuple[int, ...]]] = {}


def _reduction_rows(n: int, top_degree: int) -> list[tuple[int, ...]]:
    """Integer rows: row[j] is x^(phi(n)+j) reduced mod Phi_n."""
    phi = euler_phi(n)
    rows = _ROW_CACHE.setdefault(n, [])
    if len(rows) >= top_degree - phi + 1:
        return rows
    base = tuple(-c for c in cyclotomic_poly(n)[:phi])  # x^phi
    while len(rows) < top_degree - phi + 1:
        if not rows:
            rows.append(base)
        else:
            prev = rows[-1]
            top = prev[-1]
            rows.append(tuple((prev[i - 1] if i else 0) + top * base[i] for i in range(phi)))
    return rows


def _reduce(coeffs: list[Fraction], n: int) -> tuple[Fraction, ...]:
    """Reduce a polynomial (any degree) to the power basis at conductor n."""
    phi = euler_phi(n)
    if len(coeffs) > phi:
        rows = _reduction_rows(n, len(coeffs) - 1)
        out = list(coeffs[:phi])
        for k in range(phi, len(coeffs)):
            c = coeffs[k]
            if c:
                row = rows[k - phi]
                for i in range(phi):
                    if row[i]:
                        out[i] += c * row[i]
        coeffs = out
    else:
        coeffs = list(coeffs) + [_F0] * (phi - len(coeffs))
    return tuple(coeffs)


class CycNum:
    """Element of Q(zeta_N), immutable."""

    __slots__ = ("conductor", "coeffs")
    __hash__ = None  # equality crosses conductors; do not hash

    def __init__(self, conductor: int, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != euler_phi(conductor):
            raise ValueError("coefficient vector length must be euler_phi(conductor)")
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("CycNum is immutable")

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _raw(conductor: int, coeffs: tuple[Fraction, ...]) -> "CycNum":
        obj = object.__new__(CycNum)
        object.__setattr__(obj, "conductor", conductor)
        object.__setattr__(obj, "coeffs", coeffs)
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
        poly = [_F0] * ((len(self.coeffs) - 1) * step + 1)
        for k, c in enumerate(self.coeffs):
            if c:
                poly[k * step] = c
        return CycNum._raw(m, _reduce(poly, m))

    @staticmethod
    def _common(a: "CycNum", b: "CycNum"):
        m = lcm(a.conductor, b.conductor)
        return a.lift(m), b.lift(m), m

    @staticmethod
    def _coerce(x) -> "CycNum":
        if isinstance(x, CycNum):
            return x
        if isinstance(x, (int, Fraction)):
            return CycNum._raw(1, (Fraction(x),))
        return NotImplemented

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        other = CycNum._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, m = CycNum._common(self, other)
        return CycNum._raw(m, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycNum._raw(self.conductor, tuple(-c for c in self.coeffs))

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
            return CycNum._raw(self.conductor, tuple(c * f for c in self.coeffs))
        if not isinstance(other, CycNum):
            return NotImplemented
        a, b, m = CycNum._common(self, other)
        an = [(i, c) for i, c in enumerate(a.coeffs) if c]
        bn = [(j, c) for j, c in enumerate(b.coeffs) if c]
        if not an or not bn:
            return CycNum._raw(m, (_F0,) * euler_phi(m))
        prod = [_F0] * (an[-1][0] + bn[-1][0] + 1)
        for i, ca in an:
            for j, cb in bn:
                prod[i + j] += ca * cb
        return CycNum._raw(m, _reduce(prod, m))

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
        nz = [(i, c) for i, c in enumerate(self.coeffs) if c]
        if len(nz) == 1:
            # c * z^k inverts to (1/c) * z^(n-k), since z^n = 1
            k, c = nz[0]
            if k == 0:
                return CycNum._raw(n, ((1 / c),) + (_F0,) * (euler_phi(n) - 1))
            poly = [_F0] * (n - k + 1)
            poly[n - k] = 1 / c
            return CycNum._raw(n, _reduce(poly, n))
        return self._inverse_euclid()

    def _inverse_euclid(self) -> "CycNum":
        # extended Euclid in Q[x] against Phi_n; Phi_n irreducible, so any
        # nonzero remainder chain terminates at a constant
        n = self.conductor

        def deg(p):
            for i in range(len(p) - 1, -1, -1):
                if p[i]:
                    return i
            return -1

        r0 = [Fraction(c) for c in cyclotomic_poly(n)]
        r1 = list(self.coeffs)
        t0, t1 = [_F0], [_F1]
        while True:
            d1 = deg(r1)
            if d1 <= 0:
                break
            d0 = deg(r0)
            if d0 < d1:
                r0, r1, t0, t1 = r1, r0, t1, t0
                continue
            f = r0[d0] / r1[d1]
            shift = d0 - d1
            for i in range(d1 + 1):
                r0[i + shift] -= f * r1[i]
            if len(t0) < len(t1) + shift:
                t0 += [_F0] * (len(t1) + shift - len(t0))
            for i in range(len(t1)):
                t0[i + shift] -= f * t1[i]
        c = r1[0]
        if not c:
            raise ZeroDivisionError("division by zero CycNum")
        return CycNum._raw(n, _reduce([t / c for t in t1], n))

    def conj(self) -> "CycNum":
        """Complex conjugation, the Galois action z -> z^(-1)."""
        n = self.conductor
        if n <= 2:
            return self
        poly = [_F0] * n
        poly[0] = self.coeffs[0]
        for k in range(1, len(self.coeffs)):
            c = self.coeffs[k]
            if c:
                poly[n - k] += c
        return CycNum._raw(n, _reduce(poly, n))

    # -- predicates and comparison -------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    def __eq__(self, other):
        other = CycNum._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.conductor == other.conductor:
            return self.coeffs == other.coeffs
        a, b, _ = CycNum._common(self, other)
        return a.coeffs == b.coeffs

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
    poly = [_F0] * (num + 1)
    poly[num] = _F1
    return CycNum._raw(den, _reduce(poly, den))


def make_root(numerator: int, denominator: int) -> CycNum:
    """The root of unity exp(2*pi*i*numerator/denominator), in normal form
    at conductor denominator/gcd."""
    if denominator < 1:
        raise ValueError("denominator must be >= 1")
    e = numerator % denominator
    g = gcd(e, denominator)
    return _root_cached(e // g, denominator // g)


def from_rational(x) -> CycNum:
    """Embed a rational number at conductor 1."""
    return CycNum._raw(1, (Fraction(x),))


ZERO = from_rational(0)
ONE = from_rational(1)
MINUS_ONE = from_rational(-1)
