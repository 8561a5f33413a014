"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value is its coefficients in the power basis 1, z, ..., z^(phi(N)-1) of
Q[x]/Phi_N(x), stored as integer numerators `num` over one positive
`den` with gcd(den, *num) == 1 (zero has den == 1); Phi_N is monic, so
arithmetic runs on integers, and Fractions appear only in `coeffs`.
The conductor N is fixed per value; mixed-conductor arithmetic lifts
both operands to the lcm by z_N -> z_M^(M/N).  Normal forms are unique
at a fixed conductor, so equality compares den and num at a common one.

There is one value type, CycArray: values at one conductor M over one
denominator, a single value being a shape-() CycArray (CycNum builds
one).  Arithmetic is entrywise on the array kernels reduce_rows,
map_rows and mul_rows (see reduce_rows for the exactness bound); only
the extended Euclid of inverse is scalar, run per entry at its own
conductor.  CycArray.from_parts builds an array from entries at any
divisors of M with one scatter, over the lcm of their denominators,
bounded in 64-bit words by check_budget.

residues maps values into F_p^phi(M) for a prime p = 1 mod M
(split_primes), where products are entrywise: equalities of many
values are decided there, by the Chinese remainder theorem.

Phi_n is Phi_R(x^(n/R)) for the radical R of n (cyclotomic_poly); it,
euler_phi and _descend all come from one cached factorization
(_primes).  No floating point enters any exact path; `embed` is the
only bridge to complex doubles.
"""

from __future__ import annotations

import cmath
import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

import numpy as np

from .errors import CrossCheckMismatch, DatumTooLarge

__all__ = ["CycNum", "CycArray", "make_root", "root_sum", "from_rational", "euler_phi", "power_rows", "reduce_rows",
           "map_rows", "mul_rows", "exact_dtype", "magnitude", "narrow", "check_budget", "split_primes", "residues",
           "mod", "MAX_SLOTS", "ZERO", "ONE", "MINUS_ONE"]

# array values built at once by the kernels: a product over a block of
# rows holds at most BLOCK / 2 int64 values, 128 KiB, glibc's mmap
# threshold, above which each temporary is mapped and faulted in afresh
BLOCK = 2**15
# coefficient slots r^2 phi(M) of a premodular datum's arrays: every
# catalog entry and linearized group fits, the largest Z_256 with q =
# x^2/512 at 2^24; a slot counts 1 + b // 64 over a b-bit denominator
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
    """Coefficients of Phi_n, little-endian, monic: Phi_R(x^(n/R)) for R =
    rad(n), Phi_R the product of (x^d - 1)^mu(R/d) over d | R, multiplied
    out and then divided out exactly, one pass per binomial."""
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
    if len(out) != euler_phi(n) + 1:
        raise CrossCheckMismatch(f"Phi_{n} has degree {len(out) - 1}, not euler_phi({n})")
    return tuple(out)


def CycNum(conductor: int, coeffs, den: int = 1) -> "CycArray":
    """The value with power-basis coefficients coeffs[k] / den at the
    given conductor, each an int or a Fraction, as a shape-() CycArray;
    floats and booleans are refused."""
    coeffs = list(coeffs)
    if len(coeffs) != euler_phi(conductor):
        raise ValueError("coefficient vector length must be euler_phi(conductor)")
    if any(isinstance(c, bool) or not isinstance(c, (int, Fraction)) for c in coeffs):
        raise TypeError("CycNum coefficients must be int or Fraction")
    if not den:
        raise ZeroDivisionError("CycNum denominator is zero")
    common = lcm(*(c.denominator for c in coeffs))
    num = np.array([c.numerator * (common // c.denominator) for c in coeffs], dtype=object)
    return CycArray(conductor, num.astype(exact_dtype(magnitude(num)), copy=False), den * common, conductor)


@lru_cache(maxsize=None)
def _root_cached(num: int, den: int) -> "CycArray":
    root = CycArray(den, map_rows(np.array([1]), [num], den), 1, den)
    root.num.setflags(write=False)  # shared by every caller
    return root


def make_root(numerator: int, denominator: int) -> "CycArray":
    """The root of unity exp(2*pi*i*numerator/denominator), in normal form
    at conductor denominator/gcd."""
    if denominator < 1:
        raise ValueError("denominator must be >= 1")
    e = numerator % denominator
    g = gcd(e, denominator)
    return _root_cached(e // g, denominator // g)


def root_sum(counts, n: int) -> "CycArray":
    """sum_k counts[k] exp(2*pi*i*k/n) for at most n integer counts, in
    normal form at conductor n."""
    return CycArray(n, map_rows(np.asarray(counts), np.arange(len(counts)), n), 1, n)


def from_rational(x) -> "CycArray":
    """Embed an int or a Fraction at conductor 1; floats, booleans and
    strings are refused, as by CycNum."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"from_rational takes an int or a Fraction, got {type(x).__name__}")
    return CycArray(1, np.array([x.numerator], dtype=exact_dtype(abs(x.numerator))), x.denominator, 1)


def _value(x):
    """x as a CycArray: itself, or an int or a Fraction at conductor 1;
    NotImplemented for anything else, booleans and floats included, so
    that an operator raises TypeError and == is False."""
    if isinstance(x, CycArray):
        return x
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return from_rational(x)
    return NotImplemented


# -- arrays of values at one conductor ------------------------------------------


@lru_cache(maxsize=None)
def _low_arrays(n: int):
    """The degrees i and the coefficients c, two int64 arrays, of the
    nonzero terms c x^i of Phi_n below the leading x^phi(n)."""
    low = np.array(cyclotomic_poly(n)[:-1], dtype=np.int64)
    deg = np.flatnonzero(low)
    return deg, low[deg]


def power_rows(n: int):
    """The rows x^j mod Phi_R, R = rad(n), for phi(R) <= j < R, lazily and
    read-only, each from the one before by a shift and a subtraction
    (the rows below are unit vectors), for reduction_growth alone, which
    stops at 2^31; reduce_rows folds and divides without them."""
    R = prod(_primes(n))
    phi, (deg, coef) = euler_phi(R), _low_arrays(R)
    row = np.zeros(phi, dtype=np.int64)
    row[-1] = 1
    for _ in range(R - phi):
        top, row = row[-1], np.concatenate(([0], row[:-1]))
        if top:
            row[deg] -= top * coef
        yield row


@lru_cache(maxsize=None)
def reduction_growth(n: int) -> float:
    """G with |reduce_rows(v, n)| <= G max|v|: 2 max_i sum_(j < R) |c_ij|
    for x^j = sum_i c_ij x^i mod Phi_R, R = rad(n), the 2 for z_n^n = 1;
    inf if a row leaves 2^31.  4 for a prime R, 8 for 6, 136 for 210."""
    total = np.ones(euler_phi(prod(_primes(n))), dtype=np.int64)
    for row in power_rows(n):
        if magnitude(row) >= 2**31:
            return float("inf")
        total += np.abs(row)
    return 2.0 * float(total.max())


def exact_dtype(bound: int, growth: float = 1.0):
    """int64 when bound * growth, a bound on every magnitude an array
    expression takes, is below 2^62 (the margin absorbs the rounding of
    a float growth), else object: the same expressions on Python ints."""
    return np.int64 if bound < 2.0**62 / growth else object


def check_budget(slots: int, den: int) -> None:
    """Raise DatumTooLarge if this many coefficient slots over den, 1 + b //
    64 words a slot for a b-bit den, are above MAX_SLOTS words."""
    words = slots * (1 + den.bit_length() // 64)
    if words > MAX_SLOTS:
        raise DatumTooLarge(f"{slots} coefficient slots over a denominator of {den.bit_length()} bits "
                            f"need {words} words, above the budget {MAX_SLOTS}")


def magnitude(a: np.ndarray) -> int:
    """The largest |entry| of an integer array, as a Python int: from the
    largest and the least entry, since np.abs wraps -2^63 to itself."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def narrow(a: np.ndarray) -> np.ndarray:
    """a in the narrowest of int8, int16, int32 and int64 that holds it
    (an object array stays one); every kernel widens its operands first."""
    if a.dtype != object:
        bound = magnitude(a)
        for dtype in (np.int8, np.int16, np.int32):
            if bound <= np.iinfo(dtype).max:
                return a.astype(dtype)
    return a


def reduce_rows(v: np.ndarray, n: int) -> np.ndarray:
    """sum_j v[..., j] z_n^j, n <= L <= 2n the length of the last axis, in
    the power basis at n: a (..., phi(n)) view of v, computed in place.
    int64 is exact modulo 2^64, so a result is exact when
    reduction_growth(n) max|v| < 2^63, whatever the steps pass through
    (and so are the shifted adds of mul_rows).  z_n^n = 1 folds the top
    half in.  With Phi_n(x) = Phi_R(y), y = x^t, t = n / R, the
    coefficients of y^i x^u for each u are then folded by two sparse
    multiples of Phi_R, y^(R/2) + 1 for an even R and sum_(i < q)
    (s y^(m/q))^i for the odd part m of R, its least prime q and s = -1
    for an even R, else 1, and below degree (q - 1) m / q long-divided
    by Phi_R at once, from the highest i at which any entry is nonzero
    (none for a prime R or twice one)."""
    lead, L = v.shape[:-1], v.shape[-1]
    w = v[..., :n]
    w[..., :L - n] += v[..., n:]
    R = prod(_primes(n))
    phi, (deg, coef) = euler_phi(R), _low_arrays(R)
    w = w.reshape(lead + (R, n // R))
    m = R // 2 if R % 2 == 0 else R
    w[..., :R - m, :] -= w[..., m:, :]  # no rows for an odd R
    q = min(_primes(m), default=1)
    step, top = m // q, m - m // q
    for i in range(q - 1):
        low = w[..., i * step:(i + 1) * step, :]
        (np.add if m < R and i % 2 else np.subtract)(low, w[..., top:m, :], out=low)
    rows = np.flatnonzero(w[..., phi:top, :].any(axis=(*range(len(lead)), -1)))
    for k in range(phi + rows[-1] if len(rows) else phi - 1, phi - 1, -1):
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
    (..., phi(n)) arrays broadcast against each other: the factor with
    fewer nonzeros drives shifted adds of the other, then one reduction,
    in int64 when phi(n) max|a| max|b| reduction_growth(n) < 2^62 and on
    Python ints otherwise; a rational factor just scales the other."""
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


# -- residues modulo primes that split in Q(zeta_M) -------------------------------

def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2, 3, 5 and 7, exact for n < 3,215,031,751."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    return all(pow(a, (n - 1) >> s, n) == 1 or n - 1 in (pow(a, (n - 1) >> s << i, n) for i in range(s))
               for a in (2, 3, 5, 7))


@lru_cache(maxsize=None)
def _split_prime(M: int, k: int) -> int:
    """The k-th prime p = 1 mod M from 2^24 up, or a number past 2^25."""
    p = _split_prime(M, k - 1) + M if k else 2**24 // M * M + 1
    while p < 2**25 and not _is_prime(p):
        p += M
    return p


def split_primes(M: int, bound: int, slots: int) -> list[int]:
    """The fewest primes p = 1 mod M from 2^24 up whose product passes bound,
    so that a value of Z[zeta_M] with coefficients at most bound is 0 iff
    its residues are (CRT); DatumTooLarge past check_budget or 2^25."""
    primes, product = [], 1
    while product <= bound:
        primes.append(_split_prime(M, len(primes)))
        if primes[-1] >= 2**25:
            raise DatumTooLarge(f"a bound of {bound.bit_length()} bits needs more primes p = 1 mod {M} below 2^25")
        product *= primes[-1]
        check_budget(len(primes) * slots, 1)
    return primes


@lru_cache(maxsize=None)
def _unit_powers(M: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """w^e mod p for e < M, w = a^((p-1)/M) primitive (a^((p-1)/q) != 1 for
    every prime q | M), and the units mod M, ascending."""
    a = next(a for a in itertools.count(2) if all(pow(a, (p - 1) // q, p) != 1 for q in _primes(M)))
    w = pow(a, (p - 1) // M, p)
    powers = np.array(list(itertools.accumulate(itertools.repeat(w, M - 1), lambda x, y: x * y % p, initial=1)))
    return powers, np.array([u for u in range(M) if gcd(u, M) == 1])


def mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p: numpy divides by a scalar several times faster than % does."""
    return x - x // p * p


def residues(num: np.ndarray, M: int, p: int) -> np.ndarray:
    """num (..., phi(M)) at M modulo a prime p = 1 mod M below 2^25: entry k
    is sum_j num[..., j] w^(j u_k) mod p (_unit_powers), Z[zeta_M]/p =
    F_p^phi(M), products entrywise and conjugation reversing the last axis.
    Over 1/16 nonzero, num takes a table product (phi multiply-adds a slot,
    against some 16 passes a nonzero), else each nonzero adds its table row
    (roots at a prime-power M); phi <= 2^12 terms < 2^50 sum in int64."""
    powers, units = _unit_powers(M, p)
    lead, phi = num.shape[:-1], num.shape[-1]
    num = num.reshape(-1, phi)
    if num.dtype == object or magnitude(num) >= p:
        num = (num % p).astype(np.int64)
    out, step = np.zeros((len(num), phi), dtype=np.int64), max(1, BLOCK // phi)
    if num.size <= 16 * np.count_nonzero(num):
        for j in range(0, phi, step):
            out += num[:, j:j + step] @ powers[np.arange(j, min(j + step, phi))[:, None] * units % M]
    else:
        rows, cols = np.nonzero(num)
        for i in range(0, len(rows), step):
            at = slice(i, i + step)
            first = np.flatnonzero(np.diff(rows[at], prepend=-1))
            terms = num[rows[at], cols[at], None] * powers[cols[at, None] * units % M]
            out[rows[at][first]] += terms if len(first) == len(terms) else np.add.reduceat(terms, first)
    for i in range(0, len(num), step):
        out[i:i + step] = mod(out[i:i + step], p)
    return out.reshape(lead + (phi,))


def _descend(num: np.ndarray, m: int, n: int) -> np.ndarray:
    """The coefficients at n | m of a value of Q(zeta_n) given at m, one
    prime p at a time, m = p k: at the multiples of p when p | k, else its
    z_p^0 part in the basis z_k^a z_p^b (b < p-1), z_m^j = z_k^(u j)
    z_p^(w j) with p u = 1 mod k and k w = 1 mod p, by two scatters."""
    while m != n:
        p = _primes(m // n)[0]
        k = m // p
        if k % p == 0:
            num = num[::p]
        else:
            j = np.arange(len(num))
            e, at = pow(k, -1, p) * j % p, pow(p, -1, k) * j % k
            num = num.astype(exact_dtype(2 * magnitude(num)), copy=False)
            poly = np.zeros(k, dtype=num.dtype)
            poly[at[e == 0]] = num[e == 0]
            poly[at[e == p - 1]] -= num[e == p - 1]
            num = map_rows(poly, np.arange(k), k)
        m = k
    return num


class CycArray:
    """Values of Q(zeta_M) at one conductor M: num[..., k] / den is the
    coefficient of z_M^k, den > 0 and gcd(den, all of num) == 1, num an
    integer array (Python ints where needed, exact_dtype); conductor[...]
    is each entry's conductor, a divisor of M.  A value is a shape-()
    array at its own conductor: indexing descends an entry to it, so JSON
    and repr print each value at the conductor it was given or computed
    at.  Arithmetic (+, -, *, ** k >= 0; no division) is entrywise with
    broadcasting at the lcm of the M, an int or a Fraction being a value
    at conductor 1, each result entry at the lcm of its operands'
    conductors; == compares every value."""

    __slots__ = ("M", "num", "den", "conductor")
    __hash__ = None  # equality crosses conductors; do not hash

    def __init__(self, M: int, num: np.ndarray, den: int, conductor):
        conductor = np.asarray(conductor, dtype=np.int64)
        if num.ndim == 1 and conductor != M:
            num, M = _descend(num, M, int(conductor)), int(conductor)
        if den < 0:
            num, den = -num.astype(exact_dtype(magnitude(num)), copy=False), -den
        g = gcd(den, int(np.gcd.reduce(num, axis=None)) if num.size else 0) if den != 1 else 1
        if g != 1:  # g past int64 takes Python ints
            num, den = (num if g < 2**63 else num.astype(object)) // g, den // g
        self.M, self.num, self.den, self.conductor = M, num, den, conductor

    @classmethod
    def from_parts(cls, M: int, conductors, nums, dens, shape) -> "CycArray":
        """Entries in order, entry i at conductor conductors[i] | M with
        its phi(conductors[i]) coefficients the next items of nums over
        dens; DatumTooLarge once the lcm of dens takes the array over
        check_budget.  Rows are reduced in blocks of about BLOCK values
        (M / phi(M) < 4.82 for M < 30030)."""
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
        # coefficient k of entry i goes to column k M/c_i of row i, in one
        # scatter, then one reduction per block of rows
        distinct, at = np.unique(conductors, return_inverse=True)
        phis = np.array([euler_phi(c) for c in distinct.tolist()], dtype=np.int64)[at]
        starts = np.concatenate(([0], np.cumsum(phis)))
        rows = np.repeat(np.arange(len(conductors)), phis)
        cols = (np.arange(starts[-1]) - starts[rows]) * (M // conductors)[rows]
        num = np.zeros((len(conductors), euler_phi(M)), dtype=values.dtype)
        if cols.max(initial=0) < num.shape[1]:  # in the power basis already, as at a prime-power M
            num[rows, cols] = values
        else:
            step = max(1, BLOCK // M)
            for i in range(0, len(conductors), step):
                lo, hi = starts[i], starts[min(i + step, len(conductors))]
                w = np.zeros((len(num[i:i + step]), M), dtype=values.dtype)
                w[rows[lo:hi] - i, cols[lo:hi]] = values[lo:hi]
                num[i:i + step] = reduce_rows(w, M)
        return cls(M, num.reshape(tuple(shape) + (euler_phi(M),)), den, conductors.reshape(shape))

    @classmethod
    def from_values(cls, values, M: int | None = None) -> "CycArray":
        """Values in a list, or in a list of equal-length lists, stacked at
        conductor M (by default the lcm of their conductors), each entry
        keeping its conductor: the one route from values to an array."""
        values = list(values)
        nested = bool(values) and not (isinstance(values[0], CycArray) and values[0].shape == ())
        rows = [list(row) for row in values] if nested else [values]
        flat = [v for row in rows for v in row]
        shape = (len(rows), len(rows[0])) if nested else (len(flat),)
        return cls.from_parts(M or lcm(*(v.M for v in flat)), [v.M for v in flat],
                              [c for v in flat for c in v.num.tolist()],
                              [v.den for v in flat for _ in range(v.num.size)], shape)

    @property
    def shape(self) -> tuple:
        return self.num.shape[:-1]

    def __len__(self):
        return len(self.conductor)  # TypeError for a value, as for numpy's 0-d arrays

    def __getitem__(self, index):
        conductor = self.conductor[index]  # IndexError for an index past the entry axes
        return CycArray(self.M, self.num[index], self.den, conductor)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def reshape(self, *shape) -> "CycArray":
        return CycArray(self.M, self.num.reshape(shape + self.num.shape[-1:]), self.den,
                        self.conductor.reshape(shape))

    @property
    def coeffs(self):
        """The power-basis coefficients at M as Fractions: a tuple for a
        value, nested tuples for an array."""
        def fractions(x):
            return tuple(map(fractions, x)) if isinstance(x, list) else Fraction(x, self.den)
        return fractions(self.num.tolist())

    # -- arithmetic, entrywise ------------------------------------------------

    def _num_at(self, m: int) -> np.ndarray:
        """The numerators at conductor m, a multiple of M.  Z[zeta_m] meets
        Q(zeta_M) in Z[zeta_M], so they keep their content: still normal."""
        if m == self.M:
            return self.num
        return map_rows(self.num, np.arange(euler_phi(self.M)) * (m // self.M), m)

    def lift(self, m: int) -> "CycArray":
        """Every value at conductor m, a multiple of M."""
        if m % self.M:
            raise ValueError(f"cannot lift conductor {self.M} to non-multiple {m}")
        return CycArray(m, self._num_at(m), self.den, np.full(self.shape, m))

    def _common(self, other):
        """other as a value, the numerators of self and other at the lcm m
        of their M, m, and the conductors of a result, broadcast; None
        when other is no value."""
        other = _value(other)
        if other is NotImplemented:
            return None
        m = lcm(self.M, other.M)
        return other, self._num_at(m), other._num_at(m), m, np.lcm(self.conductor, other.conductor)

    def __add__(self, other):
        if (common := self._common(other)) is None:
            return NotImplemented
        other, a, b, m, conductor = common
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        dtype = exact_dtype(2 * max(magnitude(a) * fa, magnitude(b) * fb))
        return CycArray(m, a.astype(dtype, copy=False) * fa + b.astype(dtype, copy=False) * fb, den, conductor)

    __radd__ = __add__

    def __neg__(self):
        return CycArray(self.M, -self.num.astype(exact_dtype(magnitude(self.num)), copy=False), self.den,
                        self.conductor)

    def __sub__(self, other):
        other = _value(other)
        return NotImplemented if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        other = _value(other)
        return NotImplemented if other is NotImplemented else other + (-self)

    def __mul__(self, other):
        if (common := self._common(other)) is None:
            return NotImplemented
        other, a, b, m, conductor = common
        return CycArray(m, mul_rows(a, b, m), self.den * other.den, conductor)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if type(k) is not int:
            return NotImplemented
        if k < 0:
            raise ValueError(f"power {k} is negative: multiply by inverse(), or conj() for a root of unity")
        result = CycArray(1, np.ones(self.shape + (1,), dtype=np.int64), 1, np.ones(self.shape, dtype=np.int64))
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def inverse(self) -> "CycArray":
        """The entrywise inverse, each entry inverted at its own conductor
        and the results stacked at M (so over one denominator, which
        from_parts bounds by check_budget): a monomial (c/den) z^k
        inverts to (den/c) z^(n-k), anything else by _inverse_euclid."""
        if self.shape:
            flat = [x.inverse() for x in self.reshape(-1)]
            return CycArray.from_values(flat, self.M).reshape(*self.shape)
        nz = np.flatnonzero(self.num)
        if not len(nz):
            raise ZeroDivisionError("division by zero CycNum")
        n = self.M
        if len(nz) == 1:
            k = int(nz[0])
            return CycArray(n, map_rows(np.array([self.den], dtype=object), [-k % n], n), int(self.num[k]), n)
        return self._inverse_euclid()

    def _inverse_euclid(self) -> "CycArray":
        # fraction-free extended Euclid against Phi_n: each step keeps
        # t_i * num = r_i (mod Phi_n), divides each pair by its content,
        # and Phi_n is irreducible, so the chain ends at a constant r_1;
        # deg t_i <= phi - deg r_(1-i), so length phi + 1 holds every t
        n, phi = self.M, len(self.num)

        def deg(p):
            return max((i for i, c in enumerate(p) if c), default=-1)

        r0, r1 = list(cyclotomic_poly(n)), self.num.tolist() + [0]
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
        t1 = np.array([self.den * t for t in t1], dtype=object)
        return CycArray(n, map_rows(t1, np.arange(phi + 1), n), r1[0], n)

    def conj(self) -> "CycArray":
        """Complex conjugation, the Galois action z -> z^(-1); an
        automorphism of Z[zeta_M] keeps the content, so the result is in
        normal form."""
        if self.M <= 2:
            return self
        cols = -np.arange(self.num.shape[-1]) % self.M
        return CycArray(self.M, map_rows(self.num, cols, self.M), self.den, self.conductor)

    def sum(self) -> "CycArray":
        """The sum of the entries, a value at the lcm of their conductors."""
        num = self.num.reshape(-1, self.num.shape[-1])
        num = num.astype(exact_dtype(magnitude(num) * len(num)), copy=False).sum(axis=0)
        return CycArray(self.M, num, self.den, np.lcm.reduce(self.conductor, axis=None))

    # -- predicates and comparison --------------------------------------------

    def is_zero(self) -> bool:
        """Whether every value is 0."""
        return not self.num.any()

    def is_one(self) -> bool:
        """Whether every value is 1."""
        return self.den == 1 and bool((self.num[..., 0] == 1).all()) and not self.num[..., 1:].any()

    def __eq__(self, other):
        other = _value(other)
        if other is NotImplemented:
            return NotImplemented
        if self.shape != other.shape:
            return False
        m = lcm(self.M, other.M)
        # the normal form is unique at a fixed conductor
        return self.den == other.den and bool((self._num_at(m) == other._num_at(m)).all())

    # -- embedding and display ------------------------------------------------

    def embed(self):
        """Each value at zeta_n = exp(2*pi*i/n), n its conductor, in double
        precision: a complex for a value, an array of them for an array."""
        if self.shape:
            return np.array([x.embed() for x in self.reshape(-1)], dtype=complex).reshape(self.shape)
        n, den = self.M, self.den
        # int / int is correctly rounded, so c / den is float(Fraction(c, den))
        return sum(((c / den) * cmath.exp(2j * cmath.pi * k / n) for k, c in enumerate(self.num.tolist()) if c),
                   complex(0))

    def __repr__(self):
        if self.shape:
            return f"CycArray(M={self.M}, shape={self.shape}, den={self.den})"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c:
                mono = f"z{self.M}" if k == 1 else f"z{self.M}^{k}"
                terms.append(str(c) if k == 0 else mono if c == 1 else f"{c}*{mono}")
        return "CycNum(" + (" + ".join(terms) or "0") + ")"

    def to_json(self):
        """{"n": conductor, "c": [[num, den], ...]} for a value, each
        coefficient in lowest terms (0 as 0/1), as strings; a list of the
        entries' JSON, nested as the array is, for an array."""
        if self.shape:
            return [x.to_json() for x in self]
        den = self.den
        return {"n": self.M, "c": [[str(c // g), str(den // g)] for c in self.num.tolist() for g in [gcd(c, den)]]}


ZERO = from_rational(0)
ONE = from_rational(1)
MINUS_ONE = from_rational(-1)
