"""Premodular data: a fusion ring with exact dims, twists and S-matrix.

The ribbon gauge is assumed throughout: inputs carry a spherical ribbon
structure, so the two framed loop scalars of a simple object coincide
with its dimension d.  The braiding-orientation convention is fixed by
the balancing formula

    s_{a,b} = theta_a^-1 theta_b^-1 sum_c N^c_{a,b} theta_c d_c   (exact),

which either synthesizes s (when absent from the input) or must agree
exactly with a supplied s; a supplied s is checked multiplied through
by the twists, theta_a theta_b s_{a,b} = sum_c N^c_{a,b} theta_c d_c, so
no inverse is taken.  The framed pairing is S~_{a,b} = s_{a,b} /
(d_a d_b); a label is transparent when its S~ column is identically 1.

Representation: dims, twists and s are CycArrays at one conductor M, the
lcm of the datum's conductors (at most MAX_CONDUCTOR): integer numerator
arrays r x phi(M), r x phi(M) and r x r x phi(M), each over one
denominator, which is 1 on valid data (dims, twists and s are algebraic
integers).  Values read from a file share one denominator, and so do
the inverse twists that synthesize s, and so does s; each array is
refused (DatumTooLarge) before it is built when its slots, counted in
64-bit words with the denominator's length, are above the budget of
cyclotomic.check_budget.  An entry read by index is a CycNum at the
conductor it was given at; a synthesized s_{a,b} keeps the lcm of the
conductors of theta_a, theta_b and every theta_c d_c with N^c_{a,b} !=
0.  Validation and classification run on the arrays: every product of
values is one batched product (cyclotomic.mul_rows) and every sum over
fusion channels one contraction over the nonzeros of N, in blocks of
rows a of about BLOCK values.

Exactness: an expression runs in int64 when a bound from its operands'
largest magnitudes proves its result below 2^62 (int64 sums and
products are exact modulo 2^64, so a result in range is exact whatever
the intermediate values), and otherwise by the same code on Python ints
(dtype=object).  The bounds: phi(M) max|x| max|y| G(M) for a product,
G(M) = cyclotomic.reduction_growth(M), which is 4 when rad(M) is prime,
8 for rad(M) = 6 and 136 for 210; max_{a,b} sum_c N^c_{a,b} max|x| for a
contraction; max|x| den_y and max|y| den_x for comparing x/den_x with
y/den_y.  A linearized group computes in int64 throughout: its values
are roots of unity at a conductor D <= 512, whose coefficients are at
most G(D)/2 <= 150 in magnitude, over the denominator 1.  Stored arrays
are narrower where their values allow (cyclotomic.narrow), as the
linearized dims, twists and s, and a synthesized s of roots of unity,
are: every kernel widens its operands to its own bound first.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import lcm

import numpy as np

from .cyclotomic import (BLOCK, CycArray, CycNum, check_budget, exact_dtype, magnitude, map_rows, mul_rows,
                         narrow)
from .errors import DatumTooLarge, NotASubcategory
from .fusion_ring import FusionRing, validate_fusion_ring
from .validation import ValidationReport

__all__ = [
    "PremodularData",
    "CentreKind",
    "CentreClassification",
    "validate_premodular",
    "framed_s_entry",
    "relative_centralizer",
    "mueger_centre",
    "classify_degeneracy",
    "gauss_sum",
]


@dataclass
class PremodularData:
    """ring + per-label dims d_a and twists theta_a, and the unnormalized
    Hopf-link matrix s (filled by validation if absent), as CycArrays at
    one conductor M (see the module docstring): every constructor builds
    them at one M, and that is checked here, so no computation on a
    datum lifts its arrays."""

    ring: FusionRing
    dims: CycArray
    twists: CycArray
    s: CycArray | None = None

    def __post_init__(self):
        if self.twists.M != self.dims.M or self.s is not None and self.s.M != self.dims.M:
            raise ValueError("dims, twists and s must be CycArrays at one conductor")

    @classmethod
    def from_values(cls, ring, dims, twists, s=None) -> "PremodularData":
        """From CycNums: lists dims and twists, and s a list of lists or
        None, all taken to the lcm of their conductors."""
        values = [*dims, *twists, *(x for row in s or () for x in row)]
        M = lcm(*(x.conductor for x in values))
        return cls(ring, CycArray.from_values(list(dims), M), CycArray.from_values(list(twists), M),
                   None if s is None else CycArray.from_values(s, M))

    @property
    def labels(self):
        return self.ring.labels


def _is_integer(num: np.ndarray, den: int, k: int) -> np.ndarray:
    """(..., phi) -> (...): the values num / den equal the integer k."""
    return (num[..., 0] == k * den) & ~num[..., 1:].any(axis=-1)


def _unequal(x: np.ndarray, x_den: int, y: np.ndarray, y_den: int) -> np.ndarray:
    """(..., phi) -> (...): x / x_den != y / y_den, entry by entry."""
    dtype = exact_dtype(max(max(magnitude(x), 1) * y_den, max(magnitude(y), 1) * x_den))
    if y_den != 1:
        x = x.astype(dtype, copy=False) * y_den
    if x_den != 1:
        y = y.astype(dtype, copy=False) * x_den
    return (x != y).any(axis=-1)


def _row_blocks(rows: int, width: int):
    """Slices of range(rows), each of about BLOCK // width rows."""
    step = max(1, BLOCK // width)
    return [slice(a, min(a + step, rows)) for a in range(0, rows, step)]


class _Channels:
    """The entries N^c_{a,b} of a fusion ring, sorted by (a, b, c), for
    sums over fusion channels by rows a."""

    def __init__(self, ring: FusionRing):
        self.r = ring.rank
        self.a, self.b, self.c, self.m, self.start = ring.a, ring.b, ring.c, ring.m, ring.start
        self.width = max(self.r, int(np.diff(self.start).max(initial=0)))  # values per row a
        first = np.flatnonzero(np.diff(self.a * self.r + self.b, prepend=-1))
        self.row_sum = int(np.add.reduceat(self.m, first).max(initial=0))  # max_{a,b} sum_c N^c_{a,b}

    def blocks(self, phi: int):
        return _row_blocks(self.r, 2 * phi * self.width)

    def sums(self, x: np.ndarray, rows: slice) -> np.ndarray:
        """sum_c N^c_{a,b} x[c] for a in rows and every b: (rows, r, phi)."""
        at = slice(self.start[rows.start], self.start[rows.stop])
        keys = (self.a[at] - rows.start) * self.r + self.b[at]
        dtype = exact_dtype(self.row_sum * magnitude(x))
        out = np.zeros(((rows.stop - rows.start) * self.r, x.shape[-1]), dtype=dtype)
        first = np.flatnonzero(np.diff(keys, prepend=-1))
        terms = self.m[at, None].astype(dtype) * x[self.c[at]].astype(dtype)
        out[keys[first]] = terms if len(first) == len(keys) else np.add.reduceat(terms, first, axis=0)
        return out.reshape(rows.stop - rows.start, self.r, x.shape[-1])

    def conductors(self, twists: CycArray, dims: CycArray) -> np.ndarray:
        """The conductor of each synthesized s_{a,b}: the lcm of those of
        theta_a, theta_b and theta_c d_c over the channels c of a.b."""
        t = twists.conductor
        out = np.lcm.outer(t, t)
        np.lcm.at(out, (self.a, self.b), np.lcm(t, dims.conductor)[self.c])
        return out


def validate_premodular(data: PremodularData) -> ValidationReport:
    """Check the premodular axioms exactly; synthesize s when absent.

    On a supplied s, every entry must match the balancing formula
    exactly; a mismatch is a violation, not a warning.  Balancing implies
    that s is symmetric (N^c_{a,b} = N^c_{b,a}) and that s_{I,a} = d_a
    (N^c_{I,a} = delta_{a,c} and theta_I = 1), so neither is checked;
    conj(s_{a,b}) = s_{a*,b} is, as one signed permutation of the
    power basis at M, reduced by Phi_M, against s[dual].  Witnesses come
    in row order, (a, b) with b >= a for the dimension character and the
    conjugation.  Mutates data.s when synthesis succeeds; raises
    DatumTooLarge when the inverse twists, or s over their denominator,
    are above cyclotomic.check_budget.
    """
    rep = ValidationReport()
    ring = data.ring
    ring_report = validate_fusion_ring(ring)
    if not ring_report.ok:
        rep.violations.extend(ring_report.violations)
        return rep
    r = ring.rank
    if data.dims.shape != (r,) or data.twists.shape != (r,):
        rep.add("ShapeViolation", (r,), "dims/twists length must equal rank")
        return rep

    I, dual, M = ring.unit_index, ring.dual, data.dims.M
    D, d_den, T, t_den = data.dims.num, data.dims.den, data.twists.num, data.twists.den
    if not _is_integer(D[I], d_den, 1):
        rep.add("UnitDimViolation", (I,), "d_I must be 1")
    if not _is_integer(T[I], t_den, 1):
        rep.add("UnitTwistViolation", (I,), "theta_I must be 1")
    zero_d, zero_t = ~D.any(axis=1), ~T.any(axis=1)
    dual_d, dual_t = (D != D[dual]).any(axis=1), (T != T[dual]).any(axis=1)
    for a in np.flatnonzero(zero_d | zero_t | dual_d | dual_t).tolist():
        if zero_d[a]:
            rep.add("ZeroDimViolation", (a,))
        if zero_t[a]:
            rep.add("ZeroTwistViolation", (a,), "twists must be invertible")
        if dual_d[a]:
            rep.add("DualDimViolation", (a, dual[a]), "d_a != d_{a*}")
        if dual_t[a]:
            rep.add("DualTwistViolation", (a, dual[a]), "theta_a != theta_{a*}")
    if rep.violations:
        return rep

    # the dimension character d_a d_b = sum_c N^c_{a,b} d_c
    channels = _Channels(ring)
    blocks = channels.blocks(D.shape[1])
    upper = np.arange(r)[None, :] >= np.arange(r)[:, None]
    for rows in blocks:
        bad = _unequal(mul_rows(D[rows, None], D[None, :], M), d_den * d_den,
                       channels.sums(D, rows), d_den) & upper[rows]
        for a, b in np.argwhere(bad).tolist():
            rep.add("DimensionCharacterViolation", (rows.start + a, b))
    if rep.violations:
        return rep

    if data.s is not None and data.s.shape != (r, r):
        rep.add("ShapeViolation", (r,), "s-matrix must be rank x rank")
        return rep
    twisted_dims = mul_rows(T, D, M)  # theta_c d_c, over t_den d_den
    if data.s is None:
        try:
            inverse = CycArray.from_values([t.inverse() for t in data.twists], M)
            s_den = inverse.den**2 * t_den * d_den
            check_budget(r * r * D.shape[1], s_den)
        except DatumTooLarge as exc:
            raise DatumTooLarge(f"s cannot be synthesized: {exc}") from None
        s = np.zeros((r, r, D.shape[1]), dtype=np.int8)
        for rows in blocks:
            part = narrow(mul_rows(mul_rows(inverse.num[rows, None], inverse.num[None, :], M),
                                   channels.sums(twisted_dims, rows), M))
            # wider, or Python ints, once a value needs them
            s = s.astype(np.promote_types(s.dtype, part.dtype), copy=False)
            s[rows] = part
        data.s = CycArray(M, s, s_den, channels.conductors(data.twists, data.dims))
    else:
        s = data.s
        for rows in blocks:
            # theta_a theta_b s_{a,b} over t_den^2 s_den, the channel sum over t_den d_den
            lhs = mul_rows(mul_rows(T[rows, None], T[None, :], M), s.num[rows], M)
            bad = _unequal(lhs, t_den * s.den, channels.sums(twisted_dims, rows), d_den)
            for a, b in np.argwhere(bad).tolist():
                rep.add("BalancingViolation", (rows.start + a, b), "supplied s disagrees with balancing formula")
        if rep.violations:
            return rep

    S = data.s.num
    conj = (-np.arange(S.shape[-1])) % M
    for rows in blocks:
        bad = (map_rows(S[rows], conj, M) != S[np.asarray(dual)[rows]]).any(axis=2) & upper[rows]
        for a, b in np.argwhere(bad).tolist():
            rep.add("SConjugationViolation", (rows.start + a, b), "conj(s_{a,b}) != s_{a*,b}")
    return rep


def framed_s_entry(data: PremodularData, a: str, b: str) -> CycNum:
    """S~_{a,b} = s_{a,b} / (d_a d_b) in the ribbon gauge."""
    i, j = data.ring.index(a), data.ring.index(b)
    return data.s[i, j] / (data.dims[i] * data.dims[j])


def _transparency(data: PremodularData) -> np.ndarray:
    """(r, r) booleans: S~_{b,x} = 1, tested multiplicatively as
    s_{b,x} = d_b d_x, row b of s against d_b d."""
    dims, s = data.dims, data.s
    D, r = dims.num, len(dims)
    out = np.empty((r, r), dtype=bool)
    for rows in _row_blocks(r, 2 * r * D.shape[1]):
        out[rows] = ~_unequal(s.num[rows], s.den, mul_rows(D[rows, None], D[None, :], dims.M), dims.den**2)
    return out


def _check_closed(data: PremodularData, idx: set[int]) -> bool:
    ring = data.ring
    if ring.unit_index not in idx or any(ring.dual[a] not in idx for a in idx):
        return False
    return bool((ring.restrict(sorted(idx))[2] >= 0).all())


def relative_centralizer(data: PremodularData, sub) -> set[str]:
    """Labels transparent to every member of `sub` (a fusion- and
    dual-closed label set)."""
    idx = {data.ring.index(x) for x in sub}
    if not _check_closed(data, idx):
        raise NotASubcategory(f"label set {sorted(sub)} is not closed under fusion and duals")
    out = set(np.flatnonzero(_transparency(data)[:, sorted(idx)].all(axis=1)).tolist())
    assert _check_closed(data, out), "centralizer must be fusion- and dual-closed"
    return {data.labels[b] for b in out}


def mueger_centre(data: PremodularData) -> PremodularData:
    """Restriction of a validated datum to its transparent labels; they
    are fusion- and dual-closed, so the restriction satisfies every axiom."""
    idx = [data.ring.index(lab) for lab in classify_degeneracy(data).transparent]
    assert _check_closed(data, set(idx)), "transparent labels must be fusion- and dual-closed"
    pos = {b: k for k, b in enumerate(idx)}
    sub_ring = FusionRing(
        labels=[data.labels[b] for b in idx],
        unit_index=pos[data.ring.unit_index],
        fusion=np.stack(data.ring.restrict(idx), axis=1),
        dual=[pos[data.ring.dual[b]] for b in idx],
    )
    return PremodularData(ring=sub_ring, dims=data.dims[idx], twists=data.twists[idx],
                          s=data.s[np.ix_(idx, idx)])


class CentreKind(str, Enum):
    NONDEGENERATE = "nondegenerate"
    SLIGHTLY_DEGENERATE = "slightly_degenerate"
    OTHER_DEGENERATE = "other_degenerate"


@dataclass
class CentreClassification:
    kind: CentreKind
    transparent: list[str]
    fermion: str | None           # present iff slightly degenerate
    bosonic: int                  # transparent simples with theta = 1
    fermionic: int                # transparent simples with theta = -1

    def to_json(self):
        return {
            "classification": self.kind.value,
            "transparent": list(self.transparent),
            "fermion": self.fermion,
            "transparent_bosons": self.bosonic,
            "transparent_fermions": self.fermionic,
        }


def classify_degeneracy(data: PremodularData) -> CentreClassification:
    """Nondegenerate / slightly degenerate / other, from the transparent set.

    Slightly degenerate means the transparent labels are exactly {I, e}
    with e . e = I and theta_e = -1.
    """
    ring = data.ring
    idx = np.flatnonzero(_transparency(data).all(axis=1)).tolist()
    trans = [data.labels[b] for b in idx]
    T, t_den = data.twists.num, data.twists.den
    bos = int(_is_integer(T[idx], t_den, 1).sum())
    fer = int(_is_integer(T[idx], t_den, -1).sum())
    if idx == [ring.unit_index]:
        return CentreClassification(CentreKind.NONDEGENERATE, trans, None, bos, fer)
    if len(idx) == 2:
        e = idx[0] if idx[1] == ring.unit_index else idx[1]
        e_squared = ring.row(e)[e]
        e_squared_is_unit = e_squared[ring.unit_index] == 1 and int(e_squared.sum()) == 1
        if e_squared_is_unit and _is_integer(T[e], t_den, -1):
            return CentreClassification(
                CentreKind.SLIGHTLY_DEGENERATE, trans, data.labels[e], bos, fer
            )
    return CentreClassification(CentreKind.OTHER_DEGENERATE, trans, None, bos, fer)


def gauss_sum(data: PremodularData) -> CycNum:
    """sum_a d_a^2 theta_a, the multiplicative central charge numerator."""
    acc = None
    for d, t in zip(data.dims, data.twists):
        term = d * d * t
        acc = term if acc is None else acc + term
    return acc
