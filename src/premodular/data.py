"""Premodular data: a fusion ring with exact dims, twists and S-matrix.

The ribbon gauge is assumed: the two framed loop scalars of a simple
coincide with its dimension d.  The braiding convention is fixed by the
balancing formula s_{a,b} = theta_a^-1 theta_b^-1 sum_c N^c_{a,b}
theta_c d_c, which gives s when the input has none and which a supplied
s must equal.  A label is transparent when its framed pairing S~_{a,b} =
s_{a,b} / (d_a d_b) is 1.

dims, twists and a supplied s are CycArrays at one conductor M, the lcm
of the datum's conductors, each over one denominator (1 on valid data),
each refused (DatumTooLarge) before it is built when above check_budget.
An entry read by index is a value at the conductor it was given at.

Every check is an equality in Z[zeta_M] once both sides are cleared of
denominators, decided on residues modulo the primes of split_primes,
whose product exceeds a bound on the difference: phi(M) G max|x| max|y|
for a product, G = reduction_growth(M), G max|x| for a root of unity
times x, the row sum of N times max|x| for a channel sum, times the
denominators; one prime covers a linearized group.  An absent s is never
built: its residues are the balancing formula's, inverting each twist,
which validation certifies a root of unity, by conj, a reversal of the
unit axis of its residues, and the formula is evaluated only to fill
them, so such an s is checked for conjugation alone.  The residues of
dims, twists and s are kept on the datum for validation and the
transparency test to share: arrays are not to be changed in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import lcm

import numpy as np

from .cyclotomic import BLOCK, CycArray, exact_dtype, magnitude, mod, reduction_growth, residues, split_primes
from .fusion_ring import FusionRing, validate_fusion_ring
from .validation import ValidationReport

__all__ = [
    "PremodularData",
    "CentreKind",
    "CentreClassification",
    "validate_premodular",
    "classify_degeneracy",
    "gauss_sum",
]


@dataclass
class PremodularData:
    """ring + per-label dims d_a and twists theta_a, and the unnormalized
    Hopf-link matrix s (None for the one the balancing formula gives), as
    CycArrays at one conductor M (see the module docstring): every
    constructor builds them at one M, and that is checked here, so no
    computation on a datum lifts its arrays."""

    ring: FusionRing
    dims: CycArray
    twists: CycArray
    s: CycArray | None = None
    _residues: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.twists.M != self.dims.M or self.s is not None and self.s.M != self.dims.M:
            raise ValueError("dims, twists and s must be CycArrays at one conductor")

    @classmethod
    def from_values(cls, ring, dims, twists, s=None) -> "PremodularData":
        """From values: lists dims and twists, and s a list of lists or
        None, all stacked at the lcm of their conductors."""
        values = [*dims, *twists, *(x for row in s or () for x in row)]
        M = lcm(*(x.M for x in values))
        return cls(ring, CycArray.from_values(list(dims), M), CycArray.from_values(list(twists), M),
                   None if s is None else CycArray.from_values(s, M))

    @property
    def labels(self):
        return self.ring.labels


def _is_integer(num: np.ndarray, den: int, k: int) -> np.ndarray:
    """(..., phi) -> (...): the values num / den equal the integer k."""
    return (num[..., 0] == k * den) & ~num[..., 1:].any(axis=-1)


def _residues(data: PremodularData, name: str, p: int) -> np.ndarray:
    """residues of data.dims, data.twists or data.s modulo p, once each;
    those of an absent s by the balancing formula (_synthesized)."""
    x = getattr(data, name)
    kept = data._residues.get((name, p))
    if kept is None or kept[0] is not x:
        data._residues[name, p] = (x, residues(x.num, x.M, p) if x is not None else _synthesized(data, p))
    return data._residues[name, p][1]


def _times(x: np.ndarray, k: int, p: int) -> np.ndarray:
    return x if k == 1 else mod(x * (k % p), p)


def _differ(M: int, bound: int, r: int, phi: int, sides) -> list[np.ndarray]:
    """(r, r) or (r,) booleans for each pair (x, y) of (rows, r, phi) or (rows,
    phi) residues that sides(p, rows) gives, per block of about BLOCK values:
    x != y modulo some p of split_primes (a short axis reduced across a copy)."""
    def unequal(d, p):
        bad = d // p * p != d
        return bad.any(axis=-1) if phi > 16 else np.ascontiguousarray(np.moveaxis(bad, -1, 0)).any(axis=0)

    out, step = None, max(1, BLOCK // (r * phi))
    for p in split_primes(M, bound, r * r * phi):
        blocks = [[unequal(x - y, p) for x, y in sides(p, slice(a, min(a + step, r)))] for a in range(0, r, step)]
        bad = [np.concatenate(pair) for pair in zip(*blocks)]
        out = bad if out is None else [a | b for a, b in zip(out, bad)]
    return out


class _Channels:
    """The entries N^c_{a,b} of a fusion ring, sorted by (a, b, c), for
    sums over fusion channels by rows a."""

    def __init__(self, ring: FusionRing):
        self.r = ring.rank
        self.a, self.b, self.c, self.m, self.start = ring.a, ring.b, ring.c, ring.m, ring.start
        self.width = max(self.r, int(np.diff(self.start).max(initial=0)))  # values per row a
        first = np.flatnonzero(np.diff(self.a * self.r + self.b, prepend=-1))
        self.row_sum = int(np.add.reduceat(self.m, first).max(initial=0))  # max_{a,b} sum_c N^c_{a,b}
        self.single = len(first) == len(self.a) == self.r * self.r  # one channel c per (a, b), in order

    def blocks(self, phi: int):
        step = max(1, BLOCK // (2 * phi * self.width))
        return [slice(a, min(a + step, self.r)) for a in range(0, self.r, step)]

    def sums(self, x: np.ndarray, rows: slice) -> np.ndarray:
        """sum_c N^c_{a,b} x[c] for a in rows and every b: (rows, r, phi)."""
        at = slice(self.start[rows.start], self.start[rows.stop])
        dtype = exact_dtype(self.row_sum * magnitude(x))
        terms = self.m[at, None].astype(dtype) * x[self.c[at]].astype(dtype, copy=False)
        if not self.single:
            keys = (self.a[at] - rows.start) * self.r + self.b[at]
            first = np.flatnonzero(np.diff(keys, prepend=-1))
            out = np.zeros(((rows.stop - rows.start) * self.r, x.shape[-1]), dtype=dtype)
            out[keys[first]] = terms if len(first) == len(keys) else np.add.reduceat(terms, first, axis=0)
            terms = out
        return terms.reshape(rows.stop - rows.start, self.r, x.shape[-1])


def _not_roots_of_unity(data: PremodularData) -> np.ndarray:
    """(r,) booleans, the twists that are not roots of unity (Vafa): those
    not integral if any, else those with theta conj(theta) != 1 (Kronecker)."""
    T, t_den, M, (r, phi) = data.twists.num, data.twists.den, data.twists.M, data.twists.num.shape
    if t_den != 1:
        return (T.astype(object) % t_den != 0).any(axis=1)
    return _differ(M, phi * int(reduction_growth(M)) * magnitude(T)**2 + 1, r, phi, lambda p, rows: [(
        _residues(data, "twists", p)[rows] * _residues(data, "twists", p)[rows, ::-1], 1)])[0]


def _s_size(data: PremodularData, channels: _Channels) -> tuple[int, int, int]:
    """max|s|, s_den and G^2 row_sum max|d| (G = reduction_growth(M)), a
    bound on the balancing formula's coefficients over d_den, since a root
    of unity times x has them at most G max|x|; an absent s is its."""
    G = int(reduction_growth(data.dims.M))
    balanced = G * G * channels.row_sum * magnitude(data.dims.num)
    if data.s is None:
        return balanced, data.dims.den, balanced
    return magnitude(data.s.num), data.s.den, balanced


def _balanced(data: PremodularData, channels: _Channels, p: int, rows: slice) -> np.ndarray:
    """s_{a,b} = theta_a^-1 theta_b^-1 sum_c N^c_{a,b} theta_c d_c for a in
    rows, modulo p, over d_den: theta^-1 = conj(theta) for roots of unity."""
    T, D = _residues(data, "twists", p), _residues(data, "dims", p)
    inverse = mod(T[rows, None, ::-1] * T[None, :, ::-1], p)
    return mod(inverse * mod(channels.sums(mod(T * D, p), rows), p), p)


def _synthesized(data: PremodularData, p: int) -> np.ndarray:
    """The residues of an absent s modulo p, _balanced block by block."""
    channels = _Channels(data.ring)
    out = np.empty((channels.r, channels.r, data.dims.num.shape[1]), dtype=np.int64)
    for rows in channels.blocks(out.shape[2]):
        out[rows] = _balanced(data, channels, p, rows)
    return out


def validate_premodular(data: PremodularData) -> ValidationReport:
    """Check the premodular axioms exactly, stage by stage in the README's
    order: a supplied s against the balancing formula and for conjugation,
    an absent s, which is the formula's residues, for conjugation only (s
    symmetric and s_{I,a} = d_a follow from balancing); data.s is left as
    it is.  Witnesses come in row order, b >= a for the dimension
    character and conjugation.  DatumTooLarge when the residues an
    equality needs are above cyclotomic.check_budget."""
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

    # the dimension character, d_a d_b = d_den sum_c N^c_{a,b} d_c
    channels, upper, dual = _Channels(ring), np.triu(np.ones((r, r), dtype=bool)), np.asarray(dual)
    phi, G, mD = D.shape[1], int(reduction_growth(M)), magnitude(D)
    bad, = _differ(M, phi * G * mD * mD + d_den * channels.row_sum * mD, r, phi, lambda p, rows: [(
        _residues(data, "dims", p)[rows, None] * _residues(data, "dims", p)[None, :],
        channels.sums(_times(_residues(data, "dims", p), d_den, p), rows))])
    for a, b in np.argwhere(bad & upper).tolist():
        rep.add("DimensionCharacterViolation", (a, b))
    if rep.violations:
        return rep

    for a in np.flatnonzero(_not_roots_of_unity(data)).tolist():
        rep.add("TwistViolation", (a,), "theta_a must be a root of unity")
    if rep.violations:
        return rep

    if data.s is not None and data.s.shape != (r, r):
        rep.add("ShapeViolation", (r,), "s-matrix must be rank x rank")
        return rep

    # conj(s_{a,b}) = s_{a*,b}, and for a supplied s (an absent s's residues
    # are the formula's) s = s_den theta_a^-1 theta_b^-1 sum_c N^c_{a,b}
    # theta_c d_c; d_den is 1 by now, each d_a an eigenvalue of the integer
    # matrix N_a
    mS, s_den, balanced = _s_size(data, channels)
    conj, *balancing = _differ(M, max(mS + s_den * balanced, (G + 1) * mS), r, phi, lambda p, rows: [
        (_residues(data, "s", p)[rows, :, ::-1], _residues(data, "s", p)[dual[rows]])] + ([] if data.s is None else [
        (_residues(data, "s", p)[rows], _times(_balanced(data, channels, p, rows), s_den, p))]))
    for bad in balancing:
        for a, b in np.argwhere(bad).tolist():
            rep.add("BalancingViolation", (a, b), "supplied s disagrees with balancing formula")
    if rep.violations:
        return rep
    for a, b in np.argwhere(conj & upper).tolist():
        rep.add("SConjugationViolation", (a, b), "conj(s_{a,b}) != s_{a*,b}")
    return rep


def _transparency(data: PremodularData) -> np.ndarray:
    """(r, r) booleans: S~_{b,x} = 1, as s_{b,x} d_den^2 = d_b d_x s_den."""
    dims, M, (r, phi) = data.dims, data.dims.M, data.dims.num.shape
    mS, s_den, _ = _s_size(data, _Channels(data.ring))
    bound = mS * dims.den**2 + phi * int(reduction_growth(M)) * magnitude(dims.num)**2 * s_den
    bad, = _differ(M, bound, r, phi, lambda p, rows: [(
        _times(_residues(data, "s", p)[rows], dims.den**2, p),
        _times(_residues(data, "dims", p)[rows], s_den, p)[:, None] * _residues(data, "dims", p))])
    return ~bad


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


def gauss_sum(data: PremodularData) -> CycArray:
    """sum_a d_a^2 theta_a, the multiplicative central charge numerator."""
    return (data.dims * data.dims * data.twists).sum()
