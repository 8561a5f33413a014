"""Premodular data: a fusion ring with exact dims, twists and S-matrix.

The ribbon gauge is assumed throughout: inputs carry a spherical ribbon
structure, so the two framed loop scalars of a simple object coincide
with its dimension d.  The braiding-orientation convention is fixed by
the balancing formula

    s_{a,b} = theta_a^-1 theta_b^-1 sum_c N^c_{a,b} theta_c d_c   (exact),

which either synthesizes s (when absent from the input) or must agree
exactly with a supplied s.  The framed pairing is S~_{a,b} = s_{a,b} /
(d_a d_b); a label is transparent when its S~ column is identically 1.
Values may lie in different cyclotomic fields; none is declared.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import lcm

import numpy as np

from .cyclotomic import CycNum, ONE, MINUS_ONE, ZERO
from .errors import NotASubcategory
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
    """ring + per-label dims d_a and twists theta_a (CycNum), and the
    unnormalized Hopf-link matrix s (filled by validation if absent)."""

    ring: FusionRing
    dims: list[CycNum]
    twists: list[CycNum]
    s: list[list[CycNum]] | None = None

    @property
    def labels(self):
        return self.ring.labels

    def s_entry(self, a: int, b: int) -> CycNum:
        if self.s is None:
            raise ValueError("s-matrix not present; validate the datum first")
        return self.s[a][b]


def _fusion_sum(terms) -> CycNum:
    """sum m x over terms = [(x, m), ...]."""
    acc = None
    for x, m in terms:
        term = x if m == 1 else x * m
        acc = term if acc is None else acc + term
    return ZERO if acc is None else acc


def _lifts(values: list[CycNum]):
    """at(i, k): values[i] lifted to conductor k, computed once per (i, k)."""
    memo = {}

    def at(i: int, k: int) -> CycNum:
        if (i, k) not in memo:
            memo[i, k] = values[i].lift(k)
        return memo[i, k]

    return at


def validate_premodular(data: PremodularData) -> ValidationReport:
    """Check the premodular axioms exactly; synthesize s when absent.

    On a supplied s, every entry must match the balancing formula
    exactly; a mismatch is a violation, not a warning.  Balancing implies
    that s is symmetric (N^c_{a,b} = N^c_{b,a}) and that s_{I,a} = d_a
    (N^c_{I,a} = delta_{a,c} and theta_I = 1), so neither is checked;
    conj(s_{a,b}) = s_{a*,b} is.  Mutates data.s when synthesis succeeds.
    """
    rep = ValidationReport()
    ring = data.ring
    ring_report = validate_fusion_ring(ring)
    if not ring_report.ok:
        rep.violations.extend(ring_report.violations)
        return rep
    r = ring.rank
    if len(data.dims) != r or len(data.twists) != r:
        rep.add("ShapeViolation", (r,), "dims/twists length must equal rank")
        return rep

    I = ring.unit_index
    dual = ring.dual
    if data.dims[I] != ONE:
        rep.add("UnitDimViolation", (I,), "d_I must be 1")
    if data.twists[I] != ONE:
        rep.add("UnitTwistViolation", (I,), "theta_I must be 1")
    for a in range(r):
        if data.dims[a].is_zero():
            rep.add("ZeroDimViolation", (a,))
        if data.twists[a].is_zero():
            rep.add("ZeroTwistViolation", (a,), "twists must be invertible")
        if data.dims[a] != data.dims[dual[a]]:
            rep.add("DualDimViolation", (a, dual[a]), "d_a != d_{a*}")
        if data.twists[a] != data.twists[dual[a]]:
            rep.add("DualTwistViolation", (a, dual[a]), "theta_a != theta_{a*}")
    if rep.violations:
        return rep

    # dimension character d_a d_b = sum_c N^c_{a,b} d_c at one conductor, and
    # balancing with s_{a,b} at the lcm k of its factors' conductors (which a
    # synthesized s keeps), each factor lifted once per k
    m = lcm(*(d.conductor for d in data.dims))
    dims = [d.lift(m) for d in data.dims]
    theta_inv, twisted_dims = _lifts([t.inverse() for t in data.twists]), _lifts(
        [t * d for t, d in zip(data.twists, data.dims)])
    inv_cond = [t.conductor for t in data.twists]
    dim_cond = [lcm(t.conductor, d.conductor) for t, d in zip(data.twists, data.dims)]
    balanced = [[None] * r for _ in range(r)]
    for a in range(r):
        bs, cs = np.nonzero(ring.mult[a])
        fusion = {}
        for b, c, n in zip(bs.tolist(), cs.tolist(), ring.mult[a, bs, cs].tolist()):
            fusion.setdefault(b, []).append((c, n))
        for b in range(a, r):
            terms = fusion.get(b, ())
            if dims[a] * dims[b] != _fusion_sum((dims[c], n) for c, n in terms):
                rep.add("DimensionCharacterViolation", (a, b))
            k = lcm(inv_cond[a], inv_cond[b], *(dim_cond[c] for c, _ in terms))
            balanced[a][b] = balanced[b][a] = theta_inv(a, k) * theta_inv(b, k) * _fusion_sum(
                (twisted_dims(c, k), n) for c, n in terms)
    if rep.violations:
        return rep

    if data.s is not None and (len(data.s) != r or any(len(row) != r for row in data.s)):
        rep.add("ShapeViolation", (r,), "s-matrix must be rank x rank")
        return rep
    if data.s is None:
        data.s = balanced
    else:
        for a in range(r):
            for b in range(r):
                if data.s[a][b] != balanced[a][b]:
                    rep.add("BalancingViolation", (a, b), "supplied s disagrees with balancing formula")
    if rep.violations:
        return rep

    s = data.s
    for a in range(r):
        for b in range(a, r):
            if s[a][b].conj() != s[dual[a]][b]:
                rep.add("SConjugationViolation", (a, b), "conj(s_{a,b}) != s_{a*,b}")
    return rep


def framed_s_entry(data: PremodularData, a: str, b: str) -> CycNum:
    """S~_{a,b} = s_{a,b} / (d_a d_b) in the ribbon gauge."""
    i, j = data.ring.index(a), data.ring.index(b)
    return data.s_entry(i, j) / (data.dims[i] * data.dims[j])


def _centralizes(data: PremodularData, b: int, idx) -> bool:
    # S~_{b,x} = 1 for every x in idx, tested multiplicatively: s_{b,x} = d_b d_x
    s, dims = data.s, data.dims
    return all(s[b][x] == dims[b] * dims[x] for x in idx)


def _check_closed(data: PremodularData, idx: set[int]) -> bool:
    N = data.ring.mult
    if data.ring.unit_index not in idx:
        return False
    for a in idx:
        if data.ring.dual[a] not in idx:
            return False
        for b in idx:
            if any(int(c) not in idx for c in np.flatnonzero(N[a, b])):
                return False
    return True


def relative_centralizer(data: PremodularData, sub) -> set[str]:
    """Labels transparent to every member of `sub` (a fusion- and
    dual-closed label set)."""
    idx = {data.ring.index(x) for x in sub}
    if not _check_closed(data, idx):
        raise NotASubcategory(f"label set {sorted(sub)} is not closed under fusion and duals")
    out = {b for b in range(data.ring.rank) if _centralizes(data, b, idx)}
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
        mult=data.ring.mult[np.ix_(idx, idx, idx)],
        dual=[pos[data.ring.dual[b]] for b in idx],
    )
    return PremodularData(
        ring=sub_ring,
        dims=[data.dims[b] for b in idx],
        twists=[data.twists[b] for b in idx],
        s=[[data.s[a][b] for b in idx] for a in idx],
    )


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
    idx = [b for b in range(ring.rank) if _centralizes(data, b, range(ring.rank))]
    trans = [data.labels[b] for b in idx]
    bos = sum(1 for b in idx if data.twists[b] == ONE)
    fer = sum(1 for b in idx if data.twists[b] == MINUS_ONE)
    if idx == [ring.unit_index]:
        return CentreClassification(CentreKind.NONDEGENERATE, trans, None, bos, fer)
    if len(idx) == 2:
        e = idx[0] if idx[1] == ring.unit_index else idx[1]
        e_squared_is_unit = (
            ring.mult[e, e, ring.unit_index] == 1
            and int(ring.mult[e, e].sum()) == 1
        )
        if e_squared_is_unit and data.twists[e] == MINUS_ONE:
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
