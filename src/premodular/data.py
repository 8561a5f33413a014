"""Premodular data: a fusion ring with exact dims, twists and S-matrix.

The ribbon gauge is assumed throughout: inputs carry a spherical ribbon
structure, so the two framed loop scalars of a simple object coincide
with its dimension d.  The braiding-orientation convention is fixed by
the balancing formula

    s_{a,b} = theta_a^-1 theta_b^-1 sum_c N^c_{a,b} theta_c d_c   (exact),

which either synthesizes s (when absent from the input) or must agree
exactly with a supplied s.  The framed pairing is S~_{a,b} = s_{a,b} /
(d_a d_b); a label is transparent when its S~ column is identically 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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
    conductor: int
    dims: list[CycNum]
    twists: list[CycNum]
    s: list[list[CycNum]] | None = None

    def __eq__(self, other):
        if not isinstance(other, PremodularData):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.conductor == other.conductor
            and self.dims == other.dims
            and self.twists == other.twists
            and self.s == other.s
        )

    @property
    def labels(self):
        return self.ring.labels

    def s_entry(self, a: int, b: int) -> CycNum:
        if self.s is None:
            raise ValueError("s-matrix not present; validate the datum first")
        return self.s[a][b]


def _balanced_s_entry(data: PremodularData, a: int, b: int,
                      theta_inv: list[CycNum]) -> CycNum:
    N = data.ring.mult
    acc = None
    for c in np.flatnonzero(N[a, b]):
        term = data.twists[c] * data.dims[c]
        m = int(N[a, b, c])
        if m != 1:
            term = term * m
        acc = term if acc is None else acc + term
    if acc is None:
        acc = ZERO
    return theta_inv[a] * theta_inv[b] * acc


def validate_premodular(data: PremodularData) -> ValidationReport:
    """Check the premodular axioms exactly; synthesize s when absent.

    On a supplied s, every entry must match the balancing formula
    exactly; a mismatch is a violation, not a warning.  All remaining
    checks (symmetry, first row, conjugation/duality) run on the stored
    matrix.  Mutates data.s when synthesis succeeds.
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

    # dimension character: d_a d_b = sum_c N^c_{a,b} d_c
    N = ring.mult
    for a in range(r):
        for b in range(a, r):
            lhs = data.dims[a] * data.dims[b]
            rhs = None
            for c in np.flatnonzero(N[a, b]):
                term = data.dims[c]
                m = int(N[a, b, c])
                if m != 1:
                    term = term * m
                rhs = term if rhs is None else rhs + term
            if rhs is None or lhs != rhs:
                rep.add("DimensionCharacterViolation", (a, b))
    if rep.violations:
        return rep

    theta_inv = [t.inverse() for t in data.twists]
    if data.s is None:
        data.s = [[_balanced_s_entry(data, a, b, theta_inv) for b in range(r)] for a in range(r)]
    else:
        if len(data.s) != r or any(len(row) != r for row in data.s):
            rep.add("ShapeViolation", (r,), "s-matrix must be rank x rank")
            return rep
        for a in range(r):
            for b in range(r):
                if data.s[a][b] != _balanced_s_entry(data, a, b, theta_inv):
                    rep.add("BalancingViolation", (a, b), "supplied s disagrees with balancing formula")
    if rep.violations:
        return rep

    s = data.s
    for a in range(r):
        if s[I][a] != data.dims[a]:
            rep.add("SFirstRowViolation", (a,), "s_{I,a} != d_a")
        for b in range(a, r):
            if s[a][b] != s[b][a]:
                rep.add("SSymmetryViolation", (a, b))
            if s[a][b].conj() != s[dual[a]][b]:
                rep.add("SConjugationViolation", (a, b), "conj(s_{a,b}) != s_{a*,b}")
    return rep


def framed_s_entry(data: PremodularData, a: str, b: str) -> CycNum:
    """S~_{a,b} = s_{a,b} / (d_a d_b) in the ribbon gauge."""
    i, j = data.ring.index(a), data.ring.index(b)
    return data.s_entry(i, j) / (data.dims[i] * data.dims[j])


def _is_transparent(data: PremodularData, b: int) -> bool:
    # S~_{b,x} = 1 for all x, tested multiplicatively: s_{b,x} = d_b d_x
    s = data.s
    dims = data.dims
    return all(s[b][x] == dims[b] * dims[x] for x in range(data.ring.rank))


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
    s, dims = data.s, data.dims
    out = {
        b
        for b in range(data.ring.rank)
        if all(s[b][x] == dims[b] * dims[x] for x in idx)
    }
    assert _check_closed(data, out), "centralizer must be fusion- and dual-closed"
    return {data.labels[b] for b in out}


def mueger_centre(data: PremodularData) -> PremodularData:
    """Restriction of the datum to its transparent labels; re-validated."""
    idx = [data.ring.index(lab) for lab in classify_degeneracy(data).transparent]
    pos = {b: k for k, b in enumerate(idx)}
    N = data.ring.mult
    for a in idx:
        for b in idx:
            if any(int(c) not in pos for c in np.flatnonzero(N[a, b])):
                raise ArithmeticError("transparent labels are not fusion-closed")
    sub_ring = FusionRing(
        labels=[data.labels[b] for b in idx],
        unit_index=pos[data.ring.unit_index],
        mult=N[np.ix_(idx, idx, idx)],
        dual=[pos[data.ring.dual[b]] for b in idx],
    )
    sub = PremodularData(
        ring=sub_ring,
        conductor=data.conductor,
        dims=[data.dims[b] for b in idx],
        twists=[data.twists[b] for b in idx],
        s=[[data.s[a][b] for b in idx] for a in idx],
    )
    rep = validate_premodular(sub)
    if not rep.ok:
        raise ArithmeticError(f"restricted datum fails validation: {rep}")
    return sub


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
    idx = [b for b in range(ring.rank) if _is_transparent(data, b)]
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
