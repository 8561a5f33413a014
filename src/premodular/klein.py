"""Klein-bottle invariants on the Grothendieck ring, and the extension
verdict for slightly degenerate data.

Everything here is decategorified: the eta scalar of a label is theta*d
(the framed loop value in the ribbon gauge), and the Klein invariants of
the two canonical summands singled out by the fermion line e are the
exact rationals

    kappa_pm = 1/2 (#{a : a* = a} +- #{a : a* = e.a}),

computed by counting.  The data is tested by the exact twist identity
theta_{e.a} = -theta_a for every label a, which forces the twisted count
to vanish and kappa_minus > 0; that certifies that a minimal
nondegenerate extension exists (the positive, "S", case of the two
possible ambient doubles; the other, "T", would force kappa <= 0 on
purely magnetic objects).  No 2-categorical structure is modelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclotomic import CycNum
from .data import CentreClassification, CentreKind, PremodularData, classify_degeneracy
from .errors import CrossCheckMismatch, NotSlightlyDegenerate

__all__ = ["KappaReport", "ExtensionVerdict", "eta_scalar", "kappa_invariants", "extension_verdict"]

@dataclass
class KappaReport:
    n_self_dual: int
    n_e_twisted: int
    kappa_plus: Fraction
    kappa_minus: Fraction
    verdict: str  # always "extension_exists_S"; anything else raises

    def to_json(self):
        frac = lambda f: f"{f.numerator}/{f.denominator}"
        return {
            "n_self_dual": self.n_self_dual,
            "n_e_twisted": self.n_e_twisted,
            "kappa_plus": frac(self.kappa_plus),
            "kappa_minus": frac(self.kappa_minus),
            "verdict": self.verdict,
        }


def eta_scalar(data: PremodularData, a: str) -> CycNum:
    """theta_a * d_a, the framed loop value of a dualizable simple."""
    i = data.ring.index(a)
    return data.twists[i] * data.dims[i]


def kappa_invariants(data: PremodularData) -> KappaReport:
    """Klein invariants of the two canonical summands of a slightly
    degenerate datum, with the twist-identity check.

    Raises NotSlightlyDegenerate unless the classification identifies a
    fermion e, and CrossCheckMismatch when the twist identity fails (see
    _kappa_report).
    """
    cls = classify_degeneracy(data)
    if cls.kind is not CentreKind.SLIGHTLY_DEGENERATE:
        raise NotSlightlyDegenerate(f"classification is {cls.kind.value}; need a fermion line")
    return _kappa_report(data, cls.fermion)


def _kappa_report(data: PremodularData, fermion: str) -> KappaReport:
    """Count self-dual and e-twisted labels after checking
    theta_{e.a} = -theta_a exactly for every label a.

    Why the identity holds: e is transparent, so s_{e,a} = d_e d_a, and
    balancing gives s_{e,a} = theta_e^-1 theta_a^-1 theta_{e.a} d_{e.a}
    with d_{e.a} = d_e d_a; hence theta_{e.a} = theta_e theta_a =
    -theta_a.  Validation requires theta_{a*} = theta_a, so a* = e.a
    would force theta_a = -theta_a = 0, which validation also excludes.
    Therefore n_e_twisted = 0, and kappa_minus = n_self_dual / 2 >= 1/2
    because the unit is self-dual.  A product e.a that is not a single
    simple, a failure of the identity, a nonzero twisted count or
    kappa_minus <= 0 means the datum was never validated or an invariant
    broke; each raises CrossCheckMismatch.
    """
    ring = data.ring
    e = ring.index(fermion)
    # row a of N[e] is the product e.a, a single simple with multiplicity 1
    Ne = ring.row(e)
    e_times = Ne.argmax(axis=1)
    not_simple = np.flatnonzero((Ne != np.eye(ring.rank, dtype=Ne.dtype)[e_times]).any(axis=1))
    if len(not_simple):
        raise CrossCheckMismatch(f"product of {fermion} and {ring.labels[not_simple[0]]} is not simple")
    T = data.twists.num
    failing = np.flatnonzero((T[e_times] != -T).any(axis=1))
    if len(failing):
        a = int(failing[0])
        raise CrossCheckMismatch(
            f"twist identity fails: theta({ring.labels[e_times[a]]}) != -theta({ring.labels[a]})"
        )
    dual = np.asarray(ring.dual)
    n_self_dual = int((dual == np.arange(ring.rank)).sum())
    n_e_twisted = int((dual == e_times).sum())
    kappa_plus = Fraction(n_self_dual + n_e_twisted, 2)
    kappa_minus = Fraction(n_self_dual - n_e_twisted, 2)
    if n_e_twisted != 0 or kappa_minus <= 0:
        raise CrossCheckMismatch(
            f"n_e_twisted = {n_e_twisted}, kappa_minus = {kappa_minus} despite the twist identity"
        )
    return KappaReport(
        n_self_dual=n_self_dual,
        n_e_twisted=n_e_twisted,
        kappa_plus=kappa_plus,
        kappa_minus=kappa_minus,
        verdict="extension_exists_S",
    )


@dataclass
class ExtensionVerdict:
    code: str                     # already_nondegenerate | extension_exists_S | outside_scope
    message: str
    kappa: KappaReport | None


def extension_verdict(data: PremodularData, cls: CentreClassification) -> ExtensionVerdict:
    """Existence verdict for a minimal nondegenerate extension, where cls
    is the datum's classification.

    Nondegenerate data is its own extension; slightly degenerate data is
    certified through kappa_minus > 0; data with a transparent boson is
    reported as out of scope without judgment.
    """
    if cls.kind is CentreKind.NONDEGENERATE:
        return ExtensionVerdict(
            code="already_nondegenerate",
            message="already nondegenerate (M = B)",
            kappa=None,
        )
    if cls.kind is CentreKind.SLIGHTLY_DEGENERATE:
        report = _kappa_report(data, cls.fermion)
        return ExtensionVerdict(
            code=report.verdict,
            message=(
                "minimal nondegenerate extension exists (ambient double of class S, "
                f"kappa_minus = {report.kappa_minus})"
            ),
            kappa=report,
        )
    return ExtensionVerdict(
        code="outside_scope",
        message="outside scope: transparent boson present (Tannakian direction)",
        kappa=None,
    )
