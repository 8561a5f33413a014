"""Fusion rings: the Grothendieck-ring layer.

A fusion ring here is a finite list of simple labels with nonnegative
integer structure constants N^c_{a,b}, a declared unit, and an involutive
dual permutation.  Commutativity is required: everything downstream
models braided data, and the associativity check relies on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonConvergent, UnknownLabel
from .validation import ValidationReport

# caps on rings read from files: an associativity entry sums r products of
# two multiplicities, and MAX_RANK * MAX_MULT**2 = 2**62 < 2**63, so the
# int64 contraction cannot wrap
MAX_RANK = 256
MAX_MULT = 2**27

__all__ = [
    "FusionRing",
    "validate_fusion_ring",
    "fusion_matrix",
    "fpdim",
    "dual_permutation_matrix",
    "group_ring",
]


@dataclass
class FusionRing:
    """labels, unit index, rank-3 multiplicity tensor, dual involution.

    mult[a, b, c] is the multiplicity of simple c in the product a . b;
    label order in all derived matrices is the input order.
    """

    labels: list[str]
    unit_index: int
    mult: np.ndarray
    dual: list[int]
    _index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.mult = np.asarray(self.mult, dtype=np.int64)
        r = len(self.labels)
        if self.mult.shape != (r, r, r):
            raise ValueError(f"mult tensor shape {self.mult.shape} does not match rank {r}")
        if len(self.dual) != r:
            raise ValueError("dual permutation length does not match rank")
        if not 0 <= self.unit_index < r:
            raise ValueError("unit_index out of range")
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != r:
            raise ValueError("labels must be distinct")

    def __eq__(self, other):
        if not isinstance(other, FusionRing):
            return NotImplemented
        return (
            self.labels == other.labels
            and self.unit_index == other.unit_index
            and list(self.dual) == list(other.dual)
            and np.array_equal(self.mult, other.mult)
        )

    @property
    def rank(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(label) from None

    def product_single(self, a: int, b: int) -> int:
        """Index of a.b when the product is a single simple (e.g. invertible a)."""
        row = self.mult[a, b]
        nz = np.flatnonzero(row)
        if len(nz) != 1 or row[nz[0]] != 1:
            raise ValueError(f"product of {self.labels[a]} and {self.labels[b]} is not simple")
        return int(nz[0])


def validate_fusion_ring(ring: FusionRing) -> ValidationReport:
    """Check unit, commutativity, associativity and duality axioms.

    Associativity is checked only when commutativity holds; then
    a.(b.c) = (c.b).a, so it says that T[a,b,c,d] = sum_e N^e_{a,b}
    N^d_{e,c}, the multiplicity of d in (a.b).c, is symmetric in a and c.

    Returns all violated axioms with index witnesses (a, b, ...); never
    raises on an axiom failure.
    """
    rep = ValidationReport()
    r = ring.rank
    N = ring.mult
    I = ring.unit_index

    if (N < 0).any():
        for a, b, c in np.argwhere(N < 0)[:10]:
            rep.add("NegativeMultiplicity", (int(a), int(b), int(c)))
        return rep

    eye = np.eye(r, dtype=np.int64)
    if not np.array_equal(N[I], eye):
        for b, c in np.argwhere(N[I] != eye)[:10]:
            rep.add("UnitViolation", (I, int(b), int(c)), "N^c_{I,b} != delta")
    if not np.array_equal(N[:, I, :], eye):
        for a, c in np.argwhere(N[:, I, :] != eye)[:10]:
            rep.add("UnitViolation", (int(a), I, int(c)), "N^c_{a,I} != delta")

    if not np.array_equal(N, N.transpose(1, 0, 2)):
        for a, b, c in np.argwhere(N != N.transpose(1, 0, 2))[:10]:
            rep.add("CommutativityViolation", (int(a), int(b), int(c)))
    else:
        found = 0
        for b in range(r):
            T = np.einsum("ae,ecd->acd", N[:, b, :], N)
            for a, c, d in np.argwhere(T != T.transpose(1, 0, 2))[:10 - found]:
                rep.add("AssociativityViolation", (int(a), b, int(c), int(d)))
                found += 1

    dual = list(ring.dual)
    if sorted(dual) != list(range(r)):
        rep.add("DualityViolation", tuple(dual), "dual is not a permutation")
        return rep
    for a in range(r):
        if dual[dual[a]] != a:
            rep.add("DualityViolation", (a,), "dual is not an involution")
    if dual[I] != I:
        rep.add("DualityViolation", (I,), "unit must be self-dual")
    for a in range(r):
        for b in range(r):
            expected = 1 if b == dual[a] else 0
            if N[a, b, I] != expected:
                rep.add("DualityViolation", (a, b), f"N^I_{{a,b}} = {int(N[a, b, I])}, expected {expected}")
    return rep


def fusion_matrix(ring: FusionRing, a: str) -> np.ndarray:
    """Left-multiplication matrix of label a: entry (c, b) is N^c_{a,b}."""
    return ring.mult[ring.index(a)].T.copy()


def dual_permutation_matrix(ring: FusionRing) -> np.ndarray:
    """Permutation matrix D of the involution a -> a*: D[a, dual(a)] = 1."""
    r = ring.rank
    D = np.zeros((r, r), dtype=np.int64)
    D[np.arange(r), np.asarray(ring.dual)] = 1
    return D


def _largest_eigenvalue(M: np.ndarray, tol: float = 1e-12, max_steps: int = 100_000) -> float:
    """Perron eigenvalue of a nonnegative integer matrix by power iteration.

    Iterates on M + Id to break eigenvalue ties on the spectral circle
    (permutation matrices would otherwise cycle).
    """
    n = M.shape[0]
    A = M.astype(float) + np.eye(n)
    v = np.full(n, 1.0 / np.sqrt(n))
    lam = None
    for _ in range(max_steps):
        w = A @ v
        w /= np.linalg.norm(w)
        new_lam = w @ (A @ w)
        if lam is not None and abs(new_lam - lam) < tol and np.linalg.norm(w - v) < 1e-9:
            return new_lam - 1.0
        v, lam = w, new_lam
    raise NonConvergent(f"power iteration did not converge in {max_steps} steps")


def fpdim(ring: FusionRing, tol: float = 1e-12):
    """Frobenius-Perron dimensions: (total, per-label vector).

    FPdim(a) is the largest eigenvalue of the fusion matrix of a; the
    vector is checked to be a character of the ring to 1e-9.
    """
    vec = np.array([_largest_eigenvalue(ring.mult[a].T, tol=tol) for a in range(ring.rank)])
    # character property: FPdim(a) FPdim(b) = sum_c N^c_{a,b} FPdim(c)
    outer = np.outer(vec, vec)
    contracted = np.einsum("abc,c->ab", ring.mult, vec)
    err = np.abs(outer - contracted).max()
    if err > 1e-9:
        raise ArithmeticError(f"FPdim vector fails the character property by {err:.2e}")
    return float(np.dot(vec, vec)), vec


def group_ring(labels: list[str], add_table: np.ndarray, unit_index: int, inverse: list[int]) -> FusionRing:
    """Fusion ring of a finite abelian group given its addition table."""
    r = len(labels)
    mult = np.zeros((r, r, r), dtype=np.int64)
    mult[np.arange(r)[:, None], np.arange(r)[None, :], add_table] = 1
    return FusionRing(labels=labels, unit_index=unit_index, mult=mult, dual=list(inverse))
