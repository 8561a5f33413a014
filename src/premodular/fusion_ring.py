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

# caps on rings read from files: a keyed sum in the associativity join is
# T[a,b,c,d] - T[c,b,a,d], each term a sum of at most r products of two
# multiplicities, so every partial sum lies within MAX_RANK * MAX_MULT**2
# = 2**62 < 2**63 of zero and the int64 sums cannot wrap
MAX_RANK = 256
MAX_MULT = 2**27

# pairs of nonzeros joined at once by the associativity check; about a
# dozen int64 arrays of this length are live at a time
_JOIN_BLOCK = 2**18

__all__ = [
    "FusionRing",
    "validate_fusion_ring",
    "fusion_matrix",
    "fpdim",
    "subring_fpdim",
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
    T is never built: a join over the nonzeros of N does work equal to
    the number of products N^e_{a,b} N^d_{e,c} with both factors nonzero,
    r^3 on a group ring of rank r (a dense contraction costs r^5), and
    reports at most 10 witnesses (a, b, c, d), ordered by b, a, c, d.

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
        for witness in _associativity_witnesses(N, 10):
            rep.add("AssociativityViolation", witness)

    dual = list(ring.dual)
    if sorted(dual) != list(range(r)):
        rep.add("DualityViolation", tuple(dual), "dual is not a permutation")
        return rep
    for a in range(r):
        if dual[dual[a]] != a:
            rep.add("DualityViolation", (a,), "dual is not an involution")
    if dual[I] != I:
        rep.add("DualityViolation", (I,), "unit must be self-dual")
    expected = dual_permutation_matrix(ring)
    for a, b in np.argwhere(N[:, :, I] != expected):
        rep.add("DualityViolation", (int(a), int(b)),
                f"N^I_{{a,b}} = {int(N[a, b, I])}, expected {int(expected[a, b])}")
    return rep


def _associativity_witnesses(N: np.ndarray, limit: int) -> list[tuple[int, int, int, int]]:
    """The first `limit` (a, b, c, d), ordered by b, a, c, d, with
    T[a,b,c,d] != T[c,b,a,d], for a commutative N.

    For each b, every nonzero N^e_{a,b} (row b of the index below, as
    N^e_{a,b} = N^e_{b,a}) meets every nonzero N^d_{e,c} and adds their
    product to the key (lo, hi, d) = (min(a,c), max(a,c), d), with sign +
    if a < c and - if a > c, so the key sums to T[lo,b,hi,d] -
    T[hi,b,lo,d].  A row is joined in chunks of about _JOIN_BLOCK pairs
    (one nonzero meets at most r^2), each sorted and merged into the
    nonzero sums so far, at most one per key: memory stays bounded on
    dense rings too.
    """
    r = len(N)
    # nonzeros N^z_{x,y} sorted by (x, y, z); those of N[x] start at start[x]
    x_, y_, z_ = np.nonzero(N)
    m_ = N[x_, y_, z_]
    start = np.searchsorted(x_, np.arange(r + 1))
    out = []
    for b in range(r):
        row = slice(start[b], start[b + 1])
        a, e, w = y_[row], z_[row], m_[row]
        n = start[e + 1] - start[e]
        chunk = (np.cumsum(n) - n) // _JOIN_BLOCK
        cuts = [0, *(np.flatnonzero(np.diff(chunk)) + 1), len(e)]
        keys = sums = np.zeros(0, dtype=np.int64)
        for i, j in zip(cuts, cuts[1:]):
            # nonzero i of row b meets the n[i] nonzeros of N[e[i]]
            ni = n[i:j]
            idx = np.arange(ni.sum()) + np.repeat(start[e[i:j]] - (np.cumsum(ni) - ni), ni)
            ai, c = np.repeat(a[i:j], ni), y_[idx]
            keys = np.concatenate((keys, (np.minimum(ai, c) * r + np.maximum(ai, c)) * r + z_[idx]))
            signed = np.concatenate((sums, np.sign(c - ai) * np.repeat(w[i:j], ni) * m_[idx]))
            order = np.argsort(keys)
            keys = keys[order]
            groups = np.flatnonzero(np.diff(keys, prepend=-1))
            sums = np.add.reduceat(signed[order], groups)
            keys, sums = keys[groups[sums != 0]], sums[sums != 0]
        lo, hi, d = keys // (r * r), keys // r % r, keys % r
        violated = np.sort(np.concatenate((keys, (hi * r + lo) * r + d)))[:limit - len(out)]
        out += [(int(k) // (r * r), b, int(k) // r % r, int(k) % r) for k in violated]
        if len(out) == limit:
            break
    return out


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


def subring_fpdim(ring: FusionRing, idx) -> np.ndarray:
    """FPdim of the labels idx, which must span a based subring, from the
    subring's own fusion matrices: the FPdim character of the ring
    restricted to a based subring is a character of the subring that is
    positive on its basis, so it is the subring's FPdim (the only such
    character), and fpdim(ring)[1][idx] gives the same vector."""
    idx = list(idx)
    return np.array([_largest_eigenvalue(ring.mult[a].T[np.ix_(idx, idx)]) for a in idx])


def group_ring(labels: list[str], add_table: np.ndarray, unit_index: int, inverse: list[int]) -> FusionRing:
    """Fusion ring of a finite abelian group given its addition table."""
    r = len(labels)
    mult = np.zeros((r, r, r), dtype=np.int64)
    mult[np.arange(r)[:, None], np.arange(r)[None, :], add_table] = 1
    return FusionRing(labels=labels, unit_index=unit_index, mult=mult, dual=list(inverse))
