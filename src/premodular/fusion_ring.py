"""Fusion rings: the Grothendieck-ring layer.

A fusion ring here is a finite list of simple labels with nonnegative
integer structure constants N^c_{a,b}, a declared unit, and an involutive
dual permutation.  Commutativity is required: everything downstream
models braided data, and the associativity check relies on it.

Representation: the nonzero structure constants alone, as entries
[a, b, c, N^c_{a,b}] sorted by (a, b, c), the shape of the JSON
"fusion" list, with the offset at which each row a starts.  A group ring
of rank r has r^2 entries and no r x r x r array is ever built:
validation runs on the entries, the associativity join reads them in
blocks of max(_JOIN_BLOCK, r^2) pairs that cross row boundaries, and the
dense consumers take one row N[a] as an r x r array, or its restriction
to a label set (FusionRing.row, FusionRing.restrict).
"""

from __future__ import annotations

import numpy as np

from .errors import NonConvergent, UnknownLabel
from .validation import ValidationReport

# caps on rings read from files: a keyed sum in the associativity join is
# T[a,b,c,d] - T[c,b,a,d], each term a sum of at most r products of two
# multiplicities, so every partial sum lies within MAX_RANK * MAX_MULT**2
# = 2**62 < 2**63 of zero and the int64 sums cannot wrap
MAX_RANK = 256
MAX_MULT = 2**27

# pairs of entries joined at once by the associativity check, or r^2 at
# rank r when that is more, so a row of a group ring (r^2 pairs) is never
# split; about a dozen int64 arrays of this length are live at a time, and
# 2^13 keeps them within a core's L2 cache
_JOIN_BLOCK = 2**13

__all__ = [
    "FusionRing",
    "validate_fusion_ring",
    "fusion_matrix",
    "fpdim",
    "dual_permutation_matrix",
    "group_ring",
]


class FusionRing:
    """labels, unit index, the nonzero structure constants, dual involution.

    fusion lists entries [a, b, c, m]: simple c occurs m times in the
    product a . b.  Construction sorts them by (a, b, c), keeps the last
    m of a repeated (a, b, c) and drops the entries whose m is 0, so
    ring.fusion is an (n, 4) int64 array with one entry per nonzero; a,
    b, c and m are its columns, and the entries of row a are those from
    start[a] to start[a + 1].  Label order in all derived matrices is
    the input order.
    """

    def __init__(self, labels: list[str], unit_index: int, fusion, dual: list[int]):
        self.labels, self.unit_index, self.dual = labels, unit_index, dual
        r = len(labels)
        fusion = np.asarray(fusion, dtype=np.int64)
        if fusion.size == 0:
            fusion = fusion.reshape(0, 4)
        if fusion.ndim != 2 or fusion.shape[1] != 4:
            raise ValueError(f"fusion entries of shape {fusion.shape}, expected (n, 4)")
        columns = fusion.T.copy()
        if len(fusion) and not (0 <= columns[:3].min() and columns[:3].max() < r):
            raise ValueError(f"fusion index out of range for rank {r}")
        if len(dual) != r:
            raise ValueError("dual permutation length does not match rank")
        if not 0 <= unit_index < r:
            raise ValueError("unit_index out of range")
        self._index = {lab: i for i, lab in enumerate(labels)}
        if len(self._index) != r:
            raise ValueError("labels must be distinct")
        keys = np.array([r * r, r, 1]) @ columns[:3]
        if (keys[1:] <= keys[:-1]).any():
            order = np.argsort(keys, kind="stable")
            columns = columns[:, order[np.diff(keys[order], append=-1) != 0]]
        if not columns[3].all():
            columns = columns[:, columns[3] != 0]
        self.a, self.b, self.c, self.m = columns
        self.start = np.searchsorted(self.a, np.arange(r + 1))

    @property
    def fusion(self) -> np.ndarray:
        return np.stack((self.a, self.b, self.c, self.m), axis=1)

    def __repr__(self):
        return (f"FusionRing(labels={self.labels!r}, unit_index={self.unit_index}, "
                f"fusion={self.fusion.tolist()}, dual={self.dual!r})")

    def __eq__(self, other):
        if not isinstance(other, FusionRing):
            return NotImplemented
        return (
            self.labels == other.labels
            and self.unit_index == other.unit_index
            and list(self.dual) == list(other.dual)
            and np.array_equal(self.fusion, other.fusion)
        )

    @property
    def rank(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(label) from None

    def _positions(self, idx) -> np.ndarray:
        """Each label's position in the index list idx, -1 if absent."""
        pos = np.full(self.rank, -1)
        pos[idx] = np.arange(len(idx))
        return pos

    def row(self, a: int, idx=None) -> np.ndarray:
        """N[a] as an r x r array, entry (b, c) = N^c_{a,b}; with idx, a
        list of label indices, only the entries with b and c in idx, as a
        len(idx) x len(idx) array in the order of idx."""
        at = slice(self.start[a], self.start[a + 1])
        b, c, m = self.b[at], self.c[at], self.m[at]
        if idx is not None:
            pos = self._positions(idx)
            b, c = pos[b], pos[c]
            keep = (b >= 0) & (c >= 0)
            b, c, m = b[keep], c[keep], m[keep]
        return _matrix(b, c, m, self.rank if idx is None else len(idx))

    def restrict(self, idx):
        """The entries with a and b in idx, a list of label indices, as
        columns a, b, c, m with each label replaced by its position in
        idx, and c by -1 where it is not in idx; sorted by (a, b, c) when
        idx is increasing."""
        pos = self._positions(idx)
        keep = (pos[self.a] >= 0) & (pos[self.b] >= 0)
        return pos[self.a[keep]], pos[self.b[keep]], pos[self.c[keep]], self.m[keep]


def _nonzero_sums(keys: np.ndarray, values: np.ndarray):
    """The distinct keys, increasing, at which the values sum to nonzero,
    and their sums; keys are nonnegative and below 2^32.  The keys are
    sorted with each one's position in the bits below them, since
    np.sort on int64 runs several times faster than np.argsort."""
    shift = len(keys).bit_length()
    code = np.sort(keys << shift | np.arange(len(keys)))
    keys = code >> shift
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    sums = np.add.reduceat(values[code & ((1 << shift) - 1)], first)
    nonzero = sums != 0
    return keys[first[nonzero]], sums[nonzero]


def _matrix(x: np.ndarray, y: np.ndarray, m: np.ndarray, r: int) -> np.ndarray:
    """The r x r matrix with the values m at (x, y), zero elsewhere."""
    out = np.zeros((r, r), dtype=np.int64)
    out[x, y] = m
    return out


def validate_fusion_ring(ring: FusionRing) -> ValidationReport:
    """Check unit, commutativity, associativity and duality axioms.

    Every check reads the entries: the unit and duality checks through
    r x r slices of N, commutativity as the sums N^c_{a,b} - N^c_{b,a}
    keyed by (a, b, c).  Associativity is checked only when
    commutativity holds; then a.(b.c) = (c.b).a, so it says that
    T[a,b,c,d] = sum_e N^e_{a,b} N^d_{e,c}, the multiplicity of d in
    (a.b).c, is symmetric in a and c.  T is never built: a join over
    the entries does work equal to the number of products N^e_{a,b}
    N^d_{e,c} with both factors nonzero, the sum of nnz(N[e]) over the
    entries [a, b, e, m], r^3 on a group ring of rank r (a dense
    contraction costs r^5), and reports at most 10 witnesses (a, b, c,
    d), ordered by b, a, c, d.

    Returns all violated axioms with index witnesses (a, b, ...); never
    raises on an axiom failure.
    """
    rep = ValidationReport()
    r, I = ring.rank, ring.unit_index
    a, b, c, m = ring.a, ring.b, ring.c, ring.m

    negative = np.flatnonzero(m < 0)[:10]
    if len(negative):
        for k in negative.tolist():
            rep.add("NegativeMultiplicity", (int(a[k]), int(b[k]), int(c[k])))
        return rep

    # N[I] and N[:, I, :], (b, c) and (a, c), against the identity
    eye = np.eye(r, dtype=np.int64)
    for x, y in np.argwhere(ring.row(I) != eye)[:10].tolist():
        rep.add("UnitViolation", (I, x, y), "N^c_{I,b} != delta")
    right = b == I
    for x, y in np.argwhere(_matrix(a[right], c[right], m[right], r) != eye)[:10].tolist():
        rep.add("UnitViolation", (x, I, y), "N^c_{a,I} != delta")

    # N^c_{a,b} - N^c_{b,a}, keyed by (a, b, c)
    asymmetric, _ = _nonzero_sums(np.concatenate(((a * r + b) * r + c, (b * r + a) * r + c)),
                                  np.concatenate((m, -m)))
    if len(asymmetric):
        for k in asymmetric[:10].tolist():
            rep.add("CommutativityViolation", (k // (r * r), k // r % r, k % r))
    else:
        for witness in _associativity_witnesses(ring, 10):
            rep.add("AssociativityViolation", witness)

    dual = list(ring.dual)
    if sorted(dual) != list(range(r)):
        rep.add("DualityViolation", tuple(dual), "dual is not a permutation")
        return rep
    for x in range(r):
        if dual[dual[x]] != x:
            rep.add("DualityViolation", (x,), "dual is not an involution")
    if dual[I] != I:
        rep.add("DualityViolation", (I,), "unit must be self-dual")
    to_unit = c == I
    N_I, expected = _matrix(a[to_unit], b[to_unit], m[to_unit], r), dual_permutation_matrix(ring)
    for x, y in np.argwhere(N_I != expected).tolist():
        rep.add("DualityViolation", (x, y), f"N^I_{{a,b}} = {N_I[x, y]}, expected {expected[x, y]}")
    return rep


def _associativity_witnesses(ring: FusionRing, limit: int) -> list[tuple[int, int, int, int]]:
    """The first `limit` (a, b, c, d), ordered by b, a, c, d, with
    T[a,b,c,d] != T[c,b,a,d], for a commutative ring.

    Every entry N^e_{b,a} = N^e_{a,b} meets every entry N^d_{e,c} of row
    e and adds their product to the key (b, lo, hi, d), (lo, hi) =
    (min(a,c), max(a,c)), with sign + if a < c and - if a > c, so the
    key sums to T[lo,b,hi,d] - T[hi,b,lo,d].  The entries are joined in
    blocks of about max(_JOIN_BLOCK, r^2) pairs, in order of b and across
    rows (one entry meets at most r^2), each sorted and merged into the
    nonzero sums of the rows still open, at most one per key: memory
    stays bounded on dense rings too.  A row is complete once a block
    ends past it; its witnesses are taken then, and the join stops at
    `limit`.
    """
    r, start = ring.rank, ring.start
    x, y, z, w = ring.a, ring.b, ring.c, ring.m
    weighted = (w != 1).any()
    n = start[z + 1] - start[z]  # pairs each entry joins
    block = (np.cumsum(n) - n) // max(_JOIN_BLOCK, r * r)
    cuts = [0, *(np.flatnonzero(np.diff(block)) + 1).tolist(), len(x)]
    keys = sums = np.zeros(0, dtype=np.int64)
    out = []
    for i, j in zip(cuts, cuts[1:]):
        # entry k of the block meets the n[k] entries of row z[k]
        nk = n[i:j]
        at = np.repeat(start[z[i:j]] - np.cumsum(nk) + nk, nk)
        at += np.arange(len(at))
        a, c = np.repeat(y[i:j], nk), y[at]
        value = np.sign(c - a)
        if weighted:
            value *= np.repeat(w[i:j], nk) * w[at]
        key = np.repeat(x[i:j] * r, nk)
        key += np.minimum(a, c)
        key *= r
        key += np.maximum(a, c)
        key *= r
        key += z[at]
        keys, sums = _nonzero_sums(np.concatenate((keys, key)), np.concatenate((sums, value)))
        # the rows before the next block's first entry are complete
        done = len(keys) if j == len(x) else np.searchsorted(keys, x[j] * r**3)
        if done:
            b, lo, hi, d = keys[:done] // r**3, keys[:done] // (r * r) % r, keys[:done] // r % r, keys[:done] % r
            violated = np.sort(np.concatenate((keys[:done], ((b * r + hi) * r + lo) * r + d)))[:limit - len(out)]
            out += [(k // (r * r) % r, k // r**3, k // r % r, k % r) for k in violated.tolist()]
            if len(out) == limit:
                break
            keys, sums = keys[done:], sums[done:]
    return out


def fusion_matrix(ring: FusionRing, a: str) -> np.ndarray:
    """Left-multiplication matrix of label a: entry (c, b) is N^c_{a,b}."""
    return ring.row(ring.index(a)).T


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
    r = ring.rank
    vec = np.array([_largest_eigenvalue(ring.row(a).T, tol=tol) for a in range(r)])
    # character property: FPdim(a) FPdim(b) = sum_c N^c_{a,b} FPdim(c)
    contracted = np.bincount(ring.a * r + ring.b, weights=ring.m * vec[ring.c], minlength=r * r)
    err = np.abs(np.outer(vec, vec) - contracted.reshape(r, r)).max()
    if err > 1e-9:
        raise ArithmeticError(f"FPdim vector fails the character property by {err:.2e}")
    return float(np.dot(vec, vec)), vec


def group_ring(labels: list[str], add_table: np.ndarray, unit_index: int, inverse: list[int]) -> FusionRing:
    """Fusion ring of a finite abelian group given its addition table:
    the entries [a, b, a + b, 1], already in order."""
    r = len(labels)
    fusion = np.ones((r * r, 4), dtype=np.int64)
    fusion[:, 0], fusion[:, 1] = np.divmod(np.arange(r * r), r)
    fusion[:, 2] = np.ravel(add_table)
    return FusionRing(labels=labels, unit_index=unit_index, fusion=fusion, dual=list(inverse))
