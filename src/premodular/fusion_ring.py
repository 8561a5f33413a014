"""Fusion rings: the Grothendieck-ring layer.

A fusion ring here is a finite list of simple labels with nonnegative
integer structure constants N^c_{a,b}, a declared unit, and an involutive
dual permutation.  Commutativity is required: everything downstream
models braided data, and the associativity check relies on it.

Representation: the nonzero structure constants alone, as entries
[a, b, c, N^c_{a,b}] sorted by (a, b, c), the shape of the JSON
"fusion" list, with the offset at which each row a starts.  A group ring
of rank r has r^2 entries and no r x r x r array is ever built:
validation runs on the entries, and the dense consumers take one row
N[a] as an r x r array (FusionRing.row) or the entries among a label
set (FusionRing.restrict).  Associativity of every ring is decided by
the associativity join over the rows of a generating set, and a ring
that fails it is reported by the join over every row; the join reads the
entries in blocks of max(_JOIN_BLOCK, r^2) pairs that cross row
boundaries.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import UnknownLabel
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
    "fpdim",
    "dual_permutation_matrix",
    "group_ring",
]


class FusionRing:
    """labels, unit index, the nonzero structure constants, dual involution.

    fusion lists entries [a, b, c, m]: simple c occurs m times in the
    product a . b.  Construction checks the shape and ranges, sorts the
    entries by (a, b, c), keeps the last m of a repeated (a, b, c) and
    drops the entries whose m is 0: ring.fusion is an (n, 4) int64 array
    with one entry per nonzero; a, b, c and m are its columns, and the
    entries of row a are those from start[a] to start[a + 1].  Label
    order in all derived matrices is the input order.
    """

    def __init__(self, labels: list[str], unit_index: int, fusion, dual: list[int]):
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
        if len(set(labels)) != r:
            raise ValueError("labels must be distinct")
        keys = np.array([r * r, r, 1]) @ columns[:3]
        if (keys[1:] <= keys[:-1]).any():
            order = np.argsort(keys, kind="stable")
            columns = columns[:, order[np.diff(keys[order], append=-1) != 0]]
        if not columns[3].all():
            columns = columns[:, columns[3] != 0]
        self.labels, self.unit_index, self.dual = labels, unit_index, dual
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

    @functools.cached_property
    def _index(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(label) from None

    def row(self, a: int) -> np.ndarray:
        """N[a] as an r x r array, entry (b, c) = N^c_{a,b}."""
        at = slice(self.start[a], self.start[a + 1])
        return _matrix(self.b[at], self.c[at], self.m[at], self.rank)

    def restrict(self, idx):
        """The entries with a and b in idx, a list of label indices, as
        columns a, b, c, m with each label replaced by its position in
        idx, and c by -1 where it is not in idx; sorted by (a, b, c) when
        idx is increasing."""
        pos = np.full(self.rank, -1)
        pos[idx] = np.arange(len(idx))
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
    first = np.flatnonzero(np.concatenate((keys[:1] >= 0, keys[1:] != keys[:-1])))
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
    commutativity holds, by the join: a.(b.c) = (c.b).a, so it says that
    T[a,b,c,d] = sum_e N^e_{a,b} N^d_{e,c}, the multiplicity of d in
    (a.b).c, is symmetric in a and c.  The b with (x.b).z = x.(b.z) for
    all x, z form a subring (Clifford and Preston, The Algebraic Theory
    of Semigroups I, 1.2), so the join runs on the rows b of a generating
    set (_generators), and of the unit when the unit axiom (the only
    violation reported before) fails.  Only a ring that fails goes to
    the join over every row, which reports at most 10 witnesses (a, b,
    c, d), ordered by b, a, c, d.  T is never built: the join does one
    product N^e_{a,b} N^d_{e,c} per pair of nonzero factors, r^2 per row
    b of a pointed ring.

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
    elif _associativity_witnesses(ring, 1, _generators(ring) + ([] if rep.ok else [I])):
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


def _generators(ring: FusionRing) -> list[int]:
    """Labels S that generate the ring with the unit I, taken greedily:
    from G = {I}, a label c joins G when, for some x and y in G, c is
    the only constituent of x.y outside G, with multiplicity 1, so that
    c is x.y less labels of G; when none joins, the smallest label
    outside G joins S and G.  On a group ring this is Light's closure
    G <- G u G.G, and |S| <= log2 r."""
    r, abc, c = ring.rank, np.stack((ring.a, ring.b, ring.c)), ring.c
    pair, once = ring.a * r + ring.b, ring.m == 1
    generated, S = np.arange(r) == ring.unit_index, []
    while not generated.all():
        # the entries with x and y in G and c outside G, sorted by (x, y);
        # those alone in their pair x.y and of multiplicity 1 join
        x, y, z = generated[abc]
        at = np.flatnonzero(x & y > z)
        key = pair[at]
        edge = np.concatenate(([True], key[1:] != key[:-1], [True]))
        joined = c[at[edge[:-1] & edge[1:] & once[at]]]
        if len(joined):
            generated[joined] = True
        else:
            S.append(int(np.argmin(generated)))
            generated[S[-1]] = True
    return S


def _associativity_witnesses(ring: FusionRing, limit: int, middle=None) -> list[tuple[int, int, int, int]]:
    """The first `limit` (a, b, c, d), ordered by b, a, c, d, with
    T[a,b,c,d] != T[c,b,a,d], for a commutative ring, b among the
    labels `middle`, or any label when it is None.

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
    keep = np.zeros(r, dtype=bool)
    keep[range(r) if middle is None else middle] = True
    rows = keep[ring.a]
    x, y, z, w = ring.a[rows], ring.b[rows], ring.c[rows], ring.m[rows]
    weighted = (ring.m != 1).any()
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
        a, c = np.repeat(y[i:j], nk), ring.b[at]
        value = np.sign(c - a)
        if weighted:
            value *= np.repeat(w[i:j], nk) * ring.m[at]
        key = np.repeat(x[i:j] * r, nk)
        key += np.minimum(a, c)
        key *= r
        key += np.maximum(a, c)
        key *= r
        key += ring.c[at]
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


def dual_permutation_matrix(ring: FusionRing) -> np.ndarray:
    """Permutation matrix D of the involution a -> a*: D[a, dual(a)] = 1."""
    return np.eye(ring.rank, dtype=np.int64)[ring.dual]


def fpdim(ring: FusionRing):
    """Frobenius-Perron dimensions: (total, per-label vector).

    The FPdim vector d is positive, 1 at the unit, and sum_c N^c_{a,b} d_c
    = d_a d_b (EGNO, Tensor Categories, 3.3), so it is a positive
    eigenvector of S[b, c] = sum_a N^c_{a,b}, of eigenvalue sum_a d_a.  On
    a fusion ring S is symmetric (N^c_{a,b} = N^b_{a*,c}) and entrywise
    positive (N^c_{c b*, b} > 0), so d is its Perron vector: one
    np.linalg.eigh.  d is checked to be a character of the ring to 1e-9,
    else ArithmeticError, also when it is not finite.
    """
    r = ring.rank
    S = np.bincount(ring.b * r + ring.c, weights=ring.m, minlength=r * r).reshape(r, r)
    perron = np.linalg.eigh(S)[1][:, -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        vec = perron / perron[ring.unit_index]
    # character property: FPdim(a) FPdim(b) = sum_c N^c_{a,b} FPdim(c)
    contracted = np.bincount(ring.a * r + ring.b, weights=ring.m * vec[ring.c], minlength=r * r)
    err = np.abs(np.outer(vec, vec) - contracted.reshape(r, r)).max()
    if not err <= 1e-9:
        raise ArithmeticError(f"FPdim vector fails the character property by {err:.2e}")
    return float(np.dot(vec, vec)), vec


def group_ring(labels: list[str], add_table: np.ndarray, unit_index: int, inverse: list[int]) -> FusionRing:
    """Fusion ring of a finite abelian group given its addition table:
    the entries [a, b, a + b, 1]."""
    r = len(labels)
    a, b = np.indices((r, r), dtype=np.int64).reshape(2, r * r)
    c = np.asarray(add_table, dtype=np.int64).reshape(r * r)
    return FusionRing(labels, unit_index, np.column_stack((a, b, c, np.ones(r * r, dtype=np.int64))), list(inverse))
