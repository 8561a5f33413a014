"""Finite metric groups: abelian groups with a Q/Z-valued quadratic form.

These are the pointed shadows of braided fusion data: the form q gives
the twists, its polarization b(x,y) = q(x+y) - q(x) - q(y) gives the
double braiding, the radical of b is the transparent subgroup, and the
Gauss sum sum_x e^(2 pi i q(x)) is the pointed central charge.  The
convention q(e) = 1/2 marks a fermion line (self-braiding -1).

q is stored as integers over one denominator, the normal form of
cyclotomic values: q(x) = Q[i]/D with Q an int64 array over the
elements in mixed-radix order (the order of elements(), last coordinate
fastest), D the lcm of the reduced denominators and 0 <= Q < D.  A form has
2 ord(x) q(x) in Z (b(x, x) = 2q(x) and ord(x) b(x, .) = 0), so D divides
2 exp(A) <= MAX_CONDUCTOR = 2 SIZE_CAP.  A table read from a file or a
dict is built by one checked builder, _checked_q, which refuses a larger
D; from_gram and the extension search build Q/D by construction
(MetricGroup._from_array).  With |A| <= SIZE_CAP = 2^12 and D <= 2^13,
every array expression below stays under 2^45, so int64 is exact.
Where a theorem settles a question it is used instead of a search: the
form laws are checked on generator pairs, pointed extension classes are
told apart by their signature, and a form is classified on itself, not
on its linearization: the Mueger centre of the pointed category C(A, q)
is the radical of b (classify_form).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

import numpy as np

from .cyclotomic import CycArray, exact_dtype, reduce_rows, reduction_growth, root_sum, root_table
from .data import CentreClassification, CentreKind, PremodularData
from .errors import CrossCheckMismatch, GroupsTooLarge, NotSlightlyDegenerate
from .fusion_ring import MAX_RANK, group_ring
from .validation import ValidationError, ValidationReport, Violation

__all__ = [
    "MetricGroup",
    "ExtensionResult",
    "validate_metric_group",
    "classify_form",
    "gauss_sum",
    "to_premodular",
    "enumerate_pointed_extensions",
    "from_gram",
    "element_labels",
]

SIZE_CAP = 4096
MAX_CONDUCTOR = 2 * SIZE_CAP


def _coordinates(orders) -> np.ndarray:
    """(k, |A|) int64 array: column i holds the coordinates of element i,
    by np.unravel_index.  The trivial group, which numpy refuses as a 0-d
    shape, gives a (0, 1) array: one element with no coordinates."""
    if not orders:
        return np.zeros((0, 1), dtype=np.int64)
    return np.array(np.unravel_index(np.arange(math.prod(orders)), orders), dtype=np.int64)


def _index(orders, coords: np.ndarray) -> np.ndarray:
    """Mixed-radix index of the elements with coordinates coords[0], ...,
    coords[k-1] (any shape), taken mod the orders, as int64: numpy's
    ravel_multi_index in mode "wrap".  In the trivial group, which numpy
    refuses as a 0-d shape, every index is 0."""
    if not orders:
        return np.zeros(coords.shape[1:], dtype=np.int64)
    return np.ravel_multi_index(tuple(coords), orders, mode="wrap")


def _failure(kind: str, witness, detail: str) -> ValidationError:
    return ValidationError(ValidationReport([Violation(kind, witness, detail)]))


def _checked_order(orders) -> int:
    """|A|, after the orders and size-cap checks (ValidationError)."""
    if min(orders, default=1) < 1:
        raise _failure("OrdersViolation", tuple(orders), "cyclic orders must be >= 1")
    order = math.prod(orders)
    if order > SIZE_CAP:
        raise _failure("SizeCapViolation", (order,), f"|A| exceeds the cap {SIZE_CAP}")
    return order


def _key_array(lengths: list, flat: list, k: int) -> np.ndarray | None:
    """The coordinates of n keys, given as their lengths and one flat list
    of ints, as an (n, k) int64 array; None, which fails coverage, if a
    key has not k coordinates or has one outside [0, SIZE_CAP)."""
    if set(lengths) - {k} or min(flat, default=0) < 0 or max(flat, default=0) >= SIZE_CAP:
        return None
    return np.array(flat, dtype=np.int64).reshape(len(lengths), k)


def _checked_q(orders, coords: np.ndarray | None, num: list, den: list):
    """(Q, D) of the table q(coords[i]) = num[i]/den[i], den[i] > 0, coords
    from _key_array, after the orders, size-cap, coverage and range checks
    (ValidationError) and the lcm cap (ValueError).  An element given twice
    keeps its last value, in the place where it first appears."""
    order = _checked_order(orders)
    # element index -> position of its last value, in first-appearance order
    last = {} if coords is None or (coords >= orders).any() else dict(
        zip(_index(orders, coords.T).tolist(), range(len(num))))
    if len(last) != order:  # distinct elements, as many as A has: exactly A
        raise _failure("CoverageViolation", (), "qtable must cover exactly the group elements")
    pos, dtype = list(last.values()), exact_dtype(max(-min(num), max(num), max(den)))
    p, q = np.array(num, dtype=dtype)[pos], np.array(den, dtype=dtype)[pos]
    bad = np.flatnonzero((p < 0) | (p >= q))
    if len(bad):
        raise ValidationError(ValidationReport([
            Violation("RangeViolation", tuple(coords[pos[i]].tolist()),
                      f"q value {Fraction(int(p[i]), int(q[i]))} outside [0,1)") for i in bad]))
    g = np.gcd(p, q)
    p, q = p // g, q // g
    if q.max() > MAX_CONDUCTOR or (D := lcm(*set(q.tolist()))) > MAX_CONDUCTOR:
        raise ValueError(f"q denominators have an lcm above the cap {MAX_CONDUCTOR}")
    Q = np.empty(order, dtype=np.int64)
    Q[list(last)] = (p * (D // q)).astype(np.int64)
    return Q, D


def _reduced(Q: np.ndarray, L: int):
    """(Q/g, L/g) for g the gcd of L and every entry: the normal form of
    the values Q/L."""
    g = gcd(L, int(np.gcd.reduce(Q)))
    return Q // g, L // g


class MetricGroup:
    """A = Z_{n_1} x ... x Z_{n_k} with q: A -> Q/Z stored as Q/D (see
    the module docstring).

    Built from a dict {element tuple: Fraction} by _checked_q, as a file
    is: a table failing a structural check raises ValidationError before
    any array of its size is allocated, and one whose denominators have
    an lcm above MAX_CONDUCTOR raises ValueError.  Its derived tables are
    computed once, on first use: on a loaded group validation builds the
    coordinates and the pairings that the radical, the form route and the
    extension search read.
    """

    __hash__ = None

    def __init__(self, cyclic_orders, qtable):
        coords = None if set(map(type, qtable)) - {tuple} else _key_array(
            list(map(len, qtable)), list(itertools.chain.from_iterable(qtable)), len(cyclic_orders))
        Q, D = _checked_q(cyclic_orders, coords, list(map(operator.attrgetter("numerator"), qtable.values())),
                          list(map(operator.attrgetter("denominator"), qtable.values())))
        self.cyclic_orders, self.Q, self.D = list(cyclic_orders), Q, D

    @classmethod
    def _from_array(cls, cyclic_orders, Q: np.ndarray, D: int) -> "MetricGroup":
        mg = object.__new__(cls)
        mg.cyclic_orders, mg.Q, mg.D = list(cyclic_orders), Q, D
        return mg

    @functools.cached_property
    def qtable(self):
        """The table as a read-only dict {element: Fraction}, derived from
        Q/D."""
        return MappingProxyType({x: Fraction(v, self.D) for x, v in zip(self.elements(), self.Q.tolist())})

    def __eq__(self, other):
        if not isinstance(other, MetricGroup):
            return NotImplemented
        # the normal form is unique
        return (self.cyclic_orders == other.cyclic_orders and self.D == other.D
                and np.array_equal(self.Q, other.Q))

    def __repr__(self):
        return f"MetricGroup({self.cyclic_orders}, {dict(self.qtable)})"

    @functools.cached_property
    def coordinates(self) -> np.ndarray:
        """The (k, |A|) table of _coordinates, column i element i's."""
        return _coordinates(self.cyclic_orders)

    @functools.cached_property
    def pairings(self):
        """(shift, B): shift[i] indexes x + g_i and B[i] = D b(g_i, x) over
        all x, for the generators g_i."""
        k, Q = len(self.cyclic_orders), self.Q
        shift = _index(self.cyclic_orders, self.coordinates[:, None, :] + np.eye(k, dtype=np.int64)[:, :, None])
        return shift, (Q[shift] - Q[shift[:, :1]] - Q) % self.D

    @functools.cached_property
    def _radical(self) -> np.ndarray:
        """The indices of the elements pairing trivially with A, in
        element order: the columns of B that vanish."""
        return np.flatnonzero(~self.pairings[1].any(axis=0))

    @property
    def _fermion_index(self) -> int | None:
        """The index of e when the radical is {0, e} with 2 Q[e] = D, else
        None; classify_form, kappa and extend all use this rule."""
        rad = self._radical
        return int(rad[1]) if len(rad) == 2 and 2 * self.Q[rad[1]] == self.D else None

    @property
    def order(self) -> int:
        return math.prod(self.cyclic_orders)

    def elements(self):
        return itertools.product(*(range(n) for n in self.cyclic_orders))

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.cyclic_orders)

    def generators(self):
        k = len(self.cyclic_orders)
        # order-1 factors degenerate to the zero element, which is harmless
        return [
            tuple(1 % self.cyclic_orders[j] if i == j else 0 for j in range(k))
            for i in range(k)
        ]


def _element(coords: np.ndarray, i) -> tuple[int, ...]:
    return tuple(coords[:, i].tolist())


def _label(coords: np.ndarray, i) -> str:
    """element_labels' label of element i, from its coordinates: one
    label built where a few are printed, not the whole table."""
    return "(" + ",".join(map(str, coords[:, i].tolist())) + ")"


def from_gram(orders: list[int], diag: list[Fraction], cross: list[Fraction] | None = None) -> MetricGroup:
    """Quadratic form from generator values and cross terms.

    q(sum x_i g_i) = sum x_i^2 diag_i + sum_{i<j} x_i x_j cross_{ij},
    with cross listed row-major over i < j.  Well-definedness is not
    checked here; run validate_metric_group on the result.  Orders that
    fail the orders or size-cap check raise ValidationError, as from the
    constructor.  Each coefficient that multiplies no order-1
    factor is a q value or a difference of q values, so its denominator
    divides D and their lcm L is refused above MAX_CONDUCTOR.
    """
    k = len(orders)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    if cross is None:
        cross = [0] * len(pairs)
    if len(diag) != k or len(cross) != len(pairs):
        raise ValueError("diag/cross lengths do not match the number of generators")
    order = _checked_order(orders)
    terms = [(i, j, Fraction(c)) for (i, j), c in zip([(i, i) for i in range(k)] + pairs, [*diag, *cross])
             if orders[i] > 1 and orders[j] > 1]
    L = lcm(*(c.denominator for _, _, c in terms))
    if L > MAX_CONDUCTOR:
        raise ValueError(f"form coefficients have an lcm of denominators above the cap {MAX_CONDUCTOR}")
    coords = _coordinates(orders)
    Q = np.zeros(order, dtype=np.int64)
    for i, j, c in terms:
        Q += coords[i] * coords[j] * (c.numerator * (L // c.denominator) % L)
    return MetricGroup._from_array(orders, *_reduced(Q % L, L))


def validate_metric_group(mg: MetricGroup) -> ValidationReport:
    """Check the metric-group laws in O(k^2 |A|) for k generators.

    The structural checks (orders, size cap, coverage, range) run when
    the table is built, before any array of its size, and a table that
    fails one is never built.  Here, on the arrays: q(0) = 0, q(2x) =
    4q(x) for all x, and b(g, x+h) = b(g, x) + b(g, h) for all generators
    g, h and all x, reporting the first failing x per (g, h).  These give
    the full laws mod 1:
    1. By induction on words in the generators, each b(g, .) is a
       homomorphism.
    2. b(x+y, z) + b(x, y) = b(x, y+z) + b(y, z) holds for any q (both
       sides are q(x+y+z) - q(x) - q(y) - q(z)); with y = g it gives
       b(x+g, .) = b(x, .) + b(g, .), so by induction on x every b(x, .)
       is a homomorphism.
    3. q((n+1)x) = q(nx) + q(x) + n b(x, x) with b(x, x) = q(2x) - 2q(x)
       = 2q(x), so by induction from q(0) = 0, q(nx) = n^2 q(x).
    """
    rep = ValidationReport()
    orders, Q, D, coords = mg.cyclic_orders, mg.Q, mg.D, mg.coordinates
    if Q[0]:
        rep.add("QuadraticLawViolation", (mg.zero(), 0), f"q(0) = {Fraction(int(Q[0]), D)} != 0")
    q2x = Q[_index(orders, 2 * coords)]
    for i in np.flatnonzero(q2x != 4 * Q % D):
        rep.add("QuadraticLawViolation", (_element(coords, i), 2),
                f"q(2*x) = {Fraction(int(q2x[i]), D)} != 4 q(x) mod 1")

    gens = mg.generators()
    shift, B = mg.pairings
    # bad[g, h, x]: b(g, x + h) != b(g, x) + b(g, h)
    bad = B[:, shift] != (B[:, None, :] + B[:, shift[:, 0]][:, :, None]) % D
    for g, h in zip(*np.nonzero(bad.any(axis=2))):
        rep.add("BilinearityViolation", (gens[g], _element(coords, np.argmax(bad[g, h])), gens[h]))
    return rep


def classify_form(mg: MetricGroup) -> CentreClassification:
    """classify_degeneracy of the linearization, read off the form.  The
    Mueger centre of C(A, q) is the radical of b (Drinfeld-Gelaki-
    Nikshych-Ostrik, On braided fusion categories I, 2010), so the
    transparent labels are the radical's, in element order; its bosons
    have q = 0 and its fermions q = 1/2.  Slightly degenerate iff the
    radical is {0, e} with q(e) = 1/2 (MetricGroup._fermion_index),
    nondegenerate iff it is {0}."""
    rad = mg._radical
    transparent = [_label(mg.coordinates, i) for i in rad.tolist()]
    q = mg.Q[rad]
    bos, fer = int((q == 0).sum()), int((2 * q == mg.D).sum())
    if len(rad) == 1:
        return CentreClassification(CentreKind.NONDEGENERATE, transparent, None, bos, fer)
    if mg._fermion_index is not None:
        return CentreClassification(CentreKind.SLIGHTLY_DEGENERATE, transparent, transparent[1], bos, fer)
    return CentreClassification(CentreKind.OTHER_DEGENERATE, transparent, None, bos, fer)


def gauss_sum(mg: MetricGroup) -> CycArray:
    """sum_x e^(2 pi i q(x)) at conductor D, the lcm of the q
    denominators: the counts of each exponent Q mod D, reduced once."""
    return root_sum(np.bincount(mg.Q, minlength=mg.D), mg.D)


_EIGHTH_ROOTS = [complex(math.cos(math.pi * s / 4), math.sin(math.pi * s / 4)) for s in range(8)]


def _signature_from_gauss(sigma: CycArray, order: int) -> int:
    """s with sigma = sqrt(order) e^(2 pi i s/8), sigma a Gauss sum,
    within 1e-9, else ArithmeticError."""
    z = sigma.embed() / math.sqrt(order)
    for s, root in enumerate(_EIGHTH_ROOTS):
        if abs(z - root) < 1e-9:
            return s
    raise ArithmeticError(f"normalized Gauss sum {z} is not an eighth root of unity")


@functools.lru_cache(maxsize=32)
def element_labels(orders: tuple[int, ...]) -> tuple[str, ...]:
    """The labels of the elements of Z_{n_1} x ... x Z_{n_k} in
    mixed-radix order, e.g. "(1,0,3)": the linearization's labels and the
    q keys of the JSON form.  Cached per orders tuple; the cache is
    bounded, the largest entry SIZE_CAP labels."""
    digits = [[str(c) for c in range(n)] for n in orders]
    return tuple("(" + ",".join(x) + ")" for x in itertools.product(*digits))


def _check_linearizable(mg: MetricGroup):
    """GroupsTooLarge when mg is above MAX_RANK, the largest rank a
    linearization may have."""
    if mg.order > MAX_RANK:
        raise GroupsTooLarge(f"linearization capped at rank {MAX_RANK}, |A| = {mg.order}")


def to_premodular(mg: MetricGroup) -> PremodularData:
    """Linearization: labels are the elements, fusion is the group law,
    dual is inversion, d = 1, theta_x = e^(2 pi i q(x)), s_{x,y} =
    e^(2 pi i b(x,y)).

    Elements are indexed in mixed radix (the order of mg.elements()), so
    the addition table is index arithmetic, and with q = Q/D over the lcm
    D of its denominators every s exponent is (Q[x+y] - Q[x] - Q[y]) mod
    D; every value is a row of the table of the z_D^k
    (cyclotomic.root_table), so the data are arrays at conductor D from
    the start.  The ring is group_ring's, built by the checking
    FusionRing constructor.  The output satisfies the
    premodular axioms by construction (the balancing formula collapses
    to the definition of the polarization).
    Groups of order above MAX_RANK raise GroupsTooLarge.
    """
    _check_linearizable(mg)
    r, Q, D, coords = mg.order, mg.Q, mg.D, mg.coordinates
    add_table = _index(mg.cyclic_orders, coords[:, :, None] + coords[:, None, :])
    ring = group_ring(
        labels=list(element_labels(tuple(mg.cyclic_orders))),
        add_table=add_table,
        unit_index=0,
        inverse=np.argmin(add_table, axis=1).tolist(),  # x + y is the unit, index 0
    )
    roots = root_table(D)  # row k: z_D^k, at conductor D / gcd(k, D)
    conductor = D // np.gcd(np.arange(D), D)
    pairing = (Q[add_table] - Q[:, None] - Q[None, :]) % D
    return PremodularData(
        ring=ring,
        dims=CycArray(D, roots[[0] * r], 1, np.ones(r, dtype=np.int64)),
        # take gathers whole rows several times faster than indexing does
        twists=CycArray(D, roots.take(Q, axis=0), 1, conductor[Q]),
        s=CycArray(D, roots.take(pairing, axis=0), 1, conductor[pairing]),
    )


# -- Smith normal form, used to put index-2 overgroups in canonical shape ----


def _smith_normal_form(M):
    """Diagonalize an integer matrix: returns (d, P) with P unimodular and
    P M Q = diag(d) for some unimodular Q (Q itself is not needed here;
    row transforms P suffice to convert generator exponents into
    coordinates of the quotient group).  d satisfies d1 | d2 | ...
    """
    m, n = len(M), len(M[0])
    # the rows of [M | P]: a row operation acts on both, a column one on M
    R = [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(M)]
    t = 0
    while t < min(m, n):
        # pivot: smallest nonzero magnitude in the trailing block
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if R[i][j] and (pivot is None or abs(R[i][j]) < abs(R[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        R[t], R[pivot[0]] = R[pivot[0]], R[t]
        for row in R:
            row[t], row[pivot[1]] = row[pivot[1]], row[t]
        dirty = False
        for i in range(t + 1, m):
            if R[i][t]:
                k = R[i][t] // R[t][t]
                R[i] = [x - k * y for x, y in zip(R[i], R[t])]
                dirty = dirty or R[i][t] != 0
        for j in range(t + 1, n):
            if R[t][j]:
                k = R[t][j] // R[t][t]
                for row in R:
                    row[j] -= k * row[t]
                dirty = dirty or R[t][j] != 0
        if dirty:
            continue
        # divisibility: pivot must divide the rest of the block
        fix = next((i for i in range(t + 1, m) if any(R[i][j] % R[t][t] for j in range(t + 1, n))), None)
        if fix is not None:
            R[t] = [x + y for x, y in zip(R[t], R[fix])]
            continue
        if R[t][t] < 0:
            R[t] = [-x for x in R[t]]
        t += 1
    return [R[i][i] if i < n else 0 for i in range(m)], [row[n:] for row in R]


@dataclass(eq=False)
class ExtensionResult:
    """One isometry-rel-fermion class of pointed index-2 extensions: the
    overgroup's orders and its q values Q/L in element order, over the
    search's common denominator L (not reduced).  Its Gauss sum is
    e^(2 pi i phase/8) times the search's first candidate's; the group
    is built on first use.  The signature and the exact Gauss sum, at the
    group's conductor D, are set by enumerate_pointed_extensions on the
    classes it keeps, and are None on every other candidate."""

    orders: list[int]
    values: np.ndarray
    L: int
    embedding: list[tuple[int, ...]]     # images of the base generators
    fermion_image: tuple[int, ...]
    phase: int
    signature: int | None = None
    gauss: CycArray | None = None

    @functools.cached_property
    def group(self) -> MetricGroup:
        return MetricGroup._from_array(self.orders, *_reduced(self.values, self.L))

    def sort_key(self):
        """Orders, then the q values in element order (the sorted order
        of the q keys), then the fermion image.  Every q
        denominator divides 2|A'|, so the values are compared as
        integers over it."""
        scaled, rest = np.divmod(self.values * (2 * len(self.values)), self.L)
        if rest.any():
            raise CrossCheckMismatch("a form's denominators divide 2|A|")
        return tuple(self.orders), tuple(scaled.tolist()), self.fermion_image


def _pushout_structure(mg: MetricGroup, a0):
    """Canonical coordinates for the overgroup <A, t | 2t = a0>.

    Returns (orders, M): the formal element (a, eps), eps in {0,1}, has
    coordinates M (a_1, ..., a_k, eps) mod orders in the canonical cyclic
    decomposition.  Each row of M is reduced mod its order, so every
    entry is below 2|A|.
    """
    k = len(mg.cyclic_orders)
    # relation columns: n_i g_i = 0 and 2t - a0 = 0, generators (g_1..g_k, t)
    M = [[0] * (k + 1) for _ in range(k + 1)]
    for i, n in enumerate(mg.cyclic_orders):
        M[i][i] = n
    for i in range(k):
        M[i][k] = -a0[i]
    M[k][k] = 2
    d, P = _smith_normal_form(M)
    keep = [i for i in range(k + 1) if d[i] > 1]
    orders = [d[i] for i in keep]
    if math.prod(orders) != 2 * mg.order:
        raise CrossCheckMismatch(f"the overgroup over a0 = {a0} has order {math.prod(orders)}, not {2 * mg.order}")
    return orders, np.array([[p % d[i] for p in P[i]] for i in keep], dtype=np.int64)


def _coset_reps_mod_double(mg: MetricGroup):
    """The least element of each coset of 2A in A, in sorted order.  2A
    is the product of the 2Z_n, so a coset is fixed by the parities of
    the coordinates of even order, and its least element has those
    parities and zeros elsewhere."""
    return list(itertools.product(*((0, 1) if n % 2 == 0 else (0,) for n in mg.cyclic_orders)))


def _pairing_preimages(mg: MetricGroup, B: np.ndarray) -> np.ndarray:
    """The table c -> u with b(u, .) = chi_c (B[i] = D b(g_i, .), so
    c(u)_i = n_i B[i, u]/D mod n_i); u and u + e give one c."""
    table = np.zeros(mg.order, dtype=np.int64)
    table[_index(mg.cyclic_orders, B * np.array(mg.cyclic_orders)[:, None] // mg.D)] = np.arange(mg.order)
    return table


def _extension_candidates(mg: MetricGroup, e: int):
    """The pushouts <A, t | 2t = a0> with q(t) = v = (q(a0) + j)/4 and
    b(t, .) = chi that carry a nondegenerate form, in the order a0, j, chi.

    q(a + t) = v + q(a) + chi(a) is a quadratic form iff 2 chi = b(a0, .)
    and chi(a0) = 2 b(t, t) = 2 q(a0) - 4v = q(a0): then b(x, x) = 2 q(x)
    holds on the new coset too.  Only 0 and e in A pair trivially with A,
    and b(e, t) = b(e, a + t) = chi(e) is 0 or 1/2, so the form is
    nondegenerate iff chi(e) = 1/2.  That forces chi(a0) = q(a0): e = 2y would give b(e, y)
    = 4 q(y) = 1/2, so A = A0 + <e> with b nondegenerate on A0; writing
    a0 = s0 + eps e and chi = b(s, .) on A0, 2 chi = b(a0, .) gives s0 = 2s
    and chi(a0) = 4 q(s) + eps/2 = q(a0).  So a candidate is built iff
    2 chi(g) = b(a0, g) for every generator g and chi(e) = 1/2.

    The character of c in A is chi_c(x) = sum_i c_i x_i / n_i, an integer
    over E = exp(A), and the new values share the denominator
    L = lcm(4D, E), which divides 8 exp(A) since D divides 2 exp(A).
    A coset a0 that admits no chi builds no pushout.  As q(a + e) = q(a)
    + 1/2, the Gauss sum over A is 0 and a candidate's is e(v) S(chi),
    S(chi) = sum_a e(q(a) + chi(a)).  The chi with chi(e) = 1/2 are chi_0
    + b(u, .), and S(chi_0 + b(u, .)) = e(-q(u) - chi_0(u)) S(chi_0), so
    the sum is e(P/L) S(chi_0) with P = L(v - q(u) - chi_0(u)), and the
    phase 8(P - P_1)/L against the first candidate's P_1 is whole (else
    CrossCheckMismatch): both sums are sqrt(2|A|) times eighth roots.
    """
    n = np.array(mg.cyclic_orders, dtype=np.int64)
    N, Q, D, coords, (shift, B) = mg.order, mg.Q, mg.D, mg.coordinates, mg.pairings
    E = lcm(*mg.cyclic_orders)
    L = lcm(4 * D, E)
    weights = coords * (E // n)[:, None]  # column c: E chi_c(g_i)
    half = 2 * (weights.T @ coords[:, e]) % (2 * E) == E  # chi_c(e) = 1/2, per c
    # per c with chi_c(e) = 1/2: u with chi_c = chi_0 + b(u, .), and L(-q(u) - chi_0(u))
    c0 = int(np.argmax(half))
    u = _pairing_preimages(mg, B)[_index(mg.cyclic_orders, coords - coords[:, c0:c0 + 1])]
    twist = -(Q[u] * (L // D) + weights[:, c0] @ coords[:, u] * (L // E)) % L

    first = None
    for a0 in _coset_reps_mod_double(mg):
        ia0 = _index(mg.cyclic_orders, np.array(a0))
        # 2 chi_c(g_i) = 2 c_i / n_i = b(a0, g_i) mod 1, over n_i D
        doubles = ((2 * coords * D - B[:, ia0:ia0 + 1] * n[:, None]) % (n * D)[:, None] == 0).all(axis=0)
        kept = np.flatnonzero(doubles & half)
        if not len(kept):
            continue
        chi = weights[:, kept].T @ coords % E  # (kept, N): E chi_c(a)
        orders, M = _pushout_structure(mg, a0)
        d = np.array(orders, dtype=np.int64)[:, None]
        base = M[:, :-1] @ coords % d  # coordinates of (a, 0)
        at = [_index(orders, base), _index(orders, (base + M[:, -1:]) % d)]
        if (np.bincount(np.concatenate(at)) != 1).any():
            raise CrossCheckMismatch("pushout coordinates must be a bijection")
        embedding = [_element(base, i) for i in shift[:, 0]]
        image = _element(base, e)
        v = (Q[ia0] + np.arange(4) * D) * (L // (4 * D))  # L v for v = (q(a0) + j)/4, per j
        # row j * len(kept) + c: the table for v_j and chi_c, and its P
        rows = np.empty((4 * len(kept), 2 * N), dtype=np.int64)
        rows[:, at[0]] = Q * (L // D)
        rows[:, at[1]] = (v[:, None, None] + Q * (L // D) + chi * (L // E)).reshape(-1, N) % L
        P = (v[:, None] + twist[kept]).ravel()
        first = P[0] if first is None else first
        phases, off = np.divmod((P - first) % L * 8, L)
        if off.any():
            raise CrossCheckMismatch(f"an extension over a0 = {a0} has a Gauss sum off the first one's eighths")
        for row, phase in zip(rows, phases.tolist()):
            yield ExtensionResult(orders, row, L, list(embedding), image, phase)


def enumerate_pointed_extensions(mg: MetricGroup, max_order: int = 64):
    """All pointed index-2 nondegenerate extensions of a slightly
    degenerate metric group, up to isometry fixing the fermion image.

    Every such extension is generated over A by one new element t with
    2t = a0 in A, so the search runs over a0 in A/2A, a fourth root v of
    q(a0) for q(t) and a character chi = b(t, .) of A, and builds only the
    candidates that two conditions on chi admit (_extension_candidates).

    Survivors are sorted canonically and the first of each phase is
    kept.  The minimal nondegenerate extensions of B (which exist by the
    source paper) form a torsor over Mext(sVec) = Z/16, each step
    shifting the central charge by 1/2 (Lan-Kong-Wen, arXiv:1602.05936).
    So pointed extensions of equal signature (equal phase) are the same
    element of Mext(B), hence isometric rel the fermion, and exactly the
    8 phases 0..7 occur; anything else raises CrossCheckMismatch.  One
    reduce_rows gives the kept classes' exact Gauss sums sigma_k from
    their counts of Q mod L, each read at its group's conductor, and
    checks sigma_k = e^(2 pi i (p_k - p_0)/8) sigma_0 on class 0's counts
    rolled by (p_k - p_0) L/8 (else CrossCheckMismatch); the embedding of
    sigma_0 gives its signature s_0, and class k has s_0 + p_k - p_0.
    """
    e = mg._fermion_index
    if e is None:
        raise NotSlightlyDegenerate("input must have radical {0, e} with q(e) = 1/2")
    if 2 * mg.order > max_order:
        raise GroupsTooLarge(f"extension order {2 * mg.order} exceeds cap {max_order}")

    kept: dict[int, ExtensionResult] = {}
    for cand in sorted(_extension_candidates(mg, e), key=ExtensionResult.sort_key):
        kept.setdefault(cand.phase, cand)
    if sorted(kept) != list(range(8)):
        raise CrossCheckMismatch(f"pointed extension phases {sorted(kept)}, expected 0..7")
    classes = list(kept.values())
    p0, L = classes[0].phase, classes[0].L
    counts = np.stack([np.bincount(r.values, minlength=L) for r in classes])
    steps = np.array([(r.phase - p0) % 8 * (L // 8) for r in classes[1:]])
    table = np.concatenate([counts, counts[0][(np.arange(L) - steps[:, None]) % L]])
    sums = reduce_rows(table.astype(exact_dtype(2 * mg.order, reduction_growth(L)), copy=False), L)
    bad = np.flatnonzero((sums[1:8] != sums[8:]).any(axis=1))
    if len(bad):
        k = bad[0] + 1
        raise CrossCheckMismatch(f"the extension of phase {classes[k].phase} has an exact Gauss sum other "
                                 f"than e^(2 pi i {(classes[k].phase - p0) % 8}/8) times that of phase {p0}")
    gauss = CycArray(L, sums[:8], 1, [r.group.D for r in classes])
    s0 = _signature_from_gauss(gauss[0], 2 * mg.order) - p0
    for r, sigma in zip(classes, gauss):
        r.gauss, r.signature = sigma, (s0 + r.phase) % 8
    return classes
