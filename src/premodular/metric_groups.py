"""Finite metric groups: abelian groups with a Q/Z-valued quadratic form.

These are the pointed shadows of braided fusion data: the form q gives
the twists, its polarization b(x,y) = q(x+y) - q(x) - q(y) gives the
double braiding, the radical of b is the transparent subgroup, and the
Gauss sum sum_x e^(2 pi i q(x)) is the pointed central charge.  The
convention q(e) = 1/2 marks a fermion line (self-braiding -1).

All data is stored as a full q-table over the elements, capped at
|A| <= 4096.  Where a theorem settles a question it is used instead of a
search: the form laws are checked on generator pairs, and pointed
extension classes are told apart by their signature.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .cyclotomic import CycNum, ONE, make_root
from .data import PremodularData
from .errors import CrossCheckMismatch, GroupsTooLarge, NotSlightlyDegenerate
from .fusion_ring import MAX_RANK, group_ring
from .validation import ValidationReport

__all__ = [
    "MetricGroup",
    "ExtensionResult",
    "validate_metric_group",
    "radical",
    "fermion",
    "gauss_sum",
    "signature_mod8",
    "to_premodular",
    "enumerate_pointed_extensions",
    "from_gram",
    "random_slightly_degenerate",
    "format_element",
]

SIZE_CAP = 4096

_F0 = Fraction(0)
_HALF = Fraction(1, 2)


@dataclass
class MetricGroup:
    """A = Z_{n_1} x ... x Z_{n_k} with q: A -> Q/Z as a full table.

    qtable maps every coordinate tuple to a Fraction in [0, 1).
    """

    cyclic_orders: list[int]
    qtable: dict[tuple[int, ...], Fraction]

    @property
    def order(self) -> int:
        return math.prod(self.cyclic_orders)

    def elements(self):
        return itertools.product(*(range(n) for n in self.cyclic_orders))

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.cyclic_orders)

    def add(self, x, y) -> tuple[int, ...]:
        return tuple((a + b) % n for a, b, n in zip(x, y, self.cyclic_orders))

    def scale(self, k: int, x) -> tuple[int, ...]:
        return tuple((k * a) % n for a, n in zip(x, self.cyclic_orders))

    def q(self, x) -> Fraction:
        return self.qtable[tuple(x)]

    def b(self, x, y) -> Fraction:
        """Polarization b(x,y) = q(x+y) - q(x) - q(y) mod 1."""
        return (self.qtable[self.add(x, y)] - self.qtable[tuple(x)] - self.qtable[tuple(y)]) % 1

    def generators(self):
        k = len(self.cyclic_orders)
        # order-1 factors degenerate to the zero element, which is harmless
        return [
            tuple(1 % self.cyclic_orders[j] if i == j else 0 for j in range(k))
            for i in range(k)
        ]


def from_gram(orders: list[int], diag: list[Fraction], cross: list[Fraction] | None = None) -> MetricGroup:
    """Quadratic form from generator values and cross terms.

    q(sum x_i g_i) = sum x_i^2 diag_i + sum_{i<j} x_i x_j cross_{ij},
    with cross listed row-major over i < j.  Well-definedness is not
    checked here; run validate_metric_group on the result.
    """
    k = len(orders)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    if cross is None:
        cross = [_F0] * len(pairs)
    if len(diag) != k or len(cross) != len(pairs):
        raise ValueError("diag/cross lengths do not match the number of generators")
    table = {}
    for x in itertools.product(*(range(n) for n in orders)):
        val = sum((Fraction(x[i] * x[i]) * diag[i] for i in range(k)), _F0)
        val += sum((Fraction(x[i] * x[j]) * c for (i, j), c in zip(pairs, cross)), _F0)
        table[x] = val % 1
    return MetricGroup(list(orders), table)


def validate_metric_group(mg: MetricGroup) -> ValidationReport:
    """Check the metric-group laws in O(k^2 |A|) for k generators.

    Past the order, size-cap, coverage and range checks: q(0) = 0,
    q(2x) = 4q(x) for all x, and b(g, x+h) = b(g, x) + b(g, h) for all
    generators g, h and all x.  These give the full laws mod 1:
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
    if any(n < 1 for n in mg.cyclic_orders):
        rep.add("OrdersViolation", tuple(mg.cyclic_orders), "cyclic orders must be >= 1")
        return rep
    if mg.order > SIZE_CAP:
        rep.add("SizeCapViolation", (mg.order,), f"|A| exceeds the cap {SIZE_CAP}")
        return rep
    elems = list(mg.elements())
    if set(mg.qtable.keys()) != set(elems):
        rep.add("CoverageViolation", (), "qtable must cover exactly the group elements")
        return rep
    for x, v in mg.qtable.items():
        if not (0 <= v < 1):
            rep.add("RangeViolation", x, f"q value {v} outside [0,1)")
    if rep.violations:
        return rep

    zero = mg.zero()
    if mg.qtable[zero] != 0:
        rep.add("QuadraticLawViolation", (zero, 0), f"q(0) = {mg.qtable[zero]} != 0")
    for x in elems:
        q2x = mg.qtable[mg.scale(2, x)]
        if q2x != (4 * mg.qtable[x]) % 1:
            rep.add("QuadraticLawViolation", (x, 2), f"q(2*x) = {q2x} != 4 q(x) mod 1")

    gens = mg.generators()
    for g in gens:
        bg = {y: mg.b(g, y) for y in elems}
        for h in gens:
            for x in elems:
                if bg[mg.add(x, h)] != (bg[x] + bg[h]) % 1:
                    rep.add("BilinearityViolation", (g, x, h))
                    break
    return rep


def radical(mg: MetricGroup) -> list[tuple[int, ...]]:
    """Elements pairing trivially with the whole group, sorted."""
    gens = mg.generators()
    return sorted(x for x in mg.elements() if all(mg.b(x, g) == 0 for g in gens))


def fermion(mg: MetricGroup):
    """The fermion line e when the radical is {0, e} with q(e) = 1/2,
    else None."""
    rad = radical(mg)
    if len(rad) != 2:
        return None
    e = rad[0] if rad[1] == mg.zero() else rad[1]
    return e if mg.q(e) == _HALF else None


def gauss_sum(mg: MetricGroup) -> CycNum:
    """sum_x e^(2 pi i q(x)), exact at the lcm of the q denominators."""
    acc = None
    for x in mg.elements():
        v = mg.qtable[x]
        term = make_root(v.numerator, v.denominator)
        acc = term if acc is None else acc + term
    return acc


def signature_mod8(mg: MetricGroup):
    """s in Z/8 with gauss_sum = sqrt(|A|) e^(2 pi i s/8); None when the
    radical is nontrivial."""
    if len(radical(mg)) != 1:
        return None
    return _signature_from_gauss(gauss_sum(mg), mg.order)


def _signature_from_gauss(sigma: CycNum, order: int) -> int:
    """s with sigma = sqrt(order) e^(2 pi i s/8), sigma a Gauss sum."""
    z = sigma.embed() / math.sqrt(order)
    for s in range(8):
        w = complex(math.cos(math.pi * s / 4), math.sin(math.pi * s / 4))
        if abs(z - w) < 1e-9:
            return s
    raise ArithmeticError(f"normalized Gauss sum {z} is not an eighth root of unity")


def format_element(x) -> str:
    """An element as its label and JSON key, e.g. "(1,0,3)"."""
    return "(" + ",".join(str(c) for c in x) + ")"


def to_premodular(mg: MetricGroup) -> PremodularData:
    """Linearization: labels are the elements, fusion is the group law,
    dual is inversion, d = 1, theta_x = e^(2 pi i q(x)), s_{x,y} =
    e^(2 pi i b(x,y)).

    Elements are indexed in mixed radix (the order of mg.elements()), so
    the addition table is index arithmetic, and with q = Q/D over the lcm
    D of its denominators every s exponent is (Q[x+y] - Q[x] - Q[y]) mod
    D.  The output satisfies the premodular axioms by construction (the
    balancing formula collapses to the definition of the polarization).
    Groups of order above MAX_RANK raise GroupsTooLarge.
    """
    if mg.order > MAX_RANK:
        raise GroupsTooLarge(f"linearization capped at rank {MAX_RANK}, |A| = {mg.order}")
    elems = list(mg.elements())
    r = len(elems)
    index = np.arange(r)
    add_table = np.zeros((r, r), dtype=np.int64)
    stride = 1
    for n in reversed(mg.cyclic_orders):
        c = index // stride % n
        add_table += (c[:, None] + c[None, :]) % n * stride
        stride *= n
    ring = group_ring(
        labels=[format_element(x) for x in elems],
        add_table=add_table,
        unit_index=0,
        inverse=np.argmin(add_table, axis=1).tolist(),  # x + y is the unit, index 0
    )
    qs = [mg.qtable[x] for x in elems]
    D = lcm(*(v.denominator for v in qs))
    Q = np.array([v.numerator * (D // v.denominator) for v in qs], dtype=np.int64)
    exponents, s_index = np.unique((Q[add_table] - Q[:, None] - Q[None, :]) % D,
                                   return_inverse=True)
    roots = [make_root(int(k), D) for k in exponents]
    return PremodularData(
        ring=ring,
        dims=[ONE] * r,
        twists=[make_root(int(k), D) for k in Q],
        s=[[roots[k] for k in row] for row in s_index.reshape(r, r).tolist()],
    )


# -- Smith normal form, used to put index-2 overgroups in canonical shape ----


def _smith_normal_form(M):
    """Diagonalize an integer matrix: returns (d, P) with P unimodular and
    P M Q = diag(d) for some unimodular Q (Q itself is not needed here;
    row transforms P suffice to convert generator exponents into
    coordinates of the quotient group).  d satisfies d1 | d2 | ...
    """
    M = [list(row) for row in M]
    m, n = len(M), len(M[0])
    P = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def swap_rows(i, j):
        M[i], M[j] = M[j], M[i]
        P[i], P[j] = P[j], P[i]

    def swap_cols(i, j):
        for row in M:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, k):  # row_i += k * row_j
        M[i] = [x + k * y for x, y in zip(M[i], M[j])]
        P[i] = [x + k * y for x, y in zip(P[i], P[j])]

    def add_col(i, j, k):  # col_i += k * col_j
        for row in M:
            row[i] += k * row[j]

    def negate_row(i):
        M[i] = [-x for x in M[i]]
        P[i] = [-x for x in P[i]]

    t = 0
    while t < min(m, n):
        # pivot: smallest nonzero magnitude in the trailing block
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if M[i][j] and (pivot is None or abs(M[i][j]) < abs(M[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        dirty = False
        for i in range(t + 1, m):
            if M[i][t]:
                k = M[i][t] // M[t][t]
                add_row(i, t, -k)
                if M[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if M[t][j]:
                k = M[t][j] // M[t][t]
                add_col(j, t, -k)
                if M[t][j]:
                    dirty = True
        if dirty:
            continue
        # divisibility: pivot must divide the rest of the block
        fix = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if M[i][j] % M[t][t]:
                    fix = i
                    break
            if fix is not None:
                break
        if fix is not None:
            add_row(t, fix, 1)
            continue
        if M[t][t] < 0:
            negate_row(t)
        t += 1
    d = [M[i][i] if i < n else 0 for i in range(m)]
    return d, P


@dataclass
class ExtensionResult:
    """One isometry-rel-fermion class of pointed index-2 extensions."""

    group: MetricGroup
    embedding: list[tuple[int, ...]]     # images of the base generators
    fermion_image: tuple[int, ...]
    gauss: CycNum
    signature: int

    def sort_key(self):
        return (
            tuple(self.group.cyclic_orders),
            tuple(sorted(self.group.qtable.items())),
            self.fermion_image,
        )


def _pushout_structure(mg: MetricGroup, a0):
    """Canonical coordinates for the overgroup <A, t | 2t = a0>.

    Returns (orders, coords) where coords maps a formal element (a, eps),
    eps in {0,1}, to its tuple in the canonical cyclic decomposition.
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
    assert math.prod(orders) == 2 * mg.order

    def coords(a, eps):
        w = list(a) + [eps]
        return tuple(
            sum(P[i][j] * w[j] for j in range(k + 1)) % d[i] for i in keep
        )

    return orders, coords


def _coset_reps_mod_double(mg: MetricGroup):
    """One representative per coset of 2A in A, in sorted element order."""
    doubled = {mg.scale(2, x) for x in mg.elements()}
    seen, reps = set(), []
    for x in sorted(mg.elements()):
        if x in seen:
            continue
        reps.append(x)
        for y in doubled:
            seen.add(mg.add(x, y))
    return reps


def _extension_candidates(mg: MetricGroup, e):
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
    """
    gens = mg.generators()

    def chi(c, x):  # the character sum x_i c_i / n_i of A
        return sum((Fraction(xi * ci, ni) for xi, ci, ni in zip(x, c, mg.cyclic_orders)), _F0) % 1

    for a0 in _coset_reps_mod_double(mg):
        kept = [c for c in mg.elements()
                if all(2 * chi(c, g) % 1 == mg.b(a0, g) for g in gens) and chi(c, e) == _HALF]
        orders, coords = _pushout_structure(mg, a0)
        for j in range(4):
            v = ((mg.qtable[a0] + j) / 4) % 1
            for c in kept:
                qt = {}
                for a in mg.elements():
                    qt[coords(a, 0)] = mg.qtable[a]
                    qt[coords(a, 1)] = (v + mg.qtable[a] + chi(c, a)) % 1
                assert len(qt) == 2 * mg.order, "pushout coordinates must be a bijection"
                mg2 = MetricGroup(list(orders), qt)
                sigma = gauss_sum(mg2)
                yield ExtensionResult(mg2, [coords(g, 0) for g in gens], coords(e, 0),
                                      sigma, _signature_from_gauss(sigma, mg2.order))


def enumerate_pointed_extensions(mg: MetricGroup, max_order: int = 64):
    """All pointed index-2 nondegenerate extensions of a slightly
    degenerate metric group, up to isometry fixing the fermion image.

    Every such extension is generated over A by one new element t with
    2t = a0 in A, so the search runs over a0 in A/2A, a fourth root v of
    q(a0) for q(t) and a character chi = b(t, .) of A, and builds only the
    candidates that two conditions on chi admit (_extension_candidates).

    Survivors are sorted canonically and the first of each signature is
    kept.  The minimal nondegenerate extensions of B (which exist by the
    source paper) form a torsor over Mext(sVec) = Z/16, each step
    shifting the central charge by 1/2 (Lan-Kong-Wen, arXiv:1602.05936).
    So pointed extensions of equal signature are the same element of
    Mext(B), hence isometric rel the fermion, Gauss sums separate
    different signatures, and exactly the 8 signatures 0..7 occur;
    anything else raises CrossCheckMismatch.
    """
    e = fermion(mg)
    if e is None:
        raise NotSlightlyDegenerate("input must have radical {0, e} with q(e) = 1/2")
    if 2 * mg.order > max_order:
        raise GroupsTooLarge(f"extension order {2 * mg.order} exceeds cap {max_order}")

    kept: dict[int, ExtensionResult] = {}
    for cand in sorted(_extension_candidates(mg, e), key=ExtensionResult.sort_key):
        kept.setdefault(cand.signature, cand)
    if sorted(kept) != list(range(8)):
        raise CrossCheckMismatch(f"pointed extension signatures {sorted(kept)}, expected 0..7")
    return list(kept.values())


def random_slightly_degenerate(rng, max_order: int = 64) -> MetricGroup:
    """Random pointed slightly degenerate metric group with |A| <= max_order.

    Builds an orthogonal sum of nondegenerate cyclic blocks (gcd
    condition on the coefficient) plus one fermion line, then shuffles
    the factor order.  Slight degeneracy holds by construction.
    """
    budget = max_order // 2
    blocks = []
    for _ in range(rng.randint(1, 3)):
        choices = [n for n in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32) if n <= budget]
        if not choices:
            break
        n = rng.choice(choices)
        budget //= n
        if n % 2 == 0:
            coeffs = [a for a in range(1, 2 * n, 2) if gcd(a, n) == 1]
        else:
            coeffs = [a for a in range(2, 2 * n, 2) if gcd(a, n) == 1]
        blocks.append((n, rng.choice(coeffs)))
    blocks.append((2, 2))  # fermion line, q = x^2/2
    rng.shuffle(blocks)
    orders = [n for n, _ in blocks]
    diag = [Fraction(a, 2 * n) for n, a in blocks]
    return from_gram(orders, diag)
