"""Independent brute-force oracles used by the tests.

These deliberately avoid the package's optimized code paths: quadratic
forms are enumerated as raw value tables, isometries as raw bijections,
associativity as a four-index loop or one dense contraction per b, the
whole fusion-ring validation on the dense r x r x r tensor, and the
duality axiom as a loop over pairs, the linearization as a loop
over pairs of elements, the metric-group laws on a dict of Fractions,
cyclotomic arithmetic on Fraction coefficients reduced by long division
by Phi_n, Phi_n as x^n - 1 divided by Phi_d for every proper divisor d,
a CycArray from its parts by one lift per conductor,
the premodular axioms and the transparent set on CycNums one
entry at a time, integer strings by one regex match each, a CycNum's
JSON and embedding from its Fraction coefficients, JSON text by
json.dumps.  Expected
values frozen into the tests come from here.  The generator-image
isometry search and the orthogonal direct sum live here too: only the
tests use them.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import json
import math
import re
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from premodular.cyclotomic import (
    MINUS_ONE,
    ONE,
    ZERO,
    CycArray,
    CycNum,
    check_budget,
    euler_phi,
    exact_dtype,
    magnitude,
    make_root,
    map_rows,
    reduction_growth,
)
from premodular.data import CentreClassification, CentreKind, PremodularData
from premodular.errors import GroupsTooLarge
from premodular.fusion_ring import FusionRing, dual_permutation_matrix, group_ring, validate_fusion_ring
from premodular.metric_groups import (
    SIZE_CAP,
    MetricGroup,
    _coset_reps_mod_double,
    _pushout_structure,
    radical,
    validate_metric_group,
)
from premodular.validation import ValidationReport


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (little-endian), den monic."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        out[k] = q = num[k + len(den) - 1]
        if q:
            for i, d in enumerate(den):
                num[k + i] -= q * d
    assert not any(num[: len(den) - 1]), "non-exact polynomial division"
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Phi_n, little-endian: x^n - 1 divided by Phi_d for every proper
    divisor d of n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, list(cyclotomic_poly(d)))
    return tuple(poly)


def cycarray_from_parts_by_conductor(M: int, conductors, nums, dens, shape) -> CycArray:
    """CycArray.from_parts with one lift per distinct conductor c: the
    entries at c are gathered, their coefficient k placed at z_M^(k M/c)
    and reduced by map_rows."""
    nums, dens = (x if isinstance(x, np.ndarray) else np.array(x, dtype=object) for x in (nums, dens))
    conductors = np.array(conductors, dtype=np.int64).reshape(-1)
    den = 1
    if (dens != 1).any():
        for q in set(dens.tolist()):
            den = lcm(den, q)
            check_budget(len(conductors) * euler_phi(M), den)
        nums = nums.astype(object) * (den // dens.astype(object))
    values = nums.astype(exact_dtype(magnitude(nums), reduction_growth(M)), copy=False)
    starts = np.cumsum([0] + [euler_phi(c) for c in conductors.tolist()])
    num = np.empty((len(conductors), euler_phi(M)), dtype=values.dtype)
    for c in set(conductors.tolist()):
        group, k = np.flatnonzero(conductors == c), np.arange(euler_phi(c))
        num[group] = map_rows(values[starts[group, None] + k], k * (M // c), M)
    return CycArray(M, num.reshape(tuple(shape) + (euler_phi(M),)), den, conductors.reshape(shape))


class FractionCycNum:
    """Element of Q(zeta_n) as a tuple of Fractions in the power basis:
    the Fraction kernel CycNum is checked against."""

    def __init__(self, n: int, coeffs):
        self.n, self.coeffs = n, self._reduce(n, [Fraction(c) for c in coeffs])

    @staticmethod
    def _reduce(n, poly):
        # long division by the monic Phi_n, from the top degree down
        phi_n = cyclotomic_poly(n)
        deg = len(phi_n) - 1
        poly = poly + [Fraction(0)] * max(0, deg - len(poly))
        for top in range(len(poly) - 1, deg - 1, -1):
            c = poly[top]
            if c:
                for i, p in enumerate(phi_n):
                    poly[top - deg + i] -= c * p
        return tuple(poly[:deg])

    def lift(self, m: int) -> "FractionCycNum":
        step = m // self.n
        poly = [Fraction(0)] * (len(self.coeffs) * step)
        for k, c in enumerate(self.coeffs):
            poly[k * step] = c
        return FractionCycNum(m, poly)

    def _common(self, other):
        m = lcm(self.n, other.n)
        return self.lift(m), other.lift(m), m

    def __add__(self, other):
        a, b, m = self._common(other)
        return FractionCycNum(m, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    def __neg__(self):
        return FractionCycNum(self.n, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b, m = self._common(other)
        prod = [Fraction(0)] * (2 * len(a.coeffs))
        for i, x in enumerate(a.coeffs):
            for j, y in enumerate(b.coeffs):
                prod[i + j] += x * y
        return FractionCycNum(m, prod)

    def conj(self) -> "FractionCycNum":
        poly = [Fraction(0)] * (self.n + 1)
        for k, c in enumerate(self.coeffs):
            poly[(self.n - k) % self.n] += c
        return FractionCycNum(self.n, poly)

    def inverse(self) -> "FractionCycNum":
        """Extended Euclid in Q[x] against Phi_n."""

        def deg(p):
            return max((i for i, c in enumerate(p) if c), default=-1)

        r0, r1 = [Fraction(c) for c in cyclotomic_poly(self.n)], list(self.coeffs)
        t0, t1 = [Fraction(0)] * len(r0), [Fraction(1)] + [Fraction(0)] * (len(r0) - 1)
        r1 += [Fraction(0)] * (len(r0) - len(r1))
        while deg(r1) > 0:
            d0, d1 = deg(r0), deg(r1)
            if d0 < d1:
                # the new remainder and its t over the remainder's leading
                # coefficient: monic remainders keep the Fractions small
                r0, t0 = [c / r0[d0] for c in r0], [c / r0[d0] for c in t0]
                r0, r1, t0, t1 = r1, r0, t1, t0
                continue
            f, shift = r0[d0] / r1[d1], d0 - d1
            for i in range(len(r0) - shift):
                r0[i + shift] -= f * r1[i]
                t0[i + shift] -= f * t1[i]
        if not r1[0]:
            raise ZeroDivisionError("division by zero")
        return FractionCycNum(self.n, [t / r1[0] for t in t1])

    def __eq__(self, other):
        a, b, _ = self._common(other)
        return a.coeffs == b.coeffs

    def to_json(self) -> dict:
        return {"n": self.n, "c": [[str(c.numerator), str(c.denominator)] for c in self.coeffs]}


def json_text(obj) -> str:
    """cli._emit_json by the json module: json.dumps(obj, indent=2) and a
    newline."""
    return json.dumps(obj, indent=2) + "\n"


def cycnum_to_json_by_fractions(z: CycNum) -> dict:
    """CycNum.to_json from the Fraction coefficients."""
    return {"n": z.conductor, "c": [[str(c.numerator), str(c.denominator)] for c in z.coeffs]}


def cycnum_embed_by_fractions(z: CycNum) -> complex:
    """CycNum.embed from the Fraction coefficients, each converted by
    float()."""
    n = z.conductor
    return sum(
        (float(c) * cmath.exp(2j * cmath.pi * k / n) for k, c in enumerate(z.coeffs) if c),
        complex(0),
    )


def dense(ring: FusionRing) -> np.ndarray:
    """The r x r x r multiplicity tensor of a ring: N[a, b, c] = N^c_{a,b}."""
    r = ring.rank
    N = np.zeros((r, r, r), dtype=np.int64)
    N[ring.a, ring.b, ring.c] = ring.m
    return N


def ring_from_dense(mult, labels=None, unit_index=0, dual=None) -> FusionRing:
    """The ring of a dense multiplicity tensor, labels "0", "1", ... and
    every label self-dual unless given."""
    mult = np.asarray(mult, dtype=np.int64)
    r = len(mult)
    at = np.argwhere(mult != 0)
    fusion = np.column_stack((at, mult[tuple(at.T)]))
    return FusionRing(labels=labels or [str(a) for a in range(r)], unit_index=unit_index, fusion=fusion,
                      dual=list(range(r)) if dual is None else dual)


def validate_fusion_ring_dense(ring: FusionRing) -> ValidationReport:
    """validate_fusion_ring on the dense tensor: every check a comparison
    of whole arrays, associativity by dense_associativity_witnesses."""
    rep = ValidationReport()
    r = ring.rank
    N = dense(ring)
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
        for witness in dense_associativity_witnesses(N, 10):
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


def brute_associative(mult) -> bool:
    """Four-index associativity check on a dense multiplicity tensor."""
    r = len(mult)
    for a in range(r):
        for b in range(r):
            for c in range(r):
                for d in range(r):
                    lhs = sum(mult[a][b][e] * mult[e][c][d] for e in range(r))
                    rhs = sum(mult[b][c][f] * mult[a][f][d] for f in range(r))
                    if lhs != rhs:
                        return False
    return True


def dense_associativity_witnesses(mult, limit=10):
    """The first `limit` (a, b, c, d), by b and then (a, c, d), where
    T[a,b,c,d] = sum_e N^e_{a,b} N^d_{e,c} is not symmetric in a and c:
    one dense r^3 contraction per b (r^5 multiply-adds in all)."""
    N = np.asarray(mult, dtype=np.int64)
    found = []
    for b in range(len(N)):
        T = np.einsum("ae,ecd->acd", N[:, b, :], N)
        for a, c, d in np.argwhere(T != T.transpose(1, 0, 2))[:limit - len(found)]:
            found.append((int(a), b, int(c), int(d)))
    return found


def brute_duality_violations(mult, dual, unit):
    """(witness, detail) for each (a, b) with N^unit_{a,b} != [b = dual(a)],
    in row-major order."""
    found = []
    for a in range(len(mult)):
        for b in range(len(mult)):
            expected = 1 if b == dual[a] else 0
            if mult[a][b][unit] != expected:
                found.append(((a, b), f"N^I_{{a,b}} = {mult[a][b][unit]}, expected {expected}"))
    return found


_INTEGER = re.compile(r"-?[0-9]+")


def integers_by_regex_map(values: list) -> list:
    """serialize._integers as one regex fullmatch per string: values as
    ints when each is an int or a string of ASCII digits with an optional
    leading minus, else ValueError naming the first that is not."""
    types = set(map(type, values))
    if types <= {int}:
        return values
    if types <= {int, str}:
        strings = values if types == {str} else [x for x in values if type(x) is str]
        if all(map(_INTEGER.fullmatch, strings)):
            return list(map(int, values))
    bad = next(x for x in values if not (type(x) is int or type(x) is str and _INTEGER.fullmatch(x)))
    raise ValueError(f"expected an integer, got {bad!r:.40}")


def _add(x, y, orders):
    return tuple((a + b) % n for a, b, n in zip(x, y, orders))


def _scale(k, x, orders):
    return tuple((k * a) % n for a, n in zip(x, orders))


def _elements(orders):
    return list(itertools.product(*(range(n) for n in orders)))


def group_add(mg: MetricGroup, x, y):
    return _add(x, y, mg.cyclic_orders)


def group_scale(mg: MetricGroup, k: int, x):
    return _scale(k, x, mg.cyclic_orders)


def pairing(mg: MetricGroup, x, y) -> Fraction:
    """b(x,y) = q(x+y) - q(x) - q(y) mod 1 on the Fraction table."""
    return (mg.qtable[group_add(mg, x, y)] - mg.qtable[tuple(x)] - mg.qtable[tuple(y)]) % 1


def validate_fractions(orders, table) -> ValidationReport:
    """The checks of the MetricGroup constructor and validate_metric_group
    element by element on a raw {element: Fraction} table: the same
    witnesses, details and order, from dict lookups."""
    rep = ValidationReport()
    if any(n < 1 for n in orders):
        rep.add("OrdersViolation", tuple(orders), "cyclic orders must be >= 1")
        return rep
    order = math.prod(orders)
    if order > SIZE_CAP:
        rep.add("SizeCapViolation", (order,), f"|A| exceeds the cap {SIZE_CAP}")
        return rep
    elems = _elements(orders)
    if set(table) != set(elems):
        rep.add("CoverageViolation", (), "qtable must cover exactly the group elements")
        return rep
    for x, v in table.items():
        if not (0 <= v < 1):
            rep.add("RangeViolation", x, f"q value {v} outside [0,1)")
    if rep.violations:
        return rep

    def pair(x, y):
        return (table[_add(x, y, orders)] - table[x] - table[y]) % 1

    zero = (0,) * len(orders)
    if table[zero] != 0:
        rep.add("QuadraticLawViolation", (zero, 0), f"q(0) = {table[zero]} != 0")
    for x in elems:
        q2x = table[_scale(2, x, orders)]
        if q2x != (4 * table[x]) % 1:
            rep.add("QuadraticLawViolation", (x, 2), f"q(2*x) = {q2x} != 4 q(x) mod 1")

    k = len(orders)
    gens = [tuple(1 % orders[j] if i == j else 0 for j in range(k)) for i in range(k)]
    for g in gens:
        bg = {y: pair(g, y) for y in elems}
        for h in gens:
            for x in elems:
                if bg[_add(x, h, orders)] != (bg[x] + bg[h]) % 1:
                    rep.add("BilinearityViolation", (g, x, h))
                    break
    return rep


def _is_quadratic(q, orders):
    elems = _elements(orders)
    exp = 1
    for n in orders:
        exp = exp * n // __import__("math").gcd(exp, n)
    for x in elems:
        for n in range(exp + 1):
            if q[_scale(n, x, orders)] != (n * n * q[x]) % 1:
                return False
    # full bilinearity, all triples
    def b(x, y):
        return (q[_add(x, y, orders)] - q[x] - q[y]) % 1
    for x in elems:
        for y in elems:
            for z in elems:
                if b(x, _add(y, z, orders)) != (b(x, y) + b(x, z)) % 1:
                    return False
    return True


def _radical(q, orders):
    elems = _elements(orders)

    def b(x, y):
        return (q[_add(x, y, orders)] - q[x] - q[y]) % 1

    return [x for x in elems if all(b(x, y) == 0 for y in elems)]


def all_quadratic_forms(orders, denominator):
    """Every quadratic form on the group whose values lie in (1/den)Z.

    The denominator bound is forced by the laws themselves: on a cyclic
    factor of order n, 0 = b(x, n x) = n b(x, x) = 2 n q(x) mod 1, so
    every value has denominator dividing 2 lcm(orders).
    """
    elems = _elements(orders)
    nonzero = [x for x in elems if any(x)]
    values = [Fraction(j, denominator) for j in range(denominator)]
    for combo in itertools.product(values, repeat=len(nonzero)):
        q = {(0,) * len(orders): Fraction(0)}
        q.update(dict(zip(nonzero, combo)))
        if _is_quadratic(q, orders):
            yield q


def element_label(x) -> str:
    """An element as its label and JSON key, e.g. "(1,0,3)"."""
    return "(" + ",".join(str(c) for c in x) + ")"


def linearize(mg: MetricGroup) -> PremodularData:
    """The linearization entry by entry: the addition table from
    group_add and every s_{x,y} from pairing, on the Fraction table."""
    elems = list(mg.elements())
    index = {x: i for i, x in enumerate(elems)}
    r = len(elems)
    add_table = np.zeros((r, r), dtype=np.int64)
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            add_table[i, j] = index[group_add(mg, x, y)]
    ring = group_ring(
        labels=[element_label(x) for x in elems],
        add_table=add_table,
        unit_index=index[mg.zero()],
        inverse=[index[group_scale(mg, -1, x)] for x in elems],
    )
    root = lambda v: make_root(v.numerator, v.denominator)
    return PremodularData.from_values(
        ring,
        dims=[ONE] * r,
        twists=[root(mg.qtable[x]) for x in elems],
        s=[[root(pairing(mg, x, y)) for y in elems] for x in elems],
    )


def element_order(mg: MetricGroup, x) -> int:
    return lcm(*(n // gcd(n, a) for a, n in zip(x, mg.cyclic_orders))) if x else 1


def direct_sum(a: MetricGroup, b: MetricGroup) -> MetricGroup:
    """Orthogonal direct sum: q((x,y)) = q_a(x) + q_b(y)."""
    table = {}
    for x in a.elements():
        for y in b.elements():
            table[x + y] = (a.qtable[x] + b.qtable[y]) % 1
    return MetricGroup(a.cyclic_orders + b.cyclic_orders, table)


def _primary_multiset(orders):
    """Multiset of prime-power cyclic factors, the isomorphism invariant."""
    out = []
    for n in orders:
        m, p = n, 2
        while p * p <= m:
            if m % p == 0:
                pk = 1
                while m % p == 0:
                    pk *= p
                    m //= p
                out.append(pk)
            p += 1
        if m > 1:
            out.append(m)
    return sorted(out)


def isometry_rel_point(a: MetricGroup, b: MetricGroup, pt_a=None, pt_b=None) -> bool:
    """Is there a group isomorphism phi with q_b(phi(x)) = q_a(x) and
    phi(pt_a) = pt_b?

    Brute force over generator images with pruning on element orders and
    q-value multisets.  Pass pt_a = pt_b = None for the coarser, point-free
    equivalence.
    """
    if a.order > SIZE_CAP or b.order > SIZE_CAP:
        raise GroupsTooLarge(f"isometry search capped at {SIZE_CAP} elements")
    if (pt_a is None) != (pt_b is None):
        raise ValueError("pass both points or neither")
    if a.order != b.order:
        return False
    if _primary_multiset(a.cyclic_orders) != _primary_multiset(b.cyclic_orders):
        return False
    inv_a = sorted((element_order(a, x), a.qtable[x]) for x in a.elements())
    inv_b = sorted((element_order(b, x), b.qtable[x]) for x in b.elements())
    if inv_a != inv_b:
        return False
    if pt_a is not None:
        pt_a, pt_b = tuple(pt_a), tuple(pt_b)
        if (element_order(a, pt_a), a.qtable[pt_a]) != (element_order(b, pt_b), b.qtable[pt_b]):
            return False

    gens = a.generators()
    orders = a.cyclic_orders
    b_elems = sorted(b.elements())
    by_order_q = {}
    for y in b_elems:
        by_order_q.setdefault((element_order(b, y), b.qtable[y]), []).append(y)

    q_gens = [a.qtable[g] for g in gens]
    b_gram = [[pairing(a, gi, gj) for gj in gens] for gi in gens]

    def image_of(coords, images):
        acc = b.zero()
        for c, y in zip(coords, images):
            acc = group_add(b, acc, group_scale(b, c, y))
        return acc

    def search(i, images):
        if i == len(gens):
            span = {
                image_of(coords, images)
                for coords in itertools.product(*(range(n) for n in orders))
            }
            if len(span) != a.order:
                return False
            if pt_a is not None and image_of(pt_a, images) != pt_b:
                return False
            return True
        wanted = (orders[i], q_gens[i])
        for y in by_order_q.get(wanted, ()):
            if all(pairing(b, y, images[j]) == b_gram[i][j] for j in range(i)):
                if search(i + 1, images + [y]):
                    return True
        return False

    return search(0, [])


def brute_isometry_rel_point(a: MetricGroup, b: MetricGroup, pa, pb) -> bool:
    """Exhaustive search over bijections, independent of the package's
    generator-image search.

    Any isometry preserves the invariant (element order, q-value), so the
    search runs over all bijections that match elements class by class;
    nothing is lost and groups up to order ~16 stay tractable.
    """
    if a.order != b.order:
        return False
    classes_a, classes_b = {}, {}
    for x in sorted(a.elements()):
        classes_a.setdefault((element_order(a, x), a.qtable[x]), []).append(x)
    for y in sorted(b.elements()):
        classes_b.setdefault((element_order(b, y), b.qtable[y]), []).append(y)
    if set(classes_a) != set(classes_b):
        return False
    if any(len(classes_a[k]) != len(classes_b[k]) for k in classes_a):
        return False
    keys = sorted(classes_a)
    for perms in itertools.product(*(itertools.permutations(classes_b[k]) for k in keys)):
        phi = {}
        for k, perm in zip(keys, perms):
            phi.update(zip(classes_a[k], perm))
        if phi[a.zero()] != b.zero():
            continue
        if pa is not None and phi[tuple(pa)] != tuple(pb):
            continue
        if all(phi[group_add(a, x, y)] == group_add(b, phi[x], phi[y]) for x in phi for y in phi):
            return True
    return False


def _partitions(k):
    if k == 0:
        yield ()
        return
    for first in range(k, 0, -1):
        for rest in _partitions(k - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def abelian_group_shapes(m):
    """Cyclic-order lists of every abelian group of order m (primary form)."""
    factors = {}
    p, mm = 2, m
    while p * p <= mm:
        while mm % p == 0:
            factors[p] = factors.get(p, 0) + 1
            mm //= p
        p += 1
    if mm > 1:
        factors[mm] = factors.get(mm, 0) + 1
    shapes = [[]]
    for p, k in sorted(factors.items()):
        shapes = [
            s + [p**part for part in parts]
            for s in shapes
            for parts in _partitions(k)
        ]
    return shapes


def _gram_choices(orders):
    """The value choices for each q(e_i) and each b(e_i, e_j), i < j
    (see all_forms_by_gram)."""
    k = len(orders)
    diag_choices = [
        [Fraction(a, 2 * n) for a in range(2 * n) if (a * n) % 2 == 0] for n in orders
    ]
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    cross_choices = [
        [Fraction(c, gcd(orders[i], orders[j])) for c in range(gcd(orders[i], orders[j]))]
        for i, j in pairs
    ]
    return diag_choices, cross_choices


def _gram_form(orders, diag, cross):
    """The q table of the generator data, re-checked against the raw laws."""
    k = len(orders)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    q = {}
    for x in _elements(orders):
        val = sum((Fraction(x[i] * x[i]) * diag[i] for i in range(k)), Fraction(0))
        val += sum(
            (Fraction(x[i] * x[j]) * c for (i, j), c in zip(pairs, cross)),
            Fraction(0),
        )
        q[x] = val % 1
    assert _is_quadratic(q, orders)
    return q


def all_forms_by_gram(orders):
    """Every quadratic form on the group, via generator data.

    A form is determined by q(e_i) = a_i/(2 n_i) with a_i n_i even and
    by b(e_i, e_j) = c_ij / gcd(n_i, n_j) (polarization induction); each
    generated table is re-checked against the raw laws.
    """
    diag_choices, cross_choices = _gram_choices(orders)
    for diag in itertools.product(*diag_choices):
        for cross in itertools.product(*cross_choices):
            yield _gram_form(orders, diag, cross)


def random_form_by_gram(rng, orders):
    """One form drawn uniformly from those all_forms_by_gram yields."""
    diag_choices, cross_choices = _gram_choices(orders)
    return _gram_form(
        orders,
        [rng.choice(c) for c in diag_choices],
        [rng.choice(c) for c in cross_choices],
    )


def oracle_pointed_extensions_general(base: MetricGroup, fermion_elt):
    """Pointed index-2 nondegenerate extension classes of any small base,
    by exhaustive search: every abelian overgroup shape of order 2|A|,
    every quadratic form on it, every isometric embedding of the base.

    Only usable for |A| <= ~4 (the form count grows fast).  Returns
    (MetricGroup, fermion_image) class representatives, deduplicated
    with the exhaustive bijection isometry.
    """
    base_elems = sorted(base.elements())
    gens = base.generators()
    found = []
    for orders in abelian_group_shapes(2 * base.order):
        for q in all_forms_by_gram(orders):
            if len(_radical(q, orders)) != 1:
                continue
            mg = MetricGroup(list(orders), dict(q))
            # all embeddings: generator images of matching order with the
            # base form pulled back correctly
            image_candidates = itertools.product(*(list(mg.elements()) for _ in gens))
            seen_images = set()
            for images in image_candidates:
                if any(group_scale(mg, n, y) != mg.zero() for n, y in zip(base.cyclic_orders, images)):
                    continue

                def emb(x):
                    acc = mg.zero()
                    for c, y in zip(x, images):
                        acc = group_add(mg, acc, group_scale(mg, c, y))
                    return acc

                image = {emb(x) for x in base_elems}
                if len(image) != base.order:
                    continue
                if any(mg.qtable[emb(x)] != base.qtable[x] for x in base_elems):
                    continue
                f_img = emb(fermion_elt)
                cent = [
                    y for y in mg.elements()
                    if all(pairing(mg, emb(g), y) == 0 for g in gens)
                ]
                if sorted(cent) != sorted([mg.zero(), f_img]):
                    continue
                if f_img not in seen_images:
                    seen_images.add(f_img)
                    found.append((mg, f_img))
    classes = []
    for mg, f in found:
        if not any(brute_isometry_rel_point(mg, rep, f, rf) for rep, rf in classes):
            classes.append((mg, f))
    return classes


def oracle_pointed_extensions(base: MetricGroup, fermion_elt):
    """All pointed index-2 nondegenerate extension classes of a fermionic
    metric group of order 2, by exhaustive search over all order-4
    overgroups and all quadratic forms on them.

    Returns class representatives as (MetricGroup, fermion_image) pairs,
    deduplicated with the exhaustive bijection isometry.
    """
    assert base.order == 2 and base.qtable[fermion_elt] == Fraction(1, 2)
    found = []
    for orders, den in (([4], 8), ([2, 2], 4)):
        for q in all_quadratic_forms(orders, den):
            if len(_radical(q, orders)) != 1:
                continue
            mg = MetricGroup(orders, dict(q))
            # embeddings of the fermion line: order-2 elements with q = 1/2
            for f in mg.elements():
                if f == mg.zero() or group_add(mg, f, f) != mg.zero():
                    continue
                if mg.qtable[f] != Fraction(1, 2):
                    continue
                # centralizer of the embedded copy must be exactly {0, f}
                cent = [y for y in mg.elements() if pairing(mg, f, y) == 0]
                if sorted(cent) != sorted([mg.zero(), f]):
                    continue
                found.append((mg, f))
    classes = []
    for mg, f in found:
        if not any(brute_isometry_rel_point(mg, rep, f, rf) for rep, rf in classes):
            classes.append((mg, f))
    return classes


def pushout_survivors(mg: MetricGroup, e):
    """The pointed extension candidates by building every one: for each
    pushout <A, t | 2t = a0>, fourth root v = (q(a0) + j)/4 and character
    chi of A, the table q(a + t) = v + q(a) + chi(a) is kept when its
    radical is trivial and it passes validate_metric_group (radical first:
    it is the cheaper test and rejects most tables).

    Returns (group, embedding, fermion_image) triples in the order
    a0, j, chi.
    """
    out = []
    # chi(a) for every character chi and every a, shared by all pushouts
    chis = {chi: [sum(Fraction(ai * ci, ni) for ai, ci, ni in zip(a, chi, mg.cyclic_orders)) for a in mg.elements()]
            for chi in mg.elements()}
    for a0 in _coset_reps_mod_double(mg):
        orders, M = _pushout_structure(mg, a0)

        def coords(a, eps):
            return tuple(int(c) % d for c, d in zip(M @ np.array([*a, eps]), orders))

        cosets = [(coords(a, 0), coords(a, 1), mg.qtable[a]) for a in mg.elements()]
        for j in range(4):
            v = ((mg.qtable[a0] + j) / 4) % 1
            for chi in mg.elements():
                qt = {}
                for (x0, x1, q_a), chi_a in zip(cosets, chis[chi]):
                    qt[x0] = q_a
                    qt[x1] = (v + q_a + chi_a) % 1
                group = MetricGroup(list(orders), qt)
                if len(radical(group)) == 1 and validate_metric_group(group).ok:
                    out.append((group, [coords(g, 0) for g in mg.generators()], coords(e, 0)))
    return out


# -- premodular data on CycNums -------------------------------------------------


def _fusion_sum(terms) -> CycNum:
    """sum m x over terms = [(x, m), ...]."""
    acc = None
    for x, m in terms:
        term = x if m == 1 else x * m
        acc = term if acc is None else acc + term
    return ZERO if acc is None else acc


def _lifts(values):
    """at(i, k): values[i] lifted to conductor k, computed once per (i, k)."""
    memo = {}

    def at(i: int, k: int) -> CycNum:
        if (i, k) not in memo:
            memo[i, k] = values[i].lift(k)
        return memo[i, k]

    return at


def premodular_lists(data: PremodularData):
    """dims, twists and s (None, a list of rows, or a flat list when s
    is not square) of a datum as lists of CycNums."""
    s = data.s
    if s is not None:
        s = [list(row) for row in s] if len(s.shape) == 2 else list(s)
    return list(data.dims), list(data.twists), s


def validate_premodular_cycnum(ring, dims, twists, s):
    """The premodular checks of validate_premodular entry by entry on
    CycNums, with balancing in its divided form s_{a,b} = theta_a^-1
    theta_b^-1 sum_c N^c_{a,b} theta_c d_c: (report, s), s synthesized
    when given as None (the lists of the datum, see premodular_lists)."""
    rep = ValidationReport()
    ring_report = validate_fusion_ring(ring)
    if not ring_report.ok:
        rep.violations.extend(ring_report.violations)
        return rep, s
    r = ring.rank
    if len(dims) != r or len(twists) != r:
        rep.add("ShapeViolation", (r,), "dims/twists length must equal rank")
        return rep, s

    I = ring.unit_index
    dual = ring.dual
    if dims[I] != ONE:
        rep.add("UnitDimViolation", (I,), "d_I must be 1")
    if twists[I] != ONE:
        rep.add("UnitTwistViolation", (I,), "theta_I must be 1")
    for a in range(r):
        if dims[a].is_zero():
            rep.add("ZeroDimViolation", (a,))
        if twists[a].is_zero():
            rep.add("ZeroTwistViolation", (a,), "twists must be invertible")
        if dims[a] != dims[dual[a]]:
            rep.add("DualDimViolation", (a, dual[a]), "d_a != d_{a*}")
        if twists[a] != twists[dual[a]]:
            rep.add("DualTwistViolation", (a, dual[a]), "theta_a != theta_{a*}")
    if rep.violations:
        return rep, s

    # balancing at the lcm k of its factors' conductors, which a
    # synthesized s keeps
    m = lcm(*(d.conductor for d in dims))
    lifted = [d.lift(m) for d in dims]
    theta_inv, twisted_dims = _lifts([t.inverse() for t in twists]), _lifts(
        [t * d for t, d in zip(twists, dims)])
    inv_cond = [t.conductor for t in twists]
    dim_cond = [lcm(t.conductor, d.conductor) for t, d in zip(twists, dims)]
    balanced = [[None] * r for _ in range(r)]
    N = dense(ring)
    for a in range(r):
        bs, cs = np.nonzero(N[a])
        fusion = {}
        for b, c, n in zip(bs.tolist(), cs.tolist(), N[a, bs, cs].tolist()):
            fusion.setdefault(b, []).append((c, n))
        for b in range(a, r):
            terms = fusion.get(b, ())
            if lifted[a] * lifted[b] != _fusion_sum((lifted[c], n) for c, n in terms):
                rep.add("DimensionCharacterViolation", (a, b))
            k = lcm(inv_cond[a], inv_cond[b], *(dim_cond[c] for c, _ in terms))
            balanced[a][b] = balanced[b][a] = theta_inv(a, k) * theta_inv(b, k) * _fusion_sum(
                (twisted_dims(c, k), n) for c, n in terms)
    if rep.violations:
        return rep, s

    if s is not None and (len(s) != r or any(not isinstance(row, list) or len(row) != r for row in s)):
        rep.add("ShapeViolation", (r,), "s-matrix must be rank x rank")
        return rep, s
    if s is None:
        s = balanced
    else:
        for a in range(r):
            for b in range(r):
                if s[a][b] != balanced[a][b]:
                    rep.add("BalancingViolation", (a, b), "supplied s disagrees with balancing formula")
    if rep.violations:
        return rep, s

    for a in range(r):
        for b in range(a, r):
            if s[a][b].conj() != s[dual[a]][b]:
                rep.add("SConjugationViolation", (a, b), "conj(s_{a,b}) != s_{a*,b}")
    return rep, s


def classify_degeneracy_cycnum(data: PremodularData) -> CentreClassification:
    """classify_degeneracy with the transparency test s_{b,x} = d_b d_x
    made for every pair b, x with CycNum products."""
    dims, twists, s = premodular_lists(data)
    ring = data.ring
    idx = [b for b in range(ring.rank) if all(s[b][x] == dims[b] * dims[x] for x in range(ring.rank))]
    trans = [data.labels[b] for b in idx]
    bos = sum(1 for b in idx if twists[b] == ONE)
    fer = sum(1 for b in idx if twists[b] == MINUS_ONE)
    if idx == [ring.unit_index]:
        return CentreClassification(CentreKind.NONDEGENERATE, trans, None, bos, fer)
    if len(idx) == 2:
        e = idx[0] if idx[1] == ring.unit_index else idx[1]
        N = dense(ring)
        e_squared_is_unit = N[e, e, ring.unit_index] == 1 and int(N[e, e].sum()) == 1
        if e_squared_is_unit and twists[e] == MINUS_ONE:
            return CentreClassification(CentreKind.SLIGHTLY_DEGENERATE, trans, data.labels[e], bos, fer)
    return CentreClassification(CentreKind.OTHER_DEGENERATE, trans, None, bos, fer)
