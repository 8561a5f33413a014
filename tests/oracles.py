"""Independent brute-force oracles used by the tests.

These deliberately avoid the package's optimized code paths: quadratic
forms are enumerated as raw value tables, isometries as raw bijections,
and associativity as a four-index loop.  Expected values frozen into the
tests come from here.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from premodular.metric_groups import MetricGroup


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


def _add(x, y, orders):
    return tuple((a + b) % n for a, b, n in zip(x, y, orders))


def _scale(k, x, orders):
    return tuple((k * a) % n for a, n in zip(x, orders))


def _elements(orders):
    return list(itertools.product(*(range(n) for n in orders)))


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
        classes_a.setdefault((a.element_order(x), a.qtable[x]), []).append(x)
    for y in sorted(b.elements()):
        classes_b.setdefault((b.element_order(y), b.qtable[y]), []).append(y)
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
        if all(phi[a.add(x, y)] == b.add(phi[x], phi[y]) for x in phi for y in phi):
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
    from math import gcd

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
                if any(mg.scale(n, y) != mg.zero() for n, y in zip(base.cyclic_orders, images)):
                    continue

                def emb(x):
                    acc = mg.zero()
                    for c, y in zip(x, images):
                        acc = mg.add(acc, mg.scale(c, y))
                    return acc

                image = {emb(x) for x in base_elems}
                if len(image) != base.order:
                    continue
                if any(mg.qtable[emb(x)] != base.qtable[x] for x in base_elems):
                    continue
                f_img = emb(fermion_elt)
                cent = [
                    y for y in mg.elements()
                    if all(mg.b(emb(g), y) == 0 for g in gens)
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
    assert base.order == 2 and base.q(fermion_elt) == Fraction(1, 2)
    found = []
    for orders, den in (([4], 8), ([2, 2], 4)):
        for q in all_quadratic_forms(orders, den):
            if len(_radical(q, orders)) != 1:
                continue
            mg = MetricGroup(orders, dict(q))
            # embeddings of the fermion line: order-2 elements with q = 1/2
            for f in mg.elements():
                if f == mg.zero() or mg.add(f, f) != mg.zero():
                    continue
                if mg.q(f) != Fraction(1, 2):
                    continue
                # centralizer of the embedded copy must be exactly {0, f}
                cent = [y for y in mg.elements() if mg.b(f, y) == 0]
                if sorted(cent) != sorted([mg.zero(), f]):
                    continue
                found.append((mg, f))
    classes = []
    for mg, f in found:
        if not any(brute_isometry_rel_point(mg, rep, f, rf) for rep, rf in classes):
            classes.append((mg, f))
    return classes
