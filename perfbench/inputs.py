"""Seeded benchmark inputs, built without the library under test.

Every q-table, premodular JSON payload and expected value here comes from
this file's own arithmetic, so a change in `premodular` cannot silently
change what the benchmark feeds it or what it expects back.  Groups are
A = Z_{n_1} x ... x Z_{n_k}; a quadratic form is a dict from coordinate
tuples to Fractions in [0, 1).
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

# cyclic block orders of the criterion-2 generator (acceptance criterion 2)
BLOCK_ORDERS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32)


def stream(seed: int, name: str) -> random.Random:
    """Independent generator per (seed, purpose): warm-up and timed items
    never share a stream."""
    return random.Random(f"perfbench:{seed}:{name}")


def elements(orders):
    return list(itertools.product(*(range(n) for n in orders)))


def block_coeffs(n: int) -> list[int]:
    """Numerators a making q(x) = a x^2 / (2n) nondegenerate on Z_n."""
    start = 1 if n % 2 == 0 else 2
    return [a for a in range(start, 2 * n, 2) if math.gcd(a, n) == 1]


def diagonal_form(orders, numerators) -> dict:
    """q(x) = sum_i a_i x_i^2 / (2 n_i) mod 1."""
    return {
        x: sum((Fraction(a * c * c, 2 * n) for a, c, n in zip(numerators, x, orders)), Fraction(0)) % 1
        for x in elements(orders)
    }


def two_torsion(orders) -> int:
    """Number of x with 2x = 0."""
    return math.prod(math.gcd(2, n) for n in orders)


# -- slightly degenerate pointed groups ----------------------------------------


def fixed_blocks(rng: random.Random, block_orders):
    """(orders, numerators): the fermion line plus nondegenerate cyclic
    blocks of the given orders, coefficients drawn, factor order shuffled."""
    blocks = [(n, rng.choice(block_coeffs(n))) for n in block_orders] + [(2, 2)]
    rng.shuffle(blocks)
    return tuple(n for n, _ in blocks), tuple(a for _, a in blocks)


def automorphism_images(orders):
    """Every automorphism of A as the tuple of generator images."""
    elems = elements(orders)
    size = len(elems)

    def killed_by(x, n):
        return all((n * c) % m == 0 for c, m in zip(x, orders))

    options = [[y for y in elems if killed_by(y, n)] for n in orders]
    out = []
    for images in itertools.product(*options):
        span = {apply(images, x, orders) for x in elems}
        if len(span) == size:
            out.append(images)
    return out


def apply(images, x, orders):
    """phi(x) = sum_i x_i images_i."""
    return tuple(
        sum(c * y[j] for c, y in zip(x, images)) % orders[j] for j in range(len(orders))
    )


def presentations(orders, numerator_choices):
    """All distinct q-tables q o phi over the coefficient choices and the
    automorphisms phi of A, in a canonical order."""
    autos = automorphism_images(orders)
    tables = set()
    for nums in itertools.product(*numerator_choices):
        q = diagonal_form(orders, nums)
        for images in autos:
            tables.add(tuple(q[apply(images, x, orders)] for x in elements(orders)))
    return sorted(tables)


def table_dict(orders, values) -> dict:
    return dict(zip(elements(orders), values))


# -- JSON payloads ---------------------------------------------------------------


def _label(x) -> str:
    return "(" + ",".join(map(str, x)) + ")"


def metric_group_json(orders, q: dict) -> dict:
    return {
        "type": "metric_group",
        "orders": list(orders),
        "q": {_label(x): f"{v.numerator}/{v.denominator}" for x, v in sorted(q.items())},
    }


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Phi_n, little-endian integer coefficients: (x^n - 1) / prod_{d|n, d<n} Phi_d."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _divide(poly, cyclotomic_poly(d))
    return tuple(poly)


def _divide(num, den):
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]  # every Phi_d is monic
        out[k] = c
        for i, d in enumerate(den):
            num[k + i] -= c * d
    return out


@lru_cache(maxsize=None)
def root_json(value: Fraction) -> dict:
    """exp(2 pi i value) at its exact conductor, in the power basis of
    Q(zeta_N): x^k reduced modulo Phi_N."""
    k, n = value.numerator % value.denominator, value.denominator
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    poly = [0] * max(k + 1, deg)
    poly[k] = 1
    for top in range(len(poly) - 1, deg - 1, -1):
        c = poly[top]
        if c:
            for i, p in enumerate(phi):
                poly[top - deg + i] -= c * p
    return {"n": n, "c": [[str(c), "1"] for c in poly[:deg]]}


def linearized_json(orders, q: dict) -> dict:
    """The group's premodular data with s supplied: fusion is the group
    law, d = 1, theta_x = e(q(x)), s_{x,y} = e(b(x,y))."""
    elems = elements(orders)
    index = {x: i for i, x in enumerate(elems)}

    def add(x, y):
        return tuple((a + b) % n for a, b, n in zip(x, y, orders))

    def b(x, y):
        return (q[add(x, y)] - q[x] - q[y]) % 1

    one = root_json(Fraction(0))
    return {
        "type": "premodular",
        "labels": [_label(x) for x in elems],
        "unit": 0,
        "dual": [index[tuple((-c) % n for c, n in zip(x, orders))] for x in elems],
        "fusion": [[i, j, index[add(x, y)], 1] for i, x in enumerate(elems) for j, y in enumerate(elems)],
        "conductor": math.lcm(*(v.denominator for v in q.values())),
        "dims": [one] * len(elems),
        "twists": [root_json(q[x]) for x in elems],
        "s": [[root_json(b(x, y)) for y in elems] for x in elems],
    }


def ising_json(nu: int) -> dict:
    """Rank-3 Ising data, theta_sigma = z16^nu, d_sigma = z8 - z8^3 = sqrt 2;
    s is left for the loader to synthesize at conductor 16."""
    fusion = [[0, a, a, 1] for a in range(3)] + [[a, 0, a, 1] for a in (1, 2)]
    fusion += [[1, 1, 0, 1], [1, 2, 2, 1], [2, 1, 2, 1], [2, 2, 0, 1], [2, 2, 1, 1]]
    sqrt2 = {"n": 8, "c": [["0", "1"], ["1", "1"], ["0", "1"], ["-1", "1"]]}
    return {
        "type": "premodular",
        "labels": ["1", "psi", "sigma"],
        "unit": 0,
        "dual": [0, 1, 2],
        "fusion": fusion,
        "conductor": 16,
        "dims": [root_json(Fraction(0)), root_json(Fraction(0)), sqrt2],
        "twists": [root_json(Fraction(0)), root_json(Fraction(1, 2)), root_json(Fraction(nu, 16))],
    }
