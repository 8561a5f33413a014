"""Built-in generators for the standard small data used everywhere.

Pointed entries are metric groups; the eight "ising:nu" entries are the
rank-3 data with d_sigma = z8 + z8^-1 and theta_sigma = z16^nu, built
from closed formulas, s among them, which validation checks against the
balancing formula.  Every entry passes its validator when first built;
the catalog is constructed once and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclotomic import ONE, MINUS_ONE, CycArray, make_root
from .data import PremodularData, validate_premodular
from .errors import UnknownCatalogKey
from .fusion_ring import FusionRing
from .metric_groups import MetricGroup, from_gram, validate_metric_group
from .serialize import _integers, _rationals
from .validation import ValidationError

__all__ = ["CatalogEntry", "catalog_get", "catalog_list"]


@dataclass
class CatalogEntry:
    name: str
    kind: str          # "premodular" | "metric_group"
    payload: object    # PremodularData | MetricGroup
    doc: str


def _ising(nu: int) -> PremodularData:
    """labels 1, psi, sigma with sigma^2 = 1 + psi, psi^2 = 1, theta = (1,
    -1, z16^nu) and s = [[1, 1, d], [1, 1, -d], [d, -d, 0]], d = d_sigma,
    each entry at the conductor balancing gives it: 16 beside sigma, else 1."""
    unit = [[0, a, a, 1] for a in range(3)] + [[a, 0, a, 1] for a in range(1, 3)]
    fusion = unit + [[1, 1, 0, 1], [1, 2, 2, 1], [2, 1, 2, 1], [2, 2, 0, 1], [2, 2, 1, 1]]
    ring = FusionRing(labels=["1", "psi", "sigma"], unit_index=0, fusion=fusion, dual=[0, 1, 2])
    dims = CycArray.from_values([ONE, ONE, make_root(1, 8) + make_root(-1, 8)], 16)
    one, d = dims.num[0], dims.num[2]
    s = CycArray(16, np.array([[one, one, d], [one, one, -d], [d, -d, 0 * d]]), 1, [[1, 1, 16], [1, 1, 16], [16] * 3])
    return PremodularData(ring, dims, CycArray.from_values([ONE, MINUS_ONE, make_root(nu, 16)], 16), s)


def _pointed_entries():
    h = Fraction(1, 2)
    q4 = Fraction(1, 4)
    entries = {
        "svec": (from_gram([2], [h]), "fermion line: Z2 with q(1) = 1/2"),
        "rep-z2": (from_gram([2], [Fraction(0)]), "transparent boson: Z2 with q = 0"),
        "semion": (from_gram([2], [q4]), "Z2 with q(1) = 1/4"),
        "semion-bar": (from_gram([2], [Fraction(3, 4)]), "Z2 with q(1) = 3/4"),
        "toric": (from_gram([2, 2], [Fraction(0), Fraction(0)], [h]),
                  "Z2 x Z2, hyperbolic form q(e) = q(m) = 0, q(em) = 1/2"),
        "three-fermion": (from_gram([2, 2], [h, h], [h]),
                          "Z2 x Z2 with q = 1/2 on all three nonzero elements"),
        "svec-x-semion": (from_gram([2, 2], [h, q4]),
                          "orthogonal sum of the fermion line and a semion"),
    }
    for k in (1, 3, 5, 7):
        entries[f"z4-q:{k}"] = (
            from_gram([4], [Fraction(k, 8)]),
            f"Z4 with q(x) = {k} x^2 / 8",
        )
    return entries


def _parse_pointed_key(name: str) -> MetricGroup:
    # pointed:<n1>x<n2>x...:<q1>,<q2>,...[:<b12>,<b13>,...], each field
    # read as the same field of a metric-group file is
    parts = name.split(":")
    if len(parts) not in (3, 4):
        raise UnknownCatalogKey(name)
    try:
        orders = _integers(parts[1].split("x"))
        forms = [[Fraction(p, q) for p, q in zip(*_rationals(t.split(",")))] for t in parts[2:]]
        mg = from_gram(orders, *forms)
    except ValidationError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise UnknownCatalogKey(f"{name}: {exc}") from None
    rep = validate_metric_group(mg)
    if not rep.ok:
        raise ValidationError(rep)
    return mg


_CACHE: dict[str, CatalogEntry] = {}


def _checked(entry: CatalogEntry) -> CatalogEntry:
    if isinstance(entry.payload, MetricGroup):
        rep = validate_metric_group(entry.payload)
    else:
        rep = validate_premodular(entry.payload)
    if not rep.ok:
        raise AssertionError(f"catalog entry {entry.name} fails validation: {rep}")
    return entry


def _build() -> dict[str, CatalogEntry]:
    if _CACHE:
        return _CACHE
    for name, (mg, doc) in _pointed_entries().items():
        _CACHE[name] = _checked(CatalogEntry(name, "metric_group", mg, doc))
    for nu in range(1, 16, 2):
        _CACHE[f"ising:{nu}"] = _checked(CatalogEntry(
            f"ising:{nu}",
            "premodular",
            _ising(nu),
            f"rank-3 data, d_sigma = sqrt(2), theta_sigma = z16^{nu}",
        ))
    return _CACHE


def catalog_get(name: str) -> CatalogEntry:
    """Entry by key; 'pointed:<orders>:<qspec>' builds one parametrically."""
    cat = _build()
    if name in cat:
        return cat[name]
    if name.startswith("pointed:"):
        mg = _parse_pointed_key(name)
        return CatalogEntry(name, "metric_group", mg, "parametric pointed form")
    raise UnknownCatalogKey(f"{name!r}; valid keys: {', '.join(sorted(cat))}")


def catalog_list():
    """Deterministic sorted (name, kind, doc) listing of the fixed keys."""
    cat = _build()
    return [(e.name, e.kind, e.doc) for e in sorted(cat.values(), key=lambda e: e.name)]
