"""Component analysis of the transparent subring.

The number of components of the double of the suspended datum equals the
number of simple transparent objects, and components biject with the
ring homomorphisms K0(transparent subring) -> C.  Characters are found
by simultaneous diagonalization of the transparent fusion matrices:
exactly when every transparent simple is invertible (group characters,
as integers k over the group order n for the values exp(2 pi i k/n)),
numerically via a seeded random linear combination otherwise.  For a
metric group the transparent subring is the group ring of the radical of
b, so form_characters takes the radical's addition table straight from
the form.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .data import CentreClassification, CentreKind, PremodularData
from .data import classify_degeneracy  # noqa: F401  unused; perfbench/layers.py PATCHES rebinds it here
from .errors import CrossCheckMismatch, DegenerateEigenproblem
from .metric_groups import MetricGroup, _index

__all__ = ["ComponentAnalysis", "ring_characters", "form_characters"]

_CLUSTER_TOL = 1e-9     # eigenvalues closer than this are taken as equal
_DISTINCT_TOL = 1e-6    # characters must be separated by this in sup metric
_MAX_RETRIES = 8


@dataclass
class ComponentAnalysis:
    count: int
    characters: list[dict[str, complex]]    # each maps transparent label -> value
    dim_index: int
    magnetic_index: int | None
    seed: int

    def to_json(self):
        return {
            "component_count": self.count,
            "characters": [
                {lab: [z.real, z.imag] for lab, z in chi.items()} for chi in self.characters
            ],
            "dim_index": self.dim_index,
            "magnetic_index": self.magnetic_index,
            "seed": self.seed,
        }


def _exact_group_characters(prod, unit):
    """All homomorphisms to Q/Z of an abelian group of order n given by a
    product table and its unit, each as integers k in [0, n) standing for
    k/n, indexed like `prod`; built up a chain of subgroups: with g^m the
    first power of g in the subgroup H reached so far, each character chi
    of H extends to H<g> in exactly m ways, chi(h g^k) = chi(h) + k
    (chi(g^m) + j n)/m for j < m, where m divides n and chi(g^m)."""
    n = len(prod)
    chars = [{unit: 0}]  # the characters of H, each keyed by H
    for g in range(n):
        if g in chars[0]:
            continue
        powers = [unit]
        while (top := prod[powers[-1]][g]) not in chars[0]:
            powers.append(top)
        m = len(powers)
        chars = [{prod[h][p]: (v + k * ((chi[top] + j * n) // m)) % n
                  for k, p in enumerate(powers) for h, v in chi.items()}
                 for chi in chars for j in range(m)]
    if len(chars) != n:
        raise CrossCheckMismatch(f"abelian group of order {n} must have exactly {n} characters")
    return [[chi[t] for t in range(n)] for chi in chars]


def _group_values(prod, unit) -> list[list[complex]]:
    """The characters of _exact_group_characters as complex values."""
    n = len(prod)
    return [[cmath.exp(2j * cmath.pi * (k / n)) for k in chi] for chi in _exact_group_characters(prod, unit)]


def _numeric_characters(mats, seed):
    """Simultaneous eigen-characters of commuting nonnegative matrices."""
    n = mats[0].shape[0]
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_RETRIES):
        weights = rng.uniform(0.5, 1.5, size=len(mats))
        M = sum(w * m for w, m in zip(weights, mats))
        eigvals, eigvecs = np.linalg.eig(M)
        # retry unless the n eigenvalues are pairwise _CLUSTER_TOL apart
        if (np.abs(eigvals[:, None] - eigvals) < _CLUSTER_TOL)[np.triu_indices(n, 1)].any():
            continue
        chars = [[complex(np.vdot(v, m @ v) / np.vdot(v, v)) for m in mats] for v in eigvecs.T]
        # residual of the common-eigenvector property
        if any(np.linalg.norm(m @ v - c * v) > 1e-6 * (1 + abs(c))
               for v, chi in zip(eigvecs.T, chars) for m, c in zip(mats, chi)):
            continue
        distinct = all(
            max(abs(x - y) for x, y in zip(c1, c2)) >= _DISTINCT_TOL
            for i, c1 in enumerate(chars)
            for c2 in chars[i + 1:]
        )
        if distinct:
            return chars
    raise DegenerateEigenproblem(
        f"could not separate {n} characters at {_DISTINCT_TOL} after {_MAX_RETRIES} retries"
    )


def ring_characters(data: PremodularData, cls: CentreClassification,
                    seed: int = 0) -> ComponentAnalysis:
    """All ring homomorphisms of the transparent subring to C, where cls
    is the datum's classification.

    Uses exact group characters when every transparent simple is
    invertible; otherwise a seeded random-combination eigensolve,
    retried until its eigenvalues are 1e-9 apart, with distinctness
    threshold 1e-6.  Characters are reported in lexicographic order of
    their value vectors; the
    FPdim character (the one real and >= 1 on every transparent simple)
    and, when slightly degenerate, the e -> -1 character are identified.
    """
    ring = data.ring
    idx = [ring.index(lab) for lab in cls.transparent]
    n = len(idx)

    # group-like: each product of transparent simples is one transparent
    # simple, with multiplicity 1
    i, j, c, m = ring.restrict(idx)
    group_like = (np.bincount(i * n + j, minlength=n * n) == 1).all() and (m == 1).all() and (c >= 0).all()
    if group_like:
        # the entries come sorted by (i, j), one per pair
        char_values = _group_values(c.reshape(n, n).tolist(), idx.index(ring.unit_index))
    else:
        # the matrix of a is the view N[a].T, entry (c, b) = N^c_{a,b}; its
        # Fortran layout fixes the summation order of the products in
        # _numeric_characters, and so the printed floats
        N = np.zeros((n, n, n))
        keep = c >= 0
        N[i[keep], j[keep], c[keep]] = m[keep]
        char_values = _numeric_characters([Na.T for Na in N], seed)
    return _analysis(cls, char_values, seed)


def form_characters(mg: MetricGroup, cls: CentreClassification, seed: int = 0) -> ComponentAnalysis:
    """ring_characters of the linearization of mg, from the form, where
    cls is classify_form(mg): the transparent subring is the group ring
    of the radical, so its characters are the radical's group
    characters, on its addition table in radical positions (the unit,
    element 0, first)."""
    rad = mg._radical
    coords = mg.coordinates[:, rad]
    table = np.searchsorted(rad, _index(mg.cyclic_orders, coords[:, :, None] + coords[:, None, :]))
    return _analysis(cls, _group_values(table.tolist(), 0), seed)


def _analysis(cls: CentreClassification, char_values: list[list[complex]], seed: int) -> ComponentAnalysis:
    """The characters, each a list of values on cls.transparent, sorted
    and named: the FPdim character and, when slightly degenerate, the
    magnetic one."""
    labels = list(cls.transparent)
    char_values.sort(key=lambda chi: tuple((round(z.real, 9), round(z.imag, 9)) for z in chi))

    # FPdim: the one character positive on the basis, where it is >= 1 (EGNO 3.3)
    dims = [k for k, chi in enumerate(char_values)
            if all(abs(z.imag) <= _DISTINCT_TOL and z.real >= 1 - _DISTINCT_TOL for z in chi)]
    if len(dims) != 1:
        raise DegenerateEigenproblem(f"{len(dims)} characters are real and >= 1 on the basis, expected one")
    dim_index = dims[0]

    magnetic_index = None
    if cls.kind is CentreKind.SLIGHTLY_DEGENERATE:
        e_pos = labels.index(cls.fermion)
        for k, chi in enumerate(char_values):
            if abs(chi[e_pos] + 1.0) <= _DISTINCT_TOL:
                magnetic_index = k
                break
        if magnetic_index is None:
            raise CrossCheckMismatch("slightly degenerate data must have an e -> -1 character")

    characters = [dict(zip(labels, chi)) for chi in char_values]
    return ComponentAnalysis(
        count=len(labels),
        characters=characters,
        dim_index=dim_index,
        magnetic_index=magnetic_index,
        seed=seed,
    )
