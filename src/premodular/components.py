"""Component analysis of the transparent subring.

The number of components of the double of the suspended datum equals the
number of simple transparent objects, and components biject with the
ring homomorphisms K0(transparent subring) -> C.  Characters are found
by simultaneous diagonalization of the transparent fusion matrices:
exactly (group characters) when every transparent simple is invertible,
numerically via a seeded random linear combination otherwise.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .data import CentreClassification, CentreKind, PremodularData
from .data import classify_degeneracy  # noqa: F401  unused; perfbench/layers.py PATCHES rebinds it here
from .errors import DegenerateEigenproblem
from .fusion_ring import subring_fpdim

__all__ = ["ComponentAnalysis", "ring_characters"]

_CLUSTER_TOL = 1e-9     # eigenvalues closer than this are one cluster
_DISTINCT_TOL = 1e-6    # characters must be separated by this in sup metric
_DIM_MATCH_TOL = 1e-8   # tolerance for recognizing the FPdim character
_MAX_RETRIES = 8


@dataclass
class ComponentAnalysis:
    count: int
    labels: list[str]                       # transparent labels, ring order
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


def _exact_group_characters(prod):
    """All homomorphisms to Q/Z of an abelian group given by a product
    table, as lists of Fractions in [0,1) indexed like `prod`, built up a
    chain of subgroups: with g^m the first power of g in the subgroup H
    reached so far, each character chi of H extends to H<g> in exactly m
    ways, chi(h g^k) = chi(h) + k (chi(g^m) + j)/m for j < m."""
    n = len(prod)
    unit = next(g for g in range(n) if all(prod[g][h] == h for h in range(n)))
    chars = [{unit: Fraction(0)}]  # the characters of H, each keyed by H
    for g in range(n):
        if g in chars[0]:
            continue
        powers = [unit]
        while (top := prod[powers[-1]][g]) not in chars[0]:
            powers.append(top)
        m = len(powers)
        chars = [{prod[h][p]: (v + k * (chi[top] + j) / m) % 1
                  for k, p in enumerate(powers) for h, v in chi.items()}
                 for chi in chars for j in range(m)]
    assert len(chars) == n, f"abelian group of order {n} must have exactly {n} characters"
    return [[chi[t] for t in range(n)] for chi in chars]


def _numeric_characters(mats, seed):
    """Simultaneous eigen-characters of commuting nonnegative matrices."""
    n = mats[0].shape[0]
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_RETRIES):
        weights = rng.uniform(0.5, 1.5, size=len(mats))
        M = sum(w * m for w, m in zip(weights, mats))
        eigvals, eigvecs = np.linalg.eig(M)
        clusters: list[list[int]] = []
        for i, lam in enumerate(eigvals):
            for cl in clusters:
                if abs(lam - eigvals[cl[0]]) < _CLUSTER_TOL:
                    cl.append(i)
                    break
            else:
                clusters.append([i])
        if len(clusters) != n:
            continue
        chars = []
        good = True
        for cl in clusters:
            v = eigvecs[:, cl[0]]
            denom = np.vdot(v, v)
            chi = [complex(np.vdot(v, m @ v) / denom) for m in mats]
            # residual of the common-eigenvector property
            if any(np.linalg.norm(m @ v - c * v) > 1e-6 * (1 + abs(c)) for m, c in zip(mats, chi)):
                good = False
                break
            chars.append(chi)
        if not good:
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
    invertible; otherwise a seeded random-combination eigensolve with
    cluster merging at 1e-9 and distinctness threshold 1e-6.  Characters
    are reported in lexicographic order of their value vectors; the
    FPdim character and (when slightly degenerate) the e -> -1 character
    are identified.
    """
    ring = data.ring
    labels = list(cls.transparent)
    idx = [ring.index(lab) for lab in labels]
    n = len(idx)
    N = ring.mult

    # group-like: each product of transparent simples is one transparent
    # simple, with multiplicity 1
    sub = N[np.ix_(idx, idx)]
    i, j, c = np.nonzero(sub)
    pos = np.full(ring.rank, -1)
    pos[idx] = np.arange(n)
    group_like = ((np.bincount(i * n + j, minlength=n * n) == 1).all()
                  and (sub[i, j, c] == 1).all() and (pos[c] >= 0).all())
    char_values: list[list[complex]]
    if group_like:
        # the nonzeros come sorted by (i, j), one per pair
        exact = _exact_group_characters(pos[c].reshape(n, n).tolist())
        char_values = [
            [cmath.exp(2j * cmath.pi * float(t)) if t else complex(1.0) for t in chi]
            for chi in exact
        ]
    else:
        mats = [N[a].T[np.ix_(idx, idx)].astype(float) for a in idx]
        char_values = _numeric_characters(mats, seed)

    char_values.sort(key=lambda chi: tuple((round(z.real, 9), round(z.imag, 9)) for z in chi))

    fp_sub = subring_fpdim(ring, idx)
    dim_index = None
    for k, chi in enumerate(char_values):
        if max(abs(z - d) for z, d in zip(chi, fp_sub)) <= _DIM_MATCH_TOL:
            dim_index = k
            break
    if dim_index is None:
        raise DegenerateEigenproblem("no character matches the FPdim vector")

    magnetic_index = None
    if cls.kind is CentreKind.SLIGHTLY_DEGENERATE:
        e_pos = labels.index(cls.fermion)
        for k, chi in enumerate(char_values):
            if abs(chi[e_pos] + 1.0) <= _DISTINCT_TOL:
                magnetic_index = k
                break
        assert magnetic_index is not None, "slightly degenerate data must have an e -> -1 character"

    characters = [dict(zip(labels, chi)) for chi in char_values]
    return ComponentAnalysis(
        count=n,
        labels=labels,
        characters=characters,
        dim_index=dim_index,
        magnetic_index=magnetic_index,
        seed=seed,
    )
