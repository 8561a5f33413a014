"""Validation reports: axiom violations with explicit witnesses."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Violation:
    kind: str          # e.g. "DualityViolation", "QuadraticLawViolation"
    witness: tuple     # the indices/elements at which the axiom fails
    detail: str = ""

    def __str__(self):
        msg = f"{self.kind} at {self.witness}"
        return f"{msg}: {self.detail}" if self.detail else msg


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind, witness, detail=""):
        self.violations.append(Violation(kind, tuple(witness), detail))

    def kinds(self) -> set[str]:
        return {v.kind for v in self.violations}

    def to_json(self):
        if self.ok:
            return "ok"
        return {
            "violations": [
                {"kind": v.kind, "witness": list(v.witness), "detail": v.detail}
                for v in self.violations
            ]
        }

    def __str__(self):
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


def cells(mask: np.ndarray, limit: int | None = None) -> list[tuple[int, int]]:
    """The first `limit` (row, column) pairs where a 2-D boolean mask is
    set, in row-major order: np.argwhere's, by np.flatnonzero, whose
    fixed cost is several times lower on the masks of a validation."""
    return [divmod(k, mask.shape[1]) for k in np.flatnonzero(mask)[:limit].tolist()]


class ValidationError(ValueError):
    """The datum parsed but fails its validator."""

    def __init__(self, report: ValidationReport):
        super().__init__(str(report))
        self.report = report
