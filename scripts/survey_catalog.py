#!/usr/bin/env python3
"""Run the full analysis pipeline over every catalog entry and print a
summary table: classification, component count and Klein invariants.
Metric groups are analyzed on their form, as `premodular analyze` does."""

from premodular.catalog import catalog_get, catalog_list
from premodular.cli import _analyzers


def main():
    print(f"{'entry':<15} {'kind':<13} {'classification':<20} {'comps':<6} "
          f"{'kappa-':<7} verdict")
    for name, kind, _ in catalog_list():
        data = catalog_get(name).payload
        classify, characters, verdict_of = _analyzers(data)
        cls = classify(data)
        comp = characters(data, cls)
        verdict = verdict_of(data, cls)
        kappa = "-" if verdict.kappa is None else str(verdict.kappa.kappa_minus)
        print(f"{name:<15} {kind:<13} {cls.kind.value:<20} {comp.count:<6} "
              f"{kappa:<7} {verdict.code}")


if __name__ == "__main__":
    main()
