#!/usr/bin/env python3
"""Run the full analysis pipeline over every catalog entry and print a
summary table: classification, component count and Klein invariants."""

from premodular.catalog import catalog_get, catalog_list
from premodular.components import ring_characters
from premodular.data import classify_degeneracy
from premodular.klein import extension_verdict
from premodular.metric_groups import MetricGroup, to_premodular


def main():
    print(f"{'entry':<15} {'kind':<13} {'classification':<20} {'comps':<6} "
          f"{'kappa-':<7} verdict")
    for name, kind, _ in catalog_list():
        payload = catalog_get(name).payload
        data = to_premodular(payload) if isinstance(payload, MetricGroup) else payload
        cls = classify_degeneracy(data)
        comp = ring_characters(data, cls)
        verdict = extension_verdict(data, cls)
        kappa = "-" if verdict.kappa is None else str(verdict.kappa.kappa_minus)
        print(f"{name:<15} {kind:<13} {cls.kind.value:<20} {comp.count:<6} "
              f"{kappa:<7} {verdict.code}")


if __name__ == "__main__":
    main()
