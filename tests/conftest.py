import json

import pytest

from premodular.catalog import catalog_get, catalog_list
from premodular.fusion_ring import FusionRing
from premodular.metric_groups import MetricGroup, to_premodular
from premodular.serialize import datum_to_json


def premodular_form(name):
    """Catalog entry as PremodularData (metric groups are linearized)."""
    payload = catalog_get(name).payload
    return to_premodular(payload) if isinstance(payload, MetricGroup) else payload


def with_entries(ring, *entries):
    """ring with the entries [a, b, c, m] set, each replacing the one at
    (a, b, c); m = 0 removes it."""
    return FusionRing(labels=ring.labels, unit_index=ring.unit_index,
                      fusion=[*ring.fusion.tolist(), *entries], dual=ring.dual)


@pytest.fixture(scope="session")
def catalog_names():
    return [name for name, _, _ in catalog_list()]


@pytest.fixture
def write_datum(tmp_path):
    """Write a catalog entry (or raw datum) to a JSON file, return the path."""

    def _write(name_or_datum, filename="datum.json"):
        if isinstance(name_or_datum, str):
            obj = datum_to_json(catalog_get(name_or_datum).payload)
        else:
            obj = datum_to_json(name_or_datum)
        path = tmp_path / filename
        path.write_text(json.dumps(obj))
        return str(path)

    return _write
