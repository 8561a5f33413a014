import pytest

from conftest import premodular_form
from oracles import relative_centralizer
from premodular.catalog import catalog_get, catalog_list
from premodular.cli import cli_run
from premodular.cyclotomic import make_root
from premodular.data import (
    CentreKind,
    classify_degeneracy,
    gauss_sum as premodular_gauss,
    validate_premodular,
)
from premodular.errors import UnknownCatalogKey
from premodular.metric_groups import MetricGroup, validate_metric_group


def test_listing_contents():
    entries = catalog_list()
    names = [n for n, _, _ in entries]
    assert len(entries) >= 18
    assert names == sorted(names)
    assert "svec" in names
    for nu in range(1, 16, 2):
        assert f"ising:{nu}" in names


def test_get_svec():
    entry = catalog_get("svec")
    assert entry.kind == "metric_group"
    data = premodular_form("svec")
    assert data.ring.rank == 2
    assert data.twists[0] == make_root(0, 1)
    assert data.twists[1] == make_root(1, 2)


def test_unknown_key():
    with pytest.raises(UnknownCatalogKey):
        catalog_get("nonsense")


@pytest.mark.parametrize("name", [n for n, _, _ in catalog_list()])
def test_every_entry_validates(name):
    entry = catalog_get(name)
    if isinstance(entry.payload, MetricGroup):
        assert validate_metric_group(entry.payload).ok
    else:
        assert validate_premodular(entry.payload).ok


@pytest.mark.parametrize("nu", list(range(1, 16, 2)))
def test_ising_family_invariants(nu):
    data = catalog_get(f"ising:{nu}").payload
    assert premodular_gauss(data) == 2 * make_root(nu, 16)
    assert classify_degeneracy(data).kind is CentreKind.NONDEGENERATE
    assert relative_centralizer(data, {"1", "psi"}) == {"1", "psi"}


def test_parametric_pointed_entries():
    entry = catalog_get("pointed:2x4:1/2,1/8")
    assert entry.kind == "metric_group"
    assert entry.payload.cyclic_orders == [2, 4]
    z4 = catalog_get("pointed:4:1/4").payload
    cls = classify_degeneracy(premodular_form("pointed:4:1/4"))
    assert cls.kind is CentreKind.OTHER_DEGENERATE
    assert z4.qtable[(2,)] == 0

    with pytest.raises(UnknownCatalogKey):
        catalog_get("pointed:banana")
    with pytest.raises(ValueError):
        catalog_get("pointed:2:1/3")  # not a quadratic form on Z2


def test_cross_terms_in_parametric_key():
    toric_like = catalog_get("pointed:2x2:0,0:1/2").payload
    assert toric_like.qtable == catalog_get("toric").payload.qtable


@pytest.mark.parametrize("key", ["pointed:2:1e5", "pointed:2:0.5", "pointed:2: 1/2", "pointed:２:1/2"])
def test_parametric_keys_are_read_as_metric_group_files_are(key):
    # an exponent, a decimal point, a space and a fullwidth digit are all
    # refused in a metric-group file, and so in a key
    assert cli_run(["catalog", "show", key]) == (2, "")
