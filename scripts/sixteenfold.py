#!/usr/bin/env python3
"""Exhibit the 16 minimal nondegenerate extensions of the fermion line.

The 8 pointed ones come out of the extension search (even signatures);
the 8 non-pointed ones are the rank-3 catalog entries (odd phases).
Prints one row per extension with its normalized Gauss phase.
"""

from premodular.catalog import catalog_get
from premodular.cyclotomic import make_root
from premodular.data import classify_degeneracy, gauss_sum as pm_gauss, validate_premodular
from premodular.fusion_ring import fpdim
from premodular.metric_groups import enumerate_pointed_extensions
from premodular.serialize import metric_group_to_json


def main():
    svec = catalog_get("svec").payload
    print(f"{'#':<3} {'kind':<11} {'data':<34} {'sigma/sqrt|A|':<14} signature(/16)")
    rows = []

    for r in enumerate_pointed_extensions(svec):
        orders = "x".join(map(str, r.group.cyclic_orders))
        qvals = ", ".join(metric_group_to_json(r.group)["q"].values())
        rows.append((2 * r.signature, "pointed", f"Z{orders}: q = ({qvals})",
                     f"z8^{r.signature}"))

    for nu in range(1, 16, 2):
        data = catalog_get(f"ising:{nu}").payload
        assert validate_premodular(data).ok
        assert classify_degeneracy(data).kind.value == "nondegenerate"
        assert pm_gauss(data) == 2 * make_root(nu, 16)
        assert abs(fpdim(data.ring)[0] - 4) < 1e-9
        rows.append((nu, "ising-type", f"ising:{nu} (1, psi, sigma; d_sigma = sqrt 2)",
                     f"z16^{nu}"))

    for i, (sixteenth, kind, desc, phase) in enumerate(sorted(rows)):
        print(f"{i:<3} {kind:<11} {desc:<34} {phase:<14} {sixteenth}")

    print("\n16 extensions total: 8 pointed (even) + 8 ising-type (odd).")


if __name__ == "__main__":
    main()
