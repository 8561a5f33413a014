#!/usr/bin/env python3
"""Print, as one JSON line, the wall time and peak-memory growth of
validate_fusion_ring on the group ring of Z2 x Z(r/2), and the times of
the associativity join and of fpdim on the same ring.

A group ring is pointed, so validation decides its associativity by
Light's test; join_s is the join that every other ring, and a pointed
one that fails the test, goes to.  fpdim_s is one symmetric
eigensolve, which BLAS may thread: set OPENBLAS_NUM_THREADS=1 to time it
on one core.  The ru_maxrss growth is the peak the
validation adds above building the ring, so run one rank per process;
each time is the best of --repeats calls, and the ring must validate.

    for r in 64 128 256; do PYTHONPATH=src python3 scripts/ring_validation_cost.py $r; done
"""

import argparse
import json
import resource
import time

import numpy as np

from premodular.fusion_ring import _associativity_witnesses, fpdim, group_ring, validate_fusion_ring


def _best(repeats: int, call) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best


def measure(rank: int, repeats: int) -> dict:
    half = rank // 2
    elements = [(i, j) for i in range(2) for j in range(half)]
    index = {x: k for k, x in enumerate(elements)}
    add = np.array([[index[((x[0] + y[0]) % 2, (x[1] + y[1]) % half)] for y in elements]
                    for x in elements])
    inverse = [index[((-x[0]) % 2, (-x[1]) % half)] for x in elements]
    ring = group_ring([str(k) for k in range(rank)], add, 0, inverse)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        report = validate_fusion_ring(ring)
        best = min(best, time.perf_counter() - t0)
        if not report.ok:
            raise SystemExit(f"rank {rank}: {report}")
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    join = _best(repeats, lambda: _associativity_witnesses(ring, 10))
    fp = _best(repeats, lambda: fpdim(ring))
    return {"rank": rank, "validate_s": round(best, 4), "ru_maxrss_growth_mb": round((after - before) / 1024, 1),
            "join_s": round(join, 4), "fpdim_s": round(fp, 4)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rank", type=int, help="an even rank, at most 256")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    print(json.dumps(measure(args.rank, args.repeats)))


if __name__ == "__main__":
    main()
