"""Smoke test of the benchmark at its smallest size.

    python3 perfbench/selftest.py      # from the repository root, about two minutes

Each workload runs one minimal batch (--seconds 0).  The test checks that
every end-to-end metric of BENCHMARK.json prints by name with its unit,
that a traced run prints every per-layer metric, and that a corrupted
expected value is counted as a failed item.  The functions also run
under pytest: `python3 -m pytest perfbench/selftest.py`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

SEED = 7


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _check_printed(lines, wanted):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in wanted}, units
    for m in wanted:
        assert any(line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"] for line in lines[:-1]), m


def test_every_end_to_end_metric_prints_with_its_unit():
    for workload in _spec()["workloads"]:
        _check_printed(_run(workload["name"], 0), _spec()["end_to_end"])


def test_every_per_layer_metric_prints_with_its_unit():
    _check_printed(_run("survey", 1), _spec()["per_layer"])


def _corrupt(value):
    return value + 1 if isinstance(value, int) else value + "#"


def test_corrupted_expected_value_counts_as_failure():
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        import run

        for workload in _spec()["workloads"]:
            bench = run.Bench(workload["name"], SEED, 0)
            try:
                bench.setup()
                item = bench.workload.rounds[0][0]
                item.expected = {k: _corrupt(v) for k, v in item.expected.items()}
                batch = bench.batch(rounds=1)
            finally:
                bench.close()
            assert batch.failed / len(batch.latencies) > 0, workload["name"]
    finally:
        os.chdir(cwd)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok  {name}")
