"""Benchmark of the premodular tool: one workload, one seed, one result line.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the package from ./src and
writes its inputs under ./.perfbench.  The last line of stdout is a JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The
end-to-end times are scaled to a nominal host speed (hostspeed.py).  See
perfbench/NOTES.md for the workloads, the metrics and the limits of the
measurements.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_RUNS = 3  # set-ups per run, each in a fresh interpreter; the median is reported
COLD_MAIN = "from premodular.cli import main; main()"


@dataclass
class Batch:
    latencies: list  # nominal seconds per item (hostspeed.scale)
    raw: list  # wall seconds per item
    refs: list  # reference probes, one before each item and one after the last
    failed: int
    wall: float
    rounds: int

    @property
    def nominal(self) -> float:
        return sum(self.latencies)


class Bench:
    """One workload in this process: set-up, then timed batches."""

    def __init__(self, name, seed, seconds):
        self.name, self.seed, self.seconds = name, seed, seconds
        self.tracer = layers.Tracer()
        self.workdir = os.path.join(OUT, f"work-{os.getpid()}")
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.warmup_failed = 0

    def setup(self) -> tuple[float, float]:
        """Import, catalog, inputs and warm-up; returns its wall time and
        that time in nominal seconds."""
        os.makedirs(self.workdir, exist_ok=True)
        before = hostspeed.probe()
        t0 = time.perf_counter()
        sys.path.insert(0, SRC)
        import premodular.cli

        t1 = time.perf_counter()
        from premodular.catalog import catalog_list

        catalog_list()
        t2 = time.perf_counter()
        self.tracer.record("cli.import", t0, t1)
        self.tracer.record("catalog.build", t1, t2)
        self.cli_run = premodular.cli.cli_run
        self.workload = workloads.build(self.name, self.seed, self.workdir, self.seconds, self.cli_run)
        if self.workload.cold:
            # cold processes inherit this, so they run on the CPU the probes measure
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.warmup_failed = sum(not self.run_item(it, traced=False) for it in self.workload.warmup)
        wall = time.perf_counter() - t0
        return wall, hostspeed.scale(wall, before, hostspeed.probe())

    def run_item(self, item, traced) -> bool:
        try:
            if self.workload.cold:
                code, out = self.run_cold(item.argv, traced)
            elif traced:
                code, out = self.tracer.wrap("cli.run", self.cli_run)(item.argv)
            else:
                code, out = self.cli_run(item.argv)
            return item.check(item.expected, code, out)
        except Exception:
            print(f"item {item.id} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return False

    def run_cold(self, argv, traced):
        flags = ["-X", "importtime"] if traced else []
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *flags, "-c", COLD_MAIN, *argv],
            env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        t1 = time.perf_counter()
        if traced:
            parent = self.tracer.record("cli.process", t0, t1)
            self.tracer.record("cli.import", t0, t0 + layers.import_seconds(proc.stderr), parent)
            if proc.returncode:
                self.tracer.errors["cli.process"] += 1
        return proc.returncode, proc.stdout

    def batch(self, traced=False, rounds=None) -> Batch:
        """The workload's rounds, all of them or the first `rounds`, each
        item timed between two reference probes."""
        gc.collect()
        todo = self.workload.rounds if rounds is None else self.workload.rounds[:rounds]
        latencies, raw, failed = [], [], 0
        refs = [hostspeed.probe()]
        start = time.perf_counter()
        for rnd in todo:
            for item in rnd:
                self.tracer.item = item.id
                t = time.perf_counter()
                ok = self.run_item(item, traced)
                raw.append(time.perf_counter() - t)
                refs.append(hostspeed.probe())
                latencies.append(hostspeed.scale(raw[-1], refs[-2], refs[-1]))
                failed += not ok
        return Batch(latencies, raw, refs, failed, time.perf_counter() - start, len(todo))

    def peak_rss_mb(self) -> float:
        who = resource.RUSAGE_CHILDREN if self.workload.cold else resource.RUSAGE_SELF
        return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def tail(latencies):
    """(percentile, value): the 11th largest sample, which has exactly ten
    samples beyond it; None below MIN_ITEMS samples."""
    n = len(latencies)
    if n < workloads.MIN_ITEMS:
        return None
    return 100 * (n - 10) / n, sorted(latencies)[n - 11]


def setup_in_child(args) -> tuple[float, float]:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    wall, nominal = proc.stdout.strip().splitlines()[-1].split()
    return float(wall), float(nominal)


def end_to_end(args, bench):
    """(metrics, notes, attempted, failed) of a timed run.  Times are in
    nominal seconds (hostspeed); the notes give the wall-clock figures."""
    setups = [bench.setup()]
    b = bench.batch()
    rss = bench.peak_rss_mb()
    setups += [setup_in_child(args) for _ in range(SETUP_RUNS - 1)]
    lat = b.latencies
    metrics = {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "items_per_s": ((len(lat) - b.failed) / b.nominal, "1/s"),
        "item_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    speed = statistics.median(b.refs) / hostspeed.NOMINAL_SLICE_S
    notes = {"setup_s": f"median of {len(setups)} fresh set-ups; wall {statistics.median(w for w, _ in setups):.3f} s",
             "items_per_s": f"{len(lat)} items, {b.rounds} rounds; wall {b.wall:.2f} s, "
                            f"{(len(lat) - b.failed) / b.wall:.4g} items/s; reference slice at {speed:.3f} x nominal",
             "item_p50_ms": f"wall {statistics.median(b.raw) * 1000:.4g} ms"}
    t = tail(lat)
    if t is not None:
        metrics["item_tail_ms"] = (t[1] * 1000, "ms")
        notes["item_tail_ms"] = f"p{t[0]:.1f} of {len(lat)} items; wall {tail(b.raw)[1] * 1000:.4g} ms"
    attempted = len(lat) + len(bench.workload.warmup)
    failed = b.failed + bench.warmup_failed
    print(f"{'fail_ratio':<16} {failed / attempted:<14.6g} ratio  ({failed} of {attempted} items, warm-up included)")
    return metrics, notes, attempted, failed


def per_layer(args, bench):
    """(metrics, notes, attempted, failed) of a traced run: an untraced
    batch, the same rounds traced, then the probes."""
    bench.setup()
    half = max(1, len(bench.workload.rounds) // 2)
    plain = bench.batch(rounds=half)
    with bench.tracer.patched():
        traced = bench.batch(traced=True, rounds=half)
    metrics = bench.tracer.layer_metrics()
    metrics["trace.items"] = (len(traced.latencies), "count")
    metrics["trace.untraced_s"] = (plain.nominal, "s")
    metrics["trace.traced_s"] = (traced.nominal, "s")
    metrics["trace.overhead_s"] = (traced.nominal - plain.nominal, "s")
    metrics["host.slice_ms"] = (statistics.median(plain.refs + traced.refs) * 1000, "ms")
    metrics.update(layers.probe_cyclotomic(args.seed))
    metrics.update(layers.probe_validate(args.seed))
    metrics.update(layers.probe_interpreter(sys.executable, bench.env, ROOT))
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    bench.tracer.dump(path)
    notes = {"trace.items": f"{traced.rounds} rounds; spans in {os.path.relpath(path, ROOT)}",
             "trace.overhead_s": f"wall {traced.wall - plain.wall:.3f} s",
             "host.slice_ms": f"nominal {hostspeed.NOMINAL_SLICE_S * 1000:g} ms"}
    attempted = len(plain.latencies) + len(traced.latencies) + len(bench.workload.warmup)
    failed = plain.failed + traced.failed + bench.warmup_failed
    return metrics, notes, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "premodular", "cli.py")):
        print(f"error: no premodular sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds)
    try:
        if args.setup_only:
            print(*bench.setup())
            return 0
        metrics, notes, attempted, failed = (per_layer if args.trace else end_to_end)(args, bench)
    finally:
        bench.close()
    for name, (value, unit) in metrics.items():
        print(f"{name:<16} {value:<14.6g} {unit:<6} {notes.get(name, '')}".rstrip())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
