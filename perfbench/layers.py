"""Per-layer measurement from outside the program: spans and probes.

The traced run wraps the public functions at every call that crosses
from one `premodular` module into another (cli -> serialize -> data ->
fusion_ring, and so on), by rebinding the imported names for the length
of the traced batch.  Calls inside one module (the candidate validations
inside `enumerate_pointed_extensions`, for instance) stay inside their
caller's span.  Spans live in memory and are written out at the end; a
layer's self time is its spans' duration minus their direct children's.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import statistics
import subprocess
import time
from collections import defaultdict

import inputs

# (module whose global is rebound, imported name, span name)
PATCHES = (
    ("premodular.cli", "load_datum", "serialize.parse"),
    ("premodular.cli", "to_premodular", "metric_groups.linearize"),
    ("premodular.cli", "classify_degeneracy", "data.classify"),
    ("premodular.cli", "ring_characters", "components.characters"),
    ("premodular.cli", "extension_verdict", "klein.verdict"),
    ("premodular.cli", "enumerate_pointed_extensions", "metric_groups.extend"),
    ("premodular.serialize", "validate_metric_group", "metric_groups.validate"),
    ("premodular.serialize", "validate_premodular", "data.validate"),
    ("premodular.data", "validate_fusion_ring", "fusion_ring.validate"),
    ("premodular.components", "classify_degeneracy", "data.classify"),
    ("premodular.klein", "classify_degeneracy", "data.classify"),
)

# every span name, so each run prints the same metric set; "cli.process"
# (a cold process, recorded only by the ungated cli-cold workload) stays
# in the span file
TIMERS = (
    "cli.import", "catalog.build", "cli.run", "serialize.parse",
    "metric_groups.validate", "metric_groups.linearize", "metric_groups.extend",
    "fusion_ring.validate", "data.validate", "data.classify",
    "components.characters", "klein.verdict",
)

# work counts taken from the arguments of a traced call
COUNTERS = {
    "serialize.parse": ("serialize.bytes_in", lambda path, *a, **k: os.path.getsize(path)),
    "metric_groups.validate": ("metric_groups.validate_elements", lambda mg, *a, **k: len(mg.qtable)),
}


class Tracer:
    """In-memory spans: [name, start, end, parent index, item id]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = "setup"
        self.counts = defaultdict(int)
        self.errors = defaultdict(int)

    def record(self, name, start, end, parent=None) -> int:
        if parent is None:
            parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start, end, parent, self.item])
        return len(self.spans) - 1

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if counter:
                self.counts[counter[0]] += counter[1](*args, **kwargs)
            idx = self.record(name, time.perf_counter(), None)
            self.stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                self.stack.pop()
                self.spans[idx][2] = time.perf_counter()

        return traced

    @contextlib.contextmanager
    def patched(self):
        saved = []
        try:
            for module, attr, name in PATCHES:
                mod = importlib.import_module(module)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def layer_metrics(self) -> dict:
        busy = defaultdict(float)
        calls = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            busy[name] += end - start
            calls[name] += 1
            if parent >= 0:
                busy[self.spans[parent][0]] -= end - start
        out = {}
        for name in TIMERS:
            out[f"{name}_s"] = (busy[name], "s")
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.errors"] = (self.errors[name], "count")
        for name, _ in COUNTERS.values():
            out[name] = (self.counts[name], "bytes" if name.endswith("bytes_in") else "count")
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "item"], "spans": self.spans}, fh)


def import_seconds(stderr: str) -> float:
    """Inclusive import time of premodular.cli from `-X importtime` output."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].rstrip() == " premodular.cli":
            return int(parts[1]) / 1e6
    raise ValueError("no top-level premodular.cli line in -X importtime output")


# -- probes -----------------------------------------------------------------------


def _per_call_us(fn, batches=5, min_batch_s=0.02):
    n = 1
    while True:
        t = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t >= min_batch_s:
            break
        n *= 2
    samples = []
    for _ in range(batches):
        t = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t) / n * 1e6)
    return statistics.median(samples)


def probe_cyclotomic(seed) -> dict:
    """mul, mixed-conductor add (48 + 16) and inverse on dense elements
    at conductor 48 (all 16 power-basis coefficients nonzero)."""
    from premodular.cyclotomic import CycNum

    rng = inputs.stream(seed, "probe")

    def dense(n, phi):
        return CycNum(n, [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(phi)])

    a, b, c = dense(48, 16), dense(48, 16), dense(16, 8)
    return {
        "cyclotomic.mul_us": (_per_call_us(lambda: a * b), "us"),
        "cyclotomic.add_mixed_us": (_per_call_us(lambda: a + c), "us"),
        "cyclotomic.inverse_us": (_per_call_us(a.inverse), "us"),
    }


# fermion line plus nondegenerate blocks, one shape per probed size
_VALIDATE_SHAPES = {16: (2, 8), 64: (2, 4, 8), 256: (2, 8, 16)}


def probe_validate(seed) -> dict:
    from premodular.metric_groups import MetricGroup, validate_metric_group

    rng = inputs.stream(seed, "probe-validate")
    out = {}
    for size, orders in _VALIDATE_SHAPES.items():
        nums = [2] + [rng.choice(inputs.block_coeffs(n)) for n in orders[1:]]
        mg = MetricGroup(list(orders), inputs.diagonal_form(orders, nums))
        times = []
        for _ in range(1 if size >= 256 else 3):
            t = time.perf_counter()
            ok = validate_metric_group(mg).ok
            times.append(time.perf_counter() - t)
            if not ok:
                raise AssertionError(f"probe group of order {size} failed validation")
        out[f"metric_groups.validate_n{size}_s"] = (statistics.median(times), "s")
    return out


def probe_interpreter(python, env, cwd, runs=5) -> dict:
    """Bare interpreter start and exit, the floor under every cold process."""
    times = []
    for _ in range(runs):
        t = time.perf_counter()
        subprocess.run([python, "-c", "pass"], env=env, cwd=cwd, check=True, timeout=60)
        times.append(time.perf_counter() - t)
    return {"cli.interpreter_s": (statistics.median(times), "s")}
