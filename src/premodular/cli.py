"""Command-line front end.

Subcommands: validate, analyze, kappa, components, extend, gauss,
catalog.  Exit codes: 0 success, 1 internal cross-check failure, such as
the kappa twist identity theta_{e.a} = -theta_a in analyze and kappa
(never expected on validated data), 2 input or usage errors.  Stdout is
deterministic for fixed argv, input files and seed; per-stage timings
therefore go to stderr (on --timings) and are never part of the
serialized report.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass, field

from .catalog import catalog_get, catalog_list
from .components import ComponentAnalysis, ring_characters
from .data import CentreClassification, classify_degeneracy
from .errors import (
    CrossCheckMismatch,
    DatumTooLarge,
    DegenerateEigenproblem,
    GroupsTooLarge,
    NonConvergent,
    NotSlightlyDegenerate,
    UnknownCatalogKey,
)
from .klein import ExtensionVerdict, extension_verdict, kappa_invariants
from .metric_groups import (
    MetricGroup,
    _signature_from_gauss,
    enumerate_pointed_extensions,
    gauss_sum,
    radical,
    to_premodular,
)
from .serialize import (
    ParseError,
    ValidationError,
    datum_to_json,
    format_element,
    load_datum,
)

__all__ = ["AnalysisReport", "cli_run", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage()}")


@dataclass
class AnalysisReport:
    """Aggregated output of the full pipeline on one datum."""

    input_name: str
    classification: CentreClassification
    components: ComponentAnalysis
    verdict: ExtensionVerdict  # verdict.kappa is present iff slightly degenerate
    timings_ms: dict = field(default_factory=dict)

    def to_json(self):
        # loading raises on any violation, so an analyzed datum always validated
        out = {"input_name": self.input_name, "validation": "ok"}
        out.update(self.classification.to_json())
        out["components"] = self.components.to_json()
        kappa = self.verdict.kappa
        out["kappa"] = kappa.to_json() if kappa is not None else None
        out["verdict"] = self.verdict.code
        out["verdict_detail"] = self.verdict.message
        return out

    def to_table(self):
        rows = [
            ("input", self.input_name),
            ("validation", "ok"),
            ("classification", self.classification.kind.value),
            ("transparent", ", ".join(self.classification.transparent)),
            ("fermion", self.classification.fermion or "-"),
            ("components", str(self.components.count)),
            ("dim character", f"#{self.components.dim_index}"),
            ("magnetic character",
             "-" if self.components.magnetic_index is None else f"#{self.components.magnetic_index}"),
        ]
        kappa = self.verdict.kappa
        if kappa is not None:
            rows += [
                ("n self-dual", str(kappa.n_self_dual)),
                ("n e-twisted", str(kappa.n_e_twisted)),
                ("kappa(+)", str(kappa.kappa_plus)),
                ("kappa(-)", str(kappa.kappa_minus)),
            ]
        rows.append(("verdict", self.verdict.code))
        return _render_rows(rows)


def _render_rows(rows):
    width = max(len(k) for k, _ in rows)
    return "".join(f"{k:<{width}} : {v}\n" for k, v in rows)


def _emit_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _load_for_analysis(path):
    """(original datum, premodular form); metric groups are linearized."""
    datum = load_datum(path)
    if isinstance(datum, MetricGroup):
        return datum, to_premodular(datum)
    return datum, datum


def run_analysis(path: str, seed: int = 0) -> AnalysisReport:
    """validate -> classify -> components -> kappa (when applicable) -> verdict."""
    timings = {}
    t0 = time.perf_counter()
    datum, data = _load_for_analysis(path)
    timings["load_validate"] = (time.perf_counter() - t0) * 1000

    t0 = time.perf_counter()
    cls = classify_degeneracy(data)
    timings["classify"] = (time.perf_counter() - t0) * 1000

    t0 = time.perf_counter()
    comp = ring_characters(data, cls, seed=seed)
    timings["components"] = (time.perf_counter() - t0) * 1000

    t0 = time.perf_counter()
    verdict = extension_verdict(data, cls)
    timings["kappa_verdict"] = (time.perf_counter() - t0) * 1000

    return AnalysisReport(
        input_name=path,
        classification=cls,
        components=comp,
        verdict=verdict,
        timings_ms=timings,
    )


# -- subcommand implementations ----------------------------------------------


def _cmd_validate(args):
    try:
        load_datum(args.path)
    except ValidationError as exc:
        if args.format == "json":
            return 2, _emit_json({"input_name": args.path, "validation": exc.report.to_json()})
        return 2, f"input      : {args.path}\nvalidation : failed\n" + str(exc.report) + "\n"
    if args.format == "json":
        return 0, _emit_json({"input_name": args.path, "validation": "ok"})
    return 0, f"input      : {args.path}\nvalidation : ok\n"


def _cmd_analyze(args):
    report = run_analysis(args.path, seed=args.seed)
    if args.timings:
        for stage, ms in report.timings_ms.items():
            print(f"[timing] {stage}: {ms:.1f} ms", file=sys.stderr)
    if args.format == "json":
        return 0, _emit_json(report.to_json())
    return 0, report.to_table()


def _cmd_kappa(args):
    _, data = _load_for_analysis(args.path)
    report = kappa_invariants(data)
    if args.format == "json":
        return 0, _emit_json({"input_name": args.path, "kappa": report.to_json()})
    rows = [
        ("input", args.path),
        ("n self-dual", str(report.n_self_dual)),
        ("n e-twisted", str(report.n_e_twisted)),
        ("kappa(+)", str(report.kappa_plus)),
        ("kappa(-)", str(report.kappa_minus)),
        ("verdict", report.verdict),
    ]
    return 0, _render_rows(rows)


def _cmd_components(args):
    _, data = _load_for_analysis(args.path)
    comp = ring_characters(data, classify_degeneracy(data), seed=args.seed)
    if args.format == "json":
        return 0, _emit_json({"input_name": args.path, "components": comp.to_json()})
    rows = [("input", args.path), ("components", str(comp.count))]
    for k, chi in enumerate(comp.characters):
        vals = ", ".join(f"{lab} -> {z.real:+.6f}{z.imag:+.6f}i" for lab, z in chi.items())
        tag = " (dim)" if k == comp.dim_index else (
            " (magnetic)" if k == comp.magnetic_index else "")
        rows.append((f"character #{k}{tag}", vals))
    return 0, _render_rows(rows)


def _cmd_extend(args):
    datum = load_datum(args.path)
    if not isinstance(datum, MetricGroup):
        raise ParseError("extend requires a metric-group input")
    results = enumerate_pointed_extensions(datum, max_order=args.max_order)
    note = f"pointed classes found: {len(results)} (non-pointed extensions, if any, not enumerated)"
    if args.format == "json":
        payload = {
            "input_name": args.path,
            "count": len(results),
            "note": note,
            "extensions": [
                {
                    "orders": list(r.group.cyclic_orders),
                    "q": {format_element(x): f"{v.numerator}/{v.denominator}"
                          for x, v in sorted(r.group.qtable.items())},
                    "embedding": [list(x) for x in r.embedding],
                    "fermion_image": list(r.fermion_image),
                    "gauss_sum": r.gauss.to_json(),
                    "signature": r.signature,
                }
                for r in results
            ],
        }
        return 0, _emit_json(payload)
    lines = [f"{'#':<3} {'orders':<12} {'signature':<9} q-values"]
    for i, r in enumerate(results):
        orders = "x".join(map(str, r.group.cyclic_orders))
        qvals = ", ".join(
            f"{format_element(x)}={v.numerator}/{v.denominator}"
            for x, v in sorted(r.group.qtable.items())
        )
        lines.append(f"{i:<3} {orders:<12} {r.signature:<9} {qvals}")
    lines.append(note)
    return 0, "\n".join(lines) + "\n"


def _cmd_gauss(args):
    datum = load_datum(args.path)
    if not isinstance(datum, MetricGroup):
        raise ParseError("gauss requires a metric-group input")
    sigma = gauss_sum(datum)
    z = sigma.embed()
    radical_size = len(radical(datum))
    sig = _signature_from_gauss(sigma, datum.order) if radical_size == 1 else None
    if args.format == "json":
        return 0, _emit_json({
            "input_name": args.path,
            "radical_size": radical_size,
            "gauss_sum": sigma.to_json(),
            "gauss_sum_complex": [z.real, z.imag],
            "signature_mod8": sig,
        })
    rows = [
        ("input", args.path),
        ("radical size", str(radical_size)),
        ("gauss sum", f"{z.real:+.9f}{z.imag:+.9f}i"),
        ("signature mod 8", "-" if sig is None else str(sig)),
    ]
    return 0, _render_rows(rows)


def _cmd_catalog(args):
    if args.action == "list":
        entries = catalog_list()
        if args.format == "json":
            return 0, _emit_json([
                {"name": n, "kind": k, "doc": d} for n, k, d in entries
            ])
        width = max(len(n) for n, _, _ in entries)
        kw = max(len(k) for _, k, _ in entries)
        lines = [f"{n:<{width}}  {k:<{kw}}  {d}" for n, k, d in entries]
        return 0, "\n".join(lines) + "\n"
    entry = catalog_get(args.name)
    return 0, _emit_json(datum_to_json(entry.payload))


def _u64(text):
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("value must be a positive integer")
    return value


@functools.cache
def _build_parser():
    """The parser, built once per process; handlers look up the functions
    they call as module globals at call time."""
    parser = _Parser(prog="premodular", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False, max_order=False, timings=False):
        p.add_argument("--format", choices=["table", "json"], default="table")
        if seed:
            p.add_argument("--seed", type=_u64, default=0)
        if max_order:
            p.add_argument("--max-order", type=_positive_int, default=64)
        if timings:
            p.add_argument("--timings", action="store_true")

    p = sub.add_parser("validate", help="run the validator on a datum file")
    p.add_argument("path")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analyze", help="full pipeline: classify, components, kappa, verdict")
    p.add_argument("path")
    common(p, seed=True, timings=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("kappa", help="Klein invariants of a slightly degenerate datum")
    p.add_argument("path")
    common(p)
    p.set_defaults(func=_cmd_kappa)

    p = sub.add_parser("components", help="transparent-subring characters")
    p.add_argument("path")
    common(p, seed=True)
    p.set_defaults(func=_cmd_components)

    p = sub.add_parser("extend", help="enumerate pointed minimal nondegenerate extensions")
    p.add_argument("path")
    common(p, max_order=True)
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("gauss", help="Gauss sum and signature of a metric group")
    p.add_argument("path")
    common(p)
    p.set_defaults(func=_cmd_gauss)

    p = sub.add_parser("catalog", help="list built-in data or show one entry as JSON")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?")
    common(p)
    p.set_defaults(func=_cmd_catalog)

    return parser


def cli_run(argv) -> tuple[int, str]:
    """Run the CLI on an argument list; returns (exit code, stdout text)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) == "catalog" and args.action == "show" and not args.name:
            raise _UsageError("catalog show requires an entry name")
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2, ""
    except (ParseError, ValidationError, UnknownCatalogKey, GroupsTooLarge, DatumTooLarge,
            NotSlightlyDegenerate) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, ""
    except (CrossCheckMismatch, DegenerateEigenproblem, NonConvergent,
            ArithmeticError, AssertionError) as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 1, ""


def main():
    code, out = cli_run(sys.argv[1:])
    sys.stdout.write(out)
    raise SystemExit(code)
