"""Command-line front end.

Subcommands: validate, analyze, kappa, components, extend, gauss,
catalog.  analyze, kappa and components read premodular data off its
arrays and a metric group off its form (classify_form, form_characters,
form_verdict), with the reports of its linearization but without
building it; kappa prints the verdict's Klein invariants.  A metric
group of order above the linearization's rank cap is still refused, so
that these exit codes stay as they were.
Exit codes: 0 success, 1 internal cross-check failure, such as the kappa
twist identity theta_{e.a} = -theta_a in analyze and kappa (never
expected on validated data), 2 input or usage errors.  Stdout is
deterministic for fixed argv, input files and seed; per-stage timings
therefore go to stderr (on --timings) and are never part of the
serialized report.  Each subcommand returns its JSON payload and its
table, and cli_run prints the one --format names; JSON is the text of
json.dumps(payload, indent=2), written by _emit_json for the exact JSON
types that payloads hold.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from json.encoder import encode_basestring_ascii as _quote

from .catalog import catalog_get, catalog_list
from .components import form_characters, ring_characters
from .data import classify_degeneracy
from .errors import (
    CrossCheckMismatch,
    DatumTooLarge,
    DegenerateEigenproblem,
    GroupsTooLarge,
    NotSlightlyDegenerate,
    UnknownCatalogKey,
)
from .klein import extension_verdict, form_verdict
from .metric_groups import (
    MetricGroup,
    _check_linearizable,
    _signature_from_gauss,
    classify_form,
    enumerate_pointed_extensions,
    gauss_sum,
)
from .metric_groups import to_premodular  # noqa: F401  unused; perfbench/layers.py PATCHES rebinds it here
from .serialize import (
    ParseError,
    ValidationError,
    datum_to_json,
    load_datum,
    q_to_json,
)

__all__ = ["cli_run", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage()}")


def _render_rows(rows):
    width = max(len(k) for k, _ in rows)
    return "".join(f"{k:<{width}} : {v}\n" for k, v in rows)


def _list(obj, newline: str) -> str:
    inner = newline + "  "
    items = [_quote(x) if type(x) is str else _WRITERS[type(x)](x, inner) for x in obj]
    return "[" + inner + ("," + inner).join(items) + newline + "]" if obj else "[]"


def _dict(obj, newline: str) -> str:
    inner = newline + "  "
    items = [_KEYS[type(k)](k) + ": " + (_quote(v) if type(v) is str else _WRITERS[type(v)](v, inner))
             for k, v in obj.items()]
    return "{" + inner + ("," + inner).join(items) + newline + "}" if obj else "{}"


# The writer of each JSON type by exact type, given the value and the indent
# of its lines; the containers quote strings, most of a payload, in place.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json's text where repr's differs
_WRITERS = {dict: _dict, list: _list, tuple: _list, str: lambda x, _: _quote(x), int: lambda x, _: int.__repr__(x),
            float: lambda x, _: _NONFINITE.get(text := float.__repr__(x), text),
            bool: lambda x, _: "true" if x else "false", type(None): lambda x, _: "null"}
_KEYS = {str: _quote}


def _emit_json(obj) -> str:
    """json.dumps(obj, indent=2) plus a newline, byte for byte, for obj of the
    exact types _WRITERS holds, str keys only, and TypeError for anything else.
    json encodes with its C encoder only without indent."""
    try:
        return _WRITERS[type(obj)](obj, "\n") + "\n"
    except KeyError as exc:  # a type, or a key type, with no writer
        raise TypeError(f"cannot write {exc.args[0].__name__} as JSON") from None


def _kappa_rows(kappa):
    return [
        ("n self-dual", str(kappa.n_self_dual)),
        ("n e-twisted", str(kappa.n_e_twisted)),
        ("kappa(+)", str(kappa.kappa_plus)),
        ("kappa(-)", str(kappa.kappa_minus)),
    ]


def _load_for_analysis(path):
    """The datum at path; a metric group above the linearization's rank
    cap raises GroupsTooLarge, as its linearization did."""
    datum = load_datum(path)
    if isinstance(datum, MetricGroup):
        _check_linearizable(datum)
    return datum


def _analyzers(datum):
    """(classify, characters, verdict) for datum, as this module names
    them at call time: a metric group's read off its form, premodular
    data's off its arrays."""
    if isinstance(datum, MetricGroup):
        return classify_form, form_characters, form_verdict
    return classify_degeneracy, ring_characters, extension_verdict


def _load_metric_group(args):
    datum = load_datum(args.path)
    if not isinstance(datum, MetricGroup):
        raise ParseError(f"{args.command} requires a metric-group input")
    return datum


def run_analysis(path: str, seed: int = 0):
    """validate -> classify -> components -> kappa (when applicable) -> verdict;
    returns the JSON payload, the table rows and the stage times in ms."""
    timings = {}

    def stage(name, fn, *fn_args):
        t0 = time.perf_counter()
        out = fn(*fn_args)
        timings[name] = (time.perf_counter() - t0) * 1000
        return out

    data = stage("load_validate", _load_for_analysis, path)
    classify, characters, verdict_of = _analyzers(data)
    cls = stage("classify", classify, data)
    comp = stage("components", characters, data, cls, seed)
    verdict = stage("kappa_verdict", verdict_of, data, cls)
    kappa = verdict.kappa  # present iff slightly degenerate
    # loading raises on any violation, so an analyzed datum always validated
    payload = {
        "input_name": path,
        "validation": "ok",
        **cls.to_json(),
        "components": comp.to_json(),
        "kappa": None if kappa is None else kappa.to_json(),
        "verdict": verdict.code,
        "verdict_detail": verdict.message,
    }
    rows = [
        ("input", path),
        ("validation", "ok"),
        ("classification", cls.kind.value),
        ("transparent", ", ".join(cls.transparent)),
        ("fermion", cls.fermion or "-"),
        ("components", str(comp.count)),
        ("dim character", f"#{comp.dim_index}"),
        ("magnetic character", "-" if comp.magnetic_index is None else f"#{comp.magnetic_index}"),
        *([] if kappa is None else _kappa_rows(kappa)),
        ("verdict", verdict.code),
    ]
    return payload, rows, timings


# -- subcommand implementations ----------------------------------------------
# Each returns (exit code, JSON payload, table): the table is a list of rows
# for _render_rows, or a function that returns the text, so that JSON output
# formats no table it will not print.


def _cmd_validate(args):
    try:
        load_datum(args.path)
    except ValidationError as exc:
        report = exc.report  # exc is unbound once this clause ends
        rows = [("input", args.path), ("validation", "failed")]
        payload = {"input_name": args.path, "validation": report.to_json()}
        return 2, payload, lambda: _render_rows(rows) + f"{report}\n"
    return 0, {"input_name": args.path, "validation": "ok"}, [("input", args.path), ("validation", "ok")]


def _cmd_analyze(args):
    payload, rows, timings = run_analysis(args.path, seed=args.seed)
    if args.timings:
        for stage, ms in timings.items():
            print(f"[timing] {stage}: {ms:.1f} ms", file=sys.stderr)
    return 0, payload, rows


def _cmd_kappa(args):
    data = _load_for_analysis(args.path)
    classify, _, verdict_of = _analyzers(data)
    cls = classify(data)
    report = verdict_of(data, cls).kappa  # present iff slightly degenerate
    if report is None:
        raise NotSlightlyDegenerate(f"classification is {cls.kind.value}; need a fermion line")
    rows = [("input", args.path), *_kappa_rows(report), ("verdict", report.verdict)]
    return 0, {"input_name": args.path, "kappa": report.to_json()}, rows


def _cmd_components(args):
    data = _load_for_analysis(args.path)
    classify, characters, _ = _analyzers(data)
    comp = characters(data, classify(data), seed=args.seed)
    rows = [("input", args.path), ("components", str(comp.count))]
    for k, chi in enumerate(comp.characters):
        vals = ", ".join(f"{lab} -> {z.real:+.6f}{z.imag:+.6f}i" for lab, z in chi.items())
        tag = " (dim)" if k == comp.dim_index else (
            " (magnetic)" if k == comp.magnetic_index else "")
        rows.append((f"character #{k}{tag}", vals))
    return 0, {"input_name": args.path, "components": comp.to_json()}, rows


def _cmd_extend(args):
    results = enumerate_pointed_extensions(_load_metric_group(args), max_order=args.max_order)
    return 0, *_extension_report(args.path, results)


def _extension_report(path, results):
    """The JSON payload and the table of extend, from the search's results."""
    note = f"pointed classes found: {len(results)} (non-pointed extensions, if any, not enumerated)"
    extensions = [
        {
            "orders": list(r.orders),
            "q": q_to_json(r.group),
            "embedding": [list(x) for x in r.embedding],
            "fermion_image": list(r.fermion_image),
            "gauss_sum": r.gauss.to_json(),
            "signature": r.signature,
        }
        for r in results
    ]

    def table():
        lines = [f"{'#':<3} {'orders':<12} {'signature':<9} q-values"]
        for i, ext in enumerate(extensions):
            orders = "x".join(map(str, ext["orders"]))
            qvals = ", ".join(f"{x}={v}" for x, v in ext["q"].items())
            lines.append(f"{i:<3} {orders:<12} {ext['signature']:<9} {qvals}")
        lines.append(note)
        return "\n".join(lines) + "\n"

    payload = {
        "input_name": path,
        "count": len(results),
        "note": note,
        "extensions": extensions,
    }
    return payload, table


def _cmd_gauss(args):
    datum = _load_metric_group(args)
    sigma = gauss_sum(datum)
    z = sigma.embed()
    radical_size = len(datum._radical)
    sig = _signature_from_gauss(sigma, datum.order) if radical_size == 1 else None
    payload = {
        "input_name": args.path,
        "radical_size": radical_size,
        "gauss_sum": sigma.to_json(),
        "gauss_sum_complex": [z.real, z.imag],
        "signature_mod8": sig,
    }
    rows = [
        ("input", args.path),
        ("radical size", str(radical_size)),
        ("gauss sum", f"{z.real:+.9f}{z.imag:+.9f}i"),
        ("signature mod 8", "-" if sig is None else str(sig)),
    ]
    return 0, payload, rows


def _cmd_catalog(args):
    if args.action == "show":  # JSON in both formats
        if not args.name:
            raise _UsageError("catalog show requires an entry name")
        payload = datum_to_json(catalog_get(args.name).payload)
        return 0, payload, lambda: _emit_json(payload)
    if args.name is not None:
        raise _UsageError("catalog list takes no entry name")
    entries = catalog_list()
    width = max(len(n) for n, _, _ in entries)
    kw = max(len(k) for _, k, _ in entries)
    payload = [{"name": n, "kind": k, "doc": d} for n, k, d in entries]
    return 0, payload, lambda: "".join(f"{n:<{width}}  {k:<{kw}}  {d}\n" for n, k, d in entries)


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

    for name, func, help_text, options in (
        ("validate", _cmd_validate, "run the validator on a datum file", {}),
        ("analyze", _cmd_analyze, "full pipeline: classify, components, kappa, verdict",
         {"seed": True, "timings": True}),
        ("kappa", _cmd_kappa, "Klein invariants of a slightly degenerate datum", {}),
        ("components", _cmd_components, "transparent-subring characters", {"seed": True}),
        ("extend", _cmd_extend, "enumerate pointed minimal nondegenerate extensions", {"max_order": True}),
        ("gauss", _cmd_gauss, "Gauss sum and signature of a metric group", {}),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("path")
        common(p, **options)
        p.set_defaults(func=func)

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
        code, payload, table = args.func(args)
        if args.format == "json":
            return code, _emit_json(payload)
        return code, _render_rows(table) if isinstance(table, list) else table()
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2, ""
    except (ParseError, ValidationError, UnknownCatalogKey, GroupsTooLarge, DatumTooLarge,
            NotSlightlyDegenerate) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, ""
    except (CrossCheckMismatch, DegenerateEigenproblem, ArithmeticError, AssertionError) as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 1, ""


def main():
    code, out = cli_run(sys.argv[1:])
    sys.stdout.write(out)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
