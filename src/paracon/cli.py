"""Command-line interface: manifest ingestion, command dispatch, report emission.

Commands: ``analyze`` (full pipeline), ``flag --point`` and ``corpus --id``
(golden-value run, checked against the ``analyze`` report).  Exit codes: 0
for a completed run with a definite answer, 2 for a completed run without
one (see :func:`exit_code`), 1 for errors.

Reports are canonical JSON: UTF-8, lower_snake_case keys sorted, reals in
shortest round-trip decimal form.  A report is a pure function of
(manifest, steps), so two runs produce byte-identical files.  Each
pipeline stage runs once per run; ``analyze`` prints each stage's wall-clock
time to stderr instead of the report.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from json.encoder import encode_basestring

import numpy as np

from . import __version__
from .bundle import BundleError
from .expr import ExprError
from .flag import (IrregularPoint, NotSym2Bundle, canonical_basis,
                   derived_flag)
from .globalmetric import (CHART_ONLY_CAVEAT, LOOP_GENERATION_CAVEAT,
                           Analysis, GlobalVerdict)
from .manifest import (MANIFEST_SCHEMA, Manifest, ManifestError, load_manifest,
                       validate)
from .transport import DefectTooLarge, TransportError

__all__ = ["main", "run", "build_report", "exit_code", "canonical_json",
           "Rows"]

MATRIX_KIND_CAVEAT = ("fiber is an abstract bundle (kind=matrix): the metric "
                      "question is not posed; reporting flat-bundle data only")
FLAT_BUNDLE_NOT_POSED = ("terminal dimension varies over the sample grid; the "
                         "flat-bundle question is not posed")


@dataclass
class Rows:
    """A JSON list of records held as columns: record i maps each key to
    ``columns[key][i]``, the row of an array whose first axis runs over the
    records.  Where ``cut`` names the key, the row keeps the first
    ``cut[key][i]`` entries of its last axis."""

    columns: dict
    cut: dict = field(default_factory=dict)


def _join(texts, nl, brackets="[]"):
    """A JSON list (or object) of item texts, opened at the indent ``nl``."""
    inner = nl + "  "
    return (brackets[0] + inner + ("," + inner).join(texts) + nl + brackets[1]
            if texts else brackets)


def _slots(shape, nl) -> str:
    """JSON text of an array of ``shape`` opened at the indent ``nl``, with a
    ``%s`` slot for each scalar."""
    if not shape:
        return "%s"
    return _join([_slots(shape[1:], nl + "  ")] * shape[0], nl)


def _cells(a: np.ndarray) -> np.ndarray:
    """The JSON text of each scalar of ``a``, as an object array of its
    shape.  In an array of 256 or more scalars (grid coordinates, flag dims
    and statuses repeat) each distinct value's text is made once, numbers
    told apart by their bits so that 0.0 and -0.0 stay two texts; in smaller
    ones ``np.unique`` costs more than the texts it saves."""
    flat, inv, kind = a.ravel(), None, a.dtype.kind
    if kind in "biufU" and flat.size >= 256:
        keys = flat if kind == "U" else flat.view(f"u{a.itemsize}")
        keys, inv = np.unique(keys, return_inverse=True)
        flat = keys if kind == "U" else keys.view(a.dtype)
    if kind in "fiu":
        cells = np.array(list(map(repr, flat.tolist())), dtype=object)
        cells[~np.isfinite(flat)] = "null"
    else:
        cells = np.array([_text(v, "") for v in flat.tolist()], dtype=object)
    return (cells if inv is None else cells[inv]).reshape(a.shape)


def _records(obj: Rows, nl) -> str:
    """JSON text of the records of ``obj`` opened at the indent ``nl``.  The
    records are grouped by the widths they are cut to; each group's cells,
    laid side by side, fill its record template repeated once per record with
    one ``%``.  With several groups, a NUL, which no JSON text holds, parts
    each group's text into its records."""
    keys = sorted(obj.columns)
    cells = [_cells(obj.columns[k]) for k in keys]
    cuts = [obj.cut[k].tolist() if k in obj.cut else None for k in keys]
    texts = np.empty(len(cells[0]) if keys else 0, dtype=object)
    sigs = list(zip(*[c for c in cuts if c is not None])) or [()] * len(texts)
    groups = dict.fromkeys(sigs, slice(None))
    if len(groups) > 1:
        groups = {sig: [] for sig in groups}
        for i, sig in enumerate(sigs):
            groups[sig].append(i)
    for sig, idx in groups.items():
        widths, heads, parts = iter(sig), [], []
        for k, c, cut in zip(keys, cells, cuts):
            c = c[idx] if cut is None else c[idx, ..., :next(widths)]
            heads.append(encode_basestring(k).replace("%", "%%") + ": "
                         + _slots(c.shape[1:], nl + "    "))
            parts.append(c.reshape(len(c), -1))
        record = _join(heads, nl + "  ", "{}")
        rows = np.concatenate(parts, axis=1)
        values = tuple(rows.ravel().tolist())
        if len(groups) == 1:
            return _join([record] * len(rows), nl) % values
        texts[idx] = ("\0".join([record] * len(rows)) % values).split("\0")
    return _join(texts.tolist(), nl)


def _text(obj, nl) -> str:
    """JSON text of ``obj`` opened at the indent ``nl`` (a newline and the
    indent of the line it starts on)."""
    if obj is None or isinstance(obj, str):
        return "null" if obj is None else encode_basestring(obj)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    if isinstance(obj, (float, np.floating)):
        return float.__repr__(float(obj)) if math.isfinite(obj) else "null"
    inner = nl + "  "
    if isinstance(obj, dict):
        items = sorted({str(k): v for k, v in obj.items()}.items())
        return _join([encode_basestring(k) + ": " + _text(v, inner)
                      for k, v in items], nl, "{}")
    if isinstance(obj, (list, tuple)):
        return _join([_text(v, inner) for v in obj], nl)
    if isinstance(obj, np.ndarray):
        return _slots(obj.shape, nl) % tuple(_cells(obj).ravel().tolist())
    if isinstance(obj, Rows):
        return _records(obj, nl)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def canonical_json(doc: dict) -> str:
    """The bytes of ``json.dumps(doc, sort_keys=True, indent=2,
    ensure_ascii=False)`` and a newline, with ndarrays and numpy scalars
    written as their Python values, each non-finite float as null and each
    :class:`Rows` as its list of records."""
    return _text(doc, "\n") + "\n"


def _finalize(report: dict) -> tuple:
    """Add ``report_digest``, the sha256 of the canonical report without it,
    and return the canonical report with it as UTF-8 pieces, encoded once:
    the digest line goes between two views of the body."""
    body = canonical_json(report).encode("utf-8")
    digest = hashlib.sha256(body).hexdigest()
    report["report_digest"] = digest
    # it goes before the next top-level key ("tool_version" is in every
    # report); only top-level keys start a line with two spaces and a quote
    after = json.dumps(min(k for k in report if k > "report_digest"),
                       ensure_ascii=False)
    at = body.rindex(f"\n  {after}: ".encode("utf-8")) + 1
    view = memoryview(body)
    return (view[:at], f'  "report_digest": "{digest}",\n'.encode("utf-8"),
            view[at:])


def _scan_dict(scan):
    return {
        "grid_axes": scan.axes,
        "dims": scan.levels[-1].dims,
        "regular_on_grid": scan.regular_on_grid,
        "jumps": [{"from": a, "to": b, "dim_from": da, "dim_to": db}
                  for a, b, da, db in scan.jumps],
    }


def _trace_dict(trace):
    """One point's flag, as the ``flag`` command's record."""
    terminal = trace.terminal
    return {"point": trace.point, "dims": trace.dims,
            "stabilization_level": trace.stabilization_level,
            "terminal_dim": terminal.dim, "terminal_basis": terminal.basis,
            "sv_gap": terminal.sv_gap}  # inf, an empty side: null


def _flag_rows(scan) -> Rows:
    """The flag at each point of a scan, as :func:`_trace_dict` records."""
    terminal = scan.levels[-1]
    return Rows({
        "point": scan.flag_points,
        "dims": np.stack([lv.dims for lv in scan.levels], axis=1),
        "stabilization_level": scan.last,
        "terminal_dim": terminal.dims,
        "terminal_basis": terminal.bases,
        "sv_gap": terminal.gaps,  # inf, a decision with an empty side: null
    }, cut={"dims": scan.last + 1, "terminal_basis": terminal.dims})


def _verdict_dict(v: GlobalVerdict):
    out = {
        "status": v.status,
        "regular_on_grid": v.regular_on_grid,
        "wtilde_rank": v.wtilde_rank,
        "fixed_dim": None if v.fixed is None else v.fixed.dim,
        "fixed_fiber_basis": v.fixed_fiber_basis,
        "rank_wm": v.rank_wm,
        "rank_tau_reported": v.rank_tau_reported,
        "notes": v.notes,
    }
    if v.pd_result is not None:
        out["pd"] = {
            "status": v.pd_result.status,
            "best_lambda": v.pd_result.best_lambda,
            "coefficients": v.pd_result.coefficients,
            "cholesky": v.pd_result.cholesky,
            "witness": v.pd_result.witness,
        }
    if v.phi is not None:
        out["phi_periods"] = {
            "loops": v.phi.loop_names,
            "periods": v.phi.periods,
            "period_tols": v.period_tols,
            "points": v.phi.points,
            "error_estimates": v.phi.error_estimates,
        }
    return out


def _header(man: Manifest, command: str, caveats: list) -> dict:
    """The fields that every report of a manifest carries."""
    return {"tool_version": __version__, "command": command,
            "manifest_id": man.id, "manifest_digest": man.digest(),
            "caveats": caveats}


def exit_code(report: dict) -> int:
    """Exit code of a completed ``analyze`` run, read from its report: 2
    when it gives no definite answer (the grid is not regular, the holonomy
    stage failed or the Sym^2 verdict is inconclusive); else 0."""
    status = (report.get("global_verdict") or {}).get("status")
    return 2 if (not report["regularity"]["regular_on_grid"]
                 or report["holonomy"] is None
                 or status == "inconclusive") else 0


def build_report(man: Manifest, an: Analysis) -> tuple:
    """Report of the ``analyze`` command on ``man``, every stage read from
    its staged analysis ``an``; returns (report, its canonical JSON as the
    pieces from :func:`_finalize`)."""
    spec = man.spec
    # the verdict first, so the stages run in the verdict's order
    verdict = an.verdict if spec.kind == "christoffel" else None
    report = _header(man, "analyze", [LOOP_GENERATION_CAVEAT,
                                      CHART_ONLY_CAVEAT])
    report["effective"] = {"tolerances": man.tolerances, "steps": man.steps}
    scan = an.scan
    report["regularity"] = _scan_dict(scan)
    report["flag_traces"] = _flag_rows(scan)
    report["local_metricity"] = None
    if spec.kind == "christoffel":
        status, best = map(np.array, zip(*[(lm.status, lm.best_lambda)
                                           for lm in an.local]))
        report["local_metricity"] = Rows({
            "point": scan.points, "locally_metric": status == "feasible",
            "status": status, "best_lambda": best})
    try:
        report["base_flag"] = None
        report["base_flag"] = _trace_dict(an.base_trace)
        report["holonomy"] = [
            {"loop": h.loop_name, "matrix": h.matrix, "defect": h.defect,
             "steps": h.steps, "error_estimate": h.error_estimate}
            for h in an.holonomies]
    except (IrregularPoint, DefectTooLarge) as exc:
        report["holonomy"] = None
        report["notes"] = [f"holonomy stage failed: {exc}"]

    if verdict is not None:
        report["global_verdict"] = _verdict_dict(verdict)
    else:
        # abstract fiber: report the flat-bundle answer instead
        report["caveats"].append(MATRIX_KIND_CAVEAT)
        report["global_verdict"] = report["flat_bundle"] = None
        if not scan.regular_on_grid:
            report.setdefault("notes", []).append(FLAT_BUNDLE_NOT_POSED)
        elif report["holonomy"] is not None:
            terminal, fixed = an.base_trace.terminal, an.fixed
            report["flat_bundle"] = {
                "wtilde_rank": terminal.dim,
                "fixed_dim": fixed.dim,
                "fixed_basis": canonical_basis(terminal.basis @ fixed.basis),
                "parallel_frame": fixed.dim == terminal.dim,
            }

    return report, _finalize(report)


def _format_text(report: dict) -> str:
    """The text summary of a report, read from the report as built."""
    lines = [f"paracon {report['tool_version']}: {report['command']} "
             f"(manifest {report['manifest_id'] or 'unnamed'})"]
    reg = report.get("regularity")
    if reg:
        lines.append(f"  regular on grid: {reg['regular_on_grid']}; "
                     f"terminal dims {reg['dims'].tolist()}")
        for j in reg["jumps"]:
            lines.append(f"  jump {j['from']} (dim {j['dim_from']}) -> "
                         f"{j['to']} (dim {j['dim_to']})")
    tr = report.get("flag_trace")
    if tr:
        lines.append(f"  flag dims {tr['dims']}, terminal dim "
                     f"{tr['terminal_dim']}")
    traces = report.get("flag_traces")
    if traces:
        dims, cut = traces.columns["dims"].tolist(), traces.cut["dims"]
        chains = Counter(str(d[:c]) for d, c in zip(dims, cut.tolist()))
        for chain, count in chains.items():
            lines.append(f"  flag dims {chain} at {count} of {len(dims)} points")
    for h in report.get("holonomy") or []:
        lines.append(f"  holonomy[{h['loop']}]: defect {h['defect']:.2e}")
    gv = report.get("global_verdict")
    if gv:
        lines.append(f"  global status: {gv['status']} "
                     f"(rank_wm {gv['rank_wm']}, "
                     f"wtilde rank {gv['wtilde_rank']})")
        if gv.get("phi_periods"):
            lines.append(f"  phi periods: {gv['phi_periods']['periods']}")
    # a failed holonomy stage's one note is in both blocks; print it once
    for n in dict.fromkeys((gv or {}).get("notes", [])
                           + report.get("notes", [])):
        lines.append(f"  note: {n}")
    fb = report.get("flat_bundle")
    if fb:
        lines.append(f"  flat bundle: rank {fb['wtilde_rank']}, fixed "
                     f"{fb['fixed_dim']}, parallel frame "
                     f"{fb['parallel_frame']}")
    for c in report.get("caveats", []):
        lines.append(f"  caveat: {c}")
    return "\n".join(lines) + "\n"


def _write_report(report: dict, pieces: tuple, out_path: str, fmt: str):
    """Write the report's canonical pieces to ``out_path``; print its text
    summary or the path."""
    with open(out_path, "wb") as fh:
        fh.writelines(pieces)
    if fmt == "text":
        sys.stdout.write(_format_text(report))
    else:
        print(f"report written to {out_path}")


def _parse_point(text: str, man: Manifest):
    # trailing coordinates may be omitted; they fall back to the base point
    try:
        parts = [float(v) for v in text.split(",")]
    except ValueError:
        raise ManifestError("/point", f"expected numbers, got {text!r}") \
            from None
    if not all(map(math.isfinite, parts)):
        raise ManifestError("/point", f"expected finite numbers, got {text!r}")
    dim = man.domain.dim
    if not 1 <= len(parts) <= dim:
        raise ManifestError("/point", f"expected 1..{dim} coordinates")
    out = np.array(man.base_point, dtype=float)
    out[:len(parts)] = parts
    return out


def _apply_cli_overrides(args):
    overrides = {}
    for item in args.param or []:
        if "=" not in item:
            raise ManifestError("/param", f"expected name=value, got {item!r}")
        name, value = item.split("=", 1)
        try:
            overrides[name] = float(value)
        except ValueError:
            overrides[name] = value  # the schema rejects it
    validate(overrides, MANIFEST_SCHEMA["properties"]["params"], "/params")
    return overrides


def run(command: str, manifest_path: str, args) -> int:
    """Dispatch one command; returns the process exit code."""
    overrides = _apply_cli_overrides(args)
    man = load_manifest(manifest_path, overrides)
    if args.steps is not None:
        steps = dict.fromkeys(man.steps, args.steps)
        validate(steps, MANIFEST_SCHEMA["properties"]["steps"], "/steps")
        man.steps = steps

    if command == "flag":
        trace = derived_flag(man.spec, _parse_point(args.point, man),
                             rank_tol=man.tolerances["rank_tol"])
        report = dict(_header(man, "flag", [CHART_ONLY_CAVEAT]),
                      flag_trace=_trace_dict(trace))
        _write_report(report, _finalize(report), args.out, args.format)
        return 0

    an = man.analysis()
    report, pieces = build_report(man, an)
    for name, seconds in an.timings:
        print(f"[paracon] {name}: {seconds:.3f}s", file=sys.stderr)
    _write_report(report, pieces, args.out, args.format)
    return exit_code(report)


def _run_corpus(args) -> int:
    from .corpus import get_entry, run_entry
    try:
        entry = get_entry(args.id)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 1
    checks = run_entry(entry)
    all_ok = True
    for c in checks:
        mark = "PASS" if c.ok else "FAIL"
        print(f"{mark} {entry.id}.{c.name}: {c.detail}")
        all_ok = all_ok and c.ok
    return 0 if all_ok else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="paracon",
        description="Decide whether a chart connection is locally and "
                    "globally metric.")
    parser.add_argument("--version", action="version",
                        version=f"paracon {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, manifest=True):
        if manifest:
            p.add_argument("manifest", help="path to the manifest JSON")
        p.add_argument("--out", default="./report.json",
                       help="report output path (default ./report.json)")
        p.add_argument("--steps", type=int, default=None,
                       help="override the caps on RK4 steps and quadrature "
                            "points")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--param", action="append", metavar="NAME=VALUE",
                       help="override a manifest parameter")

    common(sub.add_parser("analyze", help="full pipeline"))
    p_flag = sub.add_parser("flag", help="derived flag at one point")
    common(p_flag)
    p_flag.add_argument("--point", required=True,
                        help="comma-separated coordinates")
    p_cor = sub.add_parser("corpus", help="run a built-in golden entry")
    p_cor.add_argument("--id", required=True, help="corpus entry id")

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "corpus":
            return _run_corpus(args)
        return run(args.command, args.manifest, args)
    except ManifestError as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return 1
    except (BundleError, ExprError, TransportError, NotSym2Bundle) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
