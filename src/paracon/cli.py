"""Command-line interface: manifest ingestion, command dispatch, report emission.

Commands: ``analyze`` (full pipeline), ``flag --point``, ``holonomy --loop``,
``global``, and ``corpus --id`` (golden-value run).  Exit codes: 0 for a
completed run with a definite verdict, 2 for a completed run that is
inconclusive or not regular, 1 for errors.

Reports are canonical JSON: UTF-8, lower_snake_case keys sorted, reals in
shortest round-trip decimal form.  A report is a pure function of
(manifest, steps), so two runs produce byte-identical files.  Each
pipeline stage runs once per run, and its wall-clock time goes to stderr
instead of the report.
"""

from __future__ import annotations

import argparse
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
                   regularity_scan)
from .globalmetric import (CHART_ONLY_CAVEAT, LOOP_GENERATION_CAVEAT,
                           Analysis, GlobalVerdict, global_metricity)
from .manifest import Manifest, ManifestError, load_manifest
from .transport import DefectTooLarge, TransportError

__all__ = ["main", "run", "build_report", "canonical_json", "Rows"]

MATRIX_KIND_CAVEAT = ("fiber is an abstract bundle (kind=matrix): the metric "
                      "question is not posed; reporting flat-bundle data only")


@dataclass
class Rows:
    """A JSON list of records held as columns: record i maps each key to
    ``columns[key][i]``, the row of an array whose first axis runs over the
    records.  Where ``cut`` names the key, the row keeps the first
    ``cut[key][i]`` entries of its last axis."""

    columns: dict
    cut: dict = field(default_factory=dict)

    def record(self, i) -> dict:
        """Record i, its values the cut array rows."""
        return {k: c[i, ..., :self.cut[k][i]] if k in self.cut else c[i]
                for k, c in self.columns.items()}


def _join(texts, nl, brackets="[]"):
    """A JSON list (or object) of item texts, opened at the indent ``nl``."""
    inner = nl + "  "
    return (brackets[0] + inner + ("," + inner).join(texts) + nl + brackets[1]
            if texts else brackets)


def _rows(a: np.ndarray, nl, cut=None) -> list:
    """Text of each ``a[i]`` opened at the indent ``nl``, as ``json.dumps``
    writes ``a.tolist()``, cut to its first ``cut[i]`` entries along the
    last axis where ``cut`` is given.  The scalar texts are made in one pass
    and fill a template of one row."""
    if cut is not None:
        out = [None] * len(a)
        for d in set(cut.tolist()):
            idx = np.flatnonzero(cut == d)
            for i, text in zip(idx.tolist(), _rows(a[idx, ..., :d], nl)):
                out[i] = text
        return out
    flat = a.ravel().tolist()
    if a.dtype.kind in "fiu":
        cells = list(map(repr, flat))
        for i in np.flatnonzero(~np.isfinite(a.ravel())).tolist():
            cells[i] = "null"
    else:
        cells = [_text(x, nl + "  " * (a.ndim - 1)) for x in flat]
    size = math.prod(a.shape[1:])
    template = _text(np.full(a.shape[1:], "%s").tolist(), nl)
    template = template.replace('"%s"', "%s")  # one slot per scalar
    return [template % tuple(cells[i * size:(i + 1) * size])
            for i in range(len(a))]


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
        return (_join(_rows(obj, inner), nl) if obj.ndim
                else _text(obj.item(), nl))
    if isinstance(obj, Rows):
        keys = sorted(obj.columns)
        heads = [encode_basestring(k) + ": " for k in keys]
        cols = [_rows(obj.columns[k], inner + "  ", obj.cut.get(k))
                for k in keys]
        return _join([_join(list(map(str.__add__, heads, texts)), inner, "{}")
                      for texts in zip(*cols)], nl)
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
    at = body.index(f"\n  {after}: ".encode("utf-8")) + 1
    view = memoryview(body)
    return (view[:at], f'  "report_digest": "{digest}",\n'.encode("utf-8"),
            view[at:])


def _scan_dict(scan):
    return {
        "grid_axes": scan.axes,
        "dims": scan.dims,
        "regular_on_grid": scan.regular_on_grid,
        "jumps": [{"from": a, "to": b, "dim_from": da, "dim_to": db}
                  for a, b, da, db in scan.jumps],
    }


def _flag_rows(scan) -> Rows:
    """The flag at each point of a scan, as report records."""
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


def _holonomy_dict(h):
    return {"loop": h.loop_name, "matrix": h.matrix, "defect": h.defect,
            "steps": h.steps, "error_estimate": h.error_estimate}


def build_report(man: Manifest, command: str) -> tuple:
    """Report of the ``analyze`` or ``global`` command; returns
    (report, its canonical JSON as the pieces from :func:`_finalize`,
    exit_code).  Every stage is read from one staged analysis."""
    spec, options = man.spec, man.pipeline_options()
    inputs = (spec, man.base_point, man.loops, man.grid_axes)
    # a Sym^2 verdict comes from the library entry point, and its analysis
    # carries the stages read below, so none of them runs twice
    verdict = (global_metricity(*inputs, **options)
               if spec.kind == "christoffel" else None)
    an = Analysis(*inputs, **options) if verdict is None else verdict.analysis
    report = {
        "tool_version": __version__,
        "command": command,
        "manifest_id": man.id,
        "manifest_digest": man.digest(),
        "effective": {
            "tolerances": man.tolerances,
            "steps": man.steps,
        },
        "caveats": [LOOP_GENERATION_CAVEAT, CHART_ONLY_CAVEAT],
    }
    exit_code = 0

    scan = an.scan
    report["regularity"] = _scan_dict(scan)
    report["flag_traces"] = _flag_rows(scan)
    report["local_metricity"] = None if spec.kind != "christoffel" else Rows({
        "point": scan.points,
        "locally_metric": np.array([lm.status == "feasible"
                                    for lm in an.local]),
        "status": np.array([lm.status for lm in an.local]),
        "best_lambda": np.array([lm.best_lambda for lm in an.local]),
    })

    try:
        report["holonomy"] = [_holonomy_dict(h) for h in an.holonomies]
    except (IrregularPoint, DefectTooLarge) as exc:
        report["holonomy"] = None
        report["notes"] = [f"holonomy stage failed: {exc}"]

    if verdict is not None:
        report["global_verdict"] = _verdict_dict(verdict)
        if verdict.status in ("inconclusive", "not_regular"):
            exit_code = 2
    else:
        # abstract fiber: report the flat-bundle answer instead
        report["caveats"].append(MATRIX_KIND_CAVEAT)
        report["global_verdict"] = None
        if report["holonomy"] is None:
            report["flat_bundle"] = None
            exit_code = 2
        else:
            terminal, fixed = an.base_trace.terminal, an.fixed
            report["flat_bundle"] = {
                "wtilde_rank": terminal.dim,
                "fixed_dim": fixed.dim,
                "fixed_basis": canonical_basis(terminal.basis @ fixed.basis),
                "parallel_frame": fixed.dim == terminal.dim,
            }

    for name, seconds in an.timings:
        print(f"[paracon] {name}: {seconds:.3f}s", file=sys.stderr)
    return report, _finalize(report), exit_code


def _format_text(report: dict) -> str:
    lines = [f"paracon {report['tool_version']}: {report['command']} "
             f"(manifest {report['manifest_id'] or 'unnamed'})"]
    reg = report.get("regularity")
    if reg:
        lines.append(f"  regular on grid: {reg['regular_on_grid']}; "
                     f"terminal dims {reg['dims']}")
        for j in reg["jumps"]:
            lines.append(f"  jump {j['from']} (dim {j['dim_from']}) -> "
                         f"{j['to']} (dim {j['dim_to']})")
    tr = report.get("flag_trace")
    if tr:
        lines.append(f"  flag dims {tr['dims']}, terminal dim "
                     f"{tr['terminal_dim']}")
    traces = report.get("flag_traces") or []
    chains = Counter(str(t["dims"]) for t in traces)
    for chain, count in chains.items():
        lines.append(f"  flag dims {chain} at {count} of {len(traces)} points")
    hol = report.get("holonomy")
    if hol:
        for h in ([hol] if isinstance(hol, dict) else hol):
            lines.append(f"  holonomy[{h['loop']}]: defect {h['defect']:.2e}")
    gv = report.get("global_verdict")
    if gv:
        lines.append(f"  global status: {gv['status']} "
                     f"(rank_wm {gv['rank_wm']}, "
                     f"wtilde rank {gv['wtilde_rank']})")
        if gv.get("phi_periods"):
            lines.append(f"  phi periods: {gv['phi_periods']['periods']}")
        for n in gv.get("notes", []):
            lines.append(f"  note: {n}")
    fb = report.get("flat_bundle")
    if fb:
        lines.append(f"  flat bundle: rank {fb['wtilde_rank']}, fixed "
                     f"{fb['fixed_dim']}, parallel frame "
                     f"{fb['parallel_frame']}")
    for c in report.get("caveats", []):
        lines.append(f"  caveat: {c}")
    return "\n".join(lines) + "\n"


def _write_report(pieces: tuple, out_path: str, fmt: str):
    with open(out_path, "wb") as fh:
        fh.writelines(pieces)
    if fmt == "text":
        # the summary reads the report as written, in plain JSON values
        sys.stdout.write(_format_text(json.loads(b"".join(pieces))))
    else:
        print(f"report written to {out_path}")


def _parse_point(text: str, man: Manifest):
    # trailing coordinates may be omitted; they fall back to the base point
    parts = [float(v) for v in text.split(",") if v.strip()]
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
        overrides[name] = float(value)
    return overrides


def run(command: str, manifest_path: str, args) -> int:
    """Dispatch one command; returns the process exit code."""
    overrides = _apply_cli_overrides(args)
    man = load_manifest(manifest_path, overrides)
    if args.steps is not None:
        man.steps = {"rk4": int(args.steps), "quadrature": int(args.steps)}

    if command == "flag":
        # the one-node grid at the point: its flag as derived_flag gives it
        point = _parse_point(args.point, man)
        scan = regularity_scan(man.spec, point[:, None],
                               rank_tol=man.tolerances["rank_tol"])
        report = {
            "tool_version": __version__, "command": "flag",
            "manifest_id": man.id, "manifest_digest": man.digest(),
            "flag_trace": _flag_rows(scan).record(0),
            "caveats": [CHART_ONLY_CAVEAT],
        }
        _write_report(_finalize(report), args.out, args.format)
        return 0

    if command == "holonomy":
        loop = next((l for l in man.loops if l.name == args.loop), None)
        if loop is None:
            print(f"no loop named {args.loop!r} in manifest", file=sys.stderr)
            return 1
        an = Analysis(man.spec, man.base_point, [loop], man.grid_axes,
                      **man.pipeline_options())
        try:
            h, = an.holonomies
        except IrregularPoint as exc:
            print(f"irregular base point: {exc}", file=sys.stderr)
            return 2
        except DefectTooLarge as exc:
            print(f"holonomy defect too large: {exc}", file=sys.stderr)
            return 2
        report = {
            "tool_version": __version__, "command": "holonomy",
            "manifest_id": man.id, "manifest_digest": man.digest(),
            "holonomy": dict(_holonomy_dict(h),
                             wtilde_rank=an.base_trace.terminal.dim),
            "caveats": [CHART_ONLY_CAVEAT],
        }
        _write_report(_finalize(report), args.out, args.format)
        return 0

    _, pieces, code = build_report(man, command)
    _write_report(pieces, args.out, args.format)
    return code


def _run_corpus(args) -> int:
    from .corpus import get_entry, run_entry
    try:
        entry = get_entry(args.id)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 1
    checks, _ = run_entry(entry)
    all_ok = True
    for c in checks:
        mark = "PASS" if c.ok else "FAIL"
        print(f"{mark} {entry.id}.{c.name}: {c.detail}")
        all_ok = all_ok and c.ok
    return 0 if all_ok else 1


def main(argv=None) -> int:
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
    p_hol = sub.add_parser("holonomy", help="holonomy of one declared loop")
    common(p_hol)
    p_hol.add_argument("--loop", required=True, help="loop name")
    common(sub.add_parser("global", help="global metricity verdict"))
    p_cor = sub.add_parser("corpus", help="run a built-in golden entry")
    p_cor.add_argument("--id", required=True, help="corpus entry id")
    p_cor.add_argument("--param", action="append", metavar="NAME=VALUE")

    args = parser.parse_args(argv)
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
