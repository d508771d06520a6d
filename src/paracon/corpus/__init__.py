"""Built-in corpus: machine-readable chart connections with golden expected
values used by the acceptance suite and the ``corpus`` command.

Each entry bundles a manifest with an ``expected`` block whose every leaf
carries its provenance tag in-file.  :func:`run_entry` executes exactly the
checks present in that block and reports one pass/fail result per check;
:func:`check_report` reads those an ``analyze`` report answers from the
report itself, and only the transport checks run outside it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Optional

import numpy as np

from ..bundle import ConnectionSpec
from ..cli import build_report, exit_code
from ..expr import compile_expr, parse_expr
from ..flag import principal_angles
from ..manifest import Manifest, ManifestError, manifest_from_dict, with_params
from ..transport import parallel_extend, transport

__all__ = ["CorpusEntry", "CheckResult", "load_corpus", "get_entry",
           "check_report", "run_entry", "ENTRY_IDS"]

ENTRY_IDS = ("sphere", "s1-line-bundle", "punctured-plane",
             "smooth-pathology", "flat-trivial", "dtheta-obstruction")


@dataclass
class CorpusEntry:
    id: str
    manifest_doc: dict
    expected: dict

    def manifest(self, overrides: Optional[dict] = None) -> Manifest:
        return manifest_from_dict(with_params(self.manifest_doc, overrides))


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def load_corpus():
    """All built-in entries; raises on a corrupted corpus file."""
    entries = []
    for eid in ENTRY_IDS:
        text = resources.files(__package__).joinpath(f"data/{eid}.json").read_text(
            encoding="utf-8")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"/{eid}", f"corrupted corpus file: {exc}") from None
        if doc.get("id") != eid:
            raise ManifestError(f"/{eid}/id", "corpus id mismatch")
        expected = doc.get("expected", {})
        entries.append(CorpusEntry(eid, doc, expected))
    return entries


def get_entry(entry_id: str) -> CorpusEntry:
    for e in load_corpus():
        if e.id == entry_id:
            return e
    raise KeyError(f"no corpus entry {entry_id!r}")


def _vectors(spec: ConnectionSpec, rows):
    """The fiber vectors that rows of coefficient expressions declare,
    compiled once, as a function of an (m, n) batch of points or one point;
    shape (m, N, len(rows)), the vectors as columns."""
    tape = compile_expr([parse_expr(t) for row in rows for t in row])

    def at(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vals = [np.broadcast_to(v, len(pts))
                for v in tape(spec.domain.env(pts, spec.params))]
        return np.array(vals, dtype=float).reshape(len(rows), -1, len(pts)).T
    return at


def _angle(man: Manifest, basis, row) -> float:
    """The largest principal angle between the span of a report's ``basis``
    and the fiber vector that the coefficient expressions ``row`` declare at
    the base point; pi/2 when the span is missing or zero."""
    if not basis or not basis[0]:
        return np.pi / 2
    want = _vectors(man.spec, [row])(man.base_point)[0]
    return principal_angles(np.array(basis, dtype=float),
                            want / np.linalg.norm(want)).max()


def _report(man: Manifest) -> dict:
    """The ``analyze`` report of ``man`` as written, parsed."""
    return json.loads(b"".join(build_report(man, man.analysis())[1]))


def check_report(expected: dict, report: dict, exit_code: int,
                 man: Manifest) -> list:
    """The checks of the goldens in ``expected`` that an ``analyze`` report
    answers, read from the report as written (its canonical JSON, parsed)
    and from its exit code.  The goldens' fiber-vector formulas are evaluated
    at ``man``'s base point."""
    exp, checks = expected, []

    def record(name, ok, detail):
        checks.append(CheckResult(name, bool(ok), detail))

    reg = report["regularity"]
    if "regular" in exp:
        record("regular", reg["regular_on_grid"] == exp["regular"]["value"],
               f"regular_on_grid={reg['regular_on_grid']}")
    if "terminal_dims" in exp:
        want = exp["terminal_dims"]["value"]
        if not isinstance(want, list):
            want = [want] * len(reg["dims"])
        record("terminal_dims", reg["dims"] == want, f"dims={reg['dims']}")
    if "jumps_straddle" in exp:
        spans = [sorted((j["from"][0], j["to"][0])) for j in reg["jumps"]]
        record("jumps_straddle",
               all(any(a < x < b for a, b in spans)
                   for x in exp["jumps_straddle"]["value"]),
               f"jumps={spans}")
    if "local_metric_all" in exp:
        # an abstract bundle's report decides local metricity at no point
        flags = [r["locally_metric"] for r in report["local_metricity"] or []]
        record("local_metric_all",
               flags and all(flags) == exp["local_metric_all"]["value"],
               f"true at {sum(flags)}/{len(flags)} points")

    # the fixed subspace is the Sym^2 verdict's, or the flat bundle's
    gv = report["global_verdict"] or {}
    fb = report.get("flat_bundle") or {}
    fixed = gv or fb
    if "fixed_dim" in exp:
        got = fixed.get("fixed_dim")
        record("fixed_dim", got == exp["fixed_dim"]["value"], f"dim={got}")
    base = report["base_flag"] or {}
    fixed_basis = fixed.get("fixed_fiber_basis", fixed.get("fixed_basis"))
    for key, basis in (("fixed_direction", fixed_basis),
                       ("terminal_direction", base.get("terminal_basis"))):
        if key in exp:
            ang = _angle(man, basis, exp[key]["value"])
            record(key, ang < exp[key]["tol"], f"principal angle {ang:.2e}")
    for key, got in (("base_trace_dims", base.get("dims")),
                     ("parallel_frame", fb.get("parallel_frame")),
                     ("status", gv.get("status")),
                     ("rank_wm", gv.get("rank_wm")),
                     ("exit_code", exit_code)):
        if key in exp:
            record(key, got == exp[key]["value"], f"{key}={got}")

    # a period the report lacks reads as NaN, which meets no tolerance
    pp = gv.get("phi_periods")
    periods = (dict(zip(pp["loops"], zip(pp["periods"], pp["period_tols"])))
               if pp else {})
    if "phi_period_max" in exp:
        got = max((abs(p) for p, _ in periods.values()), default=math.nan)
        record("phi_period_max", got < exp["phi_period_max"]["tol"],
               f"max |period| = {got:.2e}")
    for want in exp.get("phi_periods", []):
        got, tol = periods.get(want["loop"], (math.nan, 0.0))
        record(f"phi_period[{want['loop']}]",
               abs(got - want["value"]) < want.get("tol", tol),
               f"period {got:.6f} vs {want['value']:.6f}")

    # a matrix is in the base point's terminal basis, a golden in ``basis``
    hols = {h["loop"]: h for h in report["holonomy"] or []}
    for want in exp.get("holonomy", []):
        h, err = hols.get(want["loop"], {"defect": math.nan}), math.nan
        if "matrix" in h and base:
            H = np.array(h["matrix"], dtype=float)
            if "basis" in want:
                C = _vectors(man.spec, want["basis"])(man.base_point)[0]
                S = np.array(base["terminal_basis"], dtype=float).T @ C
                H = np.linalg.solve(S, H @ S)
            err = np.abs(H - np.array(want["matrix"])).max()
        record(f"holonomy[{want['loop']}]", err < want["tol"],
               f"entry err {err:.2e}, defect {h['defect']:.2e}")
    return checks


def run_entry(entry: CorpusEntry) -> list:
    """Run ``analyze`` on one entry and compare against its goldens, one
    check or more per key of the ``expected`` block.

    The goldens a report answers, the controls' too, are read from the
    report as written, by :func:`check_report`; only the transport checks
    ``loop_transport`` and ``parallel_sections`` run outside it.
    """
    man = entry.manifest()
    spec, steps = man.spec, man.steps
    report = _report(man)
    exp = entry.expected
    checks = check_report(exp, report, exit_code(report), man)

    def record(name, ok, detail):
        checks.append(CheckResult(name, bool(ok), detail))

    if "loop_transport" in exp:
        want = exp["loop_transport"]
        loop = next(l for l in man.loops if l.name == want["loop"])
        res = transport(spec, loop, np.array(want["v0"], dtype=float),
                        want.get("steps", steps["rk4"]))
        target = np.array(want["value"], dtype=float)
        rel = np.abs(res - target).max() / np.abs(target).max()
        record("loop_transport", rel < want["rel_tol"], f"rel err {rel:.2e}")

    if "parallel_sections" in exp:
        ps = exp["parallel_sections"]
        ok, worst, count = True, 0.0, 0
        for row in ps["formulas"]:
            section = _vectors(spec, [row])
            w = section(man.base_point)[0, :, 0]
            nodes, values = parallel_extend(spec, man.base_point, w,
                                            ps["radius"], ps["grid_res"],
                                            steps=512)
            count = len(nodes)
            want_v = section(nodes)[:, :, 0]
            rel = (np.abs(values - want_v).max(axis=1)
                   / np.maximum(1.0, np.abs(want_v).max(axis=1)))
            worst = max(worst, rel.max(initial=0.0))
            ok = ok and bool(np.all(rel < ps["rel_tol"]))
        ok = ok and count >= ps.get("min_nodes", 1)
        record("parallel_sections", ok,
               f"{count} nodes, worst rel err {worst:.2e}")

    for i, ctrl in enumerate(exp.get("controls", [])):
        rep = _report(entry.manifest(ctrl["params"]))
        got = (rep["global_verdict"] or rep["flat_bundle"] or {}).get(
            "fixed_dim")
        record(f"control[{i}]", got == ctrl["fixed_dim"],
               f"params {ctrl['params']}: fixed dim {got}")
    return checks
