"""Built-in corpus: machine-readable chart connections with golden expected
values used by the acceptance suite and the ``corpus`` command.

Each entry bundles a manifest with an ``expected`` block whose every leaf
carries its provenance tag in-file.  :func:`run_entry` executes exactly the
checks present in that block and reports one pass/fail result per check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Optional

import numpy as np

from ..bundle import ConnectionSpec
from ..expr import compile_expr, parse_expr
from ..flag import principal_angles
from ..globalmetric import Analysis
from ..manifest import Manifest, ManifestError, manifest_from_dict
from ..transport import parallel_extend, transport

__all__ = ["CorpusEntry", "CheckResult", "load_corpus", "get_entry",
           "run_entry", "ENTRY_IDS"]

ENTRY_IDS = ("sphere", "s1-line-bundle", "punctured-plane",
             "smooth-pathology", "flat-trivial", "dtheta-obstruction")


@dataclass
class CorpusEntry:
    id: str
    manifest_doc: dict
    expected: dict

    def manifest(self, overrides: Optional[dict] = None) -> Manifest:
        doc = json.loads(json.dumps(self.manifest_doc))
        if overrides:
            doc.setdefault("params", {}).update(overrides)
        return manifest_from_dict(doc)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


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


def _eval_vectors(spec: ConnectionSpec, exprs, point):
    """Evaluate a list of fiber coefficient expressions at a point."""
    env = spec.domain.env(np.asarray(point, dtype=float), spec.params)
    out = []
    for row in exprs:
        out.append([float(np.asarray(compile_expr(parse_expr(t))(env)).ravel()[0])
                    for t in row])
    return np.array(out).T  # columns are the declared vectors


def _analysis(man: Manifest) -> Analysis:
    return Analysis(man.spec, man.base_point, man.loops, man.grid_axes,
                    **man.pipeline_options())


def run_entry(entry: CorpusEntry, overrides: Optional[dict] = None):
    """Run the pipeline on one entry and compare against its goldens.

    Each check reads the stage it needs from one staged analysis, so no
    stage runs twice and stages no check needs do not run at all.
    """
    man = entry.manifest(overrides)
    spec, steps = man.spec, man.steps
    an = _analysis(man)
    exp = entry.expected
    checks = []

    def record(name, ok, detail=""):
        checks.append(CheckResult(name, bool(ok), detail))

    if "regular" in exp:
        record("regular", an.scan.regular_on_grid == exp["regular"]["value"],
               f"regular_on_grid={an.scan.regular_on_grid}")
    if "terminal_dims" in exp:
        want = exp["terminal_dims"]["value"]
        if isinstance(want, list):
            ok = an.scan.dims == want
        else:
            ok = all(d == want for d in an.scan.dims)
        record("terminal_dims", ok, f"dims={an.scan.dims}")
    if "jumps_straddle" in exp:
        straddled = []
        for target in exp["jumps_straddle"]["value"]:
            hit = any(pa[0] < target < pb[0] or pb[0] < target < pa[0]
                      for pa, pb, _, _ in an.scan.jumps)
            straddled.append(hit)
        record("jumps_straddle", all(straddled),
               f"jumps={[(a[0], b[0]) for a, b, _, _ in an.scan.jumps]}")

    if "base_trace_dims" in exp:
        tr = an.base_trace
        record("base_trace_dims", tr.dims == exp["base_trace_dims"]["value"],
               f"dims={tr.dims}")

    if "terminal_direction" in exp:
        tr = an.base_trace
        want = _eval_vectors(spec, [exp["terminal_direction"]["value"]],
                             man.base_point)
        want /= np.linalg.norm(want)
        ang = principal_angles(tr.terminal.basis, want).max()
        record("terminal_direction", ang < exp["terminal_direction"]["tol"],
               f"principal angle {ang:.2e}")

    if "local_metric_all" in exp:
        if spec.kind != "christoffel":
            record("local_metric_all", False, "not a Sym^2 bundle")
        else:
            verdicts = [lm.status == "feasible" for lm in an.local]
            record("local_metric_all",
                   all(verdicts) == exp["local_metric_all"]["value"],
                   f"true at {sum(verdicts)}/{len(verdicts)} points")

    if "holonomy" in exp:
        for want in exp["holonomy"]:
            h = next(x for x in an.holonomies if x.loop_name == want["loop"])
            H = h.matrix
            if "basis" in want:
                C = _eval_vectors(spec, want["basis"], man.base_point)
                S = an.base_trace.terminal.basis.T @ C
                H = np.linalg.solve(S, H @ S)
            err = np.abs(H - np.array(want["matrix"])).max()
            record(f"holonomy[{want['loop']}]", err < want["tol"],
                   f"entry err {err:.2e}, defect {h.defect:.2e}")

    if "fixed_dim" in exp or "fixed_direction" in exp or "parallel_frame" in exp:
        fixed, terminal = an.fixed, an.base_trace.terminal
        if "fixed_dim" in exp:
            record("fixed_dim", fixed.dim == exp["fixed_dim"]["value"],
                   f"dim={fixed.dim}")
        if "fixed_direction" in exp:
            fiber = terminal.basis @ fixed.basis
            want = _eval_vectors(spec, [exp["fixed_direction"]["value"]],
                                 man.base_point)
            want /= np.linalg.norm(want)
            ang = principal_angles(fiber, want).max()
            record("fixed_direction", ang < exp["fixed_direction"]["tol"],
                   f"principal angle {ang:.2e}")
        if "parallel_frame" in exp:
            has_frame = fixed.dim == terminal.dim
            record("parallel_frame",
                   has_frame == exp["parallel_frame"]["value"],
                   f"fixed {fixed.dim} of {terminal.dim}")

    if "loop_transport" in exp:
        want = exp["loop_transport"]
        loop = next(l for l in man.loops if l.name == want["loop"])
        res = transport(spec, loop, np.array(want["v0"], dtype=float),
                        want.get("steps", steps["rk4"]))
        target = np.array(want["value"], dtype=float)
        rel = np.abs(res.final - target).max() / np.abs(target).max()
        record("loop_transport", rel < want["rel_tol"], f"rel err {rel:.2e}")

    if "parallel_sections" in exp:
        ps = exp["parallel_sections"]
        ok, worst, count = True, 0.0, 0
        for row in ps["formulas"]:
            w = _eval_vectors(spec, [row], man.base_point)[:, 0]
            sec = parallel_extend(spec, man.base_point, w, ps["radius"],
                                  ps["grid_res"], steps=512)
            count = len(sec.nodes)
            for q, v in zip(sec.nodes, sec.values):
                want_v = _eval_vectors(spec, [row], q)[:, 0]
                rel = np.abs(v - want_v).max() / max(1.0, np.abs(want_v).max())
                worst = max(worst, rel)
                ok = ok and rel < ps["rel_tol"]
        ok = ok and count >= ps.get("min_nodes", 1)
        record("parallel_sections", ok,
               f"{count} nodes, worst rel err {worst:.2e}")

    verdict = None
    needs_global = any(k in exp for k in ("status", "rank_wm",
                                          "phi_period_max", "phi_periods"))
    if needs_global and spec.kind == "christoffel":
        verdict = an.verdict
        if "status" in exp:
            record("status", verdict.status == exp["status"]["value"],
                   f"status={verdict.status}")
        if "rank_wm" in exp:
            record("rank_wm", verdict.rank_wm == exp["rank_wm"]["value"],
                   f"rank_wm={verdict.rank_wm}")
        if "phi_period_max" in exp and verdict.phi is not None:
            got = verdict.phi.max_abs()
            record("phi_period_max", got < exp["phi_period_max"]["tol"],
                   f"max |period| = {got:.2e}")
        elif "phi_period_max" in exp:
            record("phi_period_max", False, "no periods computed")
        if "phi_periods" in exp:
            for want in exp["phi_periods"]:
                loop = next(l for l in man.loops if l.name == want["loop"])
                ptol = want.get("tol", 1e-4 * (1.0 + loop.length()))
                if verdict.phi is None:
                    record(f"phi_period[{want['loop']}]", False,
                           "no periods computed")
                    continue
                got = verdict.phi.periods[verdict.phi.loop_names.index(want["loop"])]
                record(f"phi_period[{want['loop']}]",
                       abs(got - want["value"]) < ptol,
                       f"period {got:.6f} vs {want['value']:.6f}")

    if "controls" in exp:
        for i, ctrl in enumerate(exp["controls"]):
            man2 = entry.manifest({**(overrides or {}), **ctrl["params"]})
            fixed2 = _analysis(man2).fixed
            record(f"control[{i}]", fixed2.dim == ctrl["fixed_dim"],
                   f"params {ctrl['params']}: fixed dim {fixed2.dim}")

    return checks, verdict
