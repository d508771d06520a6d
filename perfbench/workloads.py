"""Benchmark workloads: seeded manifests and the checks on their reports.

Each workload is a list of ``Job``s: one manifest file for ``paracon analyze``
plus a ``check(report, exit_code)`` that returns a list of problems (empty when
the report is right).  ``corpus`` is fixed; the three scaled workloads draw
from the seed only properties whose verdict is known in closed form (grid
offsets inside the chart, the cone parameter k with 2k not an integer, loop
radii), so every check below is computed from the seed, not read back from a
previous run.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi
# closed-form directions are compared by principal angle
ANGLE_TOL = 1e-6
HOLONOMY_TOL = 1e-6


@dataclass
class Job:
    name: str
    manifest_path: str
    check: Callable[[dict, int], list]


def _corpus_dir(root):
    return os.path.join(root, "src", "paracon", "corpus", "data")


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_manifest(out_dir, name, doc):
    path = os.path.join(out_dir, f"{name}.manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return path


def _num(x):
    """Expression text for a float that parses back to the same value."""
    return repr(float(x))


def _angle(basis, want):
    """Largest principal angle between span(basis) and span(want)."""
    a, _ = np.linalg.qr(np.asarray(basis, dtype=float))
    b, _ = np.linalg.qr(np.asarray(want, dtype=float))
    cos = np.linalg.svd(a.T @ b, compute_uv=False)
    return float(np.arccos(np.clip(cos.min(), -1.0, 1.0)))


def _expect(problems, label, got, want):
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# corpus: the six built-in entries, each checked against its expected block


def _corpus_check(exp):
    def check(report, code):
        problems = []
        _expect(problems, "exit_code", code, exp["exit_code"]["value"])
        reg = report["regularity"]
        if "regular" in exp:
            _expect(problems, "regular", reg["regular_on_grid"],
                    exp["regular"]["value"])
        if "terminal_dims" in exp:
            want = exp["terminal_dims"]["value"]
            if not isinstance(want, list):
                want = [want] * len(reg["dims"])
            _expect(problems, "terminal_dims", reg["dims"], want)
        if "jumps_straddle" in exp:
            for target in exp["jumps_straddle"]["value"]:
                if not any(min(j["from"][0], j["to"][0]) < target
                           < max(j["from"][0], j["to"][0])
                           for j in reg["jumps"]):
                    problems.append(f"no jump straddles x = {target}")
        if "local_metric_all" in exp:
            local = report["local_metricity"]
            got = all(e["locally_metric"] for e in local)
            _expect(problems, "local_metric_all", got,
                    exp["local_metric_all"]["value"])
        gv = report.get("global_verdict")
        fb = report.get("flat_bundle")
        if "status" in exp:
            _expect(problems, "status", gv and gv["status"],
                    exp["status"]["value"])
        if "rank_wm" in exp:
            _expect(problems, "rank_wm", gv and gv["rank_wm"],
                    exp["rank_wm"]["value"])
        if "fixed_dim" in exp:
            got = gv["fixed_dim"] if gv is not None else fb and fb["fixed_dim"]
            _expect(problems, "fixed_dim", got, exp["fixed_dim"]["value"])
        if "parallel_frame" in exp:
            _expect(problems, "parallel_frame", fb and fb["parallel_frame"],
                    exp["parallel_frame"]["value"])
        if "phi_period_max" in exp or "phi_periods" in exp:
            pp = gv and gv.get("phi_periods")
            if not pp:
                problems.append("no Phi periods in the report")
                return problems
            periods = dict(zip(pp["loops"], pp["periods"]))
            tols = dict(zip(pp["loops"], pp["period_tols"]))
            if "phi_period_max" in exp:
                worst = max(abs(p) for p in periods.values())
                if not worst < exp["phi_period_max"]["tol"]:
                    problems.append(f"max |period| {worst:.3e}")
            for want in exp.get("phi_periods", []):
                got = periods.get(want["loop"])
                tol = want.get("tol", tols.get(want["loop"]))
                if got is None or not abs(got - want["value"]) < tol:
                    problems.append(f"period[{want['loop']}] = {got}, "
                                    f"expected {want['value']} +- {tol}")
        return problems

    return check


def corpus_jobs(root, out_dir, seed):
    del out_dir, seed  # fixed inputs, read in place
    from paracon.corpus import ENTRY_IDS
    jobs = []
    for eid in ENTRY_IDS:
        path = os.path.join(_corpus_dir(root), f"{eid}.json")
        expected = _read_json(path)["expected"]
        jobs.append(Job(eid, path, _corpus_check(expected)))
    return jobs


# ---------------------------------------------------------------------------
# fine-grid: the sphere chart on a seeded 30 x 30 grid without loops


def _grid_checks(problems, report, axes, dims, terminal_dim):
    reg = report["regularity"]
    _expect(problems, "grid_axes", reg["grid_axes"], axes)
    _expect(problems, "regular_on_grid", reg["regular_on_grid"], True)
    npts = int(np.prod([len(a) for a in axes]))
    _expect(problems, "terminal dims", reg["dims"], [terminal_dim] * npts)
    _expect(problems, "jumps", reg["jumps"], [])
    traces = report["flag_traces"]
    _expect(problems, "flag trace count", len(traces), npts)
    bad = [t["point"] for t in traces if t.get("dims") != dims]
    if bad:
        problems.append(f"flag dims differ from {dims} at {bad[:3]}")
    return traces


def fine_grid_jobs(root, out_dir, seed):
    rng = random.Random(f"fine-grid:{seed}")
    doc = _read_json(os.path.join(_corpus_dir(root), "sphere.json"))
    for key in ("expected", "title", "notes"):
        doc.pop(key, None)
    doc["id"] = f"fine-grid-{seed}"
    doc["loops"] = []
    # the [30, 30] count grid of the chart (10% inset), shifted by the seed;
    # theta stays at least 0.14 from the poles, phi is periodic
    lo, hi = doc["coords"][0]["range"]
    span = hi - lo
    dtheta = rng.uniform(-0.15, 0.15)
    dphi = rng.uniform(-0.3, 0.3)
    theta = np.linspace(lo + 0.1 * span, hi - 0.1 * span, 30) + dtheta
    phi = np.linspace(0.1 * TWO_PI, 0.9 * TWO_PI, 30) + dphi
    axes = [[float(v) for v in theta], [float(v) for v in phi]]
    doc["grid"] = {"values": axes}
    path = _write_manifest(out_dir, "fine-grid", doc)

    def check(report, code):
        problems = []
        _expect(problems, "exit_code", code, 0)
        traces = _grid_checks(problems, report, axes, [1, 1], 1)
        # the terminal line is spanned by X1 + sin(theta)^2 X2
        for t in traces:
            s2 = math.sin(t["point"][0]) ** 2
            ang = _angle(t["terminal_basis"], [[1.0], [s2], [0.0]])
            if not ang < ANGLE_TOL:
                problems.append(f"terminal direction off by {ang:.2e} "
                                f"at {t['point']}")
                break
        local = report["local_metricity"]
        if len(local) != len(traces) or any(
                e["status"] != "feasible" or e["locally_metric"] is not True
                for e in local):
            problems.append("not every grid point is locally metric")
        gv = report["global_verdict"]
        for key, want in (("status", "metric"), ("wtilde_rank", 1),
                          ("fixed_dim", 1), ("rank_wm", 1)):
            _expect(problems, key, gv[key], want)
        _expect(problems, "holonomy", report["holonomy"], [])
        return problems

    return [Job("fine-grid", path, check)]


# ---------------------------------------------------------------------------
# deep-flag: an N = 5 matrix connection whose flag is [4, 3, 2, 2]
#
# Omega_x = exp(y) E_14 and Omega_y = y (E_23 + E_40 + E_03).  The curvature
# kernel is {v4 = y v0}; the second fundamental forms cut it to
# {(1 + y) v0 = y^2 v3} and then, for y != 0, to span(e1, e2), which every
# Omega_k annihilates.  So for y > 0 the flag is [4, 3, 2, 2], the terminal
# bundle is a flat trivial frame and every holonomy is the identity.


def deep_flag_jobs(root, out_dir, seed):
    del root
    rng = random.Random(f"deep-flag:{seed}")
    N = 5
    omega = [[["0", "0"] for _ in range(N)] for _ in range(N)]
    omega[1][4] = ["exp(y)", "0"]
    for i, j in ((2, 3), (4, 0), (0, 3)):
        omega[i][j] = ["0", "y"]
    dx = rng.uniform(-0.2, 0.2)
    dy = rng.uniform(0.0, 0.3)  # keeps y > 0, away from the jump at y = 0
    radius = rng.uniform(0.3, 0.6)
    axes = [[0.2 + dx, 0.5 + dx, 0.8 + dx],
            [0.1 + dy, 0.4 + dy, 0.7 + dy, 1.0 + dy]]
    base = [0.3, 0.1]
    x0, y0, r = _num(base[0] - radius), _num(base[1]), _num(radius)
    doc = {
        "id": f"deep-flag-{seed}",
        "coords": [{"name": "x", "range": [-2.0, 2.0]},
                   {"name": "y", "range": [-2.0, 2.0]}],
        "connection": {"kind": "matrix", "fiber_dim": N, "omega": omega},
        "base_point": base,
        # a circle of the seeded radius through the base point
        "loops": [{"name": "circle",
                   "exprs": [f"{x0} + {r}*cos(t)", f"{y0} + {r}*sin(t)"],
                   "t_range": [0.0, TWO_PI]}],
        "grid": {"values": axes},
    }
    path = _write_manifest(out_dir, "deep-flag", doc)
    frame = np.zeros((N, 2))
    frame[1, 0] = frame[2, 1] = 1.0

    def check(report, code):
        problems = []
        _expect(problems, "exit_code", code, 0)
        traces = _grid_checks(problems, report, axes, [4, 3, 2, 2], 2)
        for t in traces:
            ang = _angle(t["terminal_basis"], frame)
            if not ang < ANGLE_TOL:
                problems.append(f"terminal space off span(e1, e2) by "
                                f"{ang:.2e} at {t['point']}")
                break
        _expect(problems, "local_metricity", report["local_metricity"], None)
        _expect(problems, "global_verdict", report["global_verdict"], None)
        hol = report["holonomy"] or []
        _expect(problems, "holonomy loops", [h["loop"] for h in hol],
                ["circle"])
        for h in hol:
            err = np.abs(np.array(h["matrix"]) - np.eye(2)).max()
            if not err < HOLONOMY_TOL:
                problems.append(f"holonomy[{h['loop']}] differs from I by "
                                f"{err:.2e}")
        fb = report["flat_bundle"] or {}
        for key, want in (("wtilde_rank", 2), ("fixed_dim", 2),
                          ("parallel_frame", True)):
            _expect(problems, f"flat_bundle.{key}", fb.get(key), want)
        return problems

    return [Job("deep-flag", path, check)]


# ---------------------------------------------------------------------------
# loops-3d: cone x line, dr^2 + k^2 r^2 dtheta^2 + dz^2, with three loops
#
# The connection is flat.  A loop winding once around the axis has holonomy
# rotation by 2 pi k on the (r, theta) plane, so on Sym^2 its eigenvalues are
# 1, 1, exp(+-2 pi i k) and exp(+-4 pi i k); a loop that does not wind has
# the identity.  With 2k not an integer the fixed space is span(dr^2 +
# k^2 r^2 dtheta^2, dz^2): fixed dim 2, and it holds a positive-definite form.


def _eigen_angles(matrix):
    ev = np.linalg.eigvals(np.asarray(matrix, dtype=float))
    return np.sort(np.abs(np.angle(ev)))


def loops_3d_jobs(root, out_dir, seed):
    del root
    rng = random.Random(f"loops-3d:{seed}")
    k = rng.uniform(0.2, 0.4)
    rho = rng.uniform(0.2, 0.35)   # r-z circle; r stays >= 1 - 2 rho > 0.2
    amp_r = rng.uniform(0.2, 0.45)
    amp_z = rng.uniform(0.2, 0.5)
    doc = {
        "id": f"loops-3d-{seed}",
        "coords": [{"name": "r", "range": [0.2, 3.0]},
                   {"name": "theta", "range": [0.0, TWO_PI], "period": TWO_PI},
                   {"name": "z", "range": [-1.0, 1.0]}],
        "params": {"k": k},
        "connection": {"kind": "christoffel", "gamma": {
            "r": {"theta,theta": "-k^2*r"},
            "theta": {"r,theta": "1/r", "theta,r": "1/r"}}},
        "excluded": ["r"],
        "base_point": [1.0, 0.0, 0.0],
        "loops": [
            {"name": "axis", "exprs": ["1", "t", "0"],
             "t_range": [0.0, TWO_PI]},
            {"name": "rz-circle",
             "exprs": [f"{_num(1.0 - rho)} + {_num(rho)}*cos(t)", "0",
                       f"{_num(rho)}*sin(t)"],
             "t_range": [0.0, TWO_PI]},
            {"name": "winding",
             "exprs": [f"1 + {_num(amp_r)}*sin(t)", "t",
                       f"{_num(amp_z)}*sin(2*t)"],
             "t_range": [0.0, TWO_PI]},
        ],
        "grid": {"counts": [4, 4, 3]},
        "steps": {"rk4": 16384},
    }
    path = _write_manifest(out_dir, "loops-3d", doc)
    a = TWO_PI * k
    winding = np.sort(np.abs(np.angle(np.exp(
        1j * np.array([0.0, 0.0, a, -a, 2 * a, -2 * a])))))
    want_angles = {"axis": winding, "rz-circle": np.zeros(6),
                   "winding": winding}

    def check(report, code):
        problems = []
        _expect(problems, "exit_code", code, 0)
        reg = report["regularity"]
        _expect(problems, "regular_on_grid", reg["regular_on_grid"], True)
        _expect(problems, "terminal dims", reg["dims"], [6] * 48)
        if any(t.get("dims") != [6] for t in report["flag_traces"]):
            problems.append("flag dims differ from [6]")
        local = report["local_metricity"]
        if len(local) != 48 or any(e["status"] != "feasible" for e in local):
            problems.append("not every grid point is locally metric")
        hol = report["holonomy"] or []
        _expect(problems, "holonomy loops", [h["loop"] for h in hol],
                list(want_angles))
        for h in hol:
            err = np.abs(_eigen_angles(h["matrix"])
                         - want_angles[h["loop"]]).max()
            if not err < HOLONOMY_TOL:
                problems.append(f"holonomy[{h['loop']}] spectrum off by "
                                f"{err:.2e}")
        gv = report["global_verdict"]
        for key, want in (("status", "metric"), ("wtilde_rank", 6),
                          ("fixed_dim", 2), ("rank_wm", 2)):
            _expect(problems, key, gv[key], want)
        return problems

    return [Job("loops-3d", path, check)]


WORKLOADS = {
    "corpus": corpus_jobs,
    "fine-grid": fine_grid_jobs,
    "deep-flag": deep_flag_jobs,
    "loops-3d": loops_3d_jobs,
}
