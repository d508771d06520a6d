"""Reference implementations the tests compare the library against: a scalar
expression evaluator, independent of the compiled tape, curve reversal, the
per-pair Leibniz loops of the covariant curvature stack, a tracked unit
section of a rank-one terminal line, the gauge shift d log f of a rescaled
section, a straight coordinate segment, the two-leg path check of a sampled
parallel section, the PD start screen in two groups and the text summary of
a report read back from its JSON.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from paracon.bundle import (Jet, PointOutsideDomain, _leibniz,
                            _multi_indices, _up, curvature_pairs)
from paracon.expr import (Binary, Const, EvalError, Expr, Name, Piecewise,
                          Unary, compile_expr, diff)
from paracon.flag import batch_terminal_bases
from paracon.pdcone import (PDResult, _barrier, _norms, _symmetrized,
                            _trace_units, _try_cholesky)
from paracon.transport import Curve, transport


@dataclass(frozen=True)
class EvalContext:
    """Name bindings for evaluation; every name bound exactly once."""

    variables: dict
    parameters: dict

    def __post_init__(self):
        dup = set(self.variables) & set(self.parameters)
        if dup:
            raise EvalError(f"names bound more than once: {sorted(dup)}")

    def lookup(self, name):
        if name in self.variables:
            return self.variables[name]
        if name in self.parameters:
            return self.parameters[name]
        raise EvalError(f"unbound name '{name}'")


def evaluate(e: Expr, ctx: EvalContext) -> float:
    """Evaluate to an IEEE double, touching exactly one piecewise branch;
    domain failures name the sub-expression."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Name):
        return float(ctx.lookup(e.name))
    if isinstance(e, Unary):
        a = evaluate(e.arg, ctx)
        if e.op == "neg":
            return -a
        if e.op == "sin":
            return math.sin(a)
        if e.op == "cos":
            return math.cos(a)
        if e.op == "tan":
            return math.tan(a)
        if e.op == "exp":
            return math.exp(a)
        if e.op == "log":
            if a <= 0.0:
                raise EvalError(f"log of non-positive value in {e!r}")
            return math.log(a)
        if e.op == "sqrt":
            if a < 0.0:
                raise EvalError(f"sqrt of negative value in {e!r}")
            return math.sqrt(a)
        if e.op == "abs":
            return abs(a)
        raise EvalError(f"unknown unary op {e.op!r}")
    if isinstance(e, Binary):
        a = evaluate(e.left, ctx)
        b = evaluate(e.right, ctx)
        if e.op == "add":
            return a + b
        if e.op == "sub":
            return a - b
        if e.op == "mul":
            return a * b
        if e.op == "div":
            if b == 0.0:
                raise EvalError(f"division by zero in {e!r}")
            return a / b
        if e.op == "pow":
            if a < 0.0 and b != int(b):
                raise EvalError(
                    f"non-integer power of negative base in {e!r}")
            if a == 0.0 and b < 0.0:
                raise EvalError(f"zero raised to negative power in {e!r}")
            return float(a ** b)
        raise EvalError(f"unknown binary op {e.op!r}")
    if isinstance(e, Piecewise):
        lhs = evaluate(e.lhs, ctx)
        rhs = evaluate(e.rhs, ctx)
        taken = {"lt": lhs < rhs, "le": lhs <= rhs,
                 "gt": lhs > rhs, "ge": lhs >= rhs}[e.cmp]
        return evaluate(e.then if taken else e.other, ctx)
    raise TypeError(f"not an Expr: {e!r}")


def reversed_curve(curve: Curve) -> Curve:
    """The curve traversed backwards: t -> t0 + t1 - t."""
    sub = Binary("sub", Const(curve.t0 + curve.t1), Name("t"))
    rev = [_substitute(e, "t", sub) for e in curve.exprs]
    return Curve(curve.domain, rev, curve.t0, curve.t1,
                 name=curve.name + "~rev", params=curve.params)


def _substitute(e: Expr, name: str, replacement: Expr) -> Expr:
    if isinstance(e, Const):
        return e
    if isinstance(e, Name):
        return replacement if e.name == name else e
    if isinstance(e, Unary):
        return Unary(e.op, _substitute(e.arg, name, replacement))
    if isinstance(e, Binary):
        return Binary(e.op, _substitute(e.left, name, replacement),
                      _substitute(e.right, name, replacement))
    if isinstance(e, Piecewise):
        return Piecewise(e.cmp, _substitute(e.lhs, name, replacement),
                         _substitute(e.rhs, name, replacement),
                         _substitute(e.then, name, replacement),
                         _substitute(e.other, name, replacement))
    raise TypeError(f"not an Expr: {e!r}")


def covariant_curvature_stack(spec, points, order: int) -> np.ndarray:
    """nabla^order R over an (m, n) batch, laid out as
    :func:`paracon.bundle.covariant_curvature_stack` returns it, built from a
    fresh jet's partials of Omega by one loop over (alpha, pair, beta) and
    one over (alpha, k, beta).  Every entry takes the same operations in the
    same order as the library's batched tables, so the bits agree."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m, n, N = pts.shape[0], spec.n, spec.N
    pairs = curvature_pairs(n)
    if not pairs:
        return np.zeros((m, n ** order, 0, N, N))
    jet = Jet(spec, pts)
    # d^alpha Omega_k, (m, n_k, N, N), by count vector alpha
    omega = {}
    for o in range(order + 2):
        stack = jet.order(o)
        omega.update((a, stack[:, t])
                     for t, a in enumerate(_multi_indices(n, o)))
    dT = {}  # d^alpha of the current stack, (m, strings, P, N, N)
    for o in range(order + 1):
        for a in _multi_indices(n, o):
            R = np.empty((m, 1, len(pairs), N, N))
            for idx, (i, j) in enumerate(pairs):
                r = omega[_up(a, i)][:, j] - omega[_up(a, j)][:, i]
                for b, rest, c in _leibniz(a):
                    r += c * np.matmul(omega[b][:, i], omega[rest][:, j])
                    r -= c * np.matmul(omega[b][:, j], omega[rest][:, i])
                R[:, 0, idx] = r
            dT[a] = R
    for top in range(order - 1, -1, -1):
        # d^a nabla_k T = d^(a+e_k) T + sum_b C(a, b) [d^b Omega_k, d^(a-b) T]
        nxt = {}
        for a in (a for o in range(top + 1) for a in _multi_indices(n, o)):
            parts = []
            for k in range(n):
                t = dT[_up(a, k)].copy()
                for b, rest, c in _leibniz(a):
                    om = omega[b][:, None, None, k]
                    t += c * (np.matmul(om, dT[rest])
                              - np.matmul(dT[rest], om))
                parts.append(t)
            nxt[a] = np.concatenate(parts, axis=1)
        dT = nxt
    return dT[(0,) * n]


def tracked_sections(spec, base_point, points) -> np.ndarray:
    """Unit sections of a rank-one terminal line at an (m, n) batch of points;
    shape (m, N).  The base point's generator is projected onto each point's
    line, normalized and signed to positive trace (the diagonal pairs are
    the first n fiber slots), so the sections vary smoothly wherever the
    projection and the trace stay away from zero."""
    g = batch_terminal_bases(spec, base_point)[0, :, 0]
    g = g * np.sign(g[:spec.n].sum())
    bases = batch_terminal_bases(spec, points)
    proj = np.einsum("mia,ma->mi", bases, np.einsum("mia,i->ma", bases, g))
    s = proj / np.linalg.norm(proj, axis=1)[:, None]
    return s * np.sign(s[:, :spec.n].sum(axis=1))[:, None]


def log_gradient(spec, f: Expr, points) -> np.ndarray:
    """``d_k f / f`` at an (m, n) batch of points, from the exact derivatives
    of a DSL expression f > 0; shape (m, n).  Rescaling a section s to f s
    adds this to the 1-form of ``nabla s = s (x) Phi``."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    env = spec.domain.env(pts, spec.params)
    value = np.broadcast_to(compile_expr(f)(env), (len(pts),))
    assert np.all(value > 0.0), "a gauge factor must be positive"
    partials = compile_expr([diff(f, x) for x in spec.domain.names])(env)
    return np.stack([np.broadcast_to(d, (len(pts),)) / value
                     for d in partials], axis=1)


def rescaled_period(spec, loop: Curve, samples, f: Expr) -> float:
    """The loop period of the section rescaled by f > 0: the left-endpoint
    sum of ``(samples + d log f) . gamma'`` over the uniform loop nodes that
    ``samples``, an (m, n) array of Phi, were taken at."""
    m = len(samples)
    ts = np.linspace(loop.t0, loop.t1, m, endpoint=False)
    shifted = samples + log_gradient(spec, f, loop.points(ts))
    dt = (loop.t1 - loop.t0) / m
    return float(np.sum(shifted * loop.velocities(ts)) * dt)


def line_curve(domain, start, end, params=None, name="segment"):
    """Straight coordinate segment from start to end, parametrized on [0, 1]."""
    exprs = [Binary("add", Const(float(a)), Binary("mul", Name("t"),
                                                   Const(float(b - a))))
             for a, b in zip(np.asarray(start, dtype=float),
                             np.asarray(end, dtype=float))]
    return Curve(domain, exprs, 0.0, 1.0, name=name, params=params)


def two_leg_residual(spec, point, w, nodes, values, steps: int = 256):
    """The largest disagreement between a sampled parallel section through
    w and the transport of w along an axis-aligned two-leg path, first along
    the first coordinate and then straight to the node, over the six nodes
    farthest from the base point; a node whose corner leaves the domain is
    skipped."""
    p = np.asarray(point, dtype=float)
    residual = 0.0
    for i in np.argsort(-np.linalg.norm(nodes - p, axis=1))[:6]:
        q = nodes[i]
        corner = p.copy()
        corner[0] = q[0]
        try:
            spec.domain.require_admissible(corner, spec.params)
        except PointOutsideDomain:
            continue
        v = np.asarray(w, dtype=float)
        for a, b in ((p, corner), (corner, q)):
            if not np.allclose(a, b, atol=1e-15):
                v = transport(spec, line_curve(spec.domain, a, b,
                                               params=spec.params), v, steps)
        residual = max(residual, float(np.linalg.norm(values[i] - v)))
    return residual


def _two_group_screen(stack, units):
    """The start screen over one group: the rows +-e_a, then +-``units``
    unless it is None."""
    m, d, n, _ = stack.shape
    rows = [np.eye(d), -np.eye(d)]
    if units is not None:
        rows += [units[:, None], -units[:, None]]
    starts = np.concatenate([np.broadcast_to(r, (m,) + r.shape[-2:])
                             for r in rows], axis=1)
    combos = np.einsum("mka,maij->mkij", starts, stack)
    vals = np.linalg.eigvalsh(combos.reshape(-1, n, n))[:, 0]
    return starts, vals.reshape(m, -1)


def two_group_pd_feasible_batch(stack, tol: float = 1e-8) -> list:
    """:func:`paracon.pdcone.pd_feasible_batch` with the live spans screened
    in two groups, each with its own screen, Cholesky and barrier: the spans
    whose unit trace direction u is not exactly +-e_a, with the starts +-e_a
    and +-u, and the rest (u = +-e_a, or traceless) with +-e_a alone."""
    S = _symmetrized(stack)
    m, d, n, _ = S.shape
    out = [None] * m
    finite = np.isfinite(S).all(axis=(1, 2, 3))
    live = finite & (S * S).any(axis=(1, 2, 3))
    for i in np.flatnonzero(~live).tolist():
        out[i] = (PDResult("infeasible_certified", 0.0, witness=np.eye(n) / n)
                  if finite[i] else PDResult("inconclusive", float("nan")))
    idx = np.flatnonzero(live)
    scales = _norms(S[idx].reshape(-1, n * n)).reshape(idx.size, d).max(
        axis=1, initial=0.0)
    units, traced = _trace_units(S[idx])
    traced &= ~((np.count_nonzero(units, axis=1) == 1)
                & (np.abs(units).max(axis=1, initial=0.0) == 1.0))
    for sel, u in ((traced, units[traced]), (~traced, None)):
        part, scale = idx[sel], scales[sel]
        if not part.size:
            continue
        starts, vals = _two_group_screen(S[part], u)
        rows = np.arange(part.size)
        k = np.argmax(vals, axis=1)
        best, best_c = vals[rows, k], starts[rows, k]
        ok = np.flatnonzero(best > tol * scale)
        A = np.einsum("ma,maij->mij", best_c[ok], S[part[ok]])
        chol = dict(zip(ok.tolist(), (_try_cholesky(a) for a in A)))
        for j, i in enumerate(part.tolist()):
            if chol.get(j) is not None:
                out[i] = PDResult("feasible", float(best[j]),
                                  coefficients=best_c[j], cholesky=chol[j])
            else:
                out[i] = _barrier(S[i], scale[j], float(best[j]), best_c[j],
                                  tol)
    return out


def format_text(report: dict) -> str:
    """The text summary of a report as parsed from its written JSON."""
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
