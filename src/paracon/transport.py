"""Parallel transport along curves, holonomy on the terminal subspace, and
extension of fiber vectors to sampled local parallel sections.

Transport integrates the parallel equation ``v'(t) = -A(t) v(t)`` with
``A(t) = sum_k Omega_k(gamma(t)) gamma'^k(t)`` by classical fixed-step RK4.
The integrator is exactly linear in the initial vector, so bases transport as
matrices, and each step is a matrix map ``v <- (I + E_j) v`` with
``E_j = h/6 (K1 + 2 K2 + 2 K3 + K4)``, ``K1 = -A0``,
``K2 = -Am (I + h/2 K1)``, ``K3 = -Am (I + h/2 K2)`` and
``K4 = -A1 (I + h K3)``.  The steps are taken in chunks of ``_CHUNK``: the
generators are evaluated (and the domain checked) only at one chunk's
half-step nodes, the chunk's ``E_j`` are built with batched matmuls and
reduced by a pairwise product tree kept in the small-part form
``(I + b)(I + a) = I + (a + b + b a)``, and each chunk's product is applied
to the frame in order.  Keeping the small parts, not the products ``I + E``,
rounds no worse than the per-step loop it replaces.  Holonomy composes as
``H(g2 . g1) = H(g2) H(g1)`` with ``g1`` traversed first.

Given an error target, a holonomy is computed by :func:`refine`, the step
doubling that the Phi periods share, with the Richardson estimate
``|H_s - H_{s/2}|_max / 15``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bundle import (ConnectionSpec, Domain, PointOutsideDomain, check_names,
                     check_params, omega_stack)
from .expr import Binary, Expr, Name, compile_expr, diff
from .flag import Subspace

__all__ = [
    "Curve", "HolonomyResult", "TransportError", "MIN_RK4_STEPS",
    "DefectTooLarge", "transport", "holonomy_matrix", "parallel_extend",
    "doubling_levels", "refine",
]

_CLOSURE_TOL = 1e-9
MIN_RK4_STEPS = 16
# RK4 steps per chunk: generators are evaluated and step maps composed for one
# chunk at a time, which bounds the memory of a long transport
_CHUNK = 1024
# step doubling starts at the smallest nested level of at least _FIRST_LEVEL
# steps (or points); that first level has no estimate, so it never ends a run
_FIRST_LEVEL = 128


class TransportError(RuntimeError):
    pass


class DefectTooLarge(TransportError):
    """Transport left the terminal subspace beyond the holonomy tolerance."""


class Curve:
    """Coordinate curve t -> (x_1(t), ..., x_n(t)) over [t0, t1].

    Closedness is decided from the endpoints after reducing coordinate
    differences modulo the domain's declared periods.
    """

    def __init__(self, domain: Domain, exprs: Sequence[Expr], t0: float,
                 t1: float, name: str = "", params: Optional[dict] = None):
        if len(exprs) != domain.dim:
            raise TransportError("one coordinate expression per chart dimension")
        if not t1 > t0:
            raise TransportError("curve parameter range is degenerate")
        self.domain = domain
        self.exprs = tuple(exprs)
        self.t0 = float(t0)
        self.t1 = float(t1)
        self.name = name
        self.params = dict(params or {})
        check_params(self.params)  # the curve's formulas see t and params
        check_names(enumerate(self.exprs), {"t", *self.params})
        self._pos = compile_expr(list(exprs))
        self._vel = compile_expr([diff(e, "t") for e in exprs])
        self.closed = self.starts_at(self.point(self.t1))

    def starts_at(self, point) -> bool:
        """Whether the curve starts at ``point``, up to declared periods."""
        gap = self.domain.wrap_delta(self.point(self.t0) - point)
        return bool(np.max(np.abs(gap)) <= _CLOSURE_TOL)

    def _sample(self, tape, ts) -> np.ndarray:
        """The values of ``tape`` at the parameters ``ts``, stacked on a last
        axis."""
        ts = np.asarray(ts, dtype=float)
        cols = [np.broadcast_to(np.asarray(v, dtype=float), ts.shape)
                for v in tape({"t": ts, **self.params})]
        return np.stack(cols, axis=-1)

    def points(self, ts) -> np.ndarray:
        return self._sample(self._pos, ts)

    def velocities(self, ts) -> np.ndarray:
        return self._sample(self._vel, ts)

    def point(self, t) -> np.ndarray:
        return self.points(np.array([t]))[0]

    def length(self, steps: int = 512) -> float:
        ts = np.linspace(self.t0, self.t1, steps + 1)
        speed = np.linalg.norm(self.velocities(ts), axis=1)
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        return float(trapezoid(speed, ts))


def _generators(spec: ConnectionSpec, curve: Curve, ts) -> np.ndarray:
    """A(t) at the parameters ``ts``; shape (len(ts), N, N).  A point
    outside the domain raises :class:`PointOutsideDomain` naming the curve."""
    pts = curve.points(ts)
    try:
        spec.domain.require_admissible(pts, spec.params)
    except PointOutsideDomain as exc:
        exc.args = (f"transport along '{curve.name}' left the domain: {exc}",)
        raise
    vel = curve.velocities(ts)
    omega = omega_stack(spec, pts)  # (m, n, N, N)
    return np.einsum("mk,mkab->mab", vel, omega)


def _step_maps(nA: np.ndarray, h: float) -> np.ndarray:
    """Small parts E_j of the RK4 step maps I + E_j from the stack of -A at
    consecutive half-step nodes; shape ((len(nA) - 1) // 2, N, N)."""
    a0, am, a1 = nA[:-1:2], nA[1::2], nA[2::2]
    k2 = am + 0.5 * h * (am @ a0)
    k3 = am + 0.5 * h * (am @ k2)
    k4 = a1 + h * (a1 @ k3)
    return (h / 6.0) * (a0 + 2.0 * k2 + 2.0 * k3 + k4)


def _compose(E: np.ndarray) -> np.ndarray:
    """Small part of the ordered product of the maps I + E[j], E[0] applied
    first, by a pairwise tree: (I + b)(I + a) = I + (a + b + b a)."""
    while len(E) > 1:
        a, b = E[0:-1:2], E[1::2]
        pairs = a + b + b @ a
        E = np.concatenate([pairs, E[-1:]]) if len(E) % 2 else pairs
    return E[0]


def transport(spec: ConnectionSpec, curve: Curve, v0,
              steps: int = 4096) -> np.ndarray:
    """Parallel transport of a fiber vector (or basis matrix) along a curve;
    the transported vector (or matrix).  A transport that overflows raises
    :class:`DefectTooLarge`."""
    if steps < MIN_RK4_STEPS:
        raise TransportError(f"at least {MIN_RK4_STEPS} RK4 steps required")
    v = np.asarray(v0, dtype=float)
    single = v.ndim == 1
    if single:
        v = v[:, None]
    ts = np.linspace(curve.t0, curve.t1, 2 * steps + 1)
    h = (curve.t1 - curve.t0) / steps
    with np.errstate(over="ignore", invalid="ignore"):  # checked once below
        for start in range(0, steps, _CHUNK):
            stop = min(start + _CHUNK, steps)
            nA = _generators(spec, curve, ts[2 * start:2 * stop + 1])
            np.negative(nA, out=nA)
            v = v + _compose(_step_maps(nA, h)) @ v
    if not np.isfinite(v).all():
        raise DefectTooLarge(f"transport along '{curve.name}' overflowed: "
                             "the transported vector is not finite")
    return v[:, 0] if single else v


def doubling_levels(cap: int) -> list:
    """The nested levels ``cap / 2^j`` that are integers of at least
    ``_FIRST_LEVEL``, coarsest first; just ``[cap]`` when no such half
    exists (an odd cap, or one below ``2 * _FIRST_LEVEL``)."""
    levels = [int(cap)]
    while levels[-1] % 2 == 0 and levels[-1] // 2 >= _FIRST_LEVEL:
        levels.append(levels[-1] // 2)
    return levels[::-1]


def refine(cap: int, target: Optional[float], evaluate, estimate) -> tuple:
    """Step doubling (Hairer, Norsett and Wanner, *Solving ODEs I*, II.4);
    returns ``(value, level, estimate)``.

    ``evaluate(level, coarse)`` gives a level's value from the coarser
    level's (None at the first), and ``estimate(value, coarse)`` its error.
    The levels of :func:`doubling_levels` run up to the first after the
    coarsest whose estimate is at most ``target`` (a NaN never is), or to
    ``cap``.  Without a target only ``cap`` runs, with estimate None.
    """
    value = err = None
    for level in [cap] if target is None else doubling_levels(cap):
        value, coarse = evaluate(level, value), value
        if coarse is not None:
            err = estimate(value, coarse)
            if err <= target:
                break
    return value, level, err


@dataclass
class HolonomyResult:
    loop_name: str
    matrix: np.ndarray  # (d, d) in the terminal-subspace basis
    defect: float
    steps: Optional[int] = None  # RK4 steps of the kept level
    # |H_s - H_{s/2}|_max / 15 at the kept level s; None for a single level
    error_estimate: Optional[float] = None


def holonomy_matrix(spec: ConnectionSpec, wtilde: Subspace, loop: Curve,
                    steps: int = 4096, holonomy_tol: float = 1e-5, *,
                    target: Optional[float] = None) -> HolonomyResult:
    """Transport of the terminal basis around a closed loop, expressed in
    that basis; ``wtilde`` is the terminal subspace at the loop's start.

    Without a ``target`` the transport takes exactly ``steps`` RK4 steps.
    With one, ``steps`` is the cap of :func:`refine`.  The reprojection
    defect of the kept level measures how far the transported basis left
    the subspace; a large defect indicates irregularity or tolerance
    failure and raises :class:`DefectTooLarge`.
    """
    B = wtilde.basis
    T, s, estimate = refine(
        steps, target, lambda level, coarse: transport(spec, loop, B, level),
        lambda T, Tc: float(np.abs(B.T @ T - B.T @ Tc).max(initial=0.0)) / 15)
    H = B.T @ T
    defect = float(np.linalg.norm(T - B @ H, 2)) if B.size else 0.0
    if defect >= holonomy_tol:
        raise DefectTooLarge(
            f"transport left the terminal subspace (defect {defect:.3e})")
    return HolonomyResult(loop.name, H, defect, s, estimate)


def parallel_extend(spec: ConnectionSpec, point, w, radius: float,
                    grid_res: int = 3, steps: int = 256) -> tuple:
    """Sample the local parallel section through w on a coordinate ball.

    Returns the nodes of a ``grid_res``-per-axis grid that lie in the ball,
    (m, n), and the section's values there, (m, N): the transport of w
    along the straight coordinate ray from the base point to each node.
    """
    p = np.asarray(point, dtype=float)
    w = np.asarray(w, dtype=float)
    axes = [np.linspace(p[i] - radius, p[i] + radius, grid_res)
            for i in range(spec.n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=1)
    keep = np.linalg.norm(nodes - p, axis=1) <= radius + 1e-12
    nodes = nodes[keep]
    spec.domain.require_admissible(nodes, spec.params)

    # one ray a + t d over [0, 1], compiled once; each node sets a = p and
    # d = q - p
    names = [(f"a{k}", f"d{k}") for k in range(spec.n)]
    exprs = [Binary("add", Name(a), Binary("mul", Name("t"), Name(d)))
             for a, d in names]
    ray = Curve(spec.domain, exprs, 0.0, 1.0, name="segment",
                params=dict.fromkeys(sum(names, ()), 0.0))
    values = np.empty((len(nodes), spec.N))
    for i, q in enumerate(nodes):  # the base node's ray is constant: w itself
        for (a, d), x, y in zip(names, p, q):
            ray.params[a], ray.params[d] = x, y - x
        values[i] = transport(spec, ray, w, steps)
    return nodes, values
