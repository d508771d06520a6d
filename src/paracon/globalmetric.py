"""Global metricity: the rank-1 de Rham period obstruction and the general
regular case via holonomy-fixed subspaces plus positive-definite feasibility.

For a regular connection, the global parallel sections of the terminal
subspace are the vectors fixed by every declared holonomy generator; the
connection is globally metric exactly when that fixed space meets the open
positive-definite cone.  When the terminal subspace has rank one the same
question is answered by vanishing of the periods of the 1-form defined by
``nabla s = s (x) Phi`` for a tracked positive generator section s, and the
two criteria are cross-checked against each other.

Everything here is conditional on the declared loops generating the
fundamental group of the chart domain, which the tool cannot verify; every
verdict carries that caveat.
"""

from __future__ import annotations

import time
from dataclasses import KW_ONLY, dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import pdcone
from .bundle import ConnectionSpec, omega_stack
from .expr import Expr, compile_expr, diff
from .flag import (DEFAULT_RANK_TOL, FlagError, FlagTrace, IrregularPoint,
                   NotSym2Bundle, RegularityReport, Subspace,
                   batch_terminal_bases, canonical_basis, derived_flag,
                   kernel_intersection, local_metricity, regularity_scan)
from .transport import (Curve, DefectTooLarge, HolonomyResult, TransportError,
                        converged, doubling_levels, holonomy_matrix)

__all__ = [
    "GlobalError", "RankNotOne", "GeneratorNotPD", "PhiSampler", "PhiPeriods",
    "GlobalVerdict", "Analysis", "phi_periods", "fixed_subspace",
    "global_metricity",
    "LOOP_GENERATION_CAVEAT", "CHART_ONLY_CAVEAT", "DEFAULT_FIXED_TOL",
]

DEFAULT_FIXED_TOL = 1e-6
# step doubling stops once its error estimate is this fraction of the
# smallest tolerance the value feeds
_TARGET_FRACTION = 1e-3
_TRACE_TOL = 1e-8  # smallest |trace| of a tracked unit section

LOOP_GENERATION_CAVEAT = (
    "conditional on declared loops generating the fundamental group of the "
    "chart domain; the tool cannot verify generation")
CHART_ONLY_CAVEAT = (
    "verdict certified on the declared coordinate chart only")


class GlobalError(RuntimeError):
    pass


class RankNotOne(GlobalError):
    pass


class GeneratorNotPD(GlobalError):
    """The tracked generator is not positive-definite, so the de Rham
    criterion does not apply (the connection is not locally metric there)."""


class PhiSampler:
    """Callable sampler of the 1-form Phi defined by ``nabla s = s (x) Phi``.

    The tracked section s(q) is the normalized projection of the base-point
    generator onto the terminal subspace at q, sign-fixed to positive trace;
    for a rank-one terminal subspace this is the unit positive-trace
    generator.  A near-vanishing projection or trace marks a tracker
    discontinuity (sign flip) and raises :class:`GeneratorNotPD`.

    Phi is exact, with no differencing: s has unit Euclidean norm, so
    ``<s, d_k s> = 0``, and ``nabla_k s = d_k s + Omega_k s = Phi_k s`` gives
    ``Phi_k = s^T Omega_k s``.  A ``gauge`` f > 0 (a DSL expression) rescales
    the section to f s, which adds the exact ``d_k f / f`` from the compiled
    derivatives of f; it realizes other sections of the positive cone for
    gauge-invariance checks.
    """

    def __init__(self, spec: ConnectionSpec, base_point, wtilde: Optional[Subspace] = None,
                 rank_tol: float = DEFAULT_RANK_TOL, pd_tol: float = 1e-8):
        if spec.kind != "christoffel":
            raise NotSym2Bundle("Phi tracking needs the Sym^2 fiber")
        self.spec = spec
        self.base_point = np.asarray(base_point, dtype=float)
        self.rank_tol = rank_tol
        if wtilde is None:
            wtilde = derived_flag(spec, base_point, rank_tol=rank_tol).terminal
        if wtilde.dim != 1:
            raise RankNotOne(f"terminal subspace has rank {wtilde.dim}, not 1")
        g = wtilde.basis[:, 0]
        g = g * np.sign(self._traces(g[None, :])[0] or 1.0)
        if pdcone.pd_feasible(spec.sym.to_matrix(g[None]),
                              tol=pd_tol).status != "feasible":
            raise GeneratorNotPD(
                "terminal generator is not positive-definite; the connection "
                "is not locally metric at the base point")
        self.base_generator = g

    def _traces(self, vecs):
        # diagonal pairs occupy the first n fiber slots
        return vecs[:, : self.spec.n].sum(axis=1)

    def generators(self, points) -> np.ndarray:
        """Tracked unit sections at an (m, n) batch of points; shape (m, N)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        bases = batch_terminal_bases(self.spec, pts, self.rank_tol)
        proj = np.einsum("mia,ma->mi", bases,
                         np.einsum("mia,i->ma", bases, self.base_generator))
        norms = np.linalg.norm(proj, axis=1)
        if np.min(norms) < 0.5:
            raise GeneratorNotPD(
                "tracked generator projection degenerates along the sample "
                "set (possible sign flip of the terminal line bundle)")
        s = proj / norms[:, None]
        tr = self._traces(s)
        if np.min(np.abs(tr)) < _TRACE_TOL:
            raise GeneratorNotPD("tracked generator trace crosses zero")
        return s * np.sign(tr)[:, None]

    def __call__(self, points, gauge: Optional[Expr] = None) -> np.ndarray:
        """Phi at an (m, n) batch of points; shape (m, n)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        s = self.generators(pts)
        omega = omega_stack(self.spec, pts)  # (m, n, N, N)
        phi = np.einsum("mi,mkij,mj->mk", s, omega, s)
        if gauge is not None:
            env = self.spec.domain.env(pts, self.spec.params)

            def values(e):
                return np.broadcast_to(compile_expr(e)(env), (len(pts),))

            f = values(gauge)
            if not np.all(f > 0.0):  # NaN is not positive either
                raise GlobalError("gauge factor must be positive")
            for k, name in enumerate(self.spec.domain.names):
                phi[:, k] += values(diff(gauge, name)) / f
        return phi


@dataclass
class PhiPeriods:
    loop_names: list
    periods: list
    samples: list  # per-loop (m, n) Phi values along the loop
    points: list  # per-loop m, the points of the kept level
    # per-loop |P_m - P_{m/2}|; None where one level was run
    error_estimates: list

    def max_abs(self):
        return max((abs(p) for p in self.periods), default=0.0)


def phi_periods(sampler: PhiSampler, loops: Sequence[Curve],
                quadrature_steps: int = 4096,
                gauge: Optional[Expr] = None, *,
                target=None) -> PhiPeriods:
    """Trapezoid-rule loop periods of the sampled Phi.

    For closed loops the trapezoid rule over the uniform parameter grid
    coincides with the left-endpoint sum, which is what is computed.
    Without a ``target`` each loop takes exactly ``quadrature_steps``
    points.  With one (a number, or one per loop) that count is a cap: the
    points of the nested levels of :func:`transport.doubling_levels` are
    sampled coarsest first, each doubling evaluating Phi only at its new
    odd-index points, until a level that :func:`transport.converged`
    accepts for the estimate ``|P_m - P_{m/2}|`` (Trefethen and Weideman,
    SIAM Rev. 56, 2014: the rule converges geometrically on a smooth
    periodic integrand), or to the cap.  A run that reaches the cap
    evaluates the same points, and returns the same periods and samples,
    as a run without a target.
    """
    targets = target if np.ndim(target) else [target] * len(loops)
    out = PhiPeriods([], [], [], [], [])
    for loop, tgt in zip(loops, targets, strict=True):
        if not loop.closed:
            raise GlobalError(f"loop '{loop.name}' is not closed")
        ts = np.linspace(loop.t0, loop.t1, quadrature_steps, endpoint=False)
        levels = ([quadrature_steps] if tgt is None
                  else doubling_levels(quadrature_steps))
        phi = period = estimate = None
        for m in levels:
            stride = quadrature_steps // m
            if phi is None:
                phi = sampler(loop.points(ts[::stride]), gauge=gauge)
            else:
                # the previous level's points are the even ones of this one
                new = sampler(loop.points(ts[stride::2 * stride]), gauge=gauge)
                phi = np.stack([phi, new], axis=1).reshape(m, -1)
            vel = loop.velocities(ts[::stride])
            dt = (loop.t1 - loop.t0) / m
            period, coarse = float(np.sum(phi * vel) * dt), period
            if coarse is not None:
                estimate = abs(period - coarse)
                if converged(m, estimate, tgt):
                    break
        out.loop_names.append(loop.name)
        out.periods.append(period)
        out.samples.append(phi)
        out.points.append(m)
        out.error_estimates.append(estimate)
    return out


def fixed_subspace(holonomies: Sequence[HolonomyResult],
                   dim: Optional[int] = None,
                   rank_tol: float = DEFAULT_RANK_TOL,
                   fixed_tol: float = DEFAULT_FIXED_TOL) -> Subspace:
    """Common fixed vectors of the holonomy matrices, in terminal coordinates.

    With no declared loops the domain is taken as simply connected and the
    full terminal subspace is returned.  ``fixed_tol`` is an absolute floor
    on the rank decision for ``H - I``, sized to sit above the integrator
    noise carried by the holonomy matrices.
    """
    if not holonomies:
        if dim is None:
            raise GlobalError("dim required when no holonomies are given")
        return Subspace.full(dim)
    d = holonomies[0].matrix.shape[0]
    base = holonomies[0].base_point
    for h in holonomies:
        if h.matrix.shape != (d, d):
            raise GlobalError("holonomy matrices must share one basis")
        if np.max(np.abs(h.base_point - base)) > 1e-9:
            raise GlobalError("holonomy matrices must share the base point")
    if d == 0:
        return Subspace(0, np.zeros((0, 0)))
    mats = [h.matrix - np.eye(d) for h in holonomies]
    return kernel_intersection(mats, rank_tol, abs_floor=fixed_tol)


@dataclass
class GlobalVerdict:
    """Outcome of the global pipeline with certificates and diagnostics; from
    :func:`global_metricity` it carries the staged run in ``analysis``."""

    status: str  # metric | not_metric | inconclusive | not_regular
    regular_on_grid: bool
    analysis: Optional["Analysis"] = field(default=None, repr=False)
    wtilde_rank: Optional[int] = None
    fixed: Optional[Subspace] = None
    fixed_fiber_basis: Optional[np.ndarray] = None
    rank_wm: int = 0
    rank_tau_reported: Optional[int] = None
    pd_result: Optional[pdcone.PDResult] = None
    phi: Optional[PhiPeriods] = None
    period_tols: list = field(default_factory=list)
    caveats: list = field(default_factory=lambda: [LOOP_GENERATION_CAVEAT,
                                                   CHART_ONLY_CAVEAT])
    notes: list = field(default_factory=list)


def _stage(method):
    """Run-once stage of :class:`Analysis`: the first read keeps the value of
    ``method`` or the flag or transport failure it raised, which later reads
    return or raise again.  The stage's own time, without the stages it
    pulled in, goes to ``Analysis.timings``."""
    name = method.__name__

    def get(self):
        if name not in self._results:
            outer, self._inner = self._inner, 0.0
            t0 = time.perf_counter()
            try:
                self._results[name] = (method(self), None)
            except (FlagError, TransportError) as exc:
                self._results[name] = (None, exc)
            finally:
                elapsed = time.perf_counter() - t0
                self.timings.append((name, elapsed - self._inner))
                self._inner = outer + elapsed
        value, exc = self._results[name]
        if exc is not None:
            raise exc
        return value

    return property(get, doc=method.__doc__)


@dataclass(eq=False)
class Analysis:
    """The pipeline for one connection, run lazily with each stage at most once.

    The stages are attributes: ``scan`` (derived flag at every grid point),
    ``local`` (local metricity at every grid point, one batched call),
    ``base_trace`` (flag at the base point), ``holonomies`` (one per declared
    loop), ``fixed`` (their common fixed subspace) and ``verdict`` (PD
    feasibility of the fixed space and the rank-one period cross-check).
    Reading a stage runs the stages it needs first.  The settings are those
    of :func:`global_metricity`.
    """

    spec: ConnectionSpec
    point: np.ndarray
    loops: Sequence[Curve]
    grid_axes: list
    _: KW_ONLY
    rank_tol: float = DEFAULT_RANK_TOL
    holonomy_tol: float = 1e-5
    fixed_tol: float = DEFAULT_FIXED_TOL
    pd_tol: float = 1e-8
    rk4_steps: int = 4096
    quadrature_steps: int = 4096
    period_tol: Optional[float] = None

    def __post_init__(self):
        self.timings = []  # (stage, seconds) in the order the stages ran
        self._results = {}
        self._inner = 0.0  # time of the stages run inside the current one

    @_stage
    def scan(self) -> RegularityReport:
        """Derived flag and terminal dimension at every grid point, as the
        flag engine's arrays."""
        return regularity_scan(self.spec, self.grid_axes, self.rank_tol)

    @_stage
    def local(self) -> list:
        """The PD feasibility of every grid point's terminal span: one
        batched call over the scan's terminal level."""
        return local_metricity(self.spec, self.scan.levels[-1], self.pd_tol)

    @_stage
    def base_trace(self) -> FlagTrace:
        """Derived flag at the base point.  When the grid is regular, a base
        point whose terminal dim differs from the grid's is irregular."""
        trace = derived_flag(self.spec, self.point, rank_tol=self.rank_tol)
        scan = self.scan
        if scan.regular_on_grid and trace.terminal.dim != scan.dims[0]:
            raise IrregularPoint(trace.point, trace.stabilization_level,
                                 detail=f"terminal dim {trace.terminal.dim} "
                                        f"!= {scan.dims[0]} on the regular "
                                        "grid")
        return trace

    @_stage
    def holonomies(self) -> list:
        """Holonomy of the terminal subspace around each declared loop."""
        trace = self.base_trace
        target = _TARGET_FRACTION * min(self.fixed_tol, self.holonomy_tol)
        return [holonomy_matrix(self.spec, trace.point, trace.terminal, loop,
                                self.rk4_steps, self.holonomy_tol,
                                target=target)
                for loop in self.loops]

    @_stage
    def fixed(self) -> Subspace:
        """Common fixed subspace of the holonomies, in terminal coordinates."""
        return fixed_subspace(self.holonomies,
                              dim=self.base_trace.terminal.dim,
                              rank_tol=self.rank_tol,
                              fixed_tol=self.fixed_tol)

    @_stage
    def verdict(self) -> GlobalVerdict:
        """Global metricity; see :func:`global_metricity`."""
        spec = self.spec
        if spec.kind != "christoffel":
            raise NotSym2Bundle("global metricity is posed on the Sym^2 bundle")
        if not self.scan.regular_on_grid:
            return GlobalVerdict("not_regular", False, notes=[
                "terminal dimension varies over the sample grid; the global "
                "existence problem is not posed"])
        try:
            trace = self.base_trace
        except IrregularPoint as exc:
            return GlobalVerdict("inconclusive", True,
                                 notes=[f"base-point flag failed: {exc}"])
        wrank = trace.terminal.dim
        if wrank == 0:
            return GlobalVerdict("not_metric", True, wtilde_rank=0,
                                 rank_tau_reported=0, notes=[
                                     "terminal subspace is zero: no nonzero "
                                     "parallel sections exist even locally"])
        try:
            fixed = self.fixed
        except DefectTooLarge as exc:
            return GlobalVerdict("inconclusive", True, wtilde_rank=wrank,
                                 notes=[f"holonomy defect exceeded tolerance: "
                                        f"{exc}"])
        notes = []
        # (N, m), a function of the fixed span alone: noise in H must not flip
        # or rotate the basis that the PD screen starts from and reports
        fiber_basis = canonical_basis(trace.terminal.basis @ fixed.basis)
        m = fixed.dim

        pd_res = None
        if m == 0:
            pd_status = "infeasible_certified"
            notes.append("no holonomy-fixed directions: no global parallel "
                         "sections at all")
        else:
            pd_res = pdcone.pd_feasible(spec.sym.to_matrix(fiber_basis.T),
                                        tol=self.pd_tol)
            pd_status = pd_res.status

        status = {"feasible": "metric", "infeasible_certified": "not_metric",
                  "inconclusive": "inconclusive"}[pd_status]
        rank_wm = m if status == "metric" else 0

        phi = None
        period_tols = []
        if wrank == 1 and self.loops:
            try:
                sampler = PhiSampler(spec, trace.point, trace.terminal,
                                     rank_tol=self.rank_tol,
                                     pd_tol=self.pd_tol)
                tols = [(self.period_tol if self.period_tol is not None
                         else 1e-4 * (1.0 + loop.length()))
                        for loop in self.loops]
                phi = phi_periods(sampler, self.loops, self.quadrature_steps,
                                  target=[_TARGET_FRACTION * t for t in tols])
                period_tols = tols
                periods_zero = all(abs(p) < tol for p, tol
                                   in zip(phi.periods, period_tols))
                if status in ("metric", "not_metric"):
                    if periods_zero != (status == "metric"):
                        notes.append(
                            "rank-one period criterion disagrees with the "
                            "holonomy criterion; downgrading to inconclusive")
                        status = "inconclusive"
                        rank_wm = 0
            except GeneratorNotPD as exc:
                notes.append(f"de Rham route skipped: {exc}")
            except (RankNotOne, IrregularPoint) as exc:
                notes.append(f"de Rham route failed: {exc}")

        return GlobalVerdict(status, True, wtilde_rank=wrank,
                             fixed=fixed, fixed_fiber_basis=fiber_basis,
                             rank_wm=rank_wm, rank_tau_reported=wrank - m,
                             pd_result=pd_res, phi=phi,
                             period_tols=period_tols, notes=notes)


def global_metricity(spec: ConnectionSpec, point, loops: Sequence[Curve],
                     grid_axes, *,
                     rank_tol: float = DEFAULT_RANK_TOL,
                     holonomy_tol: float = 1e-5,
                     fixed_tol: float = DEFAULT_FIXED_TOL,
                     pd_tol: float = 1e-8,
                     rk4_steps: int = 4096,
                     quadrature_steps: int = 4096,
                     period_tol: Optional[float] = None) -> GlobalVerdict:
    """Full global pipeline: regularity scan, flag, holonomy, fixed subspace,
    PD feasibility, and the rank-one period cross-check.

    Regularity on the sample grid is a precondition of the global theory;
    any dimension jump short-circuits to ``not_regular``.  An irregular
    base-point flag or a holonomy defect above ``holonomy_tol`` ends in
    ``inconclusive``.  ``rk4_steps`` and ``quadrature_steps`` are caps:
    each holonomy and each period doubles its steps or points until its
    error estimate is at most 1e-3 of the smallest tolerance it feeds
    (``fixed_tol`` and ``holonomy_tol``, or the loop's period tolerance).
    The verdict's ``analysis`` keeps every stage.
    """
    an = Analysis(spec, point, loops, grid_axes, rank_tol=rank_tol,
                  holonomy_tol=holonomy_tol, fixed_tol=fixed_tol,
                  pd_tol=pd_tol, rk4_steps=rk4_steps,
                  quadrature_steps=quadrature_steps, period_tol=period_tol)
    # only the returned copy points at the analysis: a cached verdict that did
    # would form a cycle keeping every stage alive until garbage collection
    return replace(an.verdict, analysis=an)
