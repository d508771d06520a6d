"""Global metricity: holonomy-fixed subspaces plus positive-definite
feasibility, checked at rank one by the de Rham periods.

For a regular connection, the global parallel sections of the terminal
subspace are the vectors fixed by every declared holonomy generator; the
connection is globally metric exactly when that fixed space meets the open
positive-definite cone, the only decision made.  On a rank-one terminal
line, the periods of the 1-form of ``nabla s = s (x) Phi``, the frame-free
trace form ``tr(P Omega)`` of the projector P on the line, give each loop's
holonomy again by Liouville's formula ``|det H| = exp(-period)``; values
that disagree beyond their error estimates make the verdict inconclusive.

Everything here is conditional on the declared loops generating the
fundamental group of the chart domain, which the tool cannot verify; every
report carries that caveat.
"""

from __future__ import annotations

import time
from dataclasses import KW_ONLY, dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import pdcone
from .bundle import ConnectionSpec, omega_stack
from .flag import (DEFAULT_RANK_TOL, FlagError, FlagTrace, IrregularPoint,
                   NotSym2Bundle, RegularityReport, Subspace,
                   batch_terminal_bases, canonical_basis, derived_flag,
                   kernel_intersection, local_metricity, regularity_scan)
from .transport import (Curve, DefectTooLarge, HolonomyResult, TransportError,
                        doubling_levels, holonomy_matrix, refine)

__all__ = [
    "PhiPeriods", "GlobalVerdict", "Analysis", "phi_form",
    "phi_periods", "fixed_subspace", "global_metricity",
    "LOOP_GENERATION_CAVEAT", "CHART_ONLY_CAVEAT", "DEFAULT_FIXED_TOL",
]

DEFAULT_FIXED_TOL = 1e-6
# step doubling stops once its error estimate is this fraction of the
# smallest tolerance the value feeds
_TARGET_FRACTION = 1e-3

LOOP_GENERATION_CAVEAT = (
    "conditional on declared loops generating the fundamental group of the "
    "chart domain; the tool cannot verify generation")
CHART_ONLY_CAVEAT = (
    "verdict certified on the declared coordinate chart only")


def phi_form(spec: ConnectionSpec, points,
             rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """The trace form ``Phi_k = tr(P Omega_k)`` at an (m, n) batch of points,
    where P is the orthogonal projector on the terminal subspace; shape (m, n).

    With B an orthonormal terminal basis, ``tr(P Omega_k) = sum_a b_a^T
    Omega_k b_a``, the same for every orthonormal frame, so no section is
    tracked and a sign never flips.  On a rank-one terminal subspace it is
    the 1-form of ``nabla s = s (x) Phi`` for either unit generator s:
    ``<s, d_k s> = 0`` gives ``Phi_k = s^T Omega_k s``, exactly, with no
    differencing.  The section f s, for a function f > 0, has the form
    ``Phi + d log f``, so the loop periods are the same for every section
    of the positive cone.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    bases = batch_terminal_bases(spec, pts, rank_tol)
    omega = omega_stack(spec, pts)  # (m, n, N, N) at the flag's points
    return np.einsum("mia,mkij,mja->mk", bases, omega, bases)


@dataclass
class PhiPeriods:
    loop_names: list
    periods: list
    samples: list  # per-loop (m, n) Phi values along the loop
    points: list  # per-loop m, the points of the kept level
    # per-loop |P_m - P_{m/2}|; None where one level was run
    error_estimates: list


def phi_periods(spec: ConnectionSpec, loops: Sequence[Curve],
                quadrature_steps: int = 4096, *,
                rank_tol: float = DEFAULT_RANK_TOL,
                target=None) -> PhiPeriods:
    """Trapezoid-rule loop periods of :func:`phi_form`.

    For closed loops the trapezoid rule over the uniform parameter grid
    coincides with the left-endpoint sum, which is what is computed.
    Without a ``target`` each loop takes exactly ``quadrature_steps``
    points.  With one (a number, or one per loop) that count is the cap of
    :func:`transport.refine`, with the estimate ``|P_m - P_{m/2}|``
    (Trefethen and Weideman, SIAM Rev. 56, 2014: the rule converges
    geometrically on a smooth periodic integrand).  The points of each
    level are the even ones of the next, and a run that reaches the cap
    evaluates the same points, and returns the same periods and samples,
    as a run without a target.  The first level, with no estimate, never
    ends a run: one :func:`phi_form` call samples every loop's second (or
    one) level, and each later level samples its new odd-index points.
    """
    targets = target if np.ndim(target) else [target] * len(loops)
    out, grids = PhiPeriods([], [], [], [], []), []
    for loop, tgt in zip(loops, targets, strict=True):
        ts = np.linspace(loop.t0, loop.t1, quadrature_steps, endpoint=False)
        m = ([quadrature_steps] if tgt is None
             else doubling_levels(quadrature_steps))[:2][-1]
        grids.append((ts, loop.points(ts[::quadrature_steps // m])))

    def sample(pts, names):  # a flag jump names the loop of its row
        try:
            return phi_form(spec, pts, rank_tol)
        except IrregularPoint as exc:  # raised at the first row at its point
            row = np.flatnonzero((pts == exc.point).all(axis=1))[0]
            exc.args = (f"{exc} on loop '{names[row]}'",)
            raise

    counts = [len(p) for _, p in grids]
    batch = np.split(sample(np.concatenate([p for _, p in grids]),
                            np.repeat([c.name for c in loops], counts)),
                     np.cumsum(counts)[:-1]) if loops else []
    for loop, tgt, (ts, _), first in zip(loops, targets, grids, batch):
        def evaluate(m, coarse):
            stride = quadrature_steps // m
            if m <= len(first):
                phi = first[::len(first) // m]
            else:
                new = sample(loop.points(ts[stride::2 * stride]),
                             [loop.name] * m)
                phi = np.stack([coarse[0], new], axis=1).reshape(m, -1)
            vel = loop.velocities(ts[::stride])
            dt = (loop.t1 - loop.t0) / m
            return phi, float(np.sum(phi * vel) * dt)

        (phi, period), m, estimate = refine(quadrature_steps, tgt, evaluate,
                                            lambda f, c: abs(f[1] - c[1]))
        out.loop_names.append(loop.name)
        out.periods.append(period)
        out.samples.append(phi)
        out.points.append(m)
        out.error_estimates.append(estimate)
    return out


def fixed_subspace(holonomies: Sequence[HolonomyResult], dim: int,
                   rank_tol: float = DEFAULT_RANK_TOL,
                   fixed_tol: float = DEFAULT_FIXED_TOL) -> Subspace:
    """Common fixed vectors of the (dim, dim) holonomy matrices, in terminal
    coordinates.

    With no declared loops the domain is taken as simply connected and the
    full terminal subspace is returned.  ``fixed_tol`` is an absolute floor
    on the rank decision for ``H - I``, sized to sit above the integrator
    noise carried by the holonomy matrices.
    """
    if not holonomies or dim == 0:
        return Subspace.full(dim)
    mats = [h.matrix - np.eye(dim) for h in holonomies]
    return kernel_intersection(mats, rank_tol, abs_floor=fixed_tol)


@dataclass
class GlobalVerdict:
    """Outcome of the global pipeline with certificates and diagnostics."""

    status: str  # metric | not_metric | inconclusive | not_regular
    regular_on_grid: bool
    wtilde_rank: Optional[int] = None
    fixed: Optional[Subspace] = None
    fixed_fiber_basis: Optional[np.ndarray] = None
    rank_wm: int = 0
    rank_tau_reported: Optional[int] = None
    pd_result: Optional[pdcone.PDResult] = None
    phi: Optional[PhiPeriods] = None
    period_tols: list = field(default_factory=list)
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
    feasibility of the fixed space, checked at rank one by the periods).
    Reading a stage runs the stages it needs first.  Each loop is closed
    and starts at ``point``, as the manifest checks.  ``rank_tol``,
    ``fixed_tol`` and ``pd_tol`` set the rank and PD decisions;
    ``holonomy_tol`` bounds each holonomy's defect.  ``rk4_steps`` and
    ``quadrature_steps`` cap :func:`transport.refine`, whose target is 1e-3
    of the least tolerance a value feeds (``fixed_tol`` and ``holonomy_tol``,
    or the loop's ``period_tol``, by default ``1e-4 * (1 + loop length)``).
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
        batched call over the terminal level of the scan's classes."""
        scan = self.scan
        local = local_metricity(self.spec, scan.levels[-1].take(scan.reps),
                                self.pd_tol)
        return [local[c] for c in scan.classes.tolist()]

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
        return [holonomy_matrix(self.spec, trace.terminal, loop,
                                self.rk4_steps, self.holonomy_tol,
                                target=target)
                for loop in self.loops]

    @_stage
    def fixed(self) -> Subspace:
        """Common fixed subspace of the holonomies, in terminal coordinates."""
        return fixed_subspace(self.holonomies, self.base_trace.terminal.dim,
                              self.rank_tol, self.fixed_tol)

    @_stage
    def verdict(self) -> GlobalVerdict:
        """Global metricity; see :func:`global_metricity`."""
        return global_metricity(self)


def global_metricity(an: Analysis) -> GlobalVerdict:
    """The verdict of ``an``: PD feasibility of the holonomy-fixed subspace.

    Regularity on the sample grid is a precondition of the global theory;
    any dimension jump short-circuits to ``not_regular``.  A failed holonomy
    stage (an irregular base-point flag, or a transport that overflows or
    leaves the terminal subspace by ``holonomy_tol``) or, on a rank-one line
    (definite or not), a holonomy that breaks Liouville's formula with its
    Phi period ends in ``inconclusive``.
    """
    spec = an.spec
    if spec.kind != "christoffel":
        raise NotSym2Bundle("global metricity is posed on the Sym^2 bundle")
    if not an.scan.regular_on_grid:
        return GlobalVerdict("not_regular", False, notes=[
            "terminal dimension varies over the sample grid; the global "
            "existence problem is not posed"])
    wrank = None  # until the base-point flag is known
    try:
        trace = an.base_trace
        wrank = trace.terminal.dim
        fixed = an.fixed
    except (IrregularPoint, DefectTooLarge) as exc:
        return GlobalVerdict("inconclusive", True, wtilde_rank=wrank,
                             notes=[f"holonomy stage failed: {exc}"])
    if wrank == 0:
        return GlobalVerdict("not_metric", True, wtilde_rank=0,
                             rank_tau_reported=0, notes=[
                                 "terminal subspace is zero: no nonzero "
                                 "parallel sections exist even locally"])
    notes = []
    # (N, m), a function of the fixed span alone: noise in H must not flip
    # or rotate the basis that the PD screen starts from and reports
    fiber_basis = canonical_basis(trace.terminal.basis @ fixed.basis)
    m = fixed.dim

    # a zero fixed space is a span of no generators, which is infeasible
    pd_res = pdcone.pd_feasible(spec.sym.to_matrix(fiber_basis.T),
                                tol=an.pd_tol)
    if m == 0:
        notes.append("no holonomy-fixed directions: no global parallel "
                     "sections at all")

    status = {"feasible": "metric", "infeasible_certified": "not_metric",
              "inconclusive": "inconclusive"}[pd_res.status]
    rank_wm = m if status == "metric" else 0

    phi = None
    period_tols = []
    if wrank == 1 and an.loops:
        tols = [(an.period_tol if an.period_tol is not None
                 else 1e-4 * (1.0 + loop.length()))
                for loop in an.loops]
        try:
            phi = phi_periods(spec, an.loops, an.quadrature_steps,
                              rank_tol=an.rank_tol,
                              target=[_TARGET_FRACTION * t for t in tols])
        except IrregularPoint as exc:
            notes.append(f"de Rham route failed: {exc}")
        else:
            period_tols = tols
            # Liouville: |det H| = exp(-period) within fixed_tol and the two
            # error estimates (a missing one counts as 0).  H is finite, so
            # an exp(-period) past the float range never agrees with it
            with np.errstate(over="ignore"):
                lines = np.exp(-np.array(phi.periods)).tolist()
            failing = [repr(h.loop_name) for h, line, err in zip(
                an.holonomies, lines, phi.error_estimates)
                if not (line < np.inf and abs(abs(h.matrix[0, 0]) - line)
                        <= an.fixed_tol + (h.error_estimate or 0.0)
                        + (err or 0.0) * line)]
            if failing:
                notes.append(f"on loops {', '.join(failing)}, |det H| and "
                             "exp(-period) differ beyond their error "
                             "estimates; downgrading to inconclusive")
                status, rank_wm = "inconclusive", 0

    return GlobalVerdict(status, True, wtilde_rank=wrank,
                         fixed=fixed, fixed_fiber_basis=fiber_basis,
                         rank_wm=rank_wm, rank_tau_reported=wrank - m,
                         pd_result=pd_res, phi=phi,
                         period_tols=period_tols, notes=notes)
