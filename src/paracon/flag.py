"""Derived flag of the fiber: curvature kernels, second-fundamental kernels,
regularity scan and the local-metricity decision.

The flag at a point p is the decreasing chain obtained by first intersecting
the kernels of all curvature operators and then repeatedly taking the kernel
of the second fundamental form of the current subspace, until the dimension
stabilizes (two consecutive equal dimensions, with the ambient fiber counting
as the level before the first) or hits zero.  The terminal subspace carries
every local parallel section; for Christoffel connections it is a span of
symmetric matrices and local metricity is positive-definite feasibility of
that span.

One batched engine computes every flag: ``_flag`` runs the level loop over
an (m, n) batch, and its level steps :func:`curvature_kernel` and
:func:`second_fundamental_kernel` take the whole batch, grouping points by
dimension where an SVD needs one shape.  A stencil point whose dimension
differs from its point's, at any depth of the recursion, makes that point
irregular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bundle import (ConnectionSpec, curvature_stack,
                     nudge_off_breakpoints, omega_stack)

__all__ = [
    "Subspace", "FlagLevel", "FlagTrace", "RegularityReport", "FlagError",
    "IrregularPoint", "MaxLevelsExceeded", "NotSym2Bundle", "EmptyGrid",
    "kernel_intersection", "curvature_kernel", "second_fundamental_kernel",
    "derived_flag", "regularity_scan", "local_metricity",
    "principal_angles", "default_stencil", "batch_terminal_bases",
]

DEFAULT_RANK_TOL = 1e-7
# absolute fallback when the stacked matrix is numerically zero
_TINY_SIGMA = 1e-12
_TINY_CUTOFF = 1e-10


class FlagError(RuntimeError):
    pass


class IrregularPoint(FlagError):
    """Fiber dimension jumps inside the finite-difference stencil."""

    def __init__(self, point, level, detail=""):
        self.point = np.asarray(point, dtype=float)
        self.level = level
        msg = f"dimension jump in stencil at {self.point.tolist()} (level {level})"
        super().__init__(msg + (f": {detail}" if detail else ""))


class MaxLevelsExceeded(FlagError):
    pass


class NotSym2Bundle(FlagError):
    pass


class EmptyGrid(FlagError):
    pass


@dataclass
class Subspace:
    """Orthonormal basis of a subspace of the fiber R^N with rank provenance.

    ``sv_gap`` is the ratio between the smallest retained (non-kernel)
    singular value and the largest discarded one in the rank decision that
    produced the basis (inf when either side is empty or exact).
    """

    ambient_dim: int
    basis: np.ndarray  # (N, d), orthonormal columns
    sv_gap: float = math.inf
    rank_tol: float = DEFAULT_RANK_TOL

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        if basis.size == 0:
            basis = basis.reshape(self.ambient_dim, 0)
        else:
            basis = basis.reshape(self.ambient_dim, -1)
        self.basis = basis
        d = self.basis.shape[1]
        if d:
            err = np.abs(self.basis.T @ self.basis - np.eye(d)).max()
            if err > 1e-10:
                raise FlagError(f"basis not orthonormal (err {err:.2e})")

    @property
    def dim(self):
        return self.basis.shape[1]

    @classmethod
    def full(cls, n):
        return cls(n, np.eye(n))

    def project(self, vectors):
        """Orthogonal projection of (..., N) vectors onto the subspace."""
        v = np.asarray(vectors, dtype=float)
        return v @ self.basis @ self.basis.T

    def contains(self, vector, tol=1e-8):
        v = np.asarray(vector, dtype=float)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return True
        return np.linalg.norm(v - self.project(v)) <= tol * nv


def principal_angles(a, b) -> np.ndarray:
    """Principal angles (radians) between the spans of two orthonormal bases.

    Small angles are computed through the sine route (projection onto the
    orthogonal complement), which stays accurate where arccos of a cosine
    near one cannot.
    """
    A = np.asarray(a, dtype=float)
    B = np.asarray(b, dtype=float)
    if A.ndim == 1:
        A = A[:, None]
    if B.ndim == 1:
        B = B[:, None]
    if A.shape[1] == 0 or B.shape[1] == 0:
        return np.zeros(0)
    if A.shape[1] > B.shape[1]:
        A, B = B, A
    cos_sv = np.linalg.svd(A.T @ B, compute_uv=False)  # descending
    resid = A - B @ (B.T @ A)
    sin_sv = np.sort(np.linalg.svd(resid, compute_uv=False))  # ascending
    angles = np.where(cos_sv ** 2 > 0.5,
                      np.arcsin(np.clip(sin_sv, 0.0, 1.0)),
                      np.arccos(np.clip(cos_sv, -1.0, 1.0)))
    return angles


def _kernels(stack, rank_tol, abs_floor):
    """Kernel of each matrix of an (m, rows, k) stack: the flag's one rank
    decision.

    The cutoff is ``max(rank_tol * sigma_max, abs_floor)``, or 1e-10 when
    ``sigma_max < 1e-12``; singular values below it (padded zeros included)
    are kernel directions.  Returns each kernel dim, each gap (smallest kept
    over largest dropped singular value, inf when either side is empty or
    exactly zero) and the right singular vectors ``vt``; matrix i's kernel
    basis is ``vt[i, k - dims[i]:].T``.
    """
    if not 0.0 < rank_tol < 1.0:
        raise ValueError("rank_tol must lie in (0, 1)")
    m, _, k = stack.shape
    _, sv, vt = np.linalg.svd(stack, full_matrices=True)
    if sv.shape[1] < k:
        sv = np.concatenate([sv, np.zeros((m, k - sv.shape[1]))], axis=1)
    smax = sv[:, 0]
    cutoff = np.where(smax < _TINY_SIGMA, _TINY_CUTOFF,
                      np.maximum(rank_tol * smax, abs_floor))
    dims = (sv < cutoff[:, None]).sum(axis=1)
    rows = np.arange(m)
    kept = sv[rows, np.maximum(k - dims - 1, 0)]
    dropped = sv[rows, np.minimum(k - dims, k - 1)]
    with np.errstate(divide="ignore", invalid="ignore"):
        gaps = np.where((dims > 0) & (dims < k) & (dropped > 0),
                        kept / dropped, math.inf)
    return dims, gaps, vt


def _groups(dims):
    """``(d, indices)`` for each distinct value of an int array."""
    for d in sorted(set(dims.tolist())):
        yield d, np.flatnonzero(dims == d)


def kernel_intersection(mats, rank_tol: float = DEFAULT_RANK_TOL,
                        abs_floor: float = 0.0) -> Subspace:
    """Common kernel of a list of N x N matrices via SVD of the stack.

    Singular values below ``rank_tol * sigma_max`` (or below 1e-10 when
    ``sigma_max < 1e-12``) count as kernel directions; ``abs_floor`` raises
    the cutoff for callers whose matrices carry known integration noise.
    """
    mats = [np.asarray(m, dtype=float) for m in mats]
    if not mats:
        raise ValueError("at least one matrix required")
    N = mats[0].shape[1]
    dims, gaps, vt = _kernels(np.vstack(mats)[None], rank_tol, abs_floor)
    return Subspace(N, vt[0, N - dims[0]:].T, sv_gap=float(gaps[0]),
                    rank_tol=rank_tol)


@dataclass
class FlagLevel:
    """Flag level ``level`` over an (m, n) batch of points.

    Point i's subspace has the orthonormal basis ``bases[i, :, :dims[i]]``
    (zero columns pad it to the batch's largest level-0 dim) and the rank gap
    ``gaps[i]``; indexing gives it as a :class:`Subspace`.  A point that the
    step making this level found irregular has dim -1 and its
    :class:`IrregularPoint` in ``errors``, by index.
    """

    dims: np.ndarray  # (m,) int
    bases: np.ndarray  # (m, N, D)
    gaps: np.ndarray  # (m,)
    rank_tol: float
    level: int = 0
    errors: dict = field(default_factory=dict)

    def take(self, idx) -> "FlagLevel":
        """The level at the points of the index array ``idx``; a copy."""
        return FlagLevel(self.dims[idx], self.bases[idx], self.gaps[idx],
                         self.rank_tol, self.level)

    def __getitem__(self, i) -> Subspace:
        return Subspace(self.bases.shape[1], self.bases[i, :, :self.dims[i]],
                        sv_gap=float(self.gaps[i]), rank_tol=self.rank_tol)


def curvature_kernel(spec: ConnectionSpec, points,
                     rank_tol: float = DEFAULT_RANK_TOL) -> FlagLevel:
    """Flag level 0 at one point or an (m, n) batch: the common kernel of all
    curvature operators."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    spec.domain.require_admissible(pts, spec.params)
    R = curvature_stack(spec, pts)
    m, P, N, _ = R.shape
    if P == 0:  # one-dimensional chart: no curvature constraints
        return FlagLevel(np.full(m, N), np.broadcast_to(np.eye(N), (m, N, N)),
                         np.full(m, math.inf), rank_tol)
    dims, gaps, vt = _kernels(R.reshape(m, P * N, N), rank_tol, 0.0)
    bases = np.zeros((m, N, dims.max(initial=0)))
    for d, idx in _groups(dims):
        bases[idx, :, :d] = vt[idx, N - d:].transpose(0, 2, 1)
    return FlagLevel(dims, bases, gaps, rank_tol)


def default_stencil(spec: ConnectionSpec) -> float:
    return 1e-4 * spec.domain.scale


def _alpha_floor(stencil_h: float) -> float:
    # central differences of the tracked bases carry O(h^2) truncation;
    # rank decisions on the projected derivatives must sit above that noise
    return max(_TINY_CUTOFF, 100.0 * stencil_h * stencil_h)


def _align(V, B):
    """Rotate each basis of ``B`` (m, N, d) onto ``V`` (m, N, d) by the polar
    factor of ``B^T V``."""
    u, _, vt = np.linalg.svd(np.matmul(B.transpose(0, 2, 1), V))
    return np.matmul(B, np.matmul(u, vt))


def second_fundamental_kernel(spec: ConnectionSpec, points, V: FlagLevel,
                              stencil_h: float,
                              rank_tol: float = DEFAULT_RANK_TOL) -> FlagLevel:
    """The next flag level after ``V`` at one point or an (m, n) batch: the
    kernel of the second fundamental form of V.

    The scheme: compute V's level at the stencil points ``p +- h e_k``
    with the flag engine, mark p irregular if any of them has another
    dimension or is irregular itself, align the stencil bases to V(p) by the
    polar factor, centrally difference the tracked sections, add the
    connection term, project onto the orthogonal complement of V(p), and
    pull the coefficient kernel back into the fiber.  A zero or full V is its
    own kernel.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, N = spec.n, spec.N
    out = V.take(np.arange(len(pts)))
    out.level += 1
    cut = np.flatnonzero((V.dims > 0) & (V.dims < N))
    if not cut.size:
        return out
    stencil = []  # per shift s: (s, V's level at pts[cut] + s, errors)
    for k in range(n):
        e = np.zeros(n)
        e[k] = stencil_h
        for s in (e, -e):
            levels, _, errors = _flag(spec, pts[cut] + s, stencil_h, rank_tol,
                                      depth=V.level)
            stencil.append((s, levels[-1], errors))
    bad = np.array([lv.dims != V.dims[cut] for _, lv, _ in stencil])
    for r in map(int, np.flatnonzero(bad.any(axis=0))):
        s, lv, errors = stencil[int(np.argmax(bad[:, r]))]
        i = int(cut[r])
        out.dims[i] = -1
        out.errors[i] = IrregularPoint(pts[i], out.level, detail=(
            str(errors[r]) if r in errors else
            f"dim {lv.dims[r]} != {V.dims[i]} at {(pts[i] + s).tolist()}"))
    good = np.flatnonzero(~bad.any(axis=0))
    omega = omega_stack(spec, pts[cut[good]])
    for d, g in _groups(V.dims[cut[good]]):
        idx, r = cut[good[g]], good[g]
        Vb = V.bases[idx, :, :d]
        Pperp = np.eye(N) - np.matmul(Vb, Vb.transpose(0, 2, 1))
        rows = []
        for k in range(n):
            plus, minus = (_align(Vb, stencil[j][1].bases[r, :, :d])
                           for j in (2 * k, 2 * k + 1))
            dB = (plus - minus) / (2.0 * stencil_h)
            nabla = dB + np.matmul(omega[g, k], Vb)
            rows.append(np.matmul(Pperp, nabla))
        dims, gaps, vt = _kernels(np.concatenate(rows, axis=1), rank_tol,
                                  _alpha_floor(stencil_h))
        out.dims[idx], out.gaps[idx], out.bases[idx] = dims, gaps, 0.0
        for dd, h in _groups(dims):
            out.bases[idx[h], :, :dd] = np.matmul(
                Vb[h], vt[h, d - dd:].transpose(0, 2, 1))
    return out


def _flag(spec, pts, stencil_h, rank_tol, depth=None, max_levels=None):
    """The flag's one level loop, over an (m, n) batch of points.

    With ``depth`` None each point runs until its dimension stabilizes or
    dies, and one still running at level ``max_levels`` raises
    :class:`MaxLevelsExceeded`; with an int ``depth`` every point runs to
    that level, which the stencil of level ``depth + 1`` needs.  Returns the
    levels (each over the whole batch; a point that stopped keeps its last
    subspace), each point's last level, and the :class:`IrregularPoint` of
    every point that a stencil dimension jump ended, by index.  ``None``
    settings take the defaults: :func:`default_stencil` and N + 1 levels.
    """
    if stencil_h is None:
        stencil_h = default_stencil(spec)
    if max_levels is None:
        max_levels = spec.N + 1
    m = len(pts)
    levels = [curvature_kernel(spec, pts, rank_tol)]
    last = np.full(m, -1)
    errors = {}
    prev = np.full(m, spec.N)
    while True:
        cur = levels[-1]
        stop = (((cur.dims == prev) | (cur.dims == 0)) if depth is None
                else cur.level == depth)
        last[(last < 0) & (stop | (cur.dims < 0))] = cur.level
        active = np.flatnonzero(last < 0)
        if not active.size:
            return levels, last, errors
        if depth is None and cur.level >= max_levels:
            raise MaxLevelsExceeded(f"flag at {pts[active[0]].tolist()} did "
                                    f"not stabilize in {max_levels} levels")
        step = second_fundamental_kernel(spec, pts[active], cur.take(active),
                                         stencil_h, rank_tol)
        errors.update((int(active[j]), exc) for j, exc in step.errors.items())
        nxt = cur.take(np.arange(m))
        nxt.level += 1
        nxt.dims[active], nxt.bases[active], nxt.gaps[active] = \
            step.dims, step.bases, step.gaps
        prev = cur.dims
        levels.append(nxt)


@dataclass
class FlagTrace:
    """Flag levels computed at one point, with the terminal subspace."""

    point: np.ndarray
    levels: list  # of (level, dim, Subspace)
    stabilization_level: int

    @property
    def dims(self):
        return [d for _, d, _ in self.levels]

    @property
    def terminal(self) -> Subspace:
        return self.levels[-1][2]


def _traces(spec, points, stencil_h, rank_tol, max_levels=None):
    """Nudge each point off breakpoints and run the engine over all of them;
    one FlagTrace per point, or its IrregularPoint."""
    pts = np.array([nudge_off_breakpoints(spec, p) for p in points])
    levels, last, errors = _flag(spec, pts, stencil_h, rank_tol,
                                 max_levels=max_levels)
    out = []
    for i, p in enumerate(pts):
        if i in errors:
            out.append(errors[i])
            continue
        subs = [lv[i] for lv in levels[:last[i] + 1]]
        out.append(FlagTrace(p, [(k, s.dim, s) for k, s in enumerate(subs)],
                             stabilization_level=int(last[i])))
    return out


def derived_flag(spec: ConnectionSpec, point, stencil_h: Optional[float] = None,
                 max_levels: Optional[int] = None,
                 rank_tol: float = DEFAULT_RANK_TOL) -> FlagTrace:
    """Iterate the flag at a point until the dimension stabilizes or dies.

    Dimensions must strictly decrease before stabilization, so the level of
    stabilization never exceeds the fiber dimension; exceeding ``max_levels``
    signals tolerance trouble and raises :class:`MaxLevelsExceeded`.  A
    point on a piecewise breakpoint is first nudged off it.
    """
    p = np.asarray(point, dtype=float)
    tr, = _traces(spec, p[None], stencil_h, rank_tol, max_levels)
    if isinstance(tr, IrregularPoint):
        raise tr
    return tr


def batch_terminal_bases(spec: ConnectionSpec, points,
                         stencil_h: Optional[float] = None,
                         rank_tol: float = DEFAULT_RANK_TOL,
                         max_levels: Optional[int] = None) -> np.ndarray:
    """Terminal flag bases over a batch of points; shape (m, N, d_terminal).

    Requires the flag dimensions to be uniform across the batch at every
    level: the first point that is irregular or whose dimensions differ from
    the first point's raises :class:`IrregularPoint`, naming the level.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    levels, _, errors = _flag(spec, pts, stencil_h, rank_tol,
                              max_levels=max_levels)
    dims = np.stack([lv.dims for lv in levels], axis=1)  # (m, levels)
    if 0 in errors:
        raise errors[0]
    differ = dims != dims[0]  # an irregular point's dim is -1
    if differ.any():
        i = int(np.argmax(differ.any(axis=1)))
        if i in errors:
            raise errors[i]
        level = int(np.argmax(differ[i]))
        raise IrregularPoint(pts[i], level, detail=(
            f"flag dim {dims[i, level]} != {dims[0, level]} at the batch's "
            f"first point {pts[0].tolist()}"))
    return np.ascontiguousarray(levels[-1].bases[:, :, :dims[0, -1]])


@dataclass
class RegularityReport:
    """Derived flags over a sample grid with terminal-dimension jumps."""

    axes: list  # per-coordinate sample values
    points: np.ndarray  # (m, n) in row-major axis order
    traces: list  # FlagTrace per point, None where IrregularPoint
    dims: list  # terminal dim per point, None where IrregularPoint
    regular_on_grid: bool
    jumps: list  # (point_a, point_b, dim_a, dim_b)
    irregular_points: list


def regularity_scan(spec: ConnectionSpec, axes,
                    stencil_h: Optional[float] = None,
                    rank_tol: float = DEFAULT_RANK_TOL) -> RegularityReport:
    """Derived flag at every node of a product grid.

    ``axes`` is one list of sample values per coordinate.  Every point's
    :class:`FlagTrace` is kept; IrregularPoint failures are recorded (trace
    and dim ``None``), not fatal.  The verdict is true exactly when every
    point produced the same terminal dimension.
    """
    axes = [list(map(float, a)) for a in axes]
    if len(axes) != spec.n or any(len(a) == 0 for a in axes):
        raise EmptyGrid("grid needs at least one sample per coordinate")
    mesh = np.meshgrid(*axes, indexing="ij")
    shape = mesh[0].shape
    pts = np.stack([m.ravel() for m in mesh], axis=1)

    traces = [None if isinstance(tr, IrregularPoint) else tr for tr in
              _traces(spec, pts, stencil_h, rank_tol)]
    dims = [None if tr is None else tr.dims[-1] for tr in traces]

    grid_dims = np.empty(shape, dtype=object)
    grid_dims.ravel()[:] = dims
    jumps = []
    for axis in range(len(axes)):
        for idx in np.ndindex(shape):
            if idx[axis] + 1 >= shape[axis]:
                continue
            jdx = list(idx)
            jdx[axis] += 1
            a, b = grid_dims[idx], grid_dims[tuple(jdx)]
            if a is not None and b is not None and a != b:
                pa = [axes[c][idx[c]] for c in range(len(axes))]
                pb = [axes[c][jdx[c]] for c in range(len(axes))]
                jumps.append((pa, pb, a, b))
    regular = None not in dims and len(set(dims)) == 1
    irregular = [pts[i].tolist() for i, d in enumerate(dims) if d is None]
    return RegularityReport(axes, pts, traces, dims, regular, jumps,
                            irregular)


@dataclass
class LocalMetricity:
    locally_metric: bool
    status: str
    coefficients: Optional[np.ndarray]
    cholesky: Optional[np.ndarray]
    best_lambda: float


def local_metricity(spec: ConnectionSpec, point, trace: FlagTrace,
                    tol: float = 1e-8, restarts: int = 32,
                    seed: int = 0) -> LocalMetricity:
    """Does the terminal subspace contain a positive-definite form?

    Only meaningful for Christoffel connections, whose fiber is the space of
    symmetric two-tensors; raises :class:`NotSym2Bundle` otherwise.
    """
    from . import pdcone
    if spec.kind != "christoffel":
        raise NotSym2Bundle("local metricity is defined on the Sym^2 bundle only")
    term = trace.terminal
    if term.dim == 0:
        return LocalMetricity(False, "infeasible_certified", None, None, 0.0)
    span = pdcone.SymSpan.from_fiber_vectors(spec.sym, term.basis)
    res = pdcone.pd_feasible(span, tol=tol, restarts=restarts, seed=seed)
    return LocalMetricity(res.status == "feasible", res.status,
                          res.coefficients, res.cholesky, res.best_lambda)
