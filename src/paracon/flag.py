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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bundle import (ConnectionSpec, curvature_stack,
                     nudge_off_breakpoints, omega_stack)

__all__ = [
    "Subspace", "FlagTrace", "RegularityReport", "FlagError",
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


def _kernel_from_svd(sv, vt, rank_tol, abs_floor):
    """Shared rank decision: returns (mask of kernel directions, gap)."""
    smax = sv[0] if len(sv) else 0.0
    if smax < _TINY_SIGMA:
        cutoff = _TINY_CUTOFF
    else:
        cutoff = max(rank_tol * smax, abs_floor)
    mask = sv < cutoff
    kept = sv[~mask]
    dropped = sv[mask]
    if kept.size and dropped.size and dropped.max() > 0:
        gap = float(kept.min() / dropped.max())
    else:
        gap = math.inf
    return mask, gap


def kernel_intersection(mats, rank_tol: float = DEFAULT_RANK_TOL,
                        abs_floor: float = 0.0) -> Subspace:
    """Common kernel of a list of N x N matrices via SVD of the stack.

    Singular values below ``rank_tol * sigma_max`` (or below 1e-10 when
    ``sigma_max < 1e-12``) count as kernel directions; ``abs_floor`` raises
    the cutoff for callers whose matrices carry known integration noise.
    """
    if not 0.0 < rank_tol < 1.0:
        raise ValueError("rank_tol must lie in (0, 1)")
    mats = [np.asarray(m, dtype=float) for m in mats]
    if not mats:
        raise ValueError("at least one matrix required")
    N = mats[0].shape[1]
    stack = np.vstack(mats)
    _, sv, vt = np.linalg.svd(stack, full_matrices=True)
    sv = np.concatenate([sv, np.zeros(N - len(sv))])
    mask, gap = _kernel_from_svd(sv, vt, rank_tol, abs_floor)
    basis = vt[mask].T
    return Subspace(N, basis, sv_gap=gap, rank_tol=rank_tol)


def curvature_kernel(spec: ConnectionSpec, point,
                     rank_tol: float = DEFAULT_RANK_TOL) -> Subspace:
    """Level-0 flag subspace: common kernel of all curvature operators."""
    p = np.asarray(point, dtype=float)
    spec.domain.require_admissible(p, spec.params)
    R = curvature_stack(spec, p)[0]
    if R.shape[0] == 0:  # one-dimensional chart: no curvature constraints
        return Subspace.full(spec.N)
    return kernel_intersection(list(R), rank_tol)


def default_stencil(spec: ConnectionSpec) -> float:
    return 1e-4 * spec.domain.scale


def _alpha_floor(stencil_h: float) -> float:
    # central differences of the tracked bases carry O(h^2) truncation;
    # rank decisions on the projected derivatives must sit above that noise
    return max(_TINY_CUTOFF, 100.0 * stencil_h * stencil_h)


def _align_bases(base, others):
    """Rotate each basis in ``others`` to best match ``base`` (polar factor)."""
    aligned = []
    for B in others:
        M = B.T @ base.basis
        u, _, vt = np.linalg.svd(M)
        aligned.append(B @ (u @ vt))
    return aligned


def second_fundamental_kernel(spec: ConnectionSpec, point, V: Subspace,
                              stencil_h: float,
                              rank_tol: float = DEFAULT_RANK_TOL,
                              recompute: Optional[Callable] = None) -> Subspace:
    """Kernel of the second fundamental form of V at a point.

    ``recompute(q)`` must return the same-level subspace at a stencil point q;
    it defaults to the curvature kernel, matching a level-0 input V.  The
    scheme: recompute V at ``p +- h e_k``, fail with :class:`IrregularPoint`
    on any dimension change, align the stencil bases to V(p) by projection
    plus re-orthonormalization, centrally difference the tracked sections,
    add the connection term, project onto the orthogonal complement of V(p),
    and return the coefficient kernel pulled back into the fiber.
    """
    p = np.asarray(point, dtype=float)
    if V.dim == 0:
        raise ValueError("V must be non-zero")
    if recompute is None:
        recompute = lambda q: curvature_kernel(spec, q, rank_tol)
    n, N, d = spec.n, spec.N, V.dim
    if d == N:
        # zero quotient: every section is killed by the projection
        return Subspace(N, V.basis, sv_gap=V.sv_gap, rank_tol=rank_tol)

    plus, minus = [], []
    for k in range(n):
        e = np.zeros(n)
        e[k] = stencil_h
        for sign, bucket in ((1.0, plus), (-1.0, minus)):
            q = p + sign * e
            spec.domain.require_admissible(q, spec.params)
            sub = recompute(q)
            if sub.dim != d:
                raise IrregularPoint(p, level=None,
                                     detail=f"dim {sub.dim} != {d} at {q.tolist()}")
            bucket.append(sub.basis)
    plus = _align_bases(V, plus)
    minus = _align_bases(V, minus)

    omega = omega_stack(spec, p)[0]  # (n, N, N)
    Pperp = np.eye(N) - V.basis @ V.basis.T
    rows = []
    for k in range(n):
        dB = (plus[k] - minus[k]) / (2.0 * stencil_h)
        nabla = dB + omega[k] @ V.basis  # (N, d) columns = nabla_k X_a
        rows.append(Pperp @ nabla)
    Y = np.vstack(rows)  # (n*N, d)
    _, sv, vt = np.linalg.svd(Y, full_matrices=True)
    sv = np.concatenate([sv, np.zeros(d - len(sv))])
    mask, gap = _kernel_from_svd(sv, vt, rank_tol, _alpha_floor(stencil_h))
    coeff = vt[mask].T  # (d, d')
    return Subspace(N, V.basis @ coeff, sv_gap=gap, rank_tol=rank_tol)


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


def _subspace_at_level(spec, point, level, stencil_h, rank_tol):
    if level == 0:
        return curvature_kernel(spec, point, rank_tol)
    prev = lambda q: _subspace_at_level(spec, q, level - 1, stencil_h, rank_tol)
    V = prev(point)
    return second_fundamental_kernel(spec, point, V, stencil_h,
                                     rank_tol=rank_tol, recompute=prev)


def derived_flag(spec: ConnectionSpec, point, stencil_h: Optional[float] = None,
                 max_levels: Optional[int] = None,
                 rank_tol: float = DEFAULT_RANK_TOL) -> FlagTrace:
    """Iterate the flag at a point until the dimension stabilizes or dies.

    Dimensions must strictly decrease before stabilization, so the level of
    stabilization never exceeds the fiber dimension; exceeding ``max_levels``
    signals tolerance trouble and raises :class:`MaxLevelsExceeded`.
    """
    if stencil_h is None:
        stencil_h = default_stencil(spec)
    if max_levels is None:
        max_levels = spec.N + 1
    p = nudge_off_breakpoints(spec, point)
    spec.domain.require_admissible(p, spec.params)

    levels = []
    prev_dim = spec.N
    sub = curvature_kernel(spec, p, rank_tol)
    level = 0
    while True:
        levels.append((level, sub.dim, sub))
        if sub.dim == prev_dim or sub.dim == 0:
            return FlagTrace(p, levels, stabilization_level=level)
        if level >= max_levels:
            raise MaxLevelsExceeded(
                f"flag at {p.tolist()} did not stabilize in {max_levels} levels")
        prev_dim = sub.dim
        recompute = (lambda lv: (lambda q: _subspace_at_level(
            spec, q, lv, stencil_h, rank_tol)))(level)
        try:
            sub = second_fundamental_kernel(spec, p, sub, stencil_h,
                                            rank_tol=rank_tol,
                                            recompute=recompute)
        except IrregularPoint as exc:
            raise IrregularPoint(p, level=level + 1, detail=str(exc)) from None
        level += 1


# ---------------------------------------------------------------------------
# batched flag machinery (uniform dimensions across the batch)
#
# This mirrors the per-point pipeline above for callers that evaluate the
# terminal subspace at thousands of points (period quadrature); a dimension
# differing anywhere in the batch raises IrregularPoint.


def _batch_cutoffs(sv, rank_tol, abs_floor):
    smax = sv[:, 0] if sv.shape[1] else np.zeros(sv.shape[0])
    cut = np.maximum(rank_tol * smax, abs_floor)
    return np.where(smax < _TINY_SIGMA, _TINY_CUTOFF, cut)


def _batch_kernel(stack, rank_tol, abs_floor):
    """Kernels of a (m, rows, N) stack with a uniform-dimension requirement."""
    m, rows, N = stack.shape
    _, sv, vt = np.linalg.svd(stack, full_matrices=True)
    if sv.shape[1] < N:
        sv = np.concatenate([sv, np.zeros((m, N - sv.shape[1]))], axis=1)
    cut = _batch_cutoffs(sv, rank_tol, abs_floor)
    dims = (sv < cut[:, None]).sum(axis=1)
    d = int(dims[0])
    if not np.all(dims == d):
        raise IrregularPoint(np.zeros(0), level=None,
                             detail=f"kernel dims vary across batch "
                                    f"({sorted(set(int(x) for x in dims))})")
    if d == 0:
        return np.zeros((m, N, 0))
    return vt[:, N - d:, :].transpose(0, 2, 1)  # singular values descend


def _batch_level0(spec, points, rank_tol):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    spec.domain.require_admissible(pts, spec.params)
    R = curvature_stack(spec, pts)
    m, P, N, _ = R.shape
    if P == 0:
        return np.broadcast_to(np.eye(N), (m, N, N)).copy()
    return _batch_kernel(R.reshape(m, P * N, N), rank_tol, 0.0)


def _batch_align(base, other):
    """Rotate each basis in ``other`` (m, N, d) onto ``base`` (m, N, d)."""
    M = np.einsum("mia,mib->mab", other, base)
    u, _, vt = np.linalg.svd(M)
    return np.einsum("mia,mab->mib", other, np.matmul(u, vt))


def _batch_sff(spec, points, bases, stencil_h, rank_tol, recompute):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m, N, d = bases.shape
    n = spec.n
    if d == N:
        return bases
    plus, minus = [], []
    for k in range(n):
        e = np.zeros(n)
        e[k] = stencil_h
        for sign, bucket in ((1.0, plus), (-1.0, minus)):
            sub = recompute(pts + sign * e)
            if sub.shape[2] != d:
                raise IrregularPoint(pts[0], level=None,
                                     detail=f"stencil dim {sub.shape[2]} != {d}")
            bucket.append(_batch_align(bases, sub))
    omega = omega_stack(spec, pts)
    proj = np.matmul(bases, bases.transpose(0, 2, 1))  # (m, N, N)
    rows = []
    for k in range(n):
        dB = (plus[k] - minus[k]) / (2.0 * stencil_h)
        nabla = dB + np.matmul(omega[:, k], bases)
        rows.append(nabla - np.matmul(proj, nabla))
    Y = np.concatenate(rows, axis=1)  # (m, n*N, d)
    coeff = _batch_kernel(Y, rank_tol, _alpha_floor(stencil_h))
    return np.matmul(bases, coeff)


def _batch_bases_at_level(spec, points, level, stencil_h, rank_tol):
    if level == 0:
        return _batch_level0(spec, points, rank_tol)
    prev = lambda q: _batch_bases_at_level(spec, q, level - 1, stencil_h, rank_tol)
    bases = prev(points)
    return _batch_sff(spec, points, bases, stencil_h, rank_tol, prev)


def batch_terminal_bases(spec: ConnectionSpec, points,
                         stencil_h: Optional[float] = None,
                         rank_tol: float = DEFAULT_RANK_TOL,
                         max_levels: Optional[int] = None) -> np.ndarray:
    """Terminal flag bases over a batch of points; shape (m, N, d_terminal).

    Requires the flag dimensions to be uniform across the batch at every
    level (IrregularPoint otherwise).
    """
    if stencil_h is None:
        stencil_h = default_stencil(spec)
    if max_levels is None:
        max_levels = spec.N + 1
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    prev_dim = spec.N
    bases = _batch_level0(spec, pts, rank_tol)
    level = 0
    while True:
        d = bases.shape[2]
        if d == prev_dim or d == 0:
            return bases
        if level >= max_levels:
            raise MaxLevelsExceeded("batched flag did not stabilize")
        prev_dim = d
        recompute = (lambda lv: (lambda q: _batch_bases_at_level(
            spec, q, lv, stencil_h, rank_tol)))(level)
        bases = _batch_sff(spec, pts, bases, stencil_h, rank_tol, recompute)
        level += 1


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

    traces = []
    for p in pts:
        try:
            traces.append(derived_flag(spec, p, stencil_h, rank_tol=rank_tol))
        except IrregularPoint:
            traces.append(None)
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
