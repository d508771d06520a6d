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

Every level is exact, with no step size.  Where the dimensions are locally
constant, level L is the common kernel of R, nabla R, ..., nabla^L R, with
``nabla_k T = d_k T + [Omega_k, T]`` (the infinitesimal holonomy of
Kobayashi-Nomizu I, II.10): for a section s of level L, differentiating
``(nabla^j R) s = 0`` gives ``(nabla_k nabla^j R) s = -(nabla^j R) nabla_k s``
for j <= L, so nabla_k s stays in level L exactly where nabla^(L+1) R
annihilates s.  The second fundamental kernel of level L is therefore its
intersection with the kernel of nabla^(L+1) R.

One batched engine computes every flag: ``_flag`` checks an (m, n) batch
against the domain once, groups its points into classes that agree bit for
bit on ``ConnectionSpec.coords`` (the chart coordinates the connection
names, which alone decide a point's flag) and runs the level loop once per
class; its results keep one row per class.  :func:`curvature_kernel` runs
over all the classes and :func:`second_fundamental_kernel` over slices of
at most ``_SLICE`` of them, grouping points by dimension where an SVD needs
one shape.  Every level reads the classes' :class:`~paracon.bundle.Jet`, so
each order of the partials of Omega and each d^alpha nabla^j R is evaluated
once per class: level L + 1 builds only the jet's next antidiagonal over
the rows level L left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bundle import (ConnectionSpec, Jet, covariant_curvature_stack,
                     curvature_stack, nudge_off_breakpoints)

__all__ = [
    "Subspace", "FlagLevel", "FlagTrace", "RegularityReport", "FlagError",
    "IrregularPoint", "NotSym2Bundle", "EmptyGrid",
    "kernel_intersection", "curvature_kernel", "second_fundamental_kernel",
    "derived_flag", "regularity_scan", "local_metricity",
    "principal_angles", "canonical_basis", "batch_terminal_bases",
    "DEFAULT_RANK_TOL",
]

DEFAULT_RANK_TOL = 1e-7
# absolute fallback when the stacked matrix is numerically zero
_TINY_SIGMA = 1e-12
_TINY_CUTOFF = 1e-10
# column norms within this relative distance of the largest tie for a pivot
_PIVOT_TIE = 1e-8
# points per slice of the flag's levels after the first, which bounds the
# memory of the higher partials of Omega over a large batch
_SLICE = 256


class FlagError(RuntimeError):
    pass


class IrregularPoint(FlagError):
    """A point's flag dimensions differ from those of the points it must
    agree with."""

    def __init__(self, point, level, detail=""):
        self.point = np.asarray(point, dtype=float)
        self.level = level
        msg = f"flag dimension jump at {self.point.tolist()} (level {level})"
        super().__init__(msg + (f": {detail}" if detail else ""))


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


def canonical_basis(basis) -> np.ndarray:
    """Orthonormal basis of the span of ``basis`` that depends on the span
    alone, not on the basis it was given in.

    Pivoted Gram-Schmidt on the columns of the projector P onto the span:
    each step takes the column of largest norm (the lowest index among
    near-ties) and normalizes it, then removes its direction from P.  The
    pivot entry of each vector is positive, so a rank-one span gets the unit
    vector whose largest-|entry| is positive.  Unlike fixing the sign of each
    SVD column, this also pins a span of dim >= 2, whose singular vectors are
    any rotation of each other when the singular values tie.
    """
    B = np.asarray(basis, dtype=float)
    P = B @ B.T
    out = np.empty(B.shape)
    for i in range(B.shape[1]):
        norms = np.linalg.norm(P, axis=0)
        j = int(np.argmax(norms >= (1.0 - _PIVOT_TIE) * norms.max()))
        q = P[:, j] / norms[j]
        out[:, i] = q
        P = P - np.outer(q, q)
    return out


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
    return Subspace(N, vt[0, N - dims[0]:].T, sv_gap=float(gaps[0]))


@dataclass
class FlagLevel:
    """Flag level ``level`` over an (m, n) batch of points.

    Point i's subspace has the orthonormal basis ``bases[i, :, :dims[i]]``
    (zero columns pad it to the batch's largest level-0 dim) and the rank gap
    ``gaps[i]``; indexing gives it as a :class:`Subspace`.
    """

    dims: np.ndarray  # (m,) int
    bases: np.ndarray  # (m, N, D)
    gaps: np.ndarray  # (m,)
    level: int = 0

    def take(self, idx) -> "FlagLevel":
        """The level at the points ``idx``: a copy for an index array, views
        for a slice."""
        return FlagLevel(self.dims[idx], self.bases[idx], self.gaps[idx],
                         self.level)

    def __getitem__(self, i) -> Subspace:
        return Subspace(self.bases.shape[1], self.bases[i, :, :self.dims[i]],
                        sv_gap=float(self.gaps[i]))


def curvature_kernel(spec: ConnectionSpec, points,
                     rank_tol: float = DEFAULT_RANK_TOL,
                     jet: Optional[Jet] = None) -> FlagLevel:
    """Flag level 0 at one point or an (m, n) batch: the common kernel of all
    curvature operators.  ``jet`` is the batch's :class:`Jet`, if it has
    one.  Like :func:`second_fundamental_kernel`, it takes points that its
    caller has checked against the domain."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    R = curvature_stack(spec, pts, jet=jet)
    # a 1-D chart has P = 0 operators, and the empty stack's kernel is N-dim
    m, P, N, _ = R.shape
    dims, gaps, vt = _kernels(R.reshape(m, P * N, N), rank_tol, 0.0)
    bases = np.zeros((m, N, dims.max(initial=0)))
    for d, idx in _groups(dims):
        bases[idx, :, :d] = vt[idx, N - d:].transpose(0, 2, 1)
    return FlagLevel(dims, bases, gaps)


def second_fundamental_kernel(spec: ConnectionSpec, points, V: FlagLevel,
                              rank_tol: float = DEFAULT_RANK_TOL,
                              jet: Optional[Jet] = None) -> FlagLevel:
    """The next flag level after ``V`` at one point or an (m, n) batch: the
    kernel of the second fundamental form of V.

    That kernel is V's intersection with the kernel of
    ``nabla^(L+1) R``, L = ``V.level`` (see the module docstring): the
    coefficient kernel of ``(nabla^(L+1) R) V``, pulled back into the fiber.
    A direction counts as annihilated below ``rank_tol`` times the
    Frobenius norm of ``nabla^(L+1) R``, the scale of its rounding on V.
    A zero or full V is its own kernel.  ``jet`` is the batch's
    :class:`Jet`, if it has one; the whole batch is evaluated at once.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    N = spec.N
    out = V.take(np.arange(len(pts)))
    out.level += 1
    cut = np.flatnonzero((V.dims > 0) & (V.dims < N))
    if not cut.size:
        return out
    jet = Jet(spec, pts) if jet is None else jet
    if cut.size < len(pts):
        jet = jet.take(cut)
    D = covariant_curvature_stack(spec, pts[cut], out.level, jet)
    D = D.reshape(cut.size, -1, N)
    scale = np.linalg.norm(D, axis=(1, 2))
    for d, g in _groups(V.dims[cut]):
        idx = cut[g]
        Vb = V.bases[idx, :, :d]
        dims, gaps, vt = _kernels(np.matmul(D[g], Vb), rank_tol,
                                  rank_tol * scale[g])
        out.dims[idx], out.gaps[idx], out.bases[idx] = dims, gaps, 0.0
        for dd, h in _groups(dims):
            out.bases[idx[h], :, :dd] = np.matmul(
                Vb[h], vt[h, d - dd:].transpose(0, 2, 1))
    return out


def _flag(spec, pts, rank_tol):
    """The flag's one level loop, over an (m, n) batch of points (see the
    module docstring).  Each class runs, at its first point, until its
    dimension stabilizes or dies.  Returns the levels over the classes (a
    class that stopped keeps its last subspace), each class's last level,
    each class's point in order of first occurrence (``reps``) and each
    point's class, its row.  The later levels run in slices of ``_SLICE``
    classes, each on its part of the jet.
    """
    spec.domain.require_admissible(pts, spec.params)
    reps = classes = np.zeros(1, dtype=np.intp)  # one point is one class
    if len(pts) > 1:
        key = np.zeros(pts.shape)  # the bits on spec.coords, 0 elsewhere
        key[:, spec.coords] = pts[:, spec.coords]
        _, reps, inverse = np.unique(key.view((np.void, 8 * spec.n)).ravel(),
                                     return_index=True, return_inverse=True)
        order = np.argsort(reps)
        reps, classes = reps[order], np.argsort(order)[inverse]
    at = pts[reps]
    jet = Jet(spec, at)
    first = curvature_kernel(spec, at, rank_tol, jet)
    levels, last = _concat([_levels(spec, at[part], first.take(part),
                                    rank_tol, jet.take(part))
                            for part in (slice(s, s + _SLICE)
                                         for s in range(0, len(at), _SLICE))])
    return levels, last, reps, classes


def _levels(spec, pts, first, rank_tol, jet):
    """:func:`_flag` over one slice from its level 0, ``first``; every level
    reads ``jet``, narrowed to the points still running.

    The loop ends by level N - 1: a kernel is never larger than the level it
    is taken in, and a point stops once its dim is unchanged (the fiber's N
    counting as the dim before level 0) or zero, so a running point's dim
    falls strictly from N."""
    m = len(pts)
    levels = [first]
    last = np.full(m, -1)
    prev = np.full(m, spec.N)
    live = np.arange(m)  # the points of the jet
    while True:
        cur = levels[-1]
        last[(last < 0) & ((cur.dims == prev) | (cur.dims == 0))] = cur.level
        active = np.flatnonzero(last < 0)
        if not active.size:
            return levels, last
        if active.size < live.size:
            jet, live = jet.take(np.searchsorted(live, active)), active
        step = second_fundamental_kernel(spec, pts[active], cur.take(active),
                                         rank_tol, jet)
        nxt = cur.take(np.arange(m))
        nxt.level += 1
        nxt.dims[active], nxt.bases[active], nxt.gaps[active] = \
            step.dims, step.bases, step.gaps
        prev = cur.dims
        levels.append(nxt)


def _concat(parts):
    """The levels and last levels of a batch from those of its consecutive
    slices; a slice that stopped early keeps its last level."""
    if len(parts) == 1:
        return parts[0]
    out = []
    for k in range(max(len(levels) for levels, _ in parts)):
        lvs = [levels[min(k, len(levels) - 1)] for levels, _ in parts]
        dims, bases, gaps = (np.concatenate([getattr(lv, f) for lv in lvs])
                             for f in ("dims", "bases", "gaps"))
        out.append(FlagLevel(dims, bases, gaps, k))
    return out, np.concatenate([last for _, last in parts])


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


def _trace(point, levels, last, c) -> FlagTrace:
    """The FlagTrace of a point of class c from ``_flag``'s class rows."""
    subs = [lv[c] for lv in levels[:last[c] + 1]]
    return FlagTrace(point, [(k, s.dim, s) for k, s in enumerate(subs)],
                     stabilization_level=int(last[c]))


def derived_flag(spec: ConnectionSpec, point,
                 rank_tol: float = DEFAULT_RANK_TOL) -> FlagTrace:
    """Iterate the flag at a point until the dimension stabilizes or dies.
    A point on a piecewise breakpoint is first nudged off it."""
    p = nudge_off_breakpoints(spec, [point])
    levels, last, _, _ = _flag(spec, p, rank_tol)
    return _trace(p[0], levels, last, 0)


def batch_terminal_bases(spec: ConnectionSpec, points,
                         rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Terminal flag bases over a batch of points; shape (m, N, d_terminal).

    Requires the flag dimensions to be uniform across the batch at every
    level: the first point whose dimensions differ from the first point's
    raises :class:`IrregularPoint`, naming the level.  Points of one class
    (see :func:`_flag`) get the same bits.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    levels, _, reps, classes = _flag(spec, pts, rank_tol)
    dims = np.stack([lv.dims for lv in levels], axis=1)  # (classes, levels)
    differ = dims != dims[0]
    if differ.any():
        # in order of first occurrence: reps[c] is the first differing point
        c = int(np.argmax(differ.any(axis=1)))
        level = int(np.argmax(differ[c]))
        raise IrregularPoint(pts[reps[c]], level, detail=(
            f"flag dim {dims[c, level]} != {dims[0, level]} at the batch's "
            f"first point {pts[0].tolist()}"))
    return np.ascontiguousarray(levels[-1].bases[classes, :, :dims[0, -1]])


@dataclass
class RegularityReport:
    """Derived flags over a sample grid with terminal-dimension jumps, held
    as the flag engine's class rows: node i's row is ``classes[i]``."""

    axes: list  # per-coordinate sample values
    points: np.ndarray  # (m, n) grid nodes in row-major axis order
    flag_points: np.ndarray  # (m, n) the nodes nudged off breakpoints
    # FlagLevels over the classes; a class that stopped keeps its subspace
    # in later levels, so levels[-1] holds every terminal subspace
    levels: list
    last: np.ndarray  # each class's stabilization level
    dims: np.ndarray  # (m,) each node's terminal dim
    regular_on_grid: bool
    jumps: list  # (point_a, point_b, dim_a, dim_b)
    reps: np.ndarray  # the node the flag ran at for each class
    classes: np.ndarray  # (m,) each node's class, an index into reps

    def trace(self, i) -> FlagTrace:
        """Node i's :class:`FlagTrace`, as :func:`derived_flag` gives it."""
        return _trace(self.flag_points[i], self.levels, self.last,
                      self.classes[i])


def regularity_scan(spec: ConnectionSpec, axes,
                    rank_tol: float = DEFAULT_RANK_TOL) -> RegularityReport:
    """Derived flag at every node of a product grid, in one batch.

    ``axes`` is one list of sample values per coordinate.  The nodes, nudged
    off breakpoints, go to the flag engine as one batch, which runs the flag
    once per class of nodes that agree on ``spec.coords``.  ``jumps`` lists
    each pair of neighbouring nodes whose terminal dims differ, axis by axis
    and in row-major order within an axis; the verdict is true exactly when
    there is none, as axis steps join every node to every other.
    """
    axes = [list(map(float, a)) for a in axes]
    if len(axes) != spec.n or any(len(a) == 0 for a in axes):
        raise EmptyGrid("grid needs at least one sample per coordinate")
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    flag_pts = nudge_off_breakpoints(spec, pts)
    levels, last, reps, classes = _flag(spec, flag_pts, rank_tol)

    grid = levels[-1].dims[classes].reshape(mesh[0].shape)
    jumps = []
    for axis in range(len(axes)):
        for a in np.argwhere(np.diff(grid, axis=axis)).tolist():
            b = a.copy()
            b[axis] += 1
            jumps.append(([axes[c][i] for c, i in enumerate(a)],
                          [axes[c][i] for c, i in enumerate(b)],
                          int(grid[tuple(a)]), int(grid[tuple(b)])))
    return RegularityReport(axes, pts, flag_pts, levels, last, grid.ravel(),
                            not jumps, jumps, reps, classes)


def local_metricity(spec: ConnectionSpec, terminal: FlagLevel,
                    tol: float = 1e-8) -> list:
    """Does each row's terminal subspace contain a positive-definite form?

    ``terminal`` is a terminal flag level, such as a scan's ``levels[-1]``
    (one row per class); one :class:`pdcone.PDResult` per row is returned,
    the row locally metric when its status is ``feasible``.  The spans of
    one terminal dim go through one :func:`pdcone.pd_feasible_batch` call,
    and its one start screen, with the same result as one ``pd_feasible``
    per row; a zero terminal subspace is a span of no generators, which is
    infeasible.

    Only meaningful for Christoffel connections, whose fiber is the space of
    symmetric two-tensors; raises :class:`NotSym2Bundle` otherwise.
    """
    from . import pdcone
    if spec.kind != "christoffel":
        raise NotSym2Bundle("local metricity is defined on the Sym^2 bundle only")
    out = np.empty(len(terminal.dims), dtype=object)
    for d, idx in _groups(terminal.dims):
        vecs = np.ascontiguousarray(
            terminal.bases[idx, :, :d].transpose(0, 2, 1))  # (m, d, N)
        out[idx] = pdcone.pd_feasible_batch(spec.sym.to_matrix(vecs), tol)
    return out.tolist()
