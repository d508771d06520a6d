"""Chart domain, connection specification, induced connection and curvature.

The fiber convention throughout: a section with component vector ``h``
satisfies ``nabla_k h = d_k h + Omega_k h``, i.e. ``Omega_k`` is the frame
connection matrix and the parallel equation reads ``v' = -Omega(gamma') v``.
For Christoffel input the induced covariant derivative on a symmetric
two-tensor is ``d_k h_ij - G^l_ki h_lj - G^l_kj h_il`` (first lower index of
``G`` is the derivative direction), so ``Omega_k`` is minus that Gamma action
re-indexed through :class:`SymIndex`.  Curvature is

    R_ij = d_i Omega_j - d_j Omega_i + Omega_i Omega_j - Omega_j Omega_i

with the overall sign pinned by the sphere-connection golden values in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement, product
from math import comb, prod
from typing import Optional, Sequence

import numpy as np

from .expr import Const, Expr, compile_expr, diff, free_names

__all__ = [
    "Domain", "SymIndex", "ConnectionSpec", "BundleError",
    "PointOutsideDomain", "ExpressionEvalFailure",
    "connection_matrices", "curvature_operators", "curvature_pairs",
    "omega_stack", "curvature_stack", "covariant_curvature_stack",
    "nudge_off_breakpoints",
]


class BundleError(ValueError):
    """Base class for chart/connection failures."""


class PointOutsideDomain(BundleError):
    pass


class ExpressionEvalFailure(BundleError):
    pass


@dataclass(frozen=True)
class Domain:
    """Open coordinate box with optional periodic coordinates and exclusions.

    A point is excluded when any excluded-set expression evaluates to a value
    with absolute value below ``exclusion_radius``.
    """

    names: tuple
    lows: tuple
    highs: tuple
    periods: tuple = None
    excluded: tuple = ()
    exclusion_radius: float = 1e-6

    def __post_init__(self):
        n = len(self.names)
        if n < 1 or len(self.lows) != n or len(self.highs) != n:
            raise BundleError("coordinate names and ranges disagree")
        for lo, hi in zip(self.lows, self.highs):
            if not lo < hi:
                raise BundleError(f"degenerate range [{lo}, {hi}]")
        if self.periods is None:
            object.__setattr__(self, "periods", (None,) * n)
        elif len(self.periods) != n:
            raise BundleError("one period entry per coordinate required")

    @property
    def dim(self):
        return len(self.names)

    def env(self, points, params):
        """Evaluation environment for an (m, n) batch or a single point."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        env = {name: pts[:, i] for i, name in enumerate(self.names)}
        env.update(params)
        return env

    @cached_property
    def _excluded_fns(self):
        """Compiled excluded-set expressions, built on first use."""
        return [compile_expr(e) for e in self.excluded]

    def admissible(self, point, params=None):
        try:
            self.require_admissible(point, params)
        except PointOutsideDomain:
            return False
        return True

    def require_admissible(self, points, params=None):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        inside = np.ones(pts.shape[0], dtype=bool)
        for i, per in enumerate(self.periods):
            if per is None:
                inside &= (pts[:, i] > self.lows[i]) & (pts[:, i] < self.highs[i])
        if not np.all(inside):
            bad = pts[~inside][0]
            raise PointOutsideDomain(f"point {bad.tolist()} outside chart box")
        if self.excluded:
            env = self.env(pts, params or {})
            for fn in self._excluded_fns:
                val = np.abs(np.asarray(fn(env), dtype=float))
                val = np.broadcast_to(val, (pts.shape[0],))
                if np.any(val < self.exclusion_radius):
                    bad = pts[val < self.exclusion_radius][0]
                    raise PointOutsideDomain(
                        f"point {bad.tolist()} inside excluded set")

    def wrap_delta(self, delta):
        """Reduce a coordinate difference modulo declared periods."""
        d = np.array(delta, dtype=float)
        for i, per in enumerate(self.periods):
            if per is not None:
                d[i] = (d[i] + per / 2.0) % per - per / 2.0
        return d


class SymIndex:
    """Bijection between unordered coordinate pairs (i <= j) and fiber slots.

    Diagonal pairs come first, so for n = 2 the basis order is
    ``dx1 (x) dx1``, ``dx2 (x) dx2``, ``dx1 (x) dx2 + dx2 (x) dx1``.
    """

    def __init__(self, n: int):
        self.n = n
        self.pairs = [(i, i) for i in range(n)] + \
            [(i, j) for i in range(n) for j in range(i + 1, n)]
        self.N = len(self.pairs)
        assert self.N == n * (n + 1) // 2
        self._index = {p: a for a, p in enumerate(self.pairs)}
        # basis matrices E_A, shape (N, n, n)
        basis = np.zeros((self.N, n, n))
        for a, (i, j) in enumerate(self.pairs):
            basis[a, i, j] = 1.0
            basis[a, j, i] = 1.0
        self.basis = basis

    @cached_property
    def gamma_action(self) -> np.ndarray:
        """Linear map of G_k to the matrix of h -> G_k^T H + H G_k.

        Shape (n^2, N^2): row ``l*n + i`` holds the action of the unit
        ``G[l, i] = 1`` (upper l, lower i), column ``A*N + B`` the entry that
        maps coefficient B to coefficient A.  Built on first use.
        """
        n, N, E = self.n, self.N, self.basis
        M = np.zeros((n, n, N, N))  # [l, i, A, B]
        for A, (a, b) in enumerate(self.pairs):
            # (G^T E_B)[a, b] = G[l, a] E_B[l, b]
            # (E_B G)[a, b] = E_B[a, l] G[l, b]
            M[:, a, A, :] += E[:, :, b].T
            M[:, b, A, :] += E[:, a, :].T
        return M.reshape(n * n, N * N)

    def index_of(self, i, j):
        return self._index[(min(i, j), max(i, j))]

    def to_matrix(self, vec):
        """Coefficient vector -> symmetric n x n matrix."""
        v = np.asarray(vec, dtype=float)
        return np.einsum("...a,aij->...ij", v, self.basis)

    def to_vec(self, mat):
        """Symmetric matrix -> coefficient vector (reads entries at i <= j)."""
        m = np.asarray(mat, dtype=float)
        return np.stack([m[..., i, j] for i, j in self.pairs], axis=-1)


class ConnectionSpec:
    """A connection given by chart Christoffel symbols or raw form matrices.

    ``kind='christoffel'``: ``gamma[(l, k, i)]`` holds the expression for
    ``G^l_{ki}`` (k the derivative direction); omitted entries are zero and
    symmetry in the lower indices is NOT assumed.  The fiber is the
    ``n(n+1)/2``-dimensional space of symmetric two-tensor coefficients.

    ``kind='matrix'``: ``omega[i][j][k]`` holds the expression for the
    ``(i, j)`` entry of ``Omega_k`` on an abstract rank-``fiber_dim`` bundle,
    used verbatim under the sign convention in the module docstring.
    """

    def __init__(self, domain: Domain, *, kind: str, params: Optional[dict] = None,
                 gamma: Optional[dict] = None, fiber_dim: Optional[int] = None,
                 omega: Optional[Sequence] = None):
        if kind not in ("christoffel", "matrix"):
            raise BundleError(f"unknown connection kind {kind!r}")
        self.domain = domain
        self.kind = kind
        self.params = dict(params or {})
        n = domain.dim
        self.n = n
        declared = set(domain.names) | set(self.params) | {"pi"}

        if kind == "christoffel":
            self.sym = SymIndex(n)
            self.N = self.sym.N
            self.gamma = dict(gamma or {})
            for (l, k, i), e in self.gamma.items():
                if not (0 <= l < n and 0 <= k < n and 0 <= i < n):
                    raise BundleError(f"christoffel index {(l, k, i)} out of range")
                self._check_names(e, declared)
            self.omega = None
        else:
            if fiber_dim is None or fiber_dim < 1:
                raise BundleError("matrix connection needs fiber_dim >= 1")
            self.N = int(fiber_dim)
            self.sym = None
            self.gamma = None
            self.omega = omega
            for i in range(self.N):
                for j in range(self.N):
                    for k in range(n):
                        self._check_names(omega[i][j][k], declared)
        for e in domain.excluded:
            self._check_names(e, declared)
        self._partial_exprs = []  # per order, see _table
        self._compiled = {}
        self._conditions = None

    @staticmethod
    def _check_names(e: Expr, declared):
        extra = free_names(e) - declared
        if extra:
            raise BundleError(f"undeclared names {sorted(extra)} in '{e}'")

    # -- compiled entry tables ------------------------------------------------

    def _entries(self):
        """Each connection entry as ``(index, expr)``; see :meth:`_table`."""
        if self.kind == "christoffel":
            return [((k, l, i), e) for (l, k, i), e in self.gamma.items()]
        return [((k, i, j), self.omega[i][j][k]) for i in range(self.N)
                for j in range(self.N) for k in range(self.n)]

    def _table(self, order):
        """Compiled partial derivatives of order ``order`` of the connection
        entries, as ``(index, fn)``, skipping the constant +0.0; built on
        first use from the exact :func:`diff` of the order below.

        Each index ``(t,) + entry`` addresses, after the batch axis, the array
        that :func:`_partials` fills: ``t`` numbers the derivative directions
        as :func:`_multi_indices` lists them, and ``entry`` is ``(k, l, i)``
        of ``G`` for Christoffel input or ``(k, i, j)`` of ``Omega`` for
        matrix input.  A skipped entry keeps the zero that array starts with;
        a ``-0.0`` constant is kept, so every output bit is that of evaluating
        all entries.
        """
        exprs = self._partial_exprs
        if not exprs:  # order 0: (sorted directions, index, expr)
            exprs.append([((), idx, e) for idx, e in self._entries()])
        while len(exprs) <= order:
            exprs.append([(dirs + (d,), idx, diff(e, self.domain.names[d]))
                          for dirs, idx, e in exprs[-1] if not _is_zero(e)
                          for d in range(dirs[-1] if dirs else 0, self.n)])
        if order not in self._compiled:
            pos = {dirs: t for t, dirs in enumerate(
                combinations_with_replacement(range(self.n), order))}
            self._compiled[order] = [
                ((pos[dirs],) + idx, compile_expr(e))
                for dirs, idx, e in exprs[order] if not _is_zero(e)]
        return self._compiled[order]

    def _breakpoints(self):
        """Compiled :meth:`piecewise_conditions`, built on first use."""
        if self._conditions is None:
            self._conditions = [compile_expr(c)
                                for c in self.piecewise_conditions()]
        return self._conditions

    def piecewise_conditions(self):
        """All (lhs - rhs) condition expressions appearing in the spec."""
        conds = []

        def walk(e):
            from .expr import Binary, Piecewise, Unary
            if isinstance(e, Piecewise):
                conds.append(Binary("sub", e.lhs, e.rhs))
                walk(e.lhs); walk(e.rhs); walk(e.then); walk(e.other)
            elif isinstance(e, Unary):
                walk(e.arg)
            elif isinstance(e, Binary):
                walk(e.left); walk(e.right)

        for _, e in self._entries():
            walk(e)
        return conds


def nudge_off_breakpoints(spec: ConnectionSpec, points, eps: float = 1e-12):
    """Shift each point of an (m, n) batch that lands exactly on a piecewise
    breakpoint by +eps; returns a new (m, n) array."""
    pts = np.array(points, dtype=float)
    env = spec.domain.env(pts, spec.params)
    hit = np.zeros(len(pts), dtype=bool)
    for fn in spec._breakpoints():
        hit |= np.asarray(fn(env), dtype=float) == 0.0
    pts[hit] += eps
    return pts


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0.0 and not np.signbit(e.value)


def _assemble(spec: ConnectionSpec, table, points, lead, what) -> np.ndarray:
    """Evaluate a compiled table over an (m, n) batch; shape (m, *lead, N, N).

    Matrix entries fill the result directly.  Christoffel entries fill
    ``G[m, *lead, l, i]``, which the linear Gamma action maps to the fiber.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m, n, N = pts.shape[0], spec.n, spec.N
    env = spec.domain.env(pts, spec.params)
    christoffel = spec.kind == "christoffel"
    out = np.zeros((m, *lead) + ((n, n) if christoffel else (N, N)))
    with np.errstate(all="ignore"):
        for idx, fn in table:
            out[(slice(None),) + idx] = fn(env)
        if christoffel:
            out = out.reshape(-1, n * n) @ spec.sym.gamma_action
            out = np.negative(out, out=out).reshape(m, *lead, N, N)
    if not np.all(np.isfinite(out)):
        bad = pts[~np.all(np.isfinite(out), axis=tuple(range(1, out.ndim)))][0]
        raise ExpressionEvalFailure(f"{what} not finite at {bad.tolist()}")
    return out


def _multi_indices(n: int, order: int):
    """The partial derivatives of one order as count vectors, numbered like
    the sorted direction tuples of :meth:`ConnectionSpec._table`."""
    return [tuple(dirs.count(c) for c in range(n))
            for dirs in combinations_with_replacement(range(n), order)]


def _up(alpha, k):
    """Count vector ``alpha`` with one more derivative in direction k."""
    return alpha[:k] + (alpha[k] + 1,) + alpha[k + 1:]


def _leibniz(alpha):
    """``(beta, alpha - beta, C(alpha, beta))`` for every ``beta <= alpha``."""
    for beta in product(*(range(a + 1) for a in alpha)):
        yield (beta, tuple(a - b for a, b in zip(alpha, beta)),
               prod(comb(a, b) for a, b in zip(alpha, beta)))


def _partials(spec: ConnectionSpec, points, order: int) -> np.ndarray:
    """Partial derivatives of one order of the Omega_k over an (m, n) batch;
    shape (m, T, n_k, N, N), T numbering them as :func:`_multi_indices`."""
    what = "connection derivative" if order else "connection entries"
    return _assemble(spec, spec._table(order), points,
                     (comb(spec.n + order - 1, order), spec.n), what)


def omega_stack(spec: ConnectionSpec, points) -> np.ndarray:
    """Connection matrices Omega_k over an (m, n) batch; shape (m, n, N, N)."""
    return _partials(spec, points, 0)[:, 0]


def curvature_pairs(n: int):
    """Ordered coordinate pairs (i, j), i < j, indexing curvature operators."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def curvature_stack(spec: ConnectionSpec, points) -> np.ndarray:
    """Curvature operators R_ij over an (m, n) batch; shape (m, P, N, N)."""
    return covariant_curvature_stack(spec, points, 0)[:, 0]


def covariant_curvature_stack(spec: ConnectionSpec, points,
                              order: int) -> np.ndarray:
    """Covariant derivatives nabla_{k_order} ... nabla_{k_1} R_ij over an
    (m, n) batch; shape (m, n**order, P, N, N), the strings (k_order, ...,
    k_1) in row-major order and the pairs as :func:`curvature_pairs`.

    ``nabla_k T = d_k T + [Omega_k, T]`` acts on the fiber, and the base
    indices are labels.  Every term is exact, by the Leibniz rule: the
    partials of R up to ``order`` come from those of Omega up to
    ``order + 1``, and each nabla_k maps the partials of a stack up to some
    order to those of its derivative up to one order less.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m, n, N = pts.shape[0], spec.n, spec.N
    pairs = curvature_pairs(n)
    if not pairs:
        return np.zeros((m, n ** order, 0, N, N))
    # d^alpha Omega_k, (m, n_k, N, N), by count vector alpha
    omega = {(0,) * n: omega_stack(spec, pts)}
    for o in range(1, order + 2):
        stack = _partials(spec, pts, o)
        omega.update((a, stack[:, t])
                     for t, a in enumerate(_multi_indices(n, o)))
    jet = {}  # d^alpha of the current stack, (m, strings, P, N, N)
    for o in range(order + 1):
        for a in _multi_indices(n, o):
            R = np.empty((m, 1, len(pairs), N, N))
            for idx, (i, j) in enumerate(pairs):
                r = omega[_up(a, i)][:, j] - omega[_up(a, j)][:, i]
                for b, rest, c in _leibniz(a):
                    r += c * np.matmul(omega[b][:, i], omega[rest][:, j])
                    r -= c * np.matmul(omega[b][:, j], omega[rest][:, i])
                R[:, 0, idx] = r
            jet[a] = R
    for top in range(order - 1, -1, -1):
        # d^a nabla_k T = d^(a+e_k) T + sum_b C(a, b) [d^b Omega_k, d^(a-b) T]
        nxt = {}
        for a in (a for o in range(top + 1) for a in _multi_indices(n, o)):
            parts = []
            for k in range(n):
                t = jet[_up(a, k)].copy()
                for b, rest, c in _leibniz(a):
                    om = omega[b][:, None, None, k]
                    t += c * (np.matmul(om, jet[rest])
                              - np.matmul(jet[rest], om))
                parts.append(t)
            nxt[a] = np.concatenate(parts, axis=1)
        jet = nxt
    return jet[(0,) * n]


def connection_matrices(spec: ConnectionSpec, point) -> np.ndarray:
    """Stack of n matrices Omega_k at a point; shape (n, N, N)."""
    p = np.asarray(point, dtype=float)
    spec.domain.require_admissible(p, spec.params)
    return omega_stack(spec, p)[0]


def curvature_operators(spec: ConnectionSpec, point) -> np.ndarray:
    """Stack of curvature operators R_ij (i < j) at a point; shape (P, N, N).

    Pair order matches :func:`curvature_pairs`.
    """
    p = np.asarray(point, dtype=float)
    spec.domain.require_admissible(p, spec.params)
    return curvature_stack(spec, p)[0]
