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
test suite.  A :class:`Jet` holds the partials of Omega over one batch of
points and builds each d^alpha nabla^j R from them once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement, product
from math import comb, prod
from typing import Optional, Sequence

import numpy as np

from .expr import (Binary, Const, Expr, Piecewise, Pool, compile_expr, diff,
                   free_names, split)

__all__ = [
    "Domain", "SymIndex", "ConnectionSpec", "BundleError",
    "PointOutsideDomain", "ExpressionEvalFailure", "ParameterShadows",
    "UndeclaredNames", "check_params", "check_names", "curvature_pairs",
    "omega_stack", "curvature_stack", "covariant_curvature_stack", "Jet",
    "nudge_off_breakpoints",
]


class BundleError(ValueError):
    """Base class for chart/connection failures."""


class PointOutsideDomain(BundleError):
    pass


class ExpressionEvalFailure(BundleError):
    pass


class ParameterShadows(BundleError):
    def __init__(self, name):
        super().__init__(f"parameter {name!r} may not take the name of a "
                         "coordinate, t or pi")
        self.name = name


def check_params(params, names=()):
    """Reject a parameter named like one of the coordinates ``names``, like
    the curve parameter ``t`` or like ``pi``: it would hide the coordinate or
    ``t``, or ``pi`` would hide it."""
    for k in params:
        if k in names or k in ("t", "pi"):
            raise ParameterShadows(k)


class UndeclaredNames(BundleError):
    def __init__(self, entry, names):
        super().__init__(f"formula {entry} names undeclared {names}")
        self.entry = entry
        self.names = names


def check_names(formulas, declared):
    """Reject a formula that names anything outside ``declared``.
    ``formulas`` holds ``(entry, expr)`` pairs; the entry locates the
    formula: ``(l, k, i)`` of gamma, ``(i, j, k)`` of omega, ``i`` of an
    excluded set, or ``k`` of a curve's coordinates."""
    for entry, e in formulas:
        extra = free_names(e).difference(declared)
        if extra:
            raise UndeclaredNames(entry, sorted(extra))


@dataclass(frozen=True)
class Domain:
    """Open coordinate box with optional periodic coordinates and exclusions.

    A point is excluded when any excluded-set expression evaluates to a value
    with absolute value below ``exclusion_radius``, or to NaN (undefined).
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
    def _excluded_tape(self):
        """The excluded-set expressions as one tape, built on first use."""
        return compile_expr(list(self.excluded))

    def require_admissible(self, points, params=None):
        """Raise :class:`PointOutsideDomain` unless every point is finite,
        inside the box on each non-periodic axis and off the excluded sets."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        inside = np.isfinite(pts).all(axis=1)
        for i, per in enumerate(self.periods):
            if per is None:
                inside &= (pts[:, i] > self.lows[i]) & (pts[:, i] < self.highs[i])
        if not np.all(inside):
            bad = pts[~inside][0]
            raise PointOutsideDomain(f"point {bad.tolist()} outside chart box")
        if self.excluded:
            env = self.env(pts, params or {})
            with np.errstate(invalid="ignore"):  # a NaN value is excluded
                vals = self._excluded_tape(env)
            for val in vals:
                hit = ~(np.abs(np.broadcast_to(val, pts.shape[:1]))
                        >= self.exclusion_radius)
                if np.any(hit):
                    bad = pts[hit][0]
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

    def to_matrix(self, vec):
        """Coefficient vector -> symmetric n x n matrix."""
        v = np.asarray(vec, dtype=float)
        return np.einsum("...a,aij->...ij", v, self.basis)


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
        check_params(self.params, domain.names)
        n = domain.dim
        self.n = n

        if kind == "christoffel":
            self.sym = SymIndex(n)
            self.N = self.sym.N
            self.gamma = dict(gamma or {})
            for l, k, i in self.gamma:
                if not (0 <= l < n and 0 <= k < n and 0 <= i < n):
                    raise BundleError(f"christoffel index {(l, k, i)} out of range")
            formulas = list(self.gamma.items())
            self.omega = None
        else:
            if fiber_dim is None or fiber_dim < 1:
                raise BundleError("matrix connection needs fiber_dim >= 1")
            self.N = int(fiber_dim)
            self.sym = None
            self.gamma = None
            self.omega = omega
            formulas = [((i, j, k), omega[i][j][k]) for i in range(self.N)
                        for j in range(self.N) for k in range(n)]
        check_names([*formulas, *enumerate(domain.excluded)],
                    {*domain.names, *self.params, "pi"})
        # the chart coordinates some entry names: the flag reads no other
        named = set().union(*(free_names(e) for _, e in self._entries()))
        self.coords = [i for i, c in enumerate(domain.names) if c in named]
        self._pool = Pool()  # interns every table expression
        self._partial_exprs = []  # per order, see _table
        self._tapes = {}
        self._conditions = None

    # -- compiled entry tables ------------------------------------------------

    def _entries(self):
        """Each connection entry as ``(index, expr)``; see :meth:`_table`."""
        if self.kind == "christoffel":
            return [((k, l, i), e) for (l, k, i), e in self.gamma.items()]
        return [((k, i, j), self.omega[i][j][k]) for i in range(self.N)
                for j in range(self.N) for k in range(self.n)]

    def _table(self, order):
        """The partial derivatives of order ``order`` of the connection
        entries as ``(indices, tape)``: one :class:`~paracon.expr.Tape` that
        returns one value per index, skipping the constant +0.0.  Built on
        first use from the exact :func:`diff` of the order below, every
        expression interned in the connection's one pool, so a
        subexpression shared by several entries or orders is differentiated
        once and evaluated once per tape call.

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
            exprs.append([(dirs + (d,), idx,
                           diff(e, self.domain.names[d], self._pool))
                          for dirs, idx, e in exprs[-1] if not _is_zero(e)
                          for d in range(dirs[-1] if dirs else 0, self.n)])
        if order not in self._tapes:
            pos = {dirs: t for t, dirs in enumerate(
                combinations_with_replacement(range(self.n), order))}
            kept = [((pos[dirs],) + idx, e)
                    for dirs, idx, e in exprs[order] if not _is_zero(e)]
            self._tapes[order] = ([idx for idx, _ in kept],
                                  compile_expr([e for _, e in kept]))
        return self._tapes[order]

    def _breakpoints(self):
        """:meth:`piecewise_conditions` as one tape, built on first use."""
        if self._conditions is None:
            self._conditions = compile_expr(self.piecewise_conditions())
        return self._conditions

    def piecewise_conditions(self):
        """All (lhs - rhs) condition expressions appearing in the spec, each
        piecewise node's before those inside it."""
        conds, todo = [], [e for _, e in reversed(self._entries())]
        while todo:
            e = todo.pop()
            if isinstance(e, Piecewise):
                conds.append(Binary("sub", e.lhs, e.rhs))
            todo.extend(reversed(split(e)[1]))
        return conds


def nudge_off_breakpoints(spec: ConnectionSpec, points, eps: float = 1e-12):
    """Shift each point of an (m, n) batch that lands exactly on a piecewise
    breakpoint by +eps; returns a new (m, n) array."""
    pts = np.array(points, dtype=float)
    env = spec.domain.env(pts, spec.params)
    hit = np.zeros(len(pts), dtype=bool)
    for val in spec._breakpoints()(env):
        hit |= np.asarray(val, dtype=float) == 0.0
    pts[hit] += eps
    return pts


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0.0 and not np.signbit(e.value)


def _assemble(spec: ConnectionSpec, table, points, lead, what) -> np.ndarray:
    """Evaluate a table's tape over an (m, n) batch; shape (m, *lead, N, N).

    Matrix entries fill the result directly.  Christoffel entries fill
    ``G[m, *lead, l, i]``, which the linear Gamma action maps to the fiber.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m, n, N = pts.shape[0], spec.n, spec.N
    env = spec.domain.env(pts, spec.params)
    christoffel = spec.kind == "christoffel"
    out = np.zeros((m, *lead) + ((n, n) if christoffel else (N, N)))
    indices, tape = table
    with np.errstate(all="ignore"):
        for idx, val in zip(indices, tape(env)):
            out[(slice(None),) + idx] = val
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


class Jet:
    """The partials of Omega and the covariant derivatives of curvature over
    one (m, n) batch, each evaluated once, on first use, and shared by every
    stack over the batch.

    Order o of Omega comes from :func:`omega_stack` (o = 0) or the
    connection's table of that order.  The curvature side is a triangle:
    for each j, one array holds d^alpha nabla^j R for every |alpha| <= s - j,
    rows by degree and as :func:`_degree` within one, where s is the highest
    order built so far.  Asking for order s + 1 builds the antidiagonal
    j + |alpha| = s + 1 and nothing else, since by the Leibniz rule
    ``d^a nabla_k T = d^(a+e_k) T + sum_b C(a, b) [d^b Omega_k, d^(a-b) T]``
    reads T's rows up to one degree higher.  :meth:`take` slices both sides,
    so the flag's level L + 1 reads the rows its level L built.
    """

    def __init__(self, spec: ConnectionSpec, points):
        self.spec = spec
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self._orders = []
        # j -> (m, rows, n**j, P, N, N), d^alpha nabla^j R by row
        self._nabla = []

    def order(self, o: int) -> np.ndarray:
        """The partials of order ``o``; shape (m, T, n_k, N, N), T numbering
        them as :func:`_multi_indices`."""
        while len(self._orders) <= o:
            k = len(self._orders)
            self._orders.append(
                _partials(self.spec, self.points, k) if k
                else omega_stack(self.spec, self.points)[:, None])
        return self._orders[o]

    def curvature(self, order: int) -> np.ndarray:
        """nabla^order R over the batch, laid out as
        :func:`covariant_curvature_stack` returns it; it may share memory
        with the jet's rows."""
        while len(self._nabla) <= order:
            self._antidiagonal(len(self._nabla))
        return np.ascontiguousarray(self._nabla[order][:, 0])

    def _antidiagonal(self, s: int):
        """Build the antidiagonal j + |alpha| = s of the triangle, j = 0 up.
        Each Leibniz term position takes one gather per factor and one
        ``matmul`` over all the entries with a term there, which lead their
        block; every entry takes the operations of its sum in the order
        :func:`_curvature_terms` and :func:`_nabla_terms` list them."""
        m, n, N = len(self.points), self.spec.n, self.spec.N
        P = len(curvature_pairs(n))
        top = self.order(s + 1).reshape(m, -1, N, N)  # row * n + k
        low = (np.concatenate(self._orders[:s + 1], axis=1) if s
               else self._orders[0]).reshape(m, -1, N, N)
        (plus, minus), terms = _curvature_terms(n, s)
        block = np.take(top, plus, axis=1) - np.take(top, minus, axis=1)
        for e, left, right, c in terms:
            prod = np.matmul(np.take(low, left, axis=1),
                             np.take(low, right, axis=1))
            if c is not None:
                prod *= c[:, None, None]
            block[:, :e] += prod[:, :e]
            block[:, :e] -= prod[:, e:]
        block = block.reshape(m, len(_degree(n, s)), 1, P, N, N)
        for j in range(s + 1):
            if j:  # d^alpha nabla^j R, |alpha| = s - j, from nabla^(j-1) R
                src = self._nabla[j - 1]
                src = src.reshape(m, src.shape[1], n ** (j - 1) * P, N, N)
                first, terms = _nabla_terms(n, s - j)
                block = np.take(src, first, axis=1)
                for e, om, rest, c in terms:
                    om = np.take(low, om, axis=1)[:, :, None]
                    t = np.take(src, rest, axis=1)
                    t = np.matmul(om, t) - np.matmul(t, om)
                    if c is not None:
                        t *= c[:, None, None, None]
                    block[:, :e] += t
                block = block.reshape(m, len(_degree(n, s - j)), n ** j, P,
                                      N, N)
            if j < len(self._nabla):
                self._nabla[j] = np.concatenate([self._nabla[j], block],
                                                axis=1)
            else:
                self._nabla.append(block)

    def take(self, idx) -> "Jet":
        """The jet at the points ``idx`` (a slice or an index array), with
        the orders and the triangle filled so far."""
        sub = Jet(self.spec, self.points[idx])
        sub._orders = [a[idx] for a in self._orders]
        sub._nabla = [a[idx] for a in self._nabla]
        return sub


@lru_cache(maxsize=None)
def _degree(n: int, degree: int) -> list:
    """The count vectors of one degree in the order a :class:`Jet`'s
    triangle holds them: most Leibniz terms first, then as
    :func:`_multi_indices`, so that the entries with a term at any position
    lead their block."""
    return sorted(_multi_indices(n, degree),
                  key=lambda a: -prod(x + 1 for x in a))


@lru_cache(maxsize=None)
def _rows(n: int, degree: int, omega: bool = False) -> dict:
    """The row of each count vector of degree at most ``degree`` in a
    :class:`Jet`'s triangle, or with ``omega`` in its partials of Omega up
    to that order laid side by side: by degree, and within one as
    :func:`_degree` or :func:`_multi_indices` lists them."""
    within = _multi_indices if omega else _degree
    return {a: r for r, a in enumerate(
        a for o in range(degree + 1) for a in within(n, o))}


def _by_position(terms):
    """Entry e's Leibniz terms ``terms[e]`` (index tuples ending in the
    coefficient; no entry has more than one before it) by position: the
    number of entries with a term there, each index as an array and the
    coefficients, None where all are 1."""
    out = []
    for t in range(len(terms[0]) if terms else 0):
        *cols, c = zip(*(ts[t] for ts in terms if len(ts) > t))
        out.append((len(c), *map(np.array, cols),
                    None if set(c) == {1} else np.array(c, dtype=float)))
    return out


@lru_cache(maxsize=None)
def _curvature_terms(n: int, degree: int):
    """Index tables of d^alpha R, |alpha| = ``degree``, over the entries
    (alpha, pair), alpha as :func:`_degree` lists them and the pairs as
    :func:`curvature_pairs`.

    ``d^a R_ij = d^(a+e_i) Omega_j - d^(a+e_j) Omega_i + sum_b C(a, b)
    (d^b Omega_i d^(a-b) Omega_j - d^b Omega_j d^(a-b) Omega_i)``, each
    product added, then subtracted, in :func:`_leibniz` order.  Returns the
    rows ``t * n + k`` of the first two terms in Omega's partials of order
    ``degree + 1`` and, by position, the number of entries, the factors of
    the added products then of the subtracted ones, as rows ``row * n + k``
    of Omega's partials up to order ``degree``, and the coefficients."""
    up = {a: t for t, a in enumerate(_multi_indices(n, degree + 1))}
    rows = _rows(n, degree, omega=True)
    entries = [(a, i, j) for a in _degree(n, degree)
               for i, j in curvature_pairs(n)]
    first = (np.array([up[_up(a, i)] * n + j for a, i, j in entries], int),
             np.array([up[_up(a, j)] * n + i for a, i, j in entries], int))
    terms = _by_position([[(rows[b] * n + i, rows[b] * n + j,
                            rows[r] * n + j, rows[r] * n + i, c)
                           for b, r, c in _leibniz(a)]
                          for a, i, j in entries])
    return first, [(e, np.concatenate([bi, bj]), np.concatenate([rj, ri]),
                    None if c is None else np.concatenate([c, c]))
                   for e, bi, bj, rj, ri, c in terms]


@lru_cache(maxsize=None)
def _nabla_terms(n: int, degree: int):
    """Index tables of d^alpha nabla_k T, |alpha| = ``degree``, over the
    entries (alpha, k), alpha as :func:`_degree` lists them: the row of
    d^(alpha+e_k) T and, by position, the number of entries, the Omega row
    ``row(b) * n + k`` and the T row ``row(alpha - b)`` of each term and
    the coefficients, in :func:`_leibniz` order."""
    rows = _rows(n, degree + 1)
    omega = _rows(n, degree, omega=True)
    entries = [(a, k) for a in _degree(n, degree) for k in range(n)]
    first = np.array([rows[_up(a, k)] for a, k in entries], int)
    return first, _by_position([[(omega[b] * n + k, rows[r], c)
                                 for b, r, c in _leibniz(a)]
                                for a, k in entries])


def curvature_pairs(n: int):
    """Ordered coordinate pairs (i, j), i < j, indexing curvature operators."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def curvature_stack(spec: ConnectionSpec, points,
                    jet: Optional[Jet] = None) -> np.ndarray:
    """Curvature operators R_ij over an (m, n) batch; shape (m, P, N, N).
    ``jet`` is the batch's :class:`Jet`, as for
    :func:`covariant_curvature_stack`."""
    return covariant_curvature_stack(spec, points, 0, jet)[:, 0]


def covariant_curvature_stack(spec: ConnectionSpec, points, order: int,
                              jet: Optional[Jet] = None) -> np.ndarray:
    """Covariant derivatives nabla_{k_order} ... nabla_{k_1} R_ij over an
    (m, n) batch; shape (m, n**order, P, N, N), the strings (k_order, ...,
    k_1) in row-major order and the pairs as :func:`curvature_pairs`.

    ``nabla_k T = d_k T + [Omega_k, T]`` acts on the fiber, and the base
    indices are labels.  Every term is exact, by the Leibniz rule.  The
    stack is read from ``jet``, the batch's :class:`Jet` (a new one when
    omitted), which builds each d^alpha nabla^j R it needs once: asking for
    the next order adds one antidiagonal of its triangle.  The result may
    share memory with the jet.
    """
    return (Jet(spec, points) if jet is None else jet).curvature(order)
