"""Positive-definite feasibility of a span of symmetric matrices.

Feasibility is decided by maximizing the smallest eigenvalue of a unit-ball
combination with projected supergradient ascent (the objective is concave in
the coefficients); a ``feasible`` answer always carries a Cholesky-verified
combination and an ``infeasible_certified`` answer a PSD witness that is
trace-orthogonal to every generator.  When neither certificate is reached the
status ``inconclusive`` is reported rather than coerced.

A screen precedes the ascent: every start (the generators, their negatives,
plus and minus the trace direction, and the seeded random unit vectors, drawn
once per ``(d, restarts, seed)``) goes through one batched ``eigvalsh``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

__all__ = ["SymSpan", "PDResult", "NoPDElement", "pd_feasible", "pd_basis"]


class NoPDElement(RuntimeError):
    pass


@dataclass
class SymSpan:
    """Span of d symmetric n x n matrices (stored symmetrized)."""

    size: int
    matrices: list

    def __post_init__(self):
        mats = []
        for S in self.matrices:
            S = np.asarray(S, dtype=float)
            if S.shape != (self.size, self.size):
                raise ValueError("span matrices must share the declared size")
            sym = 0.5 * (S + S.T)
            if np.abs(S - S.T).max() > 1e-10 * max(1.0, np.abs(S).max()):
                raise ValueError("span generator is not symmetric")
            mats.append(sym)
        if not mats:
            raise ValueError("span needs at least one generator")
        self.matrices = mats

    @property
    def dim(self):
        return len(self.matrices)

    @classmethod
    def from_fiber_vectors(cls, sym_index, vectors):
        """Build from fiber coefficient vectors (columns) via a SymIndex."""
        V = np.asarray(vectors, dtype=float)
        if V.ndim == 1:
            V = V[:, None]
        mats = [sym_index.to_matrix(V[:, a]) for a in range(V.shape[1])]
        return cls(sym_index.n, mats)

    def combine(self, coeff):
        c = np.asarray(coeff, dtype=float)
        return np.einsum("a,aij->ij", c, np.stack(self.matrices))


@dataclass
class PDResult:
    status: str  # feasible | infeasible_certified | inconclusive
    best_lambda: float
    coefficients: Optional[np.ndarray] = None
    cholesky: Optional[np.ndarray] = None
    witness: Optional[np.ndarray] = None


def _try_cholesky(A):
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return None


def _ascend(span, c, iters, scale, stop_above=None, plateau=60):
    """Projected supergradient ascent from one start; returns best (value, c).

    Stops early once the value clears ``stop_above`` (feasibility needs any
    witness, not the maximum) or stalls for ``plateau`` iterations.
    """
    stack = np.stack(span.matrices)
    best_val, best_c = -np.inf, c
    since_improved = 0
    for t in range(iters):
        A = np.einsum("a,aij->ij", c, stack)
        w, v = np.linalg.eigh(A)
        val = w[0]
        u = v[:, 0]
        g = np.einsum("i,aij,j->a", u, stack, u)  # supergradient of lambda_min
        if val > best_val + 1e-14 * scale:
            best_val, best_c = val, c.copy()
            since_improved = 0
        else:
            since_improved += 1
        if stop_above is not None and best_val > stop_above:
            break
        if since_improved > plateau:
            break
        step = 0.5 / (scale * np.sqrt(t + 1.0))
        c = c + step * g
        nc = np.linalg.norm(c)
        if nc > 1.0:
            c = c / nc
    return best_val, best_c


def _simplex_least_squares(T, iters=600):
    """argmin_{w >= 0, sum w = 1} || T^T w ||^2 via exponentiated gradient."""
    m = T.shape[0]
    w = np.full(m, 1.0 / m)
    G = T @ T.T
    lip = max(np.linalg.eigvalsh(G).max(), 1e-30)
    for _ in range(iters):
        grad = G @ w
        w = w * np.exp(-grad / lip)
        w = w / w.sum()
    return w


@lru_cache(maxsize=64)
def _random_starts(d: int, restarts: int, seed: int) -> np.ndarray:
    """The seeded random starts: ``restarts`` unit vectors in R^d as the rows
    of one read-only array, start r drawn from the generator seeded
    ``seed * 7919 + r``."""
    out = np.empty((restarts, d))
    for r in range(restarts):
        c0 = np.random.default_rng(seed * 7919 + r).standard_normal(d)
        out[r] = c0 / np.linalg.norm(c0)
    out.flags.writeable = False
    return out


def pd_feasible(span: SymSpan, tol: float = 1e-8, restarts: int = 32,
                seed: int = 0, iters: int = 300) -> PDResult:
    """Decide whether the span meets the open positive-definite cone.

    Maximizes ``lambda_min(sum_a c_a S_a)`` over the coefficient unit ball;
    feasible iff the best value exceeds ``tol`` and the certifying Cholesky
    succeeds.  Infeasibility is certified by a PSD witness ``U`` with
    ``|tr(U S_a)| < 10 tol`` assembled from the minimal eigenvectors seen
    during the ascent.  Deterministic for fixed seed.
    """
    d = span.dim
    stack = np.stack(span.matrices)
    scale = max(np.linalg.norm(stack[a]) for a in range(d))
    if scale == 0.0:
        # zero span: trivially infeasible, witness any unit-trace PSD matrix
        U = np.eye(span.size) / span.size
        return PDResult("infeasible_certified", 0.0, witness=U)

    # one row per start: e_a, -e_a, +-traces/|traces|, the random starts
    eye = np.eye(d)
    rows = [eye, -eye]
    traces = np.array([np.trace(S) for S in span.matrices])
    if np.linalg.norm(traces) > 0:
        unit = traces / np.linalg.norm(traces)
        rows.append(np.stack([unit, -unit]))
    starts = np.concatenate(rows + [_random_starts(d, restarts, seed)])

    # cheap screen: the start values alone often certify feasibility
    start_vals = np.linalg.eigvalsh(
        np.einsum("ka,aij->kij", starts, stack))[:, 0]
    # the first best start, copied so the result does not keep `starts` alive
    k = int(np.argmax(start_vals))
    best_val, best_c = start_vals[k], starts[k].copy()
    if best_val <= tol:
        order = np.argsort(start_vals)[::-1]
        for idx in order[:max(8, d + 2)]:
            val, c = _ascend(span, starts[idx], iters, scale, stop_above=tol)
            if val > best_val:
                best_val, best_c = val, c
            if best_val > tol:
                break

    if best_val > tol:
        A = span.combine(best_c)
        L = _try_cholesky(A)
        if L is not None:
            return PDResult("feasible", float(best_val),
                            coefficients=best_c, cholesky=L)

    # dual side: look for a PSD witness among convex combinations of u u^T
    # (each recorded supergradient is the vector (u^T S_a u)_a for some u)
    us = []
    for c0 in [*starts[:2 * d], starts[0]]:
        A = span.combine(c0 / np.linalg.norm(c0))
        w, v = np.linalg.eigh(A)
        us.append(v[:, 0])
    if best_c is not None:
        A = span.combine(best_c)
        w, v = np.linalg.eigh(A)
        us.extend(v[:, i] for i in range(span.size))
    T = np.array([np.einsum("i,aij,j->a", u, stack, u) for u in us])
    weights = _simplex_least_squares(T / scale)
    resid = np.abs(T.T @ weights)
    if resid.max() < 10.0 * tol * scale:
        U = np.einsum("m,mi,mj->ij", weights, np.array(us), np.array(us))
        U = 0.5 * (U + U.T)
        if np.linalg.eigvalsh(U).min() >= -1e-12:
            return PDResult("infeasible_certified", float(best_val), witness=U)
    return PDResult("inconclusive", float(best_val), coefficients=best_c)


def pd_basis(span: SymSpan, e_index: int = None, tol: float = 1e-8,
             restarts: int = 32, seed: int = 0):
    """Basis of the span consisting of positive-definite matrices.

    Starting from a PD element e (given by index, or found by
    :func:`pd_feasible`), the remaining basis elements are ``e + eps S_a``
    with ``eps`` the first value in 1, 1/2, 1/4, ... for which every
    Cholesky check succeeds.
    """
    if e_index is not None:
        e = span.matrices[e_index]
        if _try_cholesky(e) is None:
            raise NoPDElement("matrix at e_index is not positive-definite")
        rest = [S for a, S in enumerate(span.matrices) if a != e_index]
    else:
        res = pd_feasible(span, tol=tol, restarts=restarts, seed=seed)
        if res.status != "feasible":
            raise NoPDElement("span contains no certified PD element")
        e = span.combine(res.coefficients)
        # drop one generator to keep the count at d (e replaces it)
        drop = int(np.argmax(np.abs(res.coefficients)))
        rest = [S for a, S in enumerate(span.matrices) if a != drop]

    eps = 1.0
    while eps > 1e-12:
        cands = [e + eps * S for S in rest]
        if all(_try_cholesky(B) is not None for B in cands):
            out = [e] + cands
            # rank check: outputs must still span the input space
            flat = np.stack([B.ravel() for B in out])
            if np.linalg.matrix_rank(flat, tol=1e-10) == span.dim:
                return out
        eps *= 0.5
    raise NoPDElement("halving search failed to produce a PD basis")
