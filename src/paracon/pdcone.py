"""Positive-definite feasibility of a span of symmetric matrices.

Feasibility is decided by maximizing the smallest eigenvalue of a unit-ball
combination with projected supergradient ascent (the objective is concave in
the coefficients); a ``feasible`` answer always carries a Cholesky-verified
combination and an ``infeasible_certified`` answer a PSD witness that is
trace-orthogonal to every generator.  When neither certificate is reached the
status ``inconclusive`` is reported rather than coerced.

A screen precedes the ascent: every start (the generators, their negatives,
plus and minus the trace direction, and the seeded random unit vectors, drawn
once per ``(d, restarts, seed)``) goes through one batched ``eigvalsh``.  The
same screen serves one span (:func:`pd_feasible`) and a stack of spans of
one shape (:func:`pd_feasible_batch`), which certifies the spans whose best
start clears the tolerance with one batched Cholesky and gives every span the
bits ``pd_feasible`` would.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

__all__ = ["SymSpan", "PDResult", "NoPDElement", "pd_feasible",
           "pd_feasible_batch", "pd_basis"]


class NoPDElement(RuntimeError):
    pass


def _symmetrized(stack):
    """The symmetric parts of an (..., size, size) stack of span generators,
    after checking each generator S: it must be square and symmetric to
    within ``1e-10 * max(1, |S|max)``."""
    S = np.asarray(stack, dtype=float)
    if S.ndim < 2 or S.shape[-1] != S.shape[-2]:
        raise ValueError("span matrices must share the declared size")
    St = np.swapaxes(S, -1, -2)
    asym = np.abs(S - St).max(axis=(-2, -1))
    if np.any(asym > 1e-10 * np.maximum(1.0, np.abs(S).max(axis=(-2, -1)))):
        raise ValueError("span generator is not symmetric")
    return 0.5 * (S + St)


@dataclass
class SymSpan:
    """Span of d symmetric n x n matrices (stored symmetrized)."""

    size: int
    matrices: list

    def __post_init__(self):
        mats = [np.asarray(S, dtype=float) for S in self.matrices]
        if any(S.shape != (self.size, self.size) for S in mats):
            raise ValueError("span matrices must share the declared size")
        if not mats:
            raise ValueError("span needs at least one generator")
        self.matrices = list(_symmetrized(np.stack(mats)))

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


def _scale(stack):
    """Largest Frobenius norm among a (d, n, n) span's generators."""
    return max(np.linalg.norm(stack[a]) for a in range(len(stack)))


def _trace_units(stack):
    """The unit trace direction of each span of an (m, d, n, n) stack, and
    whether it exists (False for a span of traceless generators).

    Each norm is ``sqrt(t.dot(t))`` span by span, as ``np.linalg.norm`` takes
    it; a norm along an axis of the batch can differ in the last bit.
    """
    traces = np.trace(stack, axis1=2, axis2=3)
    norms = np.sqrt([t.dot(t) for t in traces])
    traced = norms > 0
    units = np.zeros_like(traces)
    units[traced] = traces[traced] / norms[traced, None]
    return units, traced


def _screen(stack, units, restarts, seed):
    """The start screen over an (m, d, n, n) stack of nonzero spans: every
    start's combination goes through one batched ``eigvalsh``.

    A span's starts are the rows e_a and -e_a, then +-``units[i]`` (its unit
    trace direction; ``units`` is None for spans of traceless generators),
    then the seeded random starts.  Returns the starts, (m, K, d), and the
    smallest eigenvalue of each start's combination, (m, K).
    """
    m, d, n, _ = stack.shape
    eye = np.eye(d)
    rows = [eye, -eye]
    if units is not None:
        rows += [units[:, None], -units[:, None]]
    rows.append(_random_starts(d, restarts, seed))
    starts = np.concatenate([np.broadcast_to(r, (m,) + r.shape[-2:])
                             for r in rows], axis=1)
    combos = np.einsum("mka,maij->mkij", starts, stack)
    vals = np.linalg.eigvalsh(combos.reshape(-1, n, n))[:, 0]
    return starts, vals.reshape(m, -1)


def _finish(span, starts, start_vals, scale, tol, iters):
    """Decide one span from its screened starts: the best start, the ascent
    when no start clears ``tol``, the certifying Cholesky, then the dual
    witness."""
    d = span.dim
    stack = np.stack(span.matrices)
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


def pd_feasible(span: SymSpan, tol: float = 1e-8, restarts: int = 32,
                seed: int = 0, iters: int = 300) -> PDResult:
    """Decide whether the span meets the open positive-definite cone.

    Maximizes ``lambda_min(sum_a c_a S_a)`` over the coefficient unit ball;
    feasible iff the best value exceeds ``tol`` and the certifying Cholesky
    succeeds.  Infeasibility is certified by a PSD witness ``U`` with
    ``|tr(U S_a)| < 10 tol`` assembled from the minimal eigenvectors seen
    during the ascent.  Deterministic for fixed seed.
    """
    stack = np.stack(span.matrices)
    scale = _scale(stack)
    if scale == 0.0:
        # zero span: trivially infeasible, witness any unit-trace PSD matrix
        U = np.eye(span.size) / span.size
        return PDResult("infeasible_certified", 0.0, witness=U)
    units, traced = _trace_units(stack[None])
    starts, vals = _screen(stack[None], units if traced[0] else None,
                           restarts, seed)
    return _finish(span, starts[0], vals[0], scale, tol, iters)


def pd_feasible_batch(stack, tol: float = 1e-8, restarts: int = 32,
                      seed: int = 0, iters: int = 300) -> list:
    """:func:`pd_feasible` of each span of an (m, d, n, n) stack of
    generators, bit for bit, as a list of m results.

    The generators are checked and symmetrized as :class:`SymSpan` does.
    Every nonzero finite span goes through one start screen, and those whose
    best start clears ``tol`` through one batched Cholesky; only a span that
    this does not certify takes the ascent and the dual witness.
    """
    S = _symmetrized(stack)
    m, d, n, _ = S.shape
    out = [None] * m
    # a span whose squares all vanish (its scale is zero) or one that is not
    # finite is decided on its own
    live = np.isfinite(S).all(axis=(1, 2, 3)) & (S * S).any(axis=(1, 2, 3))
    for i in np.flatnonzero(~live):
        out[i] = pd_feasible(SymSpan(n, S[i]), tol, restarts, seed, iters)
    idx = np.flatnonzero(live)
    units, traced = _trace_units(S[idx])
    for sel, u in ((traced, units[traced]), (~traced, None)):
        part = idx[sel]
        if not part.size:
            continue
        starts, vals = _screen(S[part], u, restarts, seed)
        rows = np.arange(part.size)
        k = np.argmax(vals, axis=1)
        best, best_c = vals[rows, k], starts[rows, k]
        ok = np.flatnonzero(best > tol)
        A = np.einsum("ma,maij->mij", best_c[ok], S[part[ok]])
        try:
            chol = list(np.linalg.cholesky(A))
        except np.linalg.LinAlgError:
            chol = [_try_cholesky(a) for a in A]
        for j, L in zip(ok, chol):
            if L is not None:
                out[part[j]] = PDResult("feasible", float(best[j]),
                                        coefficients=best_c[j], cholesky=L)
        for j in rows:
            i = part[j]
            if out[i] is None:
                out[i] = _finish(SymSpan(n, S[i]), starts[j], vals[j],
                                 _scale(S[i]), tol, iters)
    return out


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
