"""Positive-definite feasibility of a span of symmetric matrices.

Feasibility asks for the largest t with ``sum_a c_a S_a - t I`` PSD over the
coefficient unit ball; the span meets the open PD cone iff t > 0.  The
decision is deterministic: a ``feasible`` answer always carries a
Cholesky-verified combination and an ``infeasible_certified`` answer a PSD
witness that is trace-orthogonal to every generator.  When neither
certificate is reached the status ``inconclusive`` is reported rather than
coerced.

A screen comes first: the starts (the generators, their negatives, and plus
and minus the trace direction) of every span of a batch go through one
``eigvalsh``, and the spans whose best start clears the tolerance through one
batched Cholesky.  Each span the screen does not certify gets a log-barrier
Newton solve (Boyd and Vandenberghe, *Convex Optimization*, ch. 11), whose
iterates give the primal combination and, from ``F^-1``, the dual witness.
:func:`pd_feasible` is :func:`pd_feasible_batch` on a batch of one span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["SymSpan", "PDResult", "pd_feasible", "pd_feasible_batch"]


# Newton steps of the barrier solve before a span is left inconclusive
_NEWTON_STEPS = 100


def _symmetrized(stack):
    """The symmetric parts of an (..., size, size) stack of span generators,
    after checking each generator S: it must be square and, when finite,
    symmetric to within ``1e-10 * max(1, |S|max)``.  A generator with a
    non-finite entry is neither checked nor symmetrized; its span is
    answered ``inconclusive``."""
    S = np.asarray(stack, dtype=float)
    if S.ndim < 2 or S.shape[-1] != S.shape[-2]:
        raise ValueError("span matrices must share the declared size")
    finite = np.isfinite(S).all(axis=(-2, -1), keepdims=True)
    F = np.where(finite, S, 0.0)
    Ft = np.swapaxes(F, -1, -2)
    asym = np.abs(F - Ft).max(axis=(-2, -1))
    if np.any(asym > 1e-10 * np.maximum(1.0, np.abs(F).max(axis=(-2, -1)))):
        raise ValueError("span generator is not symmetric")
    return np.where(finite, 0.5 * (F + Ft), S)


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


def _screen(stack, units):
    """The start screen over an (m, d, n, n) stack of nonzero spans: every
    start's combination goes through one batched ``eigvalsh``.

    A span's starts are the rows e_a and -e_a, then +-``units[i]`` (its unit
    trace direction; ``units`` is None for spans of traceless generators).
    Returns the starts, (m, K, d), and the smallest eigenvalue of each
    start's combination, (m, K).
    """
    m, d, n, _ = stack.shape
    eye = np.eye(d)
    rows = [eye, -eye]
    if units is not None:
        rows += [units[:, None], -units[:, None]]
    starts = np.concatenate([np.broadcast_to(r, (m,) + r.shape[-2:])
                             for r in rows], axis=1)
    combos = np.einsum("mka,maij->mkij", starts, stack)
    vals = np.linalg.eigvalsh(combos.reshape(-1, n, n))[:, 0]
    return starts, vals.reshape(m, -1)


def _barrier(stack, best, best_c, tol):
    """Decide one finite nonzero (d, n, n) span that the screen did not
    certify; ``best`` and ``best_c`` are its best start.

    Damped Newton steps on the log barrier of max t s.t.
    ``F = sum_a c_a S_a - t I`` is PD and ``|c| < 1`` (generators scaled to
    unit largest norm), ``-tau t - log det F - log(1 - |c|^2)``, with tau
    raised tenfold whenever an iterate is near the central path.  Each
    iterate is tested for both certificates: its combination, normalised,
    once it is PD (``feasible`` when lambda_min clears ``tol`` and the
    Cholesky succeeds), and the unit-trace dual ``Z = F^-1 / tr F^-1``
    (``infeasible_certified`` when every ``|tr(Z S_a)| < tol scale``).
    """
    d, n, _ = stack.shape
    scale = max(np.linalg.norm(S) for S in stack)  # largest generator norm
    gens = np.concatenate([-np.eye(n)[None], stack / scale])  # of x = (t, c)
    x = np.zeros(d + 1)
    x[0] = -1.0
    tau = 1.0
    for _ in range(_NEWTON_STEPS):
        t, c = x[0], x[1:]
        w, V = np.linalg.eigh(np.einsum("a,aij->ij", c, gens[1:]))
        if not w[0] > t:  # rounding has left F's PD cone
            break
        if w[0] > 0.0:
            u = c / np.linalg.norm(c)
            A = np.einsum("a,aij->ij", u, stack)
            lam = np.linalg.eigvalsh(A)[0]
            if lam > best:
                best, best_c = lam, u
            L = _try_cholesky(A) if lam > tol else None
            if L is not None:
                return PDResult("feasible", float(lam), coefficients=u,
                                cholesky=L)
        g = 1.0 / (w - t)  # the eigenvalues of F^-1, in the eigenbasis V
        Z = (V * (g / g.sum())) @ V.T
        Z = 0.5 * (Z + Z.T)
        if (np.abs(np.einsum("ij,aij->a", Z, stack)).max() < tol * scale
                and np.linalg.eigvalsh(Z).min() >= -1e-12):
            return PDResult("infeasible_certified", float(best), witness=Z)
        G = np.einsum("ik,aij,jl->akl", V, gens, V)
        grad = -np.einsum("k,akk->a", g, G)
        grad[0] -= tau
        B = (G * np.sqrt(np.outer(g, g))).reshape(d + 1, -1)
        H = B @ B.T
        s = 1.0 - c @ c
        grad[1:] += 2.0 * c / s
        H[1:, 1:] += 2.0 / s * np.eye(d) + 4.0 / (s * s) * np.outer(c, c)
        step = -np.linalg.solve(H, grad)
        dec = np.sqrt(-grad @ step)  # the Newton decrement
        x = x + step / (1.0 + dec)
        if dec < 0.5:
            tau *= 10.0
    return PDResult("inconclusive", float(best), coefficients=best_c)


def pd_feasible(span: SymSpan, tol: float = 1e-8) -> PDResult:
    """Decide whether the span meets the open positive-definite cone:
    :func:`pd_feasible_batch` on a batch of one span."""
    return pd_feasible_batch(np.stack(span.matrices)[None], tol)[0]


def pd_feasible_batch(stack, tol: float = 1e-8) -> list:
    """Decide, for each span of an (m, d, n, n) stack of generators, whether
    it meets the open positive-definite cone; returns m results.

    The generators are checked and symmetrized as :class:`SymSpan` does.  A
    span with a non-finite entry is ``inconclusive`` and a zero span
    infeasible, with witness I/n.  Every other span goes through one start
    screen, and those whose best start clears ``tol`` through one batched
    Cholesky; only a span that this does not certify takes the barrier
    solve.  ``feasible`` carries a unit coefficient vector, the smallest
    eigenvalue of its combination and the combination's Cholesky factor;
    ``infeasible_certified`` carries a unit-trace PSD witness U with
    ``|tr(U S_a)| < tol scale`` for every generator, scale being the largest
    generator norm.
    """
    S = _symmetrized(stack)
    m, _, n, _ = S.shape
    out = [None] * m
    finite = np.isfinite(S).all(axis=(1, 2, 3))
    live = finite & (S * S).any(axis=(1, 2, 3))
    for i in np.flatnonzero(~live):
        out[i] = (PDResult("infeasible_certified", 0.0, witness=np.eye(n) / n)
                  if finite[i] else PDResult("inconclusive", float("nan")))
    idx = np.flatnonzero(live)
    units, traced = _trace_units(S[idx])
    for sel, u in ((traced, units[traced]), (~traced, None)):
        part = idx[sel]
        if not part.size:
            continue
        starts, vals = _screen(S[part], u)
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
            if out[part[j]] is None:
                out[part[j]] = _barrier(S[part[j]], best[j], best_c[j], tol)
    return out
