"""Positive-definite feasibility of a span of symmetric matrices.

Feasibility asks for the largest t with ``sum_a c_a S_a - t I`` PSD over the
coefficient unit ball; the span meets the open PD cone iff t > 0.  The
decision is deterministic: a ``feasible`` answer always carries a
Cholesky-verified combination and an ``infeasible_certified`` answer a PSD
witness that is trace-orthogonal to every generator.  When neither
certificate is reached the status ``inconclusive`` is reported rather than
coerced.

One screen comes first: the starts of every span of a batch (the
generators, their negatives, and plus and minus the unit trace direction,
e_1 for a span of traceless generators) go through one ``eigvalsh``, and
the spans whose best start clears the tolerance through one batched
Cholesky.  Each span the screen does not certify gets a log-barrier Newton
solve (Boyd and Vandenberghe, *Convex Optimization*, ch. 11), whose
iterates give the primal combination and, from ``F^-1``, the dual witness.
The tolerance is relative: each span is judged in the unit of its largest
generator norm, so a span and its positive multiples get the same answer.
:func:`pd_feasible` is :func:`pd_feasible_batch` on a batch of one span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["PDResult", "pd_feasible", "pd_feasible_batch"]


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


def _norms(X):
    """The Euclidean norm of each row of a 2-D array, bit for bit as
    ``np.linalg.norm`` takes it of the row alone: a row's matmul with itself
    is its ``dot``; a sum along the batch axis can differ in the last bit."""
    return np.sqrt(np.matmul(X[:, None, :], X[:, :, None])[:, 0, 0])


def _trace_units(stack):
    """The unit trace direction of each span of an (m, d, n, n) stack, and
    whether it exists (False for a span of traceless generators)."""
    traces = np.trace(stack, axis1=2, axis2=3)
    norms = _norms(traces)
    traced = norms > 0
    units = np.zeros_like(traces)
    units[traced] = traces[traced] / norms[traced, None]
    return units, traced


def _screen(stack, units):
    """The start screen over an (m, d, n, n) stack of nonzero spans: every
    start's combination goes through one batched ``eigvalsh``.

    Span i's starts are the rows e_a and -e_a, then u and -u for u =
    ``units[i]``, a unit vector.  A start that repeats an earlier one has
    the same combination and the same value, so ``argmax``, which takes the
    first maximum, never picks the repeat.  Returns the
    starts, (m, 2d + 2, d), and the smallest eigenvalue of each start's
    combination, (m, 2d + 2).
    """
    m, d, n, _ = stack.shape
    eye = np.broadcast_to(np.eye(d), (m, d, d))
    starts = np.concatenate([eye, -eye, units[:, None], -units[:, None]],
                            axis=1)
    combos = np.einsum("mka,maij->mkij", starts, stack)
    vals = np.linalg.eigvalsh(combos.reshape(-1, n, n))[:, 0]
    return starts, vals.reshape(m, -1)


def _barrier(stack, scale, best, best_c, tol):
    """Decide one finite nonzero (d, n, n) span that the screen did not
    certify; ``scale`` is its largest generator norm and ``best`` and
    ``best_c`` its best start.

    Damped Newton steps on the log barrier of max t s.t.
    ``F = sum_a c_a S_a / scale - t I`` is PD and ``|c| < 1``,
    ``-tau t - log det F - log(1 - |c|^2)``, with tau raised tenfold whenever
    an iterate is near the central path.  Each iterate is tested for both
    certificates: its combination, normalised, once it is PD (``feasible``
    when lambda_min clears ``tol scale`` and the Cholesky succeeds), and the
    unit-trace dual ``Z = F^-1 / tr F^-1`` (``infeasible_certified`` when
    every ``|tr(Z S_a)| < tol scale``).
    """
    d, n, _ = stack.shape
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
            L = _try_cholesky(A) if lam > tol * scale else None
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
        try:
            step = -np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:  # rounding has made H singular
            break
        dec = np.sqrt(-grad @ step)  # the Newton decrement
        x = x + step / (1.0 + dec)
        if dec < 0.5:
            tau *= 10.0
    return PDResult("inconclusive", float(best), coefficients=best_c)


def pd_feasible(stack, tol: float = 1e-8) -> PDResult:
    """Decide whether the span of a (d, n, n) stack of generators meets the
    open positive-definite cone: :func:`pd_feasible_batch` on a batch of
    one span."""
    return pd_feasible_batch(np.asarray(stack, dtype=float)[None], tol)[0]


def pd_feasible_batch(stack, tol: float = 1e-8) -> list:
    """Decide, for each span of an (m, d, n, n) stack of generators, whether
    it meets the open positive-definite cone; returns m results.

    The generators are checked and symmetrized by :func:`_symmetrized`.  A
    span with a non-finite entry is ``inconclusive`` and a zero span (or one
    of no generators) infeasible, with witness I/n.  Every other span is
    decided in the unit of its scale, its largest generator Frobenius norm:
    each test compares against ``tol * scale``, and every reported value is
    in the caller's units.  The spans go through one start screen, and those
    whose best start clears the tolerance through one batched Cholesky; only
    a span that this does not certify takes the barrier solve.  ``feasible``
    carries a unit coefficient vector, the smallest eigenvalue of its
    combination and the combination's Cholesky factor;
    ``infeasible_certified`` carries a unit-trace PSD witness U with
    ``|tr(U S_a)| < tol scale`` for every generator.
    """
    S = _symmetrized(stack)
    m, d, n, _ = S.shape
    out = [None] * m
    finite = np.isfinite(S).all(axis=(1, 2, 3))
    live = finite & (S * S).any(axis=(1, 2, 3))
    for i, f in zip(np.flatnonzero(~live).tolist(), finite[~live].tolist()):
        out[i] = (PDResult("infeasible_certified", 0.0, witness=np.eye(n) / n)
                  if f else PDResult("inconclusive", float("nan")))
    idx = np.flatnonzero(live)
    if not idx.size:
        return out
    norms = _norms(S[idx].reshape(-1, n * n))
    scales = norms.reshape(idx.size, d).max(axis=1)
    units, traced = _trace_units(S[idx])
    units[~traced, 0] = 1.0  # a span of traceless generators takes e_1
    starts, vals = _screen(S[idx], units)
    rows = np.arange(idx.size)
    k = np.argmax(vals, axis=1)
    best, best_c = vals[rows, k], starts[rows, k]
    ok = np.flatnonzero(best > tol * scales)
    A = np.einsum("ma,maij->mij", best_c[ok], S[idx[ok]])
    try:
        chol = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        chol = [_try_cholesky(a) for a in A]
    rest = np.ones(idx.size, dtype=bool)
    at, best_l = idx.tolist(), best.tolist()
    for j, L in zip(ok.tolist(), chol):
        if L is not None:
            out[at[j]] = PDResult("feasible", best_l[j],
                                  coefficients=best_c[j], cholesky=L)
            rest[j] = False
    for j in np.flatnonzero(rest).tolist():
        out[at[j]] = _barrier(S[at[j]], scales[j], best_l[j], best_c[j], tol)
    return out
