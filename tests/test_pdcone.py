from collections import Counter

import numpy as np
import pytest

from paracon.bundle import SymIndex
from paracon.pdcone import (SymSpan, _trace_units, _try_cholesky,
                            pd_feasible, pd_feasible_batch)

OFFDIAG = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_identity_span_is_feasible():
    res = pd_feasible(SymSpan(2, [np.eye(2)]))
    assert res.status == "feasible"
    assert res.best_lambda == pytest.approx(1.0, abs=1e-12)
    assert res.cholesky is not None
    combo = np.einsum("a,aij->ij", res.coefficients,
                      np.stack([np.eye(2)]))
    assert np.allclose(res.cholesky @ res.cholesky.T, combo)


def test_signature_one_one_is_certified_infeasible():
    S = np.diag([1.0, -1.0])
    res = pd_feasible(SymSpan(2, [S]))
    assert res.status == "infeasible_certified"
    # witness U = I/2 satisfies tr(U S) = 0
    assert abs(np.tensordot(res.witness, S)) < 1e-7
    assert np.linalg.eigvalsh(res.witness).min() >= -1e-12


def test_pure_cross_term_is_certified_infeasible():
    res = pd_feasible(SymSpan(2, [OFFDIAG]))
    assert res.status == "infeasible_certified"
    assert abs(np.tensordot(res.witness, OFFDIAG)) < 1e-7


def test_h1_span_golden_lambda():
    # h1 at r = 1 with k = 0.3 is diag(1, 0.09); eigenvalues 1 and 0.09
    k = 0.3
    res = pd_feasible(SymSpan(2, [np.diag([1.0, k * k])]))
    assert res.status == "feasible"
    assert res.best_lambda == pytest.approx(0.09, abs=1e-9)


def test_zero_span_is_infeasible():
    res = pd_feasible(SymSpan(2, [np.zeros((2, 2))]))
    assert res.status == "infeasible_certified"


def test_symspan_symmetrizes_and_validates():
    with pytest.raises(ValueError, match="symmetric"):
        SymSpan(2, [np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(ValueError):
        SymSpan(2, [])
    span = SymSpan.from_fiber_vectors(SymIndex(2), np.eye(3))
    assert span.dim == 3
    assert np.allclose(span.matrices[2], OFFDIAG)


def test_soundness_of_both_certificates_randomized():
    # random and traceless spans of every n = 2, 3, 4 and d <= 6: each ends
    # in a certificate that holds, never in inconclusive
    rng = np.random.default_rng(31)
    seen = Counter()
    for n in (2, 3, 4):
        sym = SymIndex(n)
        for _ in range(40):
            d = int(rng.integers(1, min(6, sym.N) + 1))
            mats = [sym.to_matrix(rng.standard_normal(sym.N))
                    for _ in range(d)]
            if rng.integers(2):
                mats = [S - np.trace(S) / n * np.eye(n) for S in mats]
            span = SymSpan(n, mats)
            res = pd_feasible(span)
            seen[res.status] += 1
            if res.status == "feasible":
                combo = span.combine(res.coefficients)
                assert np.linalg.norm(res.coefficients) == pytest.approx(1.0)
                assert np.linalg.eigvalsh(combo).min() > 0
                assert np.allclose(res.cholesky @ res.cholesky.T, combo,
                                   atol=1e-10)
            else:
                assert res.status == "infeasible_certified"
                assert np.trace(res.witness) == pytest.approx(1.0)
                assert np.linalg.eigvalsh(res.witness).min() >= -1e-12
                for S in span.matrices:
                    assert abs(np.tensordot(res.witness, S)) < 1e-7
    assert seen["feasible"] > 0 and seen["infeasible_certified"] > 0


def circle_grid_oracle(span, angles=10_000):
    """Exhaustive unit-circle sweep for d <= 2 spans of 2 x 2 matrices."""
    stack = np.stack(span.matrices)
    if span.dim == 1:
        coeffs = np.array([[1.0], [-1.0]])
    else:
        ts = np.linspace(0, 2 * np.pi, angles, endpoint=False)
        coeffs = np.stack([np.cos(ts), np.sin(ts)], axis=1)
    combos = np.einsum("ma,aij->mij", coeffs, stack)
    lam = np.linalg.eigvalsh(combos)[:, 0]
    return float(lam.max())


def test_agreement_with_circle_grid_oracle():
    rng = np.random.default_rng(77)
    sym = SymIndex(2)
    for _ in range(100):
        d = int(rng.integers(1, 3))
        mats = [sym.to_matrix(rng.standard_normal(3)) for _ in range(d)]
        span = SymSpan(2, mats)
        res = pd_feasible(span)
        oracle_best = circle_grid_oracle(span)
        if res.status == "feasible":
            assert oracle_best > 0
        else:
            assert res.status == "infeasible_certified"
            assert oracle_best <= 1e-6


def test_lambda_min_is_concave_in_coefficients():
    rng = np.random.default_rng(13)
    sym = SymIndex(3)
    mats = [sym.to_matrix(rng.standard_normal(6)) for _ in range(4)]
    span = SymSpan(3, mats)

    def lam(c):
        return np.linalg.eigvalsh(span.combine(c))[0]

    for _ in range(100):
        c1 = rng.standard_normal(4)
        c2 = rng.standard_normal(4)
        mid = lam(0.5 * (c1 + c2))
        assert mid >= 0.5 * (lam(c1) + lam(c2)) - 1e-10


def test_pd_feasible_is_deterministic():
    rng = np.random.default_rng(5)
    sym = SymIndex(3)
    mats = [sym.to_matrix(rng.standard_normal(6)) for _ in range(3)]
    # the screen certifies the first span; the second takes the barrier
    for span in (SymSpan(3, [mats[0] + 3.0 * np.eye(3)] + mats[1:]),
                 SymSpan(3, mats)):
        a, b = pd_feasible(span), pd_feasible(span)
        assert a.status == b.status
        assert a.best_lambda == b.best_lambda
        for field in ("coefficients", "cholesky", "witness"):
            assert _same_bits(getattr(a, field), getattr(b, field))


def _per_start_screen(span, tol=1e-8):
    """The screen start by start: one ``combine`` and one ``eigvalsh`` per
    start (e_a, -e_a, then +-the unit trace direction), the first best
    start, and the Cholesky of its combination when it clears ``tol``.
    Returns (best value, best start, Cholesky factor or None)."""
    d = span.dim
    eye = np.eye(d)
    starts = [eye[a] for a in range(d)] + [-eye[a] for a in range(d)]
    traces = np.array([np.trace(S) for S in span.matrices])
    if np.linalg.norm(traces) > 0:
        starts += [traces / np.linalg.norm(traces),
                   -traces / np.linalg.norm(traces)]
    vals = [np.linalg.eigvalsh(span.combine(c0))[0] for c0 in starts]
    k = int(np.argmax(vals))
    L = _try_cholesky(span.combine(starts[k])) if vals[k] > tol else None
    return vals[k], starts[k], L


def _same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _seeded_mats(rng, sym, d, kind):
    """d generators of a seeded span of one kind."""
    n = sym.n
    mats = [sym.to_matrix(rng.standard_normal(sym.N)) for _ in range(d)]
    if kind == "traceless":  # no trace starts, never feasible
        mats = [S - np.trace(S) / n * np.eye(n) for S in mats]
    elif kind == "hidden":  # PD only off the unit-vector starts
        P = np.eye(n) + 0.1 * mats[0] @ mats[0]
        mats = [P + 4.0 * S for S in mats[1:]] + [P - 4.0 * mats[0]]
    elif kind == "zero":
        mats = [np.zeros((n, n))] * d
    elif kind == "tilted":  # often won by a trace start
        mats[0] = mats[0] + 3.0 * np.eye(n)
    elif kind == "tiny":  # PD, but lambda_min is far below the tolerance
        mats = [1e-12 * (np.eye(n) + 0.1 * S) for S in mats]
    return mats


def _cholesky_failing_matrix():
    """A seeded near-singular 2 x 2 matrix whose smallest eigenvalue, as
    ``eigvalsh`` computes it, clears 1e-8 while its Cholesky fails."""
    rng = np.random.default_rng(0)
    a = rng.integers(1, 10**6, 4000) * 1e4
    b = rng.integers(1, 10**6, 4000) * 1e4
    A = np.stack([np.stack([a, b], -1), np.stack([b, b * b / a], -1)], 1)
    return next(M for M in A[np.linalg.eigvalsh(A)[:, 0] > 1e-8]
                if _try_cholesky(M) is None)


def test_pd_feasible_batch_matches_pd_feasible_bit_for_bit():
    # mixed batches of one (n, d): every branch, decided by the batch's one
    # screen and one Cholesky or by its per-span barrier, as on its own
    rng = np.random.default_rng(2025)
    kinds = ("random", "tilted", "traceless", "hidden", "zero", "tiny")
    seen = Counter()
    for n in (2, 3, 4):
        sym = SymIndex(n)
        for d in range(1, min(6, sym.N) + 1):
            spans = [_seeded_mats(rng, sym, d, kind) for kind in kinds]
            if (n, d) == (2, 1):
                spans.append([_cholesky_failing_matrix()])
            got = pd_feasible_batch(np.array(spans))
            assert len(got) == len(spans)
            for mats, res in zip(spans, got):
                span = SymSpan(n, mats)
                want = pd_feasible(span)
                where = (n, d)
                assert res.status == want.status, where
                for field in ("best_lambda", "coefficients", "cholesky",
                              "witness"):
                    assert _same_bits(getattr(res, field),
                                      getattr(want, field)), (where, field)
                traces = np.trace(np.array(mats), axis1=1, axis2=2)
                seen["traceless"] += np.any(mats) and not np.any(traces)
                if not np.any(mats):
                    seen["zero"] += 1
                    continue
                # the screen start by start, in its own arithmetic
                val, c0, L = _per_start_screen(span)
                if want.status == "feasible":
                    branch = "screen" if L is not None else "barrier"
                    if L is not None:
                        assert _same_bits(res.best_lambda, val), where
                        assert _same_bits(res.coefficients, c0), where
                        assert _same_bits(res.cholesky, L), where
                        if d > 1 and np.allclose(
                                np.abs(res.coefficients @ traces),
                                np.linalg.norm(traces)):
                            seen["trace start"] += 1
                elif val > 1e-8:
                    branch = "cholesky failed"
                else:
                    branch = want.status
                seen[branch] += 1
    for branch in ("zero", "traceless", "screen", "trace start", "barrier",
                   "cholesky failed", "infeasible_certified", "inconclusive"):
        assert seen[branch] > 0, branch


def test_trace_units_take_each_norm_as_the_reference_does():
    # a norm along the batch axis can differ in the last bit, which moves
    # the trace starts
    rng = np.random.default_rng(8)
    for n in (2, 3, 4):
        for d in range(1, 11):
            stack = rng.standard_normal((40, d, n, n))
            units, traced = _trace_units(stack)
            assert traced.all()
            for S, unit in zip(stack, units):
                traces = np.array([np.trace(M) for M in S])
                assert _same_bits(unit, traces / np.linalg.norm(traces))


def test_pd_feasible_batch_checks_its_generators():
    with pytest.raises(ValueError, match="symmetric"):
        pd_feasible_batch(np.array([[[[0.0, 1.0], [0.0, 0.0]]]]))
    with pytest.raises(ValueError, match="size"):
        pd_feasible_batch(np.zeros((1, 1, 2, 3)))


def test_screen_certified_span_makes_one_eigvalsh_call(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    span = SymSpan(3, [np.diag([1.0, -1.0, 2.0]), np.eye(3),
                       np.diag([0.5, 1.0, -3.0])])
    res = pd_feasible(span)
    assert res.status == "feasible"
    assert calls == [(2 * 3 + 2, 3, 3)]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_span_is_inconclusive(bad):
    mats = [[[bad, 0.0], [0.0, 1.0]]]
    res = pd_feasible(SymSpan(2, mats))
    assert res.status == "inconclusive"
    # in a batch, beside a span that the screen certifies
    got = pd_feasible_batch(np.array([mats, [np.eye(2)]]))
    assert [r.status for r in got] == ["inconclusive", "feasible"]
