import warnings
from collections import Counter

import numpy as np
import pytest

from paracon import pdcone
from paracon.bundle import SymIndex
from paracon.pdcone import (_norms, _trace_units, _try_cholesky, pd_feasible,
                            pd_feasible_batch)
from reference import two_group_pd_feasible_batch

OFFDIAG = np.array([[0.0, 1.0], [1.0, 0.0]])


def _combine(span, coeff):
    """The combination sum_a coeff[a] span[a] of a (d, n, n) stack."""
    return np.einsum("a,aij->ij", np.asarray(coeff, dtype=float), span)


def test_identity_span_is_feasible():
    res = pd_feasible(np.eye(2)[None])
    assert res.status == "feasible"
    assert res.best_lambda == pytest.approx(1.0, abs=1e-12)
    assert res.cholesky is not None
    combo = np.einsum("a,aij->ij", res.coefficients,
                      np.stack([np.eye(2)]))
    assert np.allclose(res.cholesky @ res.cholesky.T, combo)


def test_signature_one_one_is_certified_infeasible():
    S = np.diag([1.0, -1.0])
    res = pd_feasible(S[None])
    assert res.status == "infeasible_certified"
    # witness U = I/2 satisfies tr(U S) = 0
    assert abs(np.tensordot(res.witness, S)) < 1e-7
    assert np.linalg.eigvalsh(res.witness).min() >= -1e-12


def test_pure_cross_term_is_certified_infeasible():
    res = pd_feasible(OFFDIAG[None])
    assert res.status == "infeasible_certified"
    assert abs(np.tensordot(res.witness, OFFDIAG)) < 1e-7


def test_h1_span_golden_lambda():
    # h1 at r = 1 with k = 0.3 is diag(1, 0.09); eigenvalues 1 and 0.09
    k = 0.3
    res = pd_feasible(np.diag([1.0, k * k])[None])
    assert res.status == "feasible"
    assert res.best_lambda == pytest.approx(0.09, abs=1e-9)


def test_zero_span_is_infeasible():
    res = pd_feasible(np.zeros((1, 2, 2)))
    assert res.status == "infeasible_certified"


def test_pd_feasible_symmetrizes_and_validates():
    with pytest.raises(ValueError, match="symmetric"):
        pd_feasible(np.array([[[0.0, 1.0], [0.0, 0.0]]]))
    # an asymmetry below 1e-10 is symmetrized away
    skew = np.array([[0.0, 1e-12], [-1e-12, 0.0]])
    res = pd_feasible(np.array([np.eye(2) + skew]))
    assert _same_bits(res.cholesky, pd_feasible(np.eye(2)[None]).cholesky)
    # a span of no generators meets no cone
    res = pd_feasible(np.zeros((0, 2, 2)))
    assert (res.status, res.best_lambda) == ("infeasible_certified", 0.0)
    # fiber vectors become generators through the SymIndex
    span = SymIndex(2).to_matrix(np.eye(3))
    assert span.shape == (3, 2, 2)
    assert np.array_equal(span[2], OFFDIAG)
    assert pd_feasible(span).status == "feasible"


@pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
def test_scaled_identity_is_feasible_without_warning(c):
    # the tolerance is relative to the largest generator norm, so c I is
    # decided as I is, at every scale, and the barrier is not reached
    spans = np.array([[c * np.eye(2), c * np.diag([1.0, -1.0])],
                      [c * np.eye(2), c * np.eye(2)]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = pd_feasible(c * np.eye(2)[None])
        got = pd_feasible_batch(spans)
    assert res.status == "feasible"
    assert res.best_lambda == c  # in the caller's units
    assert [r.status for r in got] == ["feasible", "feasible"]


def test_tiny_spans_are_feasible_without_warning():
    rng = np.random.default_rng(12)
    for n in (2, 3, 4):
        sym = SymIndex(n)
        for d in range(1, min(6, sym.N) + 1):
            span = np.array(_seeded_mats(rng, sym, d, "tiny"))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = pd_feasible(span)
            assert res.status == "feasible", (n, d)
            assert np.linalg.eigvalsh(_combine(span, res.coefficients))[0] > 0


def test_status_is_invariant_under_scaling():
    # a span and its multiples get the same answer; by a power of two, the
    # same bits up to that factor
    rng = np.random.default_rng(7)
    kinds = ("random", "tilted", "traceless", "hidden", "zero", "tiny")
    seen = Counter()
    for n in (2, 3, 4):
        sym = SymIndex(n)
        for d in range(1, min(6, sym.N) + 1):
            spans = np.array([_seeded_mats(rng, sym, d, kind)
                              for kind in kinds])
            base = pd_feasible_batch(spans)
            seen.update(r.status for r in base)
            for f in (2.0 ** 20, 2.0 ** -20, 1e10, 1e-10):
                got = pd_feasible_batch(f * spans)
                assert ([r.status for r in got]
                        == [r.status for r in base]), (n, d, f)
                if f in (1e10, 1e-10):
                    continue
                for r, r0 in zip(got, base):
                    assert _same_bits(r.best_lambda, f * r0.best_lambda)
                    assert _same_bits(r.coefficients, r0.coefficients)
    assert seen["feasible"] > 0 and seen["infeasible_certified"] > 0


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
            span = np.array(mats)
            res = pd_feasible(span)
            seen[res.status] += 1
            if res.status == "feasible":
                combo = _combine(span, res.coefficients)
                assert np.linalg.norm(res.coefficients) == pytest.approx(1.0)
                assert np.linalg.eigvalsh(combo).min() > 0
                assert np.allclose(res.cholesky @ res.cholesky.T, combo,
                                   atol=1e-10)
            else:
                assert res.status == "infeasible_certified"
                assert np.trace(res.witness) == pytest.approx(1.0)
                assert np.linalg.eigvalsh(res.witness).min() >= -1e-12
                for S in span:
                    assert abs(np.tensordot(res.witness, S)) < 1e-7
    assert seen["feasible"] > 0 and seen["infeasible_certified"] > 0


def circle_grid_oracle(stack, angles=10_000):
    """Exhaustive unit-circle sweep for (d, 2, 2) stacks with d <= 2."""
    if len(stack) == 1:
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
        span = np.array(mats)
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
    span = np.array(mats)

    def lam(c):
        return np.linalg.eigvalsh(_combine(span, c))[0]

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
    for span in (np.array([mats[0] + 3.0 * np.eye(3)] + mats[1:]),
                 np.array(mats)):
        a, b = pd_feasible(span), pd_feasible(span)
        assert a.status == b.status
        assert a.best_lambda == b.best_lambda
        for field in ("coefficients", "cholesky", "witness"):
            assert _same_bits(getattr(a, field), getattr(b, field))


def _scale(span):
    """The largest generator norm of a (d, n, n) stack."""
    return max(np.linalg.norm(S) for S in span)


def _per_start_screen(span, tol=1e-8):
    """The screen start by start: one combination and one ``eigvalsh`` per
    start (e_a, -e_a, then +-the unit trace direction), the first best
    start, and the Cholesky of its combination when it clears ``tol``
    times the largest generator norm.
    Returns (best value, best start, Cholesky factor or None)."""
    d = len(span)
    eye = np.eye(d)
    starts = [eye[a] for a in range(d)] + [-eye[a] for a in range(d)]
    traces = np.array([np.trace(S) for S in span])
    if np.linalg.norm(traces) > 0:
        starts += [traces / np.linalg.norm(traces),
                   -traces / np.linalg.norm(traces)]
    vals = [np.linalg.eigvalsh(_combine(span, c0))[0] for c0 in starts]
    k = int(np.argmax(vals))
    L = (_try_cholesky(_combine(span, starts[k]))
         if vals[k] > tol * _scale(span) else None)
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
    ``eigvalsh`` computes it, clears 1e-8 while its Cholesky fails.  Its
    generator norm is about 2e10, so only a relative tolerance below about
    2e-17 lets it reach the Cholesky."""
    rng = np.random.default_rng(0)
    a = rng.integers(1, 10**6, 4000) * 1e4
    b = rng.integers(1, 10**6, 4000) * 1e4
    A = np.stack([np.stack([a, b], -1), np.stack([b, b * b / a], -1)], 1)
    return next(M for M in A[np.linalg.eigvalsh(A)[:, 0] > 1e-8]
                if _try_cholesky(M) is None)


def test_pd_feasible_batch_matches_pd_feasible_bit_for_bit():
    # mixed batches of one (n, d): every branch, decided by the batch's one
    # screen and one Cholesky or by its per-span barrier, as on its own.
    # The n = 2 batches also run at tol 1e-20, where the near-singular span
    # clears the screen and fails its Cholesky, and some spans end
    # inconclusive.
    rng = np.random.default_rng(2025)
    kinds = ("random", "tilted", "traceless", "hidden", "zero", "tiny")
    seen = Counter()
    for n in (2, 3, 4):
        sym = SymIndex(n)
        for d in range(1, min(6, sym.N) + 1):
            spans = [_seeded_mats(rng, sym, d, kind) for kind in kinds]
            if (n, d) == (2, 1):
                spans.append([_cholesky_failing_matrix()])
            for tol in (1e-8, 1e-20) if n == 2 else (1e-8,):
                got = pd_feasible_batch(np.array(spans), tol)
                assert len(got) == len(spans)
                for mats, res in zip(spans, got):
                    seen.update(_branch(np.array(mats), res, tol, (n, d)))
    for branch in ("zero", "traceless", "screen", "trace start", "barrier",
                   "cholesky failed", "infeasible_certified", "inconclusive"):
        assert seen[branch] > 0, branch


def _branch(span, res, tol, where):
    """Check a batch's result for one span against ``pd_feasible`` on its
    own, bit for bit, and a screen-certified one against the per-start
    screen; returns the branches it took."""
    want = pd_feasible(span, tol)
    assert res.status == want.status, where
    for field in ("best_lambda", "coefficients", "cholesky", "witness"):
        assert _same_bits(getattr(res, field), getattr(want, field)), \
            (where, field)
    traces = np.trace(span, axis1=1, axis2=2)
    if not np.any(span):
        return ["zero"]
    branches = ["traceless"] if not np.any(traces) else []
    # the screen start by start, in its own arithmetic
    val, c0, L = _per_start_screen(span, tol)
    if want.status == "feasible":
        if L is None:
            return branches + ["barrier"]
        assert _same_bits(res.best_lambda, val), where
        assert _same_bits(res.coefficients, c0), where
        assert _same_bits(res.cholesky, L), where
        if len(span) > 1 and np.allclose(np.abs(res.coefficients @ traces),
                                         np.linalg.norm(traces)):
            branches.append("trace start")
        return branches + ["screen"]
    if val > tol * _scale(span):
        return branches + ["cholesky failed"]
    return branches + [want.status]


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


def test_generator_norms_take_each_norm_as_the_reference_does():
    # one batched matmul gives each row's own dot, bit for bit
    rng = np.random.default_rng(15)
    for n in (1, 2, 3, 4, 6):
        for d in range(1, 11):
            stack = rng.standard_normal((40 * d, n, n)) * rng.choice(
                [1e-150, 1.0, 1e150], (40 * d, 1, 1))
            for M, norm in zip(stack, _norms(stack.reshape(-1, n * n))):
                assert _same_bits(norm, np.linalg.norm(M))


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
    span = np.array([np.diag([1.0, -1.0, 2.0]), np.eye(3),
                     np.diag([0.5, 1.0, -3.0])])
    res = pd_feasible(span)
    assert res.status == "feasible"
    assert calls == [(2 * 3 + 2, 3, 3)]


def test_singular_newton_system_is_inconclusive():
    # three traceless 2 x 2 generators are dependent; at a tolerance below
    # rounding the barrier runs on until its Newton system is singular
    span = np.array(_seeded_mats(np.random.default_rng(0), SymIndex(2), 3,
                                 "traceless"))
    assert pd_feasible(span, tol=1e-20).status == "inconclusive"
    assert pd_feasible(span).status == "infeasible_certified"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_span_is_inconclusive(bad):
    mats = [[[bad, 0.0], [0.0, 1.0]]]
    res = pd_feasible(np.array(mats))
    assert res.status == "inconclusive"
    # in a batch, beside a span that the screen certifies
    got = pd_feasible_batch(np.array([mats, [np.eye(2)]]))
    assert [r.status for r in got] == ["inconclusive", "feasible"]


def _assert_same_results(got, want, where=None):
    for a, b in zip(got, want, strict=True):
        assert a.status == b.status, where
        for field in ("best_lambda", "coefficients", "cholesky", "witness"):
            assert _same_bits(getattr(a, field), getattr(b, field)), \
                (where, field)


def test_one_screen_matches_the_two_group_screen_bit_for_bit(monkeypatch):
    # the screen gives every span the starts +-e_a and +-u, u its unit trace
    # direction or e_1; the reference screens the spans whose u is exactly
    # +-e_a, and the traceless ones, without +-u.  A repeated start ties with
    # the first and argmax takes the first, so every field keeps its bits.
    # One-generator spans of either trace sign (u = +-e_1), a two-generator
    # span with one traced generator (u = e_2), a trace whose square is
    # subnormal (|u| != 1), traceless spans and spans the barrier decides:
    t = 1.5e-160
    spans = [[np.diag([2.0, 1.0])], [np.diag([-2.0, -1.0])],
             [np.diag([3.0, -1.0])], [np.diag([1.0, -3.0])],
             [np.diag([t, 0.0])], [np.diag([1.0, -1.0])], [OFFDIAG],
             [np.diag([1.0, -1.0]), np.diag([0.5, 2.0])],
             [np.array([[1.0, 2.0], [2.0, 1.0]])]]
    units, _ = _trace_units(np.array([s[:1] for s in spans[:5]]))
    assert units[:4, 0].tolist() == [1.0, -1.0, 1.0, -1.0]
    assert abs(units[4, 0]) != 1.0
    # and one batch that mixes them at d = 2: u off the axes, u = e_2,
    # u = -e_2 (whose 0.0 is -0.0 in the start -e_2 that wins), traceless,
    # and two the barrier decides, one feasible (traced, with no PD start)
    # and one infeasible
    mixed = np.array([[np.eye(2), np.diag([1.0, 3.0])],
                      [np.diag([1.0, -1.0]), np.diag([0.5, 2.0])],
                      [np.diag([1.0, -1.0]), np.diag([-0.5, -2.0])],
                      [np.diag([1.0, -1.0]), OFFDIAG],
                      [np.diag([1.0, -0.6]), np.diag([-3.0, 2.0])],
                      [np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])]])
    units, traced = _trace_units(mixed)
    assert traced.tolist() == [True, True, True, False, True, False]
    assert units[1:3].tolist() == [[0.0, 1.0], [0.0, -1.0]]
    assert 0.0 not in units[[0, 4]]
    barrier, decided = pdcone._barrier, []

    def recorded(*args):
        decided.append(barrier(*args))
        return decided[-1]

    with monkeypatch.context() as m:
        m.setattr(pdcone, "_barrier", recorded)
        got = pd_feasible_batch(mixed)
    assert [r.status for r in decided] == [
        "infeasible_certified", "feasible", "infeasible_certified"]
    _assert_same_results(got, two_group_pd_feasible_batch(mixed))
    for d in (1, 2):
        batch = np.array([s for s in spans if len(s) == d])
        _assert_same_results(pd_feasible_batch(batch),
                             two_group_pd_feasible_batch(batch), d)
    # the seeded spans of every kind, also at a tolerance where the
    # near-singular span fails its Cholesky
    rng = np.random.default_rng(2025)
    kinds = ("random", "tilted", "traceless", "hidden", "zero", "tiny")
    for n in (2, 3, 4):
        sym = SymIndex(n)
        for d in range(1, min(6, sym.N) + 1):
            batch = [_seeded_mats(rng, sym, d, kind) for kind in kinds]
            if (n, d) == (2, 1):
                batch.append([_cholesky_failing_matrix()])
            for tol in (1e-8, 1e-20) if n == 2 else (1e-8,):
                _assert_same_results(
                    pd_feasible_batch(np.array(batch), tol),
                    two_group_pd_feasible_batch(np.array(batch), tol),
                    (n, d, tol))
