import json

import numpy as np
import pytest

from paracon import flag as flagmod
from paracon.bundle import (ConnectionSpec, Domain, PointOutsideDomain,
                            curvature_pairs, curvature_stack,
                            nudge_off_breakpoints, omega_stack)
from paracon.expr import parse_expr
from paracon.flag import (EmptyGrid, FlagLevel, IrregularPoint,
                          NotSym2Bundle, Subspace, batch_terminal_bases,
                          curvature_kernel, derived_flag, kernel_intersection,
                          local_metricity, principal_angles, regularity_scan,
                          second_fundamental_kernel)
from paracon.transport import transport
from reference import (EvalContext, evaluate, line_curve,
                       two_group_pd_feasible_batch)


def test_kernel_of_zero_map_is_full():
    sub = kernel_intersection([np.zeros((4, 4))], 1e-7)
    assert sub.dim == 4
    assert np.allclose(sub.basis.T @ sub.basis, np.eye(4))


def test_kernel_of_identity_is_trivial():
    sub = kernel_intersection([np.eye(3)], 1e-7)
    assert sub.dim == 0


def test_kernel_of_sphere_curvature_at_pi_third(sphere_spec):
    R = curvature_stack(sphere_spec, [(np.pi / 3, 1.0)])[0, 0]
    sub = kernel_intersection([R], 1e-7)
    assert sub.dim == 1
    want = np.array([1.0, 0.75, 0.0])  # sin^2(pi/3) = 0.75
    want /= np.linalg.norm(want)
    assert principal_angles(sub.basis, want).max() < 1e-12


def test_kernel_intersection_of_several_matrices():
    a = np.diag([1.0, 0.0, 0.0])
    b = np.diag([0.0, 1.0, 0.0])
    sub = kernel_intersection([a, b], 1e-7)
    assert sub.dim == 1
    assert abs(abs(sub.basis[2, 0]) - 1.0) < 1e-12


def test_kernel_intersection_validates_rank_tol():
    with pytest.raises(ValueError):
        kernel_intersection([np.eye(2)], 2.0)


def test_curvature_kernel_flat_full(flat_spec):
    assert curvature_kernel(flat_spec, (0.1, 0.2))[0].dim == 3


def test_curvature_kernel_sphere(sphere_spec):
    for theta in (0.5, 1.2, 2.8):
        assert curvature_kernel(sphere_spec, (theta, 0.3))[0].dim == 1


def test_curvature_kernel_pathology_middle_band(pathology_spec):
    assert curvature_kernel(pathology_spec, (0.5, 0.0))[0].dim == 3


def test_curvature_kernel_one_dimensional_chart(circle_line_spec):
    assert curvature_kernel(circle_line_spec, (1.0,))[0].dim == 1


def test_sff_full_space_on_flat(flat_spec):
    V = curvature_kernel(flat_spec, (0.0, 0.0))
    assert V[0].dim == 3
    out = second_fundamental_kernel(flat_spec, (0.0, 0.0), V)
    assert out[0].dim == 3


def test_sff_sphere_kernel_survives(sphere_spec):
    p = (np.pi / 3, 1.0)
    V = curvature_kernel(sphere_spec, p)
    out = second_fundamental_kernel(sphere_spec, p, V)[0]
    assert out.dim == 1
    assert principal_angles(out.basis, V[0].basis).max() < 1e-8


def test_sff_pathology_left_band_metric_direction(pathology_spec):
    # oracle: the local parallel metrics are c (dx^2 + f(x) dy^2)
    x = -0.5
    f = 1.0 + np.exp(-1.0 / x ** 2)
    p = (x, 0.0)
    V = curvature_kernel(pathology_spec, p)
    out = second_fundamental_kernel(pathology_spec, p, V)[0]
    assert out.dim == 1
    want = np.array([1.0, f, 0.0])
    want /= np.linalg.norm(want)
    assert principal_angles(out.basis, want).max() < 1e-6


def test_derived_flag_flat_trace(flat_spec):
    tr = derived_flag(flat_spec, (0.3, 0.3))
    assert tr.dims == [3]
    assert tr.stabilization_level == 0
    assert tr.terminal.dim == 3


def test_derived_flag_sphere_trace(sphere_spec):
    tr = derived_flag(sphere_spec, (np.pi / 3, 1.0))
    assert tr.dims == [1, 1]
    assert tr.stabilization_level == 1
    want = np.array([1.0, 0.75, 0.0])
    want /= np.linalg.norm(want)
    assert principal_angles(tr.terminal.basis, want).max() < 1e-10


def test_derived_flag_punctured_plane(plane_spec):
    tr = derived_flag(plane_spec, (1.0, 0.5))
    assert tr.dims == [3]


def test_derived_flag_strictly_decreasing_staircase(staircase_spec):
    # hand oracle: ker R = {v1 = v3} (dim 2); the section through
    # (e1+e3)/sqrt(2) has a nonzero second fundamental form, e2 is parallel
    tr = derived_flag(staircase_spec, (0.2, -0.3))
    assert tr.dims == [2, 1, 1]
    e2 = np.array([0.0, 1.0, 0.0])
    assert principal_angles(tr.terminal.basis, e2).max() < 1e-8


def test_regularity_scan_punctured_plane(plane_spec):
    rep = regularity_scan(plane_spec, [[0.5, 1.0, 1.5, 2.0, 2.5],
                                       [0.4, 1.2, 2.0, 2.7, 3.5, 4.3, 5.1, 5.9]])
    assert rep.regular_on_grid
    assert rep.dims.tolist() == [3] * 40
    assert rep.jumps == []


def test_regularity_scan_pathology(pathology_spec):
    xs = [-1.0, -0.5, 0.25, 0.5, 0.75, 1.5, 2.0]
    rep = regularity_scan(pathology_spec, [xs, [0.0]])
    assert rep.dims.tolist() == [1, 1, 3, 3, 3, 1, 1]
    assert not rep.regular_on_grid
    spans = sorted((min(a[0], b[0]), max(a[0], b[0]))
                   for a, b, _, _ in rep.jumps)
    assert spans == [(-0.5, 0.25), (0.75, 1.5)]
    assert spans[0][0] < 0.0 < spans[0][1]   # straddles x0
    assert spans[1][0] < 1.0 < spans[1][1]   # straddles x1


def _reference_jumps(rep):
    """The jump list as the per-node loop built it: every axis in turn, the
    nodes in row-major order."""
    grid = np.reshape(rep.dims, [len(a) for a in rep.axes])
    jumps = []
    for axis in range(len(rep.axes)):
        for idx in np.ndindex(grid.shape):
            if idx[axis] + 1 >= grid.shape[axis]:
                continue
            jdx = list(idx)
            jdx[axis] += 1
            a, b = int(grid[idx]), int(grid[tuple(jdx)])
            if a != b:
                jumps.append(([rep.axes[c][idx[c]] for c in range(grid.ndim)],
                              [rep.axes[c][jdx[c]] for c in range(grid.ndim)],
                              a, b))
    return jumps


def test_regularity_scan_jumps_keep_the_per_node_order():
    from paracon.corpus import get_entry
    man = get_entry("smooth-pathology").manifest()
    rep = regularity_scan(man.spec, man.grid_axes)
    assert len(rep.jumps) == 2
    assert rep.jumps == _reference_jumps(rep)

    # a 3-axis chart with two jump surfaces, x = 0 and y = 0: flat for
    # x, y < 0, curved where either cubic is on
    dom = Domain(names=("x", "y", "z"), lows=(-2.0,) * 3, highs=(2.0,) * 3)
    z = parse_expr("0")
    omega = [[[z, z, z], [z, parse_expr("if(x < 0, 0, x^3)"), z]],
             [[z, z, parse_expr("if(y < 0, 0, y^3)")], [z, z, z]]]
    spec = ConnectionSpec(dom, kind="matrix", fiber_dim=2, omega=omega)
    rep = regularity_scan(spec, [[-0.6, -0.2, 0.3, 0.7], [-0.5, 0.4, 0.9],
                                 [-1.0, 0.0, 1.0]])
    assert {axis for axis in range(3) for a, b, _, _ in rep.jumps
            if a[axis] != b[axis]} == {0, 1}
    assert len(rep.jumps) == 21
    assert rep.jumps == _reference_jumps(rep)
    for got, want in zip(rep.jumps, _reference_jumps(rep)):
        assert [type(v) for v in got[2:]] == [type(v) for v in want[2:]]


def test_regularity_scan_constant_matrix_connection():
    dom = Domain(names=("x", "y"), lows=(-2.0, -2.0), highs=(2.0, 2.0))
    z, one = parse_expr("0"), parse_expr("1")
    omega = [[[one, z], [z, z]], [[z, z], [one, one]]]
    spec = ConnectionSpec(dom, kind="matrix", fiber_dim=2, omega=omega)
    rep = regularity_scan(spec, [[-1.0, 0.0, 1.0], [-1.0, 1.0]])
    assert rep.regular_on_grid
    assert len(set(rep.dims)) == 1


def test_regularity_scan_empty_grid(flat_spec):
    with pytest.raises(EmptyGrid):
        regularity_scan(flat_spec, [[], [0.0]])


def _one_point_scan(spec, p):
    """The scan of the one-node grid at p: a batch of one."""
    return regularity_scan(spec, [[v] for v in p])


def test_local_metricity_sphere_certificate(sphere_spec):
    p = (np.pi / 3, 1.0)
    rep = _one_point_scan(sphere_spec, p)
    tr = rep.trace(0)
    lm, = local_metricity(sphere_spec, rep.levels[-1])
    assert lm.status == "feasible"
    # certificate combination must be proportional to X1 + 0.75 X2
    combo = tr.terminal.basis @ lm.coefficients
    combo /= np.linalg.norm(combo)
    want = np.array([1.0, 0.75, 0.0])
    want /= np.linalg.norm(want)
    assert min(np.abs(combo - want).max(), np.abs(combo + want).max()) < 1e-10
    assert lm.cholesky is not None


def test_local_metricity_pathology_left_band(pathology_spec):
    rep = _one_point_scan(pathology_spec, (-0.5, 0.0))
    lm, = local_metricity(pathology_spec, rep.levels[-1])
    assert lm.status == "feasible"


def test_local_metricity_rejects_pure_cross_term(flat_spec):
    # span(dx (x) dy + dy (x) dx) has no PD element
    cross = np.array([0.0, 0.0, 1.0])
    level = FlagLevel(np.array([1]), cross[None, :, None],
                      np.array([np.inf]), 1e-7)
    lm, = local_metricity(flat_spec, level)
    assert lm.status != "feasible"
    assert lm.status == "infeasible_certified"


def test_local_metricity_requires_sym2(circle_line_spec):
    rep = _one_point_scan(circle_line_spec, (1.0,))
    with pytest.raises(NotSym2Bundle):
        local_metricity(circle_line_spec, rep.levels[-1])


def _same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def test_batched_local_metricity_matches_per_point_bit_for_bit():
    # one call over a shuffled batch of every terminal dim d = 0 ... 6 that
    # fits the fiber against one pd_feasible per point
    from paracon.pdcone import pd_feasible
    rng = np.random.default_rng(41)
    seen = set()
    for n in (2, 3, 4):
        names = ("x", "y", "z", "w")[:n]
        spec = ConnectionSpec(Domain(names, (-1.0,) * n, (1.0,) * n),
                              kind="christoffel", gamma={})
        N = spec.N
        unit_trace = np.zeros(N)
        unit_trace[:n] = 1.0 / np.sqrt(n)
        subs = []
        for d in range(min(6, N) + 1):
            for kind in ("random", "traceless", "tilted"):
                G = rng.standard_normal((N, d))
                if kind == "traceless":  # no trace starts
                    if d == N:
                        continue
                    G -= np.outer(unit_trace, unit_trace @ G)
                elif kind == "tilted" and d:  # often won by a trace start
                    G[:, 0] += 3.0 * np.sqrt(n) * unit_trace
                basis = np.linalg.qr(G)[0]
                subs.append(Subspace(N, basis))
        subs = [subs[i] for i in rng.permutation(len(subs))]
        level = FlagLevel(np.array([s.dim for s in subs]),
                          np.zeros((len(subs), N, min(6, N))),
                          np.full(len(subs), np.inf), 1e-7)
        for i, s in enumerate(subs):
            level.bases[i, :, :s.dim] = s.basis
        got = local_metricity(spec, level)
        assert len(got) == len(subs)
        for sub, lm in zip(subs, got):
            want = pd_feasible(spec.sym.to_matrix(sub.basis.T))
            assert lm.status == want.status
            for field in ("best_lambda", "coefficients", "cholesky",
                          "witness"):
                assert _same_bits(getattr(lm, field), getattr(want, field))
            if sub.dim == 0:
                assert (lm.status, lm.best_lambda) == (
                    "infeasible_certified", 0.0)
                seen.add("zero")
            else:
                seen.add(want.status)
    assert seen == {"zero", "feasible", "infeasible_certified"}


def test_local_metricity_makes_one_pd_call_per_terminal_dim(monkeypatch):
    # 300 spans of dim 2, more than the flag's slice of 256 points, and 30
    # of dim 1, shuffled: one pd_feasible_batch call per dim, with the bits
    # of the reference that screens them in two groups
    from paracon import pdcone
    spec = ConnectionSpec(Domain(("x", "y", "z"), (-1.0,) * 3, (1.0,) * 3),
                          kind="christoffel", gamma={})
    N = spec.N
    unit_trace = np.zeros(N)
    unit_trace[:3] = 1.0 / np.sqrt(3.0)
    rng = np.random.default_rng(43)
    dims = rng.permutation(np.repeat([1, 2], [30, 300]))
    level = FlagLevel(dims, np.zeros((dims.size, N, 2)),
                      np.full(dims.size, np.inf), 1)
    for i, d in enumerate(dims.tolist()):
        G = rng.standard_normal((N, d))
        if i % 3 == 1:  # traceless: no trace starts
            G -= np.outer(unit_trace, unit_trace @ G)
        elif i % 3 == 2:  # often won by a trace start
            G[:, 0] += 3.0 * np.sqrt(3.0) * unit_trace
        level.bases[i, :, :d] = np.linalg.qr(G)[0]
    batch, calls = pdcone.pd_feasible_batch, []

    def counted(stack, tol):
        calls.append(stack.shape)
        return batch(stack, tol)

    monkeypatch.setattr(pdcone, "pd_feasible_batch", counted)
    got = local_metricity(spec, level)
    assert calls == [(30, 1, 3, 3), (300, 2, 3, 3)]
    for d in (1, 2):
        idx = np.flatnonzero(dims == d)
        want = two_group_pd_feasible_batch(spec.sym.to_matrix(
            level.bases[idx, :, :d].transpose(0, 2, 1)))
        for i, w in zip(idx.tolist(), want, strict=True):
            assert got[i].status == w.status
            for field in ("best_lambda", "coefficients", "cholesky",
                          "witness"):
                assert _same_bits(getattr(got[i], field), getattr(w, field))
    assert {r.status for r in got} == {"feasible", "infeasible_certified"}


def test_flag_monotonicity_randomized():
    rng = np.random.default_rng(19)
    dom = Domain(names=("x", "y"), lows=(-2.0, -2.0), highs=(2.0, 2.0))
    texts = ["0", "1", "x", "y", "sin(x)", "x*y", "exp(x/2)", "cos(y)"]
    done = 0
    while done < 100:
        N = int(rng.integers(2, 4))
        omega = [[[parse_expr(str(rng.choice(texts))) for _ in range(2)]
                  for _ in range(N)] for _ in range(N)]
        spec = ConnectionSpec(dom, kind="matrix", fiber_dim=N, omega=omega)
        p = rng.uniform(-1.0, 1.0, 2)
        try:
            tr = derived_flag(spec, p)
        except IrregularPoint:
            continue
        dims = tr.dims
        assert all(a >= b for a, b in zip(dims, dims[1:]))
        if len(dims) >= 2:
            assert dims[-1] == dims[-2] or dims[-1] == 0
        assert tr.stabilization_level <= N + 1
        done += 1


def test_terminal_subspace_transport_invariance(sphere_spec, dtheta_spec):
    rng = np.random.default_rng(23)
    for spec, lo, hi in ((sphere_spec, 0.5, 2.6), (dtheta_spec, 0.7, 2.7)):
        for _ in range(10):
            p = np.array([rng.uniform(lo, hi), rng.uniform(0.2, 6.0)])
            q = p + rng.uniform(-0.3, 0.3, 2)
            wp = derived_flag(spec, p).terminal
            wq = derived_flag(spec, q).terminal
            moved = transport(spec, line_curve(spec.domain, p, q),
                              wp.basis, 256)
            moved, _ = np.linalg.qr(moved)
            assert principal_angles(moved, wq.basis).max() < 1e-5


def test_independent_parallel_sections_count(plane_spec):
    # d independent vectors extend to sections that stay independent nearby
    from paracon.transport import parallel_extend
    p = np.array([1.0, 1.0])
    term = derived_flag(plane_spec, p).terminal
    d = term.dim
    sections = []
    for a in range(d):
        _, values = parallel_extend(plane_spec, p, term.basis[:, a], 0.25,
                                    grid_res=3, steps=128)
        sections.append(values)
    for node in range(len(sections[0])):
        mat = np.stack([s[node] for s in sections], axis=1)
        assert np.linalg.svd(mat, compute_uv=False)[-1] > 1e-6


def _richardson_partial(fn, p, k, h):
    e = np.zeros(len(p))
    e[k] = 1.0
    d1 = (fn(p + h * e) - fn(p - h * e)) / (2 * h)
    d2 = (fn(p + 0.5 * h * e) - fn(p - 0.5 * h * e)) / h
    return (4.0 * d2 - d1) / 3.0


def _covariant_curvature_derivatives(spec, p, h=1e-2):
    """Independent oracle: nabla R and nabla nabla R by Richardson-extrapolated
    differencing of curvature_stack, with connection and Christoffel
    corrections applied per index."""
    n = spec.n
    pairs = curvature_pairs(n)
    gam = np.zeros((n, n, n))
    ctx = EvalContext(dict(zip(spec.domain.names, np.asarray(p, float))),
                      spec.params)
    for (l, k, i), e in spec.gamma.items():
        gam[l, k, i] = evaluate(e, ctx)

    def R_at(q):
        return curvature_stack(spec, [q])[0]

    def pair_matrix(R, i, j):
        if i == j:
            return np.zeros_like(R[0])
        if i < j:
            return R[pairs.index((i, j))]
        return -R[pairs.index((j, i))]

    def nabla_R(q):
        Rq = R_at(q)
        om = omega_stack(spec, q)[0]
        gq = np.zeros((n, n, n))
        ctxq = EvalContext(dict(zip(spec.domain.names, np.asarray(q, float))),
                           spec.params)
        for (l, k, i), e in spec.gamma.items():
            gq[l, k, i] = evaluate(e, ctxq)
        out = np.zeros((n, len(pairs)) + Rq.shape[1:])
        for k in range(n):
            dR = _richardson_partial(R_at, np.asarray(q, float), k, h)
            for idx, (i, j) in enumerate(pairs):
                val = dR[idx] + om[k] @ Rq[idx] - Rq[idx] @ om[k]
                for m in range(n):
                    val -= gq[m, k, i] * pair_matrix(Rq, m, j)
                    val -= gq[m, k, j] * pair_matrix(Rq, i, m)
                out[k, idx] = val
        return out

    ops = [m for m in R_at(p)]
    nR = nabla_R(np.asarray(p, float))
    ops.extend(nR.reshape(-1, spec.N, spec.N))

    om0 = omega_stack(spec, p)[0]

    def nr_pair(nR_arr, k, i, j):
        if i == j:
            return np.zeros((spec.N, spec.N))
        if i < j:
            return nR_arr[k, pairs.index((i, j))]
        return -nR_arr[k, pairs.index((j, i))]

    nR0 = nR
    for l in range(n):
        dnR = _richardson_partial(lambda q: nabla_R(q),
                                  np.asarray(p, float), l, h)
        for k in range(n):
            for idx, (i, j) in enumerate(pairs):
                val = dnR[k, idx] + om0[l] @ nR0[k, idx] - nR0[k, idx] @ om0[l]
                for m in range(n):
                    val -= gam[m, l, k] * nr_pair(nR0, m, i, j)
                    val -= gam[m, l, i] * nr_pair(nR0, k, m, j)
                    val -= gam[m, l, j] * nr_pair(nR0, k, i, m)
                ops.append(val)
    return ops


@pytest.mark.parametrize("which", ["sphere", "plane", "dtheta"])
def test_terminal_subspace_inside_derivative_kernels(which, sphere_spec,
                                                     plane_spec, dtheta_spec):
    spec, p = {"sphere": (sphere_spec, (1.1, 0.7)),
               "plane": (plane_spec, (1.3, 2.0)),
               "dtheta": (dtheta_spec, (1.2, 0.9))}[which]
    term = derived_flag(spec, p).terminal
    ops = _covariant_curvature_derivatives(spec, p)
    # containment check: every terminal vector is annihilated up to fd noise
    scale = max(np.abs(o).max() for o in ops)
    K = kernel_intersection(ops, 1e-7, abs_floor=1e-5 * max(1.0, scale))
    assert K.dim >= term.dim
    assert principal_angles(term.basis, K.basis).max() < 1e-5


def test_flag_traces_bit_identical_under_identity_reparse(sphere_spec):
    from paracon.expr import Binary, Const
    dom = sphere_spec.domain
    p = (1.1, 0.9)
    base = derived_flag(sphere_spec, p)

    times_one = {k: Binary("mul", Const(1.0), e)
                 for k, e in sphere_spec.gamma.items()}
    spec2 = ConnectionSpec(dom, kind="christoffel", gamma=times_one)
    tr2 = derived_flag(spec2, p)

    assert tr2.dims == base.dims
    for (_, _, a), (_, _, b) in zip(base.levels, tr2.levels):
        assert np.array_equal(a.basis, b.basis)


def test_batched_terminal_matches_per_point(sphere_spec, dtheta_spec):
    assert sphere_spec.coords == dtheta_spec.coords == [0]
    rng = np.random.default_rng(4)
    for spec, lo, hi in ((sphere_spec, 0.4, 2.7), (dtheta_spec, 0.7, 2.8)):
        pts = np.stack([rng.uniform(lo, hi, 5), rng.uniform(0, 6.2, 5)], axis=1)
        # a repeated point, and points that share the read coordinate, share
        # a class
        shared = np.array([pts[2], pts[0], [pts[1, 0], 0.3], [pts[1, 0], 5.9]])
        for batch_pts in (pts, np.vstack([pts, shared])):
            batch = batch_terminal_bases(spec, batch_pts)
            for i, p in enumerate(batch_pts):
                assert np.array_equal(batch[i],
                                      derived_flag(spec, p).terminal.basis)


def test_one_point_flag_takes_no_class_key(sphere_spec, monkeypatch):
    # a one-point batch is one class, so derived_flag sorts no key, and its
    # terminal basis has the bits of the same point's row in a batch
    cases = [(sphere_spec, np.array([[1.1, 0.4], [0.7, 2.0]])),
             (_deep_flag_spec(), np.array([[0.3, 0.5], [-1.2, 1.5]]))]
    want = [batch_terminal_bases(spec, pts) for spec, pts in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("np.unique called on a one-point batch")

    monkeypatch.setattr(flagmod.np, "unique", refuse)
    for (spec, pts), bases in zip(cases, want):
        for p, basis in zip(pts, bases):
            assert np.array_equal(derived_flag(spec, p).terminal.basis, basis)
    # the patch is live: a batch of two points sorts its key
    with pytest.raises(AssertionError, match="np.unique"):
        batch_terminal_bases(sphere_spec, cases[0][1])


def test_batched_terminal_names_the_first_differing_point(pathology_spec):
    # the batch spans the band edge x0 = 0: flag [1, 1] left of it, [3]
    # right; in the second batch point 2 is the first of class 1
    for pts in (np.array([[-0.5, 0.0], [-0.4, 0.0], [0.5, 0.0], [0.6, 0.0]]),
                np.array([[-0.5, 0.0], [-0.5, 0.3], [0.5, 0.2], [0.5, 0.0],
                          [-0.5, 0.1]])):
        with pytest.raises(IrregularPoint) as info:
            batch_terminal_bases(pathology_spec, pts)
        exc = info.value
        assert np.array_equal(exc.point, pts[2])  # the first with flag [3]
        assert isinstance(exc.level, int) and exc.level == 0


def _deep_flag_spec(e14="exp(y)"):
    # ROADMAP's N = 5 connection: flag [4, 3, 2, 2] for y > 0
    dom = Domain(names=("x", "y"), lows=(-2.0, -2.0), highs=(2.0, 2.0))
    z = parse_expr("0")
    omega = [[[z, z] for _ in range(5)] for _ in range(5)]
    omega[1][4] = [parse_expr(e14), z]
    for i, j in ((2, 3), (4, 0), (0, 3)):
        omega[i][j] = [z, parse_expr("y")]
    return ConnectionSpec(dom, kind="matrix", fiber_dim=5, omega=omega)


def _two_chain_spec():
    # flag [1, 0] for x < 0 and [2, 1, 1] for x > 0
    dom = Domain(names=("x", "y"), lows=(-2.0, -2.0), highs=(2.0, 2.0))
    z = parse_expr("0")
    omega = [[[z, z] for _ in range(3)] for _ in range(3)]
    omega[0][2][0] = parse_expr("x")
    omega[0][1][0] = parse_expr("if(x < 0, 1, 0)")
    omega[1][0][1] = parse_expr("exp(x)")
    return ConnectionSpec(dom, kind="matrix", fiber_dim=3, omega=omega)


_TWO_CHAIN_AXES = [[-0.7, -0.3, 0.4, 0.8], [-0.6, 0.5]]


def test_sliced_flag_matches_one_slice_bit_for_bit(monkeypatch):
    # slices of 3 points stop at different levels ([1, 0] and [2, 1, 1]);
    # joined, they are the one-slice flag
    spec = _two_chain_spec()
    pts = np.array([[x, y] for y in (-0.6, 0.5)
                    for x in (-0.7, -0.3, -0.5, 0.4, 0.8, 0.6)])
    want_levels, want_last, _, _ = flagmod._flag(spec, pts, 1e-7)
    monkeypatch.setattr(flagmod, "_SLICE", 3)
    levels, last, _, _ = flagmod._flag(spec, pts, 1e-7)
    assert np.array_equal(last, want_last)
    assert len(levels) == len(want_levels) == 3
    for lv, want in zip(levels, want_levels):
        assert lv.level == want.level
        for field in ("dims", "bases", "gaps"):
            assert np.array_equal(getattr(lv, field), getattr(want, field))


@pytest.mark.parametrize("slice_size, e14, classes", [
    (256, "exp(y)", 3), (2, "exp(y)", 3),
    (256, "exp(y + 0*x)", 6), (2, "exp(y + 0*x)", 6),
], ids=["256", "2", "256-reads-x", "2-reads-x"])
def test_flag_evaluates_each_partial_order_once_per_point(monkeypatch,
                                                          slice_size, e14,
                                                          classes):
    # [4, 3, 2, 2] reads the partials of Omega up to order 4; one batch
    # evaluates each order once at each class of the 2 x 3 grid, also when
    # it runs in slices.  A connection that reads only y has one class per
    # y (3); one that also names x (the same values) has one per node (6)
    from paracon import bundle
    monkeypatch.setattr(flagmod, "_SLICE", slice_size)
    evaluated = {}
    partials = bundle._partials

    def counting(spec, points, order):
        evaluated[order] = evaluated.get(order, 0) + len(points)
        return partials(spec, points, order)

    monkeypatch.setattr(bundle, "_partials", counting)
    rep = regularity_scan(_deep_flag_spec(e14),
                          [[0.2, 0.5], [0.1, 0.4, 0.7]])
    assert all(rep.trace(i).dims == [4, 3, 2, 2] for i in range(6))
    assert evaluated == {order: classes for order in range(5)}


def _assert_scan_matches_derived_flag(spec, axes):
    rep = regularity_scan(spec, axes)
    for i, p in enumerate(rep.points):
        tr, want = rep.trace(i), derived_flag(spec, p)
        assert np.array_equal(tr.point, want.point)
        assert tr.dims == want.dims
        assert tr.stabilization_level == want.stabilization_level
        for (_, _, a), (_, _, b) in zip(tr.levels, want.levels):
            assert np.array_equal(a.basis, b.basis)
            assert a.sv_gap == b.sv_gap
    return rep


def test_regularity_scan_matches_derived_flag_bit_for_bit(pathology_spec):
    from paracon.corpus import get_entry
    man = get_entry("smooth-pathology").manifest()
    rep = _assert_scan_matches_derived_flag(man.spec, man.grid_axes)
    assert set(rep.dims) == {1, 3}

    xs = [-1.0, -0.5, -0.3, 0.25, 0.5, 0.75, 1.3, 1.5, 2.0]
    rep = _assert_scan_matches_derived_flag(pathology_spec, [xs, [0.0, 0.3]])

    rep = _assert_scan_matches_derived_flag(
        _deep_flag_spec(), [[0.2, 0.5], [0.1, 0.4, 0.7]])
    assert all(rep.trace(i).dims == [4, 3, 2, 2]
               for i in range(len(rep.points)))

    # one second-fundamental step takes both level-0 dimensions at once, and
    # the next step only the points that have not stopped
    rep = _assert_scan_matches_derived_flag(_two_chain_spec(), _TWO_CHAIN_AXES)
    assert [rep.trace(i).dims for i in range(len(rep.points))] == \
        [[1, 0]] * 4 + [[2, 1, 1]] * 4


def test_scan_runs_the_flag_once_per_class_bit_for_bit(sphere_spec,
                                                      pathology_spec):
    # sphere reads theta only: one class per theta, copied along phi
    axes = [[0.4, 0.9, 1.3, 1.9, 2.6], [0.5, 1.5, 3.0, 5.5]]
    rep = _assert_scan_matches_derived_flag(sphere_spec, axes)
    assert sphere_spec.coords == [0]
    assert rep.reps.tolist() == [0, 4, 8, 12, 16]
    assert rep.classes.tolist() == np.repeat(np.arange(5), 4).tolist()

    # cone x line reads r only, the first of three axes
    from test_global import CONE_GRID, cone_line_spec
    spec, _ = cone_line_spec()
    rep = _assert_scan_matches_derived_flag(spec, CONE_GRID)
    assert spec.coords == [0] and rep.reps.tolist() == [0, 6, 12]

    # the pathology reads x only and has breakpoints at x = 0 and x = 1:
    # every node of those classes is nudged, on every coordinate
    axes = [[-0.5, 0.0, 0.5, 1.0, 1.5], [-0.6, 0.0, 0.4]]
    rep = _assert_scan_matches_derived_flag(pathology_spec, axes)
    hit = np.isin(rep.points[:, 0], [0.0, 1.0])
    assert hit.sum() == 6
    assert np.array_equal(rep.flag_points[hit], rep.points[hit] + 1e-12)
    assert np.array_equal(rep.flag_points[~hit], rep.points[~hit])


def test_scan_checks_every_node_against_the_domain(flat_spec):
    # no entry reads y (one class), yet a node outside the box in y fails
    # as it does when the flag runs at every node
    assert flat_spec.coords == []
    with pytest.raises(PointOutsideDomain,
                       match=r"^point \[0\.5, 3\.0\] outside chart box$"):
        regularity_scan(flat_spec, [[0.5, 1.0], [0.0, 3.0]])


def test_flag_entry_points_check_their_points(sphere_spec):
    # derived_flag checks its nudged point and batch_terminal_bases its
    # batch; the kernels below them take checked points
    msg = r"^point \[-0\.5, 1\.0\] outside chart box$"
    with pytest.raises(PointOutsideDomain, match=msg):
        derived_flag(sphere_spec, (-0.5, 1.0))
    with pytest.raises(PointOutsideDomain, match=msg):
        batch_terminal_bases(sphere_spec, [(1.0, 1.0), (-0.5, 1.0)])


def test_scan_checks_the_domain_once(monkeypatch):
    # the cone x line chart of the loops-3d benchmark has an excluded set;
    # the scan checks its grid once and runs the flag on checked points
    from test_global import CONE_GRID, cone_line_spec
    spec, _ = cone_line_spec()
    check, checked = Domain.require_admissible, []

    def counted(self, points, params=None):
        checked.append(len(points))
        return check(self, points, params)

    monkeypatch.setattr(Domain, "require_admissible", counted)
    regularity_scan(spec, CONE_GRID)
    assert checked == [18]


# -- the stencil flag engine the exact one replaced, kept as a reference ----
#
# Its level step centrally differences the previous level's tracked bases over
# a stencil p +- h e_k (each stencil basis rotated onto V(p) by the polar
# factor), adds the connection term, projects onto the complement of V(p) and
# cuts above an O(h^2) floor.  It runs here on regular points only: a stencil
# point with another dimension fails the test.


def _stencil_levels(spec, pts, h, depth=None):
    """The reference level loop: every level until each point stabilizes, or
    with ``depth`` every point to that level (as the stencil needs)."""
    m = len(pts)
    levels = [curvature_kernel(spec, pts)]
    last = np.full(m, -1)
    prev = np.full(m, spec.N)
    while True:
        cur = levels[-1]
        stop = (((cur.dims == prev) | (cur.dims == 0)) if depth is None
                else np.full(m, cur.level == depth))
        last[(last < 0) & stop] = cur.level
        active = np.flatnonzero(last < 0)
        if not active.size:
            return levels, last
        step = _stencil_step(spec, pts[active], cur.take(active), h)
        nxt = cur.take(np.arange(m))
        nxt.level += 1
        nxt.dims[active], nxt.bases[active], nxt.gaps[active] = \
            step.dims, step.bases, step.gaps
        prev = cur.dims
        levels.append(nxt)


def _polar_align(V, B):
    u, _, vt = np.linalg.svd(np.matmul(B.transpose(0, 2, 1), V))
    return np.matmul(B, np.matmul(u, vt))


def _stencil_step(spec, pts, V, h):
    n, N = spec.n, spec.N
    out = V.take(np.arange(len(pts)))
    out.level += 1
    cut = np.flatnonzero((V.dims > 0) & (V.dims < N))
    if not cut.size:
        return out
    stencil = []  # V's level at pts[cut] + s, s = +h e_0, -h e_0, +h e_1, ...
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        for s in (e, -e):
            levels, _ = _stencil_levels(spec, pts[cut] + s, h, depth=V.level)
            assert np.array_equal(levels[-1].dims, V.dims[cut]), \
                "reference stencil crosses a dimension jump"
            stencil.append(levels[-1])
    omega = omega_stack(spec, pts[cut])
    for d, g in flagmod._groups(V.dims[cut]):
        idx = cut[g]
        Vb = V.bases[idx, :, :d]
        Pperp = np.eye(N) - np.matmul(Vb, Vb.transpose(0, 2, 1))
        rows = []
        for k in range(n):
            plus, minus = (_polar_align(Vb, stencil[j].bases[g, :, :d])
                           for j in (2 * k, 2 * k + 1))
            nabla = (plus - minus) / (2.0 * h) + np.matmul(omega[g, k], Vb)
            rows.append(np.matmul(Pperp, nabla))
        dims, gaps, vt = flagmod._kernels(np.concatenate(rows, axis=1),
                                          flagmod.DEFAULT_RANK_TOL,
                                          max(1e-10, 100.0 * h * h))
        out.dims[idx], out.gaps[idx], out.bases[idx] = dims, gaps, 0.0
        for dd, r in flagmod._groups(dims):
            out.bases[idx[r], :, :dd] = np.matmul(
                Vb[r], vt[r, d - dd:].transpose(0, 2, 1))
    return out


def _assert_exact_matches_stencil(spec, points):
    """Equal flag dims at every level and terminal spans within 1e-8."""
    pts = nudge_off_breakpoints(spec, points)
    # the step: 1e-4 of the smallest finite coordinate range or period
    dom = spec.domain
    spans = [hi - lo if np.isfinite(hi - lo) else per
             for lo, hi, per in zip(dom.lows, dom.highs, dom.periods)]
    h = 1e-4 * min([s for s in spans if s is not None], default=1.0)
    want, want_last = _stencil_levels(spec, pts, h)
    got, got_last, _, classes = flagmod._flag(spec, pts,
                                              flagmod.DEFAULT_RANK_TOL)
    assert np.array_equal(got_last[classes], want_last)
    for a, b in zip(got, want):
        assert np.array_equal(a.dims[classes], b.dims)
    for i, c in enumerate(classes):
        last = got_last[c]
        angles = principal_angles(got[last][c].basis, want[last][i].basis)
        assert angles.max(initial=0.0) < 1e-8, pts[i]


def _corpus_manifests():
    from paracon.corpus import ENTRY_IDS, get_entry
    return [get_entry(eid).manifest() for eid in ENTRY_IDS]


def test_exact_flag_matches_stencil_on_corpus_grids_and_base_points():
    for man in _corpus_manifests():
        mesh = np.meshgrid(*man.grid_axes, indexing="ij")
        grid = np.stack([m.ravel() for m in mesh], axis=1)
        _assert_exact_matches_stencil(man.spec,
                                      np.vstack([grid, man.base_point]))


def test_exact_flag_matches_stencil_on_corpus_loops():
    loops = 0
    for man in _corpus_manifests():
        for loop in man.loops:
            ts = np.linspace(loop.t0, loop.t1, 512, endpoint=False)
            _assert_exact_matches_stencil(man.spec, loop.points(ts))
            loops += 1
    assert loops >= 5


def test_exact_flag_matches_stencil_on_deeper_flags():
    spec = _deep_flag_spec()
    mesh = np.meshgrid([0.2, 0.5, 0.8], [0.1, 0.4, 0.7, 1.0], indexing="ij")
    _assert_exact_matches_stencil(spec, np.stack([m.ravel() for m in mesh],
                                                 axis=1))
    mesh = np.meshgrid(*_TWO_CHAIN_AXES, indexing="ij")
    _assert_exact_matches_stencil(_two_chain_spec(),
                                  np.stack([m.ravel() for m in mesh], axis=1))


def test_deep_flag_terminal_span_is_exact():
    # the terminal space is span(e1, e2) wherever y > 0 (see _deep_flag_spec)
    rng = np.random.default_rng(29)
    pts = np.stack([rng.uniform(-1.5, 1.5, 50), rng.uniform(0.1, 1.5, 50)],
                   axis=1)
    frame = np.eye(5)[:, 1:3]
    spec = _deep_flag_spec()
    for p in pts:
        tr = derived_flag(spec, p)
        assert tr.dims == [4, 3, 2, 2]
        assert principal_angles(tr.terminal.basis, frame).max() < 1e-12


def test_flag_next_to_a_breakpoint_is_regular():
    # G^x_yy = x right of x = 0 and 0 left of it: at x = 1e-5 the flag is
    # that of the right band, however close the breakpoint
    dom = Domain(names=("x", "y"), lows=(-2.0, -2.0), highs=(2.0, 2.0))
    spec = ConnectionSpec(dom, kind="christoffel",
                          gamma={(0, 1, 1): parse_expr("if(x < 0, 0, x)")})
    assert derived_flag(spec, (1e-5, 0.0)).dims == [1, 1]
    assert derived_flag(spec, (-1e-5, 0.0)).dims == [3]


def test_second_fundamental_cut_is_relative_to_the_derivative():
    # dx^2 + exp(200 x) dy^2: nabla R is about 1e6 here, so its rounding on
    # the exact terminal line (about 1e-10) would pass an absolute cutoff
    dom = Domain(names=("x", "y"), lows=(-0.1, -1.0), highs=(0.1, 1.0))
    gamma = {(0, 1, 1): parse_expr("-100*exp(200*x)"),
             (1, 0, 1): parse_expr("100"), (1, 1, 0): parse_expr("100")}
    spec = ConnectionSpec(dom, kind="christoffel", gamma=gamma)
    for x in (-0.05, 0.0, 0.05):
        tr = derived_flag(spec, (x, 0.2))
        assert tr.dims == [1, 1]
        lm, = local_metricity(spec, _one_point_scan(spec, (x, 0.2)).levels[-1])
        assert lm.status == "feasible"


def _verdict_summary(tmp_path, doc, name):
    from paracon.cli import main
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / f"{name}.report.json"
    code = main(["analyze", str(path), "--out", str(out)])
    report = json.loads(out.read_text())
    gv, fb = report["global_verdict"], report.get("flat_bundle")
    return (code, report["regularity"]["regular_on_grid"],
            gv and gv["status"], (gv or fb)["fixed_dim"])


@pytest.mark.parametrize("rank_tol", [1e-8, 1e-6])
def test_verdicts_hold_across_rank_tol(tmp_path, rank_tol):
    # a tenfold change of rank_tol either way must not move a verdict
    from paracon.corpus import ENTRY_IDS, get_entry
    for eid in ENTRY_IDS:
        doc = json.loads(json.dumps(get_entry(eid).manifest_doc))
        doc.pop("expected")
        want = _verdict_summary(tmp_path, doc, eid)
        doc.setdefault("tolerances", {})["rank_tol"] = rank_tol
        assert _verdict_summary(tmp_path, doc, eid) == want, eid
    spec = _deep_flag_spec()
    for p in ((0.2, 0.1), (0.3, 0.1), (0.8, 1.0)):
        assert derived_flag(spec, p, rank_tol=rank_tol).dims == [4, 3, 2, 2]
