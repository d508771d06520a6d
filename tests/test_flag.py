import numpy as np
import pytest

from paracon.bundle import (ConnectionSpec, Domain, curvature_operators,
                            curvature_pairs, omega_stack)
from paracon.expr import parse_expr
from paracon.flag import (EmptyGrid, IrregularPoint, NotSym2Bundle, Subspace,
                          batch_terminal_bases, curvature_kernel, derived_flag,
                          kernel_intersection, local_metricity,
                          principal_angles, regularity_scan,
                          second_fundamental_kernel)
from paracon.transport import line_curve, transport


def test_kernel_of_zero_map_is_full():
    sub = kernel_intersection([np.zeros((4, 4))], 1e-7)
    assert sub.dim == 4
    assert np.allclose(sub.basis.T @ sub.basis, np.eye(4))


def test_kernel_of_identity_is_trivial():
    sub = kernel_intersection([np.eye(3)], 1e-7)
    assert sub.dim == 0


def test_kernel_of_sphere_curvature_at_pi_third(sphere_spec):
    R = curvature_operators(sphere_spec, (np.pi / 3, 1.0))[0]
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
    out = second_fundamental_kernel(flat_spec, (0.0, 0.0), V, 1e-4)
    assert out[0].dim == 3


def test_sff_sphere_kernel_survives(sphere_spec):
    p = (np.pi / 3, 1.0)
    V = curvature_kernel(sphere_spec, p)
    out = second_fundamental_kernel(sphere_spec, p, V, 3e-4)[0]
    assert out.dim == 1
    assert principal_angles(out.basis, V[0].basis).max() < 1e-8


def test_sff_pathology_left_band_metric_direction(pathology_spec):
    # oracle: the local parallel metrics are c (dx^2 + f(x) dy^2)
    x = -0.5
    f = 1.0 + np.exp(-1.0 / x ** 2)
    p = (x, 0.0)
    V = curvature_kernel(pathology_spec, p)
    out = second_fundamental_kernel(pathology_spec, p, V, 2e-4)[0]
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
    assert rep.dims == [3] * 40
    assert rep.jumps == []


def test_regularity_scan_pathology(pathology_spec):
    xs = [-1.0, -0.5, 0.25, 0.5, 0.75, 1.5, 2.0]
    rep = regularity_scan(pathology_spec, [xs, [0.0]])
    assert rep.dims == [1, 1, 3, 3, 3, 1, 1]
    assert not rep.regular_on_grid
    spans = sorted((min(a[0], b[0]), max(a[0], b[0]))
                   for a, b, _, _ in rep.jumps)
    assert spans == [(-0.5, 0.25), (0.75, 1.5)]
    assert spans[0][0] < 0.0 < spans[0][1]   # straddles x0
    assert spans[1][0] < 1.0 < spans[1][1]   # straddles x1


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


def test_irregular_point_when_stencil_crosses_breakpoint(pathology_spec):
    # left-band point whose second-fundamental stencil reaches into the
    # middle band, where the curvature kernel is three-dimensional
    with pytest.raises(IrregularPoint):
        derived_flag(pathology_spec, (-0.3, 0.0), stencil_h=0.35)


def test_local_metricity_sphere_certificate(sphere_spec):
    p = (np.pi / 3, 1.0)
    tr = derived_flag(sphere_spec, p)
    lm = local_metricity(sphere_spec, p, tr)
    assert lm.locally_metric
    # certificate combination must be proportional to X1 + 0.75 X2
    combo = tr.terminal.basis @ lm.coefficients
    combo /= np.linalg.norm(combo)
    want = np.array([1.0, 0.75, 0.0])
    want /= np.linalg.norm(want)
    assert min(np.abs(combo - want).max(), np.abs(combo + want).max()) < 1e-10
    assert lm.cholesky is not None


def test_local_metricity_pathology_left_band(pathology_spec):
    p = (-0.5, 0.0)
    tr = derived_flag(pathology_spec, p)
    assert local_metricity(pathology_spec, p, tr).locally_metric


def test_local_metricity_rejects_pure_cross_term(flat_spec):
    # span(dx (x) dy + dy (x) dx) has no PD element
    from paracon.flag import FlagTrace
    cross = np.array([0.0, 0.0, 1.0])
    sub = Subspace(3, cross[:, None])
    tr = FlagTrace(np.array([0.0, 0.0]), [(0, 1, sub)], 0)
    lm = local_metricity(flat_spec, (0.0, 0.0), tr)
    assert not lm.locally_metric
    assert lm.status == "infeasible_certified"


def test_local_metricity_requires_sym2(circle_line_spec):
    tr = derived_flag(circle_line_spec, (1.0,))
    with pytest.raises(NotSym2Bundle):
        local_metricity(circle_line_spec, (1.0,), tr)


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
                              wp.basis, 256).final
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
        sec = parallel_extend(plane_spec, p, term.basis[:, a], 0.25,
                              grid_res=3, steps=128)
        sections.append(sec.values)
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
    differencing of curvature_operators, with connection and Christoffel
    corrections applied per index."""
    n = spec.n
    pairs = curvature_pairs(n)
    gam = np.zeros((n, n, n))
    from paracon.expr import EvalContext, evaluate
    ctx = EvalContext(dict(zip(spec.domain.names, np.asarray(p, float))),
                      spec.params)
    for (l, k, i), e in spec.gamma.items():
        gam[l, k, i] = evaluate(e, ctx)

    def R_at(q):
        return np.stack(curvature_operators(spec, q))

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
    from paracon.expr import Binary, Const, parse_expr, to_text
    dom = sphere_spec.domain
    p = (1.1, 0.9)
    base = derived_flag(sphere_spec, p)

    reparsed = {k: parse_expr(to_text(e)) for k, e in sphere_spec.gamma.items()}
    spec2 = ConnectionSpec(dom, kind="christoffel", gamma=reparsed)
    tr2 = derived_flag(spec2, p)

    times_one = {k: Binary("mul", Const(1.0), e)
                 for k, e in sphere_spec.gamma.items()}
    spec3 = ConnectionSpec(dom, kind="christoffel", gamma=times_one)
    tr3 = derived_flag(spec3, p)

    for other in (tr2, tr3):
        assert other.dims == base.dims
        for (_, _, a), (_, _, b) in zip(base.levels, other.levels):
            assert np.array_equal(a.basis, b.basis)


def test_batched_terminal_matches_per_point(sphere_spec, dtheta_spec):
    rng = np.random.default_rng(4)
    for spec, lo, hi in ((sphere_spec, 0.4, 2.7), (dtheta_spec, 0.7, 2.8)):
        pts = np.stack([rng.uniform(lo, hi, 5), rng.uniform(0, 6.2, 5)], axis=1)
        batch = batch_terminal_bases(spec, pts)
        for i, p in enumerate(pts):
            assert np.array_equal(batch[i], derived_flag(spec, p).terminal.basis)


def test_batched_terminal_names_the_first_differing_point(pathology_spec):
    # the batch spans the band edge x0 = 0: flag [1, 1] left of it, [3] right
    pts = np.array([[-0.5, 0.0], [-0.4, 0.0], [0.5, 0.0], [0.6, 0.0]])
    with pytest.raises(IrregularPoint) as info:
        batch_terminal_bases(pathology_spec, pts)
    exc = info.value
    assert np.array_equal(exc.point, pts[2])  # the first with flag [3]
    assert isinstance(exc.level, int) and exc.level == 0


def _deep_flag_spec():
    # ROADMAP's N = 5 connection: flag [4, 3, 2, 2] for y > 0
    dom = Domain(names=("x", "y"), lows=(-2.0, -2.0), highs=(2.0, 2.0))
    z = parse_expr("0")
    omega = [[[z, z] for _ in range(5)] for _ in range(5)]
    omega[1][4] = [parse_expr("exp(y)"), z]
    for i, j in ((2, 3), (4, 0), (0, 3)):
        omega[i][j] = [z, parse_expr("y")]
    return ConnectionSpec(dom, kind="matrix", fiber_dim=5, omega=omega)


def _assert_scan_matches_derived_flag(spec, axes, stencil_h=None):
    rep = regularity_scan(spec, axes, stencil_h)
    irregular = []
    for p, tr in zip(rep.points, rep.traces):
        try:
            want = derived_flag(spec, p, stencil_h)
        except IrregularPoint:
            assert tr is None
            irregular.append(p.tolist())
            continue
        assert np.array_equal(tr.point, want.point)
        assert tr.dims == want.dims
        assert tr.stabilization_level == want.stabilization_level
        for (_, _, a), (_, _, b) in zip(tr.levels, want.levels):
            assert np.array_equal(a.basis, b.basis)
            assert a.sv_gap == b.sv_gap
    assert rep.irregular_points == irregular
    return rep


def test_regularity_scan_matches_derived_flag_bit_for_bit(pathology_spec):
    from paracon.corpus import get_entry
    man = get_entry("smooth-pathology").manifest()
    rep = _assert_scan_matches_derived_flag(man.spec, man.grid_axes,
                                            man.tolerances["stencil_h"])
    assert set(rep.dims) == {1, 3}

    xs = [-1.0, -0.5, -0.3, 0.25, 0.5, 0.75, 1.3, 1.5, 2.0]
    rep = _assert_scan_matches_derived_flag(pathology_spec, [xs, [0.0, 0.3]],
                                            0.35)
    assert 0 < len(rep.irregular_points) < len(rep.traces)

    rep = _assert_scan_matches_derived_flag(
        _deep_flag_spec(), [[0.2, 0.5], [0.1, 0.4, 0.7]], 1e-3)
    assert all(tr.dims == [4, 3, 2, 2] for tr in rep.traces)

    # flag [1, 0] for x < 0 and [2, 1, 1] for x > 0: one second-fundamental
    # step takes both level-0 dimensions at once, and the next step only
    # the points that have not stopped
    dom = Domain(names=("x", "y"), lows=(-2.0, -2.0), highs=(2.0, 2.0))
    z = parse_expr("0")
    omega = [[[z, z] for _ in range(3)] for _ in range(3)]
    omega[0][2][0] = parse_expr("x")
    omega[0][1][0] = parse_expr("if(x < 0, 1, 0)")
    omega[1][0][1] = parse_expr("exp(x)")
    spec = ConnectionSpec(dom, kind="matrix", fiber_dim=3, omega=omega)
    rep = _assert_scan_matches_derived_flag(
        spec, [[-0.7, -0.3, 0.4, 0.8], [-0.6, 0.5]])
    assert [tr.dims for tr in rep.traces] == [[1, 0]] * 4 + [[2, 1, 1]] * 4
