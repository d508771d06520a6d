import numpy as np
import pytest

import reference
from paracon.bundle import (BundleError, ConnectionSpec, Domain,
                            ExpressionEvalFailure, Jet, PointOutsideDomain,
                            SymIndex, covariant_curvature_stack,
                            curvature_pairs, curvature_stack,
                            nudge_off_breakpoints, omega_stack)
from paracon.expr import compile_expr, diff, parse_expr
from paracon.transport import transport
from reference import EvalContext, evaluate, line_curve

TWO_PI = 2.0 * np.pi


def test_sym_index_bijection_and_weights():
    for n in (1, 2, 3):
        sym = SymIndex(n)
        assert sym.N == n * (n + 1) // 2
        assert len(set(sym.pairs)) == sym.N
        assert set(sym.pairs) == {(i, j) for i in range(n)
                                  for j in range(i, n)}


def test_sym_index_vec_matrix_round_trip():
    sym = SymIndex(3)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(6)
    M = sym.to_matrix(v)
    assert np.allclose(M, M.T)
    assert np.allclose([M[i, j] for i, j in sym.pairs], v)


def test_flat_chart_has_zero_matrices_and_curvature(flat_spec):
    p = (0.3, -0.7)
    assert np.all(omega_stack(flat_spec, [p])[0] == 0.0)
    assert np.all(curvature_stack(flat_spec, [p])[0] == 0.0)


def test_sphere_theta_matrix_vanishes_on_equator(sphere_spec):
    # cot(pi/2) = 0 and -sin cos = 0 kill every Omega_theta entry there
    om = omega_stack(sphere_spec, [(np.pi / 2, 1.0)])[0]
    assert np.abs(om[0]).max() < 1e-15


def test_matrix_kind_entries_are_verbatim(circle_line_spec):
    om = omega_stack(circle_line_spec, [(0.5,)])[0]
    assert om.shape == (1, 1, 1)
    assert om[0, 0, 0] == 1.0


def test_sphere_curvature_golden_values(sphere_spec):
    rng = np.random.default_rng(11)
    for theta in rng.uniform(0.2, np.pi - 0.2, 12):
        R = curvature_stack(sphere_spec, [(theta, rng.uniform(0, 6))])[0, 0]
        s2 = np.sin(theta) ** 2
        assert np.allclose(R[:, 0], [0.0, 0.0, -s2], atol=1e-9)
        assert np.allclose(R[:, 1], [0.0, 0.0, 1.0], atol=1e-9)
        assert np.allclose(R[:, 2], [2.0, -2.0 * s2, 0.0], atol=1e-9)


def test_punctured_plane_is_flat(plane_spec):
    rng = np.random.default_rng(5)
    for _ in range(6):
        p = (rng.uniform(0.3, 2.8), rng.uniform(0, 6.2))
        assert np.abs(curvature_stack(plane_spec, [p])).max() < 1e-12


def test_curvature_matches_transport_square_commutator(sphere_spec):
    # independent oracle: holonomy around a small coordinate square satisfies
    # (I - T)/h^2 = R + O(h)
    p = np.array([1.1, 0.7])
    R = curvature_stack(sphere_spec, p[None])[0, 0]
    errs = []
    for h in (2e-3, 1e-3):
        corners = [p, p + [h, 0], p + [h, h], p + [0, h], p]
        T = np.eye(3)
        for a, b in zip(corners[:-1], corners[1:]):
            T = transport(sphere_spec, line_curve(sphere_spec.domain, a, b),
                          T, steps=32)
        errs.append(np.abs((np.eye(3) - T) / h ** 2 - R).max())
    assert errs[0] < 10.0 * h
    assert errs[1] < 0.7 * errs[0]  # first-order decay


def _four_index_curvature(spec, pair, point):
    """Pre-symmetrized tensor-route oracle for the curvature action."""
    names = spec.domain.names
    n = spec.n
    binds = dict(zip(names, np.asarray(point, dtype=float)))
    ctx = EvalContext(binds, spec.params)

    def G(l, k, i):
        e = spec.gamma.get((l, k, i))
        return 0.0 if e is None else evaluate(e, ctx)

    def dG(d, l, k, i):
        e = spec.gamma.get((l, k, i))
        return 0.0 if e is None else evaluate(diff(e, names[d]), ctx)

    i, j = pair

    def Rl(l, k):
        s = dG(i, l, j, k) - dG(j, l, i, k)
        for m in range(n):
            s += G(l, i, m) * G(m, j, k) - G(l, j, m) * G(m, i, k)
        return s

    sym = spec.sym
    op = np.zeros((sym.N, sym.N))
    for B in range(sym.N):
        E = sym.basis[B]
        out = np.zeros((n, n))
        for a in range(n):
            for b in range(n):
                for l in range(n):
                    out[a, b] += -Rl(l, a) * E[l, b] - Rl(l, b) * E[a, l]
        op[:, B] = [out[a, b] for a, b in sym.pairs]
    return op


def test_four_index_route_agrees_with_matrix_route(sphere_spec, plane_spec):
    for spec, p in ((sphere_spec, (1.1, 0.7)), (plane_spec, (1.4, 2.0))):
        R = curvature_stack(spec, [p])[0]
        for idx, pair in enumerate(curvature_pairs(spec.n)):
            oracle = _four_index_curvature(spec, pair, p)
            assert np.abs(R[idx] - oracle).max() < 1e-12


def test_curvature_is_continuous_in_the_point(sphere_spec):
    p = np.array([1.3, 0.4])
    R0 = curvature_stack(sphere_spec, p[None])
    d1 = np.abs(curvature_stack(sphere_spec, p[None] + 1e-3) - R0).max()
    d2 = np.abs(curvature_stack(sphere_spec, p[None] + 1e-4) - R0).max()
    assert d1 < 1e-2
    assert d2 < 0.2 * d1  # roughly linear in the displacement


def test_point_outside_domain_raises(sphere_spec, plane_spec):
    with pytest.raises(PointOutsideDomain):
        sphere_spec.domain.require_admissible((-0.5, 1.0), sphere_spec.params)
    with pytest.raises(PointOutsideDomain):  # below the r range
        plane_spec.domain.require_admissible((0.1, 1.0), plane_spec.params)


def test_excluded_set_blocks_points():
    dom = Domain(names=("x", "y"), lows=(-2.0, -2.0), highs=(2.0, 2.0),
                 excluded=(parse_expr("x^2 + y^2"),), exclusion_radius=1e-2)
    spec = ConnectionSpec(dom, kind="christoffel", gamma={})
    with pytest.raises(PointOutsideDomain, match="excluded"):
        spec.domain.require_admissible((0.05, 0.05), spec.params)
    spec.domain.require_admissible((1.0, 1.0), spec.params)
    assert np.all(curvature_stack(spec, [(1.0, 1.0)]) == 0.0)


def test_undeclared_name_rejected():
    dom = Domain(names=("x",), lows=(-1.0,), highs=(1.0,))
    with pytest.raises(Exception, match="undeclared"):
        ConnectionSpec(dom, kind="christoffel",
                       gamma={(0, 0, 0): parse_expr("x + mystery")})


def test_parameter_may_not_shadow_a_coordinate(sphere_spec):
    # "theta" would replace the coordinate in every entry: at (1, 1) the
    # terminal basis moved from [0.8161, 0.5779, 0] to [0.9746, 0.224, 0]
    with pytest.raises(BundleError, match="'theta' may not take the name"):
        ConnectionSpec(sphere_spec.domain, kind="christoffel",
                       gamma=sphere_spec.gamma, params={"theta": 0.5})


def test_nudge_off_breakpoints(pathology_spec):
    pts = np.array([(0.0, 0.0), (0.5, 0.0), (0.0, -0.25)])
    p = nudge_off_breakpoints(pathology_spec, pts)
    # the first and last sit exactly on the x0 breakpoint
    assert p.tolist() == [[1e-12, 1e-12], [0.5, 0.0], [1e-12, -0.25 + 1e-12]]
    assert pts[0, 0] == 0.0  # the input is left as it was
    for q, want in zip(pts, p):  # one point at a time, the same bits
        assert nudge_off_breakpoints(pathology_spec, [q])[0].tolist() == \
            want.tolist()


def test_curvature_pair_order():
    assert curvature_pairs(3) == [(0, 1), (0, 2), (1, 2)]
    assert curvature_pairs(1) == []


def _same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _gamma_action_reference(G, sym):
    """Einsum form of h -> G_k^T H + H G_k; (m, n, n, n) -> (m, n, N, N)."""
    E = sym.basis
    act = (np.einsum("mkli,Blj->mkBij", G, E)
           + np.einsum("Bil,mklj->mkBij", E, G))
    return np.stack([act[:, :, :, i, j] for i, j in sym.pairs], axis=2)


def test_gamma_action_map_matches_einsum_bit_for_bit():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4):
        sym = SymIndex(n)
        for m in (1, 4097):
            G = rng.standard_normal((m, n, n, n))
            G[rng.random(G.shape) < 0.5] = 0.0
            G[rng.random(G.shape) < 0.05] = -0.0
            want = -_gamma_action_reference(G, sym)
            got = -(G.reshape(m * n, n * n)
                    @ sym.gamma_action).reshape(m, n, sym.N, sym.N)
            assert _same_bits(got, want), (n, m)


@pytest.fixture
def mixed_matrix_spec():
    # zero, nonzero-constant, parameter-only and coordinate-dependent
    # entries; d/dy of "-x" is the constant -0.0
    dom = Domain(names=("x", "y"), lows=(-2.0, -2.0), highs=(2.0, 2.0))
    texts = [[["0", "x*y"], ["1.5", "0"], ["a^2", "-x"]],
             [["sin(x) + y", "0"], ["0", "0"], ["2*a", "exp(y)*a"]],
             [["-x", "0"], ["if(x < 0, x, 0)", "a*y^2"], ["0", "-1"]]]
    omega = [[[parse_expr(t) for t in row] for row in rows] for rows in texts]
    return ConnectionSpec(dom, kind="matrix", fiber_dim=3, params={"a": 0.7},
                          omega=omega)


def _naive_omega_and_curvature(spec, pts):
    """Every entry and derivative compiled and evaluated on its own."""
    m, n, N = pts.shape[0], spec.n, spec.N
    env = spec.domain.env(pts, spec.params)

    def value(e):
        return np.broadcast_to(np.asarray(compile_expr(e)(env), dtype=float),
                               (m,))

    om = np.zeros((m, n, N, N))
    dom = np.zeros((m, n, n, N, N))
    for i in range(N):
        for j in range(N):
            for k in range(n):
                e = spec.omega[i][j][k]
                om[:, k, i, j] = value(e)
                for d, name in enumerate(spec.domain.names):
                    dom[:, d, k, i, j] = value(diff(e, name))
    R = np.stack([dom[:, i, j] - dom[:, j, i] + om[:, i] @ om[:, j]
                  - om[:, j] @ om[:, i] for i, j in curvature_pairs(n)],
                 axis=1)
    return om, dom, R


def test_matrix_kind_assembly_matches_naive_per_entry(mixed_matrix_spec):
    rng = np.random.default_rng(8)
    for pts in (np.array([[0.0, 0.5]]), rng.uniform(-1.9, 1.9, (33, 2))):
        om, dom, R = _naive_omega_and_curvature(mixed_matrix_spec, pts)
        assert _same_bits(omega_stack(mixed_matrix_spec, pts), om)
        assert _same_bits(curvature_stack(mixed_matrix_spec, pts), R)


@pytest.mark.parametrize("kind", ["matrix", "christoffel"])
def test_non_finite_entry_raises(kind):
    dom = Domain(names=("x", "y"), lows=(-2.0, -2.0), highs=(2.0, 2.0))
    e = parse_expr("1/x")
    if kind == "matrix":
        spec = ConnectionSpec(dom, kind="matrix", fiber_dim=1,
                              omega=[[[parse_expr("0"), e]]])
    else:
        spec = ConnectionSpec(dom, kind="christoffel", gamma={(0, 1, 0): e})
    pts = np.array([[0.5, 0.1], [0.0, 0.3]])
    with pytest.raises(ExpressionEvalFailure, match="not finite"):
        omega_stack(spec, pts)
    with pytest.raises(ExpressionEvalFailure, match="not finite"):
        curvature_stack(spec, pts)


def test_order_four_table_is_a_small_tape():
    # hash-consing keeps smooth-pathology's order-4 table a DAG: as a tree
    # of closures it had 178,287 nodes
    from paracon.corpus import get_entry
    indices, tape = get_entry("smooth-pathology").manifest().spec._table(4)
    assert len(indices) == 15
    assert len(tape) < 1000


def _jet_charts():
    """(name, spec, points) for the jet tests: the deep-flag workload's
    N = 5 matrix connection (n = 2, one pair), the cone x line Christoffel
    chart (n = 3, three pairs), a curved 3-D Christoffel chart whose
    partials of every order are nonzero, and a 1-D chart (no pairs)."""
    z = parse_expr("0")
    omega = [[[z, z] for _ in range(5)] for _ in range(5)]
    omega[1][4] = [parse_expr("exp(y)"), z]
    for i, j in ((2, 3), (4, 0), (0, 3)):
        omega[i][j] = [z, parse_expr("y")]
    box = Domain(names=("x", "y"), lows=(-2.0, -2.0), highs=(2.0, 2.0))
    deep = ConnectionSpec(box, kind="matrix", fiber_dim=5, omega=omega)
    cone = ConnectionSpec(
        Domain(names=("r", "theta", "z"), lows=(0.2, 0.0, -1.0),
               highs=(3.0, TWO_PI, 1.0), periods=(None, TWO_PI, None)),
        kind="christoffel", params={"k": 0.3},
        gamma={(0, 1, 1): parse_expr("-k^2*r"),
               (1, 0, 1): parse_expr("1/r"), (1, 1, 0): parse_expr("1/r")})
    curved = ConnectionSpec(
        Domain(names=("x", "y", "z"), lows=(-1.0,) * 3, highs=(1.0,) * 3),
        kind="christoffel",
        gamma={(0, 1, 1): parse_expr("sin(x)*z"),
               (1, 0, 2): parse_expr("exp(y) - z^2"),
               (2, 1, 0): parse_expr("x*y*z + cos(y)"),
               (0, 2, 2): parse_expr("cos(y + z)*x")})
    line = ConnectionSpec(Domain(names=("x",), lows=(-1.0,), highs=(1.0,)),
                          kind="matrix", fiber_dim=2,
                          omega=[[[parse_expr("x")], [parse_expr("1")]],
                                 [[parse_expr("exp(x)")], [z]]])
    rng = np.random.default_rng(17)
    return [("deep-flag", deep, rng.uniform(0.05, 0.9, (9, 2))),
            ("cone-line", cone, rng.uniform([0.5, 0.0, -0.8],
                                            [2.5, 6.0, 0.8], (9, 3))),
            ("curved-3d", curved, rng.uniform(-0.8, 0.8, (6, 3))),
            ("line", line, rng.uniform(-0.8, 0.8, (5, 1)))]


@pytest.mark.parametrize("name,spec,pts", _jet_charts(),
                         ids=[c[0] for c in _jet_charts()])
def test_jet_covariant_stacks_match_the_per_pair_reference(name, spec, pts):
    # the batched Leibniz tables give the bits of one loop per (alpha,
    # pair, beta) and per (alpha, k, beta); so do a fresh jet per order,
    # one jet filled order by order, and the part of a partly filled jet
    m, n, N, P = len(pts), spec.n, spec.N, len(curvature_pairs(spec.n))
    filled = Jet(spec, pts)
    part = np.array([4, 0, 3])
    for order in range(4):
        want = reference.covariant_curvature_stack(spec, pts, order)
        assert want.shape == (m, n ** order, P, N, N)
        assert _same_bits(covariant_curvature_stack(spec, pts, order), want)
        # the jet taken before this order was built, then filled on its own
        sub = filled.take(part)
        assert _same_bits(covariant_curvature_stack(spec, pts, order, filled),
                          want)
        assert _same_bits(sub.curvature(order), want[part])
        assert _same_bits(filled.take(slice(1, 4)).curvature(order),
                          want[1:4])
    assert _same_bits(curvature_stack(spec, pts, filled),
                      reference.covariant_curvature_stack(spec, pts, 0)[:, 0])


def test_jet_builds_each_covariant_row_once():
    # asking for order 3 after orders 0-2 adds only the antidiagonal
    # j + |alpha| = 3: rows already built are carried over, not rebuilt
    _, spec, pts = _jet_charts()[0]
    jet = Jet(spec, pts)
    jet.curvature(2)
    sizes = [a.shape[1] for a in jet._nabla]
    assert sizes == [6, 3, 1]  # |alpha| <= 2, 1 and 0
    for a in jet._nabla:  # a marker no build would write
        a[...] = 7.0
    sub = jet.take(slice(2, 5))
    jet.curvature(3)
    sub.curvature(3)
    for j in (jet, sub):
        assert [a.shape[1] for a in j._nabla] == [10, 6, 3, 1]
        for a, old in zip(j._nabla, sizes):
            assert np.all(a[:, :old] == 7.0)
            assert not np.any(a[:, old:] == 7.0)
    # a lower order is read back, not rebuilt
    assert np.all(jet.curvature(1) == 7.0)
