import numpy as np
import pytest

from paracon.bundle import (BundleError, ConnectionSpec, Domain,
                            PointOutsideDomain, omega_stack)
from paracon.expr import parse_expr
from paracon.flag import Subspace, derived_flag
from paracon.transport import (Curve, DefectTooLarge, TransportError,
                               doubling_levels, holonomy_matrix,
                               parallel_extend, refine, transport)
from reference import line_curve, reversed_curve, two_leg_residual

TWO_PI = 2.0 * np.pi


def circle_loop(domain, params=None, name="circle", r="1"):
    return Curve(domain, [parse_expr(r), parse_expr("t")], 0.0, TWO_PI,
                 name=name, params=params)


def test_curve_closedness_uses_periods(plane_spec):
    dom = plane_spec.domain
    loop = circle_loop(dom)
    assert loop.closed
    arc = Curve(dom, [parse_expr("1"), parse_expr("t")], 0.0, 3.0)
    assert not arc.closed


def test_curve_parameter_may_not_shadow_t(plane_spec):
    # a parameter "t" would replace the curve parameter: the loop sampled
    # (1, 0) at every t
    with pytest.raises(BundleError, match="'t' may not take the name"):
        circle_loop(plane_spec.domain, params={"t": 0.0})


def test_curve_points_velocities_length(plane_spec):
    loop = circle_loop(plane_spec.domain)
    ts = np.linspace(0, TWO_PI, 5)
    pts = loop.points(ts)
    assert np.allclose(pts[:, 0], 1.0)
    assert np.allclose(pts[:, 1], ts)
    assert np.allclose(loop.velocities(ts), [[0.0, 1.0]] * 5)
    assert loop.length() == pytest.approx(TWO_PI, rel=1e-6)


def test_flat_transport_is_exact_identity(flat_spec):
    seg = line_curve(flat_spec.domain, (-1.0, -1.0), (1.0, 1.5))
    v0 = np.array([0.3, -1.0, 2.0])
    out = transport(flat_spec, seg, v0, steps=64)
    assert np.array_equal(out, v0)


def test_circle_line_bundle_golden_decay(circle_line_spec):
    loop = Curve(circle_line_spec.domain, [parse_expr("t")], 0.0, TWO_PI,
                 name="circle")
    out = transport(circle_line_spec, loop, np.array([1.0]), steps=4096)
    want = np.exp(-TWO_PI)  # closed form for v' = -v over length 2 pi
    assert abs(out[0] - want) / want < 1e-6


def test_reversed_curve_composes_to_identity(plane_spec):
    loop = circle_loop(plane_spec.domain, params=plane_spec.params)
    v0 = np.array([0.4, -0.9, 1.3])
    fwd = transport(plane_spec, loop, v0, steps=512)
    back = transport(plane_spec, reversed_curve(loop), fwd, steps=512)
    assert np.abs(back - v0).max() < 1e-8


def test_transport_is_linear(sphere_spec):
    seg = line_curve(sphere_spec.domain, (1.0, 0.5), (1.4, 2.0))
    u = np.array([1.0, 0.0, 0.5])
    v = np.array([0.0, 2.0, -1.0])
    a, b = 0.7, -1.9
    left = transport(sphere_spec, seg, a * u + b * v, 128)
    right = (a * transport(sphere_spec, seg, u, 128)
             + b * transport(sphere_spec, seg, v, 128))
    assert np.abs(left - right).max() < 1e-10


def test_rk4_fourth_order_convergence(sphere_spec):
    seg = line_curve(sphere_spec.domain, (0.6, 0.2), (2.2, 4.0))
    v0 = np.array([1.0, -0.3, 0.7])
    ref = transport(sphere_spec, seg, v0, steps=2560)
    err = [np.abs(transport(sphere_spec, seg, v0, steps=s) - ref).max()
           for s in (64, 128)]
    ratio = err[0] / err[1]
    assert 12.0 < ratio < 20.0


# --- the step-map product tree against the per-step loop ---------------------

def loop_transport(spec, curve, v0, steps, dtype=float):
    """The per-step RK4 loop that the chunked product tree replaced, kept as
    the reference: one Python iteration per step, on vectors, in ``dtype``."""
    ts = np.linspace(curve.t0, curve.t1, 2 * steps + 1)
    nA = -np.einsum("mk,mkab->mab", curve.velocities(ts),
                    omega_stack(spec, curve.points(ts))).astype(dtype)
    v = np.asarray(v0, dtype=dtype)
    h = dtype(curve.t1 - curve.t0) / steps
    half, sixth = h / 2, h / 6
    for j in range(steps):
        a0, am, a1 = nA[2 * j], nA[2 * j + 1], nA[2 * j + 2]
        k1 = a0 @ v
        k2 = am @ (v + half * k1)
        k3 = am @ (v + half * k2)
        k4 = a1 @ (v + h * k3)
        v = v + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
    return v


def random_matrix_spec(seed=4, N=4):
    rng = np.random.default_rng(seed)
    dom = Domain(names=("x", "y"), lows=(-2.0, -2.0), highs=(2.0, 2.0))
    c = rng.uniform(-1.0, 1.0, (N, N, 2, 3)).tolist()
    omega = [[[parse_expr(f"{c0!r}*sin({c1!r}*x + y) + {c2!r}*y*x")
               for c0, c1, c2 in c[a][b]] for b in range(N)] for a in range(N)]
    return ConnectionSpec(dom, kind="matrix", fiber_dim=N, omega=omega)


@pytest.mark.parametrize("steps", [16, 17, 1023, 1024, 1025, 4097])
def test_tree_matches_loop_on_random_connection(steps):
    # chunk boundaries and odd tree levels; the map of a whole frame
    spec = random_matrix_spec()
    seg = line_curve(spec.domain, (-1.2, 0.5), (1.3, -0.8))
    frame = np.eye(4)
    want = loop_transport(spec, seg, frame, steps)
    got = transport(spec, seg, frame, steps)
    assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


def _s1_line(spec):
    loop = Curve(spec.domain, [parse_expr("t")], 0.0, TWO_PI, name="circle")
    return loop, np.ones((1, 1)), lambda T: T[0, 0] - np.exp(-TWO_PI)


def _dtheta_line(spec):
    B = derived_flag(spec, (1.0, 0.0)).terminal.basis
    return (circle_loop(spec.domain), B,
            lambda T: (B.T @ T)[0, 0] - np.exp(-TWO_PI))


def _rotation_block(spec):
    k = 0.3
    B = derived_flag(spec, (1.0, 0.0)).terminal.basis
    C = np.array([[1.0, 0.0, 1.0 / k],
                  [k * k, 0.0, -k],
                  [0.0, 1.0, 0.0]])
    S = B.T @ C
    a = 4.0 * k * np.pi
    golden = np.array([[1.0, 0.0, 0.0],
                       [0.0, np.cos(a), -np.sin(a)],
                       [0.0, np.sin(a), np.cos(a)]])
    return (circle_loop(spec.domain, params=spec.params), B,
            lambda T: np.linalg.solve(S, (B.T @ T) @ S) - golden)


CLOSED_FORMS = {"s1-line-bundle": ("circle_line_spec", _s1_line),
                "dtheta-obstruction": ("dtheta_spec", _dtheta_line),
                "punctured-plane": ("plane_spec", _rotation_block)}


@pytest.mark.parametrize("case,steps", [
    ("s1-line-bundle", 4096), ("s1-line-bundle", 16384),
    ("dtheta-obstruction", 4096),
    ("punctured-plane", 4096), ("punctured-plane", 16384)])
def test_tree_is_as_accurate_as_loop_on_closed_forms(case, steps, request):
    # dtheta at 16384 steps is left to the test below: there both methods sit
    # at the rounding floor (tree 6.3e-18, loop 3.9e-18, about 30 and 20 ulp
    # of e^{-2 pi}), and the loop's lead is a cancellation against the
    # 2.2e-18 by which the exact RK4 map itself misses e^{-2 pi}
    fixture, closed_form = CLOSED_FORMS[case]
    spec = request.getfixturevalue(fixture)
    curve, v0, error = closed_form(spec)
    tree = np.abs(error(transport(spec, curve, v0, steps))).max()
    loop = np.abs(error(loop_transport(spec, curve, v0, steps))).max()
    assert tree <= loop


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="no extended precision for the exact RK4 map")
@pytest.mark.parametrize("steps", [4096, 16384])
@pytest.mark.parametrize("case", list(CLOSED_FORMS))
def test_tree_rounds_no_more_than_loop(case, steps, request):
    # distance from the same RK4 map carried out in extended precision: the
    # rounding of each method alone, without the truncation error
    fixture, closed_form = CLOSED_FORMS[case]
    spec = request.getfixturevalue(fixture)
    curve, v0, _ = closed_form(spec)
    exact = loop_transport(spec, curve, v0, steps, dtype=np.longdouble)
    tree = np.abs(transport(spec, curve, v0, steps) - exact).max()
    loop = np.abs(loop_transport(spec, curve, v0, steps) - exact).max()
    assert tree <= loop


def test_point_outside_in_last_chunk_is_caught(plane_spec):
    # r passes 3 at t = 0.909, in the last of four 1024-step chunks
    seg = line_curve(plane_spec.domain, (0.5, 1.0), (3.25, 1.0))
    with pytest.raises(PointOutsideDomain) as err:
        transport(plane_spec, seg, np.zeros(3), steps=4096)
    assert str(err.value) == ("transport along 'segment' left the domain: "
                              "point [3.000244140625, 1.0] outside chart box")


def test_transport_requires_min_steps(flat_spec):
    seg = line_curve(flat_spec.domain, (0.0, 0.0), (1.0, 0.0))
    with pytest.raises(TransportError):
        transport(flat_spec, seg, np.zeros(3), steps=8)


def test_curve_leaving_domain_fails(plane_spec):
    seg = line_curve(plane_spec.domain, (0.5, 1.0), (3.5, 1.0))
    with pytest.raises(Exception, match="outside"):
        transport(plane_spec, seg, np.zeros(3), steps=64)


def test_holonomy_contractible_loop_in_flat_region(flat_spec):
    dom = flat_spec.domain
    loop = Curve(dom, [parse_expr("0.5*cos(t) - 0.5"), parse_expr("0.5*sin(t)")],
                 0.0, TWO_PI, name="contractible")
    h = holonomy_matrix(flat_spec, Subspace.full(3), loop, steps=512)
    assert np.abs(h.matrix - np.eye(3)).max() < 1e-6
    assert h.defect < 1e-12


def test_holonomy_punctured_plane_rotation_block(plane_spec):
    k = 0.3
    p = np.array([1.0, 0.0])
    term = derived_flag(plane_spec, p).terminal
    loop = circle_loop(plane_spec.domain, params=plane_spec.params)
    h = holonomy_matrix(plane_spec, term, loop, steps=4096)
    assert h.defect < 1e-5
    # express in the basis of the printed parallel sections at p
    C = np.array([[1.0, 0.0, 1.0 / k],
                  [k * k, 0.0, -k],
                  [0.0, 1.0, 0.0]])
    S = term.basis.T @ C
    Hh = np.linalg.solve(S, h.matrix @ S)
    a = 4.0 * k * np.pi
    golden = np.array([[1.0, 0.0, 0.0],
                       [0.0, np.cos(a), -np.sin(a)],
                       [0.0, np.sin(a), np.cos(a)]])
    assert np.abs(Hh - golden).max() < 1e-5


def test_holonomy_scalar_line_bundle(circle_line_spec):
    loop = Curve(circle_line_spec.domain, [parse_expr("t")], 0.0, TWO_PI,
                 name="circle")
    term = derived_flag(circle_line_spec, (0.0,)).terminal
    h = holonomy_matrix(circle_line_spec, term, loop, steps=4096)
    assert h.matrix.shape == (1, 1)
    assert abs(h.matrix[0, 0] - np.exp(-TWO_PI)) < 1e-9


def test_holonomy_loop_inverse(plane_spec):
    p = np.array([1.0, 0.0])
    term = derived_flag(plane_spec, p).terminal
    loop = circle_loop(plane_spec.domain, params=plane_spec.params)
    h_fwd = holonomy_matrix(plane_spec, term, loop, steps=1024)
    h_back = holonomy_matrix(plane_spec, term, reversed_curve(loop),
                             steps=1024)
    assert np.abs(h_back.matrix @ h_fwd.matrix - np.eye(3)).max() < 1e-7


# --- step doubling -----------------------------------------------------------

def test_doubling_levels_halve_the_cap_down_to_128():
    assert doubling_levels(16384) == [128 << j for j in range(8)]
    assert doubling_levels(1000) == [250, 500, 1000]
    assert doubling_levels(256) == [128, 256]
    # an odd cap, or one whose half is below 128, is a single level
    for cap in (4097, 255, 200, 16):
        assert doubling_levels(cap) == [cap]


def _counting(estimates):
    """An ``evaluate`` for :func:`refine` that records each call's level and
    coarse value and returns its level, and an ``estimate`` that reads the
    finer level's entry of ``estimates``."""
    calls = []

    def evaluate(level, coarse):
        calls.append((level, coarse))
        return level

    return calls, evaluate, lambda fine, coarse: estimates[fine]


def test_refine_stops_at_the_first_level_of_256_or_more_meeting_the_target():
    calls, evaluate, estimate = _counting({256: 0.5, 512: 1e-3, 1024: 0.0})
    assert refine(1024, 1e-2, evaluate, estimate) == (512, 512, 1e-3)
    assert [level for level, _ in calls] == [128, 256, 512]


def test_refine_runs_to_the_cap_on_nan_estimates():
    calls, evaluate, estimate = _counting(dict.fromkeys([256, 512], np.nan))
    value, level, err = refine(512, 1.0, evaluate, estimate)
    assert (value, level, len(calls)) == (512, 512, 3) and np.isnan(err)


@pytest.mark.parametrize("cap,target", [(4096, None), (4097, 1.0)])
def test_refine_evaluates_a_single_level_once(cap, target):
    calls, evaluate, estimate = _counting({})
    assert refine(cap, target, evaluate, estimate) == (cap, cap, None)
    assert calls == [(cap, None)]


def test_refine_passes_each_level_the_coarser_value():
    calls, evaluate, estimate = _counting(dict.fromkeys([256, 512, 1024], 1.0))
    assert refine(1024, 0.0, evaluate, estimate) == (1024, 1024, 1.0)
    assert calls == [(128, None), (256, 128), (512, 256), (1024, 512)]


@pytest.mark.parametrize("cap,target", [(2048, -1.0), (1025, 1.0)])
def test_holonomy_reaching_the_cap_is_the_fixed_step_holonomy(cap, target,
                                                               plane_spec):
    # a target no estimate meets, or an odd cap (a single level), ends at the
    # cap: the fixed-step computation, bit for bit
    p = np.array([1.0, 0.0])
    term = derived_flag(plane_spec, p).terminal
    loop = circle_loop(plane_spec.domain, params=plane_spec.params)
    fixed = holonomy_matrix(plane_spec, term, loop, steps=cap)
    capped = holonomy_matrix(plane_spec, term, loop, steps=cap,
                             target=target)
    assert capped.steps == fixed.steps == cap
    assert np.array_equal(capped.matrix, fixed.matrix)
    assert capped.defect == fixed.defect
    assert fixed.error_estimate is None
    assert (capped.error_estimate is None) == (cap % 2 == 1)


def test_holonomy_doubling_never_stops_below_256_steps(flat_spec, plane_spec):
    # every estimate of the flat connection is exactly 0, and any estimate
    # meets a target of 1, yet the first level, 128 steps, ends neither run
    loop = Curve(flat_spec.domain, [parse_expr("0.5*cos(t) - 0.5"),
                                    parse_expr("0.5*sin(t)")], 0.0, TWO_PI)
    h = holonomy_matrix(flat_spec, Subspace.full(3), loop, steps=4096,
                        target=0.0)
    assert (h.steps, h.error_estimate) == (256, 0.0)
    p = np.array([1.0, 0.0])
    plane = circle_loop(plane_spec.domain, params=plane_spec.params)
    h = holonomy_matrix(plane_spec, derived_flag(plane_spec, p).terminal,
                        plane, steps=4096, target=1.0)
    assert h.steps == 256 and 0.0 < h.error_estimate <= 1.0


def test_holonomy_doubling_error_estimate_tracks_the_error(plane_spec):
    # the punctured plane converges at fourth order, so the Richardson
    # estimate of the kept level is its error against a 16384-step reference
    # to within a factor of two
    p = np.array([1.0, 0.0])
    term = derived_flag(plane_spec, p).terminal
    loop = circle_loop(plane_spec.domain, params=plane_spec.params)
    ref = holonomy_matrix(plane_spec, term, loop, steps=16384).matrix
    h = holonomy_matrix(plane_spec, term, loop, steps=4096, target=1e-9)
    assert 256 <= h.steps < 4096 and h.error_estimate <= 1e-9
    err = np.abs(h.matrix - ref).max()
    assert 0.5 * h.error_estimate < err < 2.0 * h.error_estimate


def test_holonomy_defect_detects_non_invariant_subspace(plane_spec):
    # span(h2(p)) is not transport invariant around the loop: the transported
    # vector picks up an h3 component of size |sin(1.2 pi)|
    k = 0.3
    h2 = np.array([0.0, 0.0, 1.0])  # h2(1, 0) = X3
    sub = Subspace(3, h2[:, None])
    loop = circle_loop(plane_spec.domain, params=plane_spec.params)
    with pytest.raises(DefectTooLarge):
        holonomy_matrix(plane_spec, sub, loop, steps=1024)


def test_parallel_extend_flat_constant(flat_spec):
    w = np.array([1.0, -2.0, 0.5])
    nodes, values = parallel_extend(flat_spec, (0.0, 0.0), w, radius=0.5,
                                    grid_res=4)
    assert np.abs(values - w).max() < 1e-10
    assert two_leg_residual(flat_spec, (0.0, 0.0), w, nodes, values) < 1e-10


def test_parallel_extend_sphere_metric_direction(sphere_spec):
    p = np.array([np.pi / 3, 1.0])
    w = np.array([1.0, np.sin(np.pi / 3) ** 2, 0.0])
    nodes, values = parallel_extend(sphere_spec, p, w, radius=0.3,
                                    grid_res=4, steps=256)
    for q, v in zip(nodes, values):
        want = np.array([1.0, np.sin(q[0]) ** 2, 0.0])
        assert np.abs(v - want).max() <= 1e-4 * max(1.0, np.abs(want).max())
    # the terminal bundle is regular on the ball, so rays and two-leg paths
    # agree even though the full connection is curved
    assert two_leg_residual(sphere_spec, p, w, nodes, values, 256) < 1e-6


def test_parallel_extend_punctured_plane_h2(plane_spec):
    k = 0.3
    p = np.array([1.0, 0.0])

    def h2(q):
        r, th = q
        return np.array([np.sin(2 * k * th) / k,
                         -k * r * r * np.sin(2 * k * th),
                         r * np.cos(2 * k * th)])

    nodes, values = parallel_extend(plane_spec, p, h2(p), radius=0.4,
                                    grid_res=4, steps=256)
    # flat connection: path independent
    assert two_leg_residual(plane_spec, p, h2(p), nodes, values, 256) < 1e-6
    for q, v in zip(nodes, values):
        want = h2(q)
        rel = np.abs(v - want).max() / max(1.0, np.abs(want).max())
        assert rel < 1e-4


def test_parallel_extend_ball_must_stay_inside(plane_spec):
    with pytest.raises(Exception, match="exits|outside"):
        parallel_extend(plane_spec, (0.4, 1.0), np.zeros(3), radius=0.5,
                        grid_res=3)
