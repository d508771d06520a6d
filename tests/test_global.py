import numpy as np
import pytest

from dataclasses import replace

from paracon import flag as flagmod, globalmetric
from paracon.bundle import ConnectionSpec, Domain, omega_stack
from paracon.corpus import get_entry
from paracon.expr import parse_expr
from paracon.flag import (IrregularPoint, NotSym2Bundle, Subspace,
                          canonical_basis, derived_flag, local_metricity,
                          principal_angles)
from paracon.globalmetric import (Analysis, fixed_subspace, phi_form,
                                  phi_periods)
from paracon.transport import Curve, HolonomyResult, holonomy_matrix, transport
from reference import log_gradient, rescaled_period, tracked_sections

TWO_PI = 2.0 * np.pi
LIOUVILLE_NOTE = ("on loops {}, |det H| and exp(-period) differ beyond their "
                  "error estimates; downgrading to inconclusive")


def band_loops(domain, band="pi/3"):
    a = Curve(domain, [parse_expr(band), parse_expr("1 + t")], 0.0, TWO_PI,
              name="band")
    b = Curve(domain, [parse_expr("pi/3 + 0.9528024488034024*sin(t/2)^2"),
                       parse_expr("1 + t")], 0.0, TWO_PI, name="sweep")
    return [a, b]


def plane_loop(domain, params=None):
    return Curve(domain, [parse_expr("1"), parse_expr("t")], 0.0, TWO_PI,
                 name="around-origin", params=params)


def wobble_loop(domain):
    return Curve(domain, [parse_expr("1.5 + 0.5*sin(t)"), parse_expr("t")],
                 0.0, TWO_PI, name="wobble")


# --- the Phi form -----------------------------------------------------------

def test_phi_vanishes_along_sphere_band_loop(sphere_spec):
    # the terminal line depends only on theta, so Phi has no azimuthal
    # component at all; along a band loop the sampled form vanishes pointwise
    band = band_loops(sphere_spec.domain)[0]
    ts = np.linspace(0, TWO_PI, 48, endpoint=False)
    phi = phi_form(sphere_spec, band.points(ts))
    tangential = np.sum(phi * band.velocities(ts), axis=1)
    assert np.abs(tangential).max() < 1e-6


def test_phi_theta_component_is_the_normalization_gradient(sphere_spec):
    # off the band direction Phi is the exact form -d log ||(1, sin^2, 0)||,
    # the gauge contribution of a unit-norm section; closed-form oracle
    thetas = np.array([0.7, 1.2, 2.1])
    pts = np.stack([thetas, np.full(3, 2.0)], axis=1)
    phi = phi_form(sphere_spec, pts)
    s2 = np.sin(thetas) ** 2
    want = -2.0 * s2 * np.sin(thetas) * np.cos(thetas) / (1.0 + s2 ** 2)
    assert np.abs(phi[:, 0] - want).max() < 1e-6
    assert np.abs(phi[:, 1]).max() < 1e-12


def test_phi_gauge_rescaling_adds_exact_gradient(sphere_spec):
    # the section f s, f = e^theta, has the form Phi + d(log f) = Phi + dtheta:
    # <nabla_k (f s), f s> / |f s|^2 by central differences of f s
    base, h = (np.pi / 3, 1.0), 1e-4
    pts = np.array([[np.pi / 3, 1.0], [1.2, 2.0], [2.0, 0.3], [0.8, 5.0]])

    def section(q):
        return tracked_sections(sphere_spec, base, q) * np.exp(q[:, :1])

    f = parse_expr("exp(theta)")
    want = phi_form(sphere_spec, pts) + log_gradient(sphere_spec, f, pts)
    s, omega = section(pts), omega_stack(sphere_spec, pts)
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        ds = (section(pts + e) - section(pts - e)) / (2 * h)
        nabla = ds + np.einsum("mij,mj->mi", omega[:, k], s)
        got = np.sum(nabla * s, axis=1) / np.sum(s * s, axis=1)
        assert np.abs(got - want[:, k]).max() < 1e-6


def test_phi_theta_component_is_exact(sphere_spec):
    # Phi_k = s^T Omega_k s for the unit section s, with no differencing: the
    # closed form holds to rounding, not to a truncation error
    thetas = np.array([0.3, 0.7, 1.2, 2.1, 2.9])
    pts = np.stack([thetas, np.array([2.0, 0.1, 4.0, 5.5, 3.0])], axis=1)
    s2 = np.sin(thetas) ** 2
    want = -2.0 * s2 * np.sin(thetas) * np.cos(thetas) / (1.0 + s2 ** 2)
    assert np.abs(phi_form(sphere_spec, pts)[:, 0] - want).max() < 1e-13


def test_phi_gauge_shift_is_exact(sphere_spec):
    # d log f comes from the exact derivative of f, with no differencing
    pts = np.array([[np.pi / 3, 1.0], [1.2, 2.0], [2.0, 0.3], [0.8, 5.0]])
    base = phi_form(sphere_spec, pts)
    shifted = base + log_gradient(sphere_spec, parse_expr("exp(theta)"), pts)
    assert np.abs((shifted - base) - np.array([1.0, 0.0])).max() < 1e-13


def _central_difference_phi(spec, base, pts, h):
    """Phi by central differences of a tracked section, the reference the
    exact route replaced: <d_k s + Omega_k s, s> with d_k s differenced at
    step h.  Also returns the largest |d_k s + Omega_k s - Phi_k s| with the
    exact Phi, which vanishes only with the +Omega convention."""
    s = tracked_sections(spec, base, pts)
    omega = omega_stack(spec, pts)
    exact = phi_form(spec, pts)
    phi = np.empty_like(exact)
    residual = 0.0
    for k in range(pts.shape[1]):
        e = np.zeros(pts.shape[1])
        e[k] = h
        ds = (tracked_sections(spec, base, pts + e)
              - tracked_sections(spec, base, pts - e)) / (2 * h)
        nabla = ds + np.einsum("mij,mj->mi", omega[:, k], s)
        phi[:, k] = np.sum(nabla * s, axis=1)
        residual = max(residual,
                       np.abs(nabla - exact[:, k, None] * s).max())
    return phi, exact, residual


@pytest.mark.parametrize("which", ["sphere", "dtheta"])
def test_phi_matches_central_differences_to_second_order(which, sphere_spec,
                                                         dtheta_spec):
    if which == "sphere":
        spec, base = sphere_spec, (np.pi / 3, 1.0)
        pts = np.array([[0.7, 2.0], [1.2, 0.5], [2.1, 4.0]])
    else:
        spec, base = dtheta_spec, (1.0, 0.0)
        pts = np.array([[1.0, 0.3], [2.0, 2.5], [0.8, 5.0]])
    errs = []
    for h in (1e-3, 1e-4):
        ref, exact, residual = _central_difference_phi(spec, base, pts, h)
        assert np.abs(exact).max() > 0.1  # a test where Phi is not zero
        errs.append(np.abs(ref - exact).max())
        assert errs[-1] < h * h
        # nabla s is parallel to s, with Phi as the factor
        assert residual < h * h
    assert errs[1] < errs[0] / 50.0  # the error falls like h^2


def test_phi_zero_for_flat_restricted_line(flat_spec):
    # Omega = 0, so the trace form vanishes on every subspace, the identity
    # line among them, whatever the terminal subspace is
    pts = np.array([[0.0, 0.0], [0.5, -0.5], [1.0, 1.0]])
    assert np.abs(phi_form(flat_spec, pts)).max() < 1e-10


def test_phi_form_sums_over_a_terminal_frame(plane_spec):
    # rank 3: tr(P Omega_k) = sum_a b_a^T Omega_k b_a for an orthonormal
    # terminal frame, and any rotation of that frame gives the same form
    pts = np.array([[1.0, 0.0], [0.5, 2.0], [2.5, 4.0]])
    omega = omega_stack(plane_spec, pts)
    rot, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
    want = np.zeros((len(pts), 2))
    for i, p in enumerate(pts):
        basis = derived_flag(plane_spec, p).terminal.basis @ rot
        assert basis.shape == (plane_spec.N, 3)
        for b in basis.T:
            want[i] += np.einsum("i,kij,j->k", b, omega[i], b)
    assert np.abs(phi_form(plane_spec, pts) - want).max() < 1e-13


def test_phi_periods_sphere_loops_vanish(sphere_spec):
    out = phi_periods(sphere_spec, band_loops(sphere_spec.domain), 512)
    assert np.abs(out.periods).max() < 1e-6
    assert out.loop_names == ["band", "sweep"]
    assert len(out.samples[0]) == 512


@pytest.mark.parametrize("target, band", [
    (None, "pi/3"), (1e-9, "pi/3"), (None, "pi/3 + 0*t"), (1e-9, "pi/3 + 0*t"),
], ids=["None", "1e-09", "None-names-t", "1e-09-names-t"])
def test_phi_on_a_loop_that_holds_the_read_coordinates(target, band,
                                                       sphere_spec,
                                                       monkeypatch):
    # sphere reads theta alone; the band loop holds it, also where its
    # formula names t, so each level runs the flag at one point, and every
    # sample has the bits phi_form gives over the whole loop.  The sweep
    # loop moves theta: at most one flag per point of a level
    flagged = []
    kernel = flagmod.curvature_kernel

    def counting(spec, points, *args):
        flagged.append(len(points))
        return kernel(spec, points, *args)

    monkeypatch.setattr(flagmod, "curvature_kernel", counting)
    for loop in band_loops(sphere_spec.domain, band):
        flagged.clear()
        out = phi_periods(sphere_spec, [loop], 512, target=target)
        m, = out.points
        if loop.name == "band":
            assert flagged == [1] * len(flagged)
        else:
            assert sum(flagged) <= m
        ts = np.linspace(loop.t0, loop.t1, 512, endpoint=False)[::512 // m]
        assert np.array_equal(out.samples[0],
                              phi_form(sphere_spec, loop.points(ts)))


def test_local_stage_spreads_each_class_decision_bit_for_bit(sphere_spec):
    axes = [[0.4, 0.9, 1.3, 1.9, 2.6], [0.5, 1.5, 3.0, 5.5]]
    an = Analysis(sphere_spec, [1.0, 1.0], [], axes)
    want = local_metricity(sphere_spec, an.scan.levels[-1])
    assert len(an.scan.reps) == 5 and len(an.local) == len(want) == 20
    assert [(lm.status, repr(lm.best_lambda)) for lm in an.local] == \
        [(lm.status, repr(lm.best_lambda)) for lm in want]


def test_phi_period_dtheta_obstruction(dtheta_spec):
    loop = plane_loop(dtheta_spec.domain)
    out = phi_periods(dtheta_spec, [loop], 1024)
    assert out.periods[0] == pytest.approx(TWO_PI, abs=1e-4 * (1 + TWO_PI))


def test_phi_period_gauge_invariance(dtheta_spec):
    loop = plane_loop(dtheta_spec.domain)
    out = phi_periods(dtheta_spec, [loop], 512)
    base = out.periods[0]
    # single-valued positive rescalings leave loop periods unchanged
    shifted = rescaled_period(dtheta_spec, loop, out.samples[0],
                              parse_expr("exp(sin(theta) + r/2)"))
    assert abs(shifted - base) < 1e-6


@pytest.mark.parametrize("eid,fixed_dim,calls",
                         [("sphere", 1, 1), ("dtheta-obstruction", 0, 1)])
def test_verdict_decides_a_terminal_line_once(eid, fixed_dim, calls,
                                              monkeypatch):
    # the fixed space's PD feasibility is the one decision, whether the
    # fixed space is the whole line (sphere) or zero (dtheta-obstruction):
    # the de Rham route checks the holonomy and decides nothing
    man = get_entry(eid).manifest()
    an = man.analysis()
    assert an.fixed.dim == fixed_dim
    original, seen = globalmetric.pdcone.pd_feasible, []

    def counted(*args, **kwargs):
        seen.append(np.shape(args[0]))
        return original(*args, **kwargs)

    monkeypatch.setattr(globalmetric.pdcone, "pd_feasible", counted)
    verdict = an.verdict
    assert len(seen) == calls
    assert verdict.phi is not None


@pytest.mark.parametrize("cap,target", [(1024, -1.0), (1025, 1.0)])
def test_phi_periods_reaching_the_cap_are_the_fixed_point_periods(
        cap, target, sphere_spec, dtheta_spec):
    # a target no estimate meets, or an odd cap (a single level), ends at the
    # cap: the same points, periods and samples as without a target
    for spec, loops in ((sphere_spec, band_loops(sphere_spec.domain)),
                        (dtheta_spec, [plane_loop(dtheta_spec.domain)])):
        fixed = phi_periods(spec, loops, cap)
        capped = phi_periods(spec, loops, cap, target=target)
        assert capped.points == fixed.points == [cap] * len(loops)
        assert capped.periods == fixed.periods
        for a, b in zip(capped.samples, fixed.samples):
            assert np.array_equal(a, b)
        assert fixed.error_estimates == [None] * len(loops)
        assert all((e is None) == (cap % 2 == 1)
                   for e in capped.error_estimates)


def test_phi_period_doubling_never_stops_below_256_points(dtheta_spec):
    loop = plane_loop(dtheta_spec.domain)
    out = phi_periods(dtheta_spec, [loop, loop], 4096, target=[1.0, 1e-12])
    assert out.points == [256, 256]
    assert [len(s) for s in out.samples] == [256, 256]
    assert out.periods[0] == pytest.approx(TWO_PI, abs=1e-12)
    assert max(out.error_estimates) <= 1e-12


@pytest.mark.parametrize("pattern", [[None], [1e-9], [1e-8], [None, 1e-9],
                                     [1e-9, None]],
                         ids=["None", "1e-09", "1e-08", "None,1e-09",
                              "1e-09,None"])
def test_loops_sampled_together_match_each_loop_alone(pattern, sphere_spec,
                                                      dtheta_spec):
    # every loop's first levels share one phi_form call; each loop's
    # periods, samples, points and estimates are those of a call of its own
    # and of the left sums over phi_form at each level's points.  `bump`
    # stops at level 256 with an estimate of 2.5e-9, or runs to the cap
    bump = Curve(sphere_spec.domain, [
        parse_expr("pi/3 + 0.9*exp(-50*(1 + cos(t - 0.3)))"),
        parse_expr("1 + t")], 0.0, TWO_PI, name="bump")
    for spec, loops in ((sphere_spec, band_loops(sphere_spec.domain) + [bump]),
                        (dtheta_spec, [plane_loop(dtheta_spec.domain),
                                       wobble_loop(dtheta_spec.domain)])):
        tgts = (pattern * len(loops))[:len(loops)]
        target = tgts[0] if len(pattern) == 1 else tgts
        together = phi_periods(spec, loops, 512, target=target)
        for i, (loop, tgt) in enumerate(zip(loops, tgts)):
            alone = phi_periods(spec, [loop], 512, target=tgt)
            assert together.loop_names[i] == loop.name
            assert together.periods[i] == alone.periods[0]
            assert together.points[i] == alone.points[0]
            assert together.error_estimates[i] == alone.error_estimates[0]
            assert np.array_equal(together.samples[i], alone.samples[0])
            m = together.points[i]
            assert together.periods[i] == _left_sum(spec, loop, 512, m)
            if tgt is not None:
                assert together.error_estimates[i] == abs(
                    together.periods[i] - _left_sum(spec, loop, 512, m // 2))
        if spec is sphere_spec and pattern == [1e-8]:
            assert together.points == [256, 256, 256]
            assert together.error_estimates[2] > 1e-9


def _left_sum(spec, loop, cap, m):
    ts = np.linspace(loop.t0, loop.t1, cap, endpoint=False)[::cap // m]
    phi = phi_form(spec, loop.points(ts))
    return float(np.sum(phi * loop.velocities(ts)) * ((loop.t1 - loop.t0) / m))


@pytest.mark.parametrize("eid", ["sphere", "dtheta-obstruction"])
def test_rank_one_verdict_samples_phi_in_one_flag_batch(eid, monkeypatch):
    # both corpus Phi routes stop at the second level, which the one batch
    # holds for every loop
    an = get_entry(eid).manifest().analysis()
    sizes, original = [], globalmetric.batch_terminal_bases

    def counted(spec, points, *args):
        sizes.append(len(points))
        return original(spec, points, *args)

    monkeypatch.setattr(globalmetric, "batch_terminal_bases", counted)
    phi = an.verdict.phi
    assert sizes == [sum(phi.points)] == [256 * len(an.loops)]


def test_unmet_target_samples_only_the_new_odd_points(dtheta_spec,
                                                       monkeypatch):
    # a target no estimate meets runs levels 128, 256, 512 and 1024: after
    # the batch of the second level each further level samples its new
    # odd-index points, and the kept samples are phi_form's over the level
    loops = [plane_loop(dtheta_spec.domain), wobble_loop(dtheta_spec.domain)]
    seen, original = [], globalmetric.phi_form

    def recorded(spec, points, *args):
        seen.append(np.array(points))
        return original(spec, points, *args)

    monkeypatch.setattr(globalmetric, "phi_form", recorded)
    out = phi_periods(dtheta_spec, loops, 1024, target=-1.0)
    monkeypatch.undo()
    assert out.points == [1024, 1024]
    ts = np.linspace(0.0, TWO_PI, 1024, endpoint=False)
    want = [np.vstack([loop.points(ts[::4]) for loop in loops])]
    for loop in loops:
        want += [loop.points(ts[2::4]), loop.points(ts[1::2])]
    assert len(seen) == len(want)
    for got, pts in zip(seen, want):
        assert np.array_equal(got, pts)
    for loop, samples in zip(loops, out.samples):
        assert np.array_equal(samples, phi_form(dtheta_spec, loop.points(ts)))
        assert np.array_equal(samples[::2],
                              phi_form(dtheta_spec, loop.points(ts[::2])))


@pytest.mark.parametrize("eid", ["sphere", "s1-line-bundle", "punctured-plane",
                                 "dtheta-obstruction"])
def test_trace_form_periods_match_the_holonomy_determinant(eid):
    # Liouville's formula: the holonomy of the terminal subspace around a
    # loop has log|det H| = -oint tr(P Omega), at every rank and on any
    # fiber (s1-line-bundle is a matrix connection, punctured-plane has a
    # rank-3 terminal subspace)
    man = get_entry(eid).manifest()
    an = man.analysis()
    out = phi_periods(man.spec, man.loops, man.steps["quadrature"],
                      rank_tol=an.rank_tol, target=1e-9)
    assert len(an.holonomies) == len(out.periods) > 0
    for h, period in zip(an.holonomies, out.periods):
        log_det = np.log(abs(np.linalg.det(h.matrix)))
        assert abs(period + log_det) <= 1e-6


# --- fixed subspaces --------------------------------------------------------

def test_fixed_subspace_no_loops_is_full():
    sub = fixed_subspace([], dim=3)
    assert sub.dim == 3


def test_fixed_subspace_punctured_plane(plane_spec):
    p = np.array([1.0, 0.0])
    term = derived_flag(plane_spec, p).terminal
    loop = plane_loop(plane_spec.domain, plane_spec.params)
    h = holonomy_matrix(plane_spec, term, loop, steps=2048)
    fixed = fixed_subspace([h], dim=3)
    assert fixed.dim == 1
    fiber = term.basis @ fixed.basis
    h1 = np.array([1.0, 0.09, 0.0])
    h1 /= np.linalg.norm(h1)
    assert principal_angles(fiber, h1).max() < 1e-5


def test_fixed_subspace_scalar_decay(circle_line_spec):
    term = derived_flag(circle_line_spec, (0.0,)).terminal
    loop = Curve(circle_line_spec.domain, [parse_expr("t")], 0.0, TWO_PI,
                 name="circle")
    h = holonomy_matrix(circle_line_spec, term, loop, steps=2048)
    assert fixed_subspace([h], dim=1).dim == 0


def test_fixed_subspace_functoriality():
    rng = np.random.default_rng(8)
    d = 4
    qmat, _ = np.linalg.qr(rng.standard_normal((d, d)))
    rot = np.eye(d)
    rot[1:3, 1:3] = [[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]]
    H = qmat @ rot @ qmat.T  # fixed space is 2-dimensional
    hs = [HolonomyResult("a", H, 0.0)]
    fixed = fixed_subspace(hs, dim=d)
    assert fixed.dim == 2

    S = np.eye(d) + 0.2 * rng.standard_normal((d, d))
    hs_conj = [HolonomyResult("a", np.linalg.solve(S, H @ S), 0.0)]
    fixed_conj = fixed_subspace(hs_conj, dim=d)
    mapped = np.linalg.solve(S, fixed.basis)
    mapped, _ = np.linalg.qr(mapped)
    assert principal_angles(fixed_conj.basis, mapped).max() < 1e-8


# --- canonical fixed-subspace basis -----------------------------------------

def test_canonical_basis_rank_one_is_largest_entry_positive():
    v = np.array([0.3, -0.8, 0.5])
    v /= np.linalg.norm(v)
    for sign in (1.0, -1.0):
        assert np.abs(canonical_basis(sign * v[:, None])[:, 0] + v).max() \
            < 1e-15


def test_canonical_basis_ignores_the_basis_of_the_span():
    rng = np.random.default_rng(11)
    B, _ = np.linalg.qr(rng.standard_normal((6, 3)))
    want = canonical_basis(B)
    assert np.abs(want.T @ want - np.eye(3)).max() < 1e-14
    assert principal_angles(want, B).max() < 1e-12
    for _ in range(5):
        rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        assert np.abs(canonical_basis(B @ rot) - want).max() < 1e-12


def cone_line_spec(k=0.3):
    # dr^2 + k^2 r^2 dtheta^2 + dz^2: flat, with a 2-dim holonomy-fixed
    # space span(dr^2 + k^2 r^2 dtheta^2, dz^2) around loops that wind
    dom = Domain(names=("r", "theta", "z"), lows=(0.2, 0.0, -1.0),
                 highs=(3.0, TWO_PI, 1.0), periods=(None, TWO_PI, None),
                 excluded=(parse_expr("r"),))
    gamma = {(0, 1, 1): parse_expr("-k^2*r"),
             (1, 0, 1): parse_expr("1/r"),
             (1, 1, 0): parse_expr("1/r")}
    spec = ConnectionSpec(dom, kind="christoffel", params={"k": k},
                          gamma=gamma)
    loops = [Curve(dom, [parse_expr(e) for e in exprs], 0.0, TWO_PI,
                   name=name, params=spec.params)
             for name, exprs in (
                 ("axis", ("1", "t", "0")),
                 ("rz-circle", ("0.7 + 0.3*cos(t)", "0", "0.3*sin(t)")),
                 ("winding", ("1 + 0.3*sin(t)", "t", "0.4*sin(2*t)")))]
    return spec, loops


CONE_GRID = [[0.6, 1.4, 2.2], [0.5, 2.5, 4.5], [-0.5, 0.5]]


def _cone_line_verdict():
    spec, loops = cone_line_spec()
    return Analysis(spec, [1.0, 0.0, 0.0], loops, CONE_GRID,
                    rk4_steps=2048).verdict


def _plane_verdict(spec):
    return Analysis(spec, [1.0, 0.0],
                    [plane_loop(spec.domain, spec.params)],
                    PLANE_GRID, rk4_steps=2048, quadrature_steps=256).verdict


@pytest.mark.parametrize("eps", [1e-12, -1e-12])
@pytest.mark.parametrize("case", ["punctured-plane", "cone-line"])
def test_fixed_basis_is_stable_under_holonomy_noise(case, eps, monkeypatch,
                                                    plane_spec):
    # a perturbation of H at the integrator's noise level must not turn the
    # reported basis or the PD coefficients, which are taken in that basis
    def run():
        if case == "punctured-plane":
            return _plane_verdict(plane_spec)
        return _cone_line_verdict()

    clean = run()
    exact = globalmetric.holonomy_matrix
    rng = np.random.default_rng(5)

    def noisy(*args, **kwargs):
        h = exact(*args, **kwargs)
        return replace(h, matrix=h.matrix
                       + eps * rng.uniform(-1.0, 1.0, h.matrix.shape))

    monkeypatch.setattr(globalmetric, "holonomy_matrix", noisy)
    bumped = run()
    assert bumped.status == clean.status == "metric"
    assert np.abs(bumped.fixed_fiber_basis
                  - clean.fixed_fiber_basis).max() < 1e-9
    assert np.abs(bumped.pd_result.coefficients
                  - clean.pd_result.coefficients).max() < 1e-9


def test_fixed_basis_ignores_a_rotation_of_the_fixed_subspace(monkeypatch):
    clean = _cone_line_verdict()
    assert clean.fixed.dim == 2
    exact = globalmetric.fixed_subspace
    angle = np.random.default_rng(3).uniform(0.0, TWO_PI)
    c, s = np.cos(angle), np.sin(angle)

    def rotated(*args, **kwargs):
        sub = exact(*args, **kwargs)
        return replace(sub, basis=sub.basis @ np.array([[c, -s], [s, c]]))

    monkeypatch.setattr(globalmetric, "fixed_subspace", rotated)
    turned = _cone_line_verdict()
    assert np.abs(turned.fixed.basis - clean.fixed.basis).max() > 0.1
    assert np.abs(turned.fixed_fiber_basis
                  - clean.fixed_fiber_basis).max() < 1e-12


def test_holonomy_is_orthogonal_for_invariant_metric(plane_spec):
    # numerical content of the parallel-metric invariance argument
    p = np.array([1.0, 0.0])
    term = derived_flag(plane_spec, p).terminal
    loop = plane_loop(plane_spec.domain, plane_spec.params)
    H = holonomy_matrix(plane_spec, term, loop, steps=4096).matrix
    # the pairing tr(s^-1 h s^-1 h') induced by the parallel metric s = h1
    s_inv = np.linalg.inv(np.diag([1.0, 0.09]))
    mats = [plane_spec.sym.to_matrix(term.basis[:, a]) for a in range(3)]
    G = np.array([[np.trace(s_inv @ a @ s_inv @ b) for b in mats]
                  for a in mats])
    assert np.abs(H.T @ G @ H - G).max() < 1e-5


# --- the full global pipeline ----------------------------------------------

PLANE_GRID = [[0.5, 1.0, 1.5, 2.0, 2.5],
              [0.4, 1.2, 2.0, 2.7, 3.5, 4.3, 5.1, 5.9]]


def test_global_punctured_plane_is_metric(plane_spec):
    v = Analysis(plane_spec, [1.0, 0.0],
                 [plane_loop(plane_spec.domain, plane_spec.params)],
                 PLANE_GRID, rk4_steps=2048, quadrature_steps=256).verdict
    assert v.status == "metric"
    assert v.rank_wm == 1
    assert v.wtilde_rank == 3
    assert v.rank_tau_reported == 2
    assert v.pd_result.status == "feasible"


def test_global_half_integer_control_has_full_fixed_space():
    from conftest import punctured_plane_spec
    spec = punctured_plane_spec(k=0.5)
    v = Analysis(spec, [1.0, 0.0],
                 [plane_loop(spec.domain, spec.params)],
                 PLANE_GRID, rk4_steps=2048, quadrature_steps=256).verdict
    assert v.status == "metric"
    assert v.rank_wm == 3
    assert v.fixed.dim == 3


def test_global_pathology_short_circuits(pathology_spec):
    v = Analysis(pathology_spec, [0.5, 0.0], [],
                 [[-1.0, -0.5, 0.25, 0.5, 0.75, 1.5, 2.0], [0.0]]).verdict
    assert v.status == "not_regular"
    assert not v.regular_on_grid
    assert v.rank_wm == 0


def test_global_sphere_with_band_loops(sphere_spec):
    v = Analysis(sphere_spec, [np.pi / 3, 1.0],
                 band_loops(sphere_spec.domain),
                 [[0.6, 1.5, 2.4], [0.5, 3.5]],
                 rk4_steps=2048, quadrature_steps=512).verdict
    assert v.status == "metric"
    assert v.rank_wm == 1
    assert v.phi is not None
    assert np.abs(v.phi.periods).max() < 1e-6


def test_global_sphere_no_loops_uses_simple_connectivity(sphere_spec):
    v = Analysis(sphere_spec, [np.pi / 3, 1.0], [],
                 [[0.6, 1.5, 2.4], [0.5, 3.5]]).verdict
    assert v.status == "metric"
    assert v.rank_wm == 1
    assert v.fixed.dim == 1


def test_global_flat_no_loops_full_rank(flat_spec):
    v = Analysis(flat_spec, [0.0, 0.0], [],
                 [[-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]]).verdict
    assert v.status == "metric"
    assert v.rank_wm == 3
    assert v.rank_tau_reported == 0


def test_global_dtheta_obstruction_not_metric(dtheta_spec):
    loop = plane_loop(dtheta_spec.domain)
    v = Analysis(dtheta_spec, [1.0, 0.0], [loop],
                 [[0.8, 1.3, 1.8, 2.3], [0.5, 1.6, 2.7, 3.8, 4.9, 6.0]],
                 rk4_steps=2048, quadrature_steps=512).verdict
    assert v.status == "not_metric"
    assert v.rank_wm == 0
    assert v.fixed.dim == 0
    assert v.phi is not None
    assert v.phi.periods[0] == pytest.approx(TWO_PI, abs=1e-3)


def test_cone_holonomies_stop_below_the_cap_at_their_closed_form():
    # loops-3d's connection converges at fourth order: each loop stops at a
    # level below the 16384-step cap, and its spectrum is the closed form:
    # angles 0, 0, 2 pi k, 2 pi k, 4 pi k, 4 pi k (mod 2 pi) for a loop
    # that winds once around the axis, all 0 for one that does not
    k = 0.3
    spec, loops = cone_line_spec(k)
    an = Analysis(spec, [1.0, 0.0, 0.0], loops, CONE_GRID, rk4_steps=16384)
    a = TWO_PI * k
    winding = np.sort(np.abs(np.angle(np.exp(
        1j * np.array([0.0, 0.0, a, -a, 2 * a, -2 * a])))))
    want = {"axis": winding, "rz-circle": np.zeros(6), "winding": winding}
    for h in an.holonomies:
        assert 256 <= h.steps < 16384
        assert h.error_estimate <= 1e-3 * min(an.fixed_tol, an.holonomy_tol)
        got = np.sort(np.abs(np.angle(np.linalg.eigvals(h.matrix))))
        assert np.abs(got - want[h.loop_name]).max() < 1e-8


def test_piecewise_connection_holonomy_runs_to_the_cap():
    # negative control: Gamma^theta_theta_theta jumps at theta = 2, off every
    # RK4 node, so transport converges only at first order and no level
    # meets the bound; the holonomy is the fixed-step one at the cap, near
    # the closed form H = exp(2 (0.3 * 2 - 0.2 (2 pi - 2))), which fixes
    # nothing.  The left-endpoint period misses the jump as well, and
    # |H - exp(-period)| = 7.5e-3 is beyond both estimates: inconclusive
    an = _circle_analysis("if(theta < 2, 0.3, -0.2)")
    spec, loop = an.spec, an.loops[0]
    v = an.verdict
    h, = an.holonomies
    assert h.steps == 4096
    assert h.error_estimate > 1e-3 * min(an.fixed_tol, an.holonomy_tol)
    fixed = holonomy_matrix(spec, an.base_trace.terminal, loop, 4096)
    assert np.array_equal(h.matrix, fixed.matrix)
    closed = np.exp(2.0 * (0.3 * 2.0 - 0.2 * (TWO_PI - 2.0)))
    assert abs(h.matrix[0, 0] - closed) < 1e-3
    assert (v.status, v.fixed.dim) == ("inconclusive", 0)
    assert abs(h.matrix[0, 0] - np.exp(-v.phi.periods[0])) > 7e-3
    assert v.notes[-1] == LIOUVILLE_NOTE.format("'circle'")


@pytest.mark.parametrize("gamma, status", [
    (f"if(theta < 2.0, 0.3, {-0.6 / (TWO_PI - 2.0)!r})", "inconclusive"),
    ("0.3*cos(theta)", "metric"),
], ids=["piecewise", "smooth"])
def test_a_holonomy_that_breaks_liouville_is_inconclusive(gamma, status):
    # the piecewise Gamma has loop integral zero, so H = 1 and the right
    # verdict is metric.  Across the jump transport converges at first
    # order: at the cap H - 1 = 4.9e-5, its estimate 1.5e-5, and nothing is
    # fixed.  The period, blind to the jump, stops at -0.011, so
    # exp(-period) is 1.011, far from H: the verdict, which was not_metric,
    # is inconclusive.  The smooth control keeps its metric verdict
    v = _circle_analysis(gamma).verdict
    assert v.status == status
    if status == "inconclusive":
        assert v.notes[-1] == LIOUVILLE_NOTE.format("'circle'")
    else:
        assert v.notes == []


def _twisted_annulus(c):
    """The Levi-Civita connection of e^u dr^2 + r^2 e^v dtheta^2, with
    u = 0.1 r + 0.3 sin(theta) and v = 0.2 cos(theta), twisted by c dtheta
    (c added to Gamma^r_theta r and Gamma^theta_theta theta), around the
    loop r = 1.  Its period is -4 pi c and its holonomy e^(4 pi c)."""
    dom = Domain(names=("r", "theta"), lows=(0.5, 0.0), highs=(3.0, TWO_PI),
                 periods=(None, TWO_PI))
    gamma = {(0, 0, 0): "0.05", (0, 0, 1): "0.15*cos(theta)",
             (0, 1, 0): f"0.15*cos(theta) + {c!r}",
             (0, 1, 1): "-r*exp(0.2*cos(theta) - 0.1*r - 0.3*sin(theta))",
             (1, 0, 0): "-0.3*cos(theta)*exp(0.1*r + 0.3*sin(theta) "
                        "- 0.2*cos(theta))/(2*r^2)",
             (1, 0, 1): "1/r", (1, 1, 0): "1/r",
             (1, 1, 1): f"-0.1*sin(theta) + {c!r}"}
    spec = ConnectionSpec(dom, kind="christoffel",
                          gamma={k: parse_expr(e) for k, e in gamma.items()})
    loop = Curve(dom, [parse_expr("1"), parse_expr("t")], 0.0, TWO_PI,
                 name="around")
    return Analysis(spec, [1.0, 0.0], [loop],
                    [[0.8, 1.3, 1.8, 2.3], [0.5, 1.7, 2.9, 4.1, 5.3]])


@pytest.mark.parametrize("c, status", [
    (0.0, "metric"), (1e-9, "metric"), (1e-8, "metric"),
    (1e-7, "not_metric"), (3e-7, "not_metric"), (1e-6, "not_metric"),
    (1e-5, "not_metric"), (1e-4, "not_metric"),
])
def test_the_holonomy_alone_decides_a_twisted_annulus(c, status):
    # the holonomy decides at fixed_tol: an obstruction below it is metric
    # within fixed_tol, one above it not_metric.  From 1e-7 to 1e-5 the
    # periods used to cast a second vote at their own tolerance, 7.3e-4,
    # and the two votes' disagreement ended inconclusive
    v = _twisted_annulus(c).verdict
    assert v.status == status
    assert abs(v.phi.periods[0] + 4.0 * np.pi * c) < 1e-6
    assert all(not note.startswith("on loops ") for note in v.notes)


def _circle_analysis(gamma):
    """The analysis of Gamma^theta_theta_theta = ``gamma`` on the circle,
    around the loop theta = t from the base point 0."""
    dom = Domain(names=("theta",), lows=(0.0,), highs=(TWO_PI,),
                 periods=(TWO_PI,))
    spec = ConnectionSpec(dom, kind="christoffel",
                          gamma={(0, 0, 0): parse_expr(gamma)})
    loop = Curve(dom, [parse_expr("t")], 0.0, TWO_PI, name="circle")
    return Analysis(spec, [0.0], [loop], [[0.5, 1.5, 3.0, 5.0]])


def _degenerating_gamma(cut=None):
    """Levi-Civita of exp(2x) dx^2 + exp(-2x) dy^2, or, with a ``cut``, the
    same symbols for x < cut and the flat connection beyond."""
    gamma = {(0, 0, 0): "1", (0, 1, 1): "exp(-4*x)", (1, 0, 1): "-1",
             (1, 1, 0): "-1"}
    return {key: parse_expr(e if cut is None else f"if(x < {cut}, {e}, 0)")
            for key, e in gamma.items()}


def test_degenerating_tracked_line_runs_the_period_route():
    # the terminal line is the metric's, which turns from near dy^2 at
    # x = -1.5 to near dx^2 at x = 1.5: a section tracked from the base
    # point's generator degenerates along the loop, but tr(P Omega) needs no
    # section, and the loop goes out and back, so its period is zero
    dom = Domain(names=("x", "y"), lows=(-2.0, -2.0), highs=(2.0, 2.0))
    spec = ConnectionSpec(dom, kind="christoffel", gamma=_degenerating_gamma())
    loop = Curve(dom, [parse_expr("-1.5 + 1.5*(1 - cos(t))"),
                       parse_expr("0")], 0.0, TWO_PI, name="out-and-back")
    v = Analysis(spec, [-1.5, 0.0], [loop],
                 [[-1.0, 0.0, 1.0], [-1.0, 1.0]]).verdict
    assert (v.status, v.notes) == ("metric", [])
    assert abs(v.phi.periods[0]) < v.period_tols[0]


def test_indefinite_terminal_line_runs_the_de_rham_route():
    # Gamma^x_xx = y, Gamma^y_yy = x is the Levi-Civita connection of
    # e^(xy) (dx dy + dy dx): the terminal line is spanned by dx dy, which is
    # indefinite, so the verdict is not_metric.  Liouville's formula holds
    # on any line, so the period route runs; its period is zero, and it
    # checks the holonomy without deciding the verdict
    dom = Domain(names=("x", "y"), lows=(-1.0, -1.0), highs=(1.0, 1.0))
    spec = ConnectionSpec(dom, kind="christoffel", gamma={
        (0, 0, 0): parse_expr("y"), (1, 1, 1): parse_expr("x")})
    loop = Curve(dom, [parse_expr("0.2 + 0.5*cos(t)"),
                       parse_expr("0.1 + 0.5*sin(t)")], 0.0, TWO_PI,
                 name="circle")
    an = Analysis(spec, [0.7, 0.1], [loop], [[-0.5, 0.0, 0.5], [-0.5, 0.5]])
    v = an.verdict
    assert np.abs(np.abs(an.base_trace.terminal.basis[:, 0])
                  - [0.0, 0.0, 1.0]).max() < 1e-12
    assert v.status == "not_metric" and v.phi is not None
    assert v.notes == []
    assert abs(v.phi.periods[0]) < 1e-12


def _cut_verdict(names):
    """The verdict on the degenerating connection cut to flat at x = 0.5,
    with a grid at x <= 0, where the terminal line has rank one.  The loop
    `across` crosses into the flat region, where the terminal subspace is
    the whole fiber; `inside` stays left of the cut."""
    dom = Domain(names=("x", "y"), lows=(-2.0, -2.0), highs=(2.0, 2.0))
    spec = ConnectionSpec(dom, kind="christoffel",
                          gamma=_degenerating_gamma(cut=0.5))
    xy = {"across": ("0.3 - 0.5*cos(t)", "0.5*sin(t)"),
          "inside": ("-0.5 + 0.3*cos(t)", "0.3*sin(t)")}
    loops = [Curve(dom, [parse_expr(e) for e in xy[name]], 0.0, TWO_PI,
                   name=name) for name in names]
    return Analysis(spec, [-0.2, 0.0], loops,
                    [[-1.0, -0.5, 0.0], [-1.0, 1.0]]).verdict


def test_flag_jump_along_a_loop_fails_the_de_rham_route():
    v = _cut_verdict(["across"])
    assert v.status == "metric" and v.phi is None
    note, = v.notes
    assert note.startswith("de Rham route failed: flag dimension jump at ")
    assert note.endswith(" on loop 'across'")


def test_flag_jump_on_the_second_loop_of_the_batch_names_it():
    # both loops' Phi samples share one batch, whose first point is
    # `inside`'s; the point that jumps is `across`'s
    v = _cut_verdict(["inside", "across"])
    assert v.status == "metric" and v.phi is None
    note, = v.notes
    assert note.startswith("de Rham route failed: flag dimension jump at ")
    assert note.endswith(" on loop 'across'")


def test_a_jump_past_the_shared_batch_names_its_loop():
    # the loop `spike` enters the flat region x > 0.5 only near
    # t = 2 pi * 100.5 / 256, an odd node of level 512 that the batch of
    # level 256 does not hold; the doubling there raises and names it
    dom = Domain(names=("x", "y"), lows=(-2.0, -2.0), highs=(2.0, 2.0))
    spec = ConnectionSpec(dom, kind="christoffel",
                          gamma=_degenerating_gamma(cut=0.5))
    peak = TWO_PI * 100.5 / 256
    loops = [Curve(dom, [parse_expr(x), parse_expr("0.3*sin(t)")], 0.0,
                   TWO_PI, name=name)
             for name, x in (("inside", "-0.5 + 0.3*cos(t)"),
                             ("spike", f"-0.2 + 0.75*exp(-((t - {peak!r})"
                                       "/0.004)^2)"))]
    ts = np.linspace(0.0, TWO_PI, 1024, endpoint=False)
    with pytest.raises(IrregularPoint) as info:
        phi_periods(spec, loops, 1024, target=-1.0)
    assert str(info.value).endswith(" on loop 'spike'")
    assert np.array_equal(info.value.point, loops[1].points(ts[[402]])[0])


def test_global_requires_sym2(circle_line_spec):
    with pytest.raises(NotSym2Bundle):
        Analysis(circle_line_spec, [0.0], [], [[0.5, 2.0]]).verdict


def test_metric_verdict_fixed_vectors_transport_home(plane_spec):
    # the certified fixed vectors are global parallel sections: transporting
    # them around every declared loop returns them
    loop = plane_loop(plane_spec.domain, plane_spec.params)
    v = Analysis(plane_spec, [1.0, 0.0], [loop], PLANE_GRID,
                 rk4_steps=2048, quadrature_steps=256).verdict
    assert v.status == "metric"
    for a in range(v.fixed_fiber_basis.shape[1]):
        w = v.fixed_fiber_basis[:, a]
        back = transport(plane_spec, loop, w, 2048)
        assert np.abs(back - w).max() < 1e-5


def test_rank_one_criteria_agree_on_corpus(sphere_spec, dtheta_spec):
    # the periods of a metric verdict vanish and those of a not_metric one
    # do not: Liouville's formula ties them to the holonomy that decides
    v1 = Analysis(sphere_spec, [np.pi / 3, 1.0],
                  band_loops(sphere_spec.domain),
                  [[0.6, 1.5, 2.4], [0.5, 3.5]],
                  rk4_steps=1024, quadrature_steps=256).verdict
    assert v1.status == "metric" and np.abs(v1.phi.periods).max() < 1e-4

    loop = plane_loop(dtheta_spec.domain)
    v2 = Analysis(dtheta_spec, [1.0, 0.0], [loop],
                  [[0.8, 1.3, 1.8, 2.3], [0.5, 2.7, 4.9]],
                  rk4_steps=1024, quadrature_steps=256).verdict
    assert v2.status == "not_metric" and np.abs(v2.phi.periods).max() > 1.0
