"""Cross-validation of the shipped corpus constructions against independent
closed-form oracles, plus contracts pinned only by convention."""

import numpy as np
import pytest

from paracon.bundle import omega_stack
from paracon.corpus import get_entry
from paracon.expr import parse_expr
from paracon.flag import Subspace, derived_flag
from paracon.globalmetric import fixed_subspace
from paracon.transport import Curve, HolonomyResult, transport
from reference import EvalContext, evaluate, line_curve

TWO_PI = 2.0 * np.pi


def _gamma_value(spec, key, point):
    e = spec.gamma.get(key)
    if e is None:
        return 0.0
    binds = dict(zip(spec.domain.names, np.asarray(point, dtype=float)))
    return evaluate(e, EvalContext(binds, spec.params))


def test_pathology_christoffels_match_levi_civita_oracle():
    # the left/right bands are Levi-Civita connections of dx^2 + F(x) dy^2
    # with F the published bump profiles; oracle: G^x_yy = -F'/2 and
    # G^y_xy = F'/(2F), with F' differenced from the profile itself
    man = get_entry("smooth-pathology").manifest()
    spec = man.spec
    a, b = spec.params["a"], spec.params["b"]

    def profile(x):
        if x < 0.0:
            return a + np.exp(-1.0 / x ** 2)
        if x <= 1.0:
            return a  # both bump terms vanish on the middle band
        return b + np.exp(-1.0 / (x - 1.0) ** 2)

    h = 1e-6
    for x in (-1.0, -0.6, -0.35, 1.4, 1.8, 2.3):
        F = profile(x)
        dF = (profile(x + h) - profile(x - h)) / (2 * h)
        got_xyy = _gamma_value(spec, (0, 1, 1), (x, 0.0))
        got_yxy = _gamma_value(spec, (1, 0, 1), (x, 0.0))
        assert got_xyy == pytest.approx(-dF / 2.0, rel=1e-4, abs=1e-12)
        assert got_yxy == pytest.approx(dF / (2.0 * F), rel=1e-4, abs=1e-12)
    for x in (0.25, 0.5, 0.75):  # middle band is exactly flat
        assert _gamma_value(spec, (0, 1, 1), (x, 0.0)) == 0.0
        assert _gamma_value(spec, (1, 0, 1), (x, 0.0)) == 0.0


def test_dtheta_entry_satisfies_its_defining_identity():
    # the construction promises nabla_r g = 0 and nabla_theta g = g for
    # g = dr^2 + e^{2r} dtheta^2; check via the induced matrices directly
    man = get_entry("dtheta-obstruction").manifest()
    spec = man.spec
    for r in (0.8, 1.4, 2.2):
        g = np.array([1.0, np.exp(2.0 * r), 0.0])
        dg_dr = np.array([0.0, 2.0 * np.exp(2.0 * r), 0.0])
        om = omega_stack(spec, [(r, 1.0)])[0]
        nabla_r = dg_dr + om[0] @ g
        nabla_theta = om[1] @ g  # g has no theta dependence
        assert np.abs(nabla_r).max() < 1e-12
        assert np.abs(nabla_theta - g).max() < 1e-12


def test_transport_composes_over_concatenated_curves(sphere_spec):
    # H(g2 . g1) = H(g2) H(g1): transport along a path equals transport along
    # its two halves in order
    p, mid, q = np.array([0.7, 0.4]), np.array([1.3, 2.1]), np.array([2.0, 3.3])
    whole_first = transport(sphere_spec, line_curve(sphere_spec.domain, p, mid),
                            np.eye(3), 512)
    whole = transport(sphere_spec, line_curve(sphere_spec.domain, mid, q),
                      whole_first, 512)
    # same path as one curve, each leg smoothstep-reparametrized so the
    # velocity vanishes at the joint (transport is parametrization invariant)
    dom = sphere_spec.domain
    s1 = "(3*t^2 - 2*t^3)"
    s2 = "(3*(t - 1)^2 - 2*(t - 1)^3)"
    two_leg = Curve(dom, [
        parse_expr(f"if(t < 1, {p[0]} + {s1}*{mid[0] - p[0]},"
                   f" {mid[0]} + {s2}*{q[0] - mid[0]})"),
        parse_expr(f"if(t < 1, {p[1]} + {s1}*{mid[1] - p[1]},"
                   f" {mid[1]} + {s2}*{q[1] - mid[1]})"),
    ], 0.0, 2.0)
    joined = transport(sphere_spec, two_leg, np.eye(3), 1024)
    assert np.abs(joined - whole).max() < 1e-7


def test_fixed_subspace_intersects_across_multiple_loops():
    # two commuting holonomies with different fixed spaces: the tool must
    # report the intersection, not either one alone
    h1 = HolonomyResult("a", np.diag([np.exp(-TWO_PI), 1.0, 1.0]), 0.0)
    h2 = HolonomyResult("b", np.diag([1.0, np.exp(-TWO_PI), 1.0]), 0.0)
    assert fixed_subspace([h1], dim=3).dim == 2
    assert fixed_subspace([h2], dim=3).dim == 2
    both = fixed_subspace([h1, h2], dim=3)
    assert both.dim == 1
    assert abs(abs(both.basis[2, 0]) - 1.0) < 1e-12


def test_torus_like_chart_with_two_generators():
    # both coordinates periodic; a diagonal constant-form connection has
    # commuting holonomies around the two generators
    from paracon.bundle import ConnectionSpec, Domain
    dom = Domain(names=("u", "v"), lows=(0.0, 0.0), highs=(TWO_PI, TWO_PI),
                 periods=(TWO_PI, TWO_PI))
    z, one = parse_expr("0"), parse_expr("1")
    omega = [[[one, z], [z, z]], [[z, z], [z, one]]]
    spec = ConnectionSpec(dom, kind="matrix", fiber_dim=2, omega=omega)
    term = derived_flag(spec, (0.0, 0.0)).terminal
    assert term.dim == 2
    loops = [Curve(dom, [parse_expr("t"), parse_expr("0")], 0.0, TWO_PI,
                   name="u-loop"),
             Curve(dom, [parse_expr("0"), parse_expr("t")], 0.0, TWO_PI,
                   name="v-loop")]
    from paracon.transport import holonomy_matrix
    hs = [holonomy_matrix(spec, term, l, 1024) for l in loops]
    # u-loop decays the first component, v-loop the second
    fixed = fixed_subspace(hs, dim=2)
    assert fixed.dim == 0
    assert fixed_subspace([hs[0]], dim=2).dim == 1
