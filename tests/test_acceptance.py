"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here and matches the shipped corpus goldens.
"""

import json

import numpy as np

from paracon.bundle import ConnectionSpec, Domain, curvature_operators
from paracon.cli import main
from paracon.corpus import get_entry
from paracon.expr import EvalContext, diff, parse_expr
from paracon.flag import (IrregularPoint, derived_flag, local_metricity,
                          principal_angles, regularity_scan)
from paracon.globalmetric import (PhiSampler, fixed_subspace, global_metricity,
                                  phi_periods)
from paracon.pdcone import pd_feasible
from paracon.transport import (Curve, holonomy_matrix, line_curve,
                               parallel_extend, transport)

TWO_PI = 2.0 * np.pi


def _ok(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_sphere_curvature_goldens():
    man = get_entry("sphere").manifest()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(12):
        theta = rng.uniform(0.2, np.pi - 0.2)
        phi = rng.uniform(0.0, TWO_PI)
        R = curvature_operators(man.spec, (theta, phi))[0]
        s2 = np.sin(theta) ** 2
        golden = np.array([[0.0, 0.0, 2.0],
                           [0.0, 0.0, -2.0 * s2],
                           [-s2, 1.0, 0.0]])
        worst = max(worst, np.abs(R - golden).max())
        assert np.abs(R - golden).max() < 1e-9
    _ok(1, f"12 random curvature operators, worst abs err {worst:.2e} < 1e-9")


def test_criterion_2_sphere_flag_periods_verdict():
    man = get_entry("sphere").manifest()
    mesh = np.meshgrid(*man.grid_axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    assert len(pts) == 6
    for p in pts:
        tr = derived_flag(man.spec, p)
        assert tr.dims == [1, 1]
        one = regularity_scan(man.spec, [[v] for v in p])  # a batch of one
        lm, = local_metricity(man.spec, one.levels[-1])
        assert lm.status == "feasible"
    v = global_metricity(man.spec, man.base_point, man.loops, man.grid_axes,
                         rk4_steps=man.steps["rk4"],
                         quadrature_steps=man.steps["quadrature"])
    assert v.phi is not None and len(v.phi.periods) == 2
    assert v.phi.max_abs() < 1e-6
    assert v.status == "metric"
    assert v.rank_wm == 1
    _ok(2, f"dims [1,1] at 6 points, local metric everywhere, "
           f"max |period| {v.phi.max_abs():.2e} < 1e-6, metric with rank 1")


def test_criterion_3_scalar_holonomy_decay():
    man = get_entry("s1-line-bundle").manifest()
    loop = man.loops[0]
    out = transport(man.spec, loop, np.array([1.0]), steps=4096)
    want = 1.8674427317079893e-3
    rel = abs(out.final[0] - want) / want
    assert rel < 1e-6
    tr = derived_flag(man.spec, man.base_point)
    h = holonomy_matrix(man.spec, man.base_point, tr.terminal, loop, 4096)
    fixed = fixed_subspace([h], dim=tr.terminal.dim)
    assert fixed.dim == 0
    assert fixed.dim < tr.terminal.dim  # no global parallel frame
    _ok(3, f"transport e^(-2 pi) rel err {rel:.2e} < 1e-6, fixed dim 0, "
           f"no parallel frame")


def test_criterion_4_punctured_plane_pipeline_and_control():
    entry = get_entry("punctured-plane")
    man = entry.manifest()
    scan = regularity_scan(man.spec, man.grid_axes)
    assert scan.regular_on_grid and scan.dims == [3] * 40

    tr = derived_flag(man.spec, man.base_point)
    loop = man.loops[0]
    h = holonomy_matrix(man.spec, man.base_point, tr.terminal, loop,
                        man.steps["rk4"])
    k = 0.3
    C = np.array([[1.0, 0.0, 1.0 / k],
                  [k * k, 0.0, -k],
                  [0.0, 1.0, 0.0]])
    S = tr.terminal.basis.T @ C
    Hh = np.linalg.solve(S, h.matrix @ S)
    a = 4.0 * k * np.pi
    golden = np.array([[1.0, 0.0, 0.0],
                       [0.0, np.cos(a), -np.sin(a)],
                       [0.0, np.sin(a), np.cos(a)]])
    herr = np.abs(Hh - golden).max()
    assert herr < 1e-5

    fixed = fixed_subspace([h], dim=3)
    assert fixed.dim == 1
    fiber = tr.terminal.basis @ fixed.basis
    h1 = np.array([1.0, k * k, 0.0])
    h1 /= np.linalg.norm(h1)
    fang = principal_angles(fiber, h1).max()
    assert fang < 1e-5

    assert pd_feasible(man.spec.sym.to_matrix(fiber.T)).status == "feasible"

    v = global_metricity(man.spec, man.base_point, man.loops, man.grid_axes,
                         rk4_steps=man.steps["rk4"],
                         quadrature_steps=man.steps["quadrature"])
    assert v.status == "metric" and v.rank_wm == 1

    man5 = entry.manifest({"k": 0.5})
    tr5 = derived_flag(man5.spec, man5.base_point)
    h5 = holonomy_matrix(man5.spec, man5.base_point, tr5.terminal,
                         man5.loops[0], man5.steps["rk4"])
    fixed5 = fixed_subspace([h5], dim=3)
    assert fixed5.dim == 3
    _ok(4, f"regular 5x8 grid of dim 3, holonomy err {herr:.2e} < 1e-5, "
           f"fixed = span(h1) at angle {fang:.2e}, metric rank 1; "
           f"k=0.5 control fixed dim 3")


def test_criterion_5_punctured_plane_parallel_sections():
    man = get_entry("punctured-plane").manifest()
    k = 0.3
    p = man.base_point

    def h1(q):
        return np.array([1.0, k * k * q[0] ** 2, 0.0])

    def h2(q):
        r, th = q
        return np.array([np.sin(2 * k * th) / k,
                         -k * r * r * np.sin(2 * k * th),
                         r * np.cos(2 * k * th)])

    def h3(q):
        r, th = q
        return np.array([np.cos(2 * k * th) / k,
                         -k * r * r * np.cos(2 * k * th),
                         -r * np.sin(2 * k * th)])

    worst, nodes = 0.0, 0
    for formula in (h1, h2, h3):
        sec = parallel_extend(man.spec, p, formula(p), radius=0.55,
                              grid_res=7, steps=512)
        nodes = len(sec.nodes)
        for q, v in zip(sec.nodes, sec.values):
            want = formula(q)
            rel = np.abs(v - want).max() / max(1.0, np.abs(want).max())
            worst = max(worst, rel)
            assert rel < 1e-4
    assert nodes >= 20
    _ok(5, f"h1, h2, h3 reproduced at {nodes} nodes, worst rel err "
           f"{worst:.2e} < 1e-4")


def test_criterion_6_pathology_scan_and_verdict(tmp_path):
    entry = get_entry("smooth-pathology")
    man = entry.manifest()
    xs = [-1.0, -0.5, 0.25, 0.5, 0.75, 1.5, 2.0]
    scan = regularity_scan(man.spec, [xs, [0.0]])
    assert scan.dims == [1, 1, 3, 3, 3, 1, 1]
    spans = sorted((min(a[0], b[0]), max(a[0], b[0]))
                   for a, b, _, _ in scan.jumps)
    assert spans[0][0] < 0.0 < spans[0][1]
    assert spans[1][0] < 1.0 < spans[1][1]
    for x in xs:
        one = regularity_scan(man.spec, [[x], [0.0]])  # a batch of one
        lm, = local_metricity(man.spec, one.levels[-1])
        assert lm.status == "feasible"

    doc = dict(entry.manifest_doc)
    doc.pop("expected", None)
    path = tmp_path / "pathology.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code = main(["global", str(path), "--out", str(out)])
    assert code == 2
    report = json.loads(out.read_text())
    assert report["global_verdict"]["status"] == "not_regular"
    _ok(6, "dims {1,1,3,3,3,1,1}, jumps straddle x0 and x1, local metric at "
           "all 7 points, global not_regular with exit code 2")


# --- criterion 7: property suites, >= 100 randomized cases each -------------

def test_criterion_7a_ad_versus_finite_differences():
    from test_expr import _random_expr, _usable
    rng = np.random.default_rng(710)
    h = 1e-6
    done, worst = 0, 0.0
    while done < 100:
        e = _random_expr(rng, ["x", "y"], 4)
        x, y = rng.uniform(-1.5, 1.5, 2)
        mk = lambda xx: EvalContext({"x": xx, "y": y}, {})
        if _usable(e, mk(x)) is None:
            continue
        d = diff(e, "x")
        vp, vm, g = _usable(e, mk(x + h)), _usable(e, mk(x - h)), \
            _usable(d, mk(x))
        if vp is None or vm is None or g is None:
            continue
        fd = (vp - vm) / (2 * h)
        if abs(fd) > 1e3:
            continue
        rel = abs(g - fd) / (1 + abs(fd))
        worst = max(worst, rel)
        assert rel < 1e-6
        done += 1
    _ok("7a", f"100 AD-vs-FD cases, worst rel err {worst:.2e} < 1e-6")


def test_criterion_7b_flag_monotonicity():
    rng = np.random.default_rng(720)
    dom = Domain(names=("x", "y"), lows=(-2.0, -2.0), highs=(2.0, 2.0))
    texts = ["0", "1", "x", "y", "sin(x)", "x*y", "exp(x/2)", "cos(y)", "x^2"]
    done = 0
    while done < 100:
        N = int(rng.integers(2, 4))
        omega = [[[parse_expr(str(rng.choice(texts))) for _ in range(2)]
                  for _ in range(N)] for _ in range(N)]
        spec = ConnectionSpec(dom, kind="matrix", fiber_dim=N, omega=omega)
        try:
            dims = derived_flag(spec, rng.uniform(-1, 1, 2)).dims
        except IrregularPoint:
            continue
        assert all(a >= b for a, b in zip(dims, dims[1:]))
        done += 1
    _ok("7b", "100 random connections: flag dimensions never increase")


def test_criterion_7c_transport_linearity_and_loop_inverse():
    rng = np.random.default_rng(730)
    dom = Domain(names=("x", "y"), lows=(-3.0, -3.0), highs=(3.0, 3.0))
    texts = ["0", "1", "x", "y", "sin(x)", "cos(y)", "x*y/2"]
    worst_lin, worst_inv = 0.0, 0.0
    for case in range(100):
        N = int(rng.integers(2, 4))
        omega = [[[parse_expr(str(rng.choice(texts))) for _ in range(2)]
                  for _ in range(N)] for _ in range(N)]
        spec = ConnectionSpec(dom, kind="matrix", fiber_dim=N, omega=omega)
        cx, cy, r = rng.uniform(-1, 1, 2).tolist() + [rng.uniform(0.3, 1.0)]
        loop = Curve(dom, [parse_expr(f"{cx} + {r}*cos(t)"),
                           parse_expr(f"{cy} + {r}*sin(t)")], 0.0, TWO_PI,
                     name=f"loop{case}")
        u, v = rng.standard_normal((2, N))
        a, b = rng.standard_normal(2)
        left = transport(spec, loop, a * u + b * v, 256).final
        right = (a * transport(spec, loop, u, 256).final
                 + b * transport(spec, loop, v, 256).final)
        lin = np.abs(left - right).max()
        worst_lin = max(worst_lin, lin)
        assert lin < 1e-10

        fwd = transport(spec, loop, np.eye(N), 1024).final
        back = transport(spec, loop.reversed(), fwd, 1024).final
        inv = np.abs(back - np.eye(N)).max()
        worst_inv = max(worst_inv, inv)
        assert inv < 1e-7
    _ok("7c", f"100 cases: linearity defect {worst_lin:.2e} < 1e-10, "
              f"loop-inverse defect {worst_inv:.2e} < 1e-7")


def test_criterion_7d_terminal_subspace_transport_invariance():
    specs = []
    for eid in ("sphere", "punctured-plane", "dtheta-obstruction"):
        man = get_entry(eid).manifest()
        lo = man.domain.lows[0] + 0.35
        hi = min(man.domain.highs[0] - 0.35, 2.6)
        specs.append((man.spec, lo, hi))
    rng = np.random.default_rng(740)
    worst = 0.0
    for case in range(100):
        spec, lo, hi = specs[case % len(specs)]
        p = np.array([rng.uniform(lo, hi), rng.uniform(0.3, 6.0)])
        q = p + rng.uniform(-0.25, 0.25, 2)
        wp = derived_flag(spec, p).terminal
        wq = derived_flag(spec, q).terminal
        moved = transport(spec, line_curve(spec.domain, p, q), wp.basis,
                          256).final
        moved, _ = np.linalg.qr(moved)
        ang = principal_angles(moved, wq.basis).max()
        worst = max(worst, ang)
        assert ang < 1e-5
    _ok("7d", f"100 transports between regular corpus points, worst "
              f"principal angle {worst:.2e} < 1e-5")


def test_criterion_7e_pd_feasibility_against_circle_oracle():
    from test_pdcone import circle_grid_oracle
    from paracon.bundle import SymIndex
    rng = np.random.default_rng(750)
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
    _ok("7e", "100 spans: pd_feasible is definite and agrees with the "
              "10^4-angle circle oracle")


def test_criterion_7f_phi_period_gauge_invariance():
    man = get_entry("dtheta-obstruction").manifest()
    sampler = PhiSampler(man.spec, man.base_point)
    loop = man.loops[0]
    base = phi_periods(sampler, [loop], 512).periods[0]
    rng = np.random.default_rng(760)
    worst = 0.0
    for _ in range(100):
        a, b, c = rng.uniform(-0.8, 0.8, 3)
        gauge = parse_expr(f"exp({a}*sin(theta) + {b}*cos(theta) + {c}*r)")
        shifted = phi_periods(sampler, [loop], 512, gauge=gauge).periods[0]
        drift = abs(shifted - base)
        worst = max(worst, drift)
        assert drift < 1e-6
    _ok("7f", f"100 positive rescalings of the tracked section, worst period "
              f"drift {worst:.2e} < 1e-6")


def test_criterion_8_determinism_byte_identical_reports(tmp_path):
    ids = ("sphere", "s1-line-bundle", "punctured-plane", "smooth-pathology",
           "flat-trivial", "dtheta-obstruction")
    for eid in ids:
        entry = get_entry(eid)
        doc = dict(entry.manifest_doc)
        doc.pop("expected", None)
        path = tmp_path / f"{eid}.json"
        path.write_text(json.dumps(doc))
        out1 = tmp_path / f"{eid}-1.json"
        out2 = tmp_path / f"{eid}-2.json"
        code1 = main(["analyze", str(path), "--out", str(out1)])
        code2 = main(["analyze", str(path), "--out", str(out2)])
        assert code1 == code2 == entry.expected["exit_code"]["value"], eid
        assert out1.read_bytes() == out2.read_bytes(), eid
    report = json.loads((tmp_path / "sphere-1.json").read_text())
    assert report["global_verdict"]["status"] == "metric"
    assert report["global_verdict"]["rank_wm"] == 1
    _ok(8, "two analyze runs per corpus entry produce byte-identical reports "
           "with the expected exit codes")
