"""Edge-of-contract checks: degenerate dimensions, unbounded charts, and
error paths the main suites do not reach."""

import ast
import importlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from paracon.bundle import ConnectionSpec, Domain
from paracon.cli import main
from paracon.corpus import get_entry
from paracon.expr import parse_expr
from paracon.flag import (FlagError, Subspace, derived_flag, local_metricity,
                          regularity_scan)
from paracon.globalmetric import Analysis
from paracon.manifest import manifest_from_dict
from paracon.transport import DefectTooLarge

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "paracon"


def test_one_dimensional_chart_with_scaling_connection():
    # n = 1: the fiber is one-dimensional and h = e^{2cx} dx^2 is parallel
    dom = Domain(names=("x",), lows=(-2.0,), highs=(2.0,))
    spec = ConnectionSpec(dom, kind="christoffel",
                          gamma={(0, 0, 0): parse_expr("0.7")})
    tr = derived_flag(spec, (0.3,))
    assert tr.dims == [1]
    lm, = local_metricity(spec, regularity_scan(spec, [[0.3]]).levels[-1])
    assert lm.status == "feasible"
    v = Analysis(spec, [0.3], [], [[-1.0, 0.0, 1.0]]).verdict
    assert v.status == "metric"
    assert v.rank_wm == 1

    # oracle: transporting h(x0) along a segment lands on e^{2c(x1 - x0)} h(x0)
    from paracon.transport import transport
    from reference import line_curve
    got = transport(spec, line_curve(dom, (0.0,), (1.0,)),
                    np.array([1.0]), 256)[0]
    assert got == pytest.approx(np.exp(2 * 0.7), rel=1e-9)


def test_three_dimensional_flat_chart():
    dom = Domain(names=("x", "y", "z"),
                 lows=(-1.0, -1.0, -1.0), highs=(1.0, 1.0, 1.0))
    spec = ConnectionSpec(dom, kind="christoffel", gamma={})
    assert spec.N == 6
    tr = derived_flag(spec, (0.1, -0.2, 0.3))
    assert tr.dims == [6]
    v = Analysis(spec, [0.0, 0.0, 0.0], [],
                 [[-0.5, 0.5], [-0.5, 0.5], [0.0]]).verdict
    assert v.status == "metric"
    assert v.rank_wm == 6


def test_unbounded_chart_uses_unit_scale():
    dom = Domain(names=("x", "y"), lows=(-np.inf, -np.inf),
                 highs=(np.inf, np.inf))
    spec = ConnectionSpec(dom, kind="christoffel", gamma={})
    assert derived_flag(spec, (100.0, -50.0)).dims == [3]


def test_empty_and_invalid_subspaces():
    empty = Subspace(3, np.zeros((3, 0)))
    assert empty.dim == 0
    degenerate = Subspace(0, np.zeros((0, 0)))
    assert degenerate.dim == 0
    with pytest.raises(FlagError, match="orthonormal"):
        Subspace(2, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_global_downgrades_on_defect(monkeypatch, plane_spec):
    import paracon.globalmetric as gm

    def broken(*args, **kwargs):
        raise DefectTooLarge("synthetic defect")

    monkeypatch.setattr(gm, "holonomy_matrix", broken)
    from paracon.transport import Curve
    loop = Curve(plane_spec.domain, [parse_expr("1"), parse_expr("t")],
                 0.0, 2 * np.pi, name="c", params=plane_spec.params)
    v = gm.Analysis(plane_spec, [1.0, 0.0], [loop],
                    [[1.0, 2.0], [0.5, 3.5]]).verdict
    assert v.status == "inconclusive"
    assert any("defect" in n for n in v.notes)


def test_failed_stage_is_remembered_not_rerun(monkeypatch, plane_spec):
    import paracon.globalmetric as gm
    calls = []

    def broken(*args, **kwargs):
        calls.append(args)
        raise DefectTooLarge("synthetic defect")

    monkeypatch.setattr(gm, "holonomy_matrix", broken)
    from paracon.transport import Curve
    loop = Curve(plane_spec.domain, [parse_expr("1"), parse_expr("t")],
                 0.0, 2 * np.pi, name="c", params=plane_spec.params)
    an = gm.Analysis(plane_spec, [1.0, 0.0], [loop], [[1.0, 2.0], [0.5]])
    assert len(calls) == 1
    assert an.holonomies is None and an.fixed is None
    assert an.failure == "holonomy stage failed: synthetic defect"
    assert an.verdict.status == "inconclusive"
    assert an.verdict.notes == [an.failure]


def _analyze_doc(tmp_path, doc):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main(["analyze", str(path), "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_contracting_sym2_holonomy_is_a_verdict(tmp_path):
    # Gamma^theta_theta_theta = c on the circle: H = exp(4 pi c), 4.2e-17 at
    # c = -3, numerically singular; H - I has full rank, so nothing is fixed
    c, two_pi = -3.0, 2 * np.pi
    report = _analyze_doc(tmp_path, {
        "coords": [{"name": "theta", "range": [0.0, two_pi],
                    "period": two_pi}],
        "connection": {"kind": "christoffel",
                       "gamma": {"theta": {"theta,theta": str(c)}}},
        "base_point": [0.0],
        "loops": [{"name": "circle", "exprs": ["t"],
                   "t_range": [0.0, two_pi]}],
        "grid": {"values": [[0.5, 2.0, 3.5, 5.0]]},
    })
    gv = report["global_verdict"]
    assert (gv["status"], gv["fixed_dim"]) == ("not_metric", 0)
    period, = gv["phi_periods"]["periods"]
    tol, = gv["phi_periods"]["period_tols"]
    assert abs(period - (-4 * np.pi * c)) < tol


def test_contracting_flat_bundle_holonomy_is_a_verdict(tmp_path):
    # s1-line-bundle with Omega = 6: H = exp(-12 pi), numerically singular
    doc = json.loads(json.dumps(get_entry("s1-line-bundle").manifest_doc))
    doc.pop("expected")
    doc["connection"]["omega"] = [[["6"]]]
    report = _analyze_doc(tmp_path, doc)
    assert report["flat_bundle"]["fixed_dim"] == 0


def test_cli_unknown_loop_and_missing_file(tmp_path, capsys):
    doc = {
        "coords": [{"name": "x", "range": [-1.0, 1.0]}],
        "connection": {"kind": "christoffel", "gamma": {}},
        "base_point": [0.0],
        "grid": {"values": [[0.0]]},
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    # loops are named only in the manifest; no command takes a loop name
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(path), "--loop", "nope"])
    assert exc.value.code == 2
    assert "--loop" in capsys.readouterr().err
    assert main(["analyze", str(tmp_path / "absent.json")]) == 1


def test_cli_invalid_json_manifest(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ nope")
    assert main(["analyze", str(path)]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_cli_text_format_for_subcommands(tmp_path, capsys):
    from paracon.corpus import get_entry
    doc = json.loads(json.dumps(get_entry("s1-line-bundle").manifest_doc))
    doc.pop("expected", None)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path), "--out", str(tmp_path / "a.json"),
                 "--format", "text"]) == 0
    assert "holonomy[circle]" in capsys.readouterr().out
    assert main(["flag", str(path), "--point", "1.0",
                 "--out", str(tmp_path / "f.json"), "--format", "text"]) == 0
    assert "terminal dim 1" in capsys.readouterr().out


def test_manifest_matrix_kind_shape_errors():
    doc = {
        "coords": [{"name": "x", "range": [-1.0, 1.0]}],
        "connection": {"kind": "matrix", "fiber_dim": 2,
                       "omega": [[["0"]], [["0"]]]},
        "base_point": [0.0],
        "grid": {"values": [[0.0]]},
    }
    from paracon.manifest import ManifestError
    with pytest.raises(ManifestError, match="/connection/omega"):
        manifest_from_dict(doc)


@pytest.mark.parametrize("module", ["bundle", "cli", "corpus", "expr", "flag",
                                    "globalmetric", "manifest", "pdcone",
                                    "transport"])
def test_every_public_name_resolves(module):
    # a stale __all__ entry breaks only star-imports, so nothing else finds it
    mod = importlib.import_module(f"paracon.{module}")
    assert mod.__all__
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"paracon.{module}.__all__ names {missing}"
    # what one module of the package imports from another is public there
    private = sorted(_sibling_imports(f"paracon.{module}") - set(mod.__all__))
    assert not private, f"paracon.{module} is imported for {private}"


def _sibling_imports(module):
    """The names that the modules of the package import from ``module``."""
    names = set()
    for path in SRC.rglob("*.py"):
        package = ["paracon", *path.relative_to(SRC).parent.parts]
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                base = package[:len(package) - node.level + 1]
                if ".".join(base + [node.module]) == module:
                    names.update(alias.name for alias in node.names)
    return names


def test_no_module_imports_a_name_it_never_uses():
    # an import outlives the code that used it; a name in __all__ is
    # exported, which is a use
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))
            elif (isinstance(node, (ast.Import, ast.ImportFrom))
                  and getattr(node, "module", None) != "__future__"):
                imported.update((a.asname or a.name.split(".")[0], node.lineno)
                                for a in node.names)
        unused += [f"{path.relative_to(ROOT)}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert not unused, f"imported and never used: {unused}"


# names deleted from the package; \b keeps a longer name from matching
_REMOVED = re.compile(r"\b(SampledSection|_split|_signed_unit_rows|to_text|"
                      r"_fmt_const|_FIRST_STOP|_stage)\b")


def test_no_source_or_test_names_a_removed_name():
    # a docstring, comment or test that names deleted code misleads readers
    here = Path(__file__).resolve()
    stale = [f"{path.relative_to(ROOT)}:{i}"
             for path in sorted([*SRC.rglob("*.py"),
                                 *(ROOT / "tests").rglob("*.py")])
             if path != here
             for i, line in enumerate(path.read_text(encoding="utf-8")
                                      .splitlines(), 1)
             if _REMOVED.search(line)]
    assert not stale, f"removed names still referenced at {stale}"
