"""Edge-of-contract checks: degenerate dimensions, unbounded charts, and
error paths the main suites do not reach."""

import json

import numpy as np
import pytest

from paracon.bundle import ConnectionSpec, Domain
from paracon.cli import main
from paracon.expr import parse_expr
from paracon.flag import (FlagError, MaxLevelsExceeded, Subspace, derived_flag,
                          local_metricity, regularity_scan)
from paracon.globalmetric import global_metricity
from paracon.manifest import manifest_from_dict
from paracon.transport import DefectTooLarge


def test_one_dimensional_chart_with_scaling_connection():
    # n = 1: the fiber is one-dimensional and h = e^{2cx} dx^2 is parallel
    dom = Domain(names=("x",), lows=(-2.0,), highs=(2.0,))
    spec = ConnectionSpec(dom, kind="christoffel",
                          gamma={(0, 0, 0): parse_expr("0.7")})
    tr = derived_flag(spec, (0.3,))
    assert tr.dims == [1]
    lm, = local_metricity(spec, regularity_scan(spec, [[0.3]]).levels[-1])
    assert lm.status == "feasible"
    v = global_metricity(spec, [0.3], [], [[-1.0, 0.0, 1.0]])
    assert v.status == "metric"
    assert v.rank_wm == 1

    # oracle: transporting h(x0) along a segment lands on e^{2c(x1 - x0)} h(x0)
    from paracon.transport import line_curve, transport
    got = transport(spec, line_curve(dom, (0.0,), (1.0,)),
                    np.array([1.0]), 256).final[0]
    assert got == pytest.approx(np.exp(2 * 0.7), rel=1e-9)


def test_three_dimensional_flat_chart():
    dom = Domain(names=("x", "y", "z"),
                 lows=(-1.0, -1.0, -1.0), highs=(1.0, 1.0, 1.0))
    spec = ConnectionSpec(dom, kind="christoffel", gamma={})
    assert spec.N == 6
    tr = derived_flag(spec, (0.1, -0.2, 0.3))
    assert tr.dims == [6]
    v = global_metricity(spec, [0.0, 0.0, 0.0], [],
                         [[-0.5, 0.5], [-0.5, 0.5], [0.0]])
    assert v.status == "metric"
    assert v.rank_wm == 6


def test_unbounded_chart_uses_unit_scale():
    dom = Domain(names=("x", "y"), lows=(-np.inf, -np.inf),
                 highs=(np.inf, np.inf))
    spec = ConnectionSpec(dom, kind="christoffel", gamma={})
    assert derived_flag(spec, (100.0, -50.0)).dims == [3]


def test_max_levels_exceeded(staircase_spec):
    with pytest.raises(MaxLevelsExceeded):
        derived_flag(staircase_spec, (0.2, -0.3), max_levels=0)


def test_empty_and_invalid_subspaces():
    empty = Subspace(3, np.zeros((3, 0)))
    assert empty.dim == 0
    assert empty.contains(np.zeros(3))
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
    v = gm.global_metricity(plane_spec, [1.0, 0.0], [loop],
                            [[1.0, 2.0], [0.5, 3.5]])
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
    for _ in range(2):
        with pytest.raises(DefectTooLarge, match="synthetic"):
            an.holonomies
    assert an.verdict.status == "inconclusive"
    assert len(calls) == 1


def test_global_verdict_frees_its_analysis_without_gc(flat_spec):
    import gc
    import weakref
    gc.disable()
    try:
        v = global_metricity(flat_spec, [0.0, 0.0], [], [[-1.0, 1.0], [0.0]])
        ref = weakref.ref(v.analysis)
        del v
        assert ref() is None  # no reference cycle holds the stages
    finally:
        gc.enable()


def test_cli_unknown_loop_and_missing_file(tmp_path, capsys):
    doc = {
        "coords": [{"name": "x", "range": [-1.0, 1.0]}],
        "connection": {"kind": "christoffel", "gamma": {}},
        "base_point": [0.0],
        "grid": {"values": [[0.0]]},
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert main(["holonomy", str(path), "--loop", "nope"]) == 1
    assert "no loop" in capsys.readouterr().err
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
    assert main(["holonomy", str(path), "--loop", "circle",
                 "--out", str(tmp_path / "h.json"), "--format", "text"]) == 0
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
