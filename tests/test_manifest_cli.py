import importlib
import json
import sys

import numpy as np
import pytest

from paracon.cli import main
from paracon.corpus import ENTRY_IDS, get_entry, load_corpus
from paracon.manifest import ManifestError, manifest_from_dict


def minimal_doc(**over):
    doc = {
        "id": "mini",
        "coords": [{"name": "x", "range": [-1.0, 1.0]},
                   {"name": "y", "range": [-1.0, 1.0]}],
        "connection": {"kind": "christoffel", "gamma": {}},
        "base_point": [0.0, 0.0],
        "grid": {"values": [[-0.5, 0.5], [0.0]]},
    }
    doc.update(over)
    return doc


def test_manifest_round_trip_minimal():
    man = manifest_from_dict(minimal_doc())
    assert man.domain.dim == 2
    assert man.spec.kind == "christoffel"
    assert man.grid_axes == [[-0.5, 0.5], [0.0]]
    assert man.tolerances["rank_tol"] == 1e-7
    assert man.steps == {"rk4": 4096, "quadrature": 4096}


def test_manifest_grid_counts():
    man = manifest_from_dict(minimal_doc(grid={"counts": [3, 2]}))
    assert len(man.grid_axes[0]) == 3
    assert all(-1 < v < 1 for axis in man.grid_axes for v in axis)


def test_manifest_errors_carry_json_pointers():
    with pytest.raises(ManifestError, match="/base_point"):
        manifest_from_dict(minimal_doc(base_point=[5.0, 0.0]))
    with pytest.raises(ManifestError, match="/connection/gamma/x/y,z"):
        manifest_from_dict(minimal_doc(
            connection={"kind": "christoffel", "gamma": {"x": {"y,z": "1"}}}))
    with pytest.raises(ManifestError, match="/coords/0/range"):
        manifest_from_dict(minimal_doc(
            coords=[{"name": "x", "range": [1.0, 1.0]},
                    {"name": "y", "range": [-1.0, 1.0]}]))
    with pytest.raises(ManifestError, match="/loops/0"):
        manifest_from_dict(minimal_doc(
            loops=[{"name": "open", "exprs": ["t", "0"], "t_range": [0, 1]}]))
    with pytest.raises(ManifestError, match="bad expression"):
        manifest_from_dict(minimal_doc(
            connection={"kind": "christoffel", "gamma": {"x": {"x,x": "1 +"}}}))
    with pytest.raises(ManifestError, match="/tolerances"):
        manifest_from_dict(minimal_doc(tolerances={"bogus": 1.0}))


def test_manifest_digest_is_stable():
    a = manifest_from_dict(minimal_doc())
    b = manifest_from_dict(minimal_doc())
    assert a.digest() == b.digest()
    c = manifest_from_dict(minimal_doc(seed=3))
    assert a.digest() != c.digest()


def test_corpus_loads_six_unique_entries():
    entries = load_corpus()
    assert len(entries) == 6
    assert len({e.id for e in entries}) == 6
    assert set(e.id for e in entries) == set(ENTRY_IDS)


def test_corpus_expected_values_carry_provenance():
    for entry in load_corpus():
        assert entry.expected, f"{entry.id} has no expected block"
        for name, leaf in entry.expected.items():
            items = leaf if isinstance(leaf, list) else [leaf]
            for item in items:
                assert "provenance" in item, f"{entry.id}.{name}"
                tag = item["provenance"]
                assert tag.startswith(("PAPER", "TRIVIAL", "DERIVED")), \
                    f"{entry.id}.{name}: {tag}"


def test_corpus_golden_holonomy_matches_rotation_formula():
    entry = get_entry("punctured-plane")
    k = entry.manifest_doc["params"]["k"]
    a = 4.0 * k * np.pi
    want = np.array([[1, 0, 0],
                     [0, np.cos(a), -np.sin(a)],
                     [0, np.sin(a), np.cos(a)]])
    stored = np.array(entry.expected["holonomy"][0]["matrix"])
    assert np.abs(stored - want).max() < 1e-12


def test_corpus_pathology_dims_pattern():
    entry = get_entry("smooth-pathology")
    assert entry.expected["terminal_dims"]["value"] == [1, 1, 3, 3, 3, 1, 1]


def _write_manifest(tmp_path, entry_id):
    doc = dict(get_entry(entry_id).manifest_doc)
    doc.pop("expected", None)
    path = tmp_path / f"{entry_id}.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_analyze_writes_deterministic_report(tmp_path, capsys):
    man = _write_manifest(tmp_path, "flat-trivial")
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["analyze", str(man), "--out", str(out1)]) == 0
    assert main(["analyze", str(man), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["tool_version"]
    assert report["global_verdict"]["status"] == "metric"
    assert report["global_verdict"]["rank_wm"] == 3
    assert report["report_digest"]
    assert any("loops generating" in c for c in report["caveats"])


def test_cli_report_keys_are_lower_snake_case(tmp_path):
    man = _write_manifest(tmp_path, "flat-trivial")
    out = tmp_path / "r.json"
    main(["analyze", str(man), "--out", str(out)])

    def walk(obj):
        if isinstance(obj, dict):
            for key, value in obj.items():
                assert key == key.lower()
                assert " " not in key and "-" not in key
                walk(value)
        elif isinstance(obj, list):
            for v in obj:
                walk(v)

    walk(json.loads(out.read_text()))


def test_cli_flag_command_on_pathology(tmp_path):
    man = _write_manifest(tmp_path, "smooth-pathology")
    out = tmp_path / "flag.json"
    code = main(["flag", str(man), "--point", "0.5,0", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["flag_trace"]["terminal_dim"] == 3


def test_cli_global_pathology_exits_two(tmp_path):
    man = _write_manifest(tmp_path, "smooth-pathology")
    out = tmp_path / "g.json"
    code = main(["global", str(man), "--out", str(out)])
    assert code == 2
    report = json.loads(out.read_text())
    assert report["global_verdict"]["status"] == "not_regular"


def test_cli_holonomy_command(tmp_path):
    man = _write_manifest(tmp_path, "s1-line-bundle")
    out = tmp_path / "h.json"
    code = main(["holonomy", str(man), "--loop", "circle", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    got = report["holonomy"]["matrix"][0][0]
    assert abs(got - np.exp(-2 * np.pi)) < 1e-9


def test_cli_analyze_matrix_kind_reports_flat_bundle(tmp_path):
    man = _write_manifest(tmp_path, "s1-line-bundle")
    out = tmp_path / "m.json"
    code = main(["analyze", str(man), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["global_verdict"] is None
    assert report["flat_bundle"]["fixed_dim"] == 0
    assert report["flat_bundle"]["parallel_frame"] is False


def test_cli_param_override(tmp_path):
    man = _write_manifest(tmp_path, "punctured-plane")
    out = tmp_path / "k5.json"
    code = main(["analyze", str(man), "--out", str(out), "--param", "k=0.5",
                 "--steps", "1024"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["global_verdict"]["fixed_dim"] == 3


def test_cli_text_format(tmp_path, capsys):
    man = _write_manifest(tmp_path, "flat-trivial")
    out = tmp_path / "t.json"
    main(["analyze", str(man), "--out", str(out), "--format", "text"])
    text = capsys.readouterr().out
    assert "global status: metric" in text
    assert "flag dims [3] at 9 of 9 points" in text
    assert "caveat" in text


def test_cli_bad_manifest_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(minimal_doc(base_point=[9.0, 0.0])))
    assert main(["analyze", str(path)]) == 1
    assert "/base_point" in capsys.readouterr().err


def test_cli_corpus_command(capsys):
    assert main(["corpus", "--id", "flat-trivial"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_cli_corpus_unknown_id(capsys):
    assert main(["corpus", "--id", "nonsense"]) == 1


def test_reports_do_not_contain_wall_clock(tmp_path):
    man = _write_manifest(tmp_path, "flat-trivial")
    out = tmp_path / "r.json"
    main(["analyze", str(man), "--out", str(out)])
    assert "wall" not in out.read_text()
    assert "time" not in json.loads(out.read_text())


def _count_calls(monkeypatch, module, name):
    """Count calls of a paracon function at every module that imports it."""
    original = getattr(importlib.import_module(module), name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod is None or mod_name.split(".")[0] != "paracon":
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, counted)
    return calls


def test_analyze_runs_each_stage_once(tmp_path, monkeypatch):
    # punctured-plane: 40 grid points and one loop
    man = _write_manifest(tmp_path, "punctured-plane")
    scans = _count_calls(monkeypatch, "paracon.flag", "regularity_scan")
    flags = _count_calls(monkeypatch, "paracon.flag", "derived_flag")
    kernels = _count_calls(monkeypatch, "paracon.flag", "curvature_kernel")
    holos = _count_calls(monkeypatch, "paracon.transport", "holonomy_matrix")
    out = tmp_path / "r.json"
    assert main(["analyze", str(man), "--out", str(out),
                 "--steps", "512"]) == 0
    assert len(scans) == 1
    assert len(flags) == 1  # the base point; the scan is one batched call
    # the flag is [3] everywhere, so each batch takes one level-0 step: one
    # for the whole grid and one for the base point
    assert len(kernels) == 2
    assert len(holos) == 1


def test_corrupted_corpus_file_is_reported(monkeypatch):
    import paracon.corpus as corpus_mod

    class BadTraversable:
        def joinpath(self, *_):
            return self

        def read_text(self, **_):
            return "{ not json"

    monkeypatch.setattr(corpus_mod.resources, "files",
                        lambda *_: BadTraversable())
    with pytest.raises(ManifestError, match="corrupted"):
        corpus_mod.load_corpus()
