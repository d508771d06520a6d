"""Schema round-trip: emitted reports and shipped manifests validate against
the in-repo JSON schemas (the compatibility contract)."""

import json
from importlib import resources

import pytest

from paracon.cli import main
from paracon.corpus import load_corpus

_TYPES = {
    "object": dict, "array": list, "string": str,
    "integer": int, "boolean": bool,
}


def _type_ok(value, names):
    if isinstance(names, str):
        names = [names]
    for name in names:
        if name == "null" and value is None:
            return True
        if name == "number" and isinstance(value, (int, float)) \
                and not isinstance(value, bool):
            return True
        if name == "integer" and isinstance(value, int) \
                and not isinstance(value, bool):
            return True
        if name in _TYPES and isinstance(value, _TYPES[name]) \
                and not (name != "boolean" and isinstance(value, bool)):
            return True
    return False


def validate(value, schema, path=""):
    """Minimal validator for the schema subset the contract uses."""
    if "enum" in schema:
        assert value in schema["enum"], f"{path}: {value!r} not in enum"
        return
    names = schema.get("type")
    if names:
        assert _type_ok(value, names), \
            f"{path}: {type(value).__name__} is not {names}"
    if value is None:
        return
    if isinstance(value, dict):
        for key in schema.get("required", []):
            assert key in value, f"{path}: missing required key {key!r}"
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties")
        for key, sub in value.items():
            if key in props:
                validate(sub, props[key], f"{path}/{key}")
            elif isinstance(extra, dict):
                validate(sub, extra, f"{path}/{key}")
    elif isinstance(value, list):
        if "minItems" in schema:
            assert len(value) >= schema["minItems"], f"{path}: too few items"
        if "maxItems" in schema:
            assert len(value) <= schema["maxItems"], f"{path}: too many items"
        item_schema = schema.get("items")
        if isinstance(item_schema, dict):
            for i, v in enumerate(value):
                validate(v, item_schema, f"{path}/{i}")


def _schema(name):
    text = resources.files("paracon").joinpath(f"schemas/{name}").read_text()
    return json.loads(text)


def test_shipped_manifests_validate_against_manifest_schema():
    schema = _schema("manifest.schema.json")
    for entry in load_corpus():
        validate(entry.manifest_doc, schema, entry.id)


@pytest.mark.parametrize("command,extra", [
    ("analyze", []),
    ("global", []),
    ("flag", ["--point", "0.5"]),
])
def test_emitted_reports_validate_against_report_schema(tmp_path, command,
                                                        extra):
    schema = _schema("report.schema.json")
    from paracon.corpus import get_entry
    doc = dict(get_entry("smooth-pathology").manifest_doc)
    doc.pop("expected", None)
    man = tmp_path / "m.json"
    man.write_text(json.dumps(doc))
    out = tmp_path / f"{command}.json"
    code = main([command, str(man), "--out", str(out)] + extra)
    assert code in (0, 2)
    validate(json.loads(out.read_text()), schema, command)


def test_matrix_kind_report_validates(tmp_path):
    schema = _schema("report.schema.json")
    from paracon.corpus import get_entry
    doc = dict(get_entry("s1-line-bundle").manifest_doc)
    doc.pop("expected", None)
    man = tmp_path / "m.json"
    man.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main(["analyze", str(man), "--out", str(out)]) == 0
    validate(json.loads(out.read_text()), schema, "matrix-analyze")


@pytest.mark.parametrize("command,extra", [
    ("analyze", []),
    ("holonomy", ["--loop", "sweep"]),
])
def test_step_doubling_fields_validate(tmp_path, command, extra):
    # sphere: two loops, and a rank-one terminal bundle, so periods too
    schema = _schema("report.schema.json")
    from paracon.corpus import get_entry
    doc = dict(get_entry("sphere").manifest_doc)
    doc.pop("expected", None)
    man = tmp_path / "m.json"
    man.write_text(json.dumps(doc))
    out = tmp_path / f"{command}.json"
    assert main([command, str(man), "--out", str(out)] + extra) == 0
    report = json.loads(out.read_text())
    validate(report, schema, command)
    hol = report["holonomy"]
    for h in hol if command == "analyze" else [hol]:
        assert 256 <= h["steps"] <= 4096
    if command == "analyze":
        pp = report["global_verdict"]["phi_periods"]
        assert len(pp["points"]) == len(pp["error_estimates"]) == 2


IRREGULAR_BASE = {
    "id": "irregular-base",
    "coords": [{"name": "x", "range": [-2, 2]}, {"name": "y", "range": [-2, 2]}],
    "connection": {"kind": "christoffel",
                   "gamma": {"x": {"y,y": "if(x < 0, 0, x)"}}},
    "base_point": [0.00001, 0.0],
    "loops": [],
    "grid": {"values": [[-1.0, -0.5], [-1.0, 0.0, 1.0]]},
}


@pytest.mark.parametrize("command", ["analyze", "global"])
def test_irregular_base_point_is_inconclusive(tmp_path, command):
    # the grid is regular, but the base point lies right of x = 0, where the
    # flag is [1, 1] and not the grid's [3]
    man = tmp_path / "m.json"
    man.write_text(json.dumps(IRREGULAR_BASE))
    out = tmp_path / "r.json"
    assert main([command, str(man), "--out", str(out)]) == 2
    report = json.loads(out.read_text())
    validate(report, _schema("report.schema.json"), command)
    gv = report["global_verdict"]
    assert report["regularity"]["regular_on_grid"] is True
    assert gv["status"] == "inconclusive"
    assert any("base-point flag failed" in n for n in gv["notes"])
    assert report["holonomy"] is None
    assert any("holonomy stage failed" in n for n in report["notes"])


def test_base_flag_differing_from_regular_grid_is_inconclusive(tmp_path):
    # far from the breakpoint, the base point's terminal dim 1 differs from
    # the regular grid's 3: no verdict
    man = tmp_path / "m.json"
    man.write_text(json.dumps(dict(IRREGULAR_BASE, base_point=[0.5, 0.0])))
    out = tmp_path / "r.json"
    assert main(["analyze", str(man), "--out", str(out)]) == 2
    report = json.loads(out.read_text())
    validate(report, _schema("report.schema.json"), "analyze")
    assert report["regularity"]["dims"] == [3] * 6
    assert report["regularity"]["regular_on_grid"] is True
    gv = report["global_verdict"]
    assert gv["status"] == "inconclusive"
    assert gv["wtilde_rank"] is None
    assert any("base-point flag failed" in n and "terminal dim 1 != 3" in n
               for n in gv["notes"])
    assert report["holonomy"] is None


def test_irregular_base_point_holonomy_exits_two(tmp_path, capsys):
    doc = dict(IRREGULAR_BASE, loops=[{
        "name": "c", "exprs": ["0.00001 + 0.5*sin(t)", "0.5 - 0.5*cos(t)"],
        "t_range": [0.0, 6.283185307179586]}])
    man = tmp_path / "m.json"
    man.write_text(json.dumps(doc))
    out = tmp_path / "h.json"
    assert main(["holonomy", str(man), "--loop", "c", "--out", str(out)]) == 2
    assert "irregular" in capsys.readouterr().err
    assert not out.exists()
