"""Schema round-trip: emitted reports and shipped manifests validate against
the in-repo JSON schemas (the compatibility contract)."""

import contextlib
import json

import pytest

from paracon.cli import main
from paracon.corpus import load_corpus
from paracon.manifest import (MANIFEST_SCHEMA, ManifestError, load_schema,
                              validate)
from paracon.transport import MIN_RK4_STEPS


def _subschemas(schema):
    yield schema
    for sub in (*schema.get("properties", {}).values(),
                schema.get("additionalProperties"), schema.get("items")):
        if isinstance(sub, dict):
            yield from _subschemas(sub)


@pytest.mark.parametrize("name", ["manifest", "report"])
def test_validator_implements_every_schema_keyword(name):
    # a keyword the validator skipped would check nothing where it stands
    for sub in _subschemas(load_schema(name)):
        with contextlib.suppress(ManifestError):
            validate(None, sub)
    with pytest.raises(NotImplementedError, match="multipleOf"):
        validate(3, {"type": "integer", "multipleOf": 2})


def test_schema_rk4_minimum_is_the_transport_floor():
    rk4 = MANIFEST_SCHEMA["properties"]["steps"]["properties"]["rk4"]
    assert rk4["minimum"] == MIN_RK4_STEPS


def test_shipped_manifests_validate_against_manifest_schema():
    for entry in load_corpus():
        validate(entry.manifest_doc, MANIFEST_SCHEMA, entry.id)


@pytest.mark.parametrize("command,extra", [
    ("analyze", []),
    ("flag", ["--point"]),
])
def test_emitted_reports_validate_against_report_schema(tmp_path, command,
                                                        extra):
    # every corpus entry (flag: at its base point), and a base point off the
    # regular grid's flag, where the holonomy stage fails
    schema = load_schema("report")
    man, out = tmp_path / "m.json", tmp_path / f"{command}.json"
    for doc in [e.manifest_doc for e in load_corpus()] + [IRREGULAR_LOOP]:
        point = ",".join(repr(float(v)) for v in doc["base_point"])
        tail = {"analyze": [], "flag": [point]}[command]
        man.write_text(json.dumps(
            {k: v for k, v in doc.items() if k != "expected"}))
        code = main([command, str(man), "--out", str(out)] + extra + tail)
        assert code in (0, 2)
        report = json.loads(out.read_text())
        validate(report, schema, f"{doc['id']}/{command}")
        if command != "flag":
            assert (report["base_flag"] is None) == (doc is IRREGULAR_LOOP)


def test_matrix_kind_report_validates(tmp_path):
    schema = load_schema("report")
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
])
def test_step_doubling_fields_validate(tmp_path, command, extra):
    # sphere: two loops, and a rank-one terminal bundle, so periods too
    schema = load_schema("report")
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
    assert len(hol) == 2
    for h in hol:
        assert 256 <= h["steps"] <= 4096
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


def test_irregular_base_point_is_inconclusive(tmp_path):
    # the grid is regular, but the base point lies right of x = 0, where the
    # flag is [1, 1] and not the grid's [3]
    man = tmp_path / "m.json"
    man.write_text(json.dumps(IRREGULAR_BASE))
    out = tmp_path / "r.json"
    assert main(["analyze", str(man), "--out", str(out)]) == 2
    report = json.loads(out.read_text())
    validate(report, load_schema("report"), "analyze")
    gv = report["global_verdict"]
    assert report["regularity"]["regular_on_grid"] is True
    assert gv["status"] == "inconclusive"
    assert report["holonomy"] is None
    # one failure, one note: the verdict's is the report's
    note, = gv["notes"]
    assert report["notes"] == [note]
    assert note.startswith("holonomy stage failed: flag dimension jump")


def test_base_flag_differing_from_regular_grid_is_inconclusive(tmp_path):
    # far from the breakpoint, the base point's terminal dim 1 differs from
    # the regular grid's 3: no verdict
    man = tmp_path / "m.json"
    man.write_text(json.dumps(dict(IRREGULAR_BASE, base_point=[0.5, 0.0])))
    out = tmp_path / "r.json"
    assert main(["analyze", str(man), "--out", str(out)]) == 2
    report = json.loads(out.read_text())
    validate(report, load_schema("report"), "analyze")
    assert report["regularity"]["dims"] == [3] * 6
    assert report["regularity"]["regular_on_grid"] is True
    gv = report["global_verdict"]
    assert gv["status"] == "inconclusive"
    assert gv["wtilde_rank"] is None
    assert gv["notes"] == report["notes"]
    note, = gv["notes"]
    assert note.startswith("holonomy stage failed: ")
    assert "terminal dim 1 != 3" in note
    assert report["holonomy"] is None


IRREGULAR_LOOP = dict(IRREGULAR_BASE, loops=[{
    "name": "c", "exprs": ["0.00001 + 0.5*sin(t)", "0.5 - 0.5*cos(t)"],
    "t_range": [0.0, 6.283185307179586]}])


def test_irregular_base_point_holonomy_exits_two(tmp_path, capsys):
    man = tmp_path / "m.json"
    man.write_text(json.dumps(IRREGULAR_LOOP))
    out = tmp_path / "h.json"
    assert main(["analyze", str(man), "--out", str(out),
                 "--format", "text"]) == 2
    text, err = capsys.readouterr()
    # the failure is written into the report, not to stderr
    assert "failed" not in err
    assert text.count("  note: holonomy stage failed: ") == 1
    report = json.loads(out.read_text())
    validate(report, load_schema("report"), "analyze")
    assert report["holonomy"] is None and report["base_flag"] is None
    note, = report["notes"]
    assert report["global_verdict"]["notes"] == [note]
    assert note.startswith("holonomy stage failed: ")
    assert "terminal dim 1 != 3 on the regular grid" in note
