import functools
import hashlib
import importlib
import json
import operator
import sys

import numpy as np
import pytest

from paracon import __version__, cli
from paracon.cli import (Rows, _finalize, _parser, build_report,
                         canonical_json, exit_code, main)
from paracon.corpus import (ENTRY_IDS, check_report, get_entry, load_corpus,
                            run_entry)
from paracon.manifest import ManifestError, load_manifest, manifest_from_dict
from reference import format_text


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


@pytest.mark.parametrize("key", ["stencil_h", "seed", "pd_restarts"])
def test_manifest_ignored_key_still_loads(tmp_path, key):
    # older manifests set the flag's removed difference step (a tolerance)
    # or the removed PD restarts and their seed; they still load
    if key == "stencil_h":
        doc = minimal_doc(tolerances={key: 0.35, "rank_tol": 1e-8})
    else:
        doc = minimal_doc(tolerances={"rank_tol": 1e-8}, **{key: 3})
    man = manifest_from_dict(doc)
    assert key not in man.tolerances
    assert man.tolerances["rank_tol"] == 1e-8
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main(["analyze", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert key not in report["effective"]
    assert key not in report["effective"]["tolerances"]
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(minimal_doc(tolerances={"rank_tol": 1e-8})))
    out2 = tmp_path / "r2.json"
    assert main(["analyze", str(plain), "--out", str(out2)]) == 0
    report2 = json.loads(out2.read_text())
    assert report["regularity"] == report2["regularity"]
    assert report["global_verdict"] == report2["global_verdict"]


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


@pytest.mark.parametrize("key, value, why", [
    ("rank_tol", None, "expected a number"),
    ("holonomy_tol", None, "expected a number"),
    ("pd_tol", None, "expected a number"),
    ("fixed_tol", None, "expected a number"),
    ("rank_tol", 2.0, "below 1"),
    ("rank_tol", 1.0, "below 1"),
    ("rank_tol", float("nan"), "finite and > 0"),
    ("holonomy_tol", float("inf"), "finite and > 0"),
    ("fixed_tol", 0.0, "finite and > 0"),
    ("period_tol", -1e-4, "finite and > 0"),
    ("pd_tol", 1e-20, "at least 1e-14"),
    ("pd_tol", "1e-8", "expected a number"),
    ("holonomy_tol", True, "expected a number"),
])
def test_cli_rejects_bad_tolerance(tmp_path, capsys, key, value, why):
    # each used to end in a traceback or in a decision rounding made
    path = tmp_path / "m.json"
    path.write_text(json.dumps(minimal_doc(tolerances={key: value})))
    assert main(["analyze", str(path), "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert f"/tolerances/{key}" in err and why in err
    assert "Traceback" not in err


def test_manifest_keeps_valid_tolerances():
    man = manifest_from_dict(minimal_doc(tolerances={
        "period_tol": None, "pd_tol": 1e-14, "rank_tol": 0.5,
        "holonomy_tol": 1, "fixed_tol": 1e-3}))
    assert man.tolerances == {"rank_tol": 0.5, "holonomy_tol": 1.0,
                              "period_tol": None, "pd_tol": 1e-14,
                              "fixed_tol": 1e-3}


SPHERE_THETA, SPHERE_PHI = get_entry("sphere").manifest_doc["coords"]
SPHERE_GAMMA = get_entry("sphere").manifest_doc["connection"]["gamma"]


@pytest.mark.parametrize("patch, argv, pointer", [
    ({"steps": 4096}, [], "/steps"),
    ({"steps": {"quadrature": 0}}, [], "/steps/quadrature"),
    ({"steps": {"rk4": "abc"}}, [], "/steps/rk4"),
    ({"steps": {"rk4": True}}, [], "/steps/rk4"),
    ({"steps": {"rk4": 8}}, [], "/steps/rk4"),
    ({}, ["--steps", "8"], "/steps/rk4"),
    ({"grid": {"values": 1.0}}, [], "/grid/values"),
    ({"grid": {"values": [[], [1.0]]}}, [], "/grid/values/0"),
    ({"grid": {"values": [["a"], [1.0]]}}, [], "/grid/values/0/0"),
    ({"grid": {"counts": [0, 3]}}, [], "/grid/counts/0"),
    ({"grid": {"counts": ["a", 3]}}, [], "/grid/counts/0"),
    ({"grid": {"counts": [3.5, 3]}}, [], "/grid/counts/0"),
    ({"params": {"k": "a"}}, [], "/params/k"),
    ({"base_point": ["a", 1.0]}, [], "/base_point/0"),
    ({"coords": [{"name": "theta", "range": ["a", 1.0]}]}, [],
     "/coords/0/range/0"),
    ({"tolerances": 5}, [], "/tolerances"),
    ({"loops": [{"name": "l", "exprs": ["1", "t"], "t_range": [0.0]}]}, [],
     "/loops/0/t_range"),
    ({"loops": 5}, [], "/loops"),
    ({}, ["--param", "k=abc"], "/params/k"),
    ({}, ["--point", "a,b"], "/point"),
    ({"connection": {"kind": "christoffel", "gamma": 5}}, [],
     "/connection/gamma"),
    ({"connection": {"kind": "christoffel", "gamma": {"theta": "x"}}}, [],
     "/connection/gamma/theta"),
    ({"excluded": 5}, [], "/excluded"),
    ({"grid": 5}, [], "/grid"),
    ({"params": {"theta": 0.5}}, [], "/params/theta"),
    ({"params": {"t": 0.0}}, [], "/params/t"),
    ({"params": {"pi": 3.0}}, [], "/params/pi"),
    ({}, ["--param", "phi=1.0"], "/params/phi"),
    ({"exclusion_radius": -1.0}, [], "/exclusion_radius"),
    ({"exclusion_radius": 0.0}, [], "/exclusion_radius"),
    ({"coords": [SPHERE_THETA, dict(SPHERE_PHI, period=0.0)]}, [],
     "/coords/1/period"),
    ({"coords": [SPHERE_THETA, dict(SPHERE_PHI, period=-2 * np.pi)]}, [],
     "/coords/1/period"),
    ({"loops": [{"name": "l", "exprs": ["1", "t"],
                 "t_range": [2 * np.pi, 0.0]}]}, [], "/loops/0/t_range"),
    ({"tolerances": {"stencil_h": "a"}}, [], "/tolerances/stencil_h"),
    ({"grid": {"counts": [3.0, 3]}}, [], "/grid/counts/0"),
    ({"base_point": [np.pi / 3 + 0.1, 1.0]}, [], "/loops/0"),
    # a second key for one entry: the later key overwrote the first
    ({"connection": {"kind": "christoffel", "gamma": dict(
        SPHERE_GAMMA,
        theta=dict(SPHERE_GAMMA["theta"], **{"phi, phi": "0"}))}}, [],
     "/connection/gamma/theta/phi, phi"),
    # an override of a name the manifest does not declare, as punctured-plane
    # (which declares k) and flat-trivial (which declares none) take them
    ({"params": {"k": 0.5}}, ["--param", "kk=0.5"], "/params/kk"),
    ({}, ["--param", "k=1"], "/params/k"),
    # an empty field, which used to shift the later coordinates left
    ({}, ["--point", "1,,0.5"], "/point"),
    # non-finite coordinates, which were reported as outside the chart box
    # (a NaN on the periodic axis once passed that check)
    ({}, ["--point", "nan"], "/point"),
    ({}, ["--point", "1e400,0"], "/point"),
    ({}, ["--point", "1,nan"], "/point"),
    # a grid value outside its coordinate's range, which failed only after
    # the parse, without a pointer
    ({"grid": {"values": [[0.6, 3.5], [0.5]]}}, [], "/grid/values/0/1"),
])
def test_cli_rejects_bad_steps_and_grid(tmp_path, capsys, patch, argv,
                                        pointer):
    # each used to end in a traceback, be truncated without a message, or
    # (rk4 true, read as 1) fail only in the transport; the last three
    # exited 0 after running on other inputs than those given
    _assert_manifest_error(tmp_path, capsys, "sphere", patch, argv, pointer)


def test_corpus_control_rejects_an_undeclared_param():
    # corpus controls patch parameters through the same rule as --param
    with pytest.raises(ManifestError, match="^/params/kk: "):
        get_entry("punctured-plane").manifest({"kk": 0.5})


@pytest.mark.parametrize("entry, patch, argv, pointer", [
    ("punctured-plane", {"params": {"k": float("nan")}}, [], "/params/k"),
    ("punctured-plane", {"params": {"k": float("inf")}}, [], "/params/k"),
    ("punctured-plane", {}, ["--param", "k=nan"], "/params/k"),
    ("punctured-plane", {"params": {"k": 10 ** 400}}, [], "/params/k"),
    ("sphere", {"grid": {"values": [[float("nan")], [0.5]]}}, [],
     "/grid/values/0/0"),
])
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, entry, patch, argv,
                                        pointer):
    # Python's json reads NaN, Infinity and integers past a float's range;
    # each used to fail later without a pointer, as non-finite connection
    # entries, a point outside the box or an OverflowError
    _assert_manifest_error(tmp_path, capsys, entry, patch, argv, pointer)


SPHERE_BAND, SPHERE_SWEEP = get_entry("sphere").manifest_doc["loops"]


def _band(*exprs):
    return {"loops": [dict(SPHERE_BAND, exprs=list(exprs)), SPHERE_SWEEP]}


@pytest.mark.parametrize("entry, patch, pointer", [
    ("sphere", {"connection": {"kind": "christoffel", "gamma": dict(
        SPHERE_GAMMA, theta={"phi,phi": "-sin(theta)*cos(theta) + q"})}},
     "/connection/gamma/theta/phi,phi"),
    ("s1-line-bundle", {"connection": {"kind": "matrix", "fiber_dim": 1,
                                       "omega": [[["1 + q"]]]}},
     "/connection/omega/0/0/0"),
    ("sphere", {"excluded": ["theta - 3", "phi - q"]}, "/excluded/1"),
    ("sphere", _band("pi/3", "1 + t + 0*q"), "/loops/0/exprs/1"),
    ("sphere", _band("pi/3 + 0*theta", "1 + t"), "/loops/0/exprs/0"),
])
def test_cli_rejects_an_undeclared_formula_name(tmp_path, capsys, entry,
                                                patch, pointer):
    # a connection or excluded-set formula failed without a pointer, and a
    # loop formula only in the transport, as an unbound name
    _assert_manifest_error(tmp_path, capsys, entry, patch, [], pointer)


def test_cli_flag_rejects_a_point_where_an_excluded_set_is_undefined(
        tmp_path, capsys):
    # sqrt(x) - 1 is NaN at x < 0, and NaN < exclusion_radius is false, so
    # the point passed as admissible
    doc = dict(get_entry("flat-trivial").manifest_doc,
               excluded=["sqrt(x) - 1"], base_point=[0.5, 0.0])
    doc.pop("expected")
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert main(["flag", str(path), "--point=-0.5,0.1",
                 "--out", str(tmp_path / "f.json")]) == 1
    assert capsys.readouterr().err == \
        "error: point [-0.5, 0.1] inside excluded set\n"


def test_cli_rejects_an_integer_past_the_conversion_limit(tmp_path, capsys):
    # Python's json reads integers of at most 4,300 digits, and a longer one
    # raised a plain ValueError, which ended analyze in a traceback
    doc = dict(get_entry("punctured-plane").manifest_doc)
    doc.pop("expected")
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc).replace('"k": 0.3', '"k": ' + "7" * 5001))
    assert main(["analyze", str(path), "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err.startswith(
        "manifest error: : invalid JSON: Exceeds the limit")


def _assert_manifest_error(tmp_path, capsys, entry, patch, argv, pointer):
    doc = dict(get_entry(entry).manifest_doc, **patch)
    doc.pop("expected")
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    command = "flag" if "--point" in argv else "analyze"
    assert main([command, str(path), "--out", str(tmp_path / "r.json"),
                 *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"manifest error: {pointer}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("terms", [1000, 500])
def test_cli_reports_a_formula_nested_too_deeply(tmp_path, capsys, terms):
    # a sum nests one node per term: 1,000 terms overflowed the stack at
    # load and 500 in the scan's derivatives, each with a traceback
    total = " + ".join(f"{i}*sin(theta)" for i in range(1, terms + 1))
    gamma = dict(SPHERE_GAMMA, theta={"phi,phi": total})
    doc = dict(get_entry("sphere").manifest_doc,
               connection={"kind": "christoffel", "gamma": gamma})
    doc.pop("expected")
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path), "--out",
                 str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == \
        "error: a formula is nested too deeply to evaluate\n"


def test_manifest_accepts_the_least_steps_and_grid():
    man = manifest_from_dict(minimal_doc(steps={"rk4": 16, "quadrature": 1},
                                         grid={"counts": [1, 2]}))
    assert man.steps == {"rk4": 16, "quadrature": 1}
    assert man.grid_axes == [[-0.8], [-0.8, 0.8]]


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


def test_zero_fixed_subspace_reports_its_pd_certificate(tmp_path):
    # dtheta-obstruction's holonomy fixes no direction: the empty span is
    # certified infeasible with the witness I/n, and the verdict is unchanged
    man = _write_manifest(tmp_path, "dtheta-obstruction")
    out = tmp_path / "r.json"
    assert main(["analyze", str(man), "--out", str(out)]) == 0
    gv = json.loads(out.read_text())["global_verdict"]
    assert (gv["status"], gv["fixed_dim"], gv["rank_wm"]) == ("not_metric", 0, 0)
    assert gv["pd"] == {"status": "infeasible_certified", "best_lambda": 0.0,
                        "coefficients": None, "cholesky": None,
                        "witness": [[0.5, 0.0], [0.0, 0.5]]}
    assert any(n.startswith("no holonomy-fixed directions") for n in gv["notes"])


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


def test_cli_holonomy_command(tmp_path, capsys):
    # analyze is the one way into the holonomy stage
    man = _write_manifest(tmp_path, "s1-line-bundle")
    out = tmp_path / "h.json"
    with pytest.raises(SystemExit) as exc:
        main(["holonomy", str(man), "--loop", "circle", "--out", str(out)])
    assert exc.value.code == 2
    assert "invalid choice: 'holonomy'" in capsys.readouterr().err
    assert not out.exists()
    assert main(["analyze", str(man), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    # the loop's one holonomy, in the basis of the base point's terminal line
    h, = report["holonomy"]
    assert h["loop"] == "circle"
    assert abs(h["matrix"][0][0] - np.exp(-2 * np.pi)) < 1e-9
    assert report["base_flag"]["terminal_dim"] == 1


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


def _deep_flag_doc():
    # N = 5 matrix connection with flag [4, 3, 2, 2] for y > 0
    z = "0"
    omega = [[[z, z] for _ in range(5)] for _ in range(5)]
    omega[1][4] = ["exp(y)", z]
    for i, j in ((2, 3), (4, 0), (0, 3)):
        omega[i][j] = [z, "y"]
    return minimal_doc(
        id="deep-flag",
        coords=[{"name": "x", "range": [-2.0, 2.0]},
                {"name": "y", "range": [-2.0, 2.0]}],
        connection={"kind": "matrix", "fiber_dim": 5, "omega": omega},
        base_point=[0.3, 0.1], grid={"values": [[0.2, 0.5], [0.1, 0.4, 0.7]]})


def _workload_manifests(tmp_path):
    """The seed-1 manifests of the benchmark's three scaled workloads."""
    import os
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.pop(0)
    return [job.manifest_path for name in ("fine-grid", "deep-flag",
                                           "loops-3d")
            for job in WORKLOADS[name](root, str(tmp_path), 1)]


def test_text_summary_reads_as_the_written_report(tmp_path, capsys):
    # the summary comes from the report as built; it must print what the
    # summary of the written JSON, read back, prints
    runs = []
    for eid in ENTRY_IDS:
        path = str(_write_manifest(tmp_path, eid))
        man = load_manifest(path)
        point = ",".join(repr(float(v)) for v in man.base_point)
        runs += [["analyze", path], ["flag", path, "--point", point]]
    runs += [["analyze", path] for path in _workload_manifests(tmp_path)]
    out = tmp_path / "r.json"
    for argv in runs:
        main(argv + ["--out", str(out), "--format", "text"])
        text = capsys.readouterr().out
        assert text == format_text(json.loads(out.read_bytes())), argv


def test_cli_text_format(tmp_path, capsys):
    man = _write_manifest(tmp_path, "flat-trivial")
    out = tmp_path / "t.json"
    main(["analyze", str(man), "--out", str(out), "--format", "text"])
    text = capsys.readouterr().out
    assert "global status: metric" in text
    assert "flag dims [3] at 9 of 9 points" in text
    assert "caveat" in text

    # a multi-level chain is printed as a list, not as an array
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(_deep_flag_doc()))
    assert main(["analyze", str(path), "--out", str(out),
                 "--format", "text"]) == 0
    assert "flag dims [4, 3, 2, 2] at 6 of 6 points" in capsys.readouterr().out
    # the one-point flag report keeps the bytes it had before the columnar
    # writer (sha256 of the report written by the per-point encoder)
    assert main(["flag", str(path), "--point", "0.3,0.1", "--out", str(out),
                 "--format", "text"]) == 0
    assert "flag dims [4, 3, 2, 2], terminal dim 2" in capsys.readouterr().out
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "84e821bb30054ef727114e1a954a6506e4f9a0747ab65512c41e47a9bddf7d16")


def test_cli_bad_manifest_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(minimal_doc(base_point=[9.0, 0.0])))
    assert main(["analyze", str(path)]) == 1
    assert "/base_point" in capsys.readouterr().err


@pytest.mark.parametrize("eid", ENTRY_IDS)
def test_cli_corpus_command(eid, capsys):
    assert main(["corpus", "--id", eid]) == 0
    out, err = capsys.readouterr()
    assert "PASS" in out and "FAIL" not in out
    assert out.count(f"PASS {eid}.exit_code: ") == 1
    assert err == ""


# the check names of the keys that give one check per list item
_CHECKS_OF = {"holonomy": "holonomy", "phi_period": "phi_periods",
              "control": "controls"}


def test_every_expected_key_yields_a_check():
    # a golden that no check reads passes whatever the pipeline gives
    for entry in load_corpus():
        checks = run_entry(entry)
        names = {c.name.split("[")[0] for c in checks}
        read = {_CHECKS_OF.get(n, n) for n in names}
        unread = [k for k in entry.expected
                  if k != "provenance" and k not in read]
        assert not unread, f"{entry.id}: no check reads {unread}"


# per golden that a report answers: an entry holding it, the path in the
# parsed report of the one field to change (None: the exit code) and the
# wrong value to put there
_REPORT_MUTATIONS = {
    "regular": ("sphere", ("regularity", "regular_on_grid"), False),
    "terminal_dims": ("sphere", ("regularity", "dims", 0), 3),
    "jumps_straddle": ("smooth-pathology", ("regularity", "jumps"), []),
    "local_metric_all": ("sphere", ("local_metricity", 0, "locally_metric"),
                         False),
    "fixed_dim": ("dtheta-obstruction", ("global_verdict", "fixed_dim"), 1),
    "fixed_direction": ("punctured-plane",
                        ("global_verdict", "fixed_fiber_basis"),
                        [[0.0], [0.0], [1.0]]),
    "parallel_frame": ("s1-line-bundle", ("flat_bundle", "parallel_frame"),
                       True),
    "status": ("sphere", ("global_verdict", "status"), "not_metric"),
    "rank_wm": ("sphere", ("global_verdict", "rank_wm"), 0),
    "phi_period_max": ("sphere",
                       ("global_verdict", "phi_periods", "periods", 0), 0.1),
    "phi_periods": ("dtheta-obstruction",
                    ("global_verdict", "phi_periods", "periods", 0), 0.0),
    "exit_code": ("smooth-pathology", None, 0),
    "base_trace_dims": ("sphere", ("base_flag", "dims", 0), 2),
    "terminal_direction": ("sphere", ("base_flag", "terminal_basis"),
                           [[0], [0], [1]]),
    "holonomy": ("punctured-plane", ("holonomy", 0, "matrix", 0, 0), 2.0),
}


@pytest.mark.parametrize("key", list(_REPORT_MUTATIONS))
def test_check_report_fails_exactly_the_mutated_golden(key):
    eid, path, value = _REPORT_MUTATIONS[key]
    entry = get_entry(eid)
    man = entry.manifest()
    report = json.loads(b"".join(build_report(man, man.analysis())[1]))
    code = exit_code(report)
    if path is None:
        code = value
    else:
        *head, last = path
        functools.reduce(operator.getitem, head, report)[last] = value
    failed = [c.name.split("[")[0]
              for c in check_report(entry.expected, report, code, man)
              if not c.ok]
    assert [_CHECKS_OF.get(n, n) for n in failed] == [key]


_NULLED_READS = {"base_trace_dims", "terminal_direction", "holonomy"}


@pytest.mark.parametrize("eid", ENTRY_IDS)
def test_check_report_fails_the_goldens_of_a_null_base_flag(eid):
    # the report of a failed holonomy stage: each golden read from the
    # base-point flag or the holonomies fails, and none raises
    entry = get_entry(eid)
    man = entry.manifest()
    report = json.loads(b"".join(build_report(man, man.analysis())[1]))
    code = exit_code(report)
    report["base_flag"] = report["holonomy"] = None
    failed = {c.name.split("[")[0]
              for c in check_report(entry.expected, report, code, man)
              if not c.ok}
    assert failed == _NULLED_READS & set(entry.expected)


def test_corpus_checks_the_written_report(monkeypatch, capsys):
    # a wrong status or base-point flag in the written report fails the
    # run, though the analysis it was written from holds the right one
    verdict_dict, trace_dict = cli._verdict_dict, cli._trace_dict
    monkeypatch.setattr(cli, "_verdict_dict",
                        lambda v: dict(verdict_dict(v), status="not_metric"))
    assert main(["corpus", "--id", "sphere"]) == 1
    assert "FAIL sphere.status: " in capsys.readouterr().out
    monkeypatch.undo()
    monkeypatch.setattr(cli, "_trace_dict",
                        lambda t: dict(trace_dict(t), dims=[2, 1]))
    assert main(["corpus", "--id", "sphere"]) == 1
    out = capsys.readouterr().out
    assert out.count("FAIL") == 1 and "FAIL sphere.base_trace_dims: " in out


def test_matrix_kind_holonomy_failure_exits_two(tmp_path):
    # deep-flag's connection on a regular grid of terminal dim 2, with the
    # base point at y = 0, where the terminal dim is 3: no holonomy
    doc = _deep_flag_doc()
    doc.update(base_point=[0.3, 0.0],
               grid={"values": [[0.2, 0.5], [0.4, 0.7]]},
               loops=[{"name": "circle",
                       "exprs": ["0.3 + 0.2*sin(t)", "0.2 - 0.2*cos(t)"],
                       "t_range": [0.0, 2 * np.pi]}])
    path, out = tmp_path / "m.json", tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path), "--out", str(out)]) == 2
    report = json.loads(out.read_bytes())
    assert report["holonomy"] is None
    assert report["flat_bundle"] is None and report["global_verdict"] is None
    note, = report["notes"]
    assert note.startswith("holonomy stage failed: ")
    assert note.endswith("terminal dim 3 != 2 on the regular grid")


def test_matrix_kind_on_an_irregular_grid_poses_no_flat_bundle_question(
        tmp_path):
    # deep-flag's connection on a grid across y = 0, where the terminal dim
    # jumps from 2 to 3: like Sym^2's not_regular, no flat-bundle answer
    doc = _deep_flag_doc()
    doc.update(base_point=[0.3, 0.5],
               grid={"values": [[0.2, 0.5], [-0.4, 0.0, 0.4, 0.7]]},
               loops=[{"name": "circle",
                       "exprs": ["0.1 + 0.2*cos(t)", "0.5 + 0.2*sin(t)"],
                       "t_range": [0.0, 2 * np.pi]}])
    path, out = tmp_path / "m.json", tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path), "--out", str(out)]) == 2
    report = json.loads(out.read_bytes())
    assert report["regularity"]["regular_on_grid"] is False
    assert report["regularity"]["dims"] == [2, 3, 2, 2, 2, 3, 2, 2]
    assert report["flat_bundle"] is None and report["global_verdict"] is None
    assert report["notes"] == [
        "terminal dimension varies over the sample grid; the flat-bundle "
        "question is not posed"]
    # the holonomy is still reported, as it is beside a not_regular verdict
    assert [h["loop"] for h in report["holonomy"]] == ["circle"]


def test_loop_leaving_the_chart_is_named(tmp_path, capsys):
    # r = 1 + 2.5 sin^2(t/2) reaches 3.5, past punctured-plane's r < 3
    doc = dict(get_entry("punctured-plane").manifest_doc, loops=[
        {"name": "outside", "exprs": ["1 + 2.5*sin(t/2)^2", "0"],
         "t_range": [0.0, 2 * np.pi]}])
    doc.pop("expected")
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path), "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert "error: transport along 'outside' left the domain: point " in err
    assert err.rstrip().endswith(" outside chart box")


@pytest.mark.parametrize("entry, patch", [
    # H = exp(4 pi 57) and exp(240 pi), each above the float maximum
    ("s1-line-bundle", {"connection": {"kind": "matrix", "fiber_dim": 1,
                                       "omega": [[["-120"]]]}}),
    ("s1-line-bundle", {
        "coords": [{"name": "theta", "range": [0.0, 2 * np.pi],
                    "period": 2 * np.pi}],
        "connection": {"kind": "christoffel",
                       "gamma": {"theta": {"theta,theta": "57"}}},
        "loops": [{"name": "t", "exprs": ["t"], "t_range": [0.0, 2 * np.pi]}],
        "grid": {"values": [[0.5, 2.0, 3.5, 5.0]]}}),
], ids=["matrix", "christoffel"])
def test_overflowing_holonomy_fails_the_holonomy_stage(tmp_path, entry,
                                                       patch):
    # the transported basis overflowed, and the defect's SVD raised a
    # LinAlgError, after both doubling levels ran to the cap on NaN
    # estimates; no overflow warning escapes either
    doc = dict(get_entry(entry).manifest_doc, **patch)
    doc.pop("expected")
    path, out = tmp_path / "m.json", tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path), "--out", str(out)]) == 2
    report = json.loads(out.read_bytes())
    assert report["holonomy"] is None
    note, = report["notes"]
    assert note.startswith("holonomy stage failed: transport along ")
    assert note.endswith(" overflowed: the transported vector is not finite")
    gv = report["global_verdict"]
    if gv is not None:  # Sym^2: the verdict's one note is the report's
        assert note == ("holonomy stage failed: transport along 't' "
                        "overflowed: the transported vector is not finite")
        assert (gv["status"], gv["wtilde_rank"]) == ("inconclusive", 1)
        assert gv["notes"] == [note]


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
    locals_ = _count_calls(monkeypatch, "paracon.flag", "local_metricity")
    pds = _count_calls(monkeypatch, "paracon.pdcone", "pd_feasible")
    verdicts = _count_calls(monkeypatch, "paracon.globalmetric",
                            "global_metricity")
    out = tmp_path / "r.json"
    assert main(["analyze", str(man), "--out", str(out),
                 "--steps", "512"]) == 0
    assert len(scans) == 1
    assert len(flags) == 1  # the base point; the scan is one batched call
    # the flag is [3] everywhere, so each batch takes one level-0 step: one
    # for the whole grid and one for the base point
    assert len(kernels) == 2
    assert len(holos) == 1
    # the local stage is one batched call over the 40 points, so the one
    # pd_feasible is the verdict's
    assert len(locals_) == 1
    assert len(pds) == 1
    assert len(verdicts) == 1


def test_analysis_runs_each_stage_once_in_order(monkeypatch):
    # the analysis runs the pipeline when it is built, each stage once and in
    # order; the report only reads the stages
    calls = {name: _count_calls(monkeypatch, f"paracon.{module}", name)
             for module, name in (("flag", "regularity_scan"),
                                  ("flag", "local_metricity"),
                                  ("flag", "derived_flag"),
                                  ("transport", "holonomy_matrix"),
                                  ("globalmetric", "global_metricity"))}
    man = get_entry("punctured-plane").manifest()
    an = man.analysis()
    build_report(man, an)
    assert man.loops
    assert {name: len(c) for name, c in calls.items()} == dict(
        dict.fromkeys(calls, 1), holonomy_matrix=len(man.loops))
    assert [name for name, _ in an.timings] == [
        "scan", "local", "base_trace", "holonomies", "fixed", "verdict"]


def test_corpus_report_and_goldens_share_one_analysis(monkeypatch):
    scans = _count_calls(monkeypatch, "paracon.flag", "regularity_scan")
    flags = _count_calls(monkeypatch, "paracon.flag", "derived_flag")
    holos = _count_calls(monkeypatch, "paracon.transport", "holonomy_matrix")
    verdicts = _count_calls(monkeypatch, "paracon.globalmetric",
                            "global_metricity")
    assert main(["corpus", "--id", "sphere"]) == 0
    assert len(scans) == len(flags) == len(verdicts) == 1
    assert len(holos) == len(get_entry("sphere").manifest_doc["loops"]) == 2


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


def _assert_canonical_with_digest(raw: bytes):
    """The written bytes are the canonical JSON of the report they hold, and
    the digest is the sha256 of the canonical report without it."""
    doc = json.loads(raw)
    assert raw == canonical_json(doc).encode("utf-8")
    body = canonical_json({k: v for k, v in doc.items()
                           if k != "report_digest"})
    assert doc["report_digest"] == \
        hashlib.sha256(body.encode("utf-8")).hexdigest()


def test_finalize_splices_the_digest_at_its_sorted_place():
    tricky = "a\n  \"tool_version\": x"  # escaped in JSON: no false match
    for report in ({"z": [1, {"b": tricky}], "a": -0.0},
                   {"tool_version": "1", "caveats": [], "s": tricky},
                   {"report_c": {"report_e": 1}, "tool_version": "1"}):
        raw = b"".join(_finalize(report))
        assert raw == canonical_json(report).encode("utf-8")
        _assert_canonical_with_digest(raw)


@pytest.mark.parametrize("entry_id", ENTRY_IDS)
def test_cli_reports_are_encoded_once_and_canonical(tmp_path, entry_id):
    man = _write_manifest(tmp_path, entry_id)
    out = tmp_path / "analyze.json"
    assert main(["analyze", str(man), "--out", str(out),
                 "--steps", "512"]) in (0, 2)
    _assert_canonical_with_digest(out.read_bytes())


def test_cli_flag_and_holonomy_reports_are_canonical(tmp_path):
    man = _write_manifest(tmp_path, "punctured-plane")
    out = tmp_path / "flag.json"
    assert main(["flag", str(man), "--point", "1.0,0.5",
                 "--out", str(out)]) == 0
    _assert_canonical_with_digest(out.read_bytes())


def _plain(obj):
    """A document as plain JSON values: the input of the stdlib encoder that
    the array-aware writer replaced, kept as its reference."""
    if isinstance(obj, Rows):
        rows = obj.classes
        if rows is None:
            rows = range(len(next(iter({**obj.columns, **obj.own}.values()))))
        return [dict({k: _plain(col[r] if k not in obj.cut
                                else col[r][..., :obj.cut[k][r]])
                      for k, col in obj.columns.items()},
                     **{k: _plain(col[i]) for k, col in obj.own.items()})
                for i, r in enumerate(rows)]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if v != v or v in (float("inf"), float("-inf")):
            return None
        return v
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _reference_json(doc):
    return json.dumps(_plain(doc), sort_keys=True, indent=2,
                      ensure_ascii=False) + "\n"


def _sphere_shaped_rows(m=900):
    """Columns shaped as a sphere flag's report over an m-point grid."""
    rng = np.random.default_rng(15)
    side = int(np.sqrt(m))
    axes = np.linspace(0.3, 2.8, side), np.linspace(0.6, 5.6, m // side)
    pts = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")],
                   axis=1)
    last = rng.integers(0, 2, m)
    dims = np.where(np.arange(2) <= last[:, None], [3, 1], 0)
    return Rows({
        "point": pts,
        "dims": dims,
        "stabilization_level": last,
        "terminal_dim": dims[np.arange(m), last],
        "terminal_basis": rng.standard_normal((m, 3, 1)),
        "sv_gap": np.where(rng.random(m) < 0.1, np.inf, rng.random(m)),
    }, cut={"dims": last + 1, "terminal_basis": np.ones(m, int)})


_WRITER_CASES = {
    "floats": [-0.0, 5e-324, 1e16, 1e-7, float("nan"), float("inf"),
               float("-inf"), 0.1, -2.5e-300, 1.7976931348623157e308],
    "numpy scalars": {"f": np.float64(0.1), "i": np.int64(-7),
                      "t": np.bool_(True), "n": np.float64("nan"),
                      "f32": np.float32(0.1), "u": np.uint8(200)},
    "big int": {"above 2**53": 2 ** 53 + 1, "huge": -(2 ** 80)},
    "empty": {"d": {}, "l": [], "nested": [{}, [], [[]], ()]},
    "terminal dim 0": np.zeros((3, 4, 0)),
    "no rows": np.zeros((0, 4)),
    "arrays": {"bool": np.array([[True, False], [False, True]]),
               "int": np.arange(6, dtype=np.int32).reshape(2, 3),
               "float": np.array([[-0.0, np.nan], [np.inf, 1e-300]]),
               "0-d": np.array(2.5), "3-d": np.arange(24.0).reshape(2, 3, 4),
               "strings": np.array(["a", "b"])},
    "non-ASCII": {"métrique": "∇s = s ⊗ Φ, \u2028 \"q\"\n\t\x00"},
    "rows": Rows({"p": np.arange(8.0).reshape(4, 2),
                  "b": np.arange(24.0).reshape(4, 3, 2) - 11.5,
                  "d": np.array([[3, 2, 2], [3, 1, 0], [2, 2, 0],
                                 [1, 0, 0]]),
                  "s": np.array(["feasible", "ü", "", "\\"]),
                  "g": np.array([np.inf, 0.5, np.nan, -0.0])},
                 cut={"b": np.array([2, 0, 1, 2]),
                      "d": np.array([3, 2, 1, 1])}),
    "no records": Rows({"p": np.zeros((0, 2)), "s": np.zeros(0, bool)}),
    # records alternate between three cut signatures: the grouping by
    # signature must put each record back at its place
    "three cut signatures": Rows(
        {"b": np.arange(54.0).reshape(9, 3, 2), "i": np.arange(9),
         "d": np.arange(27).reshape(9, 3) - 13},
        cut={"b": np.array([2, 1, 0] * 3), "d": np.array([3, 1, 2] * 3)}),
    "cut of width 0": Rows({"b": np.ones((3, 2, 4)), "p": np.arange(3.0)},
                           cut={"b": np.zeros(3, int)}),
    "repeated bools and strings": Rows(
        {"t": np.arange(300) % 3 == 0,
         "s": np.array(["feasible", "inconclusive", "ü"] * 100),
         "o": np.array(["x"] * 300)}),
    "non-finite in a cut column": Rows(
        {"g": np.array([[np.nan, 1.0, np.inf], [-np.inf, np.nan, -0.0],
                        [0.0, np.inf, np.nan]])},
        cut={"g": np.array([3, 2, 1])}),
    # arrays of 256 or more numbers: each distinct value's text made once
    "large number arrays": {
        "f": np.tile([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 0.1,
                      5e-324, 1e16, -2.5], 40),
        "f32": np.tile(np.float32([0.1, -0.0, 3.0]), 100),
        "i": np.tile(np.arange(-5, 5), (40, 1)),
        "u": np.arange(300, dtype=np.uint8),
        "nan bits": np.array([0x7FF8000000000001, 0xFFF0000000000001,
                              0x7FF0000000000000] * 100,
                             dtype=np.uint64).view(np.float64)},
    "keys with percent signs": Rows({"%s": np.arange(2.0), "a%%d": np.ones(2),
                                     "%": np.array(["%s", "%"])}),
    "sphere-shaped rows": _sphere_shaped_rows(),
    # records read class rows out of order, cut to a class's width; own
    # columns are per record
    "class rows": Rows(
        {"b": np.arange(18.0).reshape(3, 3, 2) - 8.5,
         "c": np.arange(9).reshape(3, 3) - 4,
         "s": np.array(["%s", "100%", "%%d"]), "d": np.array([4, 0, 2])},
        cut={"b": np.array([2, 0, 1]), "c": np.array([3, 1, 1])},
        classes=np.array([2, 0, 2, 1, 0]),
        own={"p": np.array([[0.5, -0.0], [np.nan, 1e-300], [0.1, 2.0],
                            [np.inf, 3.0], [-2.5, 7.0]])}),
}


@pytest.mark.parametrize("case", list(_WRITER_CASES))
def test_writer_matches_stdlib_encoder(case):
    for doc in (_WRITER_CASES[case], {"top": _WRITER_CASES[case],
                                      "z": [_WRITER_CASES[case]]}):
        assert canonical_json(doc) == _reference_json(doc)


@pytest.mark.parametrize("entry_id", ENTRY_IDS)
def test_writer_matches_stdlib_encoder_on_analyze_reports(entry_id):
    man = get_entry(entry_id).manifest()
    report, pieces = build_report(man, man.analysis())
    ref = _reference_json(report)
    assert canonical_json(report) == ref
    assert b"".join(pieces) == ref.encode("utf-8")


def test_writer_matches_stdlib_encoder_on_the_fine_grid_report():
    doc = dict(get_entry("sphere").manifest_doc, loops=[])
    doc.pop("expected", None)
    (lo, hi), pad = doc["coords"][0]["range"], 0.1 * np.pi
    doc["grid"] = {"values": [
        np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 30).tolist(),
        np.linspace(pad + 0.1, 2 * np.pi - pad, 30).tolist()]}
    man = manifest_from_dict(doc)
    report, pieces = build_report(man, man.analysis())
    assert len(report["flag_traces"].own["point"]) == 900
    ref = _reference_json(report)
    assert canonical_json(report) == ref
    assert b"".join(pieces) == ref.encode("utf-8")


def test_cli_parser_is_built_once_and_keeps_no_arguments(tmp_path):
    man = _write_manifest(tmp_path, "punctured-plane")
    with_k, without = tmp_path / "k5.json", tmp_path / "k.json"
    assert main(["analyze", str(man), "--out", str(with_k), "--param",
                 "k=0.5", "--steps", "1024"]) == 0
    parser = _parser()
    main(["analyze", str(man), "--out", str(without), "--steps", "1024"])
    assert _parser() is parser
    fresh = load_manifest(str(man))
    fresh.steps = {"rk4": 1024, "quadrature": 1024}
    assert without.read_bytes() == b"".join(
        build_report(fresh, fresh.analysis())[1])
    assert json.loads(with_k.read_bytes())["global_verdict"]["fixed_dim"] == 3
    assert json.loads(without.read_bytes())["global_verdict"]["fixed_dim"] \
        != 3


def test_cli_version_and_usage_errors_exit_as_argparse_does(capsys):
    for argv, code in ((["--version"], 0), (["analyze"], 2),
                       (["bogus"], 2), (["global", "m.json"], 2),
                       (["--version"], 0)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
    out, err = capsys.readouterr()
    assert out == f"paracon {__version__}\n" * 2
    assert err.count("usage: paracon") == 3


def test_corpus_command_takes_no_param_override(capsys):
    # goldens hold only at an entry's own parameters
    with pytest.raises(SystemExit) as exc:
        main(["corpus", "--id", "flat-trivial", "--param", "k=1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --param k=1" in capsys.readouterr().err
