"""Smoke test of the benchmark in ``perfbench/``: one traced pass of a
workload must be correct and pass every tracer check.  Nothing here depends
on timings."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _traced_pass(workload):
    """One traced pass; returns the parsed result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert result["correct"] is True, detail
    assert detail["check_problems"] == []
    assert result["failed"] == 0
    return result


def test_benchmark_traced_fine_grid_pass_is_correct():
    # the tracer asserts that pd_feasible and local_metricity run here and
    # that transport is bypassed
    metrics = _traced_pass("fine-grid")["metrics"]
    # the local stage is one batched call over the 900 grid points; the one
    # pd_feasible is the verdict's
    assert metrics["flag.local_metricity.calls"]["value"] == 1
    assert metrics["pdcone.pd_feasible.calls"]["value"] == 1


# the public entry points the derivative tables and the flag's jet must go
# through, so that the tracer sees them
_CONTRACT = ("expr.diff", "expr.compile_expr", "bundle.omega_stack",
             "bundle.curvature_stack", "flag.curvature_kernel")


def _assert_called(metrics, names):
    for name in names:
        assert metrics[f"{name}.calls"]["value"] >= 1, name


def test_benchmark_traced_deep_flag_pass_is_correct():
    # the workload whose deep flags read the jet's covariant rows: they must
    # still come through the traced layers
    _assert_called(_traced_pass("deep-flag")["metrics"],
                   _CONTRACT + ("flag.second_fundamental_kernel",))


def test_benchmark_traced_corpus_pass_is_correct():
    # the only workload on which the tracer requires phi_periods and
    # batch_terminal_bases to run
    metrics = _traced_pass("corpus")["metrics"]
    _assert_called(metrics, _CONTRACT + ("flag.second_fundamental_kernel",
                                         "flag.batch_terminal_bases"))
    # one verdict per Sym^2 entry: five of the six are Christoffel
    assert metrics["globalmetric.global_metricity.calls"]["value"] == 5


def test_benchmark_traced_loops_3d_pass_is_correct():
    # the only workload that runs 16384-step transport, under the tracer's
    # checks that transport is exercised and that phi_periods is bypassed
    _assert_called(_traced_pass("loops-3d")["metrics"], _CONTRACT)
