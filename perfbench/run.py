"""Benchmark of ``paracon analyze``: one manifest in, one verdict report out.

Usage (from the repository root)::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

The benchmark generates the workload's manifests from ``--seed`` and drives
the CLI entry in-process, ``paracon.cli.main(["analyze", ...])``, with the
program's defaults (``PARACON_THREADS`` unset).  It is a closed loop: one
caller runs analyze passes over the workload's manifests back to back until
``--seconds`` have elapsed, and checks every report.

``--trace 0`` prints the end-to-end metrics:

* ``analyze_s``: median wall time of one pass, in the warm process;
* ``setup_s``: median over fresh processes of the time to start Python,
  import ``paracon`` and load and validate the workload's manifests;
* ``peak_rss_mb``: peak resident memory of this process over its passes.

``failed_frac`` (failed analyze calls over calls attempted) is the
``failed`` / ``attempted`` pair of the result line.  A call fails when it
raises or exits with code 1, when its verdict differs from the one expected
for the workload, or when its report is not byte-identical to the first
report of the same manifest in the run.

``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics of the traced passes (see ``tracer.LAYERS``) and ``trace.overhead_s``,
the traced minus the untraced median pass time.  It also checks that every
layer is called on the workloads predicted to exercise it, not at all on the
workloads predicted to bypass it, that counts repeat exactly from pass to
pass and that no self time is negative.

The last line of standard output is the result object; the line before it
holds the run's setting, the pass samples and any problems found.  Outputs
go to ``.perfbench_out/`` under the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy

from tracer import LAYERS, Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
# fresh processes timed for setup_s, after one that fills the bytecode cache
SETUP_RUNS = 7
SETUP_CODE = ("import sys\n"
              "import paracon.cli\n"
              "from paracon.manifest import load_manifest\n"
              "for path in sys.argv[1:]:\n"
              "    load_manifest(path)\n")


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _summary(values):
    q1, med, q3 = _quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "samples": len(values),
            "values": values}


class Runner:
    """Runs analyze passes over one workload's jobs and checks each report."""

    def __init__(self, cli, jobs, out_dir):
        self.cli = cli
        self.jobs = jobs
        self.out_dir = out_dir
        self.first = {}  # job name -> bytes of its first report
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _out(self, job):
        return os.path.join(self.out_dir, f"{job.name}.report.json")

    def run_pass(self):
        """One closed-loop pass; returns its wall time in seconds."""
        for job in self.jobs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self._out(job))
        outcomes = []
        sink = io.StringIO()
        t0 = time.perf_counter()
        for job in self.jobs:
            try:
                with contextlib.redirect_stdout(sink):
                    outcomes.append(self.cli.main(
                        ["analyze", job.manifest_path, "--out",
                         self._out(job)]))
            except Exception:  # a raising call is a failed call
                outcomes.append(traceback.format_exc(limit=3))
        elapsed = time.perf_counter() - t0
        for job, outcome in zip(self.jobs, outcomes):
            self._check(job, outcome)
        return elapsed

    def _check(self, job, outcome):
        self.attempted += 1
        if isinstance(outcome, str):
            problems = [f"raised: {outcome}"]
        elif outcome == 1:
            problems = ["exit code 1"]
        elif not os.path.isfile(self._out(job)):
            problems = ["no report written"]
        else:
            with open(self._out(job), "rb") as fh:
                body = fh.read()
            first = self.first.setdefault(job.name, body)
            problems = [] if body == first else [
                "report differs from the first report of the run"]
            try:
                problems += job.check(json.loads(body), outcome)
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"malformed report: {exc!r}")
        if problems:
            self.failed += 1
            self.problems.append({"job": job.name, "problems": problems[:5]})


def setup_times(manifests, env):
    """Fresh-process import and manifest-loading times, in seconds."""
    cmd = [sys.executable, "-c", SETUP_CODE, *manifests]
    times = []
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"setup process failed:\n{proc.stderr}")
        if i:
            times.append(elapsed)
    return times


def timed_run(runner, seconds, env):
    setup = setup_times([j.manifest_path for j in runner.jobs], env)
    samples = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        samples.append(runner.run_pass())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "analyze_s": {"value": statistics.median(samples), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    detail = {"analyze_s": _summary(samples), "setup_s": _summary(setup)}
    return metrics, detail, []


def _layer_metrics(stats):
    out = {}
    for layer in LAYERS:
        st = stats[layer.key]
        out[f"{layer.key}.calls"] = (st["calls"], "count")
        out[f"{layer.key}.self_s"] = (st["self_s"], "s")
        for name in layer.counters:
            if name == "definite":  # a share of the calls; 0 without calls
                frac = st.get(name, 0) / st["calls"] if st["calls"] else 0.0
                out[f"{layer.key}.definite_frac"] = (frac, "ratio")
            else:
                out[f"{layer.key}.{name}"] = (st.get(name, 0), "count")
    return out


def traced_run(runner, seconds, workload):
    plain, traced, passes = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(runner.run_pass())
        with Tracer() as tr:
            traced.append(runner.run_pass())
        passes.append(tr)

    problems = []
    counts = [{k: v for k, v in _layer_metrics(tr.stats).items()
               if v[1] != "s"} for tr in passes]
    if any(c != counts[0] for c in counts):
        problems.append("per-layer counts differ between traced passes")
    if min(tr.min_self_s for tr in passes) < 0.0:
        problems.append("negative self time")
    for layer in LAYERS:
        calls = passes[0].stats[layer.key]["calls"]
        if workload in layer.exercised and calls < 1:
            problems.append(f"{layer.key} not called on {workload}")
        if workload in layer.bypassed and calls != 0:
            problems.append(f"{layer.key} called {calls}x on {workload}, "
                            "which should bypass it")

    metrics = {}
    for name, (value, unit) in _layer_metrics(passes[0].stats).items():
        if unit == "s":
            value = statistics.median(
                tr.stats[name.rsplit(".", 1)[0]]["self_s"] for tr in passes)
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced) - statistics.median(plain),
        "unit": "s"}
    detail = {"analyze_s": _summary(plain),
              "traced_analyze_s": _summary(traced),
              "min_self_s": min(tr.min_self_s for tr in passes),
              "layer_map": {layer.key: layer.moves for layer in LAYERS}}
    return metrics, detail, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "paracon", "cli.py")):
        print(f"paracon sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    # program defaults: the scan worker count comes from the machine
    os.environ.pop("PARACON_THREADS", None)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    import paracon.cli as cli

    out_dir = os.path.join(OUT, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    jobs = WORKLOADS[args.workload](ROOT, out_dir, args.seed)
    runner = Runner(cli, jobs, out_dir)
    if args.trace:
        metrics, detail, problems = traced_run(runner, args.seconds,
                                               args.workload)
    else:
        metrics, detail, problems = timed_run(runner, args.seconds, env)

    # worker_count is absent once the program drops its scan thread pool
    worker_count = getattr(cli, "worker_count", None)
    setting = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__,
        "program_defaults": True, "paracon_threads": "unset",
        "scan_workers": worker_count() if worker_count else 1,
        "loop": "closed, 1 caller", "jobs": [j.name for j in jobs],
    }
    failed_frac = runner.failed / runner.attempted
    detail.update(setting=setting, failed_frac={"value": failed_frac,
                                                "unit": "ratio"},
                  check_problems=problems, failed_calls=runner.problems[:10])
    with open(os.path.join(out_dir, f"run-seed{args.seed}-trace{args.trace}"
                                    ".json"), "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "metrics": metrics}, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps({"correct": runner.failed == 0 and not problems,
                      "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
