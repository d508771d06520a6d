"""Compare the ``analyze`` reports of two checkouts of paracon.

Usage (from the repository root)::

    python3 tools/compare_reports.py PARENT_ROOT

The manifests are the benchmark's: the six corpus entries and the
fine-grid, deep-flag and loops-3d workloads at seeds 1 and 5, generated by
``perfbench/workloads.py`` of this checkout into a temporary directory.
Each manifest is analyzed by ``python -m paracon analyze`` in a fresh
process in both trees (this one and ``PARENT_ROOT``), and the exit codes
and report bytes are compared.  For each report that differs, the table
gives the largest ``|new - old|`` per JSON field path, list indices written
``[]``; a field whose values are not both numbers counts its changes
instead.  Exit status: 0 when every report and exit code is the same, 1
otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 5)


def _jobs(out_dir):
    """(label, manifest path) for the corpus and every seeded workload."""
    sys.dont_write_bytecode = True  # leave no cache in the benchmark's tree
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from workloads import WORKLOADS
    jobs = [(f"corpus/{j.name}", j.manifest_path)
            for j in WORKLOADS["corpus"](ROOT, out_dir, 1)]
    for name, make in WORKLOADS.items():
        if name == "corpus":
            continue
        for seed in SEEDS:
            sub = os.path.join(out_dir, f"{name}-{seed}")
            os.makedirs(sub)
            jobs += [(f"{name}/{seed}/{j.name}", j.manifest_path)
                     for j in make(ROOT, sub, seed)]
    return jobs


def _analyze(tree, manifest, out):
    # a run that writes no report must not be read as the last job's
    if os.path.exists(out):
        os.remove(out)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "paracon", "analyze", manifest, "--out", out],
        env=env, cwd=tree, capture_output=True, timeout=600)
    body = None
    if os.path.isfile(out):
        with open(out, "rb") as fh:
            body = fh.read()
    return proc.returncode, body


def _leaves(doc, path=""):
    """(path, value) for each leaf of a parsed JSON document."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _leaves(v, f"{path}.{k}" if path else k)
    elif isinstance(doc, list):
        for v in doc:
            yield from _leaves(v, path + "[]")
        if not doc:
            yield path, ()
    else:
        yield path, doc


def field_diffs(old, new) -> dict:
    """Field path -> largest |new - old| over its numeric leaves, or the
    count of its other changed leaves as a string, for two parsed reports.
    Leaves pair in document order; a path whose leaf counts differ is
    reported as changed in shape."""
    olds, news = {}, {}
    for leaves, doc in ((olds, old), (news, new)):
        for path, v in _leaves(doc):
            leaves.setdefault(path, []).append(v)
    out = {}
    for path in sorted(set(olds) | set(news)):
        a, b = olds.get(path, []), news.get(path, [])
        if len(a) != len(b):
            out[path] = f"shape {len(a)} -> {len(b)} leaves"
            continue
        worst, other = 0.0, 0
        for x, y in zip(a, b):
            numeric = all(isinstance(v, (int, float))
                          and not isinstance(v, bool) for v in (x, y))
            if numeric:
                worst = max(worst, abs(y - x))
            elif x != y:
                other += 1
        if other:
            out[path] = f"{other} changed"
        elif worst > 0:
            out[path] = worst
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="root of the checkout to compare with")
    args = parser.parse_args(argv)
    parent = os.path.abspath(args.parent)
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for label, manifest in _jobs(os.path.join(tmp, "in")):
            outs = [os.path.join(tmp, f"{side}.json") for side in "on"]
            (code_old, old), (code_new, new) = (
                _analyze(tree, manifest, out)
                for tree, out in zip((parent, ROOT), outs))
            same = code_old == code_new and old == new
            print(f"{'same' if same else 'DIFFERS'} {label}: exit "
                  f"{code_old} -> {code_new}, "
                  f"{len(old or b'')} -> {len(new or b'')} bytes")
            if same:
                continue
            differ += 1
            if old is None or new is None:
                print("    a report is missing")
                continue
            for path, d in field_diffs(json.loads(old),
                                       json.loads(new)).items():
                text = d if isinstance(d, str) else f"max |new - old| {d:.3e}"
                print(f"    {path}: {text}")
    print(f"{differ} of the reports differ" if differ
          else "every report and exit code is the same")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
