"""Outside-in tracing of paracon's layers.

The program is not modified: :class:`Tracer` replaces the public functions of
each layer module with wrappers that record a span per call, and undoes that
on exit.  A function is replaced at every module that holds it, because
``cli``, ``globalmetric``, ``transport`` and ``flag`` import many of them by
name, and patching only the defining module would miss those calls.

Each thread keeps its own stack of open spans.  A span opened on a worker
thread (the regularity scan runs on a thread pool) with an empty stack takes
the innermost span open on the tracing thread as its parent.  A span's self
time is its duration minus the union of its children's intervals, so it is
never negative even when children on two threads overlap.  A call that
re-enters the function it is already inside (``compile_expr`` and ``diff``
recurse) is part of the outer span, not a span of its own.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _points(args, kwargs, result):
    return int(np.atleast_2d(np.asarray(_arg(args, kwargs, 1, "points")))
               .shape[0])


@dataclass
class Layer:
    """One wrapped function: its end-to-end effect and the counts it records.

    ``moves`` names the end-to-end metric and the workloads a change to the
    function should show on.  ``counters`` maps a counter name to
    ``f(args, kwargs, result)``, its increment per call.  ``exercised`` names
    the workloads that must call the function at least once; ``bypassed``
    those whose inputs rule the function out, which must not call it at all.
    """

    module: str
    name: str
    moves: str
    counters: dict = field(default_factory=dict)
    exercised: tuple = ()
    bypassed: tuple = ()

    @property
    def key(self):
        return f"{self.module}.{self.name}"


ALL = ("corpus", "fine-grid", "deep-flag", "loops-3d")
CHRISTOFFEL = ("corpus", "fine-grid", "loops-3d")
LOOPS = ("corpus", "deep-flag", "loops-3d")
PER_POINT = "analyze_s on fine-grid and deep-flag"

# The layer -> end-to-end metric map.
LAYERS = (
    Layer("manifest", "load_manifest", "setup_s on every workload",
          exercised=ALL),
    Layer("expr", "parse_expr", "setup_s on every workload", exercised=ALL),
    Layer("expr", "diff", "setup_s on every workload", exercised=ALL),
    Layer("expr", "compile_expr", "setup_s on every workload; analyze_s on "
          "loops-3d through excluded-set checks", exercised=ALL),
    Layer("bundle", "omega_stack", "analyze_s on corpus, fine-grid and "
          "loops-3d; Christoffel assembly does not move deep-flag",
          counters={"points": _points}, exercised=ALL),
    Layer("bundle", "curvature_stack", "analyze_s on corpus, fine-grid and "
          "loops-3d; Christoffel assembly does not move deep-flag",
          counters={"points": _points}, exercised=ALL),
    Layer("flag", "regularity_scan", PER_POINT, exercised=ALL),
    Layer("flag", "derived_flag", PER_POINT, exercised=ALL),
    Layer("flag", "curvature_kernel", PER_POINT, exercised=ALL),
    Layer("flag", "second_fundamental_kernel", PER_POINT,
          exercised=("corpus", "fine-grid", "deep-flag")),
    Layer("flag", "batch_terminal_bases", "analyze_s on corpus only",
          counters={"points": _points}, exercised=("corpus",)),
    Layer("flag", "local_metricity", "analyze_s on fine-grid",
          exercised=CHRISTOFFEL),
    Layer("transport", "holonomy_matrix", "analyze_s on loops-3d and partly "
          "corpus; not fine-grid", exercised=LOOPS, bypassed=("fine-grid",)),
    Layer("transport", "transport", "analyze_s on loops-3d and partly "
          "corpus; not fine-grid",
          counters={"rk4_steps": lambda a, k, r: int(
              _arg(a, k, 3, "steps", 4096))},
          exercised=LOOPS, bypassed=("fine-grid",)),
    Layer("pdcone", "pd_feasible", "analyze_s on fine-grid; not deep-flag",
          counters={"definite": lambda a, k, r: int(
              r.status in ("feasible", "infeasible_certified"))},
          exercised=CHRISTOFFEL, bypassed=("deep-flag",)),
    Layer("globalmetric", "global_metricity", "analyze_s on corpus only",
          exercised=CHRISTOFFEL),
    Layer("globalmetric", "phi_periods", "analyze_s on corpus only",
          counters={"points": lambda a, k, r: len(_arg(a, k, 1, "loops"))
                    * int(_arg(a, k, 2, "quadrature_steps", 4096))},
          exercised=("corpus",),
          bypassed=("fine-grid", "deep-flag", "loops-3d")),
    Layer("cli", "main", "analyze_s on every workload", exercised=ALL),
    Layer("cli", "build_report", "analyze_s on fine-grid", exercised=ALL),
    Layer("cli", "canonical_json", "analyze_s on fine-grid",
          counters={"bytes": lambda a, k, r: len(r.encode("utf-8"))},
          exercised=ALL),
)


@dataclass
class _Span:
    key: str
    parent: Optional["_Span"]
    t0: float
    t1: float = 0.0
    children: list = field(default_factory=list)  # (t0, t1) intervals


def _union(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    """Context manager that wraps every layer in ``LAYERS`` while active.

    ``stats[key]`` accumulates ``calls``, ``self_s`` and the layer's extra
    counters; ``min_self_s`` is the smallest self time of any span.
    """

    def __init__(self):
        self.stats = {}
        self.min_self_s = float("inf")
        self._local = threading.local()
        self._root_stack = None
        self._lock = threading.Lock()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, key, fn, counters=None):
        """Wrap ``fn`` so that each outermost call records a span."""
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1].key == key:
                return fn(*args, **kwargs)  # recursion: part of the outer span
            if stack:
                parent = stack[-1]
            else:
                root = self._root_stack
                parent = root[-1] if root and root is not stack else None
            sp = _Span(key, parent, time.perf_counter())
            stack.append(sp)
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.t1 = time.perf_counter()
                stack.pop()
                self._close(sp)
            if counters:
                with self._lock:
                    st = self.stats[key]
                    for name, f in counters.items():
                        st[name] = st.get(name, 0) + f(args, kwargs, result)
            return result

        return wrapper

    def _close(self, sp):
        self_s = (sp.t1 - sp.t0) - _union(sp.children, sp.t0, sp.t1)
        with self._lock:
            if sp.parent is not None:
                sp.parent.children.append((sp.t0, sp.t1))
            st = self.stats[sp.key]
            st["calls"] += 1
            st["self_s"] += self_s
            self.min_self_s = min(self.min_self_s, self_s)

    def __enter__(self):
        self._root_stack = self._stack()
        originals = [getattr(importlib.import_module(f"paracon.{l.module}"),
                             l.name) for l in LAYERS]
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and name.split(".")[0] == "paracon"]
        for layer, original in zip(LAYERS, originals):
            self.stats[layer.key] = {"calls": 0, "self_s": 0.0}
            wrapped = self.span(layer.key, original, layer.counters)
            # every import site: each paracon module holding the function
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)
                        self._patched.append((m, attr, original))
        return self

    def __exit__(self, *exc):
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()
        return False
