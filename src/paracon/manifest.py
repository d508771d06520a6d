"""Manifest ingestion: JSON documents describing a chart, a connection,
loops, a sample grid and tolerances.

Validation failures carry JSON-pointer-style paths into the offending field.
Christoffel entries are keyed ``gamma[upper]["k,i"]`` by coordinate name,
where ``k`` is the derivative direction (first lower index); omitted entries
are zero and lower-index symmetry is not assumed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bundle import ConnectionSpec, Domain
from .expr import ExprError, parse_expr
from .transport import MIN_RK4_STEPS, Curve

__all__ = ["Manifest", "ManifestError", "load_manifest", "manifest_from_dict",
           "manifest_digest", "with_params", "build_steps",
           "DEFAULT_TOLERANCES", "DEFAULT_STEPS", "PD_TOL_MIN"]

DEFAULT_TOLERANCES = {
    "rank_tol": 1e-7,
    "holonomy_tol": 1e-5,
    "period_tol": None,      # None -> 1e-4 * (1 + loop length)
    "pd_tol": 1e-8,
    "fixed_tol": 1e-6,
}
DEFAULT_STEPS = {"rk4": 4096, "quadrature": 4096}
_GRID_INSET = 0.1
# pdcone decides in units of each span's largest generator norm; below this
# (a few dozen rounding units) rounding, not the span, decides feasibility
PD_TOL_MIN = 1e-14


class ManifestError(ValueError):
    def __init__(self, pointer, message):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer


def _parse(pointer, text):
    try:
        return parse_expr(str(text))
    except ExprError as exc:
        raise ManifestError(pointer, f"bad expression: {exc}") from None


@dataclass
class Manifest:
    """Validated manifest with constructed domain, spec, loops and grid."""

    raw: dict
    domain: Domain
    spec: ConnectionSpec
    base_point: np.ndarray
    loops: list
    grid_axes: list
    tolerances: dict
    steps: dict

    @property
    def id(self):
        return self.raw.get("id", "")

    def digest(self) -> str:
        return manifest_digest(self.raw)

    def pipeline_options(self) -> dict:
        """Keyword settings of ``Analysis``."""
        return dict(self.tolerances, rk4_steps=self.steps["rk4"],
                    quadrature_steps=self.steps["quadrature"])


def manifest_digest(doc: dict) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _require(doc, key, pointer, typ=None):
    if not isinstance(doc, dict):
        raise ManifestError(pointer, "expected dict, got "
                                     f"{type(doc).__name__}")
    if key not in doc:
        raise ManifestError(f"{pointer}/{key}", "missing required field")
    val = doc[key]
    if typ is not None and not isinstance(val, typ):
        raise ManifestError(f"{pointer}/{key}",
                            f"expected {typ.__name__}, got {type(val).__name__}")
    return val


def _optional(doc, key, typ, pointer=""):
    """The field ``key`` of ``doc``, an empty ``typ`` when it is absent."""
    val = doc.get(key, typ())
    if not isinstance(val, typ):
        raise ManifestError(f"{pointer}/{key}", f"expected {typ.__name__}, "
                                                f"got {type(val).__name__}")
    return val


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _float(v, pointer) -> float:
    """A number of the manifest (not a bool) as a float."""
    if not _is_number(v):
        raise ManifestError(pointer, f"expected a number, got {v!r}")
    return float(v)


def _numbers(v, pointer, count: int) -> list:
    """A list of ``count`` numbers as floats."""
    if not isinstance(v, list) or len(v) != count:
        raise ManifestError(pointer, f"expected a list of {count} numbers, "
                                     f"got {v!r}")
    return [_float(x, f"{pointer}/{i}") for i, x in enumerate(v)]


def _require_count(v, pointer, least: int):
    """Reject anything but an integer (not a bool) of at least ``least``."""
    if isinstance(v, bool) or not isinstance(v, int) or v < least:
        raise ManifestError(pointer, f"expected an integer of at least "
                                     f"{least}, got {v!r}")


def _build_domain(doc) -> Domain:
    coords = _require(doc, "coords", "", list)
    if not coords:
        raise ManifestError("/coords", "at least one coordinate required")
    names, lows, highs, periods = [], [], [], []
    for i, c in enumerate(coords):
        ptr = f"/coords/{i}"
        name = _require(c, "name", ptr, str)
        rng = _require(c, "range", ptr, list)
        if len(rng) != 2:
            raise ManifestError(f"{ptr}/range", "range must be [low, high]")
        lo = -math.inf if rng[0] is None else _float(rng[0], f"{ptr}/range/0")
        hi = math.inf if rng[1] is None else _float(rng[1], f"{ptr}/range/1")
        if not lo < hi:
            raise ManifestError(f"{ptr}/range", "range must be non-degenerate")
        names.append(name)
        lows.append(lo)
        highs.append(hi)
        periods.append(_float(c["period"], f"{ptr}/period")
                       if c.get("period") else None)
    if len(set(names)) != len(names):
        raise ManifestError("/coords", "coordinate names must be unique")
    excluded = tuple(_parse(f"/excluded/{i}", e)
                     for i, e in enumerate(_optional(doc, "excluded", list)))
    radius = _float(doc.get("exclusion_radius", 1e-6), "/exclusion_radius")
    if not (math.isfinite(radius) and radius > 0.0):
        raise ManifestError("/exclusion_radius",
                            f"must be finite and > 0, got {radius!r}")
    return Domain(tuple(names), tuple(lows), tuple(highs), tuple(periods),
                  excluded, radius)


def _build_spec(doc, domain: Domain, params: dict) -> ConnectionSpec:
    conn = _require(doc, "connection", "", dict)
    kind = _require(conn, "kind", "/connection", str)
    index = {name: i for i, name in enumerate(domain.names)}
    if kind == "christoffel":
        gamma = {}
        gammas = _optional(conn, "gamma", dict, "/connection")
        for upper in gammas:
            if upper not in index:
                raise ManifestError(f"/connection/gamma/{upper}",
                                    "unknown coordinate name")
            for key, text in _optional(gammas, upper, dict,
                                       "/connection/gamma").items():
                ptr = f"/connection/gamma/{upper}/{key}"
                parts = [s.strip() for s in key.split(",")]
                if len(parts) != 2 or any(p not in index for p in parts):
                    raise ManifestError(ptr, "key must be 'direction,second' "
                                             "coordinate names")
                gamma[(index[upper], index[parts[0]], index[parts[1]])] = \
                    _parse(ptr, text)
        return ConnectionSpec(domain, kind="christoffel", params=params,
                              gamma=gamma)
    if kind == "matrix":
        N = _require(conn, "fiber_dim", "/connection")
        _require_count(N, "/connection/fiber_dim", 1)
        rows = _require(conn, "omega", "/connection", list)
        if len(rows) != N or any(len(r) != N for r in rows):
            raise ManifestError("/connection/omega",
                                f"omega must be {N}x{N} lists of per-coordinate "
                                "expressions")
        omega = []
        for i in range(N):
            row = []
            for j in range(N):
                cell = rows[i][j]
                ptr = f"/connection/omega/{i}/{j}"
                if not isinstance(cell, list) or len(cell) != domain.dim:
                    raise ManifestError(ptr, "one expression per coordinate "
                                             "required")
                row.append([_parse(f"{ptr}/{k}", t) for k, t in enumerate(cell)])
            omega.append(row)
        return ConnectionSpec(domain, kind="matrix", params=params,
                              fiber_dim=N, omega=omega)
    raise ManifestError("/connection/kind", f"unknown kind {kind!r}")


def _build_loops(doc, domain: Domain, params: dict) -> list:
    loops = []
    names = set()
    for i, entry in enumerate(_optional(doc, "loops", list)):
        ptr = f"/loops/{i}"
        name = _require(entry, "name", ptr, str)
        if name in names:
            raise ManifestError(f"{ptr}/name", f"duplicate loop name {name!r}")
        names.add(name)
        exprs = _require(entry, "exprs", ptr, list)
        if len(exprs) != domain.dim:
            raise ManifestError(f"{ptr}/exprs",
                                "one coordinate expression per dimension")
        t0, t1 = _numbers(_require(entry, "t_range", ptr), f"{ptr}/t_range",
                          2)
        curve = Curve(domain, [_parse(f"{ptr}/exprs/{k}", t)
                               for k, t in enumerate(exprs)], t0, t1,
                      name=name, params=params)
        if not curve.closed:
            raise ManifestError(ptr, "declared loop is not closed "
                                     "(after period reduction)")
        loops.append(curve)
    return loops


def _build_grid(doc, domain: Domain) -> list:
    grid = _require(doc, "grid", "", dict)
    if "values" in grid:
        axes = grid["values"]
        if not isinstance(axes, list) or len(axes) != domain.dim:
            raise ManifestError("/grid/values", "one value list per coordinate")
        for i, axis in enumerate(axes):
            if not (isinstance(axis, list) and axis
                    and all(map(_is_number, axis))):
                raise ManifestError(f"/grid/values/{i}", f"expected a "
                                    f"non-empty list of numbers, got {axis!r}")
        return [[float(v) for v in axis] for axis in axes]
    if "counts" in grid:
        counts = grid["counts"]
        if not isinstance(counts, list) or len(counts) != domain.dim:
            raise ManifestError("/grid/counts", "one count per coordinate")
        axes = []
        for i, cnt in enumerate(counts):
            _require_count(cnt, f"/grid/counts/{i}", 1)
            lo, hi = domain.lows[i], domain.highs[i]
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ManifestError(f"/grid/counts/{i}",
                                    "counts need a finite coordinate range")
            span = hi - lo
            axes.append(list(np.linspace(lo + _GRID_INSET * span,
                                         hi - _GRID_INSET * span, cnt)))
        return axes
    raise ManifestError("/grid", "grid needs 'values' or 'counts'")


def build_steps(steps: dict) -> dict:
    """The step caps over their defaults, each an integer: ``rk4`` at least
    :data:`transport.MIN_RK4_STEPS`, the fewest a transport takes, and
    ``quadrature`` at least 1."""
    if not isinstance(steps, dict):
        raise ManifestError("/steps", f"expected an object, got {steps!r}")
    out = dict(DEFAULT_STEPS)
    for k, v in steps.items():
        if k not in out:
            raise ManifestError(f"/steps/{k}", "unknown step setting")
        _require_count(v, f"/steps/{k}", MIN_RK4_STEPS if k == "rk4" else 1)
        out[k] = v
    return out


def _build_tolerances(doc) -> dict:
    """The tolerances, each a finite number > 0: ``rank_tol`` below 1,
    ``pd_tol`` at least :data:`PD_TOL_MIN`; only ``period_tol`` may be null
    (its default, which scales with each loop's length)."""
    tol = dict(DEFAULT_TOLERANCES)
    for k, v in _optional(doc, "tolerances", dict).items():
        if k == "stencil_h":
            # a no-op, kept so older manifests load: the flag takes exact
            # covariant derivatives and has no difference step
            continue
        ptr = f"/tolerances/{k}"
        if k not in tol:
            raise ManifestError(ptr, "unknown tolerance")
        if v is None and k == "period_tol":
            tol[k] = None
            continue
        if not _is_number(v):
            raise ManifestError(ptr, f"expected a number, got {v!r}")
        v = float(v)
        if not (math.isfinite(v) and v > 0.0):
            raise ManifestError(ptr, f"must be finite and > 0, got {v!r}")
        if k == "rank_tol" and v >= 1.0:
            raise ManifestError(ptr, f"must be below 1, got {v!r}")
        if k == "pd_tol" and v < PD_TOL_MIN:
            raise ManifestError(ptr, f"must be at least {PD_TOL_MIN:g}, "
                                     f"got {v!r}")
        tol[k] = v
    return tol


def manifest_from_dict(doc: dict) -> Manifest:
    if not isinstance(doc, dict):
        raise ManifestError("", "manifest must be a JSON object")
    params = {k: _float(v, f"/params/{k}")
              for k, v in _optional(doc, "params", dict).items()}
    domain = _build_domain(doc)
    for k in params:  # it would hide a coordinate or t, or pi would hide it
        if k in (*domain.names, "t", "pi"):
            raise ManifestError(f"/params/{k}", "a parameter may not take the "
                                "name of a coordinate, t or pi")
    spec = _build_spec(doc, domain, params)
    base = np.array(_numbers(_require(doc, "base_point", ""), "/base_point",
                             domain.dim))
    if not domain.admissible(base, params):
        raise ManifestError("/base_point", "base point not in the domain")
    loops = _build_loops(doc, domain, params)
    grid_axes = _build_grid(doc, domain)

    tol = _build_tolerances(doc)
    steps = build_steps(doc.get("steps", {}))
    # the top-level "seed" and "pd_restarts" are no-ops, kept so older
    # manifests load: PD feasibility is deterministic and has no restarts
    return Manifest(doc, domain, spec, base, loops, grid_axes, tol, steps)


def with_params(doc: dict, overrides: Optional[dict]) -> dict:
    """``doc`` with ``overrides`` patched into its parameters, as a private
    copy; ``doc`` itself when there are none."""
    if overrides:
        doc = json.loads(json.dumps(doc))
        doc.setdefault("params", {}).update(overrides)
    return doc


def load_manifest(path, overrides: Optional[dict] = None) -> Manifest:
    """Read and validate a manifest file; ``overrides`` patch parameters."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ManifestError("", f"invalid JSON: {exc}") from None
    return manifest_from_dict(with_params(doc, overrides))
