"""Manifest ingestion: JSON documents describing a chart, a connection,
loops, a sample grid and tolerances.

Each document is validated against ``schemas/manifest.schema.json``; code
checks only what the schema cannot say (names that must agree, shapes that
depend on the chart's dimension, closed loops at the base point, its domain).
Validation failures carry JSON-pointer-style paths into the offending field.
Christoffel entries are keyed ``gamma[upper]["k,i"]`` by coordinate name,
where ``k`` is the derivative direction (first lower index); omitted entries
are zero and lower-index symmetry is not assumed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields
from typing import Optional

import numpy as np

from .bundle import (ConnectionSpec, Domain, ParameterShadows,
                     PointOutsideDomain, UndeclaredNames, check_params)
from .expr import ExprError, parse_expr
from .globalmetric import Analysis
from .transport import Curve

__all__ = ["Manifest", "ManifestError", "load_manifest", "manifest_from_dict",
           "manifest_digest", "with_params", "load_schema", "validate",
           "MANIFEST_SCHEMA", "DEFAULT_TOLERANCES", "DEFAULT_STEPS"]

# the defaults of Analysis, split into the manifest's two blocks
DEFAULT_TOLERANCES = {f.name: f.default for f in fields(Analysis)
                      if f.default is not MISSING}
DEFAULT_STEPS = {"rk4": DEFAULT_TOLERANCES.pop("rk4_steps"),
                 "quadrature": DEFAULT_TOLERANCES.pop("quadrature_steps")}
_GRID_INSET = 0.1


class ManifestError(ValueError):
    def __init__(self, pointer, message):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer


def load_schema(name: str) -> dict:
    """The JSON schema ``schemas/<name>.schema.json``."""
    path = os.path.join(os.path.dirname(__file__), "schemas",
                        f"{name}.schema.json")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# read once per process, at import: read inside a process's first analysis
# instead, it more often raised the fine-grid benchmark's peak RSS by about
# 1 MB of 41 (CPython 3.11, glibc)
MANIFEST_SCHEMA = load_schema("manifest")


_KINDS = {"object": dict, "array": list, "string": str, "boolean": bool,
          "integer": int, "number": (int, float), "null": type(None)}
_NOUNS = {"object": "an object", "array": "an array", "string": "a string",
          "boolean": "a boolean", "integer": "an integer",
          "number": "a number", "null": "null"}
_KEYWORDS = {"$schema", "title", "description", "type", "enum", "required",
             "properties", "additionalProperties", "items", "minItems",
             "maxItems", "minimum", "exclusiveMinimum", "exclusiveMaximum"}


def validate(value, schema: dict, pointer: str = "") -> None:
    """Check ``value`` against ``schema`` in the subset of JSON Schema
    draft-07 the shipped schemas use (``type``, ``enum``, ``required``,
    ``properties``, ``additionalProperties``, ``items``, ``minItems``,
    ``maxItems``, ``minimum``, ``exclusiveMinimum``, ``exclusiveMaximum``);
    a number must be finite, and a bool is no number.  The first failure
    raises a :class:`ManifestError` at its JSON pointer, and any other
    keyword but an annotation raises ``NotImplementedError``."""
    if not _KEYWORDS.issuperset(schema):
        raise NotImplementedError(f"{pointer}: schema keywords "
                                  f"{sorted(schema.keys() - _KEYWORDS)}")
    if "enum" in schema and value not in schema["enum"]:
        raise ManifestError(pointer, f"expected one of {schema['enum']}, "
                                     f"got {value!r}")
    kinds = schema.get("type", ())
    kinds = [kinds] if isinstance(kinds, str) else kinds
    if kinds and not (isinstance(value, tuple(_KINDS[k] for k in kinds)) and
                      ("boolean" in kinds or not isinstance(value, bool))):
        raise ManifestError(pointer, f"expected "
                            f"{' or '.join(_NOUNS[k] for k in kinds)}, "
                            f"got {value!r}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise ManifestError(f"{pointer}/{key}",
                                    "missing required field")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            sub = props.get(key, extra)
            if sub is False:
                raise ManifestError(f"{pointer}/{key}", "unknown field")
            if sub is not True:
                validate(item, sub, f"{pointer}/{key}")
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            raise ManifestError(pointer, f"expected {schema['minItems']} or "
                                         f"more items, got {value!r}")
        if len(value) > schema.get("maxItems", math.inf):
            raise ManifestError(pointer, f"expected {schema['maxItems']} or "
                                         f"fewer items, got {value!r}")
        if "items" in schema:
            for i, item in enumerate(value):
                validate(item, schema["items"], f"{pointer}/{i}")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        low = schema.get("exclusiveMinimum")
        # a float's range: an integer beyond it would overflow as a float
        if not abs(value) <= sys.float_info.max or \
                (low is not None and value <= low):
            why = ("expected a finite number" if low is None
                   else f"must be finite and > {low:g}")
            raise ManifestError(pointer, f"{why}, got {value!r}")
        if value < schema.get("minimum", -math.inf):
            raise ManifestError(pointer, f"must be at least "
                                f"{schema['minimum']:g}, got {value!r}")
        if value >= schema.get("exclusiveMaximum", math.inf):
            raise ManifestError(pointer, f"must be below "
                                f"{schema['exclusiveMaximum']:g}, "
                                f"got {value!r}")


def _parse(pointer, text):
    try:
        return parse_expr(text)
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

    def analysis(self) -> Analysis:
        """The pipeline of this manifest, every stage run once."""
        return Analysis(self.spec, self.base_point, self.loops,
                        self.grid_axes, **self.tolerances,
                        rk4_steps=self.steps["rk4"],
                        quadrature_steps=self.steps["quadrature"])


def manifest_digest(doc: dict) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _interval(pair, pointer) -> tuple:
    """``[low, high]`` as floats, a null end as an infinite one; low < high."""
    lo = -math.inf if pair[0] is None else float(pair[0])
    hi = math.inf if pair[1] is None else float(pair[1])
    if not lo < hi:
        raise ManifestError(pointer, f"expected low < high, got {pair!r}")
    return lo, hi


def _build_domain(doc) -> Domain:
    coords = doc["coords"]
    names = [c["name"] for c in coords]
    if len(set(names)) != len(names):
        raise ManifestError("/coords", "coordinate names must be unique")
    lows, highs = zip(*(_interval(c["range"], f"/coords/{i}/range")
                        for i, c in enumerate(coords)))
    periods = tuple(None if c.get("period") is None else float(c["period"])
                    for c in coords)
    excluded = tuple(_parse(f"/excluded/{i}", e)
                     for i, e in enumerate(doc.get("excluded", [])))
    return Domain(tuple(names), lows, highs, periods, excluded,
                  float(doc.get("exclusion_radius", 1e-6)))


def _build_spec(doc, domain: Domain, params: dict,
                pointers: dict) -> ConnectionSpec:
    """The connection; ``pointers`` gets the pointer of each formula, keyed
    as an :class:`~paracon.bundle.UndeclaredNames` entry names it."""
    conn = doc["connection"]
    index = {name: i for i, name in enumerate(domain.names)}
    pointers.update((i, f"/excluded/{i}") for i in range(len(domain.excluded)))
    if conn["kind"] == "christoffel":
        gamma = {}
        for upper, entries in conn.get("gamma", {}).items():
            if upper not in index:
                raise ManifestError(f"/connection/gamma/{upper}",
                                    "unknown coordinate name")
            for key, text in entries.items():
                ptr = f"/connection/gamma/{upper}/{key}"
                parts = [s.strip() for s in key.split(",")]
                if len(parts) != 2 or any(p not in index for p in parts):
                    raise ManifestError(ptr, "key must be 'direction,second' "
                                             "coordinate names")
                entry = (index[upper], index[parts[0]], index[parts[1]])
                if entry in gamma:
                    raise ManifestError(ptr, f"same entry as {pointers[entry]}")
                gamma[entry], pointers[entry] = _parse(ptr, text), ptr
        return ConnectionSpec(domain, kind="christoffel", params=params,
                              gamma=gamma)
    for key in ("fiber_dim", "omega"):
        if key not in conn:
            raise ManifestError(f"/connection/{key}",
                                "missing required field for kind 'matrix'")
    N, rows = conn["fiber_dim"], conn["omega"]
    if len(rows) != N or any(len(r) != N for r in rows):
        raise ManifestError("/connection/omega",
                            f"omega must be {N}x{N} lists of per-coordinate "
                            "expressions")
    omega = []
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            if len(cell) != domain.dim:
                raise ManifestError(f"/connection/omega/{i}/{j}",
                                    "one expression per coordinate required")
        pointers.update(((i, j, k), f"/connection/omega/{i}/{j}/{k}")
                        for j in range(N) for k in range(domain.dim))
        omega.append([[_parse(pointers[i, j, k], t)
                       for k, t in enumerate(cell)]
                      for j, cell in enumerate(row)])
    return ConnectionSpec(domain, kind="matrix", params=params,
                          fiber_dim=N, omega=omega)


def _build_loops(doc, domain: Domain, params: dict, base) -> list:
    loops = []
    names = set()
    for i, entry in enumerate(doc.get("loops", [])):
        ptr = f"/loops/{i}"
        name = entry["name"]
        if name in names:
            raise ManifestError(f"{ptr}/name", f"duplicate loop name {name!r}")
        names.add(name)
        exprs = entry["exprs"]
        if len(exprs) != domain.dim:
            raise ManifestError(f"{ptr}/exprs",
                                "one coordinate expression per dimension")
        t0, t1 = _interval(entry["t_range"], f"{ptr}/t_range")
        try:
            curve = Curve(domain, [_parse(f"{ptr}/exprs/{k}", t)
                                   for k, t in enumerate(exprs)], t0, t1,
                          name=name, params=params)
        except UndeclaredNames as exc:
            raise ManifestError(f"{ptr}/exprs/{exc.entry}",
                                f"undeclared names {exc.names}") from None
        if not curve.closed:
            raise ManifestError(ptr, "declared loop is not closed "
                                     "(after period reduction)")
        if not curve.starts_at(base):
            raise ManifestError(ptr, "loop does not start at the base point")
        loops.append(curve)
    return loops


def _build_grid(doc, domain: Domain) -> list:
    grid = doc["grid"]
    key = next((k for k in ("values", "counts") if k in grid), None)
    if key is None:
        raise ManifestError("/grid", "grid needs 'values' or 'counts'")
    if len(grid[key]) != domain.dim:
        raise ManifestError(f"/grid/{key}", "one entry per coordinate")
    if key == "values":
        for i, axis in enumerate(grid["values"]):
            lo, hi = domain.lows[i], domain.highs[i]
            for j, v in enumerate(axis):
                if domain.periods[i] is None and not lo < v < hi:
                    raise ManifestError(f"/grid/values/{i}/{j}",
                                        f"{v!r} outside the coordinate range "
                                        f"({lo!r}, {hi!r})")
        return [[float(v) for v in axis] for axis in grid["values"]]
    axes = []
    for i, (cnt, lo, hi) in enumerate(zip(grid["counts"], domain.lows,
                                          domain.highs)):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ManifestError(f"/grid/counts/{i}",
                                "counts need a finite coordinate range")
        span = hi - lo
        axes.append(list(np.linspace(lo + _GRID_INSET * span,
                                     hi - _GRID_INSET * span, cnt)))
    return axes


def manifest_from_dict(doc: dict) -> Manifest:
    validate(doc, MANIFEST_SCHEMA)
    params = {k: float(v) for k, v in doc.get("params", {}).items()}
    domain = _build_domain(doc)
    try:
        check_params(params, domain.names)
    except ParameterShadows as exc:
        raise ManifestError(f"/params/{exc.name}", str(exc)) from None
    pointers = {}
    try:
        spec = _build_spec(doc, domain, params, pointers)
    except UndeclaredNames as exc:
        raise ManifestError(pointers[exc.entry],
                            f"undeclared names {exc.names}") from None
    base = np.array(doc["base_point"], dtype=float)
    if len(base) != domain.dim:
        raise ManifestError("/base_point", f"expected {domain.dim} numbers, "
                                           f"got {doc['base_point']!r}")
    try:
        domain.require_admissible(base, params)
    except PointOutsideDomain:
        raise ManifestError("/base_point", "base point not in the domain") \
            from None
    loops = _build_loops(doc, domain, params, base)
    grid_axes = _build_grid(doc, domain)
    # "stencil_h" among the tolerances, and the top-level "seed" and
    # "pd_restarts", are no-ops kept so older manifests load: the flag takes
    # exact covariant derivatives, and PD feasibility has no restarts
    tol = dict(DEFAULT_TOLERANCES)
    tol.update((k, v if v is None else float(v))
               for k, v in doc.get("tolerances", {}).items()
               if k != "stencil_h")
    steps = dict(DEFAULT_STEPS, **doc.get("steps", {}))
    return Manifest(doc, domain, spec, base, loops, grid_axes, tol, steps)


def with_params(doc: dict, overrides: Optional[dict]) -> dict:
    """``doc`` with ``overrides`` patched into its declared parameters, as a
    private copy; ``doc`` itself when there are none."""
    if overrides:
        params = doc.get("params")
        for name in overrides:
            if not isinstance(params, dict) or name not in params:
                raise ManifestError(f"/params/{name}", "undeclared parameter")
        doc = json.loads(json.dumps(doc))
        doc["params"].update(overrides)
    return doc


def load_manifest(path, overrides: Optional[dict] = None) -> Manifest:
    """Read and validate a manifest file; ``overrides`` patch parameters."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # a JSONDecodeError, or too many digits
            raise ManifestError("", f"invalid JSON: {exc}") from None
    return manifest_from_dict(with_params(doc, overrides))
