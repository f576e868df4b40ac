"""Deterministic serialization: 17-significant-digit CSV and sorted JSON.

Profiles round-trip bit-exactly at double precision: %.17g rendering is
lossless for IEEE doubles.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ConfigError, UnsupportedGeometry
from .geometry import MetricProfile, ProfileGeometry, make_cp1_geometry, make_cpm_geometry
from .spectral import SampledFunction


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def jsonable(obj):
    """Recursively convert numpy scalars/arrays and complex numbers into
    plain JSON-compatible values."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (complex, np.complexfloating)):
        c = complex(obj)
        if c.imag == 0.0:
            return c.real
        return {"real": c.real, "imag": c.imag}
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def dump_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def sampled_to_csv(sf: SampledFunction, name: str = "value") -> str:
    v = sf.values
    lines = []
    if np.iscomplexobj(v):
        lines.append(f"x,{name}_re,{name}_im")
        for xi, vi in zip(sf.grid.x, v):
            lines.append(f"{fmt(xi)},{fmt(vi.real)},{fmt(vi.imag)}")
    else:
        lines.append(f"x,{name}")
        for xi, vi in zip(sf.grid.x, v):
            lines.append(f"{fmt(xi)},{fmt(vi)}")
    return "\n".join(lines) + "\n"


def profile_to_csv(profile: MetricProfile) -> str:
    return sampled_to_csv(profile.theta, "theta")


def profile_from_csv(geom: ProfileGeometry, text: str) -> MetricProfile:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0].split(",")[:2] != ["x", "theta"]:
        raise ConfigError("profile CSV must have header x,theta")
    xs, thetas = [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        try:
            xs.append(float(parts[0]))
            thetas.append(float(parts[1]))
        except (IndexError, ValueError) as exc:
            raise ConfigError(f"profile CSV row {ln!r} is not two numbers") from exc
    x = np.array(xs)
    if x.size != geom.grid.n or not np.array_equal(x, geom.grid.x):
        raise ConfigError("profile CSV nodes do not match the geometry grid")
    return MetricProfile(geom, SampledFunction(geom.grid, np.array(thetas)))


def profile_to_document(profile: MetricProfile) -> dict:
    geom = profile.geometry
    doc = {
        "geometry": {
            "kind": geom.kind,
            "x_lo": geom.x_lo,
            "x_hi": geom.x_hi,
            "slope_lo": geom.slope_lo,
            "slope_hi": geom.slope_hi,
            "dim": geom.dim,
            "vol_const": geom.vol_const,
        },
        "nodes": geom.grid.n,
        "theta_values": [float(v) for v in profile.theta.values],
    }
    return doc


def profile_from_document(doc: dict) -> MetricProfile:
    g = doc["geometry"]
    nodes = int(doc["nodes"])
    if g["kind"] == "cp1":
        geom = make_cp1_geometry(nodes)
    elif g["kind"] == "cpm":
        geom = make_cpm_geometry(int(g["dim"]), nodes)
    else:
        raise UnsupportedGeometry("only cp1/cpm documents can be reconstructed")
    return MetricProfile(geom, SampledFunction(geom.grid, np.array(doc["theta_values"], dtype=float)))
