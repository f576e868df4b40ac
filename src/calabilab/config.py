"""Flat dotted-key run configuration: parse and type-check.

Format: one "key=value" per line; '#' starts a comment; unknown keys are
rejected.  Command-line flags override file values (cli._config_from_args).
The library checks each value's range where it uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError
from .geometry import DEFAULT_NODES


def finite_float(text) -> float:
    """float(text) for the real-valued inputs, refusing nan and inf."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


# config key -> (RunConfig field, value type)
_KEYS = {
    "geometry": ("geometry", str),
    "profile": ("profile", str),
    "f": ("f_expr", str),
    "h": ("h_expr", str),
    "normalization.target": ("target", finite_float),
    "grid.nodes": ("nodes", int),
    "seed": ("seed", int),
    "amplitude": ("amplitude", finite_float),
    "samples": ("samples", int),
    "iterate.max_steps": ("max_steps", int),
    "out": ("out", str),
}


@dataclass
class RunConfig:
    geometry: str = "cp1"
    profile: str = "round"
    f_expr: str = "id"
    h_expr: str = "const:1"
    target: float | None = None
    nodes: int = DEFAULT_NODES
    seed: int = 0
    amplitude: float = 0.3
    samples: int = 50
    max_steps: int = 8
    out: str = "."


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        name, caster = _KEYS[key]
        try:
            cast = caster(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {value!r}") from exc
        setattr(cfg, name, cast)
    return cfg


def load_config(path) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read())
