"""Run options: the one table of config keys and flags, and the config file.

Format: one "key=value" per line; '#' starts a comment; unknown keys are
rejected.  Every command accepts every config key, so one file serves
them all; command-line flags override file values (cli._config_from_args).
The library checks each value's range where it uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import ConfigError
from .geometry import DEFAULT_NODES


def finite_float(text) -> float:
    """float(text) for the real-valued inputs, refusing nan and inf."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


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
    f_list: str = "id;pow:2;exp"
    h_list: str = "const:1;id"
    out: str = "."


class Option(NamedTuple):
    key: str | None  # config-file key; None: a flag only
    flag: str | None  # command-line flag; None: a config key only
    type: Callable
    help: str


# RunConfig field -> how a run sets it; cli.COMMANDS gives each command's flags
OPTIONS = {
    "geometry": Option("geometry", "--geometry", str, "cp1 | cpm:<m>"),
    "profile": Option("profile", "--profile", str, "round | random[:seed[:amplitude]] | file:<path>"),
    "f_expr": Option("f", "--f", str, "f expression, e.g. exp, pow:2, scaled:0.5:pow:2"),
    "h_expr": Option("h", "--h", str, "h expression, e.g. const:1, id, pow:2"),
    "target": Option("normalization.target", "--target", finite_float, "normalization target for phi"),
    "nodes": Option("grid.nodes", "--nodes", int, f"collocation nodes (default {DEFAULT_NODES})"),
    "seed": Option("seed", "--seed", int, "seed for the splitmix64 generator"),
    "amplitude": Option("amplitude", None, finite_float, "amplitude of a random profile"),
    "samples": Option("samples", "--samples", int, "number of random profiles"),
    "max_steps": Option("iterate.max_steps", "--max-steps", int, "most iteration steps"),
    "f_list": Option(None, "--f-list", str, "semicolon-separated f grid"),
    "h_list": Option(None, "--h-list", str, "semicolon-separated h grid"),
    "out": Option("out", "--out", str, "output directory"),
}


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    by_key = {opt.key: name for name, opt in OPTIONS.items() if opt.key}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in by_key:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        name = by_key[key]
        try:
            cast = OPTIONS[name].type(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {value!r}") from exc
        setattr(cfg, name, cast)
    return cfg


def load_config(path) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read())
