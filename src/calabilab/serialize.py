"""Deterministic serialization: 17-significant-digit CSV and sorted JSON.

Every file the package writes is written here: a command's outputs by
write_outputs, in one call once its numbers exist.  Profiles are read and
written as (x, theta) CSV only, and round-trip bit-exactly at double
precision: %.17g rendering is lossless for IEEE doubles.  A profile CSV
read from outside is checked for exactly two columns, the grid's nodes and
finite theta values, each a ConfigError.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import ConfigError
from .geometry import MetricProfile, ProfileGeometry
from .spectral import SampledFunction

CSV_SPECIAL = frozenset(',"\r\n')


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def _json_default(obj):
    """json.dumps's hook for the values it cannot write: numpy scalars and
    arrays, and complex numbers (their real part when the imaginary part is
    zero).  numpy's float64 is a float, which json writes itself."""
    if isinstance(obj, (complex, np.complexfloating)):
        c = complex(obj)
        return c.real if c.imag == 0.0 else {"real": c.real, "imag": c.imag}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def _json_text(obj) -> str:
    """obj as sorted JSON, indented by 2, with a final newline."""
    return json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n"


def dump_json(obj, path) -> None:
    text = _json_text(obj)
    with open(path, "w") as fh:
        fh.write(text)


def write_outputs(out, files: dict) -> None:
    """Make the directory out and write each of files into it: a dict as
    sorted JSON (dump_json's text), a str as it is.  A command calls this
    once, after its numbers exist, and every text is rendered before the
    directory is made, so a failed command or a value JSON refuses leaves
    no directory and no partial file."""
    texts = {name: content if isinstance(content, str) else _json_text(content) for name, content in files.items()}
    os.makedirs(out, exist_ok=True)
    for name, text in texts.items():
        with open(os.path.join(out, name), "w") as fh:
            fh.write(text)


def _csv_cell(cell) -> str:
    """One CSV cell, quoted as RFC 4180 asks when it holds a comma, a quote
    or a line break; any other cell is written as it is."""
    text = str(cell)
    if CSV_SPECIAL.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def rows_to_csv(header, rows) -> str:
    """The CSV text of a header row and the rows after it, one line each."""
    return "".join(",".join(map(_csv_cell, row)) + "\n" for row in (header, *rows))


def sampled_to_csv(sf: SampledFunction, name: str = "value") -> str:
    v = sf.values
    if v.dtype.kind == "c":
        header, columns = (f"{name}_re", f"{name}_im"), (v.real, v.imag)
    else:
        header, columns = (name,), (v,)
    return rows_to_csv(("x", *header), (map(fmt, row) for row in zip(sf.grid.x, *columns)))


def profile_to_csv(profile: MetricProfile) -> str:
    return sampled_to_csv(profile.theta, "theta")


def profile_from_csv(geom: ProfileGeometry, text: str) -> MetricProfile:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0].split(",") != ["x", "theta"]:
        raise ConfigError("profile CSV must have the header x,theta and no other column")
    xs, thetas = [], []
    for ln in lines[1:]:
        try:
            x_text, theta_text = ln.split(",")
            xs.append(float(x_text))
            thetas.append(float(theta_text))
        except ValueError as exc:
            raise ConfigError(f"profile CSV row {ln!r} is not two numbers") from exc
    x = np.array(xs)
    if x.size != geom.grid.n or not np.array_equal(x, geom.grid.x):
        raise ConfigError("profile CSV nodes do not match the geometry grid")
    theta = np.array(thetas)
    if not np.isfinite(theta).all():
        raise ConfigError("profile CSV has a non-finite theta value")
    return MetricProfile(geom, SampledFunction(geom.grid, theta))
