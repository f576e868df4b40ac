"""Span recording around calabilab's layers, installed from outside.

install() wraps, after `import calabilab`:

- every public function defined in a layer module, and every module-level
  name in the package that is bound to the same function object (so
  `from .geometry import scalar_curvature` in potentials is traced too);
- the methods of SpectralGrid and the calculus of FunctionDescriptor;
- solver._Shooter.mismatch, to count shooting mismatches;
- numpy's chebdiv as the spectral module sees it, as a plain counter.

A missing name is skipped, so the tracer survives refactors that rename or
remove functions; the counts that depend on it then read 0.

Each call records a span (layer, function, duration, and the time covered
by its child spans).  The run is one thread, so spans nest as a stack and
no layer ever waits on another: self time is the span's duration minus its
children's.  Spans are aggregated in memory per function and written out
once, when the workload ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# module -> layer; config is part of the cli layer.
LAYERS = {
    "spectral": "spectral",
    "geometry": "geometry",
    "functions": "functions",
    "potentials": "potentials",
    "variation": "variation",
    "solver": "solver",
    "cli": "cli",
    "config": "cli",
    "serialize": "serialize",
}
CLASS_METHODS = {
    ("spectral", "SpectralGrid"): None,  # every method defined on the class
    ("functions", "FunctionDescriptor"): ("__call__", "derivative", "inverse", "constant_value"),
    ("solver", "_Shooter"): ("mismatch",),
}


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []
        # (layer, name) -> [calls, inclusive seconds, self seconds, raised]
        self.stats: dict = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.counters: dict = defaultdict(float)

    def wrap(self, layer: str, name: str, fn, hook=None):
        stats = self.stats[(layer, name)]
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                raise
            finally:
                took = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += took
                stats[0] += 1
                stats[1] += took
                stats[2] += took - frame[0]
            if hook is not None:
                hook(args, out)
            return out

        return traced

    def reset(self) -> None:
        """Zero every count in place (the wrappers hold the stat lists)."""
        for s in self.stats.values():
            s[:] = [0, 0.0, 0.0, 0]
        self.counters.clear()

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] += amount

    # -- summaries -----------------------------------------------------------
    def calls(self, layer: str, name: str | None = None) -> int:
        return sum(s[0] for (lay, nm), s in self.stats.items()
                   if lay == layer and (name is None or nm == name))

    def raised(self, layer: str, name: str) -> int:
        return sum(s[3] for (lay, nm), s in self.stats.items() if lay == layer and nm == name)

    def self_seconds(self, layer: str) -> float:
        return sum(s[2] for (lay, _), s in self.stats.items() if lay == layer)

    def inclusive_seconds(self, layer: str, name: str) -> float:
        return sum(s[1] for (lay, nm), s in self.stats.items() if lay == layer and nm == name)

    def snapshot(self) -> dict:
        return {
            "stats": {f"{lay}:{nm}": list(s) for (lay, nm), s in self.stats.items()},
            "counters": dict(self.counters),
        }


def merge(snapshots: list[dict]) -> Tracer:
    """Sum the snapshots of several traced processes into one Tracer."""
    out = Tracer()
    for snap in snapshots:
        for key, values in snap["stats"].items():
            layer, name = key.split(":", 1)
            s = out.stats[(layer, name)]
            for i, value in enumerate(values):
                s[i] += value
        for key, value in snap["counters"].items():
            out.counters[key] += value
    return out


def _rebind(package_modules, original, replacement) -> None:
    for mod in package_modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer):
    """Wrap the layers of the already imported calabilab package."""
    import calabilab  # noqa: F401  (the caller imported it; this binds the name)

    mods = {name: sys.modules.get(f"calabilab.{name}") for name in LAYERS}
    package_modules = [m for n, m in sys.modules.items()
                       if m is not None and (n == "calabilab" or n.startswith("calabilab."))]

    hooks = {
        ("spectral", "chop_coefficients"): _chop_hook(tracer),
        ("spectral", "SpectralGrid.values_to_coefficients"): _v2c_hook(tracer),
        ("spectral", "SpectralGrid.__init__"): _grid_hook(tracer),
    }
    for short, mod in mods.items():
        if mod is None:
            continue
        layer = LAYERS[short]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            _rebind(package_modules, obj, tracer.wrap(layer, name, obj, hooks.get((layer, name))))

    for (short, cls_name), names in CLASS_METHODS.items():
        cls = getattr(mods.get(short), cls_name, None)
        if cls is None:
            continue
        if names is None:
            names = [n for n, v in vars(cls).items()
                     if inspect.isfunction(v) and (not n.startswith("_") or n == "__init__")]
        for name in names:
            fn = vars(cls).get(name)
            if fn is None or not inspect.isfunction(fn):
                continue
            qual = f"{cls_name}.{name}"
            setattr(cls, name, tracer.wrap(LAYERS[short], qual, fn, hooks.get((LAYERS[short], qual))))

    spectral = mods.get("spectral")
    if spectral is not None and hasattr(getattr(spectral, "cheb", None), "chebdiv"):
        spectral.cheb = _CountingChebyshev(spectral.cheb, tracer)


class _CountingChebyshev:
    """Stands in for numpy.polynomial.chebyshev inside the spectral module
    only, counting chebdiv calls; numpy itself is left untouched."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._module, name)

    def chebdiv(self, *args, **kwargs):
        self._tracer.count("chebdiv_calls")
        return self._module.chebdiv(*args, **kwargs)


def _chop_hook(tracer: Tracer):
    def hook(args, out):
        tracer.count("chop_calls")
        tracer.count("chop_kept", len(out))
        tracer.count("chop_input", len(args[0]))
    return hook


def _v2c_hook(tracer: Tracer):
    def hook(args, out):
        n = len(out)
        # computed, not measured: one dense N x N matrix-vector product
        tracer.count("v2c_flop", 2.0 * n * n)
        tracer.count("v2c_bytes", 8.0 * n * n)
    return hook


def _grid_hook(tracer: Tracer):
    def hook(args, out):
        grid = args[0]
        nbytes = sum(v.nbytes for v in vars(grid).values() if hasattr(v, "nbytes"))
        tracer.count("grid_bytes", nbytes)
    return hook
