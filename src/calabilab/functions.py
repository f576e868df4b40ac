"""Closed catalog of symbolic scalar functions with exact derivatives.

Tags: constant(c), identity, affine(a, b), power(p), exponential,
log_guarded, scaled(c, inner), sum(inner, inner),
composed_with_affine(inner, a, b).  One entry per tag in the table _TAGS
holds its grammar heads, parameter and operand counts, evaluation, exact
derivative (another descriptor), constant value and closed-form inverse
(another descriptor, or None); the descriptor methods and the expression
reader and writer all dispatch through it; a descriptor's derivative and
inverse are built once per distinct descriptor (a bounded cache).  Scalars
may be complex (for h); f is expected real.  invert solves g(s) = y
pointwise: closed-form inverse per catalog tag, Newton otherwise (with the
exact derivative, for any g whose derivative does not vanish).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, DomainError, RangeError

INVERT_TOL = 1e-13
MAX_INVERT_ITER = 50
CALCULUS_CACHE_SIZE = 256  # descriptors whose derivative and inverse are kept


def _scalar(c):
    c = complex(c)
    return c.real if c.imag == 0.0 else c


@dataclass(frozen=True)
class FunctionDescriptor:
    tag: str
    params: tuple = ()
    inner: tuple = ()

    # -- evaluation --------------------------------------------------------
    def __call__(self, z, nodes=None):
        return _TAGS[self.tag].evaluate(self, np.asarray(z), nodes)

    def _require_positive(self, z, nodes):
        zr = np.real(np.atleast_1d(z))
        bad = np.nonzero(zr <= 0.0)[0]
        if bad.size:
            i = int(bad[0])
            node = None if nodes is None else float(np.atleast_1d(nodes)[i])
            raise DomainError(self.tag, float(zr[i]), node)

    def _require_nonzero(self, z, nodes):
        za = np.abs(np.atleast_1d(z))
        bad = np.nonzero(za == 0.0)[0]
        if bad.size:
            node = None if nodes is None else float(np.atleast_1d(nodes)[int(bad[0])])
            raise DomainError(self.tag, 0.0, node)

    # -- exact calculus ----------------------------------------------------
    def derivative(self) -> "FunctionDescriptor":
        """The exact derivative, built once per distinct descriptor."""
        return _derivative(self)

    def constant_value(self):
        """Return c if the descriptor is the constant function c, else None."""
        return _TAGS[self.tag].constant_value(self)

    def inverse(self) -> "FunctionDescriptor | None":
        """The catalog's closed-form inverse function, or None; built once
        per distinct descriptor."""
        return _inverse(self)

    def render(self) -> str:
        return render_function(self)

    def __str__(self):
        return self.render()


# -- constructors -----------------------------------------------------------
def constant(c) -> FunctionDescriptor:
    return FunctionDescriptor("constant", (_scalar(c),))


def identity() -> FunctionDescriptor:
    return FunctionDescriptor("identity")


def affine(a, b) -> FunctionDescriptor:
    return FunctionDescriptor("affine", (_scalar(a), _scalar(b)))


def power(p) -> FunctionDescriptor:
    p = float(p)
    if p == int(p):
        p = int(p)
    return FunctionDescriptor("power", (p,))


def exponential() -> FunctionDescriptor:
    return FunctionDescriptor("exponential")


def log_guarded() -> FunctionDescriptor:
    return FunctionDescriptor("log_guarded")


def scaled(c, g: FunctionDescriptor) -> FunctionDescriptor:
    return FunctionDescriptor("scaled", (_scalar(c),), (g,))


def fsum(g1: FunctionDescriptor, g2: FunctionDescriptor) -> FunctionDescriptor:
    return FunctionDescriptor("sum", (), (g1, g2))


def composed_with_affine(g: FunctionDescriptor, a, b) -> FunctionDescriptor:
    return FunctionDescriptor("composed_with_affine", (_scalar(a), _scalar(b)), (g,))


# -- the catalog table -------------------------------------------------------
class _Tag(NamedTuple):
    """One tag: grammar heads (the first is written), parameter and
    operand counts, make(*params, *operands), evaluate(desc, z, nodes),
    derivative(desc), constant_value(desc) and inverse(desc)."""

    heads: tuple
    n_params: int
    n_inner: int
    make: Callable
    evaluate: Callable
    derivative: Callable
    constant_value: Callable = lambda d: None
    inverse: Callable = lambda d: None


def _power_values(d, z, nodes):
    p = d.params[0]
    if p != int(p):
        d._require_positive(z, nodes)
    elif p < 0:
        d._require_nonzero(z, nodes)
    return z ** p


def _power_derivative(d):
    p = d.params[0]
    return constant(p) if p in (0, 1) else scaled(p, power(p - 1))


def _power_inverse(d):
    p = d.params[0]
    return identity() if p == 1 else d if p == -1 else None


def _scaled_inverse(d):
    c, inner = d.params[0], d.inner[0].inverse()
    return None if c == 0 or inner is None else composed_with_affine(inner, 1 / c, 0.0)


def _composed_inverse(d):
    (a, b), inner = d.params, d.inner[0].inverse()
    return None if a == 0 or inner is None else fsum(scaled(1 / a, inner), constant(-b / a))


def _log_values(d, z, nodes):
    d._require_positive(z, nodes)
    return np.log(z)


def _constant_if(d, is_constant: bool):
    """The value of d, read at 0, if d is constant; else None."""
    return _scalar(d(np.zeros(1))[0]) if is_constant else None


_TAGS = {
    "constant": _Tag(
        ("const", "constant"), 1, 0, constant,
        lambda d, z, nodes: np.full(z.shape, d.params[0]),
        lambda d: constant(0.0),
        lambda d: d.params[0],
    ),
    "identity": _Tag(
        ("id", "identity"), 0, 0, identity,
        lambda d, z, nodes: z + 0.0,
        lambda d: constant(1.0),
        inverse=lambda d: d,
    ),
    "affine": _Tag(
        ("affine",), 2, 0, affine,
        lambda d, z, nodes: d.params[0] * z + d.params[1],
        lambda d: constant(d.params[0]),
        lambda d: d.params[1] if d.params[0] == 0 else None,
        lambda d: None if d.params[0] == 0 else affine(1 / d.params[0], -d.params[1] / d.params[0]),
    ),
    "power": _Tag(
        ("pow", "power"), 1, 0, power,
        _power_values,
        _power_derivative,
        lambda d: 1.0 if d.params[0] == 0 else None,
        _power_inverse,
    ),
    "exponential": _Tag(
        ("exp", "exponential"), 0, 0, exponential,
        lambda d, z, nodes: np.exp(z),
        lambda d: exponential(),
        inverse=lambda d: log_guarded(),
    ),
    "log_guarded": _Tag(
        ("log", "log_guarded"), 0, 0, log_guarded,
        _log_values,
        lambda d: power(-1),
        inverse=lambda d: exponential(),
    ),
    "scaled": _Tag(
        ("scaled",), 1, 1, scaled,
        lambda d, z, nodes: d.params[0] * d.inner[0](z, nodes),
        lambda d: scaled(d.params[0], d.inner[0].derivative()),
        lambda d: _constant_if(d, d.inner[0].constant_value() is not None),
        _scaled_inverse,
    ),
    "sum": _Tag(
        ("sum",), 0, 2, fsum,
        lambda d, z, nodes: d.inner[0](z, nodes) + d.inner[1](z, nodes),
        lambda d: fsum(d.inner[0].derivative(), d.inner[1].derivative()),
        lambda d: _constant_if(d, all(g.constant_value() is not None for g in d.inner)),
    ),
    "composed_with_affine": _Tag(
        ("compaff",), 2, 1, lambda a, b, g: composed_with_affine(g, a, b),
        lambda d, z, nodes: d.inner[0](d.params[0] * z + d.params[1], nodes),
        lambda d: scaled(d.params[0], composed_with_affine(d.inner[0].derivative(), *d.params)),
        lambda d: _constant_if(d, d.params[0] == 0 or d.inner[0].constant_value() is not None),
        _composed_inverse,
    ),
}
_TAG_BY_HEAD = {head: entry for entry in _TAGS.values() for head in entry.heads}


# Descriptors are frozen values, so equal descriptors share one derivative
# and one inverse; equal means equal params, and 0.0 == -0.0, so a signed
# zero parameter may come back with the other sign.
@functools.lru_cache(maxsize=CALCULUS_CACHE_SIZE)
def _derivative(d: FunctionDescriptor) -> FunctionDescriptor:
    return _TAGS[d.tag].derivative(d)


@functools.lru_cache(maxsize=CALCULUS_CACHE_SIZE)
def _inverse(d: FunctionDescriptor) -> FunctionDescriptor | None:
    return _TAGS[d.tag].inverse(d)


def invert(g: FunctionDescriptor, y, start, nodes=None) -> np.ndarray:
    """Solve g(s) = y pointwise: by g's closed-form inverse when the
    catalog has one, else by Newton's method from start (a scalar or one
    value per point).

    Raises RangeError, naming the node where one is known, when y leaves
    the range of g or the solution is not finite; on the Newton path also
    when g' vanishes at an iterate or the steps do not settle.
    """
    inverse = g.inverse()
    try:
        if inverse is None:
            s = _newton_invert(g, y, start, nodes)
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                s = inverse(y, nodes)
    except DomainError as exc:
        raise RangeError(f"target left the range of {g.render()} at node x={exc.node!r}") from exc
    if not np.all(np.isfinite(s)):
        raise RangeError(f"target left the range of {g.render()}: non-finite value")
    return s


def _newton_invert(g: FunctionDescriptor, y, start, nodes=None) -> np.ndarray:
    """Solve g(s) = y pointwise by Newton's method with the exact g',
    starting from start; cf. rtsafe, Numerical Recipes 9.4, without the
    bracket.  An iterate outside the domain of g raises its DomainError;
    steps that do not settle raise RangeError naming the node with the
    largest last step and its target."""
    dg = g.derivative()
    s = np.array(np.broadcast_to(start, np.shape(y)), dtype=float)
    for _ in range(MAX_INVERT_ITER):
        with np.errstate(over="ignore", invalid="ignore"):
            slope = dg(s, nodes)
            if np.any(slope == 0.0):
                raise RangeError(f"derivative of {g.render()} is 0 at an iterate")
            step = (g(s, nodes) - y) / slope
        s = s - step
        if not np.all(np.isfinite(s)):
            raise RangeError(f"target left the range of {g.render()}: non-finite iterate")
        if np.abs(step).max() <= INVERT_TOL * (1.0 + np.abs(s).max()):
            return s
    i = int(np.argmax(np.abs(step)))  # the node furthest from settling
    node = None if nodes is None else float(np.broadcast_to(nodes, s.shape)[i])
    target = np.broadcast_to(y, s.shape)[i].item()
    raise RangeError(
        f"inversion of {g.render()} did not converge in {MAX_INVERT_ITER} steps "
        f"at node x={node!r} (target {target!r})"
    )


# -- expression grammar -------------------------------------------------------
def _parse_scalar(text: str):
    try:
        return float(text)
    except ValueError:
        pass
    try:
        return _scalar(complex(text))
    except ValueError as exc:
        raise ConfigError(f"bad numeric literal {text!r}") from exc


def _render_scalar(c) -> str:
    c = complex(c)
    if c.imag == 0.0:
        return format(c.real, ".17g")
    return repr(c).strip("()")


def parse_function(spec: str) -> FunctionDescriptor:
    """Parse the colon grammar head:params:operands.

    Examples: "exp", "id", "pow:2", "const:1", "affine:1:2",
    "scaled:3:exp", "compaff:1:2:exp", "sum:id,const:1", "log".  Each
    head takes exactly its tag's parameter count and operand count;
    trailing text is an error.  Within "sum" the two operands are
    separated by the first comma; operands themselves must not contain
    commas.
    """
    spec = spec.strip()
    if not spec:
        raise ConfigError("empty function expression")
    head, sep, rest = spec.partition(":")
    entry = _TAG_BY_HEAD.get(head.lower())
    if entry is None:
        raise ConfigError(f"unknown function expression {spec!r}")
    fields = rest.split(":", entry.n_params) if sep else []
    operands = []
    if entry.n_inner and len(fields) > entry.n_params:
        operands = fields.pop().split(",", entry.n_inner - 1)
    if len(fields) != entry.n_params or len(operands) != entry.n_inner:
        raise ConfigError(
            f"{head} takes {entry.n_params} parameter(s) and {entry.n_inner} operand(s), got {spec!r}"
        )
    params = [_parse_scalar(text) for text in fields]
    return entry.make(*params, *(parse_function(text) for text in operands))


def render_function(desc: FunctionDescriptor) -> str:
    parts = [_TAGS[desc.tag].heads[0], *map(_render_scalar, desc.params)]
    if desc.inner:
        parts.append(",".join(map(render_function, desc.inner)))
    return ":".join(parts)
