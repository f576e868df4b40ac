"""Closed catalog of symbolic scalar functions with exact derivatives.

Tags: constant(c), identity, affine(a, b), power(p), exponential,
log_guarded, scaled(c, inner), sum(inner, inner),
composed_with_affine(inner, a, b).  One entry per tag in the table _TAGS
holds its grammar heads, parameter and operand counts, evaluation, exact
derivative (another descriptor), constant value and whether it has a
domain; the descriptor methods and the expression reader and writer all
dispatch through it; a descriptor's derivative, constant value and domain
fact are read on first use and kept on the descriptor, and a text is
parsed once per distinct text (a bounded cache).  Scalars
may be complex (for h); f is expected real.  The text form is prefix
notation in which every head has a fixed arity, so it is read by
recursive descent and every rendered descriptor reads back.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, DomainError

PARSE_CACHE_SIZE = 256  # texts whose parse is kept
_UNREAD = object()  # a fact not yet kept on a descriptor


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
        zr = z.real.reshape(-1)
        bad = (zr <= 0.0).nonzero()[0]
        if bad.size:
            i = int(bad[0])
            node = None if nodes is None else float(np.asarray(nodes).reshape(-1)[i])
            raise DomainError(self.tag, float(zr[i]), node)

    def _require_nonzero(self, z, nodes):
        bad = (z == 0.0).reshape(-1).nonzero()[0]
        if bad.size:
            node = None if nodes is None else float(np.asarray(nodes).reshape(-1)[int(bad[0])])
            raise DomainError(self.tag, 0.0, node)

    # -- exact calculus ----------------------------------------------------
    # Each fact below is read from the tag table on first use and kept on
    # this descriptor, outside its fields: an equal descriptor, such as one
    # with a -0.0 parameter where this has 0.0, reads its own.
    def _keep(self, fact: str):
        value = getattr(_TAGS[self.tag], fact)(self)
        object.__setattr__(self, "_" + fact, value)
        return value

    def derivative(self) -> "FunctionDescriptor":
        """The exact derivative."""
        kept = self.__dict__.get("_derivative", _UNREAD)
        return self._keep("derivative") if kept is _UNREAD else kept

    def constant_value(self):
        """Return c if the descriptor is the constant function c, else None."""
        kept = self.__dict__.get("_constant_value", _UNREAD)
        return self._keep("constant_value") if kept is _UNREAD else kept

    def has_domain(self) -> bool:
        """Whether evaluating can raise DomainError: log, a power with a
        negative or non-integer exponent, or an expression containing one.
        A derivative of a function without a domain has none."""
        kept = self.__dict__.get("_has_domain", _UNREAD)
        return self._keep("has_domain") if kept is _UNREAD else kept

    def render(self) -> str:
        """The text form, which parse_function reads back to this descriptor."""
        parts = [_TAGS[self.tag].heads[0], *map(_render_scalar, self.params)]
        if self.inner:
            parts.append(",".join(g.render() for g in self.inner))
        return ":".join(parts)


# -- constructors -----------------------------------------------------------
def constant(c) -> FunctionDescriptor:
    return FunctionDescriptor("constant", (_scalar(c),))


def identity() -> FunctionDescriptor:
    return FunctionDescriptor("identity")


def affine(a, b) -> FunctionDescriptor:
    return FunctionDescriptor("affine", (_scalar(a), _scalar(b)))


def power(p) -> FunctionDescriptor:
    if isinstance(p, complex):
        raise ConfigError(f"pow takes a real exponent, got {p!r}")
    return FunctionDescriptor("power", (float(p),))


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
    derivative(desc), constant_value(desc) and has_domain(desc)."""

    heads: tuple
    n_params: int
    n_inner: int
    make: Callable
    evaluate: Callable
    derivative: Callable
    constant_value: Callable = lambda d: None
    has_domain: Callable = lambda d: any(g.has_domain() for g in d.inner)


def _constant_values(d, z, nodes):
    """c in the shape of z, as a float or complex array by the type of c."""
    c = d.params[0]
    out = np.empty(z.shape, dtype=type(c))
    out.fill(c)
    return out


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


def _log_values(d, z, nodes):
    d._require_positive(z, nodes)
    return np.log(z)


def _constant_if(d, is_constant: bool):
    """The value of d, read at 0, if d is constant; else None."""
    return _scalar(d(np.zeros(1))[0]) if is_constant else None


_TAGS = {
    "constant": _Tag(
        ("const", "constant"), 1, 0, constant,
        _constant_values,
        lambda d: constant(0.0),
        lambda d: d.params[0],
    ),
    "identity": _Tag(
        ("id", "identity"), 0, 0, identity,
        lambda d, z, nodes: z,  # the argument itself; no caller writes into a result
        lambda d: constant(1.0),
    ),
    "affine": _Tag(
        ("affine",), 2, 0, affine,
        lambda d, z, nodes: d.params[0] * z + d.params[1],
        lambda d: constant(d.params[0]),
        lambda d: d.params[1] if d.params[0] == 0 else None,
    ),
    "power": _Tag(
        ("pow", "power"), 1, 0, power,
        _power_values,
        _power_derivative,
        lambda d: 1.0 if d.params[0] == 0 else None,
        lambda d: d.params[0] < 0 or d.params[0] != int(d.params[0]),
    ),
    "exponential": _Tag(
        ("exp", "exponential"), 0, 0, exponential,
        lambda d, z, nodes: np.exp(z),
        lambda d: exponential(),
    ),
    "log_guarded": _Tag(
        ("log", "log_guarded"), 0, 0, log_guarded,
        _log_values,
        lambda d: power(-1),
        has_domain=lambda d: True,
    ),
    "scaled": _Tag(
        ("scaled",), 1, 1, scaled,
        lambda d, z, nodes: d.params[0] * d.inner[0](z, nodes),
        lambda d: scaled(d.params[0], d.inner[0].derivative()),
        lambda d: _constant_if(d, d.inner[0].constant_value() is not None),
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
    ),
}
_TAG_BY_HEAD = {head: entry for entry in _TAGS.values() for head in entry.heads}


# -- expression grammar -------------------------------------------------------
def _parse_scalar(text: str):
    """A finite real or complex literal: nan, inf or either part of a
    complex literal not finite is a ConfigError, as --target refuses them."""
    try:
        value = complex(text)
    except ValueError as exc:
        raise ConfigError(f"bad numeric literal {text!r}") from exc
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ConfigError(f"numeric literal {text!r} is not finite")
    return _scalar(value)


def _render_scalar(c) -> str:
    if c.imag == 0.0:
        return format(c.real, ".17g")
    return repr(c).strip("()")


def parse_function(spec: str) -> FunctionDescriptor:
    """Parse the colon grammar head:params:operands.

    Examples: "exp", "id", "pow:2", "const:1", "affine:1:2",
    "scaled:3:exp", "compaff:1:2:exp", "sum:id,const:1", "log".  Each
    head takes exactly its tag's parameter count and operand count, so the
    text is read by recursive descent: the first operand follows a colon,
    a sum's second operand follows a comma, and either may itself contain
    commas ("sum:sum:exp,id,pow:2").  Trailing text is an error.
    """
    return _parse(spec)


# Descriptors are frozen values, so a text read once is not read again; a
# ConfigError is raised, not cached, so bad text raises on every call.
@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def _parse(spec: str) -> FunctionDescriptor:
    desc, end = _parse_at(spec, 0)
    if end != len(spec):
        raise ConfigError(f"trailing text {spec[end:]!r} in {spec!r}")
    return desc


def _field(spec: str, start: int) -> tuple[str, int]:
    """The text from start to the next ':' or ',' (or the end), stripped,
    and the index where it ends."""
    end = len(spec)
    for sep in ":,":
        i = spec.find(sep, start)
        if 0 <= i < end:
            end = i
    return spec[start:end].strip(), end


def _parse_at(spec: str, pos: int) -> tuple[FunctionDescriptor, int]:
    """The expression that starts at pos, read to its arity, and the index
    after it."""
    head, pos = _field(spec, pos)
    entry = _TAG_BY_HEAD.get(head.lower())
    if entry is None:
        raise ConfigError(f"unknown function expression {head!r} in {spec!r}")
    # each parameter follows a colon, the first operand a colon and a sum's
    # second operand a comma
    params, operands = [], []
    for sep in ":" * entry.n_params + ":,"[:entry.n_inner]:
        if not spec.startswith(sep, pos):
            raise ConfigError(
                f"{head} takes {entry.n_params} parameter(s) and {entry.n_inner} operand(s), got {spec!r}")
        if len(params) < entry.n_params:
            text, pos = _field(spec, pos + 1)
            params.append(_parse_scalar(text))
        else:
            operand, pos = _parse_at(spec, pos + 1)
            operands.append(operand)
    return entry.make(*params, *operands), pos
