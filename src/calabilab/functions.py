"""Closed catalog of symbolic scalar functions with exact derivatives.

Tags: constant(c), identity, affine(a, b), power(p), exponential,
log_guarded, scaled(c, inner), sum(inner, inner),
composed_with_affine(inner, a, b).  Scalars may be complex (for h); f is
expected real.  Each descriptor knows its derivative as another descriptor;
invert solves g(s) = y pointwise by Newton's method with that exact
derivative, for any g whose derivative does not vanish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, RangeError

INVERT_TOL = 1e-13
MAX_INVERT_ITER = 50


def _is_real(c) -> bool:
    return abs(complex(c).imag) == 0.0


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
        z = np.asarray(z)
        tag = self.tag
        if tag == "constant":
            return np.full(z.shape, self.params[0])
        if tag == "identity":
            return z + 0.0
        if tag == "affine":
            a, b = self.params
            return a * z + b
        if tag == "power":
            p = self.params[0]
            if p != int(p):
                self._require_positive(z, nodes)
            elif p < 0:
                self._require_nonzero(z, nodes)
            return z ** p
        if tag == "exponential":
            return np.exp(z)
        if tag == "log_guarded":
            self._require_positive(z, nodes)
            return np.log(z)
        if tag == "scaled":
            return self.params[0] * self.inner[0](z, nodes)
        if tag == "sum":
            return self.inner[0](z, nodes) + self.inner[1](z, nodes)
        if tag == "composed_with_affine":
            a, b = self.params
            return self.inner[0](a * z + b, nodes)
        raise ConfigError(f"unknown function tag {tag!r}")

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
        tag = self.tag
        if tag == "constant":
            return constant(0.0)
        if tag == "identity":
            return constant(1.0)
        if tag == "affine":
            return constant(self.params[0])
        if tag == "power":
            p = self.params[0]
            if p == 0:
                return constant(0.0)
            if p == 1:
                return constant(1.0)
            return scaled(p, power(p - 1))
        if tag == "exponential":
            return exponential()
        if tag == "log_guarded":
            return power(-1)
        if tag == "scaled":
            return scaled(self.params[0], self.inner[0].derivative())
        if tag == "sum":
            return fsum(self.inner[0].derivative(), self.inner[1].derivative())
        if tag == "composed_with_affine":
            a, b = self.params
            return scaled(a, composed_with_affine(self.inner[0].derivative(), a, b))
        raise ConfigError(f"unknown function tag {tag!r}")

    def constant_value(self):
        """Return c if the descriptor is the constant function c, else None."""
        tag = self.tag
        if tag == "constant":
            return self.params[0]
        if tag == "affine" and self.params[0] == 0:
            return self.params[1]
        if tag == "power" and self.params[0] == 0:
            return 1.0
        if tag == "scaled":
            v = self.inner[0].constant_value()
            return None if v is None else _scalar(self.params[0] * v)
        if tag == "sum":
            v0 = self.inner[0].constant_value()
            v1 = self.inner[1].constant_value()
            if v0 is None or v1 is None:
                return None
            return _scalar(v0 + v1)
        if tag == "composed_with_affine":
            v = self.inner[0].constant_value()
            if v is not None:
                return v
            if self.params[0] == 0:
                return _scalar(self.inner[0](np.array([self.params[1]]))[0])
            return None
        return None

    def is_complex(self) -> bool:
        return any(not _is_real(p) for p in self.params) or any(
            g.is_complex() for g in self.inner
        )

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


def invert(g: FunctionDescriptor, y, start, nodes=None) -> np.ndarray:
    """Solve g(s) = y pointwise by Newton's method with the exact g',
    starting from start (a scalar or one value per point); cf. rtsafe,
    Numerical Recipes 9.4, without the bracket.

    Raises RangeError when g' vanishes at an iterate, an iterate leaves
    the domain of g, an iterate is not finite, or the steps do not settle.
    """
    dg = g.derivative()
    s = np.array(np.broadcast_to(start, np.shape(y)), dtype=float)
    for _ in range(MAX_INVERT_ITER):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                slope = dg(s, nodes)
                if np.any(slope == 0.0):
                    raise RangeError(f"derivative of {g.render()} is 0 at an iterate")
                step = (g(s, nodes) - y) / slope
        except DomainError as exc:
            raise RangeError(
                f"target left the range of {g.render()} at node x={exc.node!r}"
            ) from exc
        s = s - step
        if not np.all(np.isfinite(s)):
            raise RangeError(f"target left the range of {g.render()}: non-finite iterate")
        if np.abs(step).max() <= INVERT_TOL * (1.0 + np.abs(s).max()):
            return s
    raise RangeError(f"inversion of {g.render()} did not converge in {MAX_INVERT_ITER} steps")


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


def parse_function(spec: str) -> FunctionDescriptor:
    """Parse the small colon-separated expression grammar.

    Examples: "exp", "id", "pow:2", "const:1", "affine:1:2",
    "scaled:3:exp", "compaff:1:2:exp", "sum:id,const:1", "log".
    Within "sum" the two operands are separated by the first top-level
    comma; operands themselves must not contain commas.
    """
    spec = spec.strip()
    if not spec:
        raise ConfigError("empty function expression")
    head, _, rest = spec.partition(":")
    head = head.lower()
    if head in ("id", "identity"):
        return identity()
    if head in ("exp", "exponential"):
        return exponential()
    if head in ("log", "log_guarded"):
        return log_guarded()
    if head in ("const", "constant"):
        return constant(_parse_scalar(rest))
    if head in ("pow", "power"):
        return power(_parse_scalar(rest))
    if head == "affine":
        parts = rest.split(":")
        if len(parts) != 2:
            raise ConfigError("affine needs two parameters: affine:a:b")
        return affine(_parse_scalar(parts[0]), _parse_scalar(parts[1]))
    if head == "scaled":
        c, sep, inner = rest.partition(":")
        if not sep:
            raise ConfigError("scaled needs a factor and an inner expression")
        return scaled(_parse_scalar(c), parse_function(inner))
    if head == "compaff":
        parts = rest.split(":", 2)
        if len(parts) != 3:
            raise ConfigError("compaff needs compaff:a:b:<inner>")
        return composed_with_affine(parse_function(parts[2]), _parse_scalar(parts[0]), _parse_scalar(parts[1]))
    if head == "sum":
        left, sep, right = rest.partition(",")
        if not sep:
            raise ConfigError("sum needs two comma-separated operands")
        return fsum(parse_function(left), parse_function(right))
    raise ConfigError(f"unknown function expression {spec!r}")


def _render_scalar(c) -> str:
    c = complex(c)
    if c.imag == 0.0:
        return format(c.real, ".17g")
    return repr(c).strip("()")


def render_function(desc: FunctionDescriptor) -> str:
    tag = desc.tag
    if tag == "identity":
        return "id"
    if tag == "exponential":
        return "exp"
    if tag == "log_guarded":
        return "log"
    if tag == "constant":
        return f"const:{_render_scalar(desc.params[0])}"
    if tag == "power":
        return f"pow:{_render_scalar(desc.params[0])}"
    if tag == "affine":
        a, b = desc.params
        return f"affine:{_render_scalar(a)}:{_render_scalar(b)}"
    if tag == "scaled":
        return f"scaled:{_render_scalar(desc.params[0])}:{render_function(desc.inner[0])}"
    if tag == "composed_with_affine":
        a, b = desc.params
        return f"compaff:{_render_scalar(a)}:{_render_scalar(b)}:{render_function(desc.inner[0])}"
    if tag == "sum":
        return f"sum:{render_function(desc.inner[0])},{render_function(desc.inner[1])}"
    raise ConfigError(f"unknown function tag {tag!r}")
