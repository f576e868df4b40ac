"""Spectral-calculus kernel on Chebyshev-Gauss-Lobatto grids.

Differentiation is available both as dense barycentric matrices (used where
an explicit operator is needed, e.g. the discrete quadratic form) and
through Chebyshev coefficient space with trailing-coefficient chopping,
which is the accurate route for repeated differentiation.  Quadrature is
Clenshaw-Curtis on the same nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .errors import DegenerateWeight

CHOP_REL = 1e-14
MIN_NODES = 8


def _cgl_nodes(n: int):
    """Ascending Chebyshev-Gauss-Lobatto nodes on [-1, 1]."""
    k = np.arange(n)
    return -np.cos(np.pi * k / (n - 1))


def _bary_weights(n: int):
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    w *= (-1.0) ** np.arange(n)
    return w


def _diff_matrices(x: np.ndarray):
    """First and second barycentric differentiation matrices on nodes x,
    with the negative-sum trick on the diagonal (Welfert's recurrence)."""
    n = x.size
    w = _bary_weights(n)
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    dxi = 1.0 / dx
    dw = w[None, :] / w[:, None]
    np.fill_diagonal(dw, 0.0)
    d1 = dw * dxi
    np.fill_diagonal(d1, 0.0)
    np.fill_diagonal(d1, -d1.sum(axis=1))
    d2 = 2.0 * d1 * (np.tile(np.diag(d1), (n, 1)).T - dxi)
    np.fill_diagonal(d2, 0.0)
    np.fill_diagonal(d2, -d2.sum(axis=1))
    return d1, d2


def _clenshaw_curtis(n: int):
    """Clenshaw-Curtis weights for n ascending CGL nodes on [-1, 1]."""
    m = n - 1
    theta = np.pi * np.arange(m + 1) / m
    w = np.zeros(m + 1)
    v = np.ones(m - 1)
    if m % 2 == 0:
        w[0] = w[m] = 1.0 / (m * m - 1)
        for k in range(1, m // 2):
            v -= 2.0 * np.cos(2 * k * theta[1:m]) / (4 * k * k - 1)
        v -= np.cos(m * theta[1:m]) / (m * m - 1)
    else:
        w[0] = w[m] = 1.0 / (m * m)
        for k in range(1, (m - 1) // 2 + 1):
            v -= 2.0 * np.cos(2 * k * theta[1:m]) / (4 * k * k - 1)
    w[1:m] = 2.0 * v / m
    return w[::-1].copy()


def chop_coefficients(c: np.ndarray, rel: float = CHOP_REL) -> np.ndarray:
    """Drop the trailing run of coefficients below rel * max|c|.

    High-order coefficients of smooth sampled data sit on a roundoff
    plateau; differentiating them amplifies the noise by O(N^3), so they
    are removed before coefficient-space calculus.
    """
    mag = np.abs(c)
    top = mag.max() if c.size else 0.0
    if top == 0.0:
        return c[:1].copy()
    keep = np.nonzero(mag > rel * top)[0]
    return c[: keep[-1] + 1].copy()


class SpectralGrid:
    """Immutable CGL collocation grid on [lo, hi]."""

    def __init__(self, n: int, lo: float, hi: float):
        if n < MIN_NODES:
            raise ValueError(f"node count must be at least {MIN_NODES}")
        if not lo < hi:
            raise ValueError("need lo < hi")
        self.n = n
        self.lo = float(lo)
        self.hi = float(hi)
        self.span = self.hi - self.lo
        self.t = _cgl_nodes(n)
        self.x = self.lo + self.span * (self.t + 1.0) / 2.0
        # pin the endpoints exactly
        self.x[0] = self.lo
        self.x[-1] = self.hi
        self.d1, self.d2 = _diff_matrices(self.x)
        self.quad_weights = _clenshaw_curtis(n) * (self.span / 2.0)
        j = np.arange(n)
        # DCT-I style synthesis matrix for values (descending t) -> coeffs
        self._cos = np.cos(np.pi * np.outer(j, j) / (n - 1))

    # -- coefficient transforms ------------------------------------------
    def values_to_coefficients(self, values: np.ndarray) -> np.ndarray:
        m = self.n - 1
        f = np.asarray(values)[::-1].astype(complex if np.iscomplexobj(values) else float)
        f = f.copy()
        f[0] *= 0.5
        f[-1] *= 0.5
        c = (2.0 / m) * (self._cos @ f)
        c[0] *= 0.5
        c[-1] *= 0.5
        return c

    def coefficients_to_values(self, coeffs: np.ndarray) -> np.ndarray:
        return cheb.chebval(self.t, coeffs)

    # -- calculus ---------------------------------------------------------
    def differentiate_values(self, values: np.ndarray, order: int = 1) -> np.ndarray:
        c = chop_coefficients(self.values_to_coefficients(values))
        dc = cheb.chebder(c, order) * (2.0 / self.span) ** order
        return self.coefficients_to_values(dc)

    def antiderivative_values(self, values: np.ndarray) -> np.ndarray:
        """Antiderivative vanishing at the left endpoint."""
        c = chop_coefficients(self.values_to_coefficients(values))
        ci = cheb.chebint(c) * (self.span / 2.0)
        v = self.coefficients_to_values(ci)
        return v - v[0]

    def integrate_values(self, values: np.ndarray):
        return self.quad_weights @ np.asarray(values)

    def divide_by_left_monomial(self, values: np.ndarray, order: int) -> np.ndarray:
        """Evaluate values / (x - lo)**order by polynomial division in
        coefficient space.  Requires the numerator to vanish at lo to the
        stated order up to grid accuracy; the remainder is discarded."""
        if order <= 0:
            return np.asarray(values, dtype=values.dtype)
        c = chop_coefficients(self.values_to_coefficients(values))
        den = np.array([self.span / 2.0, self.span / 2.0])  # (x - lo) in t
        for _ in range(order):
            c, _rem = cheb.chebdiv(c, den)
            if c.size == 0:
                c = np.zeros(1)
        return self.coefficients_to_values(c)

    def interpolate(self, values: np.ndarray, xq):
        """Barycentric interpolation of the grid polynomial at points xq."""
        xq = np.atleast_1d(np.asarray(xq, dtype=float))
        w = _bary_weights(self.n)
        out = np.empty(xq.shape, dtype=np.result_type(values, float))
        for i, xv in enumerate(xq):
            d = xv - self.x
            hit = np.nonzero(d == 0.0)[0]
            if hit.size:
                out[i] = values[hit[0]]
            else:
                k = w / d
                out[i] = (k @ values) / k.sum()
        return out if out.size > 1 else out[0]

    def __repr__(self):
        return f"SpectralGrid(n={self.n}, lo={self.lo}, hi={self.hi})"


_GRID_CACHE: dict = {}


def get_grid(n: int, lo: float, hi: float) -> SpectralGrid:
    key = (int(n), float(lo), float(hi))
    if key not in _GRID_CACHE:
        _GRID_CACHE[key] = SpectralGrid(*key)
    return _GRID_CACHE[key]


@dataclass(frozen=True)
class SampledFunction:
    """Values of a function at the nodes of a SpectralGrid."""

    grid: SpectralGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (self.grid.n,):
            raise ValueError("value count does not match the grid")
        if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
            raise ValueError("non-finite sample values")
        object.__setattr__(self, "values", v)

    def derivative(self, order: int = 1) -> "SampledFunction":
        return SampledFunction(self.grid, self.grid.differentiate_values(self.values, order))

    def definite_integral(self):
        return self.grid.integrate_values(self.values)

    def __call__(self, xq):
        return self.grid.interpolate(self.values, xq)


def sample(grid: SpectralGrid, fn) -> SampledFunction:
    return SampledFunction(grid, np.asarray(fn(grid.x)))


def differentiate(f: SampledFunction, order: int = 1) -> SampledFunction:
    """Spectral derivative of the stated order (1 or 2)."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    return f.derivative(order)


def integrate(f: SampledFunction):
    """Clenshaw-Curtis quadrature of f over its grid interval."""
    return f.definite_integral()


def affine_projection(psi, weight, grid: SpectralGrid | None = None):
    """Weighted L2 projection of psi onto the affine functions a*x + b.

    Returns (alpha, beta, residual_norm) minimizing
    int |psi - (alpha x + beta)|^2 w dx.  Complex psi is projected
    componentwise (same Gram matrix for both parts).
    """
    if isinstance(psi, SampledFunction):
        grid = psi.grid
        psi = psi.values
    if isinstance(weight, SampledFunction):
        weight = weight.values
    if grid is None:
        raise ValueError("grid required for raw arrays")
    w = np.asarray(weight, dtype=float)
    if np.any(w < -1e-13):
        raise DegenerateWeight("weight must be nonnegative")
    qw = grid.quad_weights * w
    x = grid.x
    g = np.array([[qw @ (x * x), qw @ x], [qw @ x, qw.sum()]])
    if qw.sum() <= 0 or abs(np.linalg.det(g)) < 1e-300:
        raise DegenerateWeight("degenerate normal equations")
    rhs = np.array([qw @ (x * psi), qw @ psi])
    alpha, beta = np.linalg.solve(g, rhs)
    resid = psi - (alpha * x + beta)
    residual_norm = float(np.sqrt(max(qw @ np.abs(resid) ** 2, 0.0).real))
    if not np.iscomplexobj(psi):
        alpha, beta = float(alpha.real), float(beta.real)
    return alpha, beta, residual_norm
