"""Spectral-calculus kernel on Chebyshev-Gauss-Lobatto grids.

Every Chebyshev transform goes through one FFT DCT-I of the even extension
(Chebfun's vals2coeffs / coeffs2vals): values to coefficients, coefficients
to values, and the Clenshaw-Curtis weights from the moments of T_k
(Waldvogel, BIT 46, 2006), all in O(N log N).  Calculus and the endpoint
slopes run in coefficient space with trailing-coefficient chopping, the
accurate route for repeated differentiation.  Derivative and antiderivative
coefficients are O(L) array recurrences on the L kept coefficients (Mason &
Handscomb, Chebyshev Polynomials, 2003): one routine,
derivative_coefficients, differentiates for this module and for geometry.
The scale-free Euler operator E_a = y d/dy + a, y = x - lo, and its inverse
(euler_coefficients, solve_euler) carry every weight y^k: nothing divides
by x - lo.  The dense barycentric differentiation matrices are built only
on demand, for the explicit operator of the discrete quadratic form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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


def _dct1(v: np.ndarray) -> np.ndarray:
    """Unnormalised DCT-I, v_0 + (-1)^k v_m + 2 sum_{0<j<m} v_j cos(pi j k / m)
    for k = 0..m, by an FFT of the even extension of v (real or complex)."""
    ext = np.concatenate([v, v[-2:0:-1]])
    if np.iscomplexobj(ext):
        return np.fft.fft(ext)[: v.size]
    return np.fft.rfft(ext).real


def _diff_matrices(x: np.ndarray):
    """First and second barycentric differentiation matrices on nodes x,
    with the negative-sum trick on the diagonal (Welfert's recurrence)."""
    w = _bary_weights(x.size)
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    dxi = 1.0 / dx
    d1 = (w[None, :] / w[:, None]) * dxi
    np.fill_diagonal(d1, 0.0)
    np.fill_diagonal(d1, -d1.sum(axis=1))
    d2 = 2.0 * d1 * (np.diag(d1)[:, None] - dxi)
    np.fill_diagonal(d2, 0.0)
    np.fill_diagonal(d2, -d2.sum(axis=1))
    return d1, d2


def _clenshaw_curtis(n: int):
    """Clenshaw-Curtis weights for n ascending CGL nodes on [-1, 1]: the
    DCT-I of the moments int T_k = 2 / (1 - k^2) (k even, 0 for k odd)."""
    k = np.arange(0, n, 2)
    mu = np.zeros(n)
    mu[k] = 2.0 / (1.0 - k * k)
    w = _dct1(mu) / (n - 1)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w[::-1].copy()


def chop_coefficients(c: np.ndarray) -> np.ndarray:
    """Drop the trailing run of coefficients below CHOP_REL * max|c|.

    High-order coefficients of smooth sampled data sit on a roundoff
    plateau; differentiating them amplifies the noise by O(N^3), so they
    are removed before coefficient-space calculus.
    """
    mag = np.abs(c)
    top = mag.max() if c.size else 0.0
    if top == 0.0:
        return c[:1].copy()
    keep = np.nonzero(mag > CHOP_REL * top)[0]
    return c[: keep[-1] + 1].copy()


def derivative_coefficients(coeffs, order: int = 1) -> np.ndarray:
    """Chebyshev coefficients of the order-th t-derivative of sum_k c_k T_k
    (real or complex), order >= 0.  Each order takes
    d_j = (2 - [j = 0]) sum_{k > j, k - j odd} k c_k, a reverse cumulative
    sum along each parity strand; a series of degree below order gives [0]."""
    c = np.asarray(coeffs)
    d = np.array(c, dtype=np.result_type(c, float), ndmin=1)
    for _ in range(order):
        if d.size < 2:
            return np.zeros(1, dtype=d.dtype)
        kc = np.arange(1, d.size) * d[1:]  # kc[j] = (j + 1) c_(j+1)
        d = np.empty_like(kc)
        d[::2] = kc[::2][::-1].cumsum()[::-1]
        d[1::2] = kc[1::2][::-1].cumsum()[::-1]
        d[1:] *= 2.0
    return d


def euler_coefficients(coeffs, a: float) -> np.ndarray:
    """Chebyshev coefficients of (y d/dy + a) sum_n c_n T_n, y = x - lo (real
    or complex): y d/dy = (t + 1) d/dt and (t + 1) T_n' = n T_n +
    2n sum'_{j<n} T_j (the j = 0 term halved), one reverse cumulative sum."""
    c = np.asarray(coeffs)
    n = np.arange(c.size)
    tail = np.zeros(c.size, dtype=np.result_type(c, float))  # sum over n > j of n c_n
    tail[:-1] = (n * c)[:0:-1].cumsum()[::-1]
    tail[1:] *= 2.0
    return (n + a) * c + tail


def solve_euler(coeffs: np.ndarray, a: float) -> np.ndarray:
    """Chebyshev coefficients v with (y d/dy + a) v = coeffs, a > 0: the
    inverse of euler_coefficients, whose map is upper triangular, by back
    substitution."""
    v = np.empty(coeffs.size, dtype=np.result_type(coeffs, float))
    tail = 0.0  # sum over n > j of n v_n
    for j in range(coeffs.size - 1, -1, -1):
        v[j] = (coeffs[j] - (tail if j == 0 else 2.0 * tail)) / (j + a)
        tail += j * v[j]
    return v


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
        self.quad_weights = _clenshaw_curtis(n) * (self.span / 2.0)

    # -- dense operators, built on first use -------------------------------
    @cached_property
    def _diff(self):
        return _diff_matrices(self.x)

    @property
    def d1(self) -> np.ndarray:
        """Dense first barycentric differentiation matrix (built on demand)."""
        return self._diff[0]

    @property
    def d2(self) -> np.ndarray:
        """Dense second barycentric differentiation matrix (built on demand)."""
        return self._diff[1]

    # -- coefficient transforms ------------------------------------------
    def values_to_coefficients(self, values: np.ndarray) -> np.ndarray:
        """Chebyshev coefficients (in t) of the interpolant of the values."""
        c = _dct1(np.asarray(values)[::-1]) / (self.n - 1)
        c[0] *= 0.5
        c[-1] *= 0.5
        return c

    def coefficients_to_values(self, coeffs: np.ndarray) -> np.ndarray:
        """Values at the nodes of sum_k c_k T_k(t).  Coefficients beyond the
        grid's degree m = n - 1 are folded onto it: at the nodes T_k equals
        T_j with j = k mod 2m reflected into [0, m]."""
        c = np.asarray(coeffs)
        n, m = self.n, self.n - 1
        g = np.zeros(n, dtype=np.result_type(c, float))
        if c.size > n:
            k = np.arange(c.size) % (2 * m)
            np.add.at(g, np.minimum(k, 2 * m - k), c)
        else:
            g[: c.size] = c
        g[1:-1] *= 0.5
        return _dct1(g)[::-1].copy()  # contiguous: sums over it run in numpy's pairwise order

    # -- calculus ---------------------------------------------------------
    def differentiate_values(self, values: np.ndarray, order: int = 1) -> np.ndarray:
        c = chop_coefficients(self.values_to_coefficients(values))
        dc = derivative_coefficients(c, order) * (2.0 / self.span) ** order
        return self.coefficients_to_values(dc)

    def antiderivative_values(self, values: np.ndarray) -> np.ndarray:
        """Antiderivative vanishing at the left endpoint, from the closed form
        C_k = (c_(k-1) - c_(k+1)) / (2k) with c_0 counted twice and C_0 = 0
        (the constant drops out when the value at lo is subtracted)."""
        c = chop_coefficients(self.values_to_coefficients(values))
        padded = np.concatenate([c, np.zeros(2)])
        padded[0] *= 2.0
        ci = np.zeros(c.size + 1, dtype=padded.dtype)
        ci[1:] = (padded[:-2] - padded[2:]) * (self.span / 4.0) / np.arange(1, c.size + 1)
        v = self.coefficients_to_values(ci)
        return v - v[0]

    def endpoint_slopes(self, coeffs: np.ndarray):
        """(d/dx at lo, d/dx at hi) of sum_k c_k T_k, from its (chopped)
        coefficients: T_k'(1) = k^2 and T_k'(-1) = (-1)^(k+1) k^2."""
        k = np.arange(coeffs.size)
        kc = k * k * coeffs
        even, odd = kc[::2].sum(), kc[1::2].sum()
        scale = 2.0 / self.span
        return (odd - even) * scale, (odd + even) * scale

    def integrate_values(self, values: np.ndarray):
        return self.quad_weights @ np.asarray(values)

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

    def __call__(self, xq):
        """The interpolant at the points xq, by one chebval of the grid
        coefficients; a point on a node returns that node's value."""
        grid = self.grid
        xq = np.atleast_1d(np.asarray(xq, dtype=float))
        t = (2.0 * xq - grid.lo - grid.hi) / grid.span
        out = cheb.chebval(t, grid.values_to_coefficients(self.values))
        i = np.minimum(np.searchsorted(grid.x, xq), grid.n - 1)
        on_node = grid.x[i] == xq
        out[on_node] = self.values[i[on_node]]
        return out if out.size > 1 else out[0]


def affine_projection(psi: np.ndarray, weight: np.ndarray, grid: SpectralGrid):
    """Weighted L2 projection of the values psi onto the affine functions
    a*x + b on the grid.

    Returns (alpha, beta, residual_norm) minimizing
    int |psi - (alpha x + beta)|^2 w dx, w the weight values.  Complex psi
    is projected componentwise (same Gram matrix for both parts).
    """
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
