"""Spectral-calculus kernel on Chebyshev-Gauss-Lobatto grids.

Every Chebyshev transform goes through one FFT DCT-I, an unscaled
np.fft.irfft, which pads and evenly extends its input itself (Chebfun's
vals2coeffs / coeffs2vals): values to coefficients, coefficients to
values, and the Clenshaw-Curtis weights from the moments of T_k
(Waldvogel, BIT 46, 2006), all in O(N log N).  The grid's tables
replace every copy around it: no node is reversed and no buffer padded.
values_to_coefficients divides by one per-grid divisor, (-1)^k (n - 1)
doubled at both ends; coefficients_to_values scales by one per-grid
factor, (-1)^k halved inside the ends, and returns the transform's output,
which is contiguous, so sums over it run in numpy's pairwise order.
Calculus and the endpoint slopes run in coefficient space with
trailing-coefficient chopping, the accurate route for repeated
differentiation.  Derivative and antiderivative coefficients are O(L)
array recurrences on the L kept coefficients (Mason & Handscomb,
Chebyshev Polynomials, 2003): one routine, derivative_coefficients,
differentiates for this module and for geometry.
The scale-free Euler operator E_a = y d/dy + a, y = x - lo, and its inverse
(euler_coefficients, solve_euler) carry every weight y^k: nothing divides
by x - lo.  Differentiation has this one route: the explicit operator of
the discrete quadratic form is built from it, column by column.
AffineProjector is the one weighted affine projection; it and the solver's
Newton step solve their 2x2 systems by PivotedLU2, partial-pivot
elimination on Python floats, as a LAPACK call costs several times the
arithmetic.  A SampledFunction is differentiated by its grid and never
evaluated between the nodes, so nothing here needs numpy.polynomial.
The hot path is a few dozen small array steps per call, so it calls
numpy's array methods (.nonzero(), .any(), .real, the dtype) rather than
the Python-level wrappers around them, and copies nothing it only reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateWeight

CHOP_REL = 1e-14
DEGENERATE_REL = 1e-12  # Gram determinant over g00 g11 at or below this: degenerate weight
MIN_NODES = 8


def _cgl_nodes(n: int):
    """Ascending Chebyshev-Gauss-Lobatto nodes on [-1, 1]."""
    k = np.arange(n)
    return -np.cos(np.pi * k / (n - 1))


def _dct1(v: np.ndarray, n: int) -> np.ndarray:
    """Unnormalised DCT-I of length n = m + 1, v_0 + (-1)^k v_m +
    2 sum_{0<j<m} v_j cos(pi j k / m) for k = 0..m, of v (at most n
    entries, zero-padded to n).  The unscaled (norm="forward") inverse real
    FFT of the half spectrum v is this sum: it pads v and extends it evenly
    itself, so no extension or buffer is built here; np.fft.hfft is the
    same call on a conjugated copy of v.  Complex v goes through the same
    call as two stacked real rows."""
    if v.dtype.kind == "c":
        y = np.fft.irfft(np.array([v.real, v.imag]), 2 * (n - 1), norm="forward")
        return y[0, :n] + 1j * y[1, :n]
    return np.fft.irfft(v, 2 * (n - 1), norm="forward")[:n]


def _clenshaw_curtis(n: int):
    """Clenshaw-Curtis weights for n ascending CGL nodes on [-1, 1]: the
    DCT-I of the moments int T_k = 2 / (1 - k^2) (k even, 0 for k odd),
    which is symmetric, so it needs no reversal."""
    k = np.arange(0, n, 2)
    mu = np.zeros(n)
    mu[k] = 2.0 / (1.0 - k * k)
    w = _dct1(mu, n) / (n - 1)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def chop_coefficients(c: np.ndarray) -> np.ndarray:
    """Drop the trailing run of coefficients below CHOP_REL * max|c|: a
    leading slice of c, not a copy (no caller writes into it).

    High-order coefficients of smooth sampled data sit on a roundoff
    plateau; differentiating them amplifies the noise by O(N^3), so they
    are removed before coefficient-space calculus.
    """
    mag = np.abs(c)
    top = mag.max() if c.size else 0.0
    if top == 0.0:
        return c[:1]
    keep = (mag > CHOP_REL * top).nonzero()[0]
    return c[: keep[-1] + 1]


def derivative_coefficients(coeffs, order: int = 1) -> np.ndarray:
    """Chebyshev coefficients of the order-th t-derivative of sum_k c_k T_k
    (real or complex floats), order >= 0.  Each order takes
    d_j = (2 - [j = 0]) sum_{k > j, k - j odd} k c_k, a reverse cumulative
    sum along each parity strand; a series of degree below order gives [0]
    at once.  The input is read, never copied or written."""
    d = np.asarray(coeffs)
    if order and d.size <= order:
        return np.zeros(1, dtype=d.dtype)
    for _ in range(order):
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
            raise ConfigError(f"node count must be at least {MIN_NODES}, got {n}")
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
        # The DCT-I runs over the nodes in descending t, where T_k(t_j) =
        # cos(pi j k / m); over the ascending nodes it carries (-1)^k, which
        # these tables fold in.  values_to_coefficients divides by
        # (-1)^k (n - 1), doubled at both ends, so c_0 and c_m are halved
        # exactly.
        sign = np.where(np.arange(n + 1) % 2, -1.0, 1.0)  # (-1)^k, k = 0..n
        self._v2c_divisor = sign[:n] * (n - 1)
        self._v2c_divisor[[0, -1]] *= 2.0
        # coefficients_to_values scales c_k by (-1)^k, halved inside
        self._c2v_factor = 0.5 * sign[:n]
        self._c2v_factor[[0, -1]] *= 2.0
        # T_k'(1) = k^2 and T_k'(-1) = (-1)^(k+1) k^2, n + 1 long: a profile
        # built in coefficient space can carry n + 1 coefficients
        self._slope_hi = np.arange(n + 1.0) ** 2
        self._slope_lo = -sign * self._slope_hi

    # -- coefficient transforms ------------------------------------------
    def values_to_coefficients(self, values: np.ndarray) -> np.ndarray:
        """Chebyshev coefficients (in t) of the interpolant of the values."""
        return _dct1(np.asarray(values), self.n) / self._v2c_divisor

    def coefficients_to_values(self, coeffs: np.ndarray) -> np.ndarray:
        """Values at the nodes of sum_k c_k T_k(t), a contiguous array (sums
        over it run in numpy's pairwise order).  Coefficients beyond the
        grid's degree m = n - 1 are folded onto it: at the nodes T_k equals
        T_j with j = k mod 2m reflected into [0, m]."""
        c = np.asarray(coeffs)
        n, m = self.n, self.n - 1
        if c.size > n:
            k = np.arange(c.size) % (2 * m)
            g = np.zeros(n, dtype=np.result_type(c, float))
            np.add.at(g, np.minimum(k, 2 * m - k), c)
            c = g
        return _dct1(c * self._c2v_factor[: c.size], n)

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
        """(d/dx at lo, d/dx at hi) of sum_k c_k T_k from its (chopped)
        coefficients, at most n + 1 of them: T_k'(-1) = (-1)^(k+1) k^2 and
        T_k'(1) = k^2, two dot products with the grid's tables."""
        size = coeffs.size
        scale = 2.0 / self.span
        return (self._slope_lo[:size] @ coeffs) * scale, (self._slope_hi[:size] @ coeffs) * scale

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
        if not np.isfinite(v).all():  # complex: both parts
            raise ValueError("non-finite sample values")
        object.__setattr__(self, "values", v)


class PivotedLU2:
    """Partial-pivot LU factors of the real 2x2 matrix [[a, b], [c, d]], on
    Python floats: factored once, each solve is a forward and a back
    substitution.  The pivot is the larger entry of the first column, as in
    LAPACK's getrf, which multiplies by its reciprocal where this divides,
    so the two may differ in the last bits.  A singular matrix divides by
    zero: callers test the rank (or the Gram determinant) first."""

    __slots__ = ("swap", "a", "b", "lower", "upper")

    def __init__(self, a: float, b: float, c: float, d: float):
        self.swap = abs(c) > abs(a)
        if self.swap:
            a, b, c, d = c, d, a, b
        self.a, self.b = a, b
        self.lower = c / a
        self.upper = d - self.lower * b

    def solve(self, r0, r1):
        """(u, v) with [[a, b], [c, d]] (u, v) = (r0, r1); r may be complex."""
        if self.swap:
            r0, r1 = r1, r0
        v = (r1 - self.lower * r0) / self.upper
        return (r0 - self.b * v) / self.a, v


class AffineProjector:
    """Weighted L2 projection onto the affine functions a*x + b on a grid:
    the Clenshaw-Curtis weights qw of w and the pivoted LU factors of the
    Gram matrix of (x, 1) are built once, when the projector is, so that
    projecting costs two dot products and a back substitution.  A geometry
    keeps the projector of its class weight (ProfileGeometry.affine_projector)."""

    def __init__(self, weight: np.ndarray, grid: SpectralGrid):
        w = np.asarray(weight, dtype=float)
        if (w < -1e-13).any():
            raise DegenerateWeight("weight must be nonnegative")
        qw = grid.quad_weights * w
        x = grid.x
        g00, g01, mass = float(qw @ (x * x)), float(qw @ x), float(qw.sum())
        if not mass > 0:
            raise DegenerateWeight("degenerate normal equations")
        # the moments of the unit-mass weight make the test scale-free: its
        # Gram determinant m2 - m1^2 against g00 g11 = m2
        m1, m2 = g01 / mass, g00 / mass
        if m2 - m1 * m1 <= DEGENERATE_REL * m2:
            raise DegenerateWeight("degenerate normal equations")
        self.x, self.qw = x, qw
        self.gram = PivotedLU2(g00, g01, g01, mass)

    def coefficients(self, psi: np.ndarray) -> tuple:
        """(alpha, beta) minimizing int |psi - (alpha x + beta)|^2 w dx, as
        Python floats (complex for complex psi)."""
        return self.gram.solve((self.qw @ (self.x * psi)).item(), (self.qw @ psi).item())

    def project(self, psi: np.ndarray):
        """(alpha, beta, residual_norm) of the projection; complex psi is
        projected componentwise (same Gram matrix for both parts)."""
        alpha, beta = self.coefficients(psi)
        resid = psi - (alpha * self.x + beta)
        residual_norm = math.sqrt(max(float(self.qw @ np.abs(resid) ** 2), 0.0))
        if psi.dtype.kind != "c":
            alpha, beta = float(alpha.real), float(beta.real)
        return alpha, beta, residual_norm
