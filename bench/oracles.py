"""Reference computations for the benchmark's correctness checks.

Nothing here imports calabilab.  Nodes, Clenshaw-Curtis weights, the
values-to-coefficients transform (a DCT-I through numpy.fft) and the
coefficient calculus are re-implemented with numpy, and the expected values
are closed forms of the Fubini-Study metrics.  A check therefore agrees with
the program only when both reach the same number by different routes.

Tolerances are those of the acceptance gate (tests/test_acceptance.py):
1e-8 on profiles, coefficients, Futaki and criticality, 1e-9 on S, and a
first-variation convergence order of at least 1.9.  Values of size above 1
are compared relative to their size.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial import chebyshev as C

TOL = 1e-8
TOL_S = 1e-9
MIN_ORDER = 1.9
MAX_DIGITS = 15.0
# Trailing Chebyshev coefficients below this share of the largest are
# treated as roundoff before differentiating.
CHOP = 1e-13


# -- closed forms --------------------------------------------------------------
def interval(geom: str) -> tuple[float, float]:
    return (-1.0, 1.0) if geom == "cp1" else (0.0, 1.0)


def dim(geom: str) -> int:
    return 1 if geom == "cp1" else int(geom.split(":")[1])


def volume(geom: str) -> float:
    """C_vol * int w dx with C_vol = 2 pi: 4 pi on CP^1, 2 pi / m on CP^m."""
    m = dim(geom)
    return 4.0 * math.pi if m == 1 else 2.0 * math.pi / m


def total_scalar(geom: str) -> float:
    """Gauss-Bonnet total 4 pi (m + 1); 8 pi on CP^1."""
    return 4.0 * math.pi * (dim(geom) + 1)


def s0(geom: str) -> float:
    """Constant scalar curvature of the Fubini-Study metric, 2 m (m + 1)."""
    return total_scalar(geom) / volume(geom)


def round_theta(geom: str, x: np.ndarray) -> np.ndarray:
    return 1.0 - x * x if geom == "cp1" else 2.0 * x * (1.0 - x)


def weight(geom: str, x: np.ndarray) -> np.ndarray:
    return np.ones_like(x) if geom == "cp1" else x ** (dim(geom) - 1)


def base_term(geom: str, x: np.ndarray) -> np.ndarray:
    m = dim(geom)
    return np.zeros_like(x) if m == 1 else 2.0 * m * (m - 1) * x ** (m - 2)


def phi_moment(geom: str, shift: float) -> float:
    """C_vol * int (x + shift) w dx."""
    m = dim(geom)
    if m == 1:
        return 4.0 * math.pi * shift
    return 2.0 * math.pi * (1.0 / (m + 1) + shift / m)


# -- grid, quadrature and coefficients ----------------------------------------
class Grid:
    """Ascending Chebyshev-Gauss-Lobatto nodes on [lo, hi] with
    Clenshaw-Curtis weights."""

    def __init__(self, n: int, lo: float, hi: float):
        self.n, self.lo, self.hi = n, lo, hi
        self.span = hi - lo
        k = np.arange(n)
        self.t = -np.cos(np.pi * k / (n - 1))
        self.x = lo + self.span * (self.t + 1.0) / 2.0
        self.x[0], self.x[-1] = lo, hi
        self.qw = _cc_weights(n) * (self.span / 2.0)

    def coeffs(self, values: np.ndarray) -> np.ndarray:
        """Chebyshev coefficients (in t) of the interpolant, by DCT-I."""
        f = np.asarray(values, dtype=float)[::-1]
        m = f.size - 1
        ext = np.concatenate([f, f[m - 1 : 0 : -1]])
        c = np.fft.rfft(ext).real[: m + 1] / m
        c[0] /= 2.0
        c[m] /= 2.0
        return c

    def smooth_coeffs(self, values: np.ndarray) -> np.ndarray:
        c = self.coeffs(values)
        top = np.abs(c).max()
        if top == 0.0:
            return c[:1]
        keep = np.nonzero(np.abs(c) > CHOP * top)[0]
        return c[: keep[-1] + 1]

    def second_derivative(self, values: np.ndarray) -> np.ndarray:
        c = C.chebder(self.smooth_coeffs(values), 2) * (2.0 / self.span) ** 2
        return C.chebval(self.t, c) if c.size else np.zeros(self.n)

    def end_slopes(self, values: np.ndarray) -> tuple[float, float]:
        c = self.smooth_coeffs(values)
        k = np.arange(c.size)
        scale = 2.0 / self.span
        lo = float(np.sum(c * (-1.0) ** (k + 1) * k * k)) * scale
        hi = float(np.sum(c * k * k)) * scale
        return lo, hi

    def antiderivative(self, values: np.ndarray) -> np.ndarray:
        """Antiderivative vanishing at lo, through the coefficients."""
        c = C.chebint(self.smooth_coeffs(values), lbnd=-1.0) * (self.span / 2.0)
        return C.chebval(self.t, c)

    def integrate(self, values: np.ndarray) -> float:
        return float(self.qw @ values)


@functools.lru_cache(maxsize=None)
def grid_for(geom: str, n: int) -> Grid:
    return Grid(n, *interval(geom))


def _cc_weights(n: int) -> np.ndarray:
    """Clenshaw-Curtis weights on [-1, 1] by the closed cosine-sum formula."""
    m = n - 1
    theta = np.pi * np.arange(n) / m
    j = np.arange(1, m // 2 + 1)
    b = np.where(2 * j == m, 1.0, 2.0)
    w = 1.0 - (np.cos(2.0 * np.outer(theta, j)) @ (b / (4.0 * j * j - 1.0)))
    c = np.full(n, 2.0)
    c[0] = c[-1] = 1.0
    return c * w / m


# -- derived quantities ----------------------------------------------------------
def scalar_curvature(grid: Grid, geom: str, theta: np.ndarray) -> np.ndarray:
    """s = (A - (w Theta)'') / w; at the degenerate end of CP^m the division
    by x^(m-1) is polynomial division of the smoothed numerator."""
    x = grid.x
    w = weight(geom, x)
    num = base_term(geom, x) - grid.second_derivative(w * theta)
    order = dim(geom) - 1
    if order == 0:
        return num
    c = grid.smooth_coeffs(num)
    for _ in range(order):
        c = C.chebdiv(c, [0.5, 0.5])[0] if c.size > 1 else np.zeros(1)
    return C.chebval(grid.t, c)


def affine_fit(grid: Grid, geom: str, psi: np.ndarray):
    """Weighted least-squares alpha x + beta; returns (alpha, beta, defect)
    with defect = sqrt(C_vol int |psi - alpha x - beta|^2 w dx)."""
    x = grid.x
    q = grid.qw * weight(geom, x)
    g = np.array([[q @ (x * x), q @ x], [q @ x, q.sum()]])
    alpha, beta = np.linalg.solve(g, np.array([q @ (x * psi), q @ psi]))
    r = psi - (alpha * x + beta)
    return float(alpha), float(beta), math.sqrt(max(2.0 * math.pi * float(q @ (r * r)), 0.0))


def f_prime(spec: str, s: np.ndarray) -> np.ndarray:
    if spec == "exp":
        return np.exp(s)
    if spec == "pow:2":
        return 2.0 * s
    if spec == "scaled:0.5:pow:2":
        return s.copy()
    if spec == "id":
        return np.ones_like(s)
    raise ValueError(f"no reference derivative for f = {spec!r}")


def h_value(spec: str, phi: np.ndarray) -> np.ndarray:
    if spec == "const:1":
        return np.ones_like(phi)
    if spec == "id":
        return phi.copy()
    if spec == "pow:2":
        return phi * phi
    if spec == "exp":
        return np.exp(phi)
    raise ValueError(f"no reference value for h = {spec!r}")


# -- verdicts --------------------------------------------------------------------
class Verdict:
    """Collects named checks of one op; rel() records the worst relative
    error seen, which becomes the op's accuracy in digits."""

    def __init__(self):
        self.failed: list[str] = []
        self.worst = 0.0

    def rel(self, name: str, got, want, tol: float = TOL) -> None:
        got = complex(got)
        err = abs(got - want) / max(1.0, abs(want))
        if not math.isfinite(err):
            err = math.inf
        self.worst = max(self.worst, err)
        if not err <= tol:
            self.failed.append(f"{name}: rel err {err:.2e} > {tol:.0e}")

    def holds(self, name: str, ok: bool, detail: str = "") -> None:
        if not ok:
            self.failed.append(f"{name}{': ' + detail if detail else ''}")

    @property
    def ok(self) -> bool:
        return not self.failed

    def digits(self) -> float:
        if self.worst <= 0.0:
            return MAX_DIGITS
        return min(MAX_DIGITS, max(0.0, -math.log10(self.worst)))


def check_admissible(v: Verdict, grid: Grid, geom: str, theta: np.ndarray) -> None:
    lo, hi = grid.end_slopes(theta)
    v.rel("Theta(lo)", theta[0], 0.0)
    v.rel("Theta(hi)", theta[-1], 0.0)
    v.rel("Theta'(lo)", lo, 2.0)
    v.rel("Theta'(hi)", hi, -2.0)
    v.holds("interior positivity", bool(np.all(theta[1:-1] > 0.0)))


def check_critical(v: Verdict, grid: Grid, geom: str, theta: np.ndarray,
                   f: str, h: str, shift: float, alpha: float, beta: float):
    """Recompute s from Theta, psi = f'(s) h(phi), and its affine defect.

    The defect must be within 1e-8 (1 + sup|psi|), the tolerance the
    program's own report states, and (alpha, beta) must match the fit.
    Returns (defect, scale), or (None, None) when psi is not finite."""
    check_admissible(v, grid, geom, theta)
    s = scalar_curvature(grid, geom, theta)
    psi = f_prime(f, s) * h_value(h, grid.x + shift)
    if not np.all(np.isfinite(psi)):
        v.holds("finite psi", False)
        v.worst = math.inf
        return None, None
    a, b, defect = affine_fit(grid, geom, psi)
    scale = 1.0 + float(np.abs(psi).max())
    v.rel("affine defect", defect / scale, 0.0)
    v.rel("alpha", alpha / scale, a / scale)
    v.rel("beta", beta / scale, b / scale)
    return defect, scale
