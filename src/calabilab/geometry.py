"""Reduced circle-symmetric Kahler geometries and their momentum profiles.

Every geometry is one family: with y = x - x_lo on the grid's interval
[x_lo, x_hi], the volume weight is w = y^k and the base-curvature term is
A = k (k + 1) slope_lo y^(k - 1); CP^1 is k = 0 and CP^m is k = m - 1.  A
metric in the class is a profile Theta(x) >= 0 vanishing at the endpoints
with the prescribed slopes, of scalar curvature s = (A - (w Theta)'') / w.
Nothing divides by w: with R = Theta / y, one division by the single root,
s = -Theta'' + k ((k + 1) (slope_lo - R) / y - 2 R') takes one more, and
(w Theta^j g)^(j) / w expands by Leibniz into R, g and powers of y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, NamedTuple

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .errors import AdmissibilityError
from .rng import SplitMix64
from .spectral import SampledFunction, SpectralGrid, chop_coefficients, derivative_coefficients, get_grid

DEFAULT_NODES = 129
BOUNDARY_TOL = 1e-8
MAX_HALVINGS = 20


@dataclass(frozen=True)
class ProfileGeometry:
    """Fixed Kahler-class data: the grid and the order k of the weight
    w = (x - x_lo)^k.  The boundary slopes and C_vol (one angular circle)
    are the same for every class."""

    grid: SpectralGrid
    k: int
    slope_lo: ClassVar[float] = 2.0
    slope_hi: ClassVar[float] = -2.0
    vol_const: ClassVar[float] = 2.0 * np.pi

    @property
    def dim(self) -> int:
        """Complex dimension m = k + 1."""
        return self.k + 1

    @property
    def kind(self) -> str:
        """The geometry's name: cp1 for k = 0, else cpm."""
        return "cp1" if self.k == 0 else "cpm"

    @property
    def x_lo(self) -> float:
        return self.grid.lo

    @property
    def x_hi(self) -> float:
        return self.grid.hi

    @cached_property
    def weight(self) -> SampledFunction:
        """w = (x - x_lo)^k."""
        return SampledFunction(self.grid, (self.grid.x - self.x_lo) ** self.k)

    @cached_property
    def base_term(self) -> SampledFunction:
        """A = k (k + 1) slope_lo (x - x_lo)^(k - 1), zero when k = 0."""
        k, y = self.k, self.grid.x - self.x_lo
        return SampledFunction(self.grid, k * (k + 1) * self.slope_lo * y ** max(k - 1, 0))


@dataclass(frozen=True)
class MetricProfile:
    """One Kahler metric in the class, the sampled profile Theta(x): a value
    whose coefficients (of Theta and R), admissibility and scalar curvature
    are evaluated once, on first read, and cached on the instance."""

    geometry: ProfileGeometry
    theta: SampledFunction

    def __post_init__(self):
        if self.theta.grid is not self.geometry.grid:
            raise ValueError("profile and geometry live on different grids")
        if np.iscomplexobj(self.theta.values):
            raise ValueError("theta must be real")

    @cached_property
    def theta_coeffs(self) -> np.ndarray:
        """Chopped Chebyshev coefficients of Theta, read by violations and s."""
        return chop_coefficients(self.geometry.grid.values_to_coefficients(self.theta.values))

    @cached_property
    def r_coeffs(self) -> np.ndarray:
        """Coefficients of R = Theta / (x - x_lo), one single-root division."""
        return self.geometry.grid.divide_by_left_root(self.theta_coeffs)

    @cached_property
    def violations(self) -> tuple:
        """The violated MetricProfile invariants, within BOUNDARY_TOL."""
        geom = self.geometry
        grid = geom.grid
        th = self.theta.values
        out = []
        if abs(th[0]) > BOUNDARY_TOL:
            out.append(Violation("endpoint value", geom.x_lo, abs(th[0])))
        if abs(th[-1]) > BOUNDARY_TOL:
            out.append(Violation("endpoint value", geom.x_hi, abs(th[-1])))
        dlo, dhi = (float(d) for d in grid.endpoint_slopes(self.theta_coeffs))
        if abs(dlo - geom.slope_lo) > BOUNDARY_TOL:
            out.append(Violation("boundary slope", geom.x_lo, abs(dlo - geom.slope_lo)))
        if abs(dhi - geom.slope_hi) > BOUNDARY_TOL:
            out.append(Violation("boundary slope", geom.x_hi, abs(dhi - geom.slope_hi)))
        interior = th[1:-1]
        if np.any(interior <= 0):
            i = int(np.argmin(interior)) + 1
            out.append(Violation("interior positivity", float(grid.x[i]), abs(min(interior.min(), 0.0))))
        return tuple(out)

    @cached_property
    def s(self) -> SampledFunction:
        """Pointwise scalar curvature of an admissible profile,
        s = -Theta'' + k ((k + 1) (slope_lo - R) / (x - x_lo) - 2 R'),
        computed in Chebyshev coefficient space."""
        require_admissible(self)
        geom = self.geometry
        grid = geom.grid
        k = geom.k
        scale = 2.0 / grid.span
        c = derivative_coefficients(self.theta_coeffs, 2) * -(scale ** 2)
        if k:
            r = self.r_coeffs
            lead = grid.divide_by_left_root(cheb.chebsub([geom.slope_lo], r))
            c = cheb.chebadd(c, k * cheb.chebsub((k + 1) * lead, 2.0 * scale * derivative_coefficients(r)))
        s = grid.coefficients_to_values(c)
        s.setflags(write=False)  # shared by every reader of the cache
        return SampledFunction(grid, s)

    def weighted_derivative(self, g: np.ndarray, j: int) -> np.ndarray:
        """(w Theta^j g)^(j) / w for j = 1 or 2, without dividing by w.
        With y = x - x_lo, w = y^k and Theta = y R, Leibniz gives
        sum_i C(j, i) (k + j)! / (k + i)! y^i F^(i), where F = R^j g."""
        grid, k = self.geometry.grid, self.geometry.k
        y = grid.x - grid.lo
        f = grid.coefficients_to_values(self.r_coeffs) ** j * g
        return sum(math.comb(j, i) * math.perm(k + j, j - i) * y ** i * grid.differentiate_values(f, i)
                   for i in range(j + 1))


class Violation(NamedTuple):
    invariant: str
    location: float
    magnitude: float

    def __str__(self):
        return f"{self.invariant} at x={self.location:.6g} (|{self.magnitude:.3e}|)"


class ClassConstants(NamedTuple):
    total_volume: float
    total_scalar: float
    s0: float


def make_cp1_geometry(nodes: int = DEFAULT_NODES) -> ProfileGeometry:
    """The CP^1 geometry: interval [-1, 1], k = 0 (w = 1, A = 0), slopes (2, -2)."""
    return ProfileGeometry(grid=get_grid(nodes, -1.0, 1.0), k=0)


def make_cpm_geometry(m: int, nodes: int = DEFAULT_NODES) -> ProfileGeometry:
    """The U(m)-invariant CP^m geometry on [0, 1]: k = m - 1, so w = x^(m-1)
    and A = 2m(m-1) x^(m-2), the coefficient that the Fubini-Study constancy
    oracle (conventions.pin_cpm_base_coefficient) recovers."""
    if m < 2:
        raise ValueError("m must be at least 2")
    return ProfileGeometry(grid=get_grid(nodes, 0.0, 1.0), k=m - 1)


def round_profile(geom: ProfileGeometry) -> MetricProfile:
    """Canonical base profile: 1 - x^2 on CP^1, 2x(1-x) on CP^m."""
    x = geom.grid.x
    theta = 1.0 - x * x if geom.k == 0 else 2.0 * x * (1.0 - x)
    return MetricProfile(geom, SampledFunction(geom.grid, theta))


def validate(profile: MetricProfile) -> list[Violation]:
    """Check the MetricProfile invariants; violations are data, not errors."""
    return list(profile.violations)


def require_admissible(profile: MetricProfile) -> None:
    if profile.violations:
        raise AdmissibilityError(profile.violations)


def scalar_curvature(profile: MetricProfile) -> SampledFunction:
    """Pointwise scalar curvature s = (A - (w Theta)'') / w (cached on the
    profile, computed without dividing by w); raises AdmissibilityError for
    an inadmissible profile."""
    return profile.s


def class_constants(geom: ProfileGeometry) -> ClassConstants:
    """Volume, total scalar curvature and its average for the class.

    total_scalar uses boundary data only and is independent of the profile:
    C_vol * (int A dx - [ (w Theta)' ]_lo^hi ) with (w Theta)' = w * slope
    at each endpoint.
    """
    grid = geom.grid
    total_volume = geom.vol_const * float(grid.integrate_values(geom.weight.values))
    base = float(grid.integrate_values(geom.base_term.values))
    bdry = geom.weight.values[-1] * geom.slope_hi - geom.weight.values[0] * geom.slope_lo
    total_scalar = geom.vol_const * (base - bdry)
    return ClassConstants(total_volume, total_scalar, total_scalar / total_volume)


def bump_factor(geom: ProfileGeometry) -> np.ndarray:
    """B(x) = (x - x_lo)^2 (x_hi - x)^2, the boundary-preserving envelope."""
    x = geom.grid.x
    return (x - geom.x_lo) ** 2 * (geom.x_hi - x) ** 2


def random_admissible_profile(geom: ProfileGeometry, seed: int, amplitude: float) -> MetricProfile:
    """Round profile plus B(x) times a random degree-<=6 Chebyshev
    polynomial with coefficients drawn from splitmix64(seed).

    The amplitude is halved up to MAX_HALVINGS times if interior positivity
    fails; deterministic in the seed.
    """
    if amplitude < 0:
        raise ValueError("amplitude must be nonnegative")
    base = round_profile(geom)
    if amplitude == 0:
        return base
    rng = SplitMix64(seed)
    coeffs = np.array([rng.uniform(-amplitude, amplitude) for _ in range(7)])
    grid = geom.grid
    q = grid.coefficients_to_values(coeffs)
    b = bump_factor(geom)
    theta0 = base.theta.values
    for _ in range(MAX_HALVINGS + 1):
        theta = theta0 + b * q
        if np.all(theta[1:-1] > 0):
            return MetricProfile(geom, SampledFunction(grid, theta))
        q = q / 2.0
    raise AdmissibilityError(
        [Violation("interior positivity", float(grid.x[1 + int(np.argmin(theta[1:-1]))]), float(-theta[1:-1].min()))]
    )
