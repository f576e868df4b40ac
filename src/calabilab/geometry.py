"""Reduced circle-symmetric Kahler geometries and their momentum profiles.

Every geometry is one family: with y = x - x_lo on the grid's interval
[x_lo, x_hi], the volume weight is w = y^k and the base-curvature term is
A = k (k + 1) slope_lo y^(k - 1); CP^1 is k = 0 and CP^m is k = m - 1.  A
metric in the class is a profile Theta(x) >= 0 vanishing at the endpoints
with the prescribed slopes, of scalar curvature s = (A - (w Theta)'') / w.
Nothing divides by w or by y: d/dy (y^b F) = y^(b-1) E_b F with the Euler
operator E_b = y d/dy + b (spectral.euler_coefficients, solved by
spectral.solve_euler), so R = Theta / y = E_1^-1 Theta',
s = -E_(k+1) E_(k+2) (E_1 E_2)^-1 Theta'' and
(w Theta^j g)^(j) / w = E_(k+1) ... E_(k+j) (R^j g).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import AdmissibilityError, ConfigError
from .rng import SplitMix64
from .spectral import (
    AffineProjector,
    SampledFunction,
    SpectralGrid,
    chop_coefficients,
    derivative_coefficients,
    euler_coefficients,
    get_grid,
    solve_euler,
)

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

    @cached_property
    def affine_projector(self) -> AffineProjector:
        """The weighted affine projection against w, built once per geometry."""
        return AffineProjector(self.weight.values, self.grid)

    @cached_property
    def constants(self) -> ClassConstants:
        """Volume, total scalar curvature and its average for the class.

        total_scalar uses boundary data only and is independent of the
        profile: C_vol * (int A dx - [ (w Theta)' ]_lo^hi ) with
        (w Theta)' = w * slope at each endpoint.
        """
        grid, w = self.grid, self.weight.values
        total_volume = self.vol_const * float(grid.integrate_values(w))
        base = float(grid.integrate_values(self.base_term.values))
        bdry = w[-1] * self.slope_hi - w[0] * self.slope_lo
        total_scalar = self.vol_const * (base - bdry)
        return ClassConstants(total_volume, total_scalar, total_scalar / total_volume)


@dataclass(frozen=True)
class MetricProfile:
    """One Kahler metric in the class, the sampled profile Theta(x): a value
    whose coefficients (of Theta and R), admissibility and scalar curvature
    are evaluated once, on first read, and cached on the instance (the
    arrays read-only, as every reader shares them)."""

    geometry: ProfileGeometry
    theta: SampledFunction

    def __post_init__(self):
        if self.theta.grid is not self.geometry.grid:
            raise ValueError("profile and geometry live on different grids")
        if self.theta.values.dtype.kind == "c":
            raise ValueError("theta must be real")

    @classmethod
    def with_coefficients(cls, geometry: ProfileGeometry, theta: np.ndarray, coeffs: np.ndarray) -> MetricProfile:
        """The profile with values theta whose chopped Chebyshev coefficients
        coeffs are already known (Theta was sampled from them): they are
        made read-only and cached as theta_coeffs, not transformed back
        from the values."""
        profile = cls(geometry, SampledFunction(geometry.grid, theta))
        coeffs.setflags(write=False)
        profile.__dict__["theta_coeffs"] = coeffs  # the cached_property's slot
        return profile

    @cached_property
    def theta_coeffs(self) -> np.ndarray:
        """Chopped Chebyshev coefficients of Theta, read by violations and s."""
        c = chop_coefficients(self.geometry.grid.values_to_coefficients(self.theta.values))
        c.setflags(write=False)
        return c

    @cached_property
    def r_coeffs(self) -> np.ndarray:
        """Coefficients of R = Theta / (x - x_lo) = E_1^-1 Theta': Theta' drops
        the value Theta(x_lo), so nothing is divided."""
        grid = self.geometry.grid
        r = solve_euler(derivative_coefficients(self.theta_coeffs) * (2.0 / grid.span), 1)
        r.setflags(write=False)
        return r

    @cached_property
    def violations(self) -> tuple:
        """The violated MetricProfile invariants, within BOUNDARY_TOL: data,
        not errors (require_admissible raises them)."""
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
        if (interior <= 0).any():
            i = int(interior.argmin()) + 1
            out.append(Violation("interior positivity", float(grid.x[i]), abs(min(interior.min(), 0.0))))
        return tuple(out)

    @cached_property
    def s(self) -> SampledFunction:
        """Pointwise scalar curvature of an admissible profile in Chebyshev
        coefficient space.  Theta = slope_lo y - y^2 M gives Theta'' =
        -E_1 E_2 M and s = E_(k+1) E_(k+2) M; the factors common to both
        pairs cancel, so cp1 (k = 0) reads s = -Theta''."""
        require_admissible(self)
        grid, k = self.geometry.grid, self.geometry.k
        c = derivative_coefficients(self.theta_coeffs, 2) * -((2.0 / grid.span) ** 2)
        for a in {1, 2} - {k + 1, k + 2}:
            c = solve_euler(c, a)
        for a in {k + 1, k + 2} - {1, 2}:
            c = euler_coefficients(c, a)
        s = grid.coefficients_to_values(c)
        s.setflags(write=False)  # shared by every reader of the cache
        return SampledFunction(grid, s)

    def weighted_derivative(self, g: np.ndarray, j: int) -> np.ndarray:
        """(w Theta^j g)^(j) / w = E_(k+1) ... E_(k+j) F for j >= 1, where
        F = R^j g: (y^(k+j) F)^(j) = y^k E_(k+1) ... E_(k+j) F."""
        grid, k = self.geometry.grid, self.geometry.k
        f = grid.coefficients_to_values(self.r_coeffs) ** j * g
        c = chop_coefficients(grid.values_to_coefficients(f))
        for a in range(k + 1, k + j + 1):
            c = euler_coefficients(c, a)
        return grid.coefficients_to_values(c)


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
        raise ConfigError(f"CP^m needs m at least 2, got m = {m}")
    return ProfileGeometry(grid=get_grid(nodes, 0.0, 1.0), k=m - 1)


@functools.cache
def round_profile(geom: ProfileGeometry) -> MetricProfile:
    """Canonical base profile: 1 - x^2 on CP^1, 2x(1-x) on CP^m.  One
    object per geometry, built on first use, so that its cached
    coefficients, violations and s are computed once per class; its
    Theta array is read-only."""
    x = geom.grid.x
    theta = 1.0 - x * x if geom.k == 0 else 2.0 * x * (1.0 - x)
    theta.setflags(write=False)
    return MetricProfile(geom, SampledFunction(geom.grid, theta))


def require_admissible(profile: MetricProfile) -> None:
    if profile.violations:
        raise AdmissibilityError(profile.violations)


def scalar_curvature(profile: MetricProfile) -> SampledFunction:
    """MetricProfile.s, which the library reads directly; only the benchmark
    (bench/inprocess.py) and acceptance criterion 8 call this name."""
    return profile.s


def class_constants(geom: ProfileGeometry) -> ClassConstants:
    """ProfileGeometry.constants, which the library reads directly; only the
    benchmark (bench/inprocess.py) calls this name."""
    return geom.constants


def bump_factor(geom: ProfileGeometry) -> np.ndarray:
    """B(x) = (x - x_lo)^2 (x_hi - x)^2, the boundary-preserving envelope."""
    x = geom.grid.x
    return (x - geom.x_lo) ** 2 * (geom.x_hi - x) ** 2


def random_chebyshev(geom: ProfileGeometry, seed: int, degree: int, scale: float) -> np.ndarray:
    """Grid values of the degree-`degree` Chebyshev series whose coefficients
    splitmix64(seed) draws uniformly from [-scale, scale], lowest first."""
    rng = SplitMix64(seed)
    coeffs = np.array([rng.uniform(-scale, scale) for _ in range(degree + 1)])
    return geom.grid.coefficients_to_values(coeffs)


def random_admissible_profile(geom: ProfileGeometry, seed: int, amplitude: float) -> MetricProfile:
    """Round profile plus B(x) times a random degree-<=6 Chebyshev
    polynomial with coefficients drawn from splitmix64(seed).

    The amplitude is halved up to MAX_HALVINGS times if interior positivity
    fails; deterministic in the seed.
    """
    if amplitude < 0:
        raise ConfigError(f"amplitude must be nonnegative, got {amplitude!r}")
    base = round_profile(geom)
    if amplitude == 0:
        return base
    grid = geom.grid
    q = random_chebyshev(geom, seed, 6, amplitude)
    b = bump_factor(geom)
    theta0 = base.theta.values
    for _ in range(MAX_HALVINGS + 1):
        theta = theta0 + b * q
        if (theta[1:-1] > 0).all():
            return MetricProfile(geom, SampledFunction(grid, theta))
        q = q / 2.0
    raise AdmissibilityError(
        [Violation("interior positivity", float(grid.x[1 + int(np.argmin(theta[1:-1]))]), float(-theta[1:-1].min()))]
    )
