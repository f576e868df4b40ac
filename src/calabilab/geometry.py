"""Reduced circle-symmetric Kahler geometries and their momentum profiles.

A geometry fixes the Kahler class: the momentum interval [x_lo, x_hi], the
volume weight w(x), the base-curvature term A(x), the required boundary
slopes of the profile, and the angular volume factor C_vol.  A metric in
the class is a single profile Theta(x) >= 0 vanishing at the endpoints with
the prescribed slopes.  Scalar curvature reduces to

    s = (A - (w Theta)'') / w.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import AdmissibilityError, UnsupportedGeometry
from .rng import SplitMix64
from .spectral import SampledFunction, SpectralGrid, get_grid

DEFAULT_NODES = 129
BOUNDARY_TOL = 1e-8
TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class ProfileGeometry:
    """Fixed Kahler-class data of a reduced geometry."""

    x_lo: float
    x_hi: float
    weight: SampledFunction
    base_term: SampledFunction
    slope_lo: float
    slope_hi: float
    dim: int
    vol_const: float
    # order k >= 1 means w = (x - x_lo)^k exactly, enabling polynomial
    # division at the degenerate end; 0 means w > 0 up to the boundary.
    weight_zero_order: int = 0
    kind: str = "custom"

    def __post_init__(self):
        if not self.x_lo < self.x_hi:
            raise ValueError("x_lo must be less than x_hi")
        if self.vol_const <= 0:
            raise ValueError("vol_const must be positive")
        w = self.weight.values
        if np.any(w[1:-1] <= 0):
            raise ValueError("weight must be positive on the open interval")

    @property
    def grid(self) -> SpectralGrid:
        return self.weight.grid

    def divide_by_weight(self, values: np.ndarray) -> np.ndarray:
        """values / w.  At a degenerate weight end this is polynomial
        division in coefficient space, exact when the numerator vanishes
        there to the weight's order; w > 0 inside is checked at
        construction."""
        if self.weight_zero_order > 0:
            return self.grid.divide_by_left_monomial(values, self.weight_zero_order)
        return values / self.weight.values


@dataclass(frozen=True)
class MetricProfile:
    """One Kahler metric in the class: the sampled profile Theta(x).

    A profile is a value: its admissibility and its scalar curvature are
    evaluated once, on first read, and cached on the instance.
    """

    geometry: ProfileGeometry
    theta: SampledFunction

    def __post_init__(self):
        if self.theta.grid is not self.geometry.grid:
            raise ValueError("profile and geometry live on different grids")
        if np.iscomplexobj(self.theta.values):
            raise ValueError("theta must be real")

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
        # one-sided spectral slopes
        dlo = float(grid.d1[0] @ th)
        dhi = float(grid.d1[-1] @ th)
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
        """Pointwise scalar curvature s = (A - (w Theta)'') / w of an
        admissible profile, computed in Chebyshev coefficient space."""
        require_admissible(self)
        geom = self.geometry
        grid = geom.grid
        num = geom.base_term.values - grid.differentiate_values(geom.weight.values * self.theta.values, 2)
        s = geom.divide_by_weight(num)
        s.setflags(write=False)  # shared by every reader of the cache
        return SampledFunction(grid, s)


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
    """The CP^1 geometry: interval [-1, 1], w = 1, A = 0, slopes (2, -2)."""
    grid = get_grid(nodes, -1.0, 1.0)
    return ProfileGeometry(
        x_lo=-1.0,
        x_hi=1.0,
        weight=SampledFunction(grid, np.ones(grid.n)),
        base_term=SampledFunction(grid, np.zeros(grid.n)),
        slope_lo=2.0,
        slope_hi=-2.0,
        dim=1,
        vol_const=TWO_PI,
        weight_zero_order=0,
        kind="cp1",
    )


def make_cpm_geometry(m: int, nodes: int = DEFAULT_NODES) -> ProfileGeometry:
    """The U(m)-invariant CP^m geometry on [0, 1]: w = x^(m-1) and
    A = 2m(m-1) x^(m-2).

    The base-term coefficient is the one pinned by the Fubini-Study
    constancy oracle (see conventions.pin_cpm_base_coefficient).
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    grid = get_grid(nodes, 0.0, 1.0)
    x = grid.x
    coeff = 2.0 * m * (m - 1)
    return ProfileGeometry(
        x_lo=0.0,
        x_hi=1.0,
        weight=SampledFunction(grid, x ** (m - 1)),
        base_term=SampledFunction(grid, coeff * x ** (m - 2)),
        slope_lo=2.0,
        slope_hi=-2.0,
        dim=m,
        vol_const=TWO_PI,
        weight_zero_order=m - 1,
        kind="cpm",
    )


def round_profile(geom: ProfileGeometry) -> MetricProfile:
    """Canonical base profile: 1 - x^2 on CP^1, 2x(1-x) on CP^m."""
    x = geom.grid.x
    if geom.kind == "cp1":
        theta = 1.0 - x * x
    elif geom.kind == "cpm":
        theta = 2.0 * x * (1.0 - x)
    else:
        raise UnsupportedGeometry(f"no canonical profile for kind {geom.kind!r}")
    return MetricProfile(geom, SampledFunction(geom.grid, theta))


def validate(profile: MetricProfile) -> list[Violation]:
    """Check the MetricProfile invariants; violations are data, not errors."""
    return list(profile.violations)


def require_admissible(profile: MetricProfile) -> None:
    if profile.violations:
        raise AdmissibilityError(profile.violations)


def scalar_curvature(profile: MetricProfile) -> SampledFunction:
    """Pointwise scalar curvature s = (A - (w Theta)'') / w (cached on the
    profile); raises AdmissibilityError for an inadmissible profile."""
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


def random_admissible_profile(
    geom: ProfileGeometry, seed: int, amplitude: float, max_halvings: int = 20
) -> MetricProfile:
    """Round profile plus B(x) times a random degree-<=6 Chebyshev
    polynomial with coefficients drawn from splitmix64(seed).

    The amplitude is halved up to max_halvings times if interior positivity
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
    q = np.polynomial.chebyshev.chebval(grid.t, coeffs)
    b = bump_factor(geom)
    theta0 = base.theta.values
    for _ in range(max_halvings + 1):
        theta = theta0 + b * q
        if np.all(theta[1:-1] > 0):
            return MetricProfile(geom, SampledFunction(grid, theta))
        q = q / 2.0
    raise AdmissibilityError(
        [Violation("interior positivity", float(grid.x[1 + int(np.argmin(theta[1:-1]))]), float(-theta[1:-1].min()))]
    )
