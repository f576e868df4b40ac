"""Reduced circle-symmetric Kahler geometries and their momentum profiles.

Every geometry is one family: with y = x - x_lo on the grid's interval
[x_lo, x_hi], the volume weight is w = y^k and the base-curvature term is
A = k (k + 1) slope_lo y^(k - 1); CP^1 is k = 0 and CP^m is k = m - 1.  A
metric in the class is a profile Theta(x) >= 0 vanishing at the endpoints
with the prescribed slopes, of scalar curvature s = (A - (w Theta)'') / w.
Nothing divides by w or by y: d/dy (y^b F) = y^(b-1) E_b F with the Euler
operator E_b = y d/dy + b (SpectralGrid.euler_coefficients, solved by
spectral.solve_euler), so R = Theta / y = E_1^-1 Theta',
s = -E_(k+1) E_(k+2) (E_1 E_2)^-1 Theta'' and
(w Theta^j g)^(j) / w = E_(k+1) ... E_(k+j) (R^j g).  Integrals take the
volume form dmu = C_vol w dx, ProfileGeometry.measure: none multiplies by w.
This module owns both directions of Theta <-> s, MetricProfile.s and its
inverse MetricProfile.from_curvature, and the far-end map far_end_forms @ s
+ far_end_offset with its Jacobian rows; the solver owns the Newton loop
alone.  On a chopped series of at most DENSE_NODES + 1 coefficients each
direction is one product with a table of spectral that depends on k alone,
so the geometries of one k on every grid share it: s on CP^m with Q_k
(curvature_table) and from_curvature on every geometry with B_k
(profile_table); cp1's s = -Theta'' takes the grid's table of T_k'' at the
nodes.  A longer series runs the Euler recurrences.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import AdmissibilityError, ConfigError
from .rng import SplitMix64
from .spectral import (
    AffineProjector,
    SampledFunction,
    SpectralGrid,
    cached_field,
    chop_coefficients,
    curvature_table,
    get_grid,
    profile_table,
    solve_euler,
    times_t_plus_1,
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

    @cached_field
    def weight(self) -> SampledFunction:
        """w = (x - x_lo)^k."""
        return SampledFunction(self.grid, (self.grid.x - self.grid.lo) ** self.k)

    @cached_field
    def base_term(self) -> SampledFunction:
        """A = k (k + 1) slope_lo (x - x_lo)^(k - 1), zero when k = 0."""
        k, y = self.k, self.grid.x - self.grid.lo
        return SampledFunction(self.grid, k * (k + 1) * self.slope_lo * y ** max(k - 1, 0))

    @cached_field
    def measure(self) -> np.ndarray:
        """The node masses of w dx, the Clenshaw-Curtis weights times w (read-only, see spectral.py)."""
        return self.grid.quad_weights * self.weight.values

    def integrate(self, g: np.ndarray):
        """int g dmu = C_vol * int g w dx, the one weighted integral."""
        return self.vol_const * (self.measure @ g)

    @cached_field
    def far_end_forms(self) -> np.ndarray:
        """K: (Theta, Theta' - slope_hi) at x_hi = x_lo + L of from_curvature's
        Theta is K s + far_end_offset, K the Clenshaw-Curtis forms of
        -L^-k int (x_hi - x) w s and L^-k int (k (x_hi - x) / L - 1) w s."""
        grid, k = self.grid, self.k
        qw = self.measure / grid.span ** k
        lever = grid.hi - grid.x
        return np.stack([-qw * lever, (k / grid.span) * qw * lever - qw])

    @cached_field
    def jacobian_rows(self) -> np.ndarray:
        """K_0 diag(x), K_0, K_1 diag(x) and K_1, K = far_end_forms: the
        Jacobian K diag(d) [x 1] of the far-end map in (alpha, beta), where
        s moves by d (dalpha x + dbeta), is (jacobian_rows @ d).reshape(2, 2)."""
        forms, x = self.far_end_forms, self.grid.x
        rows = np.empty((4, x.size))  # filled in place: np.stack takes 1.5-2x as long
        rows[0::2] = forms * x
        rows[1::2] = forms
        return rows

    @cached_field
    def far_end_offset(self) -> np.ndarray:
        """(slope_lo L, slope_lo - slope_hi), the far-end mismatch at s = 0."""
        return np.array([self.slope_lo * self.grid.span, self.slope_lo - self.slope_hi])

    @cached_field
    def affine_projector(self) -> AffineProjector:
        """The affine projection against dmu, built once per geometry."""
        return AffineProjector(self.measure, self.grid.x)

    @cached_field
    def constants(self) -> ClassConstants:
        """Volume, total scalar curvature and its average for the class:
        C_vol int w dx and, from boundary data alone, C_vol * (int A dx -
        [ (w Theta)' ]_lo^hi ) with (w Theta)' = w * slope at each endpoint.
        Both take the grid's rule on w or A: int 1 dmu sums the rounded
        products qw w, which qw @ w fuses, and differs by an ulp on some grids."""
        grid, w = self.grid, self.weight.values
        total_volume = self.vol_const * float(grid.integrate_values(w))
        base = float(grid.integrate_values(self.base_term.values))
        bdry = w[-1] * self.slope_hi - w[0] * self.slope_lo
        total_scalar = self.vol_const * (base - bdry)
        return ClassConstants(total_volume, total_scalar, total_scalar / total_volume)


@dataclass(frozen=True, eq=False)
class MetricProfile:
    """One Kahler metric in the class, the sampled profile Theta(x), whose
    coefficients (of Theta and R), admissibility and scalar curvature are
    cached on the instance on first read (read-only, see spectral.py)."""

    geometry: ProfileGeometry
    theta: SampledFunction

    def __post_init__(self):
        if self.theta.grid is not self.geometry.grid:
            raise ValueError("profile and geometry live on different grids")
        if self.theta.values.dtype.kind == "c":
            raise ValueError("theta must be real")

    @classmethod
    def from_curvature(cls, geometry: ProfileGeometry, s_coeffs: np.ndarray) -> MetricProfile:
        """The inverse of s: Theta = slope_lo y - y^2 M solves (w Theta)'' =
        A - w s from the left end, s given by its chopped coefficients.
        M = int_0^1 (1 - tau) tau^k s(x_lo + y tau) dtau maps y^n to
        y^n / ((n + k + 1)(n + k + 2)), so M = (E_(k+1) E_(k+2))^-1 s, with no
        division.  The coefficients of y^2 M, up to the factor (span / 2)^2,
        are one product with spectral.profile_table(k), B_k, for a series no
        longer than its columns; a longer one takes solve_euler twice and two
        multiplications by t + 1.  Theta(x_lo) is pinned to 0; theta_coeffs
        is preset."""
        grid, m = geometry.grid, s_coeffs
        table = profile_table(geometry.k)
        if m.size <= table.shape[1]:
            theta = _theta_from_u2m(table[: m.size + 2, -m.size:] @ m[::-1].copy(), geometry.slope_lo, grid.span)
        else:
            for a in (geometry.k + 1, geometry.k + 2):
                m = solve_euler(m, a)
            theta = _theta_coefficients(m, geometry.slope_lo, grid.span)
        coeffs = chop_coefficients(theta)
        theta = grid.coefficients_to_values(coeffs)
        theta[0] = 0.0
        profile = cls(geometry, SampledFunction(grid, theta))
        cls.theta_coeffs.preset(profile, coeffs)
        return profile

    @cached_field
    def theta_coeffs(self) -> np.ndarray:
        """Chopped Chebyshev coefficients of Theta, read by violations and s."""
        return chop_coefficients(self.geometry.grid.values_to_coefficients(self.theta.values))

    @cached_field
    def r_coeffs(self) -> np.ndarray:
        """Coefficients of R = Theta / (x - x_lo) = E_1^-1 Theta': Theta' drops
        the value Theta(x_lo), so nothing is divided."""
        grid = self.geometry.grid
        return solve_euler(grid.derivative_coefficients(self.theta_coeffs) * (2.0 / grid.span), 1)

    @cached_field
    def violations(self) -> tuple:
        """The violated MetricProfile invariants, within BOUNDARY_TOL: data,
        not errors (require_admissible raises them)."""
        geom = self.geometry
        grid = geom.grid
        th = self.theta.values
        out = []
        if abs(th[0]) > BOUNDARY_TOL:
            out.append(Violation("endpoint value", grid.lo, abs(th[0])))
        if abs(th[-1]) > BOUNDARY_TOL:
            out.append(Violation("endpoint value", grid.hi, abs(th[-1])))
        dlo, dhi = (float(d) for d in grid.endpoint_slopes(self.theta_coeffs))
        if abs(dlo - geom.slope_lo) > BOUNDARY_TOL:
            out.append(Violation("boundary slope", grid.lo, abs(dlo - geom.slope_lo)))
        if abs(dhi - geom.slope_hi) > BOUNDARY_TOL:
            out.append(Violation("boundary slope", grid.hi, abs(dhi - geom.slope_hi)))
        if (th[1:-1] <= 0).any():
            out.append(_interior_minimum(grid, th))
        return tuple(out)

    @cached_field
    def s(self) -> SampledFunction:
        """Pointwise scalar curvature of an admissible profile in Chebyshev
        coefficient space.  Theta = slope_lo y - y^2 M gives Theta'' =
        -E_1 E_2 M and s = E_(k+1) E_(k+2) M; the factors common to both
        pairs cancel, so cp1 (k = 0) reads s = -Theta'', taken at the nodes
        by the grid's second_derivative_values (one product with its table
        of T_k'' for a series no longer than the table).  CP^m takes the
        coefficients of s as one product with spectral.curvature_table(k), Q_k =
        E_(k+1) E_(k+2) (E_1 E_2)^-1 d^2/dt^2, scaled by -(2 / span)^2, for a
        series no longer than its columns, and otherwise applies the Euler
        operators to the coefficients of Theta''; either is synthesised."""
        require_admissible(self)
        geom = self.geometry
        grid, k, c = geom.grid, geom.k, self.theta_coeffs
        if k == 0:
            return SampledFunction(grid, -grid.second_derivative_values(c))
        table = curvature_table(k)
        if c.size <= table.shape[1]:
            c = table[: max(c.size - 2, 1), -c.size:] @ c[::-1].copy()
            c *= -((2.0 / grid.span) ** 2)
        else:
            c = grid.derivative_coefficients(c, 2) * -((2.0 / grid.span) ** 2)
            for a in {1, 2} - {k + 1, k + 2}:
                c = solve_euler(c, a)
            for a in {k + 1, k + 2} - {1, 2}:
                c = grid.euler_coefficients(c, a)
        return SampledFunction(grid, grid.coefficients_to_values(c))

    def weighted_derivative(self, g: np.ndarray, j: int) -> np.ndarray:
        """(w Theta^j g)^(j) / w = E_(k+1) ... E_(k+j) F for j >= 1, where
        F = R^j g: (y^(k+j) F)^(j) = y^k E_(k+1) ... E_(k+j) F."""
        grid, k = self.geometry.grid, self.geometry.k
        f = grid.coefficients_to_values(self.r_coeffs) ** j * g
        c = chop_coefficients(grid.values_to_coefficients(f))
        for a in range(k + 1, k + j + 1):
            c = grid.euler_coefficients(c, a)
        return grid.coefficients_to_values(c)


def _theta_coefficients(m: np.ndarray, slope_lo: float, span: float) -> np.ndarray:
    """Chebyshev coefficients of slope_lo y - y^2 M from those of M, with
    y = x - x_lo = span (t + 1) / 2: two passes of multiplication by t + 1."""
    return _theta_from_u2m(times_t_plus_1(times_t_plus_1(m)), slope_lo, span)


def _theta_from_u2m(u2m: np.ndarray, slope_lo: float, span: float) -> np.ndarray:
    """Chebyshev coefficients of slope_lo y - y^2 M from those of (t + 1)^2 M."""
    theta = u2m * -((span / 2.0) ** 2)
    theta[:2] += slope_lo * span / 2.0
    return theta


class Violation(NamedTuple):
    invariant: str
    location: float
    magnitude: float

    def __str__(self):
        return f"{self.invariant} at x={self.location:.6g} (|{self.magnitude:.3e}|)"


def _interior_minimum(grid: SpectralGrid, theta: np.ndarray) -> Violation:
    """The interior positivity violation of theta, at its smallest interior
    value, for a theta that is not positive inside."""
    i = int(theta[1:-1].argmin()) + 1
    return Violation("interior positivity", float(grid.x[i]), abs(float(theta[i])))


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
    """Canonical base profile: 1 - x^2 on CP^1, 2x(1-x) on CP^m: one object
    per geometry, built on first use, so that its cached (read-only, see
    spectral.py) coefficients, violations and s are computed once per class."""
    x = geom.grid.x
    theta = 1.0 - x * x if geom.k == 0 else 2.0 * x * (1.0 - x)
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
    grid = geom.grid
    return (grid.x - grid.lo) ** 2 * (grid.hi - grid.x) ** 2


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
    fails; deterministic in the seed.  An amplitude whose draw overflows on
    the grid is a ConfigError.
    """
    if amplitude < 0:
        raise ConfigError(f"amplitude must be nonnegative, got {amplitude!r}")
    base = round_profile(geom)
    if amplitude == 0:
        return base
    grid = geom.grid
    with np.errstate(over="ignore", invalid="ignore"):
        q = random_chebyshev(geom, seed, 6, amplitude)
    if not np.isfinite(q).all():
        raise ConfigError(f"amplitude {amplitude!r} overflows: the random draw is not finite on the grid")
    b = bump_factor(geom)
    theta0 = base.theta.values
    for _ in range(MAX_HALVINGS + 1):
        theta = theta0 + b * q
        if (theta[1:-1] > 0).all():
            return MetricProfile(geom, SampledFunction(grid, theta))
        q = q / 2.0
    raise AdmissibilityError([_interior_minimum(grid, theta)])
