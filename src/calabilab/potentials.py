"""Holomorphy potentials, the functional S, criticality residuals, the
Futaki invariant, and the equivariant class integrals, each integrated
against the volume form dmu = C_vol w dx (ProfileGeometry.integrate).

In the reduced setting the invariant holomorphy potentials are exactly the
affine functions of the momentum coordinate, so criticality of
psi = f'(s) h(phi) is measured by its affine defect against the same
measure, and the fourth-order operator reduces to
L psi = (w Theta^2 psi'')'' / w with kernel {affine}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError
from .functions import FunctionDescriptor, constant
from .geometry import MetricProfile, ProfileGeometry, require_admissible
from .spectral import SampledFunction, cached_field

AFFINE_TOL = 1e-8
_ONE = constant(1.0)  # the f of the equivariant integrals


@dataclass(frozen=True)
class HolomorphyPotential:
    """Normalized potential phi(x) = scale * x + shift of the symmetry field.

    The scale is 1 for the base field; iteration steps produce rescaled
    fields whose potentials are general affine functions.
    """

    geometry: ProfileGeometry
    scale: float
    shift: float

    @cached_field
    def values(self) -> np.ndarray:
        """phi at the grid's nodes, computed once per potential (read-only, see spectral.py)."""
        return self.scale * self.geometry.grid.x + self.shift


@dataclass(frozen=True)
class ELReport:
    """Criticality diagnostics for a candidate potential psi."""

    alpha: complex
    beta: complex
    defect_affine: float
    defect_operator: float
    is_critical: bool
    tolerance: float


def normalize_potential(geom: ProfileGeometry, target: float | None = None) -> HolomorphyPotential:
    """Potential x + c with c fixed by int (x + c) dmu = target.  The default
    target, int x dmu, makes c = 0 (the normalization under which transport
    constants vanish)."""
    moment = float(geom.integrate(geom.grid.x))
    if target is None:
        target = moment
    return HolomorphyPotential(geom, 1.0, (target - moment) / geom.constants.total_volume)


def _phi_values(profile: MetricProfile, phi: HolomorphyPotential) -> np.ndarray:
    if phi.geometry.grid is not profile.geometry.grid:
        raise ValueError("potential and profile live on different grids")
    return phi.values


def eval_S(
    profile: MetricProfile,
    f: FunctionDescriptor,
    h: FunctionDescriptor,
    phi: HolomorphyPotential,
) -> complex:
    """The functional C_vol * int f(s(x)) h(phi(x)) w(x) dx; a value that
    overflows is a NonFiniteError."""
    geom = profile.geometry
    x = geom.grid.x
    value = complex(geom.integrate(f(profile.s.values, x) * h(_phi_values(profile, phi), x)))
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise NonFiniteError(f"non-finite S = C_vol int f(s) h(phi) w dx: {value!r}")
    return value


def el_potential(
    profile: MetricProfile,
    f: FunctionDescriptor,
    h: FunctionDescriptor,
    phi: HolomorphyPotential,
) -> SampledFunction:
    """psi(x) = f'(s(x)) * h(phi(x)), the candidate holomorphy potential."""
    grid = profile.geometry.grid
    return SampledFunction(grid, f.derivative()(profile.s.values, grid.x) * h(_phi_values(profile, phi), grid.x))


def lichnerowicz(profile: MetricProfile, psi: SampledFunction) -> SampledFunction:
    """Reduced fourth-order operator L psi = (w Theta^2 psi'')'' / w."""
    require_admissible(profile)
    grid = profile.geometry.grid
    psi2 = grid.differentiate_values(psi.values, 2)
    return SampledFunction(grid, profile.weighted_derivative(psi2, 2))


def quadratic_form(profile: MetricProfile, psi: SampledFunction) -> float:
    """C_vol * int w Theta^2 |psi''|^2 dx, the energy whose kernel is the
    affine functions."""
    geom = profile.geometry
    psi2 = geom.grid.differentiate_values(psi.values, 2)
    return float(geom.integrate(profile.theta.values ** 2 * np.abs(psi2) ** 2))


def quadratic_form_matrix(profile: MetricProfile) -> np.ndarray:
    """Dense matrix Q with psi^T Q psi = C_vol int w Theta^2 (psi'')^2 dx,
    the discrete form that quadratic_form integrates: its second-derivative
    operator is grid.differentiate_values applied to each unit vector."""
    geom = profile.geometry
    grid = geom.grid
    # The chop drops nothing here: a unit vector's last Chebyshev
    # coefficient is +-1/(n - 1), at least half its largest, so each column
    # is the linear map's own and the stacked matrix is that map exactly.
    d2 = np.stack([grid.differentiate_values(e, 2) for e in np.eye(grid.n)], axis=1)
    return geom.vol_const * (d2.T * (geom.measure * profile.theta.values ** 2)) @ d2


def holomorphy_defect(profile: MetricProfile, psi: SampledFunction) -> ELReport:
    """Affine projection of psi against the class measure plus the
    quadratic-form residual; is_critical when the affine defect is at most
    AFFINE_TOL * (1 + sup|psi|).  A defect whose square overflows is a
    NonFiniteError."""
    require_admissible(profile)
    geom = profile.geometry
    alpha, beta, res = geom.affine_projector.project(psi.values)
    defect_affine = math.sqrt(geom.vol_const) * res
    defect_operator = math.sqrt(quadratic_form(profile, psi))
    if not (math.isfinite(defect_affine) and math.isfinite(defect_operator)):
        raise NonFiniteError(
            f"non-finite EL defects: defect_affine {defect_affine!r}, defect_operator {defect_operator!r}")
    tol_affine = AFFINE_TOL * (1.0 + float(np.abs(psi.values).max()))
    return ELReport(
        alpha=alpha,
        beta=beta,
        defect_affine=defect_affine,
        defect_operator=defect_operator,
        is_critical=defect_affine <= tol_affine,
        tolerance=float(tol_affine),
    )


def futaki(profile: MetricProfile, phi: HolomorphyPotential) -> float:
    """C_vol * int (s - s0) phi w dx, the class obstruction for the field."""
    geom = profile.geometry
    return float(geom.integrate((profile.s.values - geom.constants.s0) * _phi_values(profile, phi)))


def equivariant_integral(
    profile: MetricProfile, h: FunctionDescriptor, phi: HolomorphyPotential
) -> complex:
    """C_vol * int h(phi) w dx, the f = constant(1) slice of S."""
    return eval_S(profile, _ONE, h, phi)
