"""Holomorphy potentials, the functional S, criticality residuals, the
Futaki invariant, and the equivariant class integrals.

In the reduced setting the invariant holomorphy potentials are exactly the
affine functions of the momentum coordinate, so criticality of
psi = f'(s) h(phi) is measured by its weighted affine defect, and the
fourth-order operator reduces to L psi = (w Theta^2 psi'')'' / w with
kernel {affine}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .functions import FunctionDescriptor
from .geometry import MetricProfile, ProfileGeometry, require_admissible
from .spectral import SampledFunction

AFFINE_TOL = 1e-8


@dataclass(frozen=True)
class HolomorphyPotential:
    """Normalized potential phi(x) = scale * x + shift of the symmetry field.

    The scale is 1 for the base field; iteration steps produce rescaled
    fields whose potentials are general affine functions.
    """

    geometry: ProfileGeometry
    scale: float = 1.0
    shift: float = 0.0

    @cached_property
    def values(self) -> np.ndarray:
        """phi at the grid's nodes, computed once per potential and
        read-only, as every reader shares it."""
        v = self.scale * self.geometry.grid.x + self.shift
        v.setflags(write=False)
        return v


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
    """Potential x + c with c fixed by C_vol * int (x + c) w dx = target.

    The default target is C_vol * int x w dx, which makes c = 0 (the
    normalization under which transport constants vanish).
    """
    grid = geom.grid
    moment = geom.vol_const * float(grid.integrate_values(grid.x * geom.weight.values))
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
    """The functional C_vol * int f(s(x)) h(phi(x)) w(x) dx."""
    geom = profile.geometry
    grid = geom.grid
    fv = f(profile.s.values, grid.x)
    hv = h(_phi_values(profile, phi), grid.x)
    return complex(geom.vol_const * grid.integrate_values(fv * hv * geom.weight.values))


def el_potential(
    profile: MetricProfile,
    f: FunctionDescriptor,
    h: FunctionDescriptor,
    phi: HolomorphyPotential,
) -> SampledFunction:
    """psi(x) = f'(s(x)) * h(phi(x)), the candidate holomorphy potential."""
    grid = profile.geometry.grid
    fp = f.derivative()(profile.s.values, grid.x)
    hv = h(_phi_values(profile, phi), grid.x)
    return SampledFunction(grid, fp * hv)


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
    grid = geom.grid
    psi2 = grid.differentiate_values(psi.values, 2)
    integrand = geom.weight.values * profile.theta.values ** 2 * np.abs(psi2) ** 2
    return float(geom.vol_const * grid.integrate_values(integrand))


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
    diag = grid.quad_weights * geom.weight.values * profile.theta.values ** 2
    return geom.vol_const * (d2.T * diag) @ d2


def holomorphy_defect(profile: MetricProfile, psi: SampledFunction) -> ELReport:
    """Affine projection of psi against the class weight plus the
    quadratic-form residual; is_critical when the affine defect is at most
    AFFINE_TOL * (1 + sup|psi|)."""
    require_admissible(profile)
    geom = profile.geometry
    alpha, beta, res = geom.affine_projector.project(psi.values)
    defect_affine = math.sqrt(geom.vol_const) * res
    defect_operator = math.sqrt(quadratic_form(profile, psi))
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
    grid = geom.grid
    s0 = geom.constants.s0
    integrand = (profile.s.values - s0) * _phi_values(profile, phi) * geom.weight.values
    return float(geom.vol_const * grid.integrate_values(integrand))


def equivariant_integral(
    profile: MetricProfile, h: FunctionDescriptor, phi: HolomorphyPotential
) -> complex:
    """C_vol * int h(phi) w dx (the f = constant(1) slice of S)."""
    require_admissible(profile)
    geom = profile.geometry
    grid = geom.grid
    hv = h(_phi_values(profile, phi), grid.x)
    return complex(geom.vol_const * grid.integrate_values(hv * geom.weight.values))
