"""Kahler-class deformations: first-order dictionary, finite transport in
the symplectic-potential picture, and the variation of S.

A deformation direction is a real invariant function u(x).  Its
first-order effect on the profile is dTheta = kappa_theta Theta^2 u'',
which vanishes to second order at the endpoints so boundary data is
preserved; the fixed-complex-point moment velocity is
dphi = kappa_phi Theta u'.  Finite transport deforms the symplectic
potential, G_t'' = 1/Theta_t with G_t = G_0 - kappa_theta t u, so

    Theta_t = Theta / (1 - kappa_theta * t * Theta * u''),

which keeps the class and the boundary behavior exact at every t.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .conventions import KAPPA_PHI, KAPPA_THETA
from .errors import PathExitsClass
from .functions import FunctionDescriptor
from .geometry import MetricProfile, require_admissible
from .potentials import HolomorphyPotential, el_potential, eval_S, normalize_potential
from .spectral import SampledFunction

DEFAULT_STEPS = (1e-2, 1e-3, 1e-4)


@dataclass(frozen=True)
class DeformationPath:
    """A deformation direction u with its convention constants and the
    finite-difference step schedule."""

    u: SampledFunction
    kappa_theta: float = KAPPA_THETA
    kappa_phi: float = KAPPA_PHI
    steps: tuple = DEFAULT_STEPS


class FirstOrder(NamedTuple):
    d_theta: SampledFunction
    d_phi_fixed_point: SampledFunction
    d_volume_density: SampledFunction


class DeltaScalar(NamedTuple):
    fixed_x: SampledFunction
    fixed_point: SampledFunction


def first_order(profile: MetricProfile, path: DeformationPath) -> FirstOrder:
    """First-order fields (dTheta, dphi at a fixed complex point, and the
    volume-form trace d(omega^m)/omega^m = (w * dphi)' / w)."""
    require_admissible(profile)
    geom = profile.geometry
    grid = geom.grid
    u = path.u.values
    u1 = grid.differentiate_values(u, 1)
    u2 = grid.differentiate_values(u, 2)
    theta = profile.theta.values
    d_theta = path.kappa_theta * theta ** 2 * u2
    d_phi = path.kappa_phi * theta * u1
    trace = geom.divide_by_weight(grid.differentiate_values(geom.weight.values * d_phi, 1))
    return FirstOrder(
        SampledFunction(grid, d_theta),
        SampledFunction(grid, d_phi),
        SampledFunction(grid, trace),
    )


def delta_s(profile: MetricProfile, path: DeformationPath) -> DeltaScalar:
    """First-order scalar-curvature variation, in both bookkeepings:
    at fixed momentum x, ds = -(w dTheta)''/w; at a fixed complex point the
    transport term dphi * s' is added."""
    geom = profile.geometry
    grid = geom.grid
    fo = first_order(profile, path)
    fixed_x = -geom.divide_by_weight(grid.differentiate_values(geom.weight.values * fo.d_theta.values, 2))
    s1 = grid.differentiate_values(profile.s.values, 1)
    fixed_point = fixed_x + fo.d_phi_fixed_point.values * s1
    return DeltaScalar(SampledFunction(grid, fixed_x), SampledFunction(grid, fixed_point))


def transport(
    profile: MetricProfile,
    path: DeformationPath,
    t: float,
    phi: HolomorphyPotential | None = None,
) -> tuple[MetricProfile, HolomorphyPotential]:
    """Finite transport along u.  Returns the deformed profile and the
    transported potential; in the momentum representation the normalization
    constants vanish, so the potential is carried over unchanged."""
    require_admissible(profile)
    geom = profile.geometry
    grid = geom.grid
    if phi is None:
        phi = normalize_potential(geom)
    u2 = grid.differentiate_values(path.u.values, 2)
    denom = 1.0 - path.kappa_theta * t * profile.theta.values * u2
    if np.any(denom[1:-1] <= 0.0):
        raise PathExitsClass(t)
    theta_t = profile.theta.values / denom
    return MetricProfile(geom, SampledFunction(grid, theta_t)), phi


def delta_S_analytic(
    profile: MetricProfile,
    f: FunctionDescriptor,
    h: FunctionDescriptor,
    phi: HolomorphyPotential,
    path: DeformationPath,
) -> complex:
    """First variation of S along u:
    -kappa_theta * C_vol * int w Theta^2 psi'' u'' dx, with psi the EL
    potential.  Zero for every u exactly when psi is affine."""
    geom = profile.geometry
    grid = geom.grid
    psi = el_potential(profile, f, h, phi)
    psi2 = grid.differentiate_values(psi.values, 2)
    u2 = grid.differentiate_values(path.u.values, 2)
    integrand = geom.weight.values * profile.theta.values ** 2 * psi2 * u2
    return complex(-path.kappa_theta * geom.vol_const * grid.integrate_values(integrand))


def delta_S_numeric(
    profile: MetricProfile,
    f: FunctionDescriptor,
    h: FunctionDescriptor,
    phi: HolomorphyPotential,
    path: DeformationPath,
    step: float = 1e-3,
) -> complex:
    """Central finite difference of S along the finite transport."""
    plus, phi_p = transport(profile, path, step, phi)
    minus, phi_m = transport(profile, path, -step, phi)
    return (eval_S(plus, f, h, phi_p) - eval_S(minus, f, h, phi_m)) / (2.0 * step)


def convergence_order(
    profile: MetricProfile,
    f: FunctionDescriptor,
    h: FunctionDescriptor,
    phi: HolomorphyPotential,
    path: DeformationPath,
    steps=None,
) -> float:
    """Empirical order of |numeric - analytic| over the step schedule,
    from a log-log least-squares fit (steps aggregated in sorted order)."""
    if steps is None:
        steps = path.steps
    steps = sorted(steps, reverse=True)
    ana = delta_S_analytic(profile, f, h, phi, path)
    errs = []
    for s in steps:
        num = delta_S_numeric(profile, f, h, phi, path, s)
        errs.append(max(abs(num - ana), 1e-300))
    slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    return float(slope)


def richardson_delta_S(
    profile: MetricProfile,
    f: FunctionDescriptor,
    h: FunctionDescriptor,
    phi: HolomorphyPotential,
    path: DeformationPath,
    step: float = 1e-3,
) -> complex:
    """Fourth-order Richardson extrapolation of the numeric variation."""
    d1 = delta_S_numeric(profile, f, h, phi, path, step)
    d2 = delta_S_numeric(profile, f, h, phi, path, step / 2.0)
    return (4.0 * d2 - d1) / 3.0
