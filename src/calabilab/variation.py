"""Kahler-class deformations: finite transport in the symplectic-potential
picture, and the variation of S.

A deformation direction is a real invariant function u(x).  Its
first-order effect on the profile is dTheta = kappa_theta Theta^2 u'',
which vanishes to second order at the endpoints so boundary data is
preserved; the fixed-complex-point moment velocity is
dphi = kappa_phi Theta u', and the scalar curvature at fixed x moves by
ds = -kappa_theta L u, with L = potentials.lichnerowicz.  Finite transport
deforms the symplectic potential, G_t'' = 1/Theta_t with
G_t = G_0 - kappa_theta t u, so

    Theta_t = Theta / (1 - kappa_theta * t * Theta * u''),

which keeps the class and the boundary behavior exact at every t.

A DeformationPath is the direction u alone: kappa_theta and kappa_phi are
the pinned constants KAPPA_THETA = KAPPA_PHI = 1/2 of conventions.py, and
the first variation of S is checked against central differences of the
transport at the fixed steps ORDER_STEPS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conventions import KAPPA_THETA
from .errors import PathExitsClass
from .functions import FunctionDescriptor
from .geometry import MetricProfile, require_admissible
from .potentials import HolomorphyPotential, el_potential, eval_S
from .spectral import SampledFunction, cached_field

ORDER_STEPS = (1e-2, 1e-3, 1e-4)  # the step schedule of convergence_order


@dataclass(frozen=True, eq=False)
class DeformationPath:
    """A deformation direction u(x); its scale constants are the pinned
    conventions KAPPA_THETA and KAPPA_PHI.  u'' is computed once, on first
    read, and cached on the instance."""

    u: SampledFunction

    @cached_field
    def u2(self) -> np.ndarray:
        """u'' at the nodes (read-only, see spectral.py)."""
        return self.u.grid.differentiate_values(self.u.values, 2)


def transport(
    profile: MetricProfile,
    path: DeformationPath,
    t: float,
    phi: HolomorphyPotential,
) -> tuple[MetricProfile, HolomorphyPotential]:
    """Finite transport along u.  Returns the deformed profile and the
    transported potential; in the momentum representation the normalization
    constants vanish, so the potential is carried over unchanged."""
    require_admissible(profile)
    geom = profile.geometry
    grid = geom.grid
    denom = 1.0 - KAPPA_THETA * t * profile.theta.values * path.u2
    # fmin skips a NaN, as the elementwise test denom <= 0 does
    if np.fmin.reduce(denom[1:-1]) <= 0.0:
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
    psi = el_potential(profile, f, h, phi)
    psi2 = profile.geometry.grid.differentiate_values(psi.values, 2)
    return complex(-KAPPA_THETA * profile.geometry.integrate(profile.theta.values ** 2 * psi2 * path.u2))


def delta_S_numeric(
    profile: MetricProfile,
    f: FunctionDescriptor,
    h: FunctionDescriptor,
    phi: HolomorphyPotential,
    path: DeformationPath,
    step: float,
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
) -> float:
    """Empirical order of |numeric - analytic| over ORDER_STEPS, from a
    log-log least-squares fit (steps aggregated in sorted order)."""
    steps = sorted(ORDER_STEPS, reverse=True)
    ana = delta_S_analytic(profile, f, h, phi, path)
    errs = []
    for s in steps:
        num = delta_S_numeric(profile, f, h, phi, path, s)
        errs.append(max(abs(num - ana), 1e-300))
    slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    return float(slope)
