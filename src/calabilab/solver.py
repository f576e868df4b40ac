"""The critical-metric solver and the vector-field iteration harness.

solve_critical shoots on the affine coefficients (alpha, beta) of the EL
potential: given (alpha, beta), the scalar curvature s solves
f'(s) = (alpha x + beta) / h(phi) (Newton inversion of f', warm-started
from the previous iterate), and Newton iterates on the two far-end
mismatches of integrating (w Theta)'' = A - w s from the left endpoint.
The mismatch is affine in s, K s + m0, so the Newton Jacobian is exact:
J = K diag(1 / (h f''(s))) [x 1].  The profile is integrated once, from
the final s, and a solution whose EL potential is not affine within the
report's tolerance raises ConvergenceError instead of being returned.

When f' is constant the EL potential does not depend on the metric, so
every metric is critical or none is; the solver detects this degenerate
direction and returns the canonical representative with affine scalar
curvature instead of iterating on a singular system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .errors import CalabiLabError, ConfigError, ConvergenceError, DomainError, SingularPotential
from .functions import FunctionDescriptor, invert
from .geometry import MetricProfile, ProfileGeometry, class_constants
from .potentials import ELReport, HolomorphyPotential, el_potential, holomorphy_defect
from .spectral import SampledFunction, chop_coefficients, solve_euler

NEWTON_TOL = 1e-10
MAX_NEWTON_ITER = 50
ZERO_FIELD_TOL = 1e-10  # |alpha| below this: the new field is trivial
SETTLE_TOL = 1e-8  # alpha and beta moved less than this: the iteration settled

STATUS_CONVERGED = "converged"
STATUS_EVERY_METRIC = "every_metric_critical"


@dataclass(frozen=True)
class CriticalSolveResult:
    profile: MetricProfile
    alpha: float
    beta: float
    el_report: ELReport
    iterations: int
    status: str
    residual_trace: tuple = ()
    converged: ClassVar[bool] = True  # only a critical metric is returned


@dataclass(frozen=True)
class IterationStep:
    index: int
    alpha: float | None
    beta: float | None
    status: str  # continued | converged | zero_field | failed
    profile_summary: dict = field(default_factory=dict)


@dataclass(frozen=True)
class IterationTrace:
    steps: tuple
    # In the circle-symmetric reduction every invariant holomorphy
    # potential is affine in x, so each new field is proportional to the
    # ansatz field; the flag records that structural degeneracy.
    degenerate_direction: ClassVar[bool] = True

    @property
    def final_status(self) -> str:
        return self.steps[-1].status if self.steps else "empty"


class _Shooter:
    """The profile Theta = slope_lo y - y^-k int_lo^x (x - t) w s dt that
    solves (w Theta)'' = A - w s from the left end (y = x - x_lo, w = y^k),
    and its far-end mismatch (Theta, Theta' - slope_hi) at x_hi = x_lo + L:
    K s + m0, K the Clenshaw-Curtis forms of -L^-k int (x_hi - x) w s and
    L^-k int (k (x_hi - x) / L - 1) w s, m0 = (slope_lo L, slope_lo - slope_hi)."""

    def __init__(self, geom: ProfileGeometry):
        self.geom = geom
        grid = self.grid = geom.grid
        k, span = geom.k, grid.span
        qw = grid.quad_weights * geom.weight.values / span ** k
        lever = grid.hi - grid.x
        self.k = np.stack([-qw * lever, (k / span) * qw * lever - qw])
        self.m0 = np.array([geom.slope_lo * span, geom.slope_lo - geom.slope_hi])

    def mismatch(self, s_vals: np.ndarray) -> np.ndarray:
        return self.k @ s_vals + self.m0

    def profile(self, s_vals: np.ndarray) -> MetricProfile:
        """Theta = slope_lo y - y^2 M, M(y) = int_0^1 (1 - tau) tau^k
        s(x_lo + y tau) dtau, for every k and with no division.  M maps y^n
        to y^n / ((n + k + 1)(n + k + 2)), so it solves
        (y d/dy + k + 1)(y d/dy + k + 2) M = s, exactly on the chopped s."""
        grid, geom = self.grid, self.geom
        m = chop_coefficients(grid.values_to_coefficients(s_vals))
        for a in (geom.k + 1, geom.k + 2):
            m = solve_euler(m, a)
        y = np.full(2, grid.span / 2.0)  # x - x_lo = span (t + 1) / 2
        theta = cheb.chebsub(geom.slope_lo * y, cheb.chebmul(cheb.chebmul(y, y), m))
        theta = grid.coefficients_to_values(theta)
        theta[0] = 0.0
        return MetricProfile(geom, SampledFunction(grid, theta))


def _newton(shooter: _Shooter, s_of_ab, ds_dpsi, init):
    """Newton on the far-end mismatch.  s_of_ab maps (alpha, beta) to s and
    ds_dpsi(s) is the pointwise derivative of s in psi = alpha x + beta, so
    the Jacobian K diag(ds_dpsi) [x 1] is exact."""
    x = shooter.grid.x
    ab = np.array(init, dtype=float)
    trace = []
    for it in range(MAX_NEWTON_ITER):
        s = s_of_ab(ab)
        res = shooter.mismatch(s)
        rnorm = float(np.abs(res).max())
        trace.append((tuple(ab), rnorm))
        d = ds_dpsi(s)
        kd = shooter.k * d
        jac = np.stack([kd @ x, kd.sum(axis=1)], axis=1)
        sv = np.linalg.svd(jac, compute_uv=False)
        if sv[-1] <= 1e-12 * sv[0]:
            raise ConvergenceError("rank-deficient Newton Jacobian", trace)
        step = np.linalg.solve(jac, res)
        ab = ab - step
        if rnorm < NEWTON_TOL:
            # J is exact, so this last step leaves a residual of order
            # rnorm**2; s follows it to first order, which is as accurate.
            return ab, s - d * (step[0] * x + step[1]), it, trace
    raise ConvergenceError(f"Newton stagnated after {MAX_NEWTON_ITER} iterations", trace)


def _check_nonvanishing(hr: np.ndarray):
    """The inversion of f' divides by hr = Re h(phi): it must keep one sign."""
    if np.abs(hr).min() <= 1e-12 * max(np.abs(hr).max(), 1.0):
        raise SingularPotential("Re h(phi) vanishes on the momentum interval")
    if hr.max() > 0 > hr.min():
        raise SingularPotential("Re h(phi) changes sign on the momentum interval")


def solve_critical(
    geom: ProfileGeometry,
    f: FunctionDescriptor,
    h: FunctionDescriptor,
    phi: HolomorphyPotential,
    init: tuple | None = None,
) -> CriticalSolveResult:
    """Find the metric whose EL potential f'(s) h(phi) is alpha x + beta."""
    shooter = _Shooter(geom)
    x = geom.grid.x
    hr = np.asarray(h(phi.values(), x)).real  # a complex h leaves Im h to the check below
    s0 = class_constants(geom).s0
    fprime = f.derivative()
    fp_const = fprime.constant_value()

    if fp_const is not None:
        # Degenerate direction: psi = fp_const * h(phi) is metric
        # independent, so every metric is critical when it is affine and
        # none is otherwise.  Return the canonical representative with
        # affine scalar curvature; the criticality check below decides.
        ab, s_final, iters, trace = _newton(
            shooter,
            lambda ab: ab[0] * x + ab[1],
            lambda s: 1.0,
            (0.0, s0) if init is None else init,
        )
        status = STATUS_EVERY_METRIC
    else:
        # s = (f')^-1((alpha x + beta) / Re h(phi)) divides by Re h, here only
        _check_nonvanishing(hr)
        fsecond = fprime.derivative()
        s_prev = np.full(x.shape, s0)

        def s_of_ab(ab):
            nonlocal s_prev
            s_prev = invert(fprime, (ab[0] * x + ab[1]) / hr, s_prev, x)
            return s_prev

        if init is None:
            try:
                beta0 = float(np.asarray(fprime(np.array([s0])))[0])
            except DomainError:
                beta0 = 1.0
            init = (0.0, beta0)
        ab, s_final, iters, trace = _newton(shooter, s_of_ab, lambda s: 1.0 / (hr * fsecond(s, x)), init)
        status = STATUS_CONVERGED

    profile = shooter.profile(s_final)
    report = holomorphy_defect(profile, el_potential(profile, f, h, phi))
    if not report.is_critical:
        raise ConvergenceError(
            f"the solution is not critical: defect_affine {report.defect_affine:.3e} "
            f"above tolerance {report.tolerance:.3e}", trace)
    return CriticalSolveResult(
        profile=profile,
        alpha=float(ab[0]),
        beta=float(ab[1]),
        el_report=report,
        iterations=iters,
        status=status,
        residual_trace=tuple(trace),
    )


def iterate(
    geom: ProfileGeometry,
    f: FunctionDescriptor,
    h: FunctionDescriptor,
    phi0: HolomorphyPotential,
    max_steps: int,
) -> IterationTrace:
    """Run the vector-field iteration: solve for a critical metric, read
    off psi = alpha x + beta as the next field's preassigned potential,
    and repeat until the new field is trivial, the coefficients settle, a
    step fails, or max_steps is exhausted."""
    if max_steps < 1:
        raise ConfigError(f"max_steps must be at least 1, got {max_steps}")
    steps = []
    phi = phi0
    prev = None
    for i in range(max_steps):
        try:
            res = solve_critical(geom, f, h, phi)
        except CalabiLabError as exc:  # a named solver failure marks the step failed
            steps.append(IterationStep(i, None, None, "failed", {"error": str(exc)}))
            break
        summary = {
            "sup_theta": float(res.profile.theta.values.max()),
            "defect_affine": res.el_report.defect_affine,
            "defect_operator": res.el_report.defect_operator,
            "solver_status": res.status,
        }
        if abs(res.alpha) < ZERO_FIELD_TOL:
            status = "zero_field"
        elif (prev is not None and abs(res.alpha - prev[0]) < SETTLE_TOL
              and abs(res.beta - prev[1]) < SETTLE_TOL):
            status = "converged"
        else:
            status = "continued"
        steps.append(IterationStep(i, res.alpha, res.beta, status, summary))
        if status in ("zero_field", "converged"):
            break
        prev = (res.alpha, res.beta)
        phi = HolomorphyPotential(geom, scale=res.alpha, shift=res.beta)
    return IterationTrace(steps=tuple(steps))
