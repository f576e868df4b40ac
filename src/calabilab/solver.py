"""The critical-metric solver and the vector-field iteration harness.

solve_critical shoots on the affine coefficients (alpha, beta) of the EL
potential: given (alpha, beta), the scalar curvature s solves
f'(s) = (alpha x + beta) / h(phi) (Newton inversion of f', warm-started
from the previous iterate), and Newton iterates on the two far-end
mismatches of integrating (w Theta)'' = A - w s from the left endpoint.
The mismatch is affine in s, K s + m0, so the Newton Jacobian is exact:
J = K diag(1 / (h f''(s))) [x 1].  The profile is integrated once, from
the final s.

When f' is constant the EL potential does not depend on the metric, so
every metric is critical; the solver detects this degenerate direction and
returns the canonical representative with affine scalar curvature instead
of iterating on a singular system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CalabiLabError, ConfigError, ConvergenceError, DomainError, SingularPotential
from .functions import FunctionDescriptor, invert
from .geometry import MetricProfile, ProfileGeometry, class_constants
from .potentials import ELReport, HolomorphyPotential, el_potential, holomorphy_defect
from .spectral import SampledFunction, affine_projection

NEWTON_TOL = 1e-10
MAX_NEWTON_ITER = 50

STATUS_CONVERGED = "converged"
STATUS_EVERY_METRIC = "every_metric_critical"


@dataclass(frozen=True)
class CriticalSolveResult:
    profile: MetricProfile
    alpha: float
    beta: float
    el_report: ELReport
    iterations: int
    converged: bool
    status: str
    residual_trace: tuple = ()


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
    degenerate_direction: bool = True

    @property
    def final_status(self) -> str:
        return self.steps[-1].status if self.steps else "empty"


class _Shooter:
    """Left-to-right integration of (w Theta)'' = A - w s and its far-end
    mismatch K s + m0, where K and m0 are the Clenshaw-Curtis forms of
    p_hi = w_lo slope_lo span + int (x_hi - x)(A - w s) and
    p'_hi = w_lo slope_lo + int (A - w s), with p = w Theta."""

    def __init__(self, geom: ProfileGeometry):
        self.geom = geom
        grid = geom.grid
        self.grid = grid
        self.w = geom.weight.values
        self.a = geom.base_term.values
        self.p_slope_lo = float(self.w[0]) * geom.slope_lo
        w_hi = float(self.w[-1])
        dw_hi = float(grid.differentiate_values(self.w, 1)[-1])
        q = grid.quad_weights
        lever = grid.hi - grid.x
        # (theta_hi, theta'_hi) = rows . (p_hi, p'_hi)
        rows = np.array([[1.0 / w_hi, 0.0], [-dw_hi / w_hi ** 2, 1.0 / w_hi]])
        self.k = -rows @ np.stack([q * lever * self.w, q * self.w])
        p0 = self.p_slope_lo * np.array([grid.span, 1.0]) + np.stack([q * lever, q]) @ self.a
        self.m0 = rows @ p0 - np.array([0.0, geom.slope_hi])

    def mismatch(self, s_vals: np.ndarray) -> np.ndarray:
        return self.k @ s_vals + self.m0

    def profile(self, s_vals: np.ndarray) -> MetricProfile:
        p1 = self.p_slope_lo + self.grid.antiderivative_values(self.a - self.w * s_vals)
        theta = self.geom.divide_by_weight(self.grid.antiderivative_values(p1))
        theta[0] = 0.0
        return MetricProfile(self.geom, SampledFunction(self.grid, theta))


def _newton(shooter: _Shooter, s_of_ab, ds_dpsi, init, tol=NEWTON_TOL, max_iter=MAX_NEWTON_ITER):
    """Newton on the far-end mismatch.  s_of_ab maps (alpha, beta) to s and
    ds_dpsi(s) is the pointwise derivative of s in psi = alpha x + beta, so
    the Jacobian K diag(ds_dpsi) [x 1] is exact."""
    x = shooter.grid.x
    ab = np.array(init, dtype=float)
    trace = []
    for it in range(max_iter):
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
        if rnorm < tol:
            # J is exact, so this last step leaves a residual of order
            # rnorm**2; s follows it to first order, which is as accurate.
            return ab, s - d * (step[0] * x + step[1]), it, trace
    raise ConvergenceError(f"Newton stagnated after {max_iter} iterations", trace)


def _check_nonvanishing(hv: np.ndarray):
    if np.abs(hv).min() <= 1e-12 * max(np.abs(hv).max(), 1.0):
        raise SingularPotential("h(phi) crosses zero on the momentum interval")
    hr = hv.real
    if hr.max() > 0 > hr.min():
        raise SingularPotential("h(phi) changes sign on the momentum interval")


def solve_critical(
    geom: ProfileGeometry,
    f: FunctionDescriptor,
    h: FunctionDescriptor,
    phi: HolomorphyPotential,
    init: tuple | None = None,
    tol: float = NEWTON_TOL,
    max_iter: int = MAX_NEWTON_ITER,
) -> CriticalSolveResult:
    """Find the metric whose EL potential f'(s) h(phi) is alpha x + beta."""
    shooter = _Shooter(geom)
    grid = geom.grid
    x = grid.x
    hv = np.asarray(h(phi.values(), x))
    _check_nonvanishing(hv)
    hr = hv.real
    s0 = class_constants(geom).s0
    fprime = f.derivative()
    fp_const = fprime.constant_value()

    if fp_const is not None:
        # Degenerate direction: psi = fp_const * h(phi) is metric
        # independent, so every metric is critical when it is affine.
        # Return the canonical representative with affine scalar curvature.
        psi_fixed = fp_const * hv
        _, _, resid = affine_projection(psi_fixed, geom.weight, grid)
        if resid > 1e-8 * (1.0 + float(np.abs(psi_fixed).max())):
            raise ConvergenceError(
                "EL potential is metric-independent and non-affine: no critical metric"
            )
        ab, s_final, iters, trace = _newton(
            shooter,
            lambda ab: ab[0] * x + ab[1],
            lambda s: 1.0,
            (0.0, s0) if init is None else init,
            tol,
            max_iter,
        )
        status = STATUS_EVERY_METRIC
    else:
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
        ab, s_final, iters, trace = _newton(
            shooter, s_of_ab, lambda s: 1.0 / (hr * fsecond(s, x)), init, tol, max_iter
        )
        status = STATUS_CONVERGED

    profile = shooter.profile(s_final)
    psi = el_potential(profile, f, h, phi)
    report = holomorphy_defect(profile, psi)
    return CriticalSolveResult(
        profile=profile,
        alpha=float(ab[0]),
        beta=float(ab[1]),
        el_report=report,
        iterations=iters,
        converged=True,
        status=status,
        residual_trace=tuple(trace),
    )


def iterate(
    geom: ProfileGeometry,
    f: FunctionDescriptor,
    h: FunctionDescriptor,
    phi0: HolomorphyPotential,
    max_steps: int,
    zero_tol: float = 1e-10,
    conv_tol: float = 1e-8,
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
        if abs(res.alpha) < zero_tol:
            status = "zero_field"
        elif prev is not None and abs(res.alpha - prev[0]) < conv_tol and abs(res.beta - prev[1]) < conv_tol:
            status = "converged"
        else:
            status = "continued"
        steps.append(IterationStep(i, res.alpha, res.beta, status, summary))
        if status in ("zero_field", "converged"):
            break
        prev = (res.alpha, res.beta)
        phi = HolomorphyPotential(geom, scale=res.alpha, shift=res.beta)
    return IterationTrace(steps=tuple(steps))
