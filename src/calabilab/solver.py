"""The critical-metric solver and the vector-field iteration harness.

solve_critical runs one Newton loop (_newton) on the scalar curvature s
at the nodes and the affine coefficients (alpha, beta) of the EL potential
together: F = Re h(phi) f'(s) - (alpha x + beta) = 0 at every node, and
the two far-end mismatches of integrating (w Theta)'' = A - w s from the
left endpoint vanish.  The mismatch is affine in s, K s + m0, so
eliminating the pointwise corrections leaves the exact 2x2 Jacobian
J = K diag(1 / (h f''(s))) [x 1], one matvec of the precomputed rows
K diag(x) and K: a bordered Newton step (Keller, "Numerical solution of
bifurcation and nonlinear eigenvalue problems", 1977), with no inner
solve for s.  Newton starts at s = s0 and at the weighted affine
projection of psi_0 = f'(s0) Re h(phi), the EL potential of the
constant-curvature profile, so a problem whose answer is the round metric
(Re h(phi) affine, constants included) is solved at its first mismatch;
an f' undefined at s0 is a DomainError naming f' and s0.
A J that is not finite, or whose singular values (in closed form) are in
a ratio of at most RANK_TOL, stops the solve with a ConvergenceError;
otherwise the step is a 2x2 elimination on Python floats
(spectral.PivotedLU2), with no LAPACK call.  The profile is integrated
once, from the final s, and keeps the Theta coefficients it is sampled
from; an s whose chop keeps every coefficient is not resolved on the grid
and raises ConvergenceError, and a profile that is not admissible raises
AdmissibilityError, both carrying the Newton trace.  A solution whose EL
potential is not affine within the report's tolerance raises
ConvergenceError instead of being returned; that check reads s again from
Theta's coefficients.

What depends only on the geometry is built once per geometry: the
shooter's forms (_shooter, memoised by functools.cache), the class
constants and the weighted affine projector with its factored Gram matrix
(cached on ProfileGeometry), and the round profile (geometry.round_profile).
f' and f'' are built once per distinct f (FunctionDescriptor.derivative).

When f' is constant the EL potential does not depend on the metric, so
every metric is critical or none is.  The solver then returns the
canonical representative, Calabi's extremal metric with affine scalar
curvature: the one Newton loop runs with f' := id and Re h := 1, and no
domain, that is Newton on s = alpha x + beta itself, from the same
projected start.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import (
    AdmissibilityError,
    CalabiLabError,
    ConfigError,
    ConvergenceError,
    DomainError,
    RangeError,
    SingularPotential,
)
from .functions import FunctionDescriptor, identity
from .geometry import MetricProfile, ProfileGeometry
from .potentials import ELReport, HolomorphyPotential, el_potential, holomorphy_defect
from .spectral import PivotedLU2, chop_coefficients, solve_euler

NEWTON_TOL = 1e-10
MAX_NEWTON_ITER = 50
POINTWISE_TOL = 1e-13  # max |d F| at or below this times 1 + max |s|: s settled at every node
# d F = d (g - (alpha x + beta)) is rounded to a few eps |d| (|g| + |alpha x| + |beta|)
# at each node; this many of them are added to the node's bound
POINTWISE_ULPS = 4.0
EPS = float(np.finfo(float).eps)
MAX_STEP_HALVINGS = 30  # a Newton step still off the branch after this many halvings fails
RANK_TOL = 1e-12  # sigma_min / sigma_max at or below this: the Jacobian is singular
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
    L^-k int (k (x_hi - x) / L - 1) w s, m0 = (slope_lo L, slope_lo - slope_hi).
    jac_rows stacks K_0 diag(x), K_0, K_1 diag(x) and K_1, so the Newton
    Jacobian K diag(d) [x 1] is jac_rows @ d, reshaped to 2x2."""

    def __init__(self, geom: ProfileGeometry):
        self.geom = geom
        grid = self.grid = geom.grid
        k, span, x = geom.k, grid.span, grid.x
        qw = grid.quad_weights * geom.weight.values / span ** k
        lever = grid.hi - x
        self.k = np.stack([-qw * lever, (k / span) * qw * lever - qw])
        self.jac_rows = np.stack([self.k[0] * x, self.k[0], self.k[1] * x, self.k[1]])
        self.m0 = np.array([geom.slope_lo * span, geom.slope_lo - geom.slope_hi])

    def mismatch(self, s_vals: np.ndarray) -> np.ndarray:
        return self.k @ s_vals + self.m0

    def jacobian(self, d: np.ndarray) -> np.ndarray:
        """The 2x2 Jacobian K diag(d) [x 1] of the mismatch in (alpha, beta),
        d = 1 / (Re h f''(s)) at the nodes."""
        return (self.jac_rows @ d).reshape(2, 2)

    def profile(self, s_vals: np.ndarray, trace: list) -> MetricProfile:
        """Theta = slope_lo y - y^2 M, M(y) = int_0^1 (1 - tau) tau^k
        s(x_lo + y tau) dtau, for every k and with no division.  M maps y^n
        to y^n / ((n + k + 1)(n + k + 2)), so it solves
        (y d/dy + k + 1)(y d/dy + k + 2) M = s, exactly on the chopped s.
        The profile keeps the chopped coefficients of Theta it was sampled
        from.  An s whose chop keeps every coefficient is not resolved on
        the grid: a ConvergenceError carrying the Newton trace."""
        grid, geom = self.grid, self.geom
        m = chop_coefficients(grid.values_to_coefficients(s_vals))
        if m.size == grid.n:
            raise ConvergenceError(
                f"scalar curvature not resolved: kept {m.size} of {grid.n} coefficients", trace)
        for a in (geom.k + 1, geom.k + 2):
            m = solve_euler(m, a)
        coeffs = chop_coefficients(_theta_coefficients(m, geom.slope_lo, grid.span))
        theta = grid.coefficients_to_values(coeffs)
        theta[0] = 0.0
        return MetricProfile.with_coefficients(geom, theta, coeffs)


@functools.cache
def _shooter(geom: ProfileGeometry) -> _Shooter:
    """The geometry's shooter, built on first use: its forms depend on the
    geometry alone."""
    return _Shooter(geom)


def _times_t_plus_1(c: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of (t + 1) sum_n c_n T_n: t T_0 = T_1 and
    t T_n = (T_(n+1) + T_(n-1)) / 2 for n >= 1."""
    half = 0.5 * c
    out = np.zeros(c.size + 1)
    out[:-1] = c
    out[1:] += half
    out[:-2] += half[1:]
    out[1] += half[0]
    return out


def _theta_coefficients(m: np.ndarray, slope_lo: float, span: float) -> np.ndarray:
    """Chebyshev coefficients of slope_lo y - y^2 M from those of M, with
    y = x - x_lo = span (t + 1) / 2: two passes of multiplication by t + 1."""
    theta = _times_t_plus_1(_times_t_plus_1(m)) * -((span / 2.0) ** 2)
    theta[:2] += slope_lo * span / 2.0
    return theta


def _singular_value_ratio(m: np.ndarray) -> float:
    """sigma_min / sigma_max of a real 2x2 matrix in closed form, 0 for the
    zero matrix.  With m scaled by its largest entry, sigma_max =
    (hypot(a + d, c - b) + hypot(a - d, c + b)) / 2 lies in [1, 2] and
    sigma_min = |ad - bc| / sigma_max, so nothing overflows or divides by 0."""
    a, b, c, d = m.ravel().tolist()
    scale = max(abs(a), abs(b), abs(c), abs(d))
    if scale == 0.0:
        return 0.0
    a, b, c, d = a / scale, b / scale, c / scale, d / scale
    smax = (math.hypot(a + d, c - b) + math.hypot(a - d, c + b)) / 2.0
    return abs(a * d - b * c) / smax ** 2


def _newton(shooter: _Shooter, f, fprime, hr, init, s):
    """Newton on the joint system F = Re h f'(s) - (alpha x + beta) = 0 at
    the nodes and K s + m0 = 0, from (alpha, beta) = init and node values s.
    With d = 1 / (Re h f''(s)), eliminating ds leaves the exact 2x2 system
    K diag(d) [x 1] (da, db) = K (s - d F) + m0, and the step is
    (alpha, beta, s) -= (da, db, d (da x + db + F)).  A d that is not
    finite stops the solve at its node.  The step is halved, for s, alpha
    and beta together, while at some node its s leaves the domain of f,
    makes Re h f'(s) overflow, or leaves the branch of f' that s started
    on: Re h f''(s) changes sign, or f' changes sign against its
    monotonicity, as across the pole of s^-3 at 0.  A step that
    MAX_STEP_HALVINGS halvings cannot save raises RangeError naming the
    node.  Newton stops when the mismatch is below NEWTON_TOL and every
    pointwise correction d F below POINTWISE_TOL (1 + max |s|) plus its own
    rounding floor (_settled).
    (alpha, beta) and the 2x2 step are Python floats; numpy's
    floating-point warnings are off, and these checks name the node
    instead."""
    x = shooter.grid.x
    fsecond = fprime.derivative()
    alpha, beta = float(init[0]), float(init[1])
    trace = []

    def at(s):
        f(s, x)  # a DomainError outside the domain of f names the node
        return hr * fprime(s, x), hr * fsecond(s, x)

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        g, hf2 = at(s)
        sign = np.sign(hf2)
        for it in range(MAX_NEWTON_ITER):
            res = shooter.mismatch(s)
            rnorm = float(np.abs(res).max())
            trace.append(((alpha, beta), rnorm))
            # d hf2 is 1 to rounding where both are finite, and not finite
            # where either is (an overflowed f'' leaves d = 0), so that the
            # node is named
            d = 1.0 / hf2
            bad = (~np.isfinite(d * hf2)).nonzero()[0]
            if bad.size:
                raise ConvergenceError(f"Newton Jacobian is not finite at node x={float(x[bad[0]])!r}", trace)
            jac = shooter.jacobian(d)
            if _singular_value_ratio(jac) <= RANK_TOL:
                raise ConvergenceError("rank-deficient Newton Jacobian", trace)
            dF = d * (g - (alpha * x + beta))
            da, db = PivotedLU2(*jac.ravel().tolist()).solve(*shooter.mismatch(s - dF).tolist())
            ds = d * (da * x + db) + dF
            if rnorm < NEWTON_TOL and _settled(dF, d, g, alpha * x, beta, s):
                # J is exact, so this last step leaves a residual of order
                # rnorm**2; s follows it to first order, which is as accurate.
                return (alpha - da, beta - db), s - ds, it, trace
            t = 1.0
            for _ in range(MAX_STEP_HALVINGS):
                try:
                    g_t, hf2_t = at(s - t * ds)
                except DomainError as exc:
                    fault = f"leaves the domain of {f.render()} at node x={exc.node!r}"
                else:
                    # off the branch: f'' changes sign, or f' changes sign
                    # against its monotonicity (across a pole, as s^-3 at 0)
                    off = (np.sign(hf2_t) != sign) | ((g * g_t < 0) & ((g_t - g) * ds * sign > 0))
                    bad = (~np.isfinite(g_t) | off).nonzero()[0]
                    if not bad.size:
                        break
                    i = bad[0]
                    fault = (f"makes Re h f'(s) overflow at node x={float(x[i])!r}" if not np.isfinite(g_t[i])
                             else f"leaves the branch of f' through the start at node x={float(x[i])!r}")
                t *= 0.5
            else:
                raise RangeError(f"a Newton step halved {MAX_STEP_HALVINGS} times still {fault}")
            alpha, beta, s, g, hf2 = alpha - t * da, beta - t * db, s - t * ds, g_t, hf2_t
    i = int(np.argmax(np.abs(dF)))  # the node furthest from settling
    raise ConvergenceError(
        f"Newton stagnated after {MAX_NEWTON_ITER} iterations; the largest pointwise "
        f"correction is at node x={float(x[i])!r}", trace)


def _settled(dF, d, g, alpha_x, beta, s) -> bool:
    """Every pointwise correction d F = d (g - (alpha x + beta)) is at most
    POINTWISE_TOL (1 + max |s|) plus its rounding floor at its node,
    POINTWISE_ULPS eps |d| (|g| + |alpha x| + |beta|).  Where psi is the
    cancellation of two large numbers, s there is known only to that floor,
    and d F cannot settle below it.  The floor is added only when the
    common bound alone fails."""
    mag = np.abs(dF)
    bound = POINTWISE_TOL * (1.0 + np.abs(s).max())
    if mag.max() <= bound:
        return True
    floor = (POINTWISE_ULPS * EPS) * np.abs(d) * (np.abs(g) + np.abs(alpha_x) + abs(beta))
    return bool((mag <= bound + floor).all())


def _check_nonvanishing(hr: np.ndarray):
    """Newton solves Re h f'(s) = psi for s at each node, dividing by
    hr = Re h(phi): it must keep one sign.  min |hr| and max |hr| are read
    from min hr and max hr, unless the sign changes."""
    lo, hi = hr.min(), hr.max()
    changes_sign = hi > 0 > lo
    if changes_sign:
        mag = np.abs(hr)
        small, big = mag.min(), mag.max()
    else:
        small, big = sorted((abs(lo), abs(hi)))
    if small <= 1e-12 * max(big, 1.0):
        raise SingularPotential("Re h(phi) vanishes on the momentum interval")
    if changes_sign:
        raise SingularPotential("Re h(phi) changes sign on the momentum interval")


def solve_critical(
    geom: ProfileGeometry,
    f: FunctionDescriptor,
    h: FunctionDescriptor,
    phi: HolomorphyPotential,
    init: tuple | None = None,
) -> CriticalSolveResult:
    """Find the metric whose EL potential f'(s) h(phi) is alpha x + beta."""
    shooter = _shooter(geom)
    x = geom.grid.x
    hr = np.asarray(h(phi.values, x)).real  # a complex h leaves Im h to the check below
    s0 = geom.constants.s0
    domain, fprime, status = f, f.derivative(), STATUS_CONVERGED
    if fprime.constant_value() is not None:
        # psi = f' h(phi) does not depend on the metric, so every metric is
        # critical when it is affine and none is otherwise.  The canonical
        # representative is Calabi's: Newton on s = alpha x + beta itself
        # (f' := id, Re h := 1, no domain to stay in); the criticality check
        # below decides.
        domain, fprime, hr, status = identity(), identity(), np.ones(x.shape), STATUS_EVERY_METRIC
    # F = Re h f'(s) - psi is solved for s pointwise, so Re h must keep one sign
    _check_nonvanishing(hr)
    if init is None:
        # the EL potential of the constant-curvature profile, projected
        try:
            fprime0 = float(fprime(np.array([s0]))[0])
        except DomainError as exc:
            raise DomainError(exc.tag, exc.value,
                              where=f"f' = {fprime.render()} at the start s0 = {float(s0)!r}") from exc
        init = geom.affine_projector.coefficients(fprime0 * hr)
    s_start = np.empty(x.shape)
    s_start.fill(s0)
    ab, s_final, iters, trace = _newton(shooter, domain, fprime, hr, init, s_start)

    profile = shooter.profile(s_final, trace)
    if profile.violations:
        raise AdmissibilityError(profile.violations, trace)
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
