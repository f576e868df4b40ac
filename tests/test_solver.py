import os
import subprocess
import sys
import warnings

import numpy as np
import numpy.polynomial.chebyshev as C
import pytest

from calabilab import (
    AdmissibilityError,
    AffineProjector,
    ConvergenceError,
    DeformationPath,
    DomainError,
    HolomorphyPotential,
    MetricProfile,
    NonFiniteError,
    RangeError,
    SampledFunction,
    SingularPotential,
    composed_with_affine,
    delta_S_analytic,
    holomorphy_defect,
    el_potential,
    fsum,
    identity,
    iterate,
    make_cp1_geometry,
    make_cpm_geometry,
    normalize_potential,
    parse_function,
    power,
    random_admissible_profile,
    round_profile,
    scaled,
    solve_critical,
)
from calabilab import solver
from calabilab.functions import FunctionDescriptor
from calabilab.geometry import _theta_coefficients, bump_factor
from calabilab.spectral import SpectralGrid

E2 = float(np.exp(2.0))


def test_classical_extremal_recovery(cp1, cp1_phi):
    res = solve_critical(cp1, parse_function("id"), parse_function("const:1"), cp1_phi)
    expect = 1.0 - cp1.grid.x ** 2
    assert np.abs(res.profile.theta.values - expect).max() < 1e-8
    assert abs(res.alpha - 0.0) < 1e-8
    assert abs(res.beta - 2.0) < 1e-8
    assert res.status == "every_metric_critical"


def test_calabi_functional_solve(cp1, cp1_phi):
    res = solve_critical(
        cp1, parse_function("scaled:0.5:pow:2"), parse_function("const:1"), cp1_phi
    )
    assert res.status == "converged"
    assert abs(res.alpha) < 1e-8
    assert abs(res.beta - 2.0) < 1e-8
    assert np.abs(res.profile.theta.values - (1.0 - cp1.grid.x ** 2)).max() < 1e-8
    assert res.el_report.is_critical


def test_exponential_case(cp1):
    phi = HolomorphyPotential(cp1, 1.0, 2.0)
    res = solve_critical(cp1, parse_function("exp"), parse_function("id"), phi)
    assert res.status == "converged"
    # s must satisfy e^s (x+2) affine; the solution is s = 2, alpha = e^2
    assert abs(res.alpha - E2) < 1e-7
    assert abs(res.beta - 2.0 * E2) < 1e-7
    assert np.abs(res.profile.theta.values - (1.0 - cp1.grid.x ** 2)).max() < 1e-8
    assert res.el_report.defect_affine < 1e-8
    # self-consistency: exp(s) * (x + 2) is affine to 1e-8
    psi = el_potential(res.profile, parse_function("exp"), parse_function("id"), phi)
    affine = res.alpha * cp1.grid.x + res.beta
    assert np.abs(psi.values - affine).max() < 1e-7


def test_solution_kills_first_variation(cp1):
    phi = HolomorphyPotential(cp1, 1.0, 2.0)
    f, h = parse_function("exp"), parse_function("id")
    res = solve_critical(cp1, f, h, phi)
    s_scale = 1.0 + abs(res.beta)
    rng = np.random.default_rng(1)
    for _ in range(10):
        u = SampledFunction(
            cp1.grid, np.polynomial.chebyshev.chebval(cp1.grid.t, rng.uniform(-1, 1, 6))
        )
        d = delta_S_analytic(res.profile, f, h, phi, DeformationPath(u))
        assert abs(d) < 1e-8 * s_scale


def test_perturbed_metric_fails_criticality(cp1):
    phi = HolomorphyPotential(cp1, 1.0, 2.0)
    f, h = parse_function("exp"), parse_function("id")
    res = solve_critical(cp1, f, h, phi)
    bumped = MetricProfile(
        cp1,
        SampledFunction(cp1.grid, res.profile.theta.values + 1e-3 * bump_factor(cp1)),
    )
    report = holomorphy_defect(bumped, el_potential(bumped, f, h, phi))
    assert report.defect_affine > 10.0 * report.tolerance
    assert not report.is_critical


def test_singular_potential_rejected(cp1):
    phi = normalize_potential(cp1)  # phi = x crosses zero
    with pytest.raises(SingularPotential):
        solve_critical(cp1, parse_function("exp"), parse_function("id"), phi)


@pytest.mark.parametrize("c", [1.0, 1e3, 1e6])
def test_singular_potential_test_is_invariant_under_scaling_h(cp1, c):
    # the critical metric of (f, c h) is that of (f, h), with (alpha, beta)
    # scaled by c, so whether Re h vanishes cannot depend on c >= 1: with
    # phi = x + 1, h = c (phi + 1e-13) is 1e-13 of its largest value at x = -1
    phi = HolomorphyPotential(cp1, 1.0, 1.0)
    with pytest.raises(SingularPotential, match="vanishes"):
        solve_critical(cp1, parse_function("exp"), parse_function(f"affine:{c!r}:{c * 1e-13!r}"), phi)


def test_vanishing_real_part_of_h_is_singular(cp1):
    # |h| = 0.5 everywhere, but the inversion of f' divides by Re h = 0
    with pytest.raises(SingularPotential, match="Re h"):
        solve_critical(cp1, parse_function("pow:2"), parse_function("const:0.5j"), normalize_potential(cp1))


@pytest.mark.parametrize("h, value", [("exp", "inf"), ("sum:exp,scaled:-1:exp", "nan")])
def test_non_finite_real_part_of_h_is_named(cp1, h, value):
    # phi = 400 (x + 1): e^phi overflows where phi > log(max float), and
    # e^phi - e^phi is inf - inf there.  The first such node is named with
    # its value, not read as a vanishing Re h or a non-finite Jacobian
    phi = HolomorphyPotential(cp1, 400.0, 400.0)
    x = cp1.grid.x
    node = float(x[phi.values > np.log(np.finfo(float).max)][0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match=rf"^non-finite Re h\(phi\) at node x={node!r}: {value}$"):
            solve_critical(cp1, parse_function("exp"), parse_function(h), phi)


def test_non_critical_solution_is_not_returned(cp1):
    # the shooting solves f'(s) Re h(phi) = alpha x + beta; Im h(phi) = 0.5
    # then leaves psi = e^s h(phi) non-affine, far above the tolerance
    phi = HolomorphyPotential(cp1, 1.0, 2.0)
    with pytest.raises(ConvergenceError, match="not critical") as exc:
        solve_critical(cp1, parse_function("exp"), parse_function("sum:pow:2,const:0.5j"), phi)
    assert exc.value.trace and exc.value.trace[-1][1] < 1e-10  # the shooting itself converged


@pytest.mark.parametrize("make", [make_cp1_geometry, lambda: make_cpm_geometry(3)], ids=["cp1", "cpm3"])
def test_constant_fprime_accepts_h_with_zeros(make):
    # f = id: psi = h(phi) = phi is affine for every metric and the solver
    # never divides by h, so phi = x crossing zero is no obstruction
    geom = make()
    res = solve_critical(geom, parse_function("id"), parse_function("id"), normalize_potential(geom))
    s0 = geom.constants.s0
    assert res.status == "every_metric_critical"
    assert abs(res.alpha) < 1e-12 and abs(res.beta - s0) < 1e-12 * s0


@pytest.mark.parametrize("target", [None, 5.0], ids=["default", "target5"])
@pytest.mark.parametrize("geometry", ["cp1", "cpm:2", "cpm:3", "cpm:4"])
@pytest.mark.parametrize("f, h", [("id", "const:1"), ("id", "id"), ("affine:3:1", "const:1")])
def test_constant_fprime_solve_is_the_calabi_solve(geometries, geometry, target, f, h):
    # with f' constant every metric or none is critical, and the solver
    # returns Calabi's: Newton on s = alpha x + beta, bit for bit the solve
    # of f = s^2 / 2, h = 1 from the same projected start
    geom = geometries[geometry]
    phi = normalize_potential(geom, target)
    res = solve_critical(geom, parse_function(f), parse_function(h), phi)
    calabi = solve_critical(geom, parse_function("scaled:0.5:pow:2"), parse_function("const:1"), phi)
    assert res.status == "every_metric_critical" and calabi.status == "converged"
    assert (res.alpha, res.beta) == (calabi.alpha, calabi.beta)
    assert np.array_equal(res.profile.theta.values, calabi.profile.theta.values)


def test_negative_h_solves_from_either_start(cp1):
    # psi = -e^s is affine at the Fubini-Study metric, psi = -e^(s0), and
    # the projected start psi_0 = f'(s0) h finds it at once
    phi = HolomorphyPotential(cp1, 1.0, 2.0)
    f, h = parse_function("exp"), parse_function("const:-1")
    res = solve_critical(cp1, f, h, phi)
    assert abs(res.beta + E2) < 1e-14 * E2 and abs(res.alpha) < 1e-14
    assert np.abs(res.profile.theta.values - (1.0 - cp1.grid.x ** 2)).max() < 1.3e-15
    # started at psi = e^2 > 0, where psi / h = -e^2 is outside the range of
    # exp: Newton on (s, alpha, beta) never inverts f', and reaches the same metric
    far = solve_critical(cp1, f, h, phi, init=(0.0, E2))
    assert far.el_report.is_critical
    assert abs(far.alpha - res.alpha) < 1e-14 * E2 and abs(far.beta - res.beta) < 1e-14 * E2
    assert np.abs(far.profile.theta.values - res.profile.theta.values).max() < 1e-14


def test_solve_stays_on_the_branch_of_fprime_through_s0():
    # f' = 3 s^2 takes every positive value at s and -s, and psi / h
    # at the projected start reaches -0.0132 at x = 1, below the
    # range of 3 s^2.  Newton keeps the sign of f'' = 6 s at every node, so
    # s stays on the branch through s0 = 2, and the critical metric it finds
    # converges in N (CGL grids with N = 2^j + 1 nest)
    f, h = parse_function("pow:3"), parse_function("pow:-2")
    coarse = None
    for n in (129, 257):
        geom = make_cp1_geometry(n)
        res = solve_critical(geom, f, h, HolomorphyPotential(geom, 0.5, 1.05))
        assert res.el_report.is_critical and res.profile.violations == (), n
        assert res.profile.s.values.min() > 1.0, n
        theta = res.profile.theta.values
        if coarse is not None:
            assert np.abs(theta[::2] - coarse).max() <= 1e-10
        coarse = theta


def test_metric_independent_nonaffine_has_no_solution(cp1):
    phi = HolomorphyPotential(cp1, 1.0, 2.0)
    with pytest.raises(ConvergenceError):
        solve_critical(cp1, parse_function("id"), parse_function("pow:2"), phi)


def _affine_init(psi, geom):
    alpha, beta, _ = geom.affine_projector.project(psi.values)
    return (alpha, beta)


def test_solve_from_far_init(cp1, cp1_phi):
    # the answer is (0, 2); the mismatch is affine in (alpha, beta) here
    res = solve_critical(
        cp1, parse_function("id"), parse_function("const:1"), cp1_phi, init=(1.0, -1.0)
    )
    assert res.iterations == 1
    assert np.abs(res.profile.theta.values - (1.0 - cp1.grid.x ** 2)).max() < 1e-10


def test_solve_exact_init_stops_immediately(cp1, cp1_phi, cp1_round):
    for f in ("id", "scaled:0.5:pow:2"):
        res = solve_critical(
            cp1, parse_function(f), parse_function("const:1"), cp1_phi, init=(0.0, 2.0)
        )
        assert res.iterations == 0
        assert np.abs(res.profile.theta.values - cp1_round.theta.values).max() < 1e-10


def test_final_newton_step_corrects_a_start_within_tolerance(cp1, cp1_round):
    # e^s with h = id and phi = x + 2: the round metric is critical with
    # (alpha, beta) = e^2 (1, 2).  A start 2e-12 off satisfies the stop test
    # at once (the pointwise corrections are below POINTWISE_TOL), so the
    # solve returns after one step, and that step removes the offset
    phi = HolomorphyPotential(cp1, 1.0, 2.0)
    res = solve_critical(cp1, parse_function("exp"), parse_function("id"), phi, init=(E2 + 2e-12, 2.0 * E2 + 2e-12))
    assert res.iterations == 0
    assert abs(res.alpha - E2) <= 1e-13 * E2 and abs(res.beta - 2.0 * E2) <= 1e-13 * E2
    assert np.abs(res.profile.theta.values - cp1_round.theta.values).max() <= 1e-14
    # the same for s: Newton from the exact pair and s = 2 + 2e-13 cos 3x
    # stops at once and returns the round s = 2
    x = cp1.grid.x
    f = parse_function("exp")
    _, s, it, _ = solver._newton(solver._Shooter(cp1), f, f.derivative(), x + 2.0, (E2, 2.0 * E2),
                                 2.0 + 2e-13 * np.cos(3.0 * x))
    assert it == 0 and np.abs(s - 2.0).max() <= 2e-14


def test_solve_nonlinear_from_random_profile_init(cp1):
    phi = HolomorphyPotential(cp1, 1.0, 2.0)
    f, h = parse_function("exp"), parse_function("id")
    direct = solve_critical(cp1, f, h, phi)
    init = _affine_init(el_potential(random_admissible_profile(cp1, 17, 0.05), f, h, phi), cp1)
    res = solve_critical(cp1, f, h, phi, init=init)
    assert np.abs(res.profile.theta.values - direct.profile.theta.values).max() < 1e-10
    # at amplitude 0.1 the fitted alpha x + beta is negative at x = -1,
    # outside the range of exp; Newton on (s, alpha, beta) starts at s = s0
    # and never inverts it
    init = _affine_init(el_potential(random_admissible_profile(cp1, 17, 0.1), f, h, phi), cp1)
    assert init[1] - init[0] < 0
    res = solve_critical(cp1, f, h, phi, init=init)
    assert res.el_report.is_critical
    assert np.abs(res.profile.theta.values - direct.profile.theta.values).max() < 1e-10
    assert abs(res.alpha - direct.alpha) < 1e-12 * E2 and abs(res.beta - direct.beta) < 1e-12 * E2


@pytest.mark.parametrize("f", ["exp", "sum:exp,pow:2"])
@pytest.mark.parametrize("geometry", ["cp1", "cpm:3"])
def test_general_f_solves_to_round_profile(geometry, f):
    # h(phi) = x + 2 is affine, so the constant-s round profile is critical
    # for every f; the solve must find it and report it truthfully.
    geom = make_cpm_geometry(3) if geometry == "cpm:3" else make_cp1_geometry()
    phi = HolomorphyPotential(geom, 1.0, 2.0)
    fd, h = parse_function(f), parse_function("id")
    res = solve_critical(geom, fd, h, phi)
    assert res.status == "converged"
    theta = res.profile.theta.values
    assert np.abs(theta - round_profile(geom).theta.values).max() < 1e-10
    again = holomorphy_defect(res.profile, el_potential(res.profile, fd, h, phi))
    assert again.is_critical and res.el_report.is_critical
    assert again.defect_affine == res.el_report.defect_affine


@pytest.mark.parametrize("f", ["exp", "sum:exp,pow:2"])
@pytest.mark.parametrize("m", [3, 4])
def test_non_fubini_study_critical_metrics_on_cpm(m, f):
    # h = pow:2 is not affine, so the critical metric is not Fubini-Study;
    # CGL grids with N = 2^j + 1 nest, so each solve is compared with the
    # previous one on the coarser grid's nodes
    fd, h = parse_function(f), parse_function("pow:2")
    coarse = None
    for n in (65, 129, 513, 2049):
        geom = make_cpm_geometry(m, n)
        res = solve_critical(geom, fd, h, HolomorphyPotential(geom, 1.0, 2.5))
        assert res.profile.violations == (), n
        assert res.el_report.is_critical, n
        theta = res.profile.theta.values
        if coarse is not None:
            stride = (n - 1) // (coarse.size - 1)
            assert np.abs(theta[::stride] - coarse).max() <= 1e-10, n
        coarse = theta


def test_exponential_solve_on_cpm3_large_beta():
    # s0 = 24 on CP^3, so beta ~ e^24: the Jacobian entries are ~1/beta
    geom = make_cpm_geometry(3, 129)
    phi = HolomorphyPotential(geom, 1.0, 2.0)
    res = solve_critical(geom, parse_function("exp"), parse_function("id"), phi)
    x = geom.grid.x
    assert np.abs(res.profile.theta.values - 2.0 * x * (1.0 - x)).max() < 1e-10
    assert abs(res.alpha / np.exp(24.0) - 1.0) < 1e-9
    assert abs(res.beta / (2.0 * np.exp(24.0)) - 1.0) < 1e-9


def test_iterate_zero_field_immediately(cp1, cp1_phi):
    trace = iterate(cp1, parse_function("id"), parse_function("const:1"), cp1_phi, 8)
    assert trace.degenerate_direction
    assert len(trace.steps) == 1
    assert trace.steps[0].status == "zero_field"
    assert trace.steps[0].index == 0


def test_iterate_reseeds_from_psi_on_both_solver_paths(cp1, geometries):
    # id|id: every metric is critical and Newton solves for s = s0, so the
    # top-level alpha is 0, while psi = h(phi) = phi = x.  The field
    # re-seeds with phi = x and settles at step 1
    ident = parse_function("id")
    for spec, geom in geometries.items():
        trace = iterate(geom, ident, ident, normalize_potential(geom), 4)
        assert [s.status for s in trace.steps] == ["continued", "converged"], spec
        for s in trace.steps:
            assert abs(s.alpha - 1.0) < 1e-12 and abs(s.beta) < 1e-12, (spec, s)
    # the Newton path: each step reports psi's pair, and the next field is it
    f, h = parse_function("exp"), ident
    phi = HolomorphyPotential(cp1, 1.0, 2.0)
    for step in iterate(cp1, f, h, phi, 2).steps:
        report = solve_critical(cp1, f, h, phi).el_report
        assert (step.alpha, step.beta) == (report.alpha, report.beta)
        phi = HolomorphyPotential(cp1, step.alpha, step.beta)


def test_iterate_exponential_runs_deterministic_steps(cp1):
    phi = HolomorphyPotential(cp1, 1.0, 2.0)
    t1 = iterate(cp1, parse_function("exp"), parse_function("id"), phi, 4)
    t2 = iterate(cp1, parse_function("exp"), parse_function("id"), phi, 4)
    assert t1.degenerate_direction
    assert len(t1.steps) >= 2
    assert all(s.status in ("continued", "converged") for s in t1.steps)
    assert [(s.alpha, s.beta) for s in t1.steps] == [(s.alpha, s.beta) for s in t2.steps]


def test_iterate_settles_on_the_round_metric(cp1):
    # f = e^(s - 2), so f'(s0) = 1 on cp1, and h = id with phi = x + 2: the
    # round metric is critical with psi = f'(s0) (x + 2), so the next field
    # is phi again and the second step repeats the first
    phi = normalize_potential(cp1, 8.0 * np.pi)
    trace = iterate(cp1, parse_function("compaff:1:-2:exp"), parse_function("id"), phi, 8)
    assert [s.status for s in trace.steps] == ["continued", "converged"]
    for s in trace.steps:
        assert abs(s.alpha - 1.0) < 1e-12 and abs(s.beta - 2.0) < 1e-12
    # h = id + 1: psi = phi + 1, so alpha stays 1 while beta grows by 1 a
    # step, and a field settles only when both coefficients do
    trace = iterate(cp1, parse_function("compaff:1:-2:exp"), parse_function("affine:1:1"), phi, 3)
    assert [s.status for s in trace.steps] == ["continued"] * 3
    for i, s in enumerate(trace.steps):
        assert abs(s.alpha - 1.0) < 1e-12 and abs(s.beta - (3.0 + i)) < 1e-12


def test_iterate_makes_max_steps_steps(cp1):
    # e^s with h = id moves alpha by a factor e^2 each step, so it never settles
    phi = HolomorphyPotential(cp1, 1.0, 2.0)
    for max_steps in (1, 3):
        trace = iterate(cp1, parse_function("exp"), parse_function("id"), phi, max_steps)
        assert [s.status for s in trace.steps] == ["continued"] * max_steps
        assert trace.final_status == "continued"
    assert abs(trace.steps[0].alpha - E2) < 1e-12 * E2 and abs(trace.steps[0].beta - 2.0 * E2) < 1e-12 * E2


def test_iterate_records_failure_step(cp1):
    phi = normalize_potential(cp1)  # singular for h = id
    trace = iterate(cp1, parse_function("exp"), parse_function("id"), phi, 4)
    assert trace.steps[-1].status == "failed"
    assert trace.final_status == "failed"


def test_iterate_solves_with_a_real_phi_only(cp1, monkeypatch):
    # a complex h gives psi a complex pair: one with an imaginary part is no
    # real field's potential, so its step fails (test_cli pins the error);
    # a pair whose imaginary parts are exactly 0 re-seeds with its real parts
    seen = []

    def spy(geom, f, h, phi):
        seen.append(phi.values.dtype)
        return solve_critical(geom, f, h, phi)

    monkeypatch.setattr(solver, "solve_critical", spy)
    phi = HolomorphyPotential(cp1, 1.0, 2.0)
    trace = iterate(cp1, parse_function("exp"), parse_function("sum:id,const:0.5j"), phi, 3)
    assert [s.status for s in trace.steps] == ["failed"] and seen == [np.dtype(float)]
    seen.clear()
    trace = iterate(cp1, parse_function("exp"), parse_function("sum:id,sum:const:0.5j,const:-0.5j"), phi, 3)
    assert [s.status for s in trace.steps] == ["continued"] * 3
    assert isinstance(trace.steps[0].alpha, complex) and seen == [np.dtype(float)] * 3


def test_iterate_propagates_non_library_errors(cp1, monkeypatch):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("bug in the solver")

    monkeypatch.setattr(solver, "solve_critical", broken)
    phi = HolomorphyPotential(cp1, 1.0, 2.0)
    with pytest.raises(ZeroDivisionError):
        iterate(cp1, parse_function("exp"), parse_function("id"), phi, 2)


def test_import_does_not_load_scipy():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, calabilab; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "False"


def test_solver_boundary_mismatch_tolerance(cp1):
    phi = HolomorphyPotential(cp1, 1.0, 2.0)
    res = solve_critical(cp1, parse_function("exp"), parse_function("id"), phi)
    theta = res.profile.theta.values
    grid = cp1.grid
    assert abs(theta[0]) < 1e-10 and abs(theta[-1]) < 1e-10
    dtheta = C.chebder(grid.values_to_coefficients(theta)) * (2.0 / grid.span)
    slope_lo, slope_hi = C.chebval([-1.0, 1.0], dtheta)
    assert abs(slope_lo - 2.0) < 1e-8
    assert abs(slope_hi + 2.0) < 1e-8
    assert np.all(theta[1:-1] > 0)


def test_cpm_solve_recovers_fubini_study():
    from calabilab import make_cpm_geometry

    geom = make_cpm_geometry(2)
    phi = normalize_potential(geom)
    res = solve_critical(
        geom, parse_function("scaled:0.5:pow:2"), parse_function("const:1"), phi
    )
    expect = 2.0 * geom.grid.x * (1.0 - geom.grid.x)
    assert abs(res.alpha) < 1e-6
    assert abs(res.beta - 12.0) < 1e-6
    assert np.abs(res.profile.theta.values - expect).max() < 1e-7


def _rotation(t):
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


def test_singular_value_ratio_matches_svd():
    rng = np.random.default_rng(11)
    for _ in range(500):
        m = rng.standard_normal((2, 2)) * 10.0 ** rng.uniform(-5, 5)
        sv = np.linalg.svd(m, compute_uv=False)
        assert abs(solver._singular_value_ratio(*m.ravel().tolist()) - sv[1] / sv[0]) <= 2e-15
    assert solver._singular_value_ratio(0.0, 0.0, 0.0, 0.0) == 0.0


@pytest.mark.parametrize("r", [1e-14, 3e-13, 8e-13, 1.25e-12, 3e-12, 1e-11])
def test_singular_value_ratio_near_the_rank_threshold(r):
    # sigma_min / sigma_max = r up to the roundoff of building m, which
    # stays far below the distance of every r from the threshold 1e-12
    rng = np.random.default_rng(int(r * 1e16))
    for _ in range(50):
        t1, t2 = rng.uniform(0.0, 2.0 * np.pi, 2)
        m = _rotation(t1) @ np.diag([1.0, r]) @ _rotation(t2) * 10.0 ** rng.uniform(-3, 3)
        sv = np.linalg.svd(m, compute_uv=False)
        ratio = solver._singular_value_ratio(*m.ravel().tolist())
        assert abs(ratio - sv[1] / sv[0]) <= 2e-15
        assert (ratio <= solver.RANK_TOL) == (sv[1] <= 1e-12 * sv[0]) == (r <= 1e-12)


def _newton_on_scaled_s(shooter, c):
    """Newton for f'(s) = s / c, Re h = 1: d = c and J = c K [x 1], solution
    (0, s0 / c) on the round profile, from s = c (alpha x + beta) at
    (alpha, beta) = (0.5 / c, s0 / c)."""
    x = shooter.grid.x
    s0 = shooter.geom.constants.s0
    return solver._newton(shooter, identity(), scaled(1.0 / c, identity()), np.ones(x.shape),
                          (0.5 / c, s0 / c), 0.5 * x + s0)


def test_zero_jacobian_is_rank_deficient(cp1):
    shooter = solver._Shooter(cp1)
    shooter.jac_rows = np.zeros_like(shooter.jac_rows)  # K diag(d) [x 1] = 0 for every d
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="rank-deficient"):
            _newton_on_scaled_s(shooter, 1.0)


@pytest.mark.parametrize("c", [1e150, 1e-150])
@pytest.mark.parametrize("make", [make_cp1_geometry, lambda: make_cpm_geometry(3)])
def test_scaled_jacobian_is_not_refused(make, c):
    geom = make()
    s0 = geom.constants.s0
    ab, s, _, _ = _newton_on_scaled_s(solver._Shooter(geom), c)
    assert abs(ab[0]) * c < 1e-9 and abs(ab[1] * c - s0) < 1e-9 * s0
    assert np.abs(s - s0).max() < 1e-9 * s0
    jac = np.array([[0.3, -1.7], [2.2, 0.9]])
    assert abs(solver._singular_value_ratio(*(jac * c).ravel().tolist())
               - solver._singular_value_ratio(*jac.ravel().tolist())) < 1e-15


@pytest.mark.parametrize("h", ["id", "affine:2:1"])
@pytest.mark.parametrize("f", ["exp", "pow:2", "pow:3", "sum:exp,pow:2", "log"])
def test_round_metric_is_found_at_the_first_mismatch(geometries, f, h):
    # h(phi) affine: the round metric is critical, and the projected start
    # psi_0 = f'(s0) h(phi) is its EL potential, so Newton only confirms it
    for spec, geom in geometries.items():
        res = solve_critical(geom, parse_function(f), parse_function(h), HolomorphyPotential(geom, 1.0, 2.0))
        assert len(res.residual_trace) == 1 and res.iterations == 0, spec
        assert np.abs(res.profile.theta.values - round_profile(geom).theta.values).max() < 1e-12, spec


@pytest.mark.parametrize("h", ["pow:2", "exp"])
def test_projected_start_shortens_non_affine_solves(geometries, h):
    f, hd = parse_function("exp"), parse_function(h)
    for spec, geom in geometries.items():
        phi = HolomorphyPotential(geom, 1.0, 2.0)
        res = solve_critical(geom, f, hd, phi)
        plain = solve_critical(geom, f, hd, phi, init=(0.0, float(np.exp(geom.constants.s0))))
        assert len(res.residual_trace) <= len(plain.residual_trace), spec  # from (0, f'(s0))
        assert res.el_report.is_critical and res.profile.violations == (), spec


@pytest.mark.parametrize("h, scale, shift", [("log", 1.0, 1.2), ("pow:-2", 2.0, 3.0)])
def test_projected_start_solves_problems_the_old_start_refused(h, scale, shift):
    # from (0, f'(s0)) both left the range of exp at x = 0 (RangeError)
    geom = make_cpm_geometry(3)
    res = solve_critical(geom, parse_function("exp"), parse_function(h), HolomorphyPotential(geom, scale, shift))
    assert res.status == "converged" and res.el_report.is_critical
    assert res.profile.violations == ()


def test_calabi_start_is_the_constant_potential(geometries):
    # h = const: the projection of the constant f'(s0) is (0, s0) to roundoff
    for spec, geom in geometries.items():
        s0 = geom.constants.s0
        hr = np.ones(geom.grid.n)
        alpha, beta = geom.affine_projector.coefficients(s0 * hr)
        assert abs(alpha) < 1e-13 * s0 and abs(beta - s0) < 1e-14 * s0, spec


def test_unsettled_pointwise_correction_is_a_named_error(cp1):
    # f = log, h = exp, phi = 5x + 0.1: the mismatch converges, but psi at
    # x = -1 is 2.6e-7, the difference of two numbers near 8.2, so
    # s = Re h / psi = 2.8e4 there is known to a few parts in 1e9.  The
    # correction d F settles to its rounding floor there, so Newton stops
    # well before MAX_NEWTON_ITER, and the s it stops at is not resolved on
    # the grid: a ConvergenceError naming that, not a RuntimeWarning, a
    # wrong answer or 50 iterations of stagnation
    phi = HolomorphyPotential(cp1, 5.0, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match=r"scalar curvature not resolved: kept 129 of 129") as exc:
            solve_critical(cp1, parse_function("log"), parse_function("exp"), phi)
    assert exc.value.trace and exc.value.trace[-1][1] < solver.NEWTON_TOL
    assert len(exc.value.trace) < solver.MAX_NEWTON_ITER


def test_newton_that_cannot_settle_stagnates_at_a_named_node(cp1):
    # f = exp, h = pow:2, phi = 5x + 0.1: h(phi) vanishes at x = -0.02
    # without changing sign, so the solve is not refused, but psi = e^s h(phi)
    # must follow alpha x + beta through that near-zero.  No iterate settles
    # within MAX_NEWTON_ITER, and the error names the node next to x = -0.02
    phi = HolomorphyPotential(cp1, 5.0, 0.1)
    with pytest.raises(ConvergenceError) as exc:
        solve_critical(cp1, parse_function("exp"), parse_function("pow:2"), phi)
    assert str(exc.value) == (
        f"Newton stagnated after {solver.MAX_NEWTON_ITER} iterations; the largest pointwise "
        "correction is at node x=-0.024541228522912295")
    assert len(exc.value.trace) == solver.MAX_NEWTON_ITER


@pytest.mark.parametrize("geometry, f, h, fault", [
    ("cpm:3", "log", "exp", r"leaves the branch of f' through the start at node x=0\.0"),
    ("cp1", "exp", "pow:3", r"makes Re h f'\(s\) overflow at node x=-1\.0"),
])
def test_step_that_halving_cannot_save_is_a_range_error(geometries, geometry, f, h, fault):
    # phi = 2x + 3: Newton heads off the branch of f' (log) or to where
    # e^s overflows (exp), and no halving of the step stays put
    geom = geometries[geometry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeError, match=r"halved 30 times still " + fault):
            solve_critical(geom, parse_function(f), parse_function(h), HolomorphyPotential(geom, 2.0, 3.0))


def test_vanishing_second_derivative_is_a_named_error(cp1):
    # f = pow:3 with s = 0 at every node: f'' = 6s = 0, so d = 1 / (h f'') is infinite
    x = cp1.grid.x
    f = parse_function("pow:3")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match=r"not finite at node x=-1\.0$"):
            solver._newton(solver._Shooter(cp1), f, f.derivative(), np.ones(x.shape), (0.0, 0.0), np.zeros(x.shape))


@pytest.mark.parametrize("f, h, probes", [
    ("exp", "pow:2", False), ("pow:2", "id", False), ("scaled:0.5:pow:2", "const:1", False),
    ("id", "id", False),  # every_metric_critical: Newton on s itself, with no domain
    ("log", "exp", True),
])
def test_newton_evaluates_f_only_when_it_has_a_domain(cp1, monkeypatch, f, h, probes):
    # a counting spy on every descriptor evaluation: the f that Newton is
    # handed is evaluated once per trial point when it has a domain, else
    # never (h is another descriptor, and f' and f'' are built anew)
    handed, calls = [], []
    newton, evaluate = solver._newton, FunctionDescriptor.__call__
    monkeypatch.setattr(solver, "_newton", lambda shooter, g, *rest: handed.append(g) or newton(shooter, g, *rest))
    monkeypatch.setattr(FunctionDescriptor, "__call__", lambda g, *args: calls.append(g) or evaluate(g, *args))
    res = solve_critical(cp1, parse_function(f), parse_function(h), HolomorphyPotential(cp1, 1.0, 2.0))
    (domain,) = handed
    assert domain.has_domain() == probes
    evaluations = sum(g is domain for g in calls)
    assert evaluations == (res.iterations + 1 if probes else 0)
    assert res.iterations > 0 or h in ("id", "const:1")


def test_newton_step_out_of_the_domain_of_log_is_halved(monkeypatch):
    # cpm:2, f = log, h = log, phi = 2x + 1.1: one full Newton step takes s
    # below 0 at some node, where log is undefined; the step is halved
    # instead, and the solve converges to a critical metric
    geom = make_cpm_geometry(2)
    f = parse_function("log")
    exits = []
    evaluate = FunctionDescriptor.__call__

    def spy(g, *args):
        try:
            return evaluate(g, *args)
        except DomainError:
            exits.append(g)
            raise

    monkeypatch.setattr(FunctionDescriptor, "__call__", spy)
    res = solve_critical(geom, f, parse_function("log"), HolomorphyPotential(geom, 2.0, 1.1))
    assert exits and all(g is f for g in exits)
    assert res.status == "converged" and res.el_report.is_critical and res.profile.violations == ()


def test_step_out_of_the_domain_of_log_that_halving_cannot_save(cp1):
    # f = log, Re h = 1, from s = 1e-12 at every node and psi projected from
    # f'(s) = 1e12, far from any solution: the third Newton step would take
    # s at x = -1 from 4 to -4.3e9, and halved 30 times it still ends at -4
    x, f = cp1.grid.x, parse_function("log")
    s = np.full(x.shape, 1e-12)
    init = cp1.affine_projector.coefficients(1.0 / s)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeError, match=r"halved 30 times still leaves the domain of log at node x=-1\.0$"):
            solver._newton(solver._Shooter(cp1), f, f.derivative(), np.ones(x.shape), init, s)


def test_geometry_forms_are_built_once(geometries):
    for spec, geom in geometries.items():
        assert geom.far_end_forms is geom.far_end_forms, spec
        assert geom.far_end_offset is geom.far_end_offset, spec
        assert geom.jacobian_rows is geom.jacobian_rows, spec
        assert geom.affine_projector is geom.affine_projector, spec
        assert geom.constants is geom.constants, spec
        # the cached projector answers exactly as a fresh projection does
        psi = np.exp(geom.grid.x)
        assert geom.affine_projector.project(psi) == AffineProjector(geom.measure, geom.grid.x).project(psi)


def test_jacobian_is_one_matvec_of_the_cached_rows(geometries):
    rng = np.random.default_rng(3)
    for spec, geom in geometries.items():
        sh, x = solver._Shooter(geom), geom.grid.x
        d = rng.uniform(0.5, 2.0, x.size)
        kd = geom.far_end_forms * d
        expect = np.stack([kd @ x, kd.sum(axis=1)], axis=1)
        assert np.abs(np.reshape(sh.jacobian(d), (2, 2)) - expect).max() <= 1e-14 * np.abs(expect).max(), spec


def test_two_solves_share_no_writable_array(geometries, monkeypatch):
    # each solve builds a shooter that allocates no array: it reads the
    # geometry's far-end forms, offset and Jacobian rows, which every solve
    # on the geometry shares and which are read-only (a write raises,
    # test_every_shared_array_is_read_only), so no solve can corrupt a later one
    shooters = []
    newton = solver._newton
    monkeypatch.setattr(solver, "_newton", lambda shooter, *rest: shooters.append(shooter) or newton(shooter, *rest))
    f, h = parse_function("exp"), parse_function("id")
    for spec, geom in geometries.items():
        shooters.clear()
        for _ in range(2):
            solve_critical(geom, f, h, HolomorphyPotential(geom, 1.0, 2.0))
        first, second = shooters
        assert first is not second and first.jac_rows is second.jac_rows is geom.jacobian_rows, spec
        cached = (geom.far_end_forms, geom.far_end_offset, geom.jacobian_rows)
        for sh in shooters:
            arrays = [v for v in vars(sh).values() if isinstance(v, np.ndarray)]
            assert len(arrays) == len(cached) and all(any(a is c for c in cached) for a in arrays), spec
            assert not any(a.flags.writeable for a in arrays), spec


@pytest.mark.parametrize("span", [1.0, 2.0])
def test_theta_coefficients_match_numpy_chebmul(span):
    # slope_lo y - y^2 M with y = span (t + 1) / 2, against numpy's products
    cheb = np.polynomial.chebyshev
    rng = np.random.default_rng(int(span))
    y = np.full(2, span / 2.0)
    for size in [1, 2, *range(3, 41)]:
        m = rng.uniform(-1.0, 1.0, size)
        ref = cheb.chebsub(2.0 * y, cheb.chebmul(cheb.chebmul(y, y), m))
        got = _theta_coefficients(m, 2.0, span)
        assert got.size == size + 2
        ref = np.concatenate([ref, np.zeros(got.size - ref.size)])  # chebsub trims trailing zeros
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(m).max() * span ** 2, size


def test_unresolved_scalar_curvature_is_a_named_error(cp1):
    # f = log: s = Re h / psi, and psi vanishes just outside [-1, 1]; the
    # mismatch converges while s spans -33..63 with no decaying tail
    phi = HolomorphyPotential(cp1, 2.0, 3.0)
    with pytest.raises(ConvergenceError, match="scalar curvature not resolved: kept 129 of 129 coefficients") as exc:
        solve_critical(cp1, parse_function("log"), parse_function("pow:2"), phi)
    assert exc.value.trace and exc.value.trace[-1][1] < solver.NEWTON_TOL


def test_fprime_undefined_at_s0_names_fprime_and_s0(cp1):
    # f = log(s - 2): f' = 1/(s - 2) has its pole at s0 = 2, where the
    # projected start evaluates it; the error says so, as no node is involved
    f = parse_function("compaff:1:-2:log")
    with pytest.raises(DomainError, match=r"f' = scaled:1:compaff:1:-2:pow:-1 at the start s0 = 2\.0") as exc:
        solve_critical(cp1, f, parse_function("id"), HolomorphyPotential(cp1, 1.0, 2.0))
    assert exc.value.node is None and exc.value.value == 0.0


@pytest.mark.parametrize("f", ["log", "scaled:-1:log", "compaff:1:-1:log"])
def test_inadmissible_newton_profile_carries_the_trace(geometries, f):
    # h = pow:-2 at phi = 5x + 0.1: Newton converges to a profile with
    # Theta < 0 inside; the solver refuses it with its own trace
    geom = geometries["cpm:3"]
    with pytest.raises(AdmissibilityError, match="interior positivity") as exc:
        solve_critical(geom, parse_function(f), parse_function("pow:-2"), HolomorphyPotential(geom, 5.0, 0.1))
    assert exc.value.trace and exc.value.trace[-1][1] < solver.NEWTON_TOL


@pytest.mark.parametrize("f, h", [("scaled:0.5:pow:2", "const:1"), ("exp", "id")])
def test_transform_counts(geometries, monkeypatch, f, h):
    # a round-metric solve transforms s (the shooter's chop) and psi (the
    # quadratic form), not Theta; a memoised round profile's s transforms nothing
    calls = []
    v2c = SpectralGrid.values_to_coefficients

    def counted(grid, values):
        calls.append(grid.n)
        return v2c(grid, values)

    monkeypatch.setattr(SpectralGrid, "values_to_coefficients", counted)
    for spec, geom in geometries.items():
        calls.clear()
        res = solve_critical(geom, parse_function(f), parse_function(h), HolomorphyPotential(geom, 1.0, 2.0))
        assert res.iterations == 0 and len(calls) == 2, spec
        round_profile(geom).s
        calls.clear()
        round_profile(geom).s
        assert calls == [], spec


# f with f'(s) = s^-p, p = 1..3
MANUFACTURED_F = {1: "log", 2: "scaled:-1:pow:-1", 3: "scaled:-0.5:pow:-2"}


def _manufactured_problem(geom, rng, p, sign):
    """A critical metric chosen first: Theta* = round + B q with q a random
    quadratic (coefficients in +-0.1), s* its scalar curvature, psi* =
    alpha* x + beta* with beta* of the given sign, and h(t) = psi*(t) s*(t)^p
    as a right-nested sum of scaled:c:pow:j terms.  At the default target
    phi = x, so f'(s*) h(phi) = psi*: Theta* is critical with pair
    (alpha*, beta*).  s* is a polynomial: with y = x - x_lo and
    Theta* - round = y^2 r(y), (w Theta)'' = A - w s gives
    s* = s0 - sum_j r_j (j + k + 1)(j + k + 2) y^j.  A draw whose s* is not
    positive on [x_lo, x_hi] is not a problem for this f; the next draw is
    taken (none is at the seeds used)."""
    P = np.polynomial.Polynomial
    lo, hi, k = geom.grid.lo, geom.grid.hi, geom.k
    s0 = geom.constants.s0
    y_of_x, x_of_y = P([-lo, 1.0]), P([lo, 1.0])
    while True:
        q = P(rng.uniform(-0.1, 0.1, 3))
        r = (P([hi - lo, -1.0]) ** 2 * q(x_of_y)).coef
        j = np.arange(r.size)
        s_star = (s0 - P(r * (j + k + 1) * (j + k + 2)))(y_of_x)
        if s_star(np.linspace(lo, hi, 1001)).min() > 0:
            break
    psi_star = P([sign * rng.uniform(1.5, 2.5), rng.uniform(-0.5, 0.5)])
    h_coef = (psi_star * s_star ** p).coef
    h = scaled(h_coef[-1], power(h_coef.size - 1))
    for jj in range(h_coef.size - 2, -1, -1):
        h = fsum(scaled(h_coef[jj], power(jj)), h)
    x = geom.grid.x
    theta = round_profile(geom).theta.values + bump_factor(geom) * q(x)
    return parse_function(MANUFACTURED_F[p]), h, theta, psi_star.coef


@pytest.mark.parametrize("sign", [1, -1], ids=["psi>0", "psi<0"])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("n", [129, 1025])
@pytest.mark.parametrize("geometry", ["cp1", "cpm:2", "cpm:3", "cpm:4"])
def test_manufactured_critical_metrics(geometry, n, p, sign):
    # the answer is chosen first and the problem built from it, so the solve
    # is checked against a metric that is not round (method of manufactured
    # solutions); s* > 0 puts s0 and s* on the same branch of f' = s^-p
    m = 1 if geometry == "cp1" else int(geometry.split(":")[1])
    geom = make_cp1_geometry(n) if m == 1 else make_cpm_geometry(m, n)
    rng = np.random.default_rng([m, n, p, sign + 1])
    f, h, theta, (beta_star, alpha_star) = _manufactured_problem(geom, rng, p, sign)
    res = solve_critical(geom, f, h, normalize_potential(geom))
    assert res.el_report.is_critical
    scale = abs(alpha_star) + abs(beta_star)
    assert abs(res.alpha - alpha_star) <= 1e-12 * scale and abs(res.beta - beta_star) <= 1e-12 * scale
    assert np.abs(res.profile.theta.values - theta).max() <= 1e-12


@pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("geometry", ["cp1", "cpm:3"])
def test_manufactured_solve_is_invariant_under_scaling_h(geometries, geometry, c):
    # f' = 1/s and c h: the critical metric is Theta* again, with pair
    # c (alpha*, beta*).  Newton's pointwise stop reads d F, which is in
    # units of s and does not scale, against a rounding floor eps |d| (|g| +
    # |alpha x| + |beta|), which does not scale either; a floor that grew
    # as c or 1/c would stop Newton early at one end or the other
    geom = geometries[geometry]
    rng = np.random.default_rng([1, 129, 1, 2])
    f, h, theta, (beta_star, alpha_star) = _manufactured_problem(geom, rng, 1, 1)
    res = solve_critical(geom, f, scaled(c, h), normalize_potential(geom))
    scale = c * (abs(alpha_star) + abs(beta_star))
    assert abs(res.alpha - c * alpha_star) <= 1e-12 * scale and abs(res.beta - c * beta_star) <= 1e-12 * scale
    assert np.abs(res.profile.theta.values - theta).max() <= 1e-12


def test_newton_step_through_a_zero_of_fprime_is_not_halved():
    # f' = s is monotone through its zero, so a step on which f' changes
    # sign with its monotonicity stays on the branch.  Theta* = (1 - x^2) +
    # (1 - x^2)^2 (0.3 + 0.1 x) has s* = c (x - x0)(x - x1)(x - x2) with
    # only x0 in (-1, 1), so s* < 0 on (x0, 1]; with psi* = c (x - x0) and
    # h = psi* / s* = 1 / ((t - x1)(t - x2)) in partial fractions, Theta* is
    # critical, and Newton, linear in s here, reaches it in one full step
    P = np.polynomial.Polynomial
    one = P([1.0, 0.0, -1.0])
    theta_star = one + one ** 2 * P([0.3, 0.1])
    s_star = -theta_star.deriv(2)
    c = s_star.coef[-1]
    x0, x1, x2 = sorted(s_star.roots().real, reverse=True)
    assert -1.0 < x0 < 1.0 and x1 < -1.0 and x2 < -1.0
    h = fsum(scaled(1.0 / (x1 - x2), composed_with_affine(power(-1), 1.0, -x1)),
             scaled(-1.0 / (x1 - x2), composed_with_affine(power(-1), 1.0, -x2)))
    geom = make_cp1_geometry(129)
    res = solve_critical(geom, parse_function("scaled:0.5:pow:2"), h, normalize_potential(geom))
    assert res.iterations == 1
    assert abs(res.alpha - c) <= 1e-14 * abs(c) and abs(res.beta + c * x0) <= 1e-14 * abs(c)
    assert np.abs(res.profile.theta.values - theta_star(geom.grid.x)).max() <= 1e-14
    assert res.profile.s.values.min() < -1.0


@pytest.mark.parametrize("p, seed", [(2, 3), (3, 2)], ids=["s^-2", "s^-3"])
def test_newton_step_across_a_pole_of_fprime_is_halved(p, seed):
    # f' = s^-p has a pole at 0.  For p = 2, f'' = -2 s^-3 changes sign
    # there; for p = 3, f'' = -3 s^-4 keeps its sign, and f' changing sign
    # against its monotonicity marks the crossing.  On these draws the
    # first full Newton step takes s below 0 at some nodes, onto another
    # branch of f'; the step is halved instead, and the solve finds Theta*.
    # The branch test reads signs only, so it decides the same for c h,
    # whose answer is Theta* with pair c (alpha*, beta*)
    geom = make_cp1_geometry(129)
    rng = np.random.default_rng([1, 129, p, 0, seed])
    f, h, theta, (beta_star, alpha_star) = _manufactured_problem(geom, rng, p, -1)
    x, s = geom.grid.x, np.full(geom.grid.n, geom.constants.s0)
    hr = h(x).real
    fprime, sh = f.derivative(), solver._Shooter(geom)
    alpha, beta = geom.affine_projector.coefficients(fprime(s[:1])[0] * hr)
    d = 1.0 / (hr * fprime.derivative()(s))
    d_f = d * (hr * fprime(s) - (alpha * x + beta))
    da, db = np.linalg.solve(np.reshape(sh.jacobian(d), (2, 2)), sh.mismatch(s - d_f))
    assert (s - d * (da * x + db) - d_f).min() < 0  # the full step crosses the pole
    for c in (1.0, 1e-8):
        res = solve_critical(geom, f, scaled(c, h), normalize_potential(geom))
        scale = c * (abs(alpha_star) + abs(beta_star))
        assert abs(res.alpha - c * alpha_star) <= 1e-12 * scale and abs(res.beta - c * beta_star) <= 1e-12 * scale
        assert np.abs(res.profile.theta.values - theta).max() <= 1e-12
        assert res.profile.s.values.min() > 0
