import os
import subprocess
import sys

import numpy as np
import pytest

from calabilab import (
    ConvergenceError,
    DeformationPath,
    HolomorphyPotential,
    MetricProfile,
    RangeError,
    SampledFunction,
    SingularPotential,
    delta_S_analytic,
    holomorphy_defect,
    el_potential,
    affine_projection,
    class_constants,
    iterate,
    make_cp1_geometry,
    make_cpm_geometry,
    normalize_potential,
    parse_function,
    random_admissible_profile,
    round_profile,
    solve_critical,
    validate,
)
from calabilab import solver
from calabilab.geometry import bump_factor

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


def test_vanishing_real_part_of_h_is_singular(cp1):
    # |h| = 0.5 everywhere, but the inversion of f' divides by Re h = 0
    with pytest.raises(SingularPotential, match="Re h"):
        solve_critical(cp1, parse_function("pow:2"), parse_function("const:0.5j"), normalize_potential(cp1))


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
    s0 = class_constants(geom).s0
    assert res.status == "every_metric_critical"
    assert abs(res.alpha) < 1e-12 and abs(res.beta - s0) < 1e-12 * s0


def test_range_error_when_target_leaves_range(cp1):
    phi = HolomorphyPotential(cp1, 1.0, 2.0)
    with pytest.raises(RangeError):
        solve_critical(cp1, parse_function("exp"), parse_function("const:-1"), phi)


def test_metric_independent_nonaffine_has_no_solution(cp1):
    phi = HolomorphyPotential(cp1, 1.0, 2.0)
    with pytest.raises(ConvergenceError):
        solve_critical(cp1, parse_function("id"), parse_function("pow:2"), phi)


def _affine_init(psi, geom):
    alpha, beta, _ = affine_projection(psi.values, geom.weight.values, geom.grid)
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


def test_solve_nonlinear_from_random_profile_init(cp1):
    phi = HolomorphyPotential(cp1, 1.0, 2.0)
    f, h = parse_function("exp"), parse_function("id")
    direct = solve_critical(cp1, f, h, phi)
    init = _affine_init(el_potential(random_admissible_profile(cp1, 17, 0.05), f, h, phi), cp1)
    res = solve_critical(cp1, f, h, phi, init=init)
    assert np.abs(res.profile.theta.values - direct.profile.theta.values).max() < 1e-10
    # at amplitude 0.1 the fitted alpha x + beta is negative at x = -1,
    # outside the range of exp: a named failure, not a wrong answer
    init = _affine_init(el_potential(random_admissible_profile(cp1, 17, 0.1), f, h, phi), cp1)
    with pytest.raises(RangeError):
        solve_critical(cp1, f, h, phi, init=init)


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
        assert validate(res.profile) == [], n
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


def test_iterate_exponential_runs_deterministic_steps(cp1):
    phi = HolomorphyPotential(cp1, 1.0, 2.0)
    t1 = iterate(cp1, parse_function("exp"), parse_function("id"), phi, 4)
    t2 = iterate(cp1, parse_function("exp"), parse_function("id"), phi, 4)
    assert t1.degenerate_direction
    assert len(t1.steps) >= 2
    assert all(s.status in ("continued", "converged") for s in t1.steps)
    assert [(s.alpha, s.beta) for s in t1.steps] == [(s.alpha, s.beta) for s in t2.steps]


def test_iterate_records_failure_step(cp1):
    phi = normalize_potential(cp1)  # singular for h = id
    trace = iterate(cp1, parse_function("exp"), parse_function("id"), phi, 4)
    assert trace.steps[-1].status == "failed"
    assert trace.final_status == "failed"


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
    assert abs(float(grid.d1[0] @ theta) - 2.0) < 1e-8
    assert abs(float(grid.d1[-1] @ theta) + 2.0) < 1e-8
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
