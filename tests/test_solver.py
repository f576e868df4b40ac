import os
import subprocess
import sys
import warnings

import numpy as np
import numpy.polynomial.chebyshev as C
import pytest

from calabilab import (
    AffineProjector,
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
    class_constants,
    iterate,
    make_cp1_geometry,
    make_cpm_geometry,
    normalize_potential,
    parse_function,
    random_admissible_profile,
    round_profile,
    solve_critical,
)
from calabilab import solver
from calabilab.geometry import bump_factor
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


def test_range_error_when_target_leaves_range(cp1):
    # psi = -e^s is affine at the Fubini-Study metric, psi = -e^(s0), and
    # the projected start psi_0 = f'(s0) h finds it at once
    phi = HolomorphyPotential(cp1, 1.0, 2.0)
    f, h = parse_function("exp"), parse_function("const:-1")
    res = solve_critical(cp1, f, h, phi)
    assert abs(res.beta + E2) < 1e-14 * E2 and abs(res.alpha) < 1e-14
    assert np.abs(res.profile.theta.values - (1.0 - cp1.grid.x ** 2)).max() < 1.3e-15
    # started at psi = e^2 > 0, the target psi / h = -e^2 leaves the range of exp
    with pytest.raises(RangeError, match="x=-1.0"):
        solve_critical(cp1, f, h, phi, init=(0.0, E2))


def test_unsettled_inversion_names_its_node(cp1):
    # f' = 3 s^2 has no closed-form inverse, and the target psi / h of the
    # inversion reaches -0.0132 at x = 1, below the range of 3 s^2: Newton
    # settles everywhere but there
    phi = HolomorphyPotential(cp1, 0.5, 1.05)
    with pytest.raises(RangeError, match=r"did not converge in 50 steps at node x=1\.0 \(target -0\.0131"):
        solve_critical(cp1, parse_function("pow:3"), parse_function("pow:-2"), phi)


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
        assert abs(solver._singular_value_ratio(m) - sv[1] / sv[0]) <= 2e-15
    assert solver._singular_value_ratio(np.zeros((2, 2))) == 0.0


@pytest.mark.parametrize("r", [1e-14, 3e-13, 8e-13, 1.25e-12, 3e-12, 1e-11])
def test_singular_value_ratio_near_the_rank_threshold(r):
    # sigma_min / sigma_max = r up to the roundoff of building m, which
    # stays far below the distance of every r from the threshold 1e-12
    rng = np.random.default_rng(int(r * 1e16))
    for _ in range(50):
        t1, t2 = rng.uniform(0.0, 2.0 * np.pi, 2)
        m = _rotation(t1) @ np.diag([1.0, r]) @ _rotation(t2) * 10.0 ** rng.uniform(-3, 3)
        sv = np.linalg.svd(m, compute_uv=False)
        ratio = solver._singular_value_ratio(m)
        assert abs(ratio - sv[1] / sv[0]) <= 2e-15
        assert (ratio <= solver.RANK_TOL) == (sv[1] <= 1e-12 * sv[0]) == (r <= 1e-12)


def _newton_on_scaled_s(geom, c, ds):
    """Newton for s = c (alpha x + beta): J = c K [x 1], solution (0, s0 / c)
    on the round profile."""
    x = geom.grid.x
    s0 = class_constants(geom).s0
    return solver._newton(solver._Shooter(geom), lambda ab: c * (ab[0] * x + ab[1]),
                          lambda s: ds, (0.5 / c, s0 / c))


def test_zero_jacobian_is_rank_deficient(cp1):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="rank-deficient"):
            _newton_on_scaled_s(cp1, 1.0, 0.0)


@pytest.mark.parametrize("c", [1e150, 1e-150])
@pytest.mark.parametrize("make", [make_cp1_geometry, lambda: make_cpm_geometry(3)])
def test_scaled_jacobian_is_not_refused(make, c):
    geom = make()
    s0 = class_constants(geom).s0
    ab, s, _, _ = _newton_on_scaled_s(geom, c, c)
    assert abs(ab[0]) * c < 1e-9 and abs(ab[1] * c - s0) < 1e-9 * s0
    assert np.abs(s - s0).max() < 1e-9 * s0
    jac = np.array([[0.3, -1.7], [2.2, 0.9]])
    assert abs(solver._singular_value_ratio(jac * c) - solver._singular_value_ratio(jac)) < 1e-15


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
    for spec, geom in geometries.items():
        res = solve_critical(geom, parse_function("exp"), parse_function(h), HolomorphyPotential(geom, 1.0, 2.0))
        assert len(res.residual_trace) <= 5, spec  # 7 from (0, f'(s0))
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
        s0 = class_constants(geom).s0
        hr = np.ones(geom.grid.n)
        alpha, beta = geom.affine_projector.coefficients(s0 * hr)
        assert abs(alpha) < 1e-13 * s0 and abs(beta - s0) < 1e-14 * s0, spec


def test_overflowing_second_derivative_is_a_named_error(cp1):
    # f = log, h = exp, phi = 5x + 0.1: Newton drives psi to 1e208, where
    # f''(s) = -1/s^2 overflows; that is a ConvergenceError naming the
    # node, not a RuntimeWarning followed by a rank verdict
    phi = HolomorphyPotential(cp1, 5.0, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match=r"Jacobian is not finite at node x=-1\.0") as exc:
            solve_critical(cp1, parse_function("log"), parse_function("exp"), phi)
    assert exc.value.trace


def test_vanishing_second_derivative_is_a_named_error(cp1):
    # f = pow:3 with s = 0 at every node: f'' = 6s = 0, so ds/dpsi is infinite
    x = cp1.grid.x
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="not finite at node"):
            solver._newton(solver._shooter(cp1), lambda ab: 0.0 * x, lambda s: 1.0 / (6.0 * s), (0.0, 0.0))


def test_geometry_forms_are_built_once(geometries):
    for spec, geom in geometries.items():
        assert solver._shooter(geom) is solver._shooter(geom), spec
        assert geom.affine_projector is geom.affine_projector, spec
        assert class_constants(geom) is class_constants(geom), spec
        # the cached projector answers exactly as a fresh projection does
        psi = np.exp(geom.grid.x)
        assert geom.affine_projector.project(psi) == AffineProjector(geom.weight.values, geom.grid).project(psi)


def test_jacobian_is_one_matvec_of_the_cached_rows(geometries):
    rng = np.random.default_rng(3)
    for spec, geom in geometries.items():
        sh, x = solver._shooter(geom), geom.grid.x
        d = rng.uniform(0.5, 2.0, x.size)
        kd = sh.k * d
        expect = np.stack([kd @ x, kd.sum(axis=1)], axis=1)
        assert np.abs(sh.jacobian(d) - expect).max() <= 1e-14 * np.abs(expect).max(), spec


@pytest.mark.parametrize("span", [1.0, 2.0])
def test_theta_coefficients_match_numpy_chebmul(span):
    # slope_lo y - y^2 M with y = span (t + 1) / 2, against numpy's products
    cheb = np.polynomial.chebyshev
    rng = np.random.default_rng(int(span))
    y = np.full(2, span / 2.0)
    for size in [1, 2, *range(3, 41)]:
        m = rng.uniform(-1.0, 1.0, size)
        ref = cheb.chebsub(2.0 * y, cheb.chebmul(cheb.chebmul(y, y), m))
        got = solver._theta_coefficients(m, 2.0, span)
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
