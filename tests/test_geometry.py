import dataclasses

import numpy as np
import pytest

from calabilab import (
    AdmissibilityError,
    ConfigError,
    HolomorphyPotential,
    MetricProfile,
    SampledFunction,
    el_potential,
    eval_S,
    futaki,
    make_cp1_geometry,
    make_cpm_geometry,
    normalize_potential,
    parse_function,
    random_admissible_profile,
    round_profile,
    solve_critical,
)
from calabilab.conventions import pin_cpm_base_coefficient
from calabilab.geometry import bump_factor
from calabilab.rng import SplitMix64

FOUR_PI = 4.0 * np.pi
EIGHT_PI = 8.0 * np.pi


@pytest.mark.parametrize("n", [33, 129])
def test_geometry_is_grid_and_k(n):
    """A geometry is (grid, k); the slopes, C_vol, the interval, w and A
    all follow from k, which is m - 1 for CP^m and 0 for CP^1."""
    cases = [(make_cp1_geometry(n), "cp1", 1, -1.0)]
    cases += [(make_cpm_geometry(m, n), "cpm", m, 0.0) for m in (2, 3, 4, 5)]
    for geom, kind, dim, x_lo in cases:
        assert tuple(f.name for f in dataclasses.fields(geom)) == ("grid", "k")
        assert (geom.k == 0, geom.k + 1) == (kind == "cp1", dim)
        assert (geom.slope_lo, geom.slope_hi, geom.vol_const) == (2.0, -2.0, 2.0 * np.pi)
        assert (geom.x_lo, geom.x_hi) == (x_lo, 1.0)
        k, y = geom.k, geom.grid.x - x_lo
        assert np.array_equal(geom.weight.values, y ** k)
        assert np.array_equal(geom.base_term.values, k * (k + 1) * 2.0 * y ** max(k - 1, 0))


def test_cp1_class_constants(cp1):
    consts = cp1.constants
    assert abs(consts.total_volume - FOUR_PI) < 1e-10
    assert abs(consts.total_scalar - EIGHT_PI) < 1e-10
    assert abs(consts.s0 - 2.0) < 1e-12


def test_round_cp1_scalar_curvature_constant(cp1, cp1_round):
    s = cp1_round.s.values
    assert abs(s.mean() - 2.0) < 1e-12
    assert s.std() < 1e-10


def test_total_scalar_matches_quadrature_over_random_profiles(cp1):
    for seed in range(20):
        profile = random_admissible_profile(cp1, seed, 0.3)
        s = profile.s.values
        total = cp1.vol_const * cp1.grid.integrate_values(s * cp1.weight.values)
        assert abs(total - EIGHT_PI) < 1e-9 * EIGHT_PI


def test_scalar_curvature_linear_in_theta(cp1):
    grid = cp1.grid
    p1 = random_admissible_profile(cp1, 11, 0.2)
    p2 = random_admissible_profile(cp1, 12, 0.2)
    base = round_profile(cp1)
    combo = MetricProfile(
        cp1,
        SampledFunction(grid, p1.theta.values + p2.theta.values - base.theta.values),
    )
    s_combo = combo.s.values
    s_lin = (
        p1.s.values
        + p2.s.values
        - base.s.values
    )
    assert np.abs(s_combo - s_lin).max() < 1e-10 * max(np.abs(s_lin).max(), 1.0)


def test_validate_flags_each_invariant(cp1):
    grid = cp1.grid
    good = round_profile(cp1)
    assert good.violations == ()
    shifted = MetricProfile(cp1, SampledFunction(grid, good.theta.values + 1e-3))
    names = {v.invariant for v in shifted.violations}
    assert "endpoint value" in names
    wrong_slope = MetricProfile(
        cp1, SampledFunction(grid, 0.9 * good.theta.values)
    )
    names = {v.invariant for v in wrong_slope.violations}
    assert "boundary slope" in names
    negative = MetricProfile(cp1, SampledFunction(grid, -good.theta.values))
    names = {v.invariant for v in negative.violations}
    assert "interior positivity" in names


def test_scalar_curvature_requires_admissible(cp1):
    bad = MetricProfile(cp1, SampledFunction(cp1.grid, 0.5 * round_profile(cp1).theta.values))
    # a failed evaluation is not cached: every read raises again
    for _ in range(3):
        with pytest.raises(AdmissibilityError):
            bad.s
        with pytest.raises(AdmissibilityError):
            eval_S(bad, parse_function("id"), parse_function("id"), normalize_potential(cp1))
    assert bad.violations != ()


@pytest.mark.parametrize("make", [make_cp1_geometry, lambda: make_cpm_geometry(3)], ids=["cp1", "cpm3"])
def test_scalar_curvature_is_cached_per_profile(make):
    geom = make()
    phi = normalize_potential(geom, 2.0 * geom.constants.total_volume)
    f, h = parse_function("exp"), parse_function("pow:2")
    reused = random_admissible_profile(geom, 5, 0.2)
    assert reused.s is reused.s
    assert not reused.s.values.flags.writeable
    for _ in range(2):
        fresh = random_admissible_profile(geom, 5, 0.2)
        assert eval_S(reused, f, h, phi) == eval_S(fresh, f, h, phi)
        assert np.array_equal(
            el_potential(reused, f, h, phi).values, el_potential(fresh, f, h, phi).values
        )
        assert futaki(reused, phi) == futaki(fresh, phi)


def test_round_profile_is_one_read_only_object_per_geometry(geometries):
    for spec, geom in geometries.items():
        base = round_profile(geom)
        assert round_profile(geom) is base, spec
        twin = make_cp1_geometry() if geom.k == 0 else make_cpm_geometry(geom.k + 1)
        assert round_profile(twin) is base, spec  # an equal geometry: same grid and k
        x = geom.grid.x
        expect = 1.0 - x * x if geom.k == 0 else 2.0 * x * (1.0 - x)
        assert np.array_equal(base.theta.values, expect), spec
        for arr in (base.theta.values, base.theta_coeffs, base.r_coeffs, base.s.values):
            assert not arr.flags.writeable, spec
            with pytest.raises(ValueError):
                arr[0] = 0.5
        assert base.s is round_profile(geom).s, spec


def test_cached_chopped_coefficients_are_read_only(geometries):
    # chop_coefficients returns a slice, not a copy, so every cache of its
    # result is read-only: theta_coeffs chopped from the values (round and
    # random profiles) and those a solved profile keeps (with_coefficients)
    calabi, one = parse_function("scaled:0.5:pow:2"), parse_function("const:1")
    for spec, geom in geometries.items():
        solved = solve_critical(geom, calabi, one, normalize_potential(geom)).profile
        for profile in (round_profile(geom), random_admissible_profile(geom, 3, 0.1), solved):
            coeffs = profile.theta_coeffs
            assert not coeffs.flags.writeable, spec
            with pytest.raises(ValueError):
                coeffs[0] = 0.5


def test_random_profile_is_round_plus_bump_times_splitmix_series(geometries):
    # round_profile's cached Theta is read, not changed: theta0 + B q
    for spec, geom in geometries.items():
        rng = SplitMix64(9)
        q = geom.grid.coefficients_to_values(np.array([rng.uniform(-0.1, 0.1) for _ in range(7)]))
        x = geom.grid.x
        round_theta = 1.0 - x * x if geom.k == 0 else 2.0 * x * (1.0 - x)
        got = random_admissible_profile(geom, 9, 0.1).theta.values
        assert np.array_equal(got, round_theta + bump_factor(geom) * q), spec
        assert got.flags.writeable and round_profile(geom).theta.values is not got, spec
        assert random_admissible_profile(geom, 9, 0.0) is round_profile(geom), spec


def test_random_profile_reproducible_and_admissible(cp1):
    a = random_admissible_profile(cp1, 42, 0.3)
    b = random_admissible_profile(cp1, 42, 0.3)
    assert np.array_equal(a.theta.values, b.theta.values)
    c = random_admissible_profile(cp1, 43, 0.3)
    assert not np.array_equal(a.theta.values, c.theta.values)
    assert a.violations == ()
    assert random_admissible_profile(cp1, 7, 5.0).violations == ()  # amplitude halved


def test_scalar_curvature_against_polynomial_oracle(cp1):
    # Theta = 1 - x^2 + eps x (1 - x^2)^2: admissible, s = -Theta''
    # computed symbolically.
    grid = cp1.grid
    x = grid.x
    eps = 0.05
    theta = 1.0 - x * x + eps * x * (1.0 - x * x) ** 2
    poly = np.polynomial.polynomial.Polynomial([1.0, eps, -1.0, -2.0 * eps, 0.0, eps])
    s_exact = -poly.deriv(2)(x)
    profile = MetricProfile(cp1, SampledFunction(grid, theta))
    assert np.abs(profile.s.values - s_exact).max() < 1e-11


def _polynomial_profile(geom):
    """An admissible polynomial profile in y = x - x_lo: the round profile
    plus a bump that keeps the endpoint values and slopes."""
    grid = geom.grid
    y = np.polynomial.Polynomial([-grid.lo, 1.0])
    theta = 2.0 * y * (1.0 - y / grid.span) + 0.05 * y ** 2 * (grid.span - y) ** 2 * (1.0 + 0.5 * y)
    return y, theta, MetricProfile(geom, SampledFunction(grid, theta(grid.x)))


@pytest.mark.parametrize("spec", ["cp1", "cpm:2", "cpm:3", "cpm:4"])
def test_r_coeffs_is_theta_over_y(geometries, spec):
    geom = geometries[spec]
    y, theta, profile = _polynomial_profile(geom)
    r_exact, rem = divmod(theta, y)
    assert np.abs(rem.coef).max() < 1e-15
    r = geom.grid.coefficients_to_values(profile.r_coeffs)
    assert np.abs(r - r_exact(geom.grid.x)).max() < 1e-14


@pytest.mark.parametrize("j", [1, 2])
@pytest.mark.parametrize("spec", ["cp1", "cpm:2", "cpm:3", "cpm:4"])
def test_weighted_derivative_against_polynomial_oracle(geometries, spec, j):
    # (w Theta^j g)^(j) / w with w = y^k, divided exactly in polynomial
    # arithmetic, for a complex polynomial g
    geom = geometries[spec]
    x = geom.grid.x
    y, theta, profile = _polynomial_profile(geom)
    g = np.polynomial.Polynomial([0.3, -1.0, 0.5, 0.2]) + 1j * np.polynomial.Polynomial([0.1, 0.2, 0.0, -0.4])
    exact, rem = divmod((y ** geom.k * theta ** j * g).deriv(j), y ** geom.k)
    assert np.abs(rem.coef).max() < 1e-12
    expect = exact(x)
    assert np.abs(profile.weighted_derivative(g(x), j) - expect).max() < 1e-12 * np.abs(expect).max()


@pytest.mark.parametrize("m", [2, 3, 4])
def test_cpm_fubini_study_constant_scalar(m):
    geom = make_cpm_geometry(m)
    s = round_profile(geom).s.values
    assert s.std() < 1e-8
    assert abs(s.mean() - 2.0 * m * (m + 1)) < 1e-8
    # the base-term coefficient the family derives is the one the
    # Fubini-Study constancy oracle pins
    k = geom.k
    assert abs(pin_cpm_base_coefficient(m)[0] - k * (k + 1) * geom.slope_lo) < 1e-10


@pytest.mark.parametrize("n", [33, 65, 129, 257, 513, 1025, 2049])
def test_large_n_oracles(n):
    """Fubini-Study constancy, Gauss-Bonnet and the exp|id solves on cp1 and
    cpm:2..4 hold to 1e-10 of their scale at every N (the roundoff plateau
    of the transform stays below the chop threshold)."""
    f_id, h_one = parse_function("id"), parse_function("const:1")
    for geom in [make_cp1_geometry(n)] + [make_cpm_geometry(m, n) for m in (2, 3, 4)]:
        m = geom.k + 1
        s0 = 2.0 if m == 1 else 2.0 * m * (m + 1)
        s = round_profile(geom).s.values
        assert np.abs(s - s0).max() <= 1e-10 * s0, geom.k
        total = FOUR_PI * (m + 1)
        S = eval_S(random_admissible_profile(geom, 1, 0.3), f_id, h_one, normalize_potential(geom))
        assert abs(S - total) <= 1e-10 * total, geom.k
    cp1 = make_cp1_geometry(n)
    res = solve_critical(cp1, parse_function("exp"), parse_function("id"), HolomorphyPotential(cp1, 1.0, 2.0))
    assert res.el_report.is_critical
    assert res.el_report.defect_affine <= 1e-10 * abs(res.beta)
    # cpm: the critical metric of exp|id is Fubini-Study for every shift, and
    # violations must read its boundary slopes within BOUNDARY_TOL at every N
    for m in (2, 3, 4):
        geom = make_cpm_geometry(m, n)
        x = geom.grid.x
        for shift in np.linspace(2.0, 3.0, 9):
            res = solve_critical(geom, parse_function("exp"), parse_function("id"), HolomorphyPotential(geom, 1.0, shift))
            assert not res.profile.violations, (m, shift)
            assert np.abs(res.profile.theta.values - 2.0 * x * (1.0 - x)).max() <= 1e-10, (m, shift)


def test_cpm_random_profiles_keep_class_total(cp1):
    geom = make_cpm_geometry(2)
    consts = geom.constants
    for seed in (1, 2, 3):
        profile = random_admissible_profile(geom, seed, 0.2)
        s = profile.s.values
        total = geom.vol_const * geom.grid.integrate_values(s * geom.weight.values)
        assert abs(total - consts.total_scalar) < 1e-8 * abs(consts.total_scalar)


def test_cpm_requires_m_at_least_two():
    with pytest.raises(ConfigError, match="got m = 1"):
        make_cpm_geometry(1)


def test_bad_parameters_are_config_errors_where_they_are_used(cp1):
    # the library checks each outside parameter once; the CLI maps the
    # ConfigError to exit 2
    with pytest.raises(ConfigError, match="at least 8, got 4"):
        make_cp1_geometry(4)
    with pytest.raises(ConfigError, match="got -0.5"):
        random_admissible_profile(cp1, 1, -0.5)
