import numpy as np
import pytest

from calabilab import (
    AdmissibilityError,
    MetricProfile,
    ProfileGeometry,
    SampledFunction,
    class_constants,
    el_potential,
    eval_S,
    futaki,
    get_grid,
    lichnerowicz,
    make_cp1_geometry,
    make_cpm_geometry,
    normalize_potential,
    parse_function,
    random_admissible_profile,
    round_profile,
    scalar_curvature,
    validate,
)

FOUR_PI = 4.0 * np.pi
EIGHT_PI = 8.0 * np.pi


def test_cp1_class_constants(cp1):
    consts = class_constants(cp1)
    assert abs(consts.total_volume - FOUR_PI) < 1e-10
    assert abs(consts.total_scalar - EIGHT_PI) < 1e-10
    assert abs(consts.s0 - 2.0) < 1e-12


def test_round_cp1_scalar_curvature_constant(cp1, cp1_round):
    s = scalar_curvature(cp1_round).values
    assert abs(s.mean() - 2.0) < 1e-12
    assert s.std() < 1e-10


def test_total_scalar_matches_quadrature_over_random_profiles(cp1):
    for seed in range(20):
        profile = random_admissible_profile(cp1, seed, 0.3)
        s = scalar_curvature(profile).values
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
    s_combo = scalar_curvature(combo).values
    s_lin = (
        scalar_curvature(p1).values
        + scalar_curvature(p2).values
        - scalar_curvature(base).values
    )
    assert np.abs(s_combo - s_lin).max() < 1e-10 * max(np.abs(s_lin).max(), 1.0)


def test_validate_flags_each_invariant(cp1):
    grid = cp1.grid
    good = round_profile(cp1)
    assert validate(good) == []
    shifted = MetricProfile(cp1, SampledFunction(grid, good.theta.values + 1e-3))
    names = {v.invariant for v in validate(shifted)}
    assert "endpoint value" in names
    wrong_slope = MetricProfile(
        cp1, SampledFunction(grid, 0.9 * good.theta.values)
    )
    names = {v.invariant for v in validate(wrong_slope)}
    assert "boundary slope" in names
    negative = MetricProfile(cp1, SampledFunction(grid, -good.theta.values))
    names = {v.invariant for v in validate(negative)}
    assert "interior positivity" in names


def test_scalar_curvature_requires_admissible(cp1):
    bad = MetricProfile(cp1, SampledFunction(cp1.grid, 0.5 * round_profile(cp1).theta.values))
    # a failed evaluation is not cached: every read raises again
    for _ in range(3):
        with pytest.raises(AdmissibilityError):
            scalar_curvature(bad)
        with pytest.raises(AdmissibilityError):
            eval_S(bad, parse_function("id"), parse_function("id"), normalize_potential(cp1))
    assert validate(bad) == list(bad.violations) != []


def test_nondegenerate_weight_division():
    # w = 2 + x > 0 up to both ends, so s and L psi divide by w pointwise:
    # (w Theta)'' = (2 - 2x^2 + x - x^3)'' = -4 - 6x.
    grid = get_grid(65, -1.0, 1.0)
    x = grid.x
    geom = ProfileGeometry(
        x_lo=-1.0,
        x_hi=1.0,
        weight=SampledFunction(grid, 2.0 + x),
        base_term=SampledFunction(grid, np.zeros(grid.n)),
        slope_lo=2.0,
        slope_hi=-2.0,
        dim=1,
        vol_const=2.0 * np.pi,
    )
    profile = MetricProfile(geom, SampledFunction(grid, 1.0 - x * x))
    s = scalar_curvature(profile).values
    assert np.abs(s - (4.0 + 6.0 * x) / (2.0 + x)).max() < 1e-12
    psi = SampledFunction(grid, 3.0 * x - 1.0)
    assert np.abs(lichnerowicz(profile, psi).values).max() < 1e-10


@pytest.mark.parametrize("make", [make_cp1_geometry, lambda: make_cpm_geometry(3)], ids=["cp1", "cpm3"])
def test_scalar_curvature_is_cached_per_profile(make):
    geom = make()
    phi = normalize_potential(geom, 2.0 * class_constants(geom).total_volume)
    f, h = parse_function("exp"), parse_function("pow:2")
    reused = random_admissible_profile(geom, 5, 0.2)
    assert scalar_curvature(reused) is scalar_curvature(reused)
    assert not reused.s.values.flags.writeable
    for _ in range(2):
        fresh = random_admissible_profile(geom, 5, 0.2)
        assert eval_S(reused, f, h, phi) == eval_S(fresh, f, h, phi)
        assert np.array_equal(
            el_potential(reused, f, h, phi).values, el_potential(fresh, f, h, phi).values
        )
        assert futaki(reused, phi) == futaki(fresh, phi)


def test_random_profile_reproducible_and_admissible(cp1):
    a = random_admissible_profile(cp1, 42, 0.3)
    b = random_admissible_profile(cp1, 42, 0.3)
    assert np.array_equal(a.theta.values, b.theta.values)
    c = random_admissible_profile(cp1, 43, 0.3)
    assert not np.array_equal(a.theta.values, c.theta.values)
    assert validate(a) == []
    assert validate(random_admissible_profile(cp1, 7, 5.0)) == []  # amplitude halved


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
    assert np.abs(scalar_curvature(profile).values - s_exact).max() < 1e-11


@pytest.mark.parametrize("m", [2, 3, 4])
def test_cpm_fubini_study_constant_scalar(m):
    geom = make_cpm_geometry(m)
    s = scalar_curvature(round_profile(geom)).values
    assert s.std() < 1e-8
    assert abs(s.mean() - 2.0 * m * (m + 1)) < 1e-8


def test_cpm_random_profiles_keep_class_total(cp1):
    geom = make_cpm_geometry(2)
    consts = class_constants(geom)
    for seed in (1, 2, 3):
        profile = random_admissible_profile(geom, seed, 0.2)
        s = scalar_curvature(profile).values
        total = geom.vol_const * geom.grid.integrate_values(s * geom.weight.values)
        assert abs(total - consts.total_scalar) < 1e-8 * abs(consts.total_scalar)


def test_cpm_requires_m_at_least_two():
    with pytest.raises(ValueError):
        make_cpm_geometry(1)
