import numpy as np
import pytest

from calabilab import (
    HolomorphyPotential,
    NonFiniteError,
    SampledFunction,
    el_potential,
    equivariant_integral,
    eval_S,
    futaki,
    holomorphy_defect,
    lichnerowicz,
    make_cpm_geometry,
    normalize_potential,
    parse_function,
    quadratic_form,
    quadratic_form_matrix,
    random_admissible_profile,
    round_profile,
)


def test_normalize_potential_hits_target(cp1):
    grid = cp1.grid
    for target in (0.0, 1.0, 8.0 * np.pi):
        phi = normalize_potential(cp1, target)
        total = cp1.vol_const * grid.integrate_values(phi.values * cp1.weight.values)
        assert abs(total - target) < 1e-10 * (1.0 + abs(target))
    assert normalize_potential(cp1).shift == 0.0
    geom2 = make_cpm_geometry(2)
    phi2 = normalize_potential(geom2, 3.0)
    total2 = geom2.vol_const * geom2.grid.integrate_values(
        phi2.values * geom2.weight.values
    )
    assert abs(total2 - 3.0) < 1e-10


def test_potential_values_are_computed_once_and_read_only(cp1):
    phi = HolomorphyPotential(cp1, 2.0, 0.5)
    v = phi.values
    assert phi.values is v
    assert not v.flags.writeable
    assert np.array_equal(v, 2.0 * cp1.grid.x + 0.5)
    with pytest.raises(ValueError):
        v[0] = 0.0


def test_eval_S_with_constant_f_is_class_data(cp1, cp1_phi):
    f = parse_function("const:1")
    h = parse_function("exp")
    vals = [
        eval_S(random_admissible_profile(cp1, seed, 0.3), f, h, cp1_phi)
        for seed in range(10)
    ]
    assert max(abs(v - vals[0]) for v in vals) < 1e-10 * (1.0 + abs(vals[0]))


def test_s_phi_integral_is_class_data(cp1, cp1_phi):
    fid = parse_function("id")
    vals = [
        eval_S(random_admissible_profile(cp1, seed, 0.3), fid, fid, cp1_phi)
        for seed in range(10)
    ]
    assert max(abs(v - vals[0]) for v in vals) < 1e-10 * (1.0 + abs(vals[0]))


def test_el_potential_structure(cp1, cp1_round):
    phi = HolomorphyPotential(cp1, 1.0, 2.0)
    psi = el_potential(cp1_round, parse_function("exp"), parse_function("id"), phi)
    # s = 2 on the round profile, so psi = e^2 (x + 2)
    assert np.abs(psi.values - np.exp(2.0) * (cp1.grid.x + 2.0)).max() < 1e-9


def test_holomorphy_defect_tolerates_tiny_noise(cp1, cp1_round):
    grid = cp1.grid
    psi = SampledFunction(grid, 3.0 * grid.x + 1.0 + 1e-12 * np.sin(9.0 * grid.x))
    report = holomorphy_defect(cp1_round, psi)
    assert report.is_critical
    assert abs(report.alpha - 3.0) < 1e-9
    assert abs(report.beta - 1.0) < 1e-9
    bumpy = SampledFunction(grid, grid.x ** 2)
    assert not holomorphy_defect(cp1_round, bumpy).is_critical


def test_defects_vanish_together(cp1, cp1_round):
    grid = cp1.grid
    affine_psi = SampledFunction(grid, -2.0 * grid.x + 0.5)
    report = holomorphy_defect(cp1_round, affine_psi)
    assert report.defect_affine < 1e-10
    assert report.defect_operator < 1e-8
    curved = SampledFunction(grid, grid.x ** 3)
    report2 = holomorphy_defect(cp1_round, curved)
    assert report2.defect_affine > 1e-3
    assert report2.defect_operator > 1e-3


def test_lichnerowicz_annihilates_affine(cp1, cp1_round):
    grid = cp1.grid
    psi = SampledFunction(grid, 5.0 * grid.x - 7.0)
    assert np.abs(lichnerowicz(cp1_round, psi).values).max() < 1e-8


def test_operator_energy_identity_random_pairs(geometries):
    for spec, geom in geometries.items():
        grid = geom.grid
        rng = np.random.default_rng(0)
        for trial in range(20):
            profile = random_admissible_profile(geom, 100 + trial, 0.25)
            psi = SampledFunction(
                grid, np.polynomial.chebyshev.chebval(grid.t, rng.uniform(-1, 1, 8))
            )
            lhs = geom.vol_const * grid.integrate_values(
                psi.values * lichnerowicz(profile, psi).values * geom.weight.values
            )
            rhs = quadratic_form(profile, psi)
            assert abs(lhs - rhs) < 1e-8 * max(abs(rhs), 1.0), (spec, trial)


def test_operator_energy_identity_on_cpm():
    geom = make_cpm_geometry(2)
    grid = geom.grid
    profile = round_profile(geom)
    psi = SampledFunction(grid, grid.x ** 3 - 0.2 * grid.x)
    lhs = geom.vol_const * grid.integrate_values(
        psi.values * lichnerowicz(profile, psi).values * geom.weight.values
    )
    rhs = quadratic_form(profile, psi)
    assert abs(lhs - rhs) < 1e-8 * max(abs(rhs), 1.0)


@pytest.mark.parametrize("geometry", ["cp1", "cpm:2", "cpm:3", "cpm:4"])
def test_quadratic_form_matrix_is_the_integral(geometries, geometry):
    # psi^T Q psi and quadratic_form are one operator: the same second
    # derivative and the same Clenshaw-Curtis sum
    geom = geometries[geometry]
    grid = geom.grid
    assert grid.n == 129
    rng = np.random.default_rng(15)
    profile = random_admissible_profile(geom, 41, 0.2)
    q = quadratic_form_matrix(profile)
    for _ in range(5):
        psi = np.polynomial.chebyshev.chebval(grid.t, rng.uniform(-1, 1, 8))
        integral = quadratic_form(profile, SampledFunction(grid, psi))
        assert abs(psi @ q @ psi - integral) <= 1e-9 * integral


def test_quadratic_form_kernel_is_affine(cp1):
    profile = random_admissible_profile(cp1, 5, 0.2)
    q = quadratic_form_matrix(profile)
    svals = np.linalg.svd(q, compute_uv=False)
    n_kernel = int(np.sum(svals < 1e-8 * svals.max()))
    assert n_kernel == 2
    # the numerical kernel is spanned by {1, x} to 1e-6
    grid = cp1.grid
    _, _, vt = np.linalg.svd(q)
    kernel = vt[-2:].T
    basis = np.stack([np.ones(grid.n), grid.x], axis=1)
    coef, *_ = np.linalg.lstsq(basis, kernel, rcond=None)
    resid = kernel - basis @ coef
    assert np.abs(resid).max() < 1e-6


def test_futaki_vanishes_on_cp1(cp1, cp1_phi):
    for seed in range(10):
        profile = random_admissible_profile(cp1, seed, 0.3)
        assert abs(futaki(profile, cp1_phi)) < 1e-8


def test_futaki_shift_invariance(cp1):
    profile = random_admissible_profile(cp1, 3, 0.3)
    f0 = futaki(profile, HolomorphyPotential(cp1, 1.0, 0.0))
    f1 = futaki(profile, HolomorphyPotential(cp1, 1.0, 17.5))
    assert abs(f0 - f1) < 1e-10


def test_equivariant_integral_examples(cp1, cp1_round, cp1_phi):
    # C_vol * int phi^2 dx on [-1,1] with phi = x: 2*pi * 2/3 = 4*pi/3
    val = equivariant_integral(cp1_round, parse_function("pow:2"), cp1_phi)
    assert abs(val - 4.0 * np.pi / 3.0) < 1e-10
    one = equivariant_integral(cp1_round, parse_function("const:1"), cp1_phi)
    assert abs(one - 4.0 * np.pi) < 1e-10


@pytest.mark.parametrize("m", [2, 3, 4])
def test_equivariant_integral_on_cpm_reads_the_weight(m):
    # w = x^(m-1) on [0, 1] and phi = x + c: C_vol int (x + c)^2 x^(m-1) dx
    # = 2 pi (1/(m+2) + 2c/(m+1) + c^2/m), on the round profile and on a
    # random one, as the integral does not read Theta
    geom = make_cpm_geometry(m)
    c = 0.75
    phi = HolomorphyPotential(geom, 1.0, c)
    exact = 2.0 * np.pi * (1.0 / (m + 2) + 2.0 * c / (m + 1) + c * c / m)
    for profile in (round_profile(geom), random_admissible_profile(geom, 4, 0.2)):
        val = equivariant_integral(profile, parse_function("pow:2"), phi)
        assert abs(val - exact) < 1e-13 * exact, m


def test_overflowing_values_are_named_failures(cp1, cp1_round, cp1_phi):
    # x^-400 overflows at the node next to x = 0, so S is infinite; e^phi
    # with phi = x + 400 is finite near 1e174, but the squares in the EL
    # defects overflow
    with pytest.warns(RuntimeWarning), pytest.raises(NonFiniteError, match=r"non-finite S = .*inf"):
        eval_S(cp1_round, parse_function("id"), parse_function("pow:-400"), cp1_phi)
    phi = HolomorphyPotential(cp1, 1.0, 400.0)
    psi = el_potential(cp1_round, parse_function("exp"), parse_function("exp"), phi)
    with pytest.warns(RuntimeWarning), pytest.raises(NonFiniteError, match="non-finite EL defects: defect_affine inf"):
        holomorphy_defect(cp1_round, psi)
    # 1e153 x^6: the affine residual squares to 1e305, but psi'' = 3e154 x^4
    # does not square, so defect_operator alone is not finite
    psi = SampledFunction(cp1.grid, 1e153 * cp1.grid.x ** 6)
    with pytest.warns(RuntimeWarning), pytest.raises(NonFiniteError, match=r"defect_affine 8\.\d+e\+152, defect_operator"):
        holomorphy_defect(cp1_round, psi)
    with pytest.raises(NonFiniteError, match="non-finite sample values"):
        SampledFunction(cp1.grid, np.full(cp1.grid.n, np.inf))
