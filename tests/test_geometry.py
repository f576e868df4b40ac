import dataclasses

import numpy as np
import pytest

from calabilab import (
    AdmissibilityError,
    ConfigError,
    DeformationPath,
    HolomorphyPotential,
    MetricProfile,
    ProfileGeometry,
    SampledFunction,
    el_potential,
    eval_S,
    futaki,
    get_grid,
    make_cp1_geometry,
    make_cpm_geometry,
    normalize_potential,
    parse_function,
    random_admissible_profile,
    round_profile,
    solve_critical,
    transport,
)
from calabilab.conventions import build_manifest, pin_cpm_base_coefficient
from calabilab import geometry
from calabilab.geometry import _theta_coefficients, bump_factor
from calabilab.rng import SplitMix64
from calabilab.spectral import (
    DENSE_NODES,
    ChebyshevBasis,
    chop_coefficients,
    curvature_table,
    profile_table,
    solve_euler,
)

FOUR_PI = 4.0 * np.pi
EIGHT_PI = 8.0 * np.pi
EPS = np.finfo(float).eps


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
        assert (geom.grid.lo, geom.grid.hi) == (x_lo, 1.0)
        k, y = geom.k, geom.grid.x - x_lo
        assert np.array_equal(geom.weight.values, y ** k)
        assert np.array_equal(geom.base_term.values, k * (k + 1) * 2.0 * y ** max(k - 1, 0))
    # w and A are powers of the distance to the left end, wherever it is
    geom = ProfileGeometry(get_grid(n, 2.0, 5.0), 2)
    y = geom.grid.x - 2.0
    assert np.array_equal(geom.weight.values, y ** 2)
    assert np.array_equal(geom.base_term.values, 12.0 * y)


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
    # a shift or a tilt moves both ends at once; each cubic below moves one
    # end's value or slope by 1e-3 and keeps the other three boundary data,
    # so each of the four checks is seen alone
    x, e = grid.x, 1e-3
    for bump, invariant, location in (
        (e * (1 - x) ** 2 * (2 + x) / 4, "endpoint value", -1.0),
        (e * (1 + x) ** 2 * (2 - x) / 4, "endpoint value", 1.0),
        (e * (x + 1) * (1 - x) ** 2 / 4, "boundary slope", -1.0),
        (e * (x - 1) * (1 + x) ** 2 / 4, "boundary slope", 1.0),
    ):
        (v,) = MetricProfile(cp1, SampledFunction(grid, good.theta.values + bump)).violations
        assert (v.invariant, v.location) == (invariant, location)
        assert v.magnitude == pytest.approx(e, rel=1e-9)
    # the interior check reports the node of the minimum and its depth, next
    # to either end too; a zero inside is a violation of depth 0
    n = grid.n
    for dips, node, depth in (({40: -0.5, 90: -0.2}, 40, 0.5), ({40: 0.0}, 40, 0.0),
                              ({1: -0.1}, 1, 0.1), ({n - 2: -0.1}, n - 2, 0.1)):
        theta = good.theta.values.copy()
        for i, value in dips.items():
            theta[i] = value
        (v,) = [v for v in MetricProfile(cp1, SampledFunction(grid, theta)).violations
                if v.invariant == "interior positivity"]
        assert (v.location, v.magnitude) == (grid.x[node], depth)


def test_scalar_curvature_requires_admissible(cp1):
    bad = MetricProfile(cp1, SampledFunction(cp1.grid, 0.5 * round_profile(cp1).theta.values))
    # a failed evaluation is not cached: every read raises again
    for _ in range(3):
        with pytest.raises(AdmissibilityError):
            bad.s
        with pytest.raises(AdmissibilityError):
            eval_S(bad, parse_function("id"), parse_function("id"), normalize_potential(cp1))
        with pytest.raises(AdmissibilityError):  # transport starts from an admissible profile only
            transport(bad, DeformationPath(SampledFunction(cp1.grid, cp1.grid.x ** 2)), 0.0, normalize_potential(cp1))
    assert bad.violations != ()


def test_profile_is_a_real_theta_on_its_geometry_grid(cp1):
    theta = round_profile(cp1).theta.values
    other = make_cp1_geometry(65)
    with pytest.raises(ValueError, match="different grids"):
        MetricProfile(other, SampledFunction(cp1.grid, theta))
    with pytest.raises(ValueError, match="theta must be real"):
        MetricProfile(cp1, SampledFunction(cp1.grid, theta + 0j))


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


def test_every_shared_array_is_read_only(geometries):
    # spectral.py freezes the arrays of a grid and of its basis, the array a
    # SampledFunction is handed and each ndarray a cached field holds, so
    # every array reachable from a grid, a geometry, a profile, a potential
    # or a path is read-only; theta_coeffs included, which a solved profile
    # keeps (from_curvature) and chop_coefficients otherwise slices from its
    # transform, not a copy; and each geometry's Newton rows, which every
    # solve reads; and every array of the basis, which depends on n alone,
    # so the cp1 and cpm:m grids of one n share one basis object, its tables
    # complete at the default N, while a grid owns only x and its weights;
    # a basis built fresh past the cache, on either route, is frozen too;
    # and the tables of Theta -> s and s -> Theta of each geometry's k
    arrays = {}
    calabi, one = parse_function("scaled:0.5:pow:2"), parse_function("const:1")
    grids = {id(geom.grid): geom.grid for geom in geometries.values()}
    assert len(grids) > 1 and len({grid.n for grid in grids.values()}) == 1
    cp1_grid = geometries["cp1"].grid
    assert all(grid.basis is cp1_grid.basis for grid in grids.values())
    assert cp1_grid.basis.cosines.shape == cp1_grid.basis.second.shape == (cp1_grid.n, cp1_grid.n)
    shared = {"t", "cosines", "second", "clenshaw_curtis", "v2c_divisor", "degrees", "twice_degrees",
              "slope_lo", "slope_hi"}
    fresh = ChebyshevBasis(cp1_grid.n)
    assert fresh is not cp1_grid.basis
    for label, basis, route in (("basis", cp1_grid.basis, "v2c_weights"), ("fresh basis", fresh, "v2c_weights"),
                                ("fresh fft basis", ChebyshevBasis(DENSE_NODES + 2), "c2v_factor")):
        tables = {name: v for name, v in vars(basis).items() if isinstance(v, np.ndarray)}
        assert set(tables) == shared | {route}, label
        arrays.update({f"{label}.{name}": v for name, v in tables.items()})
    for spec, geom in geometries.items():
        arrays[f"{spec} profile_table"] = profile_table(geom.k)
        if geom.k:
            arrays[f"{spec} curvature_table"] = curvature_table(geom.k)
        tables = {name: v for name, v in vars(geom.grid).items() if isinstance(v, np.ndarray)}
        assert set(tables) == {"x", "quad_weights"}, spec
        arrays.update({f"{spec} grid.{name}": v for name, v in tables.items()})
        phi = normalize_potential(geom)
        path = DeformationPath(SampledFunction(geom.grid, geom.grid.x ** 3))
        arrays.update({f"{spec} weight": geom.weight.values, f"{spec} base_term": geom.base_term.values,
                       f"{spec} measure": geom.measure, f"{spec} phi": phi.values,
                       f"{spec} far_end_forms": geom.far_end_forms, f"{spec} far_end_offset": geom.far_end_offset,
                       f"{spec} jacobian_rows": geom.jacobian_rows,
                       f"{spec} u": path.u.values, f"{spec} u2": path.u2})
        profiles = {
            "round": round_profile(geom),
            "random": random_admissible_profile(geom, 3, 0.1),
            "solved": solve_critical(geom, calabi, one, phi).profile,
            "transported": transport(round_profile(geom), path, 0.01, phi)[0],
        }
        for kind, p in profiles.items():
            arrays.update({f"{spec} {kind} theta": p.theta.values, f"{spec} {kind} theta_coeffs": p.theta_coeffs,
                           f"{spec} {kind} r_coeffs": p.r_coeffs, f"{spec} {kind} s": p.s.values})
    for name, arr in arrays.items():
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError):
            arr[0] = arr[0]  # the same value: a miss changes nothing shared


def test_a_handed_over_theta_cannot_be_written(cp1):
    # a profile reads its admissibility and s from Theta once: negating Theta
    # inside after wrapping it would leave violations == () and S = 8 pi
    # stale, so SampledFunction freezes the array it is handed, without a copy
    theta = 1.0 - cp1.grid.x ** 2
    profile = MetricProfile(cp1, SampledFunction(cp1.grid, theta))
    assert profile.theta.values is theta
    ident, one = parse_function("id"), parse_function("const:1")
    assert profile.violations == () and abs(eval_S(profile, ident, one, normalize_potential(cp1)) - EIGHT_PI) < 1e-12
    with pytest.raises(ValueError):
        theta[1:-1] *= -1.0
    assert (theta[1:-1] > 0).all()


def test_array_holding_records_are_equal_only_to_themselves(cp1):
    # an array's == is elementwise, so these records compare and hash by
    # identity: a twin sharing every field is another record, and each can
    # key a dict or a set
    res = solve_critical(cp1, parse_function("scaled:0.5:pow:2"), parse_function("const:1"), normalize_potential(cp1))
    u = SampledFunction(cp1.grid, cp1.grid.x ** 2)
    twins = [
        (u, SampledFunction(cp1.grid, u.values)),
        (DeformationPath(u), DeformationPath(u)),
        (res.profile, MetricProfile(cp1, res.profile.theta)),
        (res, dataclasses.replace(res)),
    ]
    for record, twin in twins:
        assert record == record and record != twin, type(record)
        assert hash(record) == hash(record) != hash(twin), type(record)
        assert record in {record} and twin not in {record} and {record: 1, twin: 2}[record] == 1, type(record)


def test_random_profile_is_round_plus_bump_times_splitmix_series(geometries):
    # round_profile's cached Theta is read, not changed: theta0 + B q
    for spec, geom in geometries.items():
        rng = SplitMix64(9)
        q = geom.grid.coefficients_to_values(np.array([rng.uniform(-0.1, 0.1) for _ in range(7)]))
        x = geom.grid.x
        round_theta = 1.0 - x * x if geom.k == 0 else 2.0 * x * (1.0 - x)
        got = random_admissible_profile(geom, 9, 0.1).theta.values
        assert np.array_equal(got, round_theta + bump_factor(geom) * q), spec
        assert round_profile(geom).theta.values is not got, spec
        assert random_admissible_profile(geom, 9, 0.0) is round_profile(geom), spec


def test_random_profile_reproducible_and_admissible(cp1):
    a = random_admissible_profile(cp1, 42, 0.3)
    b = random_admissible_profile(cp1, 42, 0.3)
    assert np.array_equal(a.theta.values, b.theta.values)
    c = random_admissible_profile(cp1, 43, 0.3)
    assert not np.array_equal(a.theta.values, c.theta.values)
    assert a.violations == ()
    assert random_admissible_profile(cp1, 7, 5.0).violations == ()  # amplitude halved
    # amplitudes 2 and 5 are halved 2 and 4 times for seed 7: the profile is
    # the one drawn at the halved amplitude (halving the draw is exact), and
    # the draw halved once less is not positive inside
    theta0, bump = round_profile(cp1).theta.values, bump_factor(cp1)
    for amp, halvings in ((2.0, 2), (5.0, 4)):
        got = random_admissible_profile(cp1, 7, amp).theta.values
        assert np.array_equal(got, random_admissible_profile(cp1, 7, amp / 2 ** halvings).theta.values), amp
        rng, scale = SplitMix64(7), amp / 2 ** (halvings - 1)
        q = cp1.grid.coefficients_to_values(np.array([rng.uniform(-scale, scale) for _ in range(7)]))
        assert ((theta0 + bump * q)[1:-1] <= 0).any(), amp


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


# the gaps of both halves of the Theta <-> s pair, measured over 50 seeds on
# cp1 and cpm:2..4, stay near 1e-14 at N = 65, 129 and 257, flat in N
INVERSE_PAIR_TOL = 1e-13


def _inverse_pair_cases(n):
    for geom in [make_cp1_geometry(n), *(make_cpm_geometry(m, n) for m in (2, 3, 4))]:
        for seed in range(5):
            yield geom, random_admissible_profile(geom, seed, 0.1)


@pytest.mark.parametrize("n", [65, 129, 257])
def test_from_curvature_inverts_s(n):
    # integrating a random admissible profile's s from the left end gives
    # back its Theta, at every node
    for geom, p in _inverse_pair_cases(n):
        s_coeffs = chop_coefficients(geom.grid.values_to_coefficients(p.s.values))
        q = MetricProfile.from_curvature(geom, s_coeffs)
        assert np.abs(q.theta.values - p.theta.values).max() <= INVERSE_PAIR_TOL, (geom.k, n)


@pytest.mark.parametrize("n", [65, 129, 257])
def test_far_end_map_vanishes_on_admissible_curvature(n):
    # an admissible profile meets its far-end conditions, so the far-end
    # map of its s is (Theta(x_hi), Theta'(x_hi) - slope_hi) = (0, 0)
    for geom, p in _inverse_pair_cases(n):
        mismatch = geom.far_end_forms @ p.s.values + geom.far_end_offset
        assert np.abs(mismatch).max() <= INVERSE_PAIR_TOL, (geom.k, n)


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


def test_manifest_records_the_fubini_study_closed_forms_of_cp2_to_cp4():
    # A = 2m(m - 1) x^(m - 2) and s = 2m(m + 1) for the Fubini-Study metric of CP^m
    cpm = build_manifest()["cpm"]
    assert sorted(cpm) == ["2", "3", "4"]
    for key, entry in cpm.items():
        m = int(key)
        assert abs(entry["base_coefficient"] - 2 * m * (m - 1)) < 1e-12 * m ** 3, m
        assert abs(entry["scalar_constant"] - 2 * m * (m + 1)) < 1e-12 * m ** 3, m
        assert abs(entry["scalar_constant_observed"] - 2 * m * (m + 1)) < 1e-8 and entry["scalar_std"] < 1e-8, m


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


def _profile_of_length(geom, size):
    """The round profile plus 1e-8 B(x) T_(size - 5)(t), admissible, whose
    chopped Theta carries size coefficients (B has degree 4 in t)."""
    t = geom.grid.t
    bump = 1e-8 * bump_factor(geom) * np.cos((size - 5) * np.arccos(t))
    profile = MetricProfile(geom, SampledFunction(geom.grid, round_profile(geom).theta.values + bump))
    assert profile.theta_coeffs.size == size
    return profile


@pytest.mark.parametrize("m", [2, 3, 4])
def test_short_theta_takes_the_curvature_table_and_a_longer_one_the_recurrence(m):
    # s on CP^m: a Theta series of at most DENSE_NODES + 1 coefficients is
    # one product with curvature_table(k), its columns in descending
    # degree, scaled by -(2 / span)^2; one coefficient more takes the
    # derivative and Euler recurrences, bit for bit as before the table
    width = DENSE_NODES + 1
    for n, size in ((129, 3), (257, width), (257, width + 1)):
        geom = make_cpm_geometry(m, n)
        grid, k = geom.grid, geom.k
        profile = round_profile(geom) if size == 3 else _profile_of_length(geom, size)
        c = profile.theta_coeffs
        assert c.size == size
        if size <= width:
            expect = curvature_table(k)[: size - 2, -size:] @ c[::-1].copy() * -((2.0 / grid.span) ** 2)
        else:
            expect = grid.derivative_coefficients(c, 2) * -((2.0 / grid.span) ** 2)
            for a in {1, 2} - {k + 1, k + 2}:
                expect = solve_euler(expect, a)
            for a in {k + 1, k + 2} - {1, 2}:
                expect = grid.euler_coefficients(expect, a)
        assert profile.s.values.tobytes() == grid.coefficients_to_values(expect).tobytes(), (n, size)


@pytest.mark.parametrize("spec", ["cp1", "cpm:2", "cpm:3", "cpm:4"])
def test_short_curvature_takes_the_profile_table_and_a_longer_one_the_recurrence(spec):
    # from_curvature: an s series of at most DENSE_NODES + 1 coefficients is
    # one product with profile_table(k), its columns in descending
    # degree; one coefficient more takes solve_euler twice and the two
    # multiplications by t + 1, bit for bit as before the table
    width = DENSE_NODES + 1
    geom = make_cp1_geometry(257) if spec == "cp1" else make_cpm_geometry(int(spec[4:]), 257)
    grid, k = geom.grid, geom.k
    rng = np.random.default_rng(k)
    for size in (1, 3, width, width + 1):
        m = rng.standard_normal(size) * 10.0 ** (-12.0 * np.arange(size) / size)
        if size <= width:
            theta = profile_table(k)[: size + 2, -size:] @ m[::-1].copy() * -((grid.span / 2.0) ** 2)
            theta[:2] += geom.slope_lo * grid.span / 2.0
        else:
            theta = _theta_coefficients(solve_euler(solve_euler(m, k + 1), k + 2), geom.slope_lo, grid.span)
        got = MetricProfile.from_curvature(geom, m).theta_coeffs
        assert got.tobytes() == chop_coefficients(theta).tobytes(), size


@pytest.mark.parametrize("n", [33, 65, 129, 257, 513])
@pytest.mark.parametrize("spec", ["cp1", "cpm:2", "cpm:3", "cpm:4"])
def test_scalar_curvature_round_trips_through_from_curvature(spec, n):
    # s(from_curvature(m)) = m for the chopped coefficients m of an
    # admissible profile's s, within EPS (8 + N / 8) of max |s|: short
    # series (random profiles) on the tables, and at N >= 257 a series
    # longer than the tables (a 1e-8 bump of degree 150) on the
    # recurrences.  Measured: at most 8.1 EPS on the tables, 2 EPS on the
    # recurrences; before the tables the short series measured up to 27
    # EPS at N = 65
    geom = make_cp1_geometry(n) if spec == "cp1" else make_cpm_geometry(int(spec[4:]), n)
    profiles = [random_admissible_profile(geom, seed, 0.3) for seed in (1, 2, 3)]
    if n > DENSE_NODES:
        profiles.append(_profile_of_length(geom, 155))
    for profile in profiles:
        s = profile.s.values
        m = chop_coefficients(geom.grid.values_to_coefficients(s))
        assert (m.size > DENSE_NODES + 1) == (profile is profiles[-1] and n > DENSE_NODES)
        back = MetricProfile.from_curvature(geom, m).s.values
        assert np.abs(back - s).max() <= EPS * (8 + n / 8) * np.abs(s).max(), m.size


def test_the_geometries_of_one_k_read_one_table_on_every_grid(monkeypatch):
    # s on CP^m and from_curvature read the table of their k, one object
    # whatever the grid's n
    read = {}

    def spy(build):
        def wrapped(k):
            table = build(k)
            read.setdefault((build.__name__, k), set()).add(id(table))
            return table
        return wrapped

    monkeypatch.setattr(geometry, "curvature_table", spy(curvature_table))
    monkeypatch.setattr(geometry, "profile_table", spy(profile_table))
    for m in (2, 3, 4):
        for n in (33, 129, 513):
            geom = make_cpm_geometry(m, n)
            s = random_admissible_profile(geom, 1, 0.3).s.values
            MetricProfile.from_curvature(geom, chop_coefficients(geom.grid.values_to_coefficients(s)))
    assert sorted(read) == [(name, k) for name in ("curvature_table", "profile_table") for k in (1, 2, 3)]
    assert all(len(ids) == 1 for ids in read.values())
