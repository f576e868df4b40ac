import numpy as np
import pytest

from calabilab import (
    DeformationPath,
    HolomorphyPotential,
    KAPPA_PHI,
    KAPPA_THETA,
    PathExitsClass,
    SampledFunction,
    convergence_order,
    delta_S_analytic,
    delta_S_numeric,
    equivariant_integral,
    eval_S,
    futaki,
    lichnerowicz,
    normalize_potential,
    parse_function,
    random_admissible_profile,
    round_profile,
    transport,
)


def _direction(grid, fn):
    return SampledFunction(grid, fn(grid.x))


def test_first_order_preserves_boundary_data(cp1, cp1_phi):
    profile = random_admissible_profile(cp1, 1, 0.25)
    path = DeformationPath(_direction(cp1.grid, lambda x: x ** 3))
    # dTheta = kappa * Theta^2 u'' vanishes to second order at the ends
    t = 1e-5
    plus, minus = (transport(profile, path, sign * t, cp1_phi)[0].theta.values for sign in (1.0, -1.0))
    d_theta = (plus - minus) / (2 * t)
    assert abs(d_theta[0]) < 1e-12
    assert abs(d_theta[-1]) < 1e-12
    d1 = cp1.grid.differentiate_values(d_theta)
    assert abs(d1[0]) < 1e-8 and abs(d1[-1]) < 1e-8


def test_transport_identity_at_zero(cp1, cp1_round, cp1_phi):
    path = DeformationPath(_direction(cp1.grid, lambda x: x ** 2))
    moved, _ = transport(cp1_round, path, 0.0, cp1_phi)
    assert np.array_equal(moved.theta.values, cp1_round.theta.values)


def test_transport_round_closed_form(cp1, cp1_round, cp1_phi):
    # u = x^2: u'' = 2, so Theta_t = Theta / (1 - 2 kappa t Theta)
    path = DeformationPath(_direction(cp1.grid, lambda x: x ** 2))
    t = 0.1
    moved, _ = transport(cp1_round, path, t, cp1_phi)
    theta = cp1_round.theta.values
    expect = theta / (1.0 - 2.0 * KAPPA_THETA * t * theta)
    assert np.abs(moved.theta.values - expect).max() < 1e-10
    assert moved.violations == ()


def test_transport_exits_class(cp1, cp1_round, cp1_phi):
    path = DeformationPath(_direction(cp1.grid, lambda x: x ** 2))
    with pytest.raises(PathExitsClass):
        transport(cp1_round, path, 1.0 / KAPPA_THETA, cp1_phi)
    # u = -e_1 or -e_(n-2): kappa Theta u'' is largest at the node next to
    # an end, about 5 times the next, so 1.5 times the step that makes
    # 1 - kappa t Theta u'' vanish there leaves the class at that node alone
    n = cp1.grid.n
    for i in (1, n - 2):
        u = np.zeros(n)
        u[i] = -1.0
        path = DeformationPath(SampledFunction(cp1.grid, u))
        reach = KAPPA_THETA * cp1_round.theta.values * path.u2
        assert np.argmax(reach[1:-1]) + 1 == i and np.sort(reach[1:-1])[-2] < reach[i] / 1.5
        with pytest.raises(PathExitsClass):
            transport(cp1_round, path, 1.5 / reach[i], cp1_phi)


def test_delta_s_matches_transport_difference(geometries):
    for spec, geom in geometries.items():
        profile = random_admissible_profile(geom, 9, 0.2)
        path, phi = DeformationPath(_direction(geom.grid, lambda x: np.sin(x))), normalize_potential(geom)
        ds = -KAPPA_THETA * lichnerowicz(profile, path.u).values
        t = 1e-5
        plus, _ = transport(profile, path, t, phi)
        minus, _ = transport(profile, path, -t, phi)
        fd = (plus.s.values - minus.s.values) / (2 * t)
        assert np.abs(ds - fd).max() < 1e-4 * (1.0 + np.abs(ds).max()), spec


def _bisect(g, lo, hi):
    """The root of g in [lo, hi], across which g changes sign, by bisection
    to the last bit: the midpoint of two adjacent doubles is one of them."""
    positive_lo = g(lo) > 0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if (g(mid) > 0) == positive_lo:
            lo = mid
        else:
            hi = mid


def test_moment_velocity_pins_kappa_phi(cp1):
    """Fixed-complex-point oracle for the convention constants.

    On the round profile the symplectic potential slope is G0' = atanh(x).
    Along G_t = G0 - kappa_theta * t * u the momentum of a fixed complex
    point solves atanh(x_t) - kappa_theta * t * u'(x_t) = atanh(x_0) with
    u = x^3; its velocity must equal the moment velocity
    dphi = kappa_phi * Theta * u', which forces kappa_phi = kappa_theta.
    """
    dt = 1e-5
    grid_x = cp1.grid.x
    nearest = [int(np.abs(grid_x - x0).argmin()) for x0 in (-0.55, 0.1, 0.62)]
    for i in nearest:  # the field is read at grid nodes, where it is sampled
        x0 = grid_x[i]
        target = np.arctanh(x0)

        def x_at(t):
            def g(x):
                return np.arctanh(x) - KAPPA_THETA * t * 3.0 * x ** 2 - target

            return _bisect(g, x0 - 0.2, x0 + 0.2)

        velocity = (x_at(dt) - x_at(-dt)) / (2.0 * dt)
        assert abs(velocity - KAPPA_PHI * (1 - x0 ** 2) * 3.0 * x0 ** 2) < 1e-7


def test_equivariant_integrals_constant_along_transport(cp1, cp1_round, cp1_phi):
    fid = parse_function("id")
    for hspec in ("const:1", "id", "pow:2", "exp"):
        h = parse_function(hspec)
        eq_vals, sphi_vals = [], []
        path = DeformationPath(_direction(cp1.grid, lambda x: x ** 3 - 0.4 * x))
        for t in np.linspace(-0.3, 0.3, 11):
            moved, phi_t = transport(cp1_round, path, float(t), cp1_phi)
            eq_vals.append(equivariant_integral(moved, h, phi_t))
            sphi_vals.append(eval_S(moved, fid, fid, phi_t))
        assert max(abs(v - eq_vals[0]) for v in eq_vals) < 1e-8
        assert max(abs(v - sphi_vals[0]) for v in sphi_vals) < 1e-8


def test_futaki_constant_along_transport(geometries):
    for spec, geom in geometries.items():
        phi = normalize_potential(geom)
        profile = random_admissible_profile(geom, 21, 0.2)
        path = DeformationPath(_direction(geom.grid, lambda x: x ** 2 + 0.3 * x ** 3))
        vals = [
            futaki(transport(profile, path, float(t), phi)[0], phi)
            for t in np.linspace(-0.2, 0.2, 11)
        ]
        assert max(abs(v - vals[0]) for v in vals) < 1e-8, spec


def test_delta_S_convergence_order(cp1):
    profile = random_admissible_profile(cp1, 31, 0.2)
    phi = HolomorphyPotential(cp1, 1.0, 2.0)
    f = parse_function("scaled:0.5:pow:2")
    h = parse_function("id")
    path = DeformationPath(_direction(cp1.grid, lambda x: x ** 3))
    # a central difference is second order: the fitted slope is 2.0002
    assert 1.9 <= convergence_order(profile, f, h, phi, path) <= 2.1


def test_delta_S_vanishes_on_critical_profile(cp1, cp1_round):
    phi = normalize_potential(cp1)
    f = parse_function("scaled:0.5:pow:2")
    h = parse_function("const:1")
    path = DeformationPath(_direction(cp1.grid, lambda x: 0.1 * (x ** 4 - x ** 2)))
    assert abs(delta_S_analytic(cp1_round, f, h, phi, path)) < 1e-10
    assert abs(delta_S_numeric(cp1_round, f, h, phi, path, 1e-3)) < 1e-6


def test_volume_normalization_constant_along_transport(cp1, cp1_round, cp1_phi):
    # the momentum-representation statement that c_t = 0 stays exact
    path = DeformationPath(_direction(cp1.grid, lambda x: x ** 3))
    vals = []
    for t in np.linspace(-0.2, 0.2, 5):
        moved, phi_t = transport(cp1_round, path, float(t), cp1_phi)
        vals.append(
            equivariant_integral(moved, parse_function("id"), phi_t)
        )
    assert max(abs(v - vals[0]) for v in vals) < 1e-8


@pytest.mark.parametrize("u", ["x4", "sin2x"])
@pytest.mark.parametrize("spec", ["cp1", "cpm:2", "cpm:3", "cpm:4"])
def test_second_variation_is_lichnerowicz_energy(geometries, spec, u):
    """Calabi's second variation ("Extremal Kahler metrics II", 1985): at the
    Fubini-Study profile, critical for f = s^2/2 and h = 1,
    d^2S/dt^2 = kappa_theta^2 C_vol int (L u)^2 w dx along the transport.
    The Richardson-extrapolated central second difference reaches 8.5e-8 of
    the scale on cp1; the tolerance is about ten times that floor."""
    geom = geometries[spec]
    profile, phi = round_profile(geom), normalize_potential(geom)
    f, h = parse_function("scaled:0.5:pow:2"), parse_function("const:1")
    x = geom.grid.x
    path = DeformationPath(SampledFunction(geom.grid, x ** 4 if u == "x4" else np.sin(2.0 * x)))

    def second_difference(step):
        s_at = [eval_S(transport(profile, path, t, phi)[0], f, h, phi).real for t in (-step, 0.0, step)]
        return (s_at[0] - 2.0 * s_at[1] + s_at[2]) / step ** 2

    numeric = (4.0 * second_difference(5e-3) - second_difference(1e-2)) / 3.0
    lu = lichnerowicz(profile, path.u).values
    exact = KAPPA_THETA ** 2 * geom.vol_const * geom.grid.integrate_values(lu ** 2 * geom.weight.values)
    assert abs(numeric - exact) <= 1e-6 * exact


def test_path_derivatives_are_cached(geometries):
    for spec, geom in geometries.items():
        path = DeformationPath(_direction(geom.grid, lambda x: np.sin(2.0 * x) + 0.3 * x ** 3))
        assert path.u2 is path.u2, spec
        assert not path.u2.flags.writeable, spec
        assert np.array_equal(path.u2, geom.grid.differentiate_values(path.u.values, 2)), spec
