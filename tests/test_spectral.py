import numpy as np
import pytest

from calabilab import SampledFunction, affine_projection, get_grid
from calabilab.errors import DegenerateWeight
from calabilab.spectral import (
    SpectralGrid,
    chop_coefficients,
    derivative_coefficients,
    euler_coefficients,
    solve_euler,
)

C = np.polynomial.chebyshev


def test_derivative_of_constant_is_zero():
    grid = get_grid(129, -1.0, 1.0)
    d = grid.differentiate_values(np.full(grid.n, 3.7))
    assert np.abs(d).max() < 1e-12
    # the dense matrix route carries O(N^2) roundoff from its large entries
    assert np.abs(grid.d1 @ np.full(grid.n, 3.7)).max() < 1e-10


def test_quadrature_of_one_is_interval_length():
    for lo, hi in [(-1.0, 1.0), (0.0, 1.0), (2.0, 5.5)]:
        grid = get_grid(129, lo, hi)
        assert abs(grid.integrate_values(np.ones(grid.n)) - (hi - lo)) < 1e-12


@pytest.mark.parametrize("n", [8, 9, 33, 1025])
def test_transform_round_trip(n):
    grid = get_grid(n, -1.0, 1.0)
    rng = np.random.default_rng(n)
    real = rng.standard_normal(n)
    for vals in (real, real + 1j * rng.standard_normal(n)):
        back = grid.coefficients_to_values(grid.values_to_coefficients(vals))
        assert np.abs(back - vals).max() < 1e-14 * np.abs(vals).max()


@pytest.mark.parametrize("n", [8, 9, 33, 129])
@pytest.mark.parametrize("extra", [-3, 0, 1])
def test_coefficients_to_values_matches_chebval(n, extra):
    # n + 1 coefficients alias T_n onto T_(n-2) at the nodes
    grid = get_grid(n, -1.0, 1.0)
    rng = np.random.default_rng(100 * n + extra)
    real = rng.standard_normal(n + extra)
    for c in (real, real + 1j * rng.standard_normal(n + extra)):
        expect = C.chebval(grid.t, c)
        assert np.abs(grid.coefficients_to_values(c) - expect).max() < 1e-13 * np.abs(c).sum()


@pytest.mark.parametrize("n", [8, 9, 33, 129, 1025])
def test_clenshaw_curtis_integrates_chebyshev_polynomials(n):
    grid = SpectralGrid(n, -1.0, 1.0)
    m = n - 1
    k = np.arange(n)
    # T_k(t_j) = cos(pi k (m - j) / m), the angle reduced exactly mod 2 pi
    tk = np.cos(np.pi * (np.outer(k, m - k) % (2 * m)) / m)
    exact = np.zeros(n)
    exact[::2] = 2.0 / (1.0 - k[::2] ** 2.0)
    assert np.abs(tk @ grid.quad_weights - exact).max() < 2e-15
    for lo, hi in [(0.0, 1.0), (2.0, 5.5)]:
        grid = SpectralGrid(n, lo, hi)
        assert abs(grid.quad_weights.sum() - (hi - lo)) < 1e-14 * (hi - lo)


@pytest.mark.parametrize("n", [33, 129, 2049])
def test_endpoint_slopes_match_exact_derivative(n):
    grid = SpectralGrid(n, 0.0, 1.0)
    coeffs = chop_coefficients(grid.values_to_coefficients(np.sin(3.0 * grid.x) + grid.x ** 2))
    lo, hi = grid.endpoint_slopes(coeffs)
    # the chop at CHOP_REL bounds the error independently of n
    assert abs(lo - 3.0) < 1e-11 and abs(hi - (3.0 * np.cos(3.0) + 2.0)) < 1e-11


def test_dense_operators_built_on_demand():
    grid = SpectralGrid(65, -1.0, 1.0)
    assert not any(getattr(a, "shape", ()) == (65, 65) for a in vars(grid).values())
    assert grid.d2.shape == (65, 65) and grid.d1 is grid.d1


@pytest.mark.parametrize("n", [33, 129, 200])
def test_derivative_exact_on_high_degree_polynomials(n):
    grid = get_grid(n, -1.0, 1.0)
    for k in (3, n // 2, n - 1):
        c = np.zeros(k + 1)
        c[k] = 1.0
        vals = np.polynomial.chebyshev.chebval(grid.t, c)
        exact = np.polynomial.chebyshev.chebval(
            grid.t, np.polynomial.chebyshev.chebder(c)
        )
        scale = max(np.abs(exact).max(), 1.0)
        assert np.abs(grid.differentiate_values(vals) - exact).max() < 1e-9 * scale
        assert np.abs(grid.d1 @ vals - exact).max() < 1e-9 * scale


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("size", [1, 2, 3, 4, 33, 1025])
@pytest.mark.parametrize("complex_", [False, True])
def test_derivative_coefficients_match_chebder(order, size, complex_):
    rng = np.random.default_rng(10 * size + order)
    c = rng.standard_normal(size)
    if complex_:
        c = c + 1j * rng.standard_normal(size)
    expect = C.chebder(c, order)
    got = derivative_coefficients(c, order)
    assert got.shape == expect.shape and got.dtype == expect.dtype
    scale = max(np.abs(expect).max(), 1.0)
    assert np.abs(got - expect).max() <= 1e-14 * scale


@pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
def test_euler_coefficients_eigenfunctions(a):
    # y d/dy = (t + 1) d/dt, so (y d/dy + a) (t + 1)^n = (n + a) (t + 1)^n
    for n in range(9):
        c = C.chebpow([1.0, 1.0], n)
        assert np.abs(euler_coefficients(c, a) - (n + a) * c).max() <= 1e-15 * np.abs(c).max()


@pytest.mark.parametrize("size", [1, 2, 3, 33, 1025])
@pytest.mark.parametrize("complex_", [False, True])
def test_euler_coefficients_inverts_solve_euler(size, complex_):
    rng = np.random.default_rng(size)
    c = rng.standard_normal(size)
    if complex_:
        c = c + 1j * rng.standard_normal(size)
    for a in (1.0, 2.5, 4.0):
        back = euler_coefficients(solve_euler(c, a), a)
        assert back.dtype == c.dtype
        assert np.abs(back - c).max() <= 1e-14 * np.abs(c).max()
        ec = euler_coefficients(c, a)
        assert np.abs(solve_euler(ec, a) - c).max() <= 1e-14 * np.abs(ec).max()


@pytest.mark.parametrize("n", [8, 33, 129])
@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (0.0, 1.0), (2.0, 5.5)])
def test_antiderivative_matches_chebint(n, lo, hi):
    # the closed form and chebint differ only in the constant, which the
    # subtraction of the value at lo removes
    grid = get_grid(n, lo, hi)
    rng = np.random.default_rng(n)
    real = np.sin(3.0 * grid.x) + grid.x ** 2
    for vals in (real, real + 1j * rng.standard_normal(n)):
        c = chop_coefficients(grid.values_to_coefficients(vals))
        ref = grid.coefficients_to_values(C.chebint(c) * (grid.span / 2.0))
        expect = ref - ref[0]
        got = grid.antiderivative_values(vals)
        assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()


@pytest.mark.parametrize("order", [0, 1, 2])
def test_differentiate_complex_values_componentwise(order):
    grid = get_grid(33, 0.0, 1.0)
    rng = np.random.default_rng(order)
    coeffs = rng.standard_normal(11) + 1j * rng.standard_normal(11)
    vals = C.chebval(grid.t, coeffs)
    got = grid.differentiate_values(vals, order)
    expect = grid.differentiate_values(vals.real, order) + 1j * grid.differentiate_values(vals.imag, order)
    assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()


def test_quadrature_differentiation_compatibility():
    grid = get_grid(129, 0.0, 1.0)
    coeffs = np.array([0.3, -1.2, 0.7, 0.05, -0.4, 0.9])
    vals = np.polynomial.chebyshev.chebval(grid.t, coeffs)
    d = grid.differentiate_values(vals)
    assert abs(grid.integrate_values(d) - (vals[-1] - vals[0])) < 1e-10


def test_antiderivative_vanishes_at_left_and_inverts_derivative():
    grid = get_grid(129, -1.0, 1.0)
    vals = np.sin(2.0 * grid.x) + grid.x ** 3
    anti = grid.antiderivative_values(vals)
    assert anti[0] == 0.0
    assert np.abs(grid.differentiate_values(anti) - vals).max() < 1e-10


def test_second_derivative_of_smooth_function():
    grid = get_grid(129, -1.0, 1.0)
    vals = np.exp(grid.x)
    assert np.abs(grid.differentiate_values(vals, 2) - vals).max() < 1e-9


def test_affine_projection_residual_zero_iff_affine():
    grid = get_grid(129, -1.0, 1.0)
    w = np.ones(grid.n)
    a, b, res = affine_projection(3.0 * grid.x - 1.5, w, grid)
    assert abs(a - 3.0) < 1e-12 and abs(b + 1.5) < 1e-12
    assert res <= 1e-12
    _, _, res2 = affine_projection(grid.x ** 2, w, grid)
    assert res2 > 1e-3


def test_affine_projection_complex_componentwise():
    grid = get_grid(129, -1.0, 1.0)
    psi = (1.0 + 2.0j) * grid.x + (0.5 - 1.0j)
    a, b, res = affine_projection(psi, np.ones(grid.n), grid)
    assert abs(a - (1.0 + 2.0j)) < 1e-12
    assert abs(b - (0.5 - 1.0j)) < 1e-12
    assert res <= 1e-12


def test_affine_projection_rejects_degenerate_weight():
    grid = get_grid(129, -1.0, 1.0)
    with pytest.raises(DegenerateWeight):
        affine_projection(grid.x, np.zeros(grid.n), grid)


def test_chop_coefficients_drops_roundoff_plateau():
    c = np.array([1.0, 0.5, 1e-20, 1e-21, 0.0])
    assert chop_coefficients(c).size == 2
    assert chop_coefficients(np.zeros(5)).size == 1


def test_interpolation_matches_nodes_and_polynomials():
    grid = get_grid(33, -1.0, 1.0)
    f = SampledFunction(grid, grid.x ** 3 - grid.x)
    assert f(grid.x[7]) == f.values[7]
    xq = 0.123456
    assert abs(f(xq) - (xq ** 3 - xq)) < 1e-13


def test_sampled_function_rejects_bad_values():
    grid = get_grid(33, -1.0, 1.0)
    with pytest.raises(ValueError):
        SampledFunction(grid, np.ones(5))
    bad = np.ones(grid.n)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        SampledFunction(grid, bad)
