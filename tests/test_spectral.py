import functools
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest

from calabilab import AffineProjector, MetricProfile, SampledFunction, get_grid, make_cp1_geometry, round_profile
from calabilab import spectral
from calabilab.errors import ConfigError, DegenerateWeight, NonFiniteError
from calabilab.spectral import (
    CHOP_REL,
    DEGENERATE_REL,
    DENSE_NODES,
    MAX_NODES,
    MIN_NODES,
    SYNTHESIS_WIDTH,
    ChebyshevBasis,
    PivotedLU2,
    SpectralGrid,
    _dct1,
    cached_field,
    chebyshev_basis,
    chop_coefficients,
    curvature_table,
    profile_table,
    solve_euler,
    times_t_plus_1,
)

C = np.polynomial.chebyshev
# the derivative and Euler recurrences are grid methods that slice the
# grid's weight tables; this grid's carry n + 1 = 1026 coefficients, every
# size below, and the recurrences work in t, whatever the interval
WIDE = get_grid(1025, -1.0, 1.0)
derivative_coefficients = WIDE.derivative_coefficients
euler_coefficients = WIDE.euler_coefficients
EPS = np.finfo(float).eps
# a 2x2 elimination is backward stable: the residual of either solve is a
# few roundoffs of |m| |u| + |r|, and the two solutions differ by at most
# that much times the condition number
SOLVE_ROUNDOFFS = 8.0


def _rotation(t):
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


def _assert_solves_like_lapack(m, r):
    u = np.array(PivotedLU2(*m.ravel().tolist()).solve(*r.tolist()))
    ref = np.linalg.solve(m, r)
    scale = np.abs(m) @ np.abs(u) + np.abs(r)
    assert np.all(np.abs(m @ u - r) <= SOLVE_ROUNDOFFS * EPS * scale)
    cond = np.linalg.cond(m)
    assert np.abs(u - ref).max() <= SOLVE_ROUNDOFFS * EPS * cond * np.abs(ref).max()


def test_derivative_of_constant_is_zero():
    grid = get_grid(129, -1.0, 1.0)
    d = grid.differentiate_values(np.full(grid.n, 3.7))
    assert np.abs(d).max() < 1e-12


def test_grids_of_one_n_share_one_basis():
    # everything that depends on n alone is built once per n, whatever the
    # interval; a grid's nodes are its basis's
    grid = SpectralGrid(65, 0.0, 1.0)
    assert isinstance(grid.basis, ChebyshevBasis)
    assert grid.basis is SpectralGrid(65, -1.0, 2.0).basis is get_grid(65, 2.0, 5.5).basis is chebyshev_basis(65)
    assert grid.t is grid.basis.t and grid.basis is not SpectralGrid(66, 0.0, 1.0).basis


def test_node_count_is_checked_before_any_table_is_built(monkeypatch):
    # the cosine table's 0.61 eps bound and the tests reach N = MAX_NODES;
    # past it, as below MIN_NODES, the grid raises a ConfigError before a
    # basis is built (--nodes 1000000 would build 64 x N index and long
    # double arrays of about 0.5 GB each)
    assert MAX_NODES == 2049
    assert SpectralGrid(MAX_NODES, 0.0, 1.0).basis.cosines.shape == (SYNTHESIS_WIDTH, MAX_NODES)
    monkeypatch.setattr(spectral, "ChebyshevBasis", None)  # a build would raise TypeError
    for n in (MAX_NODES + 1, 4097, 10 ** 6, MIN_NODES - 1):
        with pytest.raises(ConfigError, match=f"at most {MAX_NODES} and at least {MIN_NODES}, got {n}$"):
            SpectralGrid(n, 0.0, 1.0)


def test_quadrature_of_one_is_interval_length():
    for lo, hi in [(-1.0, 1.0), (0.0, 1.0), (2.0, 5.5)]:
        grid = get_grid(129, lo, hi)
        assert abs(grid.integrate_values(np.ones(grid.n)) - (hi - lo)) < 1e-12


@pytest.mark.parametrize("n", [8, 9, 33, 129])
def test_grid_ends_are_lo_and_hi_exactly(n):
    # lo + (hi - lo) is 0.8999999999999999 for (-0.3, 0.9): the last node is
    # set to hi, not computed
    grid = SpectralGrid(n, -0.3, 0.9)
    assert (grid.x[0], grid.x[-1]) == (-0.3, 0.9)
    assert np.all(np.diff(grid.x) > 0)
    for lo, hi in ((1.0, 1.0), (1.0, 0.0)):
        with pytest.raises(ValueError, match="need lo < hi"):
            SpectralGrid(n, lo, hi)


@pytest.mark.parametrize("n", [8, 9, 33, 129, 1025])
def test_transform_round_trip(n):
    grid = get_grid(n, -1.0, 1.0)
    rng = np.random.default_rng(n)
    real = rng.standard_normal(n)
    for vals in (real, real + 1j * rng.standard_normal(n)):
        back = grid.coefficients_to_values(grid.values_to_coefficients(vals))
        assert np.abs(back - vals).max() < 1e-14 * np.abs(vals).max()


@pytest.mark.parametrize("n", [8, 9, 33, 129])
@pytest.mark.parametrize("extra", [-3, 0, 1, 300])
def test_coefficients_to_values_matches_chebval(n, extra):
    # n + 1 coefficients alias T_n onto T_(n-2) at the nodes; n + 300 of them
    # are more than 2 (n - 1), so some fold more than once
    grid = get_grid(n, -1.0, 1.0)
    rng = np.random.default_rng(100 * n + extra)
    real = rng.standard_normal(n + extra)
    for c in (real, real + 1j * rng.standard_normal(n + extra)):
        expect = C.chebval(grid.t, c)
        assert np.abs(grid.coefficients_to_values(c) - expect).max() < 1e-13 * np.abs(c).sum()


def _chebyshev_table(n, size):
    """T_k(t_j) at the n ascending nodes for k < size, as dense cosines:
    T_k(t_j) = cos(pi a / m), a = k (m - j) mod 2m, the angle reduced
    exactly to at most pi / 4, where a cosine past pi / 4 is the sine of
    the complement."""
    m = n - 1
    a = np.outer(m - np.arange(n), np.arange(size)) % (2 * m)
    a = np.minimum(a, 2 * m - a)
    sign = np.where(2 * a > m, -1.0, 1.0)
    b = 2 * np.minimum(a, m - a)
    return sign * np.where(2 * b > m, np.sin(np.pi * (m - b) / (2 * m)), np.cos(np.pi * b / (2 * m)))


def _draw(rng, size, complex_):
    real = rng.standard_normal(size)
    return real + 1j * rng.standard_normal(size) if complex_ else real


def _table_width(n):
    # the cosine table is complete up to DENSE_NODES, SYNTHESIS_WIDTH rows above
    return n if n <= DENSE_NODES else SYNTHESIS_WIDTH


@pytest.mark.parametrize("n", [8, 9, 65, 129, 257, 1025])
@pytest.mark.parametrize("complex_", [False, True])
def test_values_to_coefficients_matches_dense_cosine_sums(n, complex_):
    # c_k = (2 / m) sum'' v_j T_k(t_j), the end terms of the sum and c_0, c_m halved
    grid = SpectralGrid(n, -1.0, 1.0)
    v = _draw(np.random.default_rng(n), n, complex_)
    weights = np.full(n, 2.0 / (n - 1))
    weights[[0, -1]] *= 0.5
    expect = (_chebyshev_table(n, n).T * weights) @ v
    expect[[0, -1]] *= 0.5
    # either route, the product with the complete cosine table up to
    # DENSE_NODES or an FFT of length 2m above, is accurate to a few
    # roundoffs of the data's scale
    assert np.abs(grid.values_to_coefficients(v) - expect).max() <= 8 * EPS * np.abs(v).max()


def _dct1_weights(n: int) -> np.ndarray:
    """The DCT-I's weights on the values: 1 at both ends and 2 inside."""
    return np.where(np.arange(n) % (n - 1) == 0, 1.0, 2.0)


@pytest.mark.parametrize("n", [8, 9, 65, 129, 257, 1025])
def test_values_to_coefficients_takes_the_table_up_to_dense_nodes_and_the_fft_above(n):
    # up to DENSE_NODES the coefficients are one product with the complete
    # table, the values weighted before it and divided after it; above, the
    # DCT-I divided by the signed divisor.  Complex values take the table
    # one part at a time, so each part is the transform of that part alone
    grid = SpectralGrid(n, -1.0, 1.0)
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n)
    got = grid.values_to_coefficients(v)
    assert got.shape == (n,) and got.flags.c_contiguous
    if n <= DENSE_NODES:
        assert grid.basis.cosines.shape == (n, n)
        expect = (grid.basis.cosines @ (v * _dct1_weights(n))) / grid.basis.v2c_divisor
        assert got.tobytes() == expect.tobytes()
        im = rng.standard_normal(n)
        c = grid.values_to_coefficients(v + 1j * im)
        assert c.dtype == complex and c.flags.c_contiguous
        assert c.real.tobytes() == got.tobytes()
        assert c.imag.tobytes() == grid.values_to_coefficients(im).tobytes()
    else:
        assert got.tobytes() == (_dct1(v, n) / grid.basis.v2c_divisor).tobytes()


@pytest.mark.parametrize("n", [8, 9, 129, 1025])
@pytest.mark.parametrize("complex_", [False, True])
def test_coefficients_to_values_matches_dense_cosine_sums(n, complex_):
    # n + 1 coefficients take the fold path: T_n equals T_(n-2) at the nodes;
    # on grids above DENSE_NODES, SYNTHESIS_WIDTH coefficients are the
    # longest series the cosine table takes and one more the shortest the
    # FFT does
    grid = SpectralGrid(n, -1.0, 1.0)
    rng = np.random.default_rng(10 * n + complex_)
    boundary = (SYNTHESIS_WIDTH, SYNTHESIS_WIDTH + 1) if n > SYNTHESIS_WIDTH else ()
    for size in (1, n - 1, n, n + 1, *boundary):
        c = _draw(rng, size, complex_)
        got = grid.coefficients_to_values(c)
        assert got.shape == (n,) and got.flags.c_contiguous
        assert np.abs(got - _chebyshev_table(n, size) @ c).max() <= 8 * EPS * np.abs(c).sum(), size


@pytest.mark.parametrize("n", [8, 9, 129, 1025])
def test_synthesis_table_is_the_dense_cosine_table_bit_for_bit(n):
    # one row per degree: all n up to DENSE_NODES, SYNTHESIS_WIDTH above;
    # every entry within one eps of the cosine in extended precision, where
    # the platform's long double is wider than a double
    expect = _chebyshev_table(n, _table_width(n))
    table = SpectralGrid(n, 0.0, 3.0).basis.cosines
    assert table.T.tobytes() == expect.tobytes()
    if np.finfo(np.longdouble).eps >= EPS:
        return
    m = n - 1
    angle = (np.outer(np.arange(table.shape[0]), m - np.arange(n)) % (2 * m)).astype(np.longdouble)
    exact = np.cos(np.arccos(np.longdouble(-1.0)) * angle / m)
    assert np.abs(table - exact).max() <= EPS


@pytest.mark.parametrize("n", [8, 9, 129, 1025])
def test_short_series_take_the_table_and_longer_ones_the_fft(n):
    # up to the table's width, n up to DENSE_NODES and SYNTHESIS_WIDTH above,
    # the values are one product with the table; above that, the scaled
    # DCT-I of the (folded) series
    grid = SpectralGrid(n, -1.0, 1.0)
    rng = np.random.default_rng(n)
    width = _table_width(n)
    for size in (1, width):
        c = rng.standard_normal(size)
        assert grid.coefficients_to_values(c).tobytes() == (c @ grid.basis.cosines[:size]).tobytes(), size
    if width < n:
        c = rng.standard_normal(width + 1)
        expect = _dct1(c * grid.basis.c2v_factor[: c.size], n)
        assert grid.coefficients_to_values(c).tobytes() == expect.tobytes()


@pytest.mark.parametrize("n", [8, 9, 65, 129])
def test_grids_up_to_dense_nodes_call_no_fft_once_built(n, monkeypatch):
    # both transforms, real or complex, and the fold of a series longer than
    # the grid are products with the complete cosine table; second
    # derivatives, of values, of a series one longer than the grid and of
    # cp1's Theta (its s), are products with the table of T_k'' or, for the
    # longer series, the recurrence and the folded synthesis
    grid = SpectralGrid(n, -1.0, 1.0)
    geom = make_cp1_geometry(n)
    profile = MetricProfile(geom, round_profile(geom).theta)
    monkeypatch.setattr(np.fft, "irfft", None)
    rng = np.random.default_rng(n)
    for complex_ in (False, True):
        grid.values_to_coefficients(_draw(rng, n, complex_))
        grid.differentiate_values(_draw(rng, n, complex_), 2)
        grid.second_derivative_values(_draw(rng, n + 1, complex_))
        for size in (1, n, n + 1, n + 300):
            grid.coefficients_to_values(_draw(rng, size, complex_))
    assert np.abs(profile.s.values - 2.0).max() < 1e-12  # the round cp1 metric: s = 2


@functools.lru_cache(maxsize=None)
def _second_derivative_reference(n):
    """T_k''(t_j) at the n ascending nodes for k below the table's width, in
    40-digit mpmath, as two doubles hi + lo: with t = cos(th), th = pi (m -
    j) / m, T_k'' = k (sin(k th) cos(th) - k cos(k th) sin(th)) / sin(th)^3,
    whose cancellation near the ends costs at most 5 digits, and (+-1)^k
    (k^4 - k^2) / 3 at t = +-1; the columns past m / 2 from T_k''(-t) =
    (-1)^k T_k''(t)."""
    m, rows = n - 1, _table_width(n)
    hi, lo = np.zeros((rows, n)), np.zeros((rows, n))
    with mpmath.workdps(40):
        cos = [mpmath.cospi(mpmath.mpf(a) / m) for a in range(2 * m)]
        sin = [mpmath.sinpi(mpmath.mpf(a) / m) for a in range(2 * m)]
        for j in range(n // 2 + 1):
            b = m - j
            for k in range(rows):
                if j == 0:
                    x = mpmath.mpf((-1) ** k * (k ** 4 - k ** 2)) / 3
                else:
                    a = k * b % (2 * m)
                    x = k * (sin[a] * cos[b] - k * cos[a] * sin[b]) / sin[b] ** 3
                hi[k, j] = float(x)
                lo[k, j] = float(x - hi[k, j])
    sign = np.where(np.arange(rows) % 2, -1.0, 1.0)[:, None]
    for part in (hi, lo):
        part[:, n // 2 + 1:] = sign * part[:, m - n // 2 - 1::-1]
    return hi, lo


@pytest.mark.parametrize("n", [8, 9, 65, 129, 257, 1025])
def test_second_derivative_table_matches_the_closed_form(n):
    # one row per degree, as many as the cosine table has; within eps of
    # the row's largest entry, (k^4 - k^2) / 3, where the platform's long
    # double is wider than a double (the table's running sums take it), 4
    # eps otherwise; exact at the ends, where every term is an integer
    table = SpectralGrid(n, 0.0, 3.0).basis.second
    hi, _ = _second_derivative_reference(n)
    assert table.shape == (_table_width(n), n)
    k = np.arange(table.shape[0])
    ends = (k ** 4 - k ** 2) / 3.0
    assert (table[:, -1] == ends).all() and (table[:, 0] == np.where(k % 2, -ends, ends)).all()
    bound = (EPS if np.finfo(np.longdouble).eps < EPS else 4 * EPS) * np.maximum(ends, 1.0)
    assert (np.abs(table - hi) <= bound[:, None]).all()


@pytest.mark.parametrize("n", [8, 9, 129, 1025])
def test_short_series_take_the_second_derivative_table_and_longer_ones_the_recurrence(n):
    # up to the table's width, the values are one product with the table of
    # T_k'', scaled by (2 / span)^2, complex series one part at a time; one
    # coefficient more takes derivative_coefficients and the synthesis, as
    # differentiate_values(v, 2) did before the table; differentiate_values
    # hands the chopped coefficients over
    grid = SpectralGrid(n, 0.0, 3.0)
    scale = (2.0 / 3.0) ** 2
    rng = np.random.default_rng(n)
    width = _table_width(n)
    for size in (1, 3, width):
        c, im = rng.standard_normal(size), rng.standard_normal(size)
        got = grid.second_derivative_values(c)
        assert got.tobytes() == ((c @ grid.basis.second[:size]) * scale).tobytes(), size
        z = grid.second_derivative_values(c + 1j * im)
        assert z.dtype == complex and z.flags.c_contiguous, size
        assert z.real.tobytes() == got.tobytes(), size
        assert z.imag.tobytes() == grid.second_derivative_values(im).tobytes(), size
    for c in (rng.standard_normal(width + 1), _draw(rng, width + 1, True)):
        expect = grid.coefficients_to_values(grid.derivative_coefficients(c, 2) * scale)
        assert grid.second_derivative_values(c).tobytes() == expect.tobytes()
    v = rng.standard_normal(n)
    expect = grid.second_derivative_values(chop_coefficients(grid.values_to_coefficients(v)))
    assert grid.differentiate_values(v, 2).tobytes() == expect.tobytes()


@pytest.mark.parametrize("n", [65, 129, 1025])
def test_second_derivative_table_is_as_accurate_as_the_recurrence(n):
    # over random series decaying to 1e-14 of their first coefficient, the
    # product with the table of T_k'' errs no more, on average, than
    # derivative_coefficients and the synthesis, each in units of eps times
    # the largest exact value; the exact values are the 40-digit table's hi
    # + lo times c, summed in long double, which has to be wider than a
    # double to tell the two routes' errors apart
    if np.finfo(np.longdouble).eps >= EPS:
        pytest.skip("the reference sums in long double, here no wider than a double")
    grid = SpectralGrid(n, -1.0, 1.0)
    hi, lo = _second_derivative_reference(n)
    rng = np.random.default_rng(n)
    errors = []
    for _ in range(300):
        size = int(rng.integers(3, _table_width(n) + 1))
        c = rng.standard_normal(size) * 10.0 ** (-14.0 * np.arange(size) / size)
        exact = c.astype(np.longdouble) @ hi[:size].astype(np.longdouble) + c @ lo[:size]
        unit = EPS * float(np.abs(exact).max())
        old = grid.coefficients_to_values(grid.derivative_coefficients(c, 2))
        errors.append([float(np.abs(route - exact).max()) / unit
                       for route in (grid.second_derivative_values(c), old)])
    table_mean, recurrence_mean = np.mean(errors, axis=0)
    assert table_mean <= recurrence_mean


def _mp_derivative(c):
    """d/dt of a Chebyshev series, a list of mpf: d_j = sum' 2 k c_k over k > j,
    k - j odd, the j = 0 term halved (Mason & Handscomb, 2003)."""
    d = [mpmath.mpf(0)] * (len(c) + 1)
    for j in range(len(c) - 2, -1, -1):
        d[j] = d[j + 2] + 2 * (j + 1) * c[j + 1]
    d[0] /= 2
    return d[: max(len(c) - 1, 1)]


def _mp_euler(c, a):
    """(y d/dy + a) c: (t + 1) T_n' = n T_n + 2 n sum'_(j < n) T_j."""
    out, tail = [None] * len(c), mpmath.mpf(0)
    for j in range(len(c) - 1, -1, -1):
        out[j] = (j + a) * c[j] + (tail if j == 0 else 2 * tail)
        tail += j * c[j]
    return out


def _mp_solve_euler(c, a):
    """The inverse of _mp_euler, by back substitution."""
    v, tail = [None] * len(c), mpmath.mpf(0)
    for j in range(len(c) - 1, -1, -1):
        v[j] = (c[j] - (tail if j == 0 else 2 * tail)) / (j + a)
        tail += j * v[j]
    return v


def _mp_times_t_plus_1(c):
    """(t + 1) c: t T_0 = T_1 and t T_n = (T_(n+1) + T_(n-1)) / 2."""
    out = list(c) + [mpmath.mpf(0)]
    for n, x in enumerate(c):
        out[n + 1] += x / 2
        out[abs(n - 1)] += x / 2
    return out


@functools.lru_cache(maxsize=None)
def _euler_table_reference(kind, k):
    """The map of curvature_table (kind "Q": d^2/dt^2, then E_a^-1 for a in
    {1, 2} - {k + 1, k + 2} and E_a for a in {k + 1, k + 2} - {1, 2}) or of
    profile_table ("B": E_(k+1)^-1, E_(k+2)^-1, then (t + 1) twice), run as
    recurrences in 40-digit mpmath on each T_n, n < DENSE_NODES + 1, as two
    doubles hi + lo."""
    width = DENSE_NODES + 1
    rows = width - 2 if kind == "Q" else width + 2
    hi, lo = np.zeros((rows, width)), np.zeros((rows, width))
    with mpmath.workdps(40):
        for n in range(width):
            c = [mpmath.mpf(0)] * n + [mpmath.mpf(1)]
            if kind == "Q":
                c = _mp_derivative(_mp_derivative(c))
                for a in sorted({1, 2} - {k + 1, k + 2}):
                    c = _mp_solve_euler(c, a)
                for a in sorted({k + 1, k + 2} - {1, 2}):
                    c = _mp_euler(c, a)
            else:
                c = _mp_times_t_plus_1(_mp_times_t_plus_1(_mp_solve_euler(_mp_solve_euler(c, k + 1), k + 2)))
            for j, x in enumerate(c[:rows]):
                hi[j, n] = float(x)
                lo[j, n] = float(x - hi[j, n])
    return hi, lo


@pytest.mark.parametrize("k", [1, 2, 3])
def test_curvature_table_is_the_exact_integer_map(k):
    # every entry of Q_k is an integer, the 40-digit recurrence's to the bit
    table = curvature_table(k)[:, ::-1]
    hi, lo = _euler_table_reference("Q", k)
    assert table.shape == (DENSE_NODES - 1, DENSE_NODES + 1)
    assert (lo == 0).all() and np.array_equal(table, hi)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_profile_table_matches_the_recurrence_in_40_digits(k):
    # within eps of each column's largest entry where the platform's long
    # double is wider than a double (the band and the first rows sum in
    # it), 4 eps otherwise; zero wherever the map is, below the second
    # subdiagonal
    table = profile_table(k)[:, ::-1]
    hi, _ = _euler_table_reference("B", k)
    assert table.shape == (DENSE_NODES + 3, DENSE_NODES + 1)
    assert not np.tril(table, -3).any()
    bound = (EPS if np.finfo(np.longdouble).eps < EPS else 4 * EPS) * np.abs(hi).max(axis=0)
    assert (np.abs(table - hi) <= bound).all()


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_euler_tables_are_as_accurate_as_the_recurrences(k):
    # over random series decaying to 1e-14 of their first coefficient, the
    # product of each table's last L columns (descending degree) with the
    # reversed series errs no more, on average, than the recurrences it
    # replaces (derivative_coefficients and the Euler
    # operators for s on CP^m, solve_euler and times_t_plus_1 for
    # from_curvature), in units of eps times the largest exact coefficient;
    # the exact ones are the 40-digit table's hi + lo times c, summed in long
    # double, which has to be wider than a double to tell the routes apart
    if np.finfo(np.longdouble).eps >= EPS:
        pytest.skip("the reference sums in long double, here no wider than a double")

    def curvature_recurrence(c):
        c = derivative_coefficients(c, 2)
        for a in {1, 2} - {k + 1, k + 2}:
            c = solve_euler(c, a)
        for a in {k + 1, k + 2} - {1, 2}:
            c = euler_coefficients(c, a)
        return c

    def profile_recurrence(c):
        return times_t_plus_1(times_t_plus_1(solve_euler(solve_euler(c, k + 1), k + 2)))

    routes = [("B", profile_table(k), 2, profile_recurrence)]
    if k:
        routes.append(("Q", curvature_table(k), -2, curvature_recurrence))
    rng = np.random.default_rng(k)
    for kind, table, extra, recurrence in routes:
        hi, lo = _euler_table_reference(kind, k)
        errors = []
        for _ in range(200):
            size = int(rng.integers(3, DENSE_NODES + 2))
            c = rng.standard_normal(size) * 10.0 ** (-14.0 * np.arange(size) / size)
            rows = size + extra
            exact = hi[:rows, :size].astype(np.longdouble) @ c.astype(np.longdouble) + lo[:rows, :size] @ c
            unit = EPS * float(np.abs(exact).max())
            errors.append([float(np.abs(route - exact).max()) / unit
                           for route in (table[:rows, -size:] @ c[::-1].copy(), recurrence(c))])
        table_mean, recurrence_mean = np.mean(errors, axis=0)
        assert table_mean <= recurrence_mean, kind


@pytest.mark.parametrize("k", [0, 2])
def test_euler_tables_are_built_once_per_k_read_only(k):
    # one table per k, whatever asks for it, frozen by its builder (a
    # geometry's cached field would freeze it too, so a fresh build, past
    # the cache, is what shows it)
    builders = [profile_table] + ([curvature_table] if k else [])
    for build in builders:
        assert build(k) is build(k)
        for table in (build(k), build.__wrapped__(k)):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = table[0, 0]


def test_solve_euler_solves_the_columns_of_a_stack_in_their_precision():
    # a 2-D array is a stack of series, one per column, each solved as the
    # 1-D route solves it, bit for bit, and a long double one stays long double
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((9, 4))
    got = solve_euler(stack, 2.5)
    for col in range(4):
        assert got[:, col].tobytes() == solve_euler(stack[:, col].copy(), 2.5).tobytes()
    assert solve_euler(stack.astype(np.longdouble), 3).dtype == np.longdouble
    assert times_t_plus_1(stack.astype(np.longdouble)).dtype == np.longdouble


@pytest.mark.parametrize("n", [8, 9, 129, 1025])
def test_dct1_is_hfft_bit_for_bit(n):
    # the unscaled irfft is what np.fft.hfft computes, without its
    # conjugated copy of the input
    rng = np.random.default_rng(n)
    for size in (1, n // 2, n):
        v = rng.standard_normal(size)
        assert _dct1(v, n).tobytes() == np.fft.hfft(v, 2 * (n - 1))[:n].tobytes()


@pytest.mark.parametrize("n", [8, 9, 129, 1025])
def test_complex_dct1_is_the_dct1_of_each_part_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for size in (1, n // 2, n):
        v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        got = _dct1(v, n)
        expect = _dct1(v.real, n) + 1j * _dct1(v.imag, n)
        assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("n", [8, 9, 129, 1025])
def test_complex_synthesis_is_the_synthesis_of_each_part_bit_for_bit(n):
    # either route, table or FFT, synthesises the real and imaginary parts
    # on their own, so each equals the synthesis of that part alone
    grid = SpectralGrid(n, -1.0, 1.0)
    rng = np.random.default_rng(n)
    for size in (1, SYNTHESIS_WIDTH, SYNTHESIS_WIDTH + 1):
        c = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        got = grid.coefficients_to_values(c)
        assert got.dtype == c.dtype and got.flags.c_contiguous, size
        assert got.real.tobytes() == grid.coefficients_to_values(c.real).tobytes(), size
        assert got.imag.tobytes() == grid.coefficients_to_values(c.imag).tobytes(), size


@pytest.mark.parametrize("n", [8, 9, 129, 1025])
def test_endpoint_slopes_of_a_series_one_longer_than_the_grid(n):
    # a profile built in coefficient space carries up to n + 1 coefficients
    grid = SpectralGrid(n, 0.0, 2.0)
    rng = np.random.default_rng(n)
    for size in (1, n, n + 1):
        c = rng.standard_normal(size) / np.arange(1, size + 1) ** 3
        dc = C.chebder(c) if size > 1 else np.zeros(1)
        expect = (C.chebval(-1.0, dc), C.chebval(1.0, dc))  # d/dx = d/dt on span 2
        scale = (np.arange(size) ** 2 * np.abs(c)).sum()
        for got, ref in zip(grid.endpoint_slopes(c), expect):
            assert abs(got - ref) <= 8 * EPS * scale, size


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


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("complex_", [False, True])
def test_derivative_of_order_k_is_k_first_derivatives(order, complex_):
    # d_0 is halved once, after the last pass: a pass reads only d[1:] of
    # the last, so order k gives the bits of k order-1 passes, each halving
    # its own d_0; sizes 1..order take the early exit to [0]
    rng = np.random.default_rng(order + 10 * complex_)
    for size in range(1, 41):
        c = rng.standard_normal(size)
        if complex_:
            c = c + 1j * rng.standard_normal(size)
        c.setflags(write=False)
        got, passes = derivative_coefficients(c, order), c
        for _ in range(order):
            passes = derivative_coefficients(passes)
        assert got.dtype == c.dtype and got.tobytes() == passes.tobytes(), size
        expect = C.chebder(c, order)
        assert got.shape == expect.shape, size
        assert np.abs(got - expect).max() <= 1e-14 * max(np.abs(expect).max(), 1.0), size


@pytest.mark.parametrize("dtype", [float, complex])
def test_derivative_of_a_series_of_lower_degree_is_zero(dtype):
    # degree size - 1 below order: [0] at once, in the input's dtype; the
    # input is read-only, as cached coefficients are, so a write would raise
    for order in (1, 2, 3):
        for size in range(1, order + 1):
            c = np.arange(1.0, size + 1.0).astype(dtype)
            c.setflags(write=False)
            got = derivative_coefficients(c, order)
            assert got.dtype == c.dtype and got.tobytes() == np.zeros(1, dtype).tobytes(), (order, size)


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


def test_pivoted_lu2_agrees_with_linalg_solve():
    rng = np.random.default_rng(17)
    for _ in range(500):
        m = rng.standard_normal((2, 2)) * 10.0 ** rng.uniform(-5, 5)
        _assert_solves_like_lapack(m, rng.standard_normal(2))


@pytest.mark.parametrize("c", [1e150, 1e-150])
def test_pivoted_lu2_on_scaled_jacobians(c):
    # Newton's Jacobians span these scales (test_scaled_jacobian_is_not_refused)
    rng = np.random.default_rng(int(np.log10(c)) + 200)
    for _ in range(100):
        _assert_solves_like_lapack(rng.standard_normal((2, 2)) * c, rng.standard_normal(2))


@pytest.mark.parametrize("r", [1e-14, 3e-13, 8e-13, 1.25e-12, 3e-12, 1e-11])
def test_pivoted_lu2_near_the_rank_threshold(r):
    # singular value ratios around solver.RANK_TOL = 1e-12
    rng = np.random.default_rng(int(r * 1e16))
    for _ in range(50):
        t1, t2 = rng.uniform(0.0, 2.0 * np.pi, 2)
        m = _rotation(t1) @ np.diag([1.0, r]) @ _rotation(t2) * 10.0 ** rng.uniform(-3, 3)
        _assert_solves_like_lapack(m, rng.standard_normal(2))


def test_pivoted_lu2_pivots_on_the_larger_entry():
    # no pivoting would divide by the 1e-20 entry and lose b's solution
    u, v = PivotedLU2(1e-20, 1.0, 1.0, 1.0).solve(1.0, 2.0)
    assert abs(u - 1.0) <= EPS and abs(v - 1.0) <= EPS
    # on a tie the first row stays the pivot, as LAPACK's getrf (idamax takes
    # the first largest entry) keeps it
    assert not PivotedLU2(-1.0, 2.0, 1.0, 3.0).swap
    assert PivotedLU2(1.0, 2.0, -1.5, 3.0).swap


@pytest.mark.parametrize("lo, k", [(-1.0, 0), (0.0, 1), (0.0, 2), (0.0, 3)])
def test_factored_projector_matches_a_fresh_solve(lo, k):
    grid = get_grid(129, lo, 1.0)
    x = grid.x
    w = (x - lo) ** k
    qw = grid.quad_weights * w
    gram = np.array([[qw @ (x * x), qw @ x], [qw @ x, qw.sum()]])
    cond = np.linalg.cond(gram)
    proj = AffineProjector(grid.quad_weights * w, grid.x)
    for psi in (np.exp(x), np.cos(3.0 * x) + 1j * x ** 3):
        ref = np.linalg.solve(gram, np.array([qw @ (x * psi), qw @ psi]))
        got = np.array(proj.coefficients(psi))
        assert got.dtype == ref.dtype
        assert np.abs(got - ref).max() <= SOLVE_ROUNDOFFS * EPS * cond * np.abs(ref).max()


def test_affine_projection_residual_zero_iff_affine():
    grid = get_grid(129, -1.0, 1.0)
    w = np.ones(grid.n)
    a, b, res = AffineProjector(grid.quad_weights * w, grid.x).project(3.0 * grid.x - 1.5)
    assert abs(a - 3.0) < 1e-12 and abs(b + 1.5) < 1e-12
    assert res <= 1e-12
    _, _, res2 = AffineProjector(grid.quad_weights * w, grid.x).project(grid.x ** 2)
    assert res2 > 1e-3


def test_affine_projection_complex_componentwise():
    grid = get_grid(129, -1.0, 1.0)
    psi = (1.0 + 2.0j) * grid.x + (0.5 - 1.0j)
    a, b, res = AffineProjector(grid.quad_weights, grid.x).project(psi)
    assert abs(a - (1.0 + 2.0j)) < 1e-12
    assert abs(b - (0.5 - 1.0j)) < 1e-12
    assert res <= 1e-12


def test_affine_projection_rejects_degenerate_weight():
    grid = get_grid(129, -1.0, 1.0)
    with pytest.raises(DegenerateWeight):
        AffineProjector(np.zeros(grid.n), grid.x).project(grid.x)
    # a weight below zero at one node is not a measure; -1e-14 is rounding
    w = np.ones(grid.n)
    w[7] = -1e-3
    with pytest.raises(DegenerateWeight, match="nonnegative"):
        AffineProjector(grid.quad_weights * w, grid.x)
    w[7] = -1e-14
    AffineProjector(grid.quad_weights * w, grid.x)


@pytest.mark.parametrize("node", [0, 5, 64, 128])
def test_affine_projection_rejects_weight_on_one_node(node):
    # one point does not fix a line: any (alpha, beta) through it fits
    grid = get_grid(129, -1.0, 1.0)
    w = np.zeros(grid.n)
    w[node] = 1.0
    with pytest.raises(DegenerateWeight):
        AffineProjector(grid.quad_weights * w, grid.x).project(grid.x ** 2)


@pytest.mark.parametrize("lo, nodes", [(100.0, [0, 1]), (100.0, [0, 2]), (1000.0, [0, 5]), (-1.0, [0, 1])])
def test_affine_projection_degeneracy_is_relative_to_the_second_moment(lo, nodes):
    # a weight on two nodes a, b with mass fractions p, 1 - p has unit-mass
    # moments m2 = p a^2 + (1 - p) b^2 and Gram determinant p (1 - p) (a - b)^2;
    # it is degenerate when that is at most DEGENERATE_REL m2, so two nodes
    # 1e-4 apart are degenerate at x = 100 and not at x = -1
    grid = get_grid(129, lo, lo + 1.0)
    w = np.zeros(grid.n)
    w[nodes] = 1.0
    (a, b), (qa, qb) = grid.x[nodes], grid.quad_weights[nodes]
    p = qa / (qa + qb)
    ratio = p * (1 - p) * (a - b) ** 2 / (p * a * a + (1 - p) * b * b)
    assert not 2 / 3 < ratio / DEGENERATE_REL < 1.5  # away from the threshold
    if ratio <= DEGENERATE_REL:
        with pytest.raises(DegenerateWeight, match="degenerate normal equations"):
            AffineProjector(grid.quad_weights * w, grid.x)
    else:
        AffineProjector(grid.quad_weights * w, grid.x)


def test_affine_projection_accepts_tiny_weight_on_two_nodes():
    # two points fix the line, however small their weight
    grid = get_grid(129, -1.0, 1.0)
    w = np.zeros(grid.n)
    w[[5, 40]] = 1e-200
    a, b, _ = AffineProjector(grid.quad_weights * w, grid.x).project(3.0 * grid.x - 1.5)
    assert abs(a - 3.0) < 1e-12 and abs(b + 1.5) < 1e-12
    a, b, _ = AffineProjector(grid.quad_weights * w, grid.x).project(grid.x ** 2)  # the chord through both points
    x5, x40 = grid.x[5], grid.x[40]
    assert abs(a - (x5 + x40)) < 1e-12 and abs(b + x5 * x40) < 1e-12


def test_chop_coefficients_drops_roundoff_plateau():
    c = np.array([1.0, 0.5, 1e-20, 1e-21, 0.0])
    kept = chop_coefficients(c)
    assert kept.size == 2 and np.shares_memory(kept, c)  # a slice, not a copy
    assert chop_coefficients(np.zeros(5)).size == 1


def test_chop_keeps_each_part_of_complex_data():
    # a + 1e-30j b with a = x^2 + 1 (3 coefficients) and b = x^6 - x^3 (7):
    # against max |c|, b's whole series would sit below the chop of a
    grid = get_grid(129, -1.0, 1.0)
    x = grid.x
    b = x ** 6 - x ** 3
    c = x ** 2 + 1.0 + 1e-30j * b
    assert chop_coefficients(grid.values_to_coefficients(c)).size == 7
    assert chop_coefficients(grid.values_to_coefficients(b)).size == 7
    want = 1e-30 * (30.0 * x ** 4 - 6.0 * x)  # Im of c''
    assert np.abs(grid.differentiate_values(c, 2).imag - want).max() <= 1e-12 * np.abs(want).max()


def test_sampled_function_rejects_bad_values():
    grid = get_grid(33, -1.0, 1.0)
    assert isinstance(SampledFunction(grid, [0.5] * grid.n).values, np.ndarray)  # a list becomes an array
    with pytest.raises(ValueError):
        SampledFunction(grid, np.ones(5))
    bad = np.ones(grid.n)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        SampledFunction(grid, bad)


# Reference bodies: the recurrences that sum k c_k and double afterwards,
# and the chop by .nonzero(), of each part of complex data on its own.  The
# library sums the doubled terms, and as scaling by 2 is exact it must match
# these bit for bit.
def _derivative_coefficients_reference(coeffs, order=1):
    d = np.asarray(coeffs)
    if order and d.size <= order:
        return np.zeros(1, dtype=d.dtype)
    for _ in range(order):
        kc = np.arange(1, d.size) * d[1:]
        d = np.empty_like(kc)
        d[::2] = kc[::2][::-1].cumsum()[::-1]
        d[1::2] = kc[1::2][::-1].cumsum()[::-1]
        d[1:] *= 2.0
    return d


def _euler_coefficients_reference(coeffs, a):
    c = np.asarray(coeffs)
    n = np.arange(c.size)
    tail = np.zeros(c.size, dtype=np.result_type(c, float))
    tail[:-1] = (n * c)[:0:-1].cumsum()[::-1]
    tail[1:] *= 2.0
    return (n + a) * c + tail


def _chop_coefficients_reference(c):
    if np.iscomplexobj(c):
        return c[: max(_chop_coefficients_reference(c.real).size, _chop_coefficients_reference(c.imag).size)]
    mag = np.abs(c)
    top = mag.max()
    if top == 0.0:
        return c[:1]
    keep = (mag > CHOP_REL * top).nonzero()[0]
    return c[: keep[-1] + 1]


def _assert_same_bits(got, ref, case):
    assert got.shape == ref.shape and got.dtype == ref.dtype, case
    assert np.array_equal(got, ref) and got.tobytes() == ref.tobytes(), case  # -0.0 included


def _wide_series(rng, size, complex_):
    """Coefficients whose magnitudes span 60 decades, so that every sum
    rounds."""
    c = rng.standard_normal(size) * 10.0 ** rng.uniform(-30.0, 30.0, size)
    if complex_:
        c = c + 1j * rng.standard_normal(size) * 10.0 ** rng.uniform(-30.0, 30.0, size)
    return c


@pytest.mark.parametrize("complex_", [False, True])
def test_derivative_and_euler_coefficients_match_the_reference_bit_for_bit(complex_):
    rng = np.random.default_rng(23 + complex_)
    for size in range(1, 1027):
        c = _wide_series(rng, size, complex_)
        c.setflags(write=False)
        for order in range(4):
            _assert_same_bits(derivative_coefficients(c, order), _derivative_coefficients_reference(c, order),
                              (size, order))
        for a in np.arange(1, 11) / 2.0:  # 0.5, 1, ..., 5
            _assert_same_bits(euler_coefficients(c, a), _euler_coefficients_reference(c, a), (size, a))


@pytest.mark.parametrize("complex_", [False, True])
def test_chop_coefficients_matches_the_reference_as_a_view(complex_):
    rng = np.random.default_rng(7 + complex_)
    dtype = complex if complex_ else float
    cases = [np.zeros(5), np.zeros(1), np.array([0.0, 0.0, 3.0]), np.array([2.5]), np.array([1.0, 0.5, 1e-20, 1e-21, 0.0])]
    cases = [c.astype(dtype) for c in cases]
    for size in range(1, 1027):
        # a decaying series whose tail sits on a roundoff plateau
        decay = np.exp(-np.arange(size) / 4.0)
        parts = [rng.standard_normal(size) * decay + 1e-17 * rng.standard_normal(size) for _ in range(1 + complex_)]
        cases.append(parts[0] + 1j * parts[1] if complex_ else parts[0])
    for c in cases:
        got = chop_coefficients(c)
        _assert_same_bits(got, _chop_coefficients_reference(c), c.size)
        assert got.base is c  # a leading slice of its input, not a copy


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan), complex(np.inf, 0.0)])
@pytest.mark.parametrize("where", [0, 3])
def test_chop_coefficients_refuses_a_non_finite_series(bad, where):
    c = np.array([1.0, 0.5, 1e-20, 0.25, 0.0], dtype=complex if isinstance(bad, complex) else float)
    c[where] = bad
    with pytest.raises(NonFiniteError):
        chop_coefficients(c)


@pytest.mark.parametrize("n", [9, 33, 65, 100, 129])
def test_the_weighted_table_is_the_weighted_product_bit_for_bit(n):
    # the table route takes one product with the cosine table weighted by
    # w = 1 at the ends and 2 inside: T_kj w_j and w_j v_j are exact, so
    # every term, and so every sum, is the product with the weighted values
    # bit for bit; complex values one part at a time
    grid = SpectralGrid(n, 0.0, 1.0)
    basis = grid.basis
    w = _dct1_weights(n)
    assert basis.v2c_table.tobytes() == (basis.cosines * w).tobytes()
    rng = np.random.default_rng(1000 + n)
    for scale in (1.0, 1e-300, 1e300):
        v = scale * rng.standard_normal(n)
        im = scale * rng.standard_normal(n)
        expect, expect_im = ((basis.cosines @ (u * w)) / basis.v2c_divisor for u in (v, im))
        assert grid.values_to_coefficients(v).tobytes() == expect.tobytes(), scale
        got = grid.values_to_coefficients(v + 1j * im)
        assert got.real.tobytes() == expect.tobytes() and got.imag.tobytes() == expect_im.tobytes(), scale


@pytest.mark.parametrize("n", [129, 257])
@pytest.mark.parametrize("where", [1, 64])
def test_one_value_near_the_float_limit_is_refused_on_either_route(n, where):
    # 0.9e308 at one interior node is finite, but twice it is not: c_0
    # sums 2 v_j on the table route, whose table holds the weights, and on
    # the FFT route, so the coefficients are refused by name
    grid = SpectralGrid(n, -1.0, 1.0)
    v = 1.0 - grid.t ** 2
    v[where] = 0.9e308
    with np.errstate(over="ignore", invalid="ignore"):
        c = grid.values_to_coefficients(v)
    with pytest.raises(NonFiniteError, match="^non-finite Chebyshev coefficients$"):
        chop_coefficients(c)


@pytest.mark.parametrize("n", [129, 257])
def test_values_that_overflow_the_transform_are_non_finite_coefficients(n):
    # every value is finite, but 1.7e308 at ten interior nodes overflows
    # the weighted sum on either route, table or FFT, so the coefficients
    # are refused by name; the divisor folded into the analysis table too
    # would keep them finite and defer the failure to whatever synthesises
    # them
    grid = SpectralGrid(n, -1.0, 1.0)
    v = 1.0 - grid.t ** 2
    v[11:21] = 1.7e308
    with np.errstate(over="ignore", invalid="ignore"):
        c = grid.values_to_coefficients(v)
    with pytest.raises(NonFiniteError, match="^non-finite Chebyshev coefficients$"):
        chop_coefficients(c)


@pytest.mark.parametrize("complex_", [False, True])
def test_sampled_values_are_refused_exactly_when_one_is_not_finite(complex_):
    # the test is elementwise: finite values whose sum overflows pass with
    # no warning (RuntimeWarning is an error here), and a NaN, an infinity
    # or two opposite infinities at any node are refused
    grid = SpectralGrid(9, -1.0, 1.0)
    unit = 1j if complex_ else 1.0
    big = np.full(9, 1e308) * unit
    assert SampledFunction(grid, big).values is big  # the sum overflows; every value is finite
    for bad in (np.nan, np.inf, -np.inf):
        for where in (0, 4, 8):
            v = np.linspace(-1.0, 1.0, 9) * unit
            v[where] = bad * unit if complex_ else bad
            with pytest.raises(NonFiniteError, match="^non-finite sample values$"):
                SampledFunction(grid, v)
    v = np.linspace(-1.0, 1.0, 9) * unit
    v[[2, 5]] = (np.inf, -np.inf)  # they cancel to NaN
    with pytest.raises(NonFiniteError):
        SampledFunction(grid, v)


class _Counted:
    def __init__(self):
        self.calls = 0

    @cached_field
    def square(self):
        """The square of the call count."""
        self.calls += 1
        return self.calls ** 2


@dataclass(frozen=True)
class _Frozen:
    x: float

    @cached_field
    def doubled(self):
        return [2.0 * self.x]  # a fresh object per computation


def test_cached_field_computes_once_per_instance_into_its_dict():
    a, b = _Counted(), _Counted()
    assert (a.square, a.square, b.square, a.square) == (1, 1, 1, 1)
    assert a.calls == b.calls == 1
    assert a.__dict__["square"] == 1 and "square" in b.__dict__


def test_cached_field_on_the_class_is_the_descriptor():
    field_ = _Counted.square
    assert isinstance(field_, cached_field) and field_ is _Counted.__dict__["square"]
    assert field_.func.__name__ == "square" and field_.__doc__ == "The square of the call count."


def test_cached_field_works_on_frozen_dataclasses():
    f = _Frozen(1.5)
    first = f.doubled
    assert first == [3.0] and f.doubled is first and f.__dict__["doubled"] is first
    assert f == _Frozen(1.5) and hash(f) == hash(_Frozen(1.5))  # the cache is not a field


def test_cached_field_reads_a_preset_slot():
    a = _Counted()
    a.__dict__["square"] = -4
    assert a.square == -4 and a.calls == 0


class _Arrays:
    @cached_field
    def ramp(self):
        return np.arange(3.0)


def test_cached_field_caches_arrays_read_only_without_a_copy():
    # computed or preset, an ndarray is cached itself, made read-only; other
    # values are cached as they are
    a, b, given = _Arrays(), _Arrays(), np.ones(2)
    assert _Arrays.ramp.preset(b, given) is given and b.ramp is given
    for arr in (a.ramp, b.ramp):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 2.0
    assert _Arrays.ramp.preset(a, [1.0]) == [1.0] and a.ramp == [1.0]
