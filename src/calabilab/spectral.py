"""Spectral-calculus kernel on Chebyshev-Gauss-Lobatto grids.

A ChebyshevBasis holds what a grid of n nodes needs that depends on n
alone: the nodes t, the cosine table T_k(t_j), the table of T_k''(t_j),
the Clenshaw-Curtis weights on [-1, 1], the transform divisor with the
table route's weights or the FFT route's factor, and the tables of k, 2 k
and the endpoint slopes.  chebyshev_basis builds one per n, and a
SpectralGrid is that basis and an interval: its own arrays are its nodes x
and its quadrature weights.

Both transforms are cosine sums over the nodes (Trefethen, Approximation
Theory and Approximation Practice, 2013, ch. 3), taken as one product with
the cosine table or through one FFT DCT-I, an unscaled np.fft.irfft, which
pads and evenly extends its input itself (Chebfun's vals2coeffs /
coeffs2vals), in O(N log N).  Each call tests the table's shape: values to
coefficients takes the table when it is complete, n up to DENSE_NODES, and
a series of L coefficients, folded first if L > n, takes it when L is at
most its rows, SYNTHESIS_WIDTH above DENSE_NODES; second derivatives at
the nodes take the T_k'' table likewise and the recurrence otherwise.
Complex data goes one part at a time, and every route returns a new
contiguous array, so sums over it run in numpy's pairwise order.
Theta <-> s on every geometry is one product with a per-k table
(curvature_table Q_k, profile_table B_k).  The rest of the calculus runs
on chopped coefficients: derivative and antiderivative coefficients are
O(L) recurrences (Mason & Handscomb, Chebyshev Polynomials, 2003), and the
scale-free Euler operator E_a = y d/dy + a, y = x - lo, and its inverse
solve_euler carry every weight y^k, so nothing divides by x - lo.  A call
is a few dozen small array steps: it calls numpy's array methods, not the
wrappers around them, and copies nothing it only reads.
Shared arrays are read-only, by this module alone: a basis and a grid
freeze theirs, the per-k builders theirs, SampledFunction the array it is
handed and cached_field each ndarray it caches or is preset with.  A grid
serves every geometry on its interval, and a profile reads its cached
fields from its Theta once, so a write would leave them stale: it raises
ValueError.  Nothing is copied; a caller gives up what it hands over.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateWeight, NonFiniteError

CHOP_REL = 1e-14
DEGENERATE_REL = 1e-12  # Gram determinant over g00 g11 at or below this: degenerate weight
MIN_NODES = 8
MAX_NODES = 2049  # the reach of the cosine table's 0.61 eps bound and of the tests
SYNTHESIS_WIDTH = 64
"""Rows of the cosine and T_k'' tables above DENSE_NODES.  Per call (minimum
over repeats, one BLAS thread) the product with the table is the cheaper
below L = 112-128 coefficients at N = 513 and 1025 and up to L = 128 at
N = 257, where the DCT-I costs the same whatever L; W = 64 keeps it at 0.6
of the FFT's cost or less at every N, for a table of 8 n W bytes (0.5 MB at
N = 1025).  Nearly all the chopped series of a solve or an EL report are
this short."""
DENSE_NODES = 129
"""Largest grid whose cosine table is complete, all n rows, so that both
transforms are one product with it and the grid calls no FFT once built.
Per call (minimum over repeats, one BLAS thread) the dense values ->
coefficients product takes 2.0 us against the FFT's 5.3 us at N = 65 and
3.7 against 5.9 us at N = 129, but 10.1 against 7.4 us at N = 257 and 48
against 10 us at N = 513: the crossover lies between 129 and 257.  The
cosine table and the table of T_k'' are 8 n^2 bytes each, 266 KB together
at N = 129."""


def _cosines(m: int, pi) -> np.ndarray:
    """cos(pi a / m), a = 0..m, in the precision of pi, each angle reduced
    exactly, on the integers, to a quarter wave: cos(pi a / m) =
    -cos(pi (m - a) / m), and past pi / 4 a cosine is the sine of the
    complement."""
    a = np.arange(m + 1)
    b = 2 * np.minimum(a, m - a)  # cos(pi a / m) = +-cos(pi b / (2 m)), b <= m
    return np.where(2 * a > m, -1.0, 1.0) * np.where(
        2 * b > m, np.sin(pi * (m - b) / (2 * m)), np.cos(pi * b / (2 * m)))


def _dct1(v: np.ndarray, n: int) -> np.ndarray:
    """Unnormalised DCT-I of length n = m + 1, v_0 + (-1)^k v_m +
    2 sum_{0<j<m} v_j cos(pi j k / m) for k = 0..m, of v (at most n
    entries, zero-padded to n).  The unscaled (norm="forward") inverse real
    FFT of the half spectrum v is this sum: it pads v and extends it evenly
    itself, so no extension or buffer is built here; np.fft.hfft is the
    same call on a conjugated copy of v.  Complex v goes through the same
    call as two stacked real rows."""
    if v.dtype.kind == "c":
        y = np.fft.irfft(np.array([v.real, v.imag]), 2 * (n - 1), norm="forward")
        return y[0, :n] + 1j * y[1, :n]
    return np.fft.irfft(v, 2 * (n - 1), norm="forward")[:n]


def _by_part(real_map, z: np.ndarray, *args) -> np.ndarray:
    """real_map(z, *args) for complex z, one part at a time, each part bit
    for bit real_map of that part alone: a table product makes no complex
    copy of its table, and no part is divided or scaled in complex
    arithmetic, which takes a reciprocal (dividing complex values by the
    real divisor changed a quarter of the bits)."""
    real, imag = real_map(z.real, *args), real_map(z.imag, *args)
    out = np.empty(real.shape, dtype=z.dtype)
    out.real, out.imag = real, imag
    return out


def _freeze(owner) -> None:
    """Make every ndarray among owner's attributes read-only."""
    for value in vars(owner).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)


class ChebyshevBasis:
    """The arrays of a grid of n CGL nodes that depend on n alone, read-only;
    chebyshev_basis keeps one per n for the grids of every interval.

    t holds the ascending nodes on [-1, 1].  cosines and second hold
    T_k(t_j) and T_k''(t_j), one row per k, all n rows up to n =
    DENSE_NODES and SYNTHESIS_WIDTH above.  T_k(t_j) = cos(pi a / m), a = k
    (m - j) mod 2m, is gathered from the n values of _cosines, so every
    entry is within 0.61 eps of T_k(t_j) (n up to 2049), where the cosine
    of pi a / m itself is up to 4.8 eps off, which made the Futaki integral
    on cp1, zero in exact arithmetic, 7 times larger.  second sums T_k'' =
    k sum' (k^2 - i^2) T_i (i < k, k - i even, the T_0 term halved) as two
    running sums down each parity strand, P_k = sum' T_i over i <= k and
    g_(k+2) = g_k + (4k + 4) P_k, with T_k'' = k g_k, in long double from
    long double cosines, and rounds once: every entry is within eps of the
    row's largest, (k^4 - k^2) / 3 at t = 1, exactly so at the ends, where
    every term is an integer.  Elementwise, so no BLAS thread starts.  It
    takes the columns j <= m / 2 and the rest from T_k''(-t) = (-1)^k
    T_k''(t).  clenshaw_curtis holds the quadrature weights, the DCT-I of
    the moments int T_k = 2 / (1 - k^2) (k even, 0 for k odd; Waldvogel,
    BIT 46, 2006), which is symmetric, so it needs no reversal."""

    def __init__(self, n: int):
        m, h = n - 1, n // 2 + 1
        self.t = -np.cos(np.pi * np.arange(n) / m)
        k = np.arange(n if n <= DENSE_NODES else SYNTHESIS_WIDTH)
        angle = np.outer(k, m - np.arange(n)) % (2 * m)
        index = np.minimum(angle, 2 * m - angle)
        p = _cosines(m, np.arccos(np.longdouble(-1.0)))[index[:, :h]]
        p[0] *= 0.5
        degree = k[:, None].astype(np.longdouble)
        for strand in (p[0::2], p[1::2]):  # P_k
            np.add.accumulate(strand, out=strand)
        p *= 4.0 * degree + 4.0
        for strand in (p[0::2], p[1::2]):  # g_(k+2)
            np.add.accumulate(strand, out=strand)
        self.second = np.zeros((k.size, n))
        np.multiply(p[:-2], degree[2:], out=self.second[2:, :h], casting="same_kind")
        self.second[:, h:] = self.second[:, m - h::-1] * np.where(k % 2, -1.0, 1.0)[:, None]
        self.cosines = _cosines(m, np.pi)[index]  # last, so that no temporary above coexists with it
        ends = np.arange(n) % m == 0  # j = 0 and j = m
        moments = np.zeros(n)
        moments[::2] = 2.0 / (1.0 - np.arange(0, n, 2) ** 2)
        self.clenshaw_curtis = _dct1(moments, n) / m * np.where(ends, 0.5, 1.0)
        # values_to_coefficients divides by m, doubled at both ends, so c_0
        # and c_m are halved exactly.  The complete cosine table carries the
        # sign (-1)^k of the ascending nodes itself, and its route weights
        # the values by 2 inside the ends and 1 at them, as the DCT-I does.
        # The DCT-I runs over the nodes in descending t, where T_k(t_j) =
        # cos(pi j k / m), so the FFT routes fold (-1)^k into their tables.
        sign = np.where(np.arange(n + 1) % 2, -1.0, 1.0)  # (-1)^k, k = 0..n
        self.v2c_divisor = np.where(ends, 2.0, 1.0) * m
        if k.size == n:
            self.v2c_weights = np.where(ends, 1.0, 2.0)
        else:
            self.v2c_divisor *= sign[:n]
            # coefficients_to_values scales c_k by (-1)^k, halved inside
            self.c2v_factor = np.where(ends, 1.0, 0.5) * sign[:n]
        # The recurrence weights k and 2 k, and T_k'(1) = k^2 and T_k'(-1) =
        # (-1)^(k+1) k^2, n + 1 long: a profile built in coefficient space
        # can carry n + 1 coefficients
        self.degrees = np.arange(n + 1.0)
        self.twice_degrees = 2.0 * self.degrees
        self.slope_hi = self.degrees ** 2
        self.slope_lo = -sign * self.slope_hi
        _freeze(self)


@functools.cache
def chebyshev_basis(n: int) -> ChebyshevBasis:
    """The one ChebyshevBasis of n nodes, built on first use; SpectralGrid
    checks n first."""
    return ChebyshevBasis(n)


def chop_coefficients(c: np.ndarray) -> np.ndarray:
    """Drop the trailing run of coefficients below CHOP_REL * max|c| (c has
    at least one): a leading slice of c, not a copy (no caller writes into it).
    Complex c keeps the longer of its two parts' chops.  A series with a NaN
    or infinite coefficient is a NonFiniteError.

    High-order coefficients of smooth sampled data sit on a roundoff
    plateau; differentiating them amplifies the noise by O(N^3), so they
    are removed before coefficient-space calculus.  The last kept index
    comes from .nonzero(): a reversed argmax measured slower.
    """
    if c.dtype.kind == "c":
        return c[: max(chop_coefficients(c.real).size, chop_coefficients(c.imag).size)]
    mag = np.abs(c)
    top = mag.max()
    if not math.isfinite(top):  # NaN or inf: no threshold is meaningful
        raise NonFiniteError("non-finite Chebyshev coefficients")
    if top == 0.0:
        return c[:1]
    keep = (mag > CHOP_REL * top).nonzero()[0]
    return c[: keep[-1] + 1]


def solve_euler(coeffs: np.ndarray, a: float) -> np.ndarray:
    """Chebyshev coefficients v with (y d/dy + a) v = coeffs, a > 0: the
    inverse of SpectralGrid.euler_coefficients, whose map is upper
    triangular, by back substitution.  The series runs down the first axis,
    so the columns of a 2-D array are solved together, in its precision."""
    v = np.empty(coeffs.shape, dtype=np.result_type(coeffs, float))
    tail = 0.0  # sum over n > j of n v_n
    for j in range(len(coeffs) - 1, -1, -1):
        v[j] = (coeffs[j] - (tail if j == 0 else 2.0 * tail)) / (j + a)
        tail = tail + j * v[j]
    return v


def times_t_plus_1(c: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of (t + 1) sum_n c_n T_n, one longer, down the
    first axis, in c's precision: t T_0 = T_1 and t T_n = (T_(n+1) +
    T_(n-1)) / 2 for n >= 1."""
    half = 0.5 * c
    out = np.zeros((len(c) + 1,) + c.shape[1:], dtype=np.result_type(c, float))
    out[:-1] = c
    out[1:] += half
    out[:-2] += half[1:]
    out[1] += half[0]
    return out


def _toeplitz(f: np.ndarray, rows: int) -> np.ndarray:
    """The read-only view T[j, n] = f[n - j], j < rows, zero below the
    diagonal, with as many columns as f has entries: windows over f after
    rows - 1 zeros, not a copy."""
    return np.lib.stride_tricks.sliding_window_view(np.concatenate([np.zeros(rows - 1, f.dtype), f]), f.size)[::-1]


@functools.cache
def curvature_table(k: int) -> np.ndarray:
    """Q_k, k >= 1, read-only: the Chebyshev coefficients (in t) of
    E_(k+1) E_(k+2) (E_1 E_2)^-1 Theta'' from those of Theta, Theta'' the
    second t-derivative, for a Theta of at most DENSE_NODES + 1
    coefficients (the longest a grid of DENSE_NODES nodes carries), in two
    rows fewer.  With u = t + 1 and Delta p = (p - p(-1)) / u, Theta'' =
    E_1 E_2 Delta^2 Theta, so Q_k = u^-k d^2/du^2 u^k Delta^2 = d^2/dt^2 +
    2 k Delta d/dt + k (k - 1) Delta^2, whose entries are integers in
    closed form: with d = n - j >= 2, n (n^2 - j^2) [d even] + (-1)^d (2 k
    n (d^2 - [d odd]) + 2 k (k - 1) (d^3 - d) / 3), row 0 halved, exact in
    int64 and in the doubles they are stored as.  The map is upper
    triangular and depends on k alone, so one table per k serves every
    series length, grid and interval.  Its columns run in descending
    degree, T_n at column DENSE_NODES - n, so that the product of its last
    L columns with the reversed series sums each row from its smallest,
    highest-degree terms up (profile_table gives the measured gain)."""
    width = DENSE_NODES + 1
    d = np.arange(width)  # d = n - j: Q[j, n] = n^2 f_0[d] + n f_1[d] + f_2[d]
    odd = d & 1
    euler = (1 - 2 * odd) * 2 * k
    terms = np.stack([2 * d * (1 - odd), euler * (d * d - odd) - (1 - odd) * d * d,
                      euler * (k - 1) * (d ** 3 - d) // 3])
    terms[:, :2] = 0
    quad, lin, const = (_toeplitz(f, width - 2) for f in terms)
    n = d
    q = n * n * quad + n * lin + const
    q[0] //= 2  # every entry of row 0 is even
    table = np.ascontiguousarray(q[:, ::-1], dtype=float)
    table.setflags(write=False)
    return table


@functools.cache
def profile_table(k: int) -> np.ndarray:
    """B_k, k >= 0, read-only: the Chebyshev coefficients (in t) of
    (t + 1)^2 (E_(k+1) E_(k+2))^-1 s from those of s, for an s of at most
    DENSE_NODES + 1 coefficients, in two rows more; from_curvature scales
    them by -(span / 2)^2 and adds slope_lo y.  Upper triangular below the
    second subdiagonal and free of n and the interval, one table per k,
    its columns in descending degree as curvature_table's are: summed from
    the top, the product errs 0.33-0.43 eps on average (values at 257
    nodes, random series decaying to 1e-14), against 0.48-0.94 eps in
    ascending order and 0.57-2.5 eps for the recurrences it replaces.
    With b = k + 1, M = (E_b E_(b+1))^-1 = E_b^-1 - E_(b+1)^-1 has the
    diagonal 1 / ((n + b) (n + b + 1)) and, above it for n >= b + 2, M[i,
    n] = u_i v_n (n^2 - i^2 - 2b - 1), with u_i = (-1)^i w_i P(i) / (i +
    b), w = 2 past i = 0, v_n = (-1)^n n / ((n + b) (n^2 - (b + 1)^2) P(n
    - 1)) and P(x) = (x - b + 1) ... (x + b), zero for x < b.  (t + 1)^2
    T_i puts 1/4, 1, 3/2, 1, 1/4 on T_(i-2..i+2) (folded at T_0), and that
    sum cancels down to 10^-4 of M's entries at n = 129; in closed form,
    the rows j >= r = max(3, b) with j <= n - 3 are u_j v_n R, R = -(b - 1)
    (2b - 1) L / ((j - b + 1) (j - b + 2) (j + b - 1) (j + b - 2)) with the
    exact integer L = b (2b + 1) j^2 - (b - 2) (2b - 3) n^2 + (b - 2) (4b^2
    - 2b - 3), so nothing cancels there: two factors rounded from long
    double times L, within 3 ulps of the entry.  The
    band j - n = -2..2, the rows below r and the columns below r + 3 sum
    M's entries, in long double, those columns' by solve_euler, and round
    once: every entry lies within 0.7 eps of its column's largest.  Long
    double products take no BLAS, so no BLAS thread starts."""
    b, width = k + 1, DENSE_NODES + 1
    ld = np.longdouble
    r = max(3, b)
    s = min(r + 3, width)  # the first column of the closed forms
    table = np.zeros((width + 2, width))
    thin = np.zeros((s, width), dtype=ld)  # M's first s rows
    thin[:, :s] = solve_euler(solve_euler(np.eye(s, dtype=ld), b), b + 1)
    if s < width:
        x = np.arange(width + 2)
        p = np.prod((x[:, None] + np.arange(1 - b, b + 1)).astype(ld), axis=1)
        p /= p[r]  # P(x) / P(r): every product below stays in the range of a double
        sign = np.where(x % 2, -1.0, 1.0)
        u = sign * np.where(x, 2.0, 1.0) * p / (x + b)
        n = x[s:width]
        v = sign[s:width] * n / ((n + b) * (n * n - (b + 1) ** 2) * p[s - 1:width - 1])
        g = x[r:]
        rational = (b - 1) * (1 - 2 * b) * u[r:] / ((g - b + 1) * (g - b + 2) * (g + b - 1) * (g + b - 2))
        lever = np.add.outer(b * (2 * b + 1) * g * g + (b - 2) * (4 * b * b - 2 * b - 3.0),
                             (b - 2) * (3 - 2 * b) * n * n)  # L
        np.multiply(np.multiply.outer(rational.astype(float), v.astype(float)), lever, out=table[r:, s:],
                    where=n >= g[:, None] + 3)
        e = np.arange(5)[:, None]  # M[n - e, n], then the band: row n + o
        near = u[n - e] * v * (2 * e * n - e * e - 2 * b - 1)
        near[0] = 1.0 / ((n + b) * (n + b + ld(1.0)))
        o = np.arange(-2, 3)[:, None]
        stencil = np.array([0.25, 1.0, 1.5, 1.0, 0.25, 0.0, 0.0, 0.0, 0.0], dtype=ld)
        table[n + o, n] = stencil[o + e.T + 2] @ near  # T_(n+o) in (t + 1)^2 T_(n-e)
        i = x[:s, None]
        thin[:, s:] = u[:s, None] * v * (n * n - i * i - 2 * b - 1)
    thin = times_t_plus_1(times_t_plus_1(thin))
    table[:r] = thin[:r]
    table[r:s + 2, :s] = thin[r:, :s]
    table = np.ascontiguousarray(table[:, ::-1])
    table.setflags(write=False)
    return table


class SpectralGrid:
    """Immutable CGL collocation grid on [lo, hi]: the ChebyshevBasis of n
    nodes and the interval, whose own arrays are x and quad_weights."""

    def __init__(self, n: int, lo: float, hi: float):
        if not MIN_NODES <= n <= MAX_NODES:
            raise ConfigError(f"node count must be at most {MAX_NODES} and at least {MIN_NODES}, got {n}")
        if not lo < hi:
            raise ValueError("need lo < hi")
        self.basis = chebyshev_basis(n)
        self.n = n
        self.lo, self.hi = float(lo), float(hi)
        self.span = self.hi - self.lo
        self.x = self.lo + self.span * (self.basis.t + 1.0) / 2.0
        # x[0] is lo exactly, as t[0] = -1; lo + (hi - lo) may miss hi
        self.x[-1] = self.hi
        self.quad_weights = self.basis.clenshaw_curtis * (self.span / 2.0)
        self._d2_scale = (2.0 / self.span) ** 2  # d^2/dx^2 = (2 / span)^2 d^2/dt^2
        _freeze(self)

    t = property(lambda self: self.basis.t, doc="The nodes on [-1, 1], the basis's.")

    # -- coefficient transforms ------------------------------------------
    def values_to_coefficients(self, values: np.ndarray) -> np.ndarray:
        """Chebyshev coefficients (in t) of the interpolant of the values,
        c_k = (2 / m) sum'' v_j T_k(t_j), c_0 and c_m halved.  Up to n =
        DENSE_NODES, one product with the basis's complete cosine table,
        (T @ (w v)) / d, complex v one part at a time; above, the FFT DCT-I
        divided by d.  Either route weights before the sum and divides after
        it, so values near the float limit overflow into the coefficients,
        which the chop then refuses, rather than into their synthesis."""
        v = np.asarray(values)
        table = self.basis.cosines
        if table.shape[0] < self.n:
            return _dct1(v, self.n) / self.basis.v2c_divisor
        if v.dtype.kind == "c":
            return _by_part(self.values_to_coefficients, v)
        return (table @ (v * self.basis.v2c_weights)) / self.basis.v2c_divisor

    def coefficients_to_values(self, coeffs: np.ndarray) -> np.ndarray:
        """Values at the nodes of sum_k c_k T_k(t), a contiguous array (sums
        over it run in numpy's pairwise order).  Coefficients beyond the
        grid's degree m = n - 1 are first folded onto it: at the nodes T_k
        equals T_j with j = k mod 2m reflected into [0, m].  A series of at
        most as many coefficients as the basis's cosine table has rows, n up
        to n = DENSE_NODES and SYNTHESIS_WIDTH above, is then one product
        with it, c @ T[:L], complex c one part at a time; a longer one goes
        through the FFT DCT-I, whose cost does not depend on L."""
        c = np.asarray(coeffs)
        n, m = self.n, self.n - 1
        if c.size > n:
            k = np.arange(c.size) % (2 * m)
            g = np.zeros(n, dtype=np.result_type(c, float))
            np.add.at(g, np.minimum(k, 2 * m - k), c)
            c = g
        table = self.basis.cosines
        if c.size > table.shape[0]:
            return _dct1(c * self.basis.c2v_factor[: c.size], n)
        if c.dtype.kind == "c":
            return _by_part(np.matmul, c, table[: c.size])
        return c @ table[: c.size]

    # -- calculus ---------------------------------------------------------
    def derivative_coefficients(self, coeffs, order: int = 1) -> np.ndarray:
        """Chebyshev coefficients of the order-th t-derivative of sum_k c_k T_k
        (real or complex floats, at most n + 1 of them), order >= 0.  Each
        order takes d_j = (2 - [j = 0]) sum_{k > j, k - j odd} k c_k: the
        terms 2 k c_k, from the basis's table, summed from the top of each
        parity strand into its slots.  A pass reads only d[1:] of the last,
        so d_0 is halved once, after the last pass; a series of degree below
        order gives [0] at once.  The input is read, never copied or
        written."""
        d = np.asarray(coeffs)
        if order and d.size <= order:
            return np.zeros(1, dtype=d.dtype)
        for _ in range(order):
            kc = self.basis.twice_degrees[1:d.size] * d[1:]  # kc[j] = 2 (j + 1) c_(j+1)
            d = np.empty_like(kc)
            top = kc.size - 1
            np.add.accumulate(kc[top::-2], out=d[top::-2])
            if top:
                np.add.accumulate(kc[top - 1::-2], out=d[top - 1::-2])
        if order:
            d[0] *= 0.5
        return d

    def euler_coefficients(self, coeffs, a: float) -> np.ndarray:
        """Chebyshev coefficients of (y d/dy + a) sum_n c_n T_n, y = x - lo (real
        or complex, at most n + 1 of them): y d/dy = (t + 1) d/dt and
        (t + 1) T_n' = n T_n + 2n sum'_{j<n} T_j (the j = 0 term halved), one
        reverse cumulative sum of the terms 2 n c_n, its j = 0 entry then
        halved; n and 2n come from the basis's tables."""
        c = np.asarray(coeffs)
        size = c.size
        tail = np.zeros(size, dtype=np.result_type(c, float))  # (2 - [j = 0]) sum over n > j of n c_n
        np.add.accumulate(self.basis.twice_degrees[size - 1:0:-1] * c[:0:-1], out=tail[-2::-1])
        tail[0] *= 0.5
        return (self.basis.degrees[:size] + a) * c + tail

    def second_derivative_values(self, coeffs: np.ndarray) -> np.ndarray:
        """Values at the nodes of the second x-derivative of sum_k c_k T_k(t),
        from its chopped coefficients (real or complex), a new array.  A
        series of at most as many coefficients as the basis's table of
        T_k''(t_j) has rows, n up to n = DENSE_NODES and SYNTHESIS_WIDTH
        above, is one product with it, (c @ D[:L]) (2 / span)^2, complex c
        one part at a time; a longer one takes derivative_coefficients and
        coefficients_to_values."""
        c = np.asarray(coeffs)
        table = self.basis.second
        if c.size > table.shape[0]:
            return self.coefficients_to_values(self.derivative_coefficients(c, 2) * self._d2_scale)
        if c.dtype.kind == "c":
            return _by_part(self.second_derivative_values, c)
        v = c @ table[: c.size]
        v *= self._d2_scale
        return v

    def differentiate_values(self, values: np.ndarray, order: int = 1) -> np.ndarray:
        """Values at the nodes of the order-th x-derivative of the
        interpolant of the values: the chopped coefficients, differentiated
        by second_derivative_values for order 2 and by
        derivative_coefficients and coefficients_to_values otherwise."""
        c = chop_coefficients(self.values_to_coefficients(values))
        if order == 2:
            return self.second_derivative_values(c)
        return self.coefficients_to_values(self.derivative_coefficients(c, order) * (2.0 / self.span) ** order)

    def antiderivative_values(self, values: np.ndarray) -> np.ndarray:
        """Antiderivative vanishing at the left endpoint, from the closed form
        C_k = (c_(k-1) - c_(k+1)) / (2k) with c_0 counted twice and C_0 = 0
        (the constant drops out when the value at lo is subtracted)."""
        c = chop_coefficients(self.values_to_coefficients(values))
        padded = np.concatenate([c, np.zeros(2)])
        padded[0] *= 2.0
        ci = np.zeros(c.size + 1, dtype=padded.dtype)
        ci[1:] = (padded[:-2] - padded[2:]) * (self.span / 4.0) / np.arange(1, c.size + 1)
        v = self.coefficients_to_values(ci)
        return v - v[0]

    def endpoint_slopes(self, coeffs: np.ndarray):
        """(d/dx at lo, d/dx at hi) of sum_k c_k T_k from its (chopped)
        coefficients, at most n + 1 of them: T_k'(-1) = (-1)^(k+1) k^2 and
        T_k'(1) = k^2, two dot products with the basis's tables."""
        size = coeffs.size
        scale = 2.0 / self.span
        return (self.basis.slope_lo[:size] @ coeffs) * scale, (self.basis.slope_hi[:size] @ coeffs) * scale

    def integrate_values(self, values: np.ndarray):
        return self.quad_weights @ np.asarray(values)


_GRID_CACHE: dict = {}


def get_grid(n: int, lo: float, hi: float) -> SpectralGrid:
    key = (int(n), float(lo), float(hi))
    if key not in _GRID_CACHE:
        _GRID_CACHE[key] = SpectralGrid(*key)
    return _GRID_CACHE[key]


class cached_field:
    """functools.cached_property without the lock it takes on each first
    read in Python 3.11: func's value, on first read, goes into the instance's __dict__ (frozen dataclasses included),
    which later reads find before this non-data descriptor, as they find a
    value preset there; an ndarray is made read-only first."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, instance, owner=None):
        return self if instance is None else self.preset(instance, self.func(instance))

    def preset(self, instance, value):
        """Cache value as instance's field, as its first read would."""
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        instance.__dict__[self.name] = value
        return value


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Values of a function at the nodes of a SpectralGrid, read-only.  It is
    differentiated by its grid and never evaluated between the nodes, so
    nothing here needs numpy.polynomial."""

    grid: SpectralGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (self.grid.n,):
            raise ValueError("value count does not match the grid")
        if not np.isfinite(v).all():  # complex: both parts
            raise NonFiniteError("non-finite sample values")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


class PivotedLU2:
    """Partial-pivot LU factors of the real 2x2 matrix [[a, b], [c, d]], on
    Python floats, as a LAPACK call costs several times the arithmetic:
    factored once, each solve is a forward and a back substitution.  The pivot is the larger entry of the first column, as in
    LAPACK's getrf, which multiplies by its reciprocal where this divides,
    so the two may differ in the last bits.  A singular matrix divides by
    zero: callers test the rank (or the Gram determinant) first."""

    __slots__ = ("swap", "a", "b", "lower", "upper")

    def __init__(self, a: float, b: float, c: float, d: float):
        self.swap = abs(c) > abs(a)
        if self.swap:
            a, b, c, d = c, d, a, b
        self.a, self.b = a, b
        self.lower = c / a
        self.upper = d - self.lower * b

    def solve(self, r0, r1):
        """(u, v) with [[a, b], [c, d]] (u, v) = (r0, r1); r may be complex."""
        if self.swap:
            r0, r1 = r1, r0
        v = (r1 - self.lower * r0) / self.upper
        return (r0 - self.b * v) / self.a, v


class AffineProjector:
    """L2 projection onto the affine functions a*x + b against node masses
    qw at the nodes x, with the pivoted LU factors of the Gram matrix of
    (x, 1) built once, so that projecting costs two dot products and a back
    substitution; ProfileGeometry.affine_projector keeps a geometry's."""

    def __init__(self, qw: np.ndarray, x: np.ndarray):
        # a mass below -1e-13 of the largest is not a measure, not rounding
        if (qw < -1e-13 * np.abs(qw).max()).any():
            raise DegenerateWeight("weight must be nonnegative")
        g00, g01, mass = float(qw @ (x * x)), float(qw @ x), float(qw.sum())
        if not mass > 0:
            raise DegenerateWeight("degenerate normal equations")
        # the moments of the unit-mass measure make the test scale-free: its
        # Gram determinant m2 - m1^2 against g00 g11 = m2
        m1, m2 = g01 / mass, g00 / mass
        if m2 - m1 * m1 <= DEGENERATE_REL * m2:
            raise DegenerateWeight("degenerate normal equations")
        self.x, self.qw = x, qw
        self.gram = PivotedLU2(g00, g01, g01, mass)

    def coefficients(self, psi: np.ndarray) -> tuple:
        """(alpha, beta) minimizing sum qw |psi - (alpha x + beta)|^2, as
        Python floats (complex for complex psi)."""
        return self.gram.solve((self.qw @ (self.x * psi)).item(), (self.qw @ psi).item())

    def project(self, psi: np.ndarray):
        """(alpha, beta, residual_norm) of the projection; complex psi is
        projected componentwise (same Gram matrix for both parts)."""
        alpha, beta = self.coefficients(psi)
        resid = psi - (alpha * self.x + beta)
        residual_norm = math.sqrt(max(float(self.qw @ np.abs(resid) ** 2), 0.0))
        return alpha, beta, residual_norm
