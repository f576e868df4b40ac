"""Spectral-calculus kernel on Chebyshev-Gauss-Lobatto grids.

Both transforms are cosine sums over the nodes (Trefethen, Approximation
Theory and Approximation Practice, 2013, ch. 3), taken either as one
product with a cosine table, T_k at the nodes, which depends on n alone
and is shared by the grids of one n, or through one FFT DCT-I, an unscaled
np.fft.irfft, which pads and evenly extends its input itself (Chebfun's
vals2coeffs / coeffs2vals), in O(N log N).  Up to n = DENSE_NODES the
table is complete, k < n, and both transforms are one product with it (a
series of more than n coefficients folded first), so such a grid calls no
FFT once built.  Above, values to coefficients goes through the DCT-I; a
series of L <= W = SYNTHESIS_WIDTH coefficients, as the short chopped
series of a solve or an EL report nearly all are, is synthesised as one
product with the table's W rows, and a longer one, folded first if it has
more than n coefficients, through the DCT-I, whose cost does not depend on
L.  Per call (minimum over repeats, one BLAS thread) the product is the
cheaper below L = 112-128 at N = 513 and 1025, and up to L = 128 at
N = 257; W = 64 keeps it at 0.6 of the FFT's cost or less at every N, for
a table of 8 n W bytes (0.5 MB at N = 1025).  The Clenshaw-Curtis weights,
from the moments of T_k (Waldvogel, BIT 46, 2006), take the DCT-I at every
n.  The grid's tables replace every copy around it: no node is reversed,
no buffer padded; values_to_coefficients weights the values by 2 inside
the ends on the table route, as the DCT-I does itself, and divides by one
per-grid divisor.  Every route returns a new contiguous array, so sums over
it run in numpy's pairwise order.
Second derivatives at the nodes, of which s on cp1, the quadratic form and
the first variation are built, take a second shared table, T_k'' at the
nodes, with as many rows: a chopped series of at most that many
coefficients is one product with it, a longer one goes through the
recurrence and a synthesis.  Both directions of Theta <-> s on every
geometry are coefficient maps that depend on the weight order k alone and
are upper triangular, so each is one read-only table per k whose columns
serve every series length, grid and interval: curvature_table, Q_k, takes
Theta to s on CP^m, and profile_table, B_k, s to Theta on every geometry.
Both are built in closed form, Q_k exactly in integers and B_k as products
of closed-form factors with long double sums rounded once, and store their
columns in descending degree, so that a product sums each row from its
smallest terms up.  A series longer than DENSE_NODES + 1 takes the
recurrences.  All other calculus and the endpoint slopes run
in coefficient space on the chopped coefficients, the accurate route for
repeated differentiation: derivative and antiderivative coefficients are
O(L) array recurrences (Mason & Handscomb, Chebyshev Polynomials, 2003),
and one routine, the grid's derivative_coefficients, differentiates for
this module and for geometry.  It and the grid's euler_coefficients sum
the doubled terms 2 k c_k straight into place and halve the one entry not
doubled, once, which is exact; their weights k and 2 k and the endpoint
slopes k^2 and (-1)^(k+1) k^2 are grid tables, n + 1 long (a profile built
in coefficient space carries n + 1 coefficients).  The chop keeps
.nonzero() (a reversed argmax measured slower), chops each part of complex
data on its own and refuses a NaN or infinite coefficient.  The
scale-free Euler operator E_a = y d/dy + a, y = x - lo, and its inverse
(SpectralGrid.euler_coefficients, solve_euler, which solves the columns of
a stack together) carry every weight y^k: nothing divides by x - lo.
AffineProjector is the one weighted affine projection; it and the solver's
Newton step solve their 2x2 systems by PivotedLU2, partial-pivot
elimination on Python floats, as a LAPACK call costs several times the
arithmetic.  A SampledFunction is differentiated by its grid and never
evaluated between the nodes, so nothing here needs numpy.polynomial.
The hot path is a few dozen small array steps per call, so it calls
numpy's array methods (.nonzero(), .any(), .real, the dtype) rather than
the Python-level wrappers around them, and copies nothing it only reads.
Derived fields are cached by cached_field, without the lock that Python
3.11's functools.cached_property takes on each first read.
Shared arrays are read-only, by this module alone: SpectralGrid freezes
its tables (the shared tables among them), the per-k builders theirs,
SampledFunction the array it is
handed and cached_field each ndarray it caches or is preset with.  A grid
serves every geometry on its interval, and a profile reads its cached
coefficients, admissibility and s from its Theta once, so a write would
leave them stale: it raises ValueError.  Nothing is copied; a caller gives
up what it hands over.
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
SYNTHESIS_WIDTH = 64  # rows of the cosine and T_k'' tables above DENSE_NODES
DENSE_NODES = 129
"""Largest grid whose cosine table is complete, all n rows, so that both
transforms are one product with it and the grid calls no FFT once built.
Per call (minimum over repeats, one BLAS thread) the dense values ->
coefficients product takes 2.0 us against the FFT's 5.3 us at N = 65 and
3.7 against 5.9 us at N = 129, but 10.1 against 7.4 us at N = 257 and 48
against 10 us at N = 513: the crossover lies between 129 and 257.  The
cosine table and the table of T_k'' are 8 n^2 bytes each, 266 KB together
at N = 129."""


def _cgl_nodes(n: int):
    """Ascending Chebyshev-Gauss-Lobatto nodes on [-1, 1]."""
    k = np.arange(n)
    return -np.cos(np.pi * k / (n - 1))


def _cosines(m: int, pi) -> np.ndarray:
    """cos(pi a / m), a = 0..m, in the precision of pi, each angle reduced
    exactly, on the integers, to a quarter wave: cos(pi a / m) =
    -cos(pi (m - a) / m), and past pi / 4 a cosine is the sine of the
    complement."""
    a = np.arange(m + 1)
    b = 2 * np.minimum(a, m - a)  # cos(pi a / m) = +-cos(pi b / (2 m)), b <= m
    return np.where(2 * a > m, -1.0, 1.0) * np.where(
        2 * b > m, np.sin(pi * (m - b) / (2 * m)), np.cos(pi * b / (2 * m)))


_NODE_TABLES: dict = {}


def _node_tables(n: int) -> tuple:
    """(T, D): T_k(t_j) and T_k''(t_j) at the n ascending nodes, one row
    per k, all n rows up to n = DENSE_NODES and SYNTHESIS_WIDTH above.
    Both depend on n alone, so the grids of one n share them (and their
    freezing covers them).  T_k(t_j) = cos(pi a / m), a = k (m - j) mod 2m,
    is gathered from the n values of _cosines, so every entry is within
    0.61 eps of T_k(t_j) (n up to 2049), where the cosine of pi a / m itself
    is up to 4.8 eps off, which made the Futaki integral on cp1, zero in
    exact arithmetic, 7 times larger.  D sums T_k'' = k sum' (k^2 - i^2) T_i
    (i < k, k - i even, the T_0 term halved) as two running sums down each
    parity strand, P_k = sum' T_i over i <= k and g_(k+2) = g_k + (4k + 4)
    P_k, with T_k'' = k g_k, in long double from long double cosines, and
    rounds once: every entry is within eps of the row's largest, (k^4 -
    k^2) / 3 at t = 1, exactly so at the ends, where every term is an
    integer.  Elementwise, so no BLAS thread starts.  It takes the columns
    j <= m / 2 and the rest from T_k''(-t) = (-1)^k T_k''(t)."""
    if n not in _NODE_TABLES:
        m, h = n - 1, n // 2 + 1
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
        second = np.zeros((k.size, n))
        np.multiply(p[:-2], degree[2:], out=second[2:, :h], casting="same_kind")
        second[:, h:] = second[:, m - h::-1] * np.where(k % 2, -1.0, 1.0)[:, None]
        _NODE_TABLES[n] = _cosines(m, np.pi)[index], second
    return _NODE_TABLES[n]


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


def _clenshaw_curtis(n: int):
    """Clenshaw-Curtis weights for n ascending CGL nodes on [-1, 1]: the
    DCT-I of the moments int T_k = 2 / (1 - k^2) (k even, 0 for k odd),
    which is symmetric, so it needs no reversal."""
    k = np.arange(0, n, 2)
    mu = np.zeros(n)
    mu[k] = 2.0 / (1.0 - k * k)
    w = _dct1(mu, n) / (n - 1)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def chop_coefficients(c: np.ndarray) -> np.ndarray:
    """Drop the trailing run of coefficients below CHOP_REL * max|c| (c has
    at least one): a leading slice of c, not a copy (no caller writes into it).
    Complex c keeps the longer of its two parts' chops.  A series with a NaN
    or infinite coefficient is a NonFiniteError.

    High-order coefficients of smooth sampled data sit on a roundoff
    plateau; differentiating them amplifies the noise by O(N^3), so they
    are removed before coefficient-space calculus.
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
    """Immutable CGL collocation grid on [lo, hi]."""

    def __init__(self, n: int, lo: float, hi: float):
        if n < MIN_NODES:
            raise ConfigError(f"node count must be at least {MIN_NODES}, got {n}")
        if not lo < hi:
            raise ValueError("need lo < hi")
        self.n = n
        self.lo = float(lo)
        self.hi = float(hi)
        self.span = self.hi - self.lo
        self.t = _cgl_nodes(n)
        self.x = self.lo + self.span * (self.t + 1.0) / 2.0
        # x[0] is lo exactly, as t[0] = -1; lo + (hi - lo) may miss hi
        self.x[-1] = self.hi
        self.quad_weights = _clenshaw_curtis(n) * (self.span / 2.0)
        # values_to_coefficients divides by n - 1, doubled at both ends, so
        # c_0 and c_m are halved exactly.  The complete cosine table carries
        # the sign (-1)^k of the ascending nodes itself, and its route
        # weights the values by 2 inside the ends and 1 at them, as the DCT-I
        # does.  The DCT-I runs over the nodes in descending t, where
        # T_k(t_j) = cos(pi j k / m), so the FFT routes fold (-1)^k into
        # their tables.
        self._c2v_table, self._d2_table = _node_tables(n)
        self._d2_scale = (2.0 / self.span) ** 2  # d^2/dx^2 = (2 / span)^2 d^2/dt^2
        sign = np.where(np.arange(n + 1) % 2, -1.0, 1.0)  # (-1)^k, k = 0..n
        self._v2c_divisor = np.full(n, n - 1.0)
        self._v2c_divisor[[0, -1]] *= 2.0
        if self._c2v_table.shape[0] == n:
            self._v2c_weights = np.full(n, 2.0)
            self._v2c_weights[[0, -1]] = 1.0
        else:
            self._v2c_divisor *= sign[:n]
            # coefficients_to_values scales c_k by (-1)^k, halved inside
            self._c2v_factor = 0.5 * sign[:n]
            self._c2v_factor[[0, -1]] *= 2.0
        # The recurrence weights k and 2 k, and T_k'(1) = k^2 and T_k'(-1) =
        # (-1)^(k+1) k^2, n + 1 long: a profile built in coefficient space
        # can carry n + 1 coefficients
        self._degrees = np.arange(n + 1.0)
        self._twice_degrees = 2.0 * self._degrees
        self._slope_hi = self._degrees ** 2
        self._slope_lo = -sign * self._slope_hi
        for table in vars(self).values():
            if isinstance(table, np.ndarray):
                table.setflags(write=False)

    # -- coefficient transforms ------------------------------------------
    def values_to_coefficients(self, values: np.ndarray) -> np.ndarray:
        """Chebyshev coefficients (in t) of the interpolant of the values,
        c_k = (2 / m) sum'' v_j T_k(t_j), c_0 and c_m halved.  Up to n =
        DENSE_NODES, one product with the grid's complete cosine table,
        (T @ (w v)) / d, complex v one part at a time; above, the FFT DCT-I
        divided by d.  Either route weights before the sum and divides after
        it, so values near the float limit overflow into the coefficients,
        which the chop then refuses, rather than into their synthesis."""
        v = np.asarray(values)
        table = self._c2v_table
        if table.shape[0] < self.n:
            return _dct1(v, self.n) / self._v2c_divisor
        if v.dtype.kind != "c":
            return (table @ (v * self._v2c_weights)) / self._v2c_divisor
        c = np.empty(self.n, dtype=v.dtype)
        c.real = self.values_to_coefficients(v.real)
        c.imag = self.values_to_coefficients(v.imag)
        return c

    def coefficients_to_values(self, coeffs: np.ndarray) -> np.ndarray:
        """Values at the nodes of sum_k c_k T_k(t), a contiguous array (sums
        over it run in numpy's pairwise order).  Coefficients beyond the
        grid's degree m = n - 1 are first folded onto it: at the nodes T_k
        equals T_j with j = k mod 2m reflected into [0, m].  A series of at
        most as many coefficients as the grid's cosine table has rows, n up
        to n = DENSE_NODES and W = SYNTHESIS_WIDTH above, is then one
        product with it, c @ T[:L], complex c one part at a time, so no
        complex copy of the table is made.  A longer one goes through the
        FFT DCT-I, whose cost does not depend on L.  W = 64 is below the
        measured per-call crossover at every N (L = 112-128 at N = 1025);
        closer to it the saving shrinks while the table grows by 8 n bytes
        a degree."""
        c = np.asarray(coeffs)
        n, m = self.n, self.n - 1
        if c.size > n:
            k = np.arange(c.size) % (2 * m)
            g = np.zeros(n, dtype=np.result_type(c, float))
            np.add.at(g, np.minimum(k, 2 * m - k), c)
            c = g
        table = self._c2v_table
        if c.size <= table.shape[0]:
            if c.dtype.kind != "c":
                return c @ table[: c.size]
            v = np.empty(n, dtype=c.dtype)
            v.real = c.real @ table[: c.size]
            v.imag = c.imag @ table[: c.size]
            return v
        return _dct1(c * self._c2v_factor[: c.size], n)

    # -- calculus ---------------------------------------------------------
    def derivative_coefficients(self, coeffs, order: int = 1) -> np.ndarray:
        """Chebyshev coefficients of the order-th t-derivative of sum_k c_k T_k
        (real or complex floats, at most n + 1 of them), order >= 0.  Each
        order takes d_j = (2 - [j = 0]) sum_{k > j, k - j odd} k c_k: the
        terms 2 k c_k, from the grid's table, summed from the top of each
        parity strand into its slots.  A pass reads only d[1:] of the last,
        so d_0 is halved once, after the last pass; a series of degree below
        order gives [0] at once.  The input is read, never copied or
        written."""
        d = np.asarray(coeffs)
        if order and d.size <= order:
            return np.zeros(1, dtype=d.dtype)
        for _ in range(order):
            kc = self._twice_degrees[1:d.size] * d[1:]  # kc[j] = 2 (j + 1) c_(j+1)
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
        halved; n and 2n come from the grid's tables."""
        c = np.asarray(coeffs)
        size = c.size
        tail = np.zeros(size, dtype=np.result_type(c, float))  # (2 - [j = 0]) sum over n > j of n c_n
        np.add.accumulate(self._twice_degrees[size - 1:0:-1] * c[:0:-1], out=tail[-2::-1])
        tail[0] *= 0.5
        return (self._degrees[:size] + a) * c + tail

    def second_derivative_values(self, coeffs: np.ndarray) -> np.ndarray:
        """Values at the nodes of the second x-derivative of sum_k c_k T_k(t),
        from its chopped coefficients (real or complex), a new array.  A
        series of at most as many coefficients as the grid's table of
        T_k''(t_j) has rows, n up to n = DENSE_NODES and SYNTHESIS_WIDTH
        above, is one product with it, (c @ D[:L]) (2 / span)^2, complex c
        one part at a time; a longer one takes derivative_coefficients and
        coefficients_to_values."""
        c = np.asarray(coeffs)
        table = self._d2_table
        if c.size > table.shape[0]:
            return self.coefficients_to_values(self.derivative_coefficients(c, 2) * self._d2_scale)
        if c.dtype.kind == "c":
            v = np.empty(self.n, dtype=c.dtype)
            v.real = self.second_derivative_values(c.real)
            v.imag = self.second_derivative_values(c.imag)
            return v
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
        dc = self.derivative_coefficients(c, order) * (2.0 / self.span) ** order
        return self.coefficients_to_values(dc)

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
        T_k'(1) = k^2, two dot products with the grid's tables."""
        size = coeffs.size
        scale = 2.0 / self.span
        return (self._slope_lo[:size] @ coeffs) * scale, (self._slope_hi[:size] @ coeffs) * scale

    def integrate_values(self, values: np.ndarray):
        return self.quad_weights @ np.asarray(values)


_GRID_CACHE: dict = {}


def get_grid(n: int, lo: float, hi: float) -> SpectralGrid:
    key = (int(n), float(lo), float(hi))
    if key not in _GRID_CACHE:
        _GRID_CACHE[key] = SpectralGrid(*key)
    return _GRID_CACHE[key]


class cached_field:
    """functools.cached_property without its lock: func's value, on first
    read, goes into the instance's __dict__ (frozen dataclasses included),
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
    """Values of a function at the nodes of a SpectralGrid, read-only."""

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
    Python floats: factored once, each solve is a forward and a back
    substitution.  The pivot is the larger entry of the first column, as in
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
