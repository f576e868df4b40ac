"""Operations of the two in-process workloads, n-ladder and invariance-scan.

Each op holds inputs the benchmark generated from the workload seed.  call()
runs the library and returns its outputs; check() judges them against the
references in oracles.py and returns (verdict, numbers), where numbers are
the op's outputs as bytes for the determinism hash.

ladder_ops() and scan_ops() return two lists.  The case grid is every case
of the workload, run once per run with every check, so the library's known
defects are counted (fail_share) and named (the failure breakdown).  The
timed list holds the cases the library answers correctly today, for every
seed; they are what the closed loop repeats.  Which cases those are is fixed
here, by case, not chosen at run time, so a fix or a regression elsewhere
does not change the timed work.
"""

from __future__ import annotations

import random
import struct

import numpy as np
from numpy.polynomial import chebyshev as C

import oracles as O

CALABI = "scaled:0.5:pow:2"
LADDER_GEOMETRIES = ("cp1", "cpm:2", "cpm:3", "cpm:4")
LADDER_NODES = (129, 257, 513, 1025)
LADDER_PAIRS = (("exp", "id"), ("pow:2", "id"), (CALABI, "const:1"))
LADDER_REPLICATES = 4  # ops per case and kind in one pass
KERNEL_NODES = (513, 1025)
SCAN_GEOMETRIES = ("cp1", "cpm:2", "cpm:3")
SCAN_FS = ("pow:2", "exp", CALABI)
SCAN_HS = ("const:1", "id", "pow:2")
SCAN_NODES = 129  # the CLI default
SCAN_REPLICATES = 10  # ops per (geometry, f, h) combination in the case grid
SCAN_TIMED_GEOMETRIES = ("cp1",)
SHIFT_RANGE = (2.0, 3.0)  # phi = x + shift stays positive on every interval


def _pack(*values) -> bytes:
    out = []
    for v in values:
        if isinstance(v, np.ndarray):
            out.append(np.ascontiguousarray(v).tobytes())
        elif isinstance(v, (bool, str)):
            out.append(repr(v).encode())
        else:
            c = complex(v)
            out.append(struct.pack("<dd", c.real, c.imag))
    return b"|".join(out)


def make_geometry(cl, name: str, n: int):
    if name == "cp1":
        return cl.make_cp1_geometry(n)
    return cl.make_cpm_geometry(O.dim(name), n)


# -- n-ladder -------------------------------------------------------------------
class SolveOp:
    kind = "solve"

    def __init__(self, cl, geom_name, n, f, h, shift, geom):
        self.cl, self.geom_name, self.n, self.f, self.h = cl, geom_name, n, f, h
        self.shift, self.geom = shift, geom

    @property
    def group(self) -> str:
        return f"solve {self.geom_name} N={self.n} {self.f}|{self.h}"

    def call(self):
        cl = self.cl
        phi = cl.HolomorphyPotential(self.geom, 1.0, self.shift)
        return cl.solve_critical(self.geom, cl.parse_function(self.f), cl.parse_function(self.h), phi)

    def check(self, res):
        v = O.Verdict()
        grid = O.grid_for(self.geom_name, self.n)
        theta = res.profile.theta.values
        rep = res.el_report
        if self.f == CALABI and self.h == "const:1":
            # Calabi functional: the Fubini-Study metric, s = s0, psi = s0.
            s0 = O.s0(self.geom_name)
            v.rel("Theta = Theta_FS", np.abs(theta - O.round_theta(self.geom_name, grid.x)).max(), 0.0)
            v.rel("alpha", res.alpha, 0.0)
            v.rel("beta = s0", res.beta, s0)
        defect, scale = O.check_critical(v, grid, self.geom_name, theta, self.f, self.h,
                                         self.shift, res.alpha, res.beta)
        self.last_defect = (rep.defect_affine, defect)
        if defect is not None:
            # the solve's own report must agree with the recomputation
            v.rel("reported defect", rep.defect_affine / scale, defect / scale)
            v.holds("reported is_critical", bool(rep.is_critical) == (defect <= O.TOL * scale),
                    f"reported {rep.is_critical}, recomputed defect {defect / scale:.1e} x scale")
        return v, _pack(theta, res.alpha, res.beta, rep.defect_affine, res.status, res.iterations)


class EvaluateOp:
    kind = "evaluate"

    def __init__(self, cl, geom_name, n, shift, geom):
        self.cl, self.geom_name, self.n, self.shift, self.geom = cl, geom_name, n, shift, geom

    @property
    def group(self) -> str:
        return f"evaluate {self.geom_name} N={self.n} round profile"

    def call(self):
        cl = self.cl
        profile = cl.round_profile(self.geom)
        phi = cl.HolomorphyPotential(self.geom, 1.0, self.shift)
        s = cl.scalar_curvature(profile).values
        big_s = cl.eval_S(profile, cl.parse_function(CALABI), cl.parse_function("const:1"), phi)
        fut = cl.futaki(profile, phi)
        consts = cl.class_constants(self.geom)
        return s, big_s, fut, consts

    def check(self, out):
        s, big_s, fut, consts = out
        g = self.geom_name
        grid = O.grid_for(g, self.n)
        s0, vol, total = O.s0(g), O.volume(g), O.total_scalar(g)
        v = O.Verdict()
        self.last_s_std = float(np.std(s))
        v.rel("s = s0 (Fubini-Study)", np.abs(s - s0).max() / max(1.0, s0), 0.0)
        v.rel("S = s0^2 vol / 2", big_s, 0.5 * s0 * s0 * vol, O.TOL_S)
        v.rel("Futaki = 0", fut / _futaki_scale(g, self.shift), 0.0)
        v.rel("total_scalar", consts.total_scalar, total, O.TOL_S)
        gb = 2.0 * np.pi * grid.integrate(s * O.weight(g, grid.x))
        v.rel("Gauss-Bonnet", gb, total, O.TOL_S)
        return v, _pack(s, big_s, fut, consts.total_scalar, consts.total_volume)


def _futaki_scale(geom: str, shift: float) -> float:
    lo, hi = O.interval(geom)
    return O.s0(geom) * O.volume(geom) * max(abs(lo + shift), abs(hi + shift))


class KernelOp:
    """The shooting integrals of solve_critical through the public grid
    methods: p1 = w(lo) Theta'(lo) + int (A - w s), p = int p1, and the
    coefficients and integral of p, for a non-polynomial s(x) =
    s0 + log((x + shift) / (1 + shift)).  Each op makes three dense
    values-to-coefficients transforms, the cost the large-N cases are
    there to show."""

    kind = "kernel"

    def __init__(self, cl, geom_name, n, shift, geom):
        self.cl, self.geom_name, self.n, self.shift, self.geom = cl, geom_name, n, shift, geom

    @property
    def group(self) -> str:
        return f"kernel {self.geom_name} N={self.n} shooting integrals"

    def _s(self, x):
        return O.s0(self.geom_name) + np.log((x + self.shift) / (1.0 + self.shift))

    def call(self):
        geom = self.geom
        grid = geom.grid
        rhs = geom.base_term.values - geom.weight.values * self._s(grid.x)
        p1 = geom.weight.values[0] * geom.slope_lo + grid.antiderivative_values(rhs)
        p = grid.antiderivative_values(p1)
        return p1, p, grid.values_to_coefficients(p), grid.integrate_values(p)

    def check(self, out):
        p1, p, c, total = out
        g = self.geom_name
        grid = O.grid_for(g, self.n)
        x = grid.x
        rhs = O.base_term(g, x) - O.weight(g, x) * self._s(x)
        want_p1 = O.weight(g, x[:1])[0] * 2.0 + grid.antiderivative(rhs)
        want_p = grid.antiderivative(want_p1)
        want_c = grid.coeffs(want_p)
        v = O.Verdict()
        for name, got, want in (("p1", p1, want_p1), ("p", p, want_p), ("coefficients of p", c, want_c)):
            v.rel(name, np.abs(got - want).max() / np.abs(want).max(), 0.0)
        v.rel("integral of p", total, grid.integrate(want_p))
        return v, _pack(p1, p, c, total)


def ladder_timed(op) -> bool:
    """The n-ladder cases the library answers correctly for every phi shift
    in SHIFT_RANGE (the case grid's breakdown lists the others): the shooting
    kernel everywhere; solves and the round-profile evaluate up to N=257 on
    cp1 and cpm:2; on cpm:3 and cpm:4 the evaluate and the Calabi solve up to
    N=513."""
    if op.kind == "kernel":
        return True
    if op.geom_name in ("cp1", "cpm:2"):
        return op.n <= 257
    return op.n <= 513 and (op.kind == "evaluate" or (op.f, op.h) == (CALABI, "const:1"))


def ladder_ops(cl, seed: int) -> tuple[list, list]:
    """The case grid: every (geometry, N) case runs the three solves and the
    round-profile evaluate, and every geometry the shooting kernel at
    KERNEL_NODES, LADDER_REPLICATES times each.  The seed draws the phi
    shifts, stratified so that replicate j falls in the j-th equal part of
    SHIFT_RANGE, and the order of both lists.  Returns (case grid, timed)."""
    rng = random.Random(seed)
    lo, hi = SHIFT_RANGE
    width = (hi - lo) / LADDER_REPLICATES

    def shift(j):
        return lo + width * (j + rng.random())

    ops = []
    for g in LADDER_GEOMETRIES:
        for n in sorted(set(LADDER_NODES) | set(KERNEL_NODES)):
            geom = make_geometry(cl, g, n)
            for j in range(LADDER_REPLICATES):
                if n in LADDER_NODES:
                    for f, h in LADDER_PAIRS:
                        ops.append(SolveOp(cl, g, n, f, h, shift(j), geom))
                    ops.append(EvaluateOp(cl, g, n, shift(j), geom))
                if n in KERNEL_NODES:
                    ops.append(KernelOp(cl, g, n, shift(j), geom))
    rng.shuffle(ops)
    timed = [op for op in ops if ladder_timed(op)]
    rng.shuffle(timed)
    return ops, timed


# -- invariance-scan --------------------------------------------------------------
class ScanOp:
    """S, psi and its EL report, Futaki, the equivariant integral and a
    transport pair on one random profile; with first_variation, also the
    first-variation convergence order."""

    kind = "scan"

    def __init__(self, cl, geom_name, geom, theta, f, h, shift, u, t, first_variation=True):
        self.cl, self.geom_name, self.geom = cl, geom_name, geom
        self.f, self.h, self.shift, self.t = f, h, shift, t
        self.first_variation = first_variation
        self.profile = cl.MetricProfile(geom, cl.SampledFunction(geom.grid, theta))
        self.u = cl.SampledFunction(geom.grid, u)

    @property
    def group(self) -> str:
        return f"scan {self.geom_name} {self.f}|{self.h}"

    def call(self):
        cl = self.cl
        profile, geom = self.profile, self.geom
        phi = cl.HolomorphyPotential(geom, 1.0, self.shift)
        f, h, ident = cl.parse_function(self.f), cl.parse_function(self.h), cl.parse_function("id")
        s_id = cl.eval_S(profile, ident, ident, phi)
        psi = cl.el_potential(profile, f, h, phi)
        report = cl.holomorphy_defect(profile, psi)
        fut = cl.futaki(profile, phi)
        eq = cl.equivariant_integral(profile, h, phi)
        path = cl.DeformationPath(self.u)
        moved = []
        for t in (self.t, -self.t):
            q, phi_t = cl.transport(profile, path, t, phi)
            moved.append((q.theta.values, cl.futaki(q, phi_t), cl.eval_S(q, ident, ident, phi_t),
                          cl.equivariant_integral(q, h, phi_t)))
        order = cl.convergence_order(profile, f, h, phi, path) if self.first_variation else None
        return s_id, psi.values, report, fut, eq, moved, order

    def check(self, out):
        s_id, psi, report, fut, eq, moved, order = out
        g, grid = self.geom_name, O.grid_for(self.geom_name, SCAN_NODES)
        v = O.Verdict()
        s_ref = O.s0(g) * O.phi_moment(g, self.shift)
        eq_ref = _equivariant_reference(g, self.h, self.shift)
        fscale = _futaki_scale(g, self.shift)
        v.rel("S(id,id) = round value", s_id, s_ref)
        v.rel("Futaki = 0", fut / fscale, 0.0)
        v.rel("equivariant = round value", eq, eq_ref)
        # psi and its EL report against a recomputation from Theta
        s = O.scalar_curvature(grid, g, self.profile.theta.values)
        psi_ref = O.f_prime(self.f, s) * O.h_value(self.h, grid.x + self.shift)
        scale = 1.0 + float(np.abs(psi_ref).max())
        v.rel("psi", np.abs(psi - psi_ref).max() / scale, 0.0)
        a, b, defect = O.affine_fit(grid, g, psi_ref)
        v.rel("EL alpha", complex(report.alpha) / scale, a / scale)
        v.rel("EL beta", complex(report.beta) / scale, b / scale)
        v.rel("EL defect", report.defect_affine / scale, defect / scale)
        for sign, (theta_t, fut_t, s_t, eq_t) in zip("+-", moved):
            O.check_admissible(v, grid, g, theta_t)
            v.rel(f"Futaki after transport {sign}t", fut_t / fscale, 0.0)
            v.rel(f"S(id,id) after transport {sign}t", s_t, s_ref)
            v.rel(f"equivariant after transport {sign}t", eq_t, eq_ref)
        numbers = [s_id, psi, report.alpha, report.beta, report.defect_affine, fut, eq]
        if order is not None:
            v.holds("first-variation order >= 1.9", order >= O.MIN_ORDER, f"order {order:.3f}")
            numbers.append(order)
        for m in moved:
            numbers.extend(m)
        return v, _pack(*numbers)


def _equivariant_reference(geom: str, h: str, shift: float) -> float:
    """C_vol int h(x + shift) w dx by 64-point Gauss-Legendre quadrature."""
    lo, hi = O.interval(geom)
    z, wq = np.polynomial.legendre.leggauss(64)
    x = lo + (hi - lo) * (z + 1.0) / 2.0
    vals = O.h_value(h, x + shift) * O.weight(geom, x)
    return 2.0 * np.pi * (hi - lo) / 2.0 * float(wq @ vals)


def _random_profile(rng: random.Random, geom_name: str, grid, amplitude: float = 0.3) -> np.ndarray:
    """Round profile plus (x - lo)^2 (hi - x)^2 q(x), q a degree-6 Chebyshev
    polynomial with uniform coefficients, halved until Theta > 0 inside,
    sampled at the nodes of the library's grid."""
    lo, hi = O.interval(geom_name)
    x = grid.x
    base = O.round_theta(geom_name, x)
    bump = (x - lo) ** 2 * (hi - x) ** 2
    q = C.chebval(grid.t, [rng.uniform(-amplitude, amplitude) for _ in range(7)])
    while True:
        theta = base + bump * q
        if np.all(theta[1:-1] > 0.0):
            return theta
        q = q / 2.0


def scan_ops(cl, seed: int) -> tuple[list, list]:
    """The case grid: 27 (geometry, f, h) combinations x SCAN_REPLICATES,
    each with its own random profile, direction u (degree-4 Chebyshev,
    coefficients in [-0.2, 0.2]), phi shift and transport step t in
    [0.01, 0.05], with the first-variation check.  The timed list repeats
    the cp1 cases on the same inputs without that check.  Left out of it,
    and counted in the case grid: every cpm:3 op breaks Futaki invariance
    under transport; on cpm:2, S(id,id) drifts under transport by up to
    6e-9 of the 1e-8 tolerance, too close to time safely; and the
    first-variation order falls below 1.9 on a few percent of random cp1
    and cpm:2 inputs.  Returns (case grid, timed)."""
    rng = random.Random(seed)
    ops, timed = [], []
    for g in SCAN_GEOMETRIES:
        geom = make_geometry(cl, g, SCAN_NODES)
        grid = geom.grid
        for f in SCAN_FS:
            for h in SCAN_HS:
                for _ in range(SCAN_REPLICATES):
                    theta = _random_profile(rng, g, grid)
                    u = C.chebval(grid.t, [rng.uniform(-0.2, 0.2) for _ in range(5)])
                    inputs = (cl, g, geom, theta, f, h, rng.uniform(*SHIFT_RANGE), u, rng.uniform(0.01, 0.05))
                    ops.append(ScanOp(*inputs))
                    if g in SCAN_TIMED_GEOMETRIES:
                        timed.append(ScanOp(*inputs, first_variation=False))
    rng.shuffle(ops)
    rng.shuffle(timed)
    return ops, timed
