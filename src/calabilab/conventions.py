"""Convention constants pinned by executable oracles.

The transport scale constants are not taken on faith: kappa_theta enters
the symplectic-potential transport G_t = G_0 - kappa_theta * t * u and
kappa_phi the fixed-point moment velocity dphi = kappa_phi * Theta * u'.
The Legendre dictionary forces kappa_phi = kappa_theta; the value 1/2
corresponds to reading the deformation direction u as a Kahler potential
increment (omega = i ddbar F with moment map F'/2).  build_manifest only
records the pair.  The transport tests verify kappa_theta, which
variation.py reads; no computation reads kappa_phi.
"""

from __future__ import annotations

import numpy as np

from .geometry import DEFAULT_NODES, make_cpm_geometry, round_profile
from .serialize import dump_json

KAPPA_THETA = 0.5
KAPPA_PHI = 0.5

GENERATOR = "splitmix64"


def pin_cpm_base_coefficient(m: int) -> tuple[float, float]:
    """Pin the coefficient a in A(x) = a * x^(m-2) by requiring the
    Fubini-Study profile 2x(1-x) to have constant scalar curvature.

    Solves the linear least-squares problem
        a * x^(m-2) - (w Theta_FS)'' = c * x^(m-1)
    over the grid of DEFAULT_NODES nodes for (a, c) and returns them; c is
    the pinned constant scalar curvature.
    """
    geom = make_cpm_geometry(m, DEFAULT_NODES)
    grid = geom.grid
    x = grid.x
    w = geom.weight.values
    theta = round_profile(geom).theta.values
    d2 = grid.differentiate_values(w * theta, 2)
    basis = np.stack([x ** (m - 2), x ** (m - 1)], axis=1)
    sol, *_ = np.linalg.lstsq(basis, d2, rcond=None)
    a, neg_c = sol[0], sol[1]
    return float(a), float(-neg_c)


def build_manifest() -> dict:
    """Recompute all pinned constants and return the conventions manifest.
    The observed Fubini-Study scalar curvature of CP^m, m = 2, 3, 4, is
    recorded from the computation (its mean and spread) rather than asserted."""
    manifest = {
        "kappa_theta": KAPPA_THETA,
        "kappa_phi": KAPPA_PHI,
        "random_generator": GENERATOR,
        "vol_const_convention": "C_vol = 2*pi (one angular circle)",
        "nodes": DEFAULT_NODES,
        "cpm": {},
    }
    for m in (2, 3, 4):
        a, c = pin_cpm_base_coefficient(m)
        s = round_profile(make_cpm_geometry(m, DEFAULT_NODES)).s.values
        mean = np.add.reduce(s) / s.size
        dev = s - mean
        manifest["cpm"][str(m)] = {
            "base_coefficient": a,
            "scalar_constant": c,
            "scalar_constant_observed": float(mean),
            "scalar_std": float(np.sqrt(np.add.reduce(dev * dev) / s.size)),
        }
    return manifest


def write_manifest(path) -> dict:
    manifest = build_manifest()
    dump_json(manifest, path)
    return manifest
