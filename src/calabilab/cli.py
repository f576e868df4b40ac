"""Command-line front end.

Commands: evaluate, invariance, solve, iterate, variation-check, sweep.
All randomness flows from --seed through the documented splitmix64
generator; identical config + seed produces byte-identical outputs.

Exit codes: 0 success, 1 numerical or I/O failure, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields

import numpy as np

from . import variation as var
from .config import OPTIONS, RunConfig, finite_float, load_config
from .errors import AdmissibilityError, CalabiLabError, ConfigError, PathExitsClass
from .functions import constant, parse_function
from .geometry import (
    make_cp1_geometry,
    make_cpm_geometry,
    random_admissible_profile,
    random_chebyshev,
    round_profile,
)
from .potentials import (
    el_potential,
    eval_S,
    futaki,
    holomorphy_defect,
    normalize_potential,
)
from .serialize import fmt, profile_from_csv, profile_to_csv, rows_to_csv, sampled_to_csv, write_outputs
from .solver import iterate, solve_critical
from .spectral import SampledFunction

DIRECTION_DEGREE = 4
DIRECTION_SCALE = 0.2
T_MAX = 0.25
# sweep flags a row whose psi has |alpha| above this and whose h is not constant
ALPHA_THRESHOLD = 1e-8


def _geometry(cfg: RunConfig):
    spec = cfg.geometry.strip().lower()
    if spec == "cp1":
        return make_cp1_geometry(cfg.nodes)
    if spec.startswith("cpm:"):
        try:
            m = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad geometry spec {cfg.geometry!r}") from exc
        return make_cpm_geometry(m, cfg.nodes)
    raise ConfigError(f"unknown geometry {cfg.geometry!r} (use cp1 or cpm:<m>)")


def _problem(cfg: RunConfig):
    """The geometry, f, h and the normalised potential phi of a run."""
    geom = _geometry(cfg)
    f = parse_function(cfg.f_expr)
    h = parse_function(cfg.h_expr)
    return geom, f, h, normalize_potential(geom, cfg.target)


def _profile(geom, cfg: RunConfig):
    spec = cfg.profile.strip()
    if spec == "round":
        return round_profile(geom)
    parts = spec.split(":")
    if parts[0] == "random" and len(parts) <= 3:
        try:
            seed = int(parts[1]) if len(parts) > 1 else cfg.seed
            amp = finite_float(parts[2]) if len(parts) > 2 else cfg.amplitude
        except ValueError as exc:
            raise ConfigError(f"bad profile spec {cfg.profile!r}") from exc
        return random_admissible_profile(geom, seed, amp)
    if spec.startswith("file:"):
        with open(spec[5:]) as fh:
            return profile_from_csv(geom, fh.read())
    raise ConfigError(f"unknown profile spec {cfg.profile!r}")


def _random_direction(geom, seed: int) -> SampledFunction:
    """A degree-DIRECTION_DEGREE Chebyshev polynomial with coefficients
    drawn uniformly from [-DIRECTION_SCALE, DIRECTION_SCALE]."""
    return SampledFunction(geom.grid, random_chebyshev(geom, seed, DIRECTION_DEGREE, DIRECTION_SCALE))


def _safe_t_max(profile, path, phi) -> float:
    """The first of T_MAX, T_MAX / 2, ... (30 tries) at which the transports
    to +t and -t both stay in the class and admissible, else 0.0."""
    t = T_MAX
    for _ in range(30):
        try:
            if not any(var.transport(profile, path, sign * t, phi)[0].violations for sign in (1.0, -1.0)):
                return t
        except PathExitsClass:
            pass
        t /= 2.0
    return 0.0


# -- commands ----------------------------------------------------------------
def cmd_evaluate(cfg: RunConfig) -> int:
    geom, f, h, phi = _problem(cfg)
    profile = _profile(geom, cfg)
    s_val = eval_S(profile, f, h, phi)
    psi = el_potential(profile, f, h, phi)
    report = holomorphy_defect(profile, psi)
    write_outputs(cfg.out, {
        "report.json": {
            "S": s_val,
            "class_constants": geom.constants._asdict(),
            "futaki": futaki(profile, phi),
            "el_report": asdict(report),
            "f": f.render(),
            "h": h.render(),
            "phi_shift": phi.shift,
        },
        "psi.csv": sampled_to_csv(psi, "psi"),
        "s.csv": sampled_to_csv(profile.s, "s"),
    })
    print(f"evaluate: S = {s_val}, is_critical = {report.is_critical}")
    return 0


def cmd_invariance(cfg: RunConfig) -> int:
    if cfg.samples < 0:
        raise ConfigError(f"samples must be nonnegative, got {cfg.samples}")
    geom = _geometry(cfg)
    phi = normalize_potential(geom, cfg.target)
    if cfg.samples == 0:
        write_outputs(cfg.out, {"invariance.json": {"samples": 0, "results": {}}})
        print("invariance: empty report")
        return 0
    # neither the equivariant integrals C_vol int h(phi) w dx nor S at
    # f = h = id is sampled: every profile of the class shares the measure
    # w dx, and S(id, id) = Futaki + s0 * target, so each would repeat a
    # spread reported here
    fut_vals = []
    failures = []
    for i in range(cfg.samples):
        try:
            profile = random_admissible_profile(geom, cfg.seed + i, cfg.amplitude)
        except AdmissibilityError as exc:
            failures.append({"sample": i, "error": str(exc)})
            continue
        fut_vals.append(futaki(profile, phi))
    # transport paths from the round profile
    base = round_profile(geom)
    fut_path = []
    for k in range(3):
        dpath = var.DeformationPath(_random_direction(geom, cfg.seed + 1000 + k))
        t_max = _safe_t_max(base, dpath, phi)
        for t in np.linspace(-t_max, t_max, 11):
            moved, phi_t = var.transport(base, dpath, float(t), phi)
            fut_path.append(futaki(moved, phi_t))
    fut_path = np.array(fut_path)
    path_mean = np.add.reduce(fut_path) / fut_path.size
    report = {
        "samples": cfg.samples,
        "results": {
            "futaki_max": float(np.maximum.reduce(np.abs(fut_vals))) if fut_vals else 0.0,
            "futaki_path_spread": float(np.maximum.reduce(np.abs(fut_path - path_mean))),
        },
        "failures": failures,
    }
    write_outputs(cfg.out, {"invariance.json": report})
    print(f"invariance: max spreads {report['results']}")
    return 0


def cmd_solve(cfg: RunConfig) -> int:
    geom, f, h, phi = _problem(cfg)
    result = solve_critical(geom, f, h, phi)
    write_outputs(cfg.out, {
        "solution.csv": profile_to_csv(result.profile),
        "solve.json": {
            "alpha": result.alpha,
            "beta": result.beta,
            "iterations": result.iterations,
            "status": result.status,
            "el_report": asdict(result.el_report),
        },
    })
    print(
        f"solve: status={result.status} (alpha, beta)=({fmt(result.alpha)}, {fmt(result.beta)})"
    )
    return 0


def cmd_iterate(cfg: RunConfig) -> int:
    geom, f, h, phi = _problem(cfg)
    trace = iterate(geom, f, h, phi, cfg.max_steps)
    write_outputs(cfg.out, {
        "iterate.json": {
            "final_status": trace.final_status,
            "steps": [asdict(s) for s in trace.steps],
        },
    })
    print(f"iterate: {len(trace.steps)} step(s), final status {trace.final_status}")
    return 1 if trace.final_status == "failed" else 0


def cmd_variation_check(cfg: RunConfig) -> int:
    geom = _geometry(cfg)
    profile = _profile(geom, cfg)
    phi = normalize_potential(geom, 2.0 * geom.constants.total_volume)  # shift c = 2 keeps h domains safe
    fs = ["pow:2", "exp", "scaled:0.5:pow:2"]
    hs = ["const:1", "id", "pow:2"]
    x = geom.grid.x
    # each direction's path is built once, so its u'' is computed once
    paths = {
        "quadratic": var.DeformationPath(SampledFunction(geom.grid, x ** 2)),
        "cubic": var.DeformationPath(SampledFunction(geom.grid, x ** 3 + 0.5 * x ** 2)),
        "random": var.DeformationPath(_random_direction(geom, cfg.seed + 77)),
    }
    orders = {}
    for fe in fs:
        for he in hs:
            for uname, dpath in paths.items():
                orders[f"{fe}|{he}|{uname}"] = var.convergence_order(
                    profile, parse_function(fe), parse_function(he), phi, dpath
                )
    # first-order drift of the equivariant integrals, S with f = 1
    drift = 0.0
    for dpath in paths.values():
        step = _safe_t_max(profile, dpath, phi) / 8
        if not step:
            continue
        for he in hs + ["exp"]:
            d = var.delta_S_numeric(profile, constant(1.0), parse_function(he), phi, dpath, step)
            drift = max(drift, abs(d))
    report = {"convergence_orders": orders, "max_invariance_drift": drift}
    write_outputs(cfg.out, {"variation.json": report})
    worst = min(orders.values())
    print(f"variation-check: min order {worst:.3f}, max drift {drift:.3e}")
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    geom = _geometry(cfg)
    phi = normalize_potential(geom, cfg.target)
    rows = []
    for fe in [s.strip() for s in cfg.f_list.split(";") if s.strip()]:
        for he in [s.strip() for s in cfg.h_list.split(";") if s.strip()]:
            try:
                f = parse_function(fe)
                h = parse_function(he)
            except ConfigError as exc:
                rows.append((fe, he, "", "", "", "", f"parse_error:{exc}", ""))
                continue
            try:
                res = solve_critical(geom, f, h, phi)
            except CalabiLabError as exc:
                rows.append((fe, he, "", "", "", "", f"error:{type(exc).__name__}", ""))
                continue
            flagged = abs(res.el_report.alpha) > ALPHA_THRESHOLD and h.constant_value() is None
            numbers = (res.alpha, res.beta, res.el_report.defect_affine, res.el_report.defect_operator)
            rows.append((fe, he, *map(fmt, numbers), res.status, "yes" if flagged else "no"))
    header = ("f", "h", "alpha", "beta", "defect_affine", "defect_operator", "status", "flagged")
    write_outputs(cfg.out, {"sweep.csv": rows_to_csv(header, rows)})
    print(f"sweep: {len(rows)} grid point(s) written")
    return 0


# -- argument plumbing --------------------------------------------------------
# command -> (function, the RunConfig fields it reads that a flag sets);
# --config is every command's flag.  invariance reads no h: its --h stays
# only while the benchmark's cli-cold commands pass it (ROADMAP item 5)
COMMANDS = {
    "evaluate": (cmd_evaluate, ("geometry", "profile", "f_expr", "h_expr", "target", "nodes", "seed", "out")),
    "invariance": (cmd_invariance, ("geometry", "h_expr", "target", "nodes", "seed", "samples", "out")),
    "solve": (cmd_solve, ("geometry", "f_expr", "h_expr", "target", "nodes", "out")),
    "iterate": (cmd_iterate, ("geometry", "f_expr", "h_expr", "target", "nodes", "max_steps", "out")),
    "variation-check": (cmd_variation_check, ("geometry", "profile", "nodes", "seed", "out")),
    "sweep": (cmd_sweep, ("geometry", "target", "nodes", "f_list", "h_list", "out")),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="calabilab",
        description=(
            "Desk-scale laboratory for scalar-curvature functionals on "
            "circle-symmetric Kahler profiles.  CSV columns: profiles are "
            "(x,theta); psi.csv is (x,psi), or (x,psi_re,psi_im) for complex "
            "psi; s.csv is (x,s); sweep rows are "
            "(f,h,alpha,beta,defect_affine,defect_operator,status,flagged)."
        ),
        allow_abbrev=False,
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, names) in COMMANDS.items():
        # no abbreviations: each flag has one spelling
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", help="run-config file (flat dotted keys)")
        for field in names:
            opt = OPTIONS[field]
            p.add_argument(opt.flag, dest=field, type=opt.type, help=opt.help)
    return ap


def _config_from_args(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    for f in fields(RunConfig):
        if getattr(args, f.name, None) is not None:
            setattr(cfg, f.name, getattr(args, f.name))
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a command reports a non-finite result as a named error, so numpy's
        # floating-point warnings are off for the run: stderr is that line
        with np.errstate(all="ignore"):
            return COMMANDS[args.command][0](_config_from_args(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CalabiLabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
