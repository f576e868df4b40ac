"""The cli-cold workload: every op is a fresh `python -m calabilab.cli`.

Ops cycle through the six README commands, each writing to its own new
--out directory under .bench_run/ in the checkout.  The seed draws the
order of the commands in each cycle; a run holds whole cycles.  The
commands keep the README's own inputs (`invariance --seed 7`,
`variation-check --profile random:3:0.1`): with other random profiles the
first-variation order of `variation-check` falls below 1.9 now and then,
the defect the invariance-scan case grid counts.  Every
output file is checked against closed forms (all six commands run on CP^1,
where the Fubini-Study metric is the expected answer), and a command that
repeats in a later cycle must write byte-identical files.

The case grid is one cycle of the README commands as they stand.  The
README `sweep` fails its three h=id rows with SingularPotential, so the
timed cycles run that sweep over h=const:1 only (TIMED_SWEEP); the case
grid counts the failure in fail_share every run.

With --trace, each command runs through cli_op.py instead: the same cold
process, with the tracer installed after `import calabilab`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import time

import numpy as np

import oracles as O

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EIGHT_PI = 8.0 * math.pi
TARGET = "25.132741228718345"  # 8 pi: phi = x + 2 on CP^1
E2 = math.exp(2.0)


def commands(sweep_h: str = "const:1;id") -> dict:
    """The README commands, with the h list of `sweep` as given."""
    return {
        "evaluate": ["evaluate", "--geometry", "cp1", "--f", "id", "--h", "const:1"],
        "invariance": ["invariance", "--h", "pow:2", "--samples", "50", "--seed", "7"],
        "solve": ["solve", "--f", "exp", "--h", "id", "--target", TARGET],
        "iterate": ["iterate", "--f", "exp", "--h", "id", "--target", TARGET, "--max-steps", "4"],
        "variation-check": ["variation-check", "--profile", "random:3:0.1"],
        "sweep": ["sweep", "--f-list", "id;exp;scaled:0.5:pow:2", "--h-list", sweep_h],
    }


TIMED_SWEEP = "const:1"
OUT_DIFFERS = "--out files differ from an earlier run of the same command"


# -- output checks ---------------------------------------------------------------
def _csv(path: str) -> np.ndarray:
    with open(path) as fh:
        rows = fh.read().strip().splitlines()[1:]
    return np.array([[float(c) for c in r.split(",")] for r in rows])


def _json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _nodes(v: O.Verdict, grid: O.Grid, data: np.ndarray) -> None:
    v.holds("129 nodes", data.shape[0] == grid.n, f"{data.shape[0]} rows")
    if data.shape[0] == grid.n:
        v.rel("x = CGL nodes", np.abs(data[:, 0] - grid.x).max(), 0.0)


def check_evaluate(v, grid, out):
    rep = _json(os.path.join(out, "report.json"))
    consts = rep["class_constants"]
    v.rel("S = 8 pi", rep["S"], EIGHT_PI, O.TOL_S)
    v.rel("total_volume", consts["total_volume"], 4.0 * math.pi, O.TOL_S)
    v.rel("total_scalar", consts["total_scalar"], EIGHT_PI, O.TOL_S)
    v.rel("s0", consts["s0"], 2.0)
    v.rel("Futaki = 0", rep["futaki"] / EIGHT_PI, 0.0)
    v.holds("is_critical", rep["el_report"]["is_critical"] is True)
    v.rel("defect", rep["el_report"]["defect_affine"], 0.0)
    for name, want in (("s.csv", 2.0), ("psi.csv", 1.0)):
        data = _csv(os.path.join(out, name))
        _nodes(v, grid, data)
        v.rel(f"{name} values", np.abs(data[:, 1] - want).max() / want, 0.0)


def check_invariance(v, grid, out):
    rep = _json(os.path.join(out, "invariance.json"))
    v.holds("50 samples", rep["samples"] == 50)
    v.holds("no failed samples", not rep["failures"], str(rep["failures"])[:80])
    for key, spread in sorted(rep["results"].items()):
        v.rel(key, spread, 0.0)


def check_solve(v, grid, out):
    meta = _json(os.path.join(out, "solve.json"))
    data = _csv(os.path.join(out, "solution.csv"))
    _nodes(v, grid, data)
    v.rel("Theta = 1 - x^2", np.abs(data[:, 1] - (1.0 - grid.x ** 2)).max(), 0.0)
    v.rel("alpha = e^2", meta["alpha"], E2)
    v.rel("beta = 2 e^2", meta["beta"], 2.0 * E2)
    v.holds("status converged", meta["status"] == "converged", meta["status"])
    v.holds("is_critical", meta["el_report"]["is_critical"] is True)
    v.rel("defect", meta["el_report"]["defect_affine"] / (1.0 + 3.0 * E2), 0.0)


def check_iterate(v, grid, out):
    rep = _json(os.path.join(out, "iterate.json"))
    steps = rep["steps"]
    v.holds("4 steps", len(steps) == 4, f"{len(steps)} steps")
    for k, step in enumerate(steps):
        # phi_k = alpha_{k-1} (x + 2): the round metric stays critical and
        # each step multiplies alpha by e^2.
        alpha = math.exp(2.0 * (k + 1))
        v.rel(f"step {k} alpha", step["alpha"], alpha)
        v.rel(f"step {k} beta", step["beta"], 2.0 * alpha)
        v.rel(f"step {k} sup Theta", step["summary"]["sup_theta"], 1.0)
        v.holds(f"step {k} continued", step["status"] == "continued", step["status"])


def check_variation(v, grid, out):
    rep = _json(os.path.join(out, "variation.json"))
    orders = rep["convergence_orders"]
    v.holds("27 orders", len(orders) == 27)
    worst = min(orders.values())
    v.holds("first-variation order >= 1.9", worst >= O.MIN_ORDER, f"min order {worst:.3f}")
    v.rel("invariance drift", rep["max_invariance_drift"], 0.0)


# (f, h) -> (alpha, beta) of a successful sweep row.  phi = x (default
# target), the round metric is critical for every pair, and rows whose
# f' is constant report the affine coefficients of s instead of psi.
SWEEP_EXPECTED = {
    ("id", "const:1"): (0.0, 2.0),
    ("exp", "const:1"): (0.0, E2),
    ("scaled:0.5:pow:2", "const:1"): (0.0, 2.0),
    ("id", "id"): (0.0, 2.0),
    ("exp", "id"): (E2, 0.0),
    ("scaled:0.5:pow:2", "id"): (2.0, 0.0),
}


def check_sweep(v, grid, out):
    """Returns the named error classes of the rows that failed."""
    with open(os.path.join(out, "sweep.csv")) as fh:
        lines = fh.read().strip().splitlines()
    v.holds("header", lines[0] == "f,h,alpha,beta,defect_affine,defect_operator,status,flagged")
    hs = {line.split(",")[1] for line in lines[1:]}
    v.holds("3 rows per h", 0 < len(lines) - 1 == 3 * len(hs), f"{len(lines) - 1} rows")
    named = []
    for line in lines[1:]:
        f, h, alpha, beta, defect, _, status, _ = line.split(",")
        if status.startswith("error:"):
            named.append(status[len("error:"):])
            continue
        want_a, want_b = SWEEP_EXPECTED[(f, h)]
        v.rel(f"{f}|{h} alpha", float(alpha), want_a)
        v.rel(f"{f}|{h} beta", float(beta), want_b)
        v.rel(f"{f}|{h} defect", float(defect) / (1.0 + abs(want_a) + abs(want_b)), 0.0)
    return named


CHECKS = {
    "evaluate": check_evaluate,
    "invariance": check_invariance,
    "solve": check_solve,
    "iterate": check_iterate,
    "variation-check": check_variation,
    "sweep": check_sweep,
}


def out_hash(out: str) -> str:
    h = hashlib.sha256()
    for dirpath, _, files in sorted(os.walk(out)):
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, out).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def out_bytes(out: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(out) for f in fs)


# -- the loop --------------------------------------------------------------------
def run_command(argv, out, env, trace):
    """Returns (seconds, outcome, class, trace snapshot or None); outcome is
    "done" when the command exited 0 and its files still need checking."""
    if trace:
        cmd = [sys.executable, os.path.join(HERE, "cli_op.py"), *argv, "--out", out]
    else:
        cmd = [sys.executable, "-m", "calabilab.cli", *argv, "--out", out]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    took = time.perf_counter() - start
    if proc.returncode == 1 and "Traceback" not in proc.stderr:
        # the CLI prints only the message of a CalabiLabError
        return took, "named_failure", "CalabiLabError(exit 1)", None
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    snapshot = json.loads(proc.stdout.strip().splitlines()[-1]) if trace else None
    return took, "done", None, snapshot


def run_cycle(cmds, order, tag, scratch, env, trace, grid, first_hash):
    """Run each named command once; returns one record per command:
    (seconds, outcome, class, digits or None, bytes written or None,
    trace snapshot or None, why it failed, check seconds)."""
    records = []
    for name in order:
        out = os.path.join(scratch, f"{name}-{tag}")
        took, outcome, cls, snap = run_command(cmds[name], out, env, trace)
        digits = size = None
        why = ""
        checked = 0.0
        if outcome == "done":
            v = O.Verdict()
            start = time.perf_counter()
            named = CHECKS[name](v, grid, out)
            checked = time.perf_counter() - start
            digits = v.digits()
            if not v.ok:
                outcome, cls = "wrong", f"wrong:{name}"
            elif named:
                # a command is ok only when every result it was asked for is
                outcome, cls = "named_failure", named[0]
            else:
                outcome = "ok"
            why = "; ".join(v.failed[:2]) or (f"rows failed with {', '.join(named)}" if named else "")
            digest = out_hash(out)
            key = " ".join(cmds[name])
            if first_hash.setdefault(key, digest) != digest:
                outcome, cls, why = "wrong", f"wrong:{name}", OUT_DIFFERS
            size = out_bytes(out)
        records.append((took, outcome, cls, digits, size, snap, f"{' '.join(cmds[name])}  {why}", checked))
        shutil.rmtree(out, ignore_errors=True)
    return records


def main(args, import_library, numpy_facts) -> None:
    import_library()
    cl = sys.modules["calabilab"]
    cl.make_cp1_geometry(129)  # the cold grid every command builds
    readme = commands()
    cmds = commands(TIMED_SWEEP)
    rng = random.Random(args.seed + 1)
    ready = time.monotonic()
    result = {"ready": ready}
    if args.mode != "run":
        print(json.dumps(result))
        return

    grid = O.grid_for("cp1", 129)
    env = dict(os.environ)
    scratch = os.path.join(ROOT, ".bench_run", str(os.getpid()))
    os.makedirs(scratch)
    first_hash = {}
    records, cycle_s, cycle_ok, cycle_check = [], [], [], []
    try:
        if args.case_grid:
            grid_records = run_cycle(readme, sorted(readme), "grid", scratch, env, False, grid, first_hash)
            result["case_grid"] = summarize(grid_records)
            result["case_grid"]["breakdown"] = [f"{r[2]:<24} {r[6]}" for r in grid_records if r[1] != "ok"]
        start = time.monotonic()
        cycles = 0
        while True:
            order = sorted(cmds)
            rng.shuffle(order)
            recs = run_cycle(cmds, order, str(cycles), scratch, env, args.trace, grid, first_hash)
            if cycles == 0:
                result["breakdown"] = [f"{r[2]:<24} {r[6]}" for r in recs if r[1] != "ok"]
            records.extend(recs)
            cycle_s.append(sum(r[0] for r in recs))
            cycle_ok.append(sum(r[1] == "ok" for r in recs))
            cycle_check.append(sum(r[7] for r in recs))
            cycles += 1
            if time.monotonic() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass
    result.update(summarize(records))
    result.update({
        "durations": [r[0] for r in records], "pass_op_s": cycle_s, "pass_ok": cycle_ok,
        "pass_check_s": cycle_check,
        "passes": cycles, "pass_size": len(cmds),
        "passes_identical": not any(r[6].endswith(OUT_DIFFERS) for r in records),
        "rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "bytes_written": [r[4] for r in records if r[4] is not None], "numpy": numpy_facts(),
    })
    if args.trace:
        result["cli_snapshots"] = [r[5] for r in records if r[5] is not None]
    print(json.dumps(result))


def summarize(records) -> dict:
    out = {"attempted": len(records), "outcomes": {"ok": 0, "named_failure": 0, "wrong": 0},
           "classes": {}, "digits": [r[3] for r in records if r[3] is not None]}
    for r in records:
        out["outcomes"][r[1]] += 1
        if r[2] is not None:
            out["classes"][r[2]] = out["classes"].get(r[2], 0) + 1
    return out
