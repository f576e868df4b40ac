"""calabilab benchmark: one command, every metric, with its correctness verdict.

    python3 bench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the root of a checkout; the library is imported from ./src.
Workloads (see BENCHMARK.json for why each was chosen):

  n-ladder         solve_critical, the round-profile evaluate and the
                   shooting kernel on cp1, cpm:2..4 at N = 129..1025,
                   warm and in-process.
  invariance-scan  S, psi and its EL report, Futaki, the equivariant
                   integral and a transport pair on seeded random profiles
                   at N = 129 (the case grid adds cpm:2, cpm:3 and the
                   first-variation check), warm, in-process.
  cli-cold         the six README commands, each a fresh process.

Each workload runs in its own process (bench/child.py), one client in a
closed loop, with BLAS and OpenMP pinned to one thread.  --trace 0 measures
the end-to-end metrics; --trace 1 runs the workload once untraced and once
with spans recorded around every layer (bench/tracer.py) and reports the
per-layer metrics and the tracing overhead.

Every attempt is classified as ok (its outputs pass the checks in
bench/oracles.py), named_failure (a CalabiLabError) or wrong.  A run first
goes once through the workload's case grid, every case including those the
library gets wrong today; fail_share, accuracy_digits and the failure
breakdown come from it.  The closed loop then repeats the timed cases, the
part of the grid the library answers correctly (bench/inprocess.py and
bench/clicold.py name them); `attempted` and `failed` count those attempts.
`correct` is true when no timed attempt failed and the determinism checks
held: pass hashes identical within the run, the same hash from a second
process, and byte-identical --out files from repeated CLI commands.  Any
other exception aborts the run with a non-zero exit and no result.

The last stdout line is the JSON result; the lines before it are the
human-readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("n-ladder", "invariance-scan", "cli-cold")
SETUP_SAMPLES = 5
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(args: list, deadline: float) -> tuple[dict, float]:
    """Run a child to completion; returns (its JSON result, launch time)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *args]
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child {' '.join(args)} timed out")
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(args)} exited {proc.returncode}:\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1]), launched


def import_times(deadline: float, samples: int = 3) -> tuple[float, float]:
    """Median cumulative `-X importtime` seconds of calabilab and
    calabilab.solver over fresh interpreters."""
    pkg, solver = [], []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import calabilab"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise BenchError(f"import calabilab failed:\n{proc.stderr[-2000:]}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
        pkg.append(cumulative.get("calabilab", 0.0))
        solver.append(cumulative.get("calabilab.solver", 0.0))
    return statistics.median(pkg), statistics.median(solver)


def machine_facts() -> dict:
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(e for e in os.listdir(base) if e.startswith("index")):
            def read(name):
                with open(os.path.join(base, entry, name)) as fh:
                    return fh.read().strip()
            if read("type") in ("Data", "Unified"):
                caches[f"L{read('level')}"] = read("size")
    except OSError:
        caches["unknown"] = "cache sizes not readable"
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "caches_per_core": caches,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "thread_env": THREAD_ENV,
    }


def quantile90(values: list) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def op_ms(durations: list, size: int, workload: str, quantile) -> float:
    """A quantile of the per-attempt times, in ms.  In-process, the median
    over the passes of each pass's quantile, so that a burst of load on the
    host spoils only the passes it falls in; cli-cold, whose cycles hold six
    commands, over all attempts."""
    if workload == "cli-cold":
        return quantile(durations) * 1e3
    return statistics.median(quantile(durations[i:i + size]) for i in range(0, len(durations), size)) * 1e3


# -- end-to-end ---------------------------------------------------------------
# Check seconds per timed pass at the reference machine speed (2-core shared
# x86-64 host, Python 3.11, numpy with OpenBLAS, one thread).  The oracle
# checks of a pass are fixed numpy work on the pass's outputs, run right
# after each op, so their time measures how fast the machine ran during that
# pass.  Op times are scaled by REF_CHECK_S / (check seconds per pass,
# median over SCALE_WINDOW passes around it): on a shared host the speed
# drifts by 20-40% within and between runs, and this takes most of that
# drift out.  The report prints the unscaled figures next to the factor.
# setup_s is not scaled: process start and import track the checks poorly
# (scaling doubled its run-to-run spread on invariance-scan).
REF_CHECK_S = {"n-ladder": 0.040, "invariance-scan": 0.20, "cli-cold": 0.0028}
SCALE_WINDOW = 5


def speed_scales(workload: str, run: dict) -> list:
    """One factor per timed pass: REF_CHECK_S over the median check time of
    the SCALE_WINDOW passes centred on it."""
    ref = REF_CHECK_S[workload]
    checks = run["pass_check_s"]
    half = SCALE_WINDOW // 2
    return [ref / statistics.median(checks[max(0, i - half):i + half + 1]) for i in range(len(checks))]


def end_to_end(args, deadline, report):
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    extra = 1 if args.workload == "cli-cold" else 2
    for _ in range(SETUP_SAMPLES - extra):
        res, launched = launch(base + ["--mode", "setup"], deadline)
        setups.append(res["ready"] - launched)
    check_hash = None
    if args.workload != "cli-cold":
        res, launched = launch(base + ["--mode", "check"], deadline)
        setups.append(res["ready"] - launched)
        check_hash = res["prefix_hash"]
    run, launched = launch(base + ["--mode", "run", "--seconds", str(args.seconds), "--case-grid"], deadline)
    setups.append(run["ready"] - launched)

    scales = speed_scales(args.workload, run)
    size = run["pass_size"]
    raw = run["durations"]
    durations = [d * scales[k // size] for k, d in enumerate(raw)]
    attempted = len(durations)
    outcomes = run["outcomes"]
    failed = outcomes["named_failure"] + outcomes["wrong"]
    grid = run["case_grid"]
    grid_failed = grid["outcomes"]["named_failure"] + grid["outcomes"]["wrong"]
    digits = grid["digits"]
    goodput = [ok / (op_s * scale) for ok, op_s, scale in zip(run["pass_ok"], run["pass_op_s"], scales)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (statistics.median(goodput), "1/s"),
        "op_ms_p50": (op_ms(durations, size, args.workload, statistics.median), "ms"),
        "op_ms_p90": (op_ms(durations, size, args.workload, quantile90), "ms"),
        "fail_share": (grid_failed / grid["attempted"], "share"),
        "accuracy_digits": (statistics.fmean(digits) if digits else 0.0, "digits"),
        "peak_rss_mb": (run["rss_mb"], "MB"),
    }
    determinism = [("passes of the run identical", run["passes_identical"])]
    if check_hash is not None:
        determinism.append(("second process, same seed, same hash", check_hash == run["prefix_hash"]))
    correct = failed == 0 and all(ok for _, ok in determinism)

    report.append(f"numpy: {json.dumps(run['numpy'])}")
    report.append(f"set-up samples (s): {', '.join(f'{s:.3f}' for s in setups)}; setup_s is their median")
    unit = "cycles of 6 commands" if args.workload == "cli-cold" else "passes"
    report.append(f"timed: {run['passes']} {unit} x {size} ops = {attempted} attempts, "
                  f"{sum(raw):.2f} s inside ops; one client, closed loop")
    report.append(f"speed scale per pass (REF_CHECK_S / check seconds): median {statistics.median(scales):.4f}, "
                  f"range {min(scales):.4f}-{max(scales):.4f}; unscaled: op_ms_p50 "
                  f"{statistics.median(raw) * 1e3:.4g} ms, ops_per_s "
                  f"{statistics.median(ok / t for ok, t in zip(run['pass_ok'], run['pass_op_s'])):.4g} 1/s")
    report.append("ops_per_s: ok results per second of scaled op time in each pass, median over the passes; "
                  + ("op_ms_p50/p90 over all attempts" if args.workload == "cli-cold" else
                     f"op_ms_p50/p90: median over the passes of each pass's quantile ({size} attempts a pass)"))
    if attempted < 100:
        report.append(f"note: op_ms_p90 rests on {attempted} attempts, fewer than the 100 that "
                      f"put 10 samples beyond it; read it as indicative")
    report.append(f"timed outcomes: ok {outcomes['ok']}, named_failure {outcomes['named_failure']}, "
                  f"wrong {outcomes['wrong']} (the timed cases are the ones the library answers correctly;"
                  f" any failure here makes the run incorrect)")
    if run["breakdown"]:
        report.append("timed failures (first pass):")
        report.extend("  " + line for line in run["breakdown"])
    report.append(f"case grid, every case once: ok {grid['outcomes']['ok']}, named_failure "
                  f"{grid['outcomes']['named_failure']}, wrong {grid['outcomes']['wrong']}; "
                  f"fail_share = {grid_failed}/{grid['attempted']}; accuracy_digits over "
                  f"{len(digits)} ops that returned numbers")
    report.append(f"case grid failures by class: {json.dumps(dict(sorted(grid['classes'].items())))}")
    report.append("case grid failure breakdown:")
    report.extend("  " + line for line in grid["breakdown"])
    report.append("determinism: " + "; ".join(f"{n}: {'yes' if ok else 'NO'}" for n, ok in determinism)
                  + (f"; hash {run['prefix_hash'][:16]}" if "prefix_hash" in run else ""))
    if "baseline" in run:
        report.extend(baseline_lines(run["baseline"]))
    return metrics, correct, attempted, failed


def baseline_lines(b: dict) -> list:
    def by_n(table):
        return sorted(table.items(), key=lambda kv: int(kv[0]))

    def sci(value):
        return "n/a" if value is None else f"{value:.2e}"

    lines = ["baseline (ROADMAP quantities, new baseline from this run):"]
    for n, ms in by_n(b["cp1_exp_id_solve_ms"]):
        lines.append(f"  solve_critical cp1 exp|id, N={n}: median {ms:.2f} ms (phi shift drawn in [2, 3])")
    for n, (ms, mb) in by_n(b["grid_build"]):
        lines.append(f"  SpectralGrid build N={n}: {ms:.2f} ms, {mb:.1f} MB")
    for case, std in sorted(b["fs_s_std"].items(), key=lambda kv: (kv[0].split()[0], int(kv[0].split("=")[1]))):
        lines.append(f"  Fubini-Study s std {case}: {std:.2e}")
    for n, (reported, recomputed) in by_n(b["cp1_exp_id_defect"]):
        lines.append(f"  cp1 exp|id defect_affine N={n}: reported {sci(reported)}, recomputed {sci(recomputed)}")
    return lines


# -- per layer ----------------------------------------------------------------
def per_layer(args, deadline, report):
    sys.path.insert(0, HERE)
    import tracer as T

    base = ["--workload", args.workload, "--seed", str(args.seed), "--mode", "run",
            "--seconds", str(args.seconds / 2.0)]
    plain, _ = launch(base, deadline)
    traced, _ = launch(base + ["--trace"], deadline)
    import_pkg, import_solver = import_times(deadline)

    def rate(run):
        scales = speed_scales(args.workload, run)
        return statistics.median(ok / (t * k) for ok, t, k in zip(run["pass_ok"], run["pass_op_s"], scales))

    ops = len(traced["durations"])
    cli = args.workload == "cli-cold"
    if cli:
        snaps = traced["cli_snapshots"]
        tr = T.merge(snaps)
        grid_ms = tr.inclusive_seconds("spectral", "SpectralGrid.__init__") * 1e3 / ops
        grid_mb = tr.counters.get("grid_bytes", 0.0) / 1e6 / ops
        compute_ms = statistics.fmean(s["compute_s"] for s in snaps) * 1e3
        written = statistics.fmean(traced["bytes_written"]) if traced["bytes_written"] else 0.0
        newton = 0.0
    else:
        tr = T.merge([traced["trace"]])
        grid_ms = traced["grid_build_s"] * 1e3
        grid_mb = traced["grid_bytes"] / 1e6
        compute_ms = written = 0.0
        known = tr.counters.get("newton_solves", 0.0)
        newton = tr.counters.get("newton_iters", 0.0) / known if known else 0.0
    c = tr.counters
    solves = tr.calls("solver", "solve_critical")

    def per_op(x):
        return x / ops

    def per_solve(x):
        return x / solves if solves else 0.0

    metrics = {
        "import.calabilab_s": (import_pkg, "s"),
        "import.solver_s": (import_solver, "s"),
        "spectral.grid_build_ms": (grid_ms, "ms"),
        "spectral.grid_mb": (grid_mb, "MB"),
        "spectral.self_ms_per_op": (per_op(tr.self_seconds("spectral")) * 1e3, "ms"),
        "spectral.v2c_calls_per_op": (per_op(tr.calls("spectral", "SpectralGrid.values_to_coefficients")), "count"),
        "spectral.v2c_mflop_per_op": (per_op(c.get("v2c_flop", 0.0)) / 1e6, "Mflop"),
        "spectral.v2c_mbytes_per_op": (per_op(c.get("v2c_bytes", 0.0)) / 1e6, "MB"),
        "spectral.chop_keep_ratio": (c["chop_kept"] / c["chop_input"] if c.get("chop_input") else 0.0, "ratio"),
        "spectral.chebdiv_calls_per_op": (per_op(c.get("chebdiv_calls", 0.0)), "count"),
        "geometry.self_ms_per_op": (per_op(tr.self_seconds("geometry")) * 1e3, "ms"),
        "geometry.scalar_curvature_calls_per_op": (per_op(tr.calls("geometry", "scalar_curvature")), "count"),
        "geometry.validate_calls_per_op": (per_op(tr.calls("geometry", "validate")), "count"),
        "functions.self_ms_per_op": (per_op(tr.self_seconds("functions")) * 1e3, "ms"),
        "functions.calls_per_op": (per_op(tr.calls("functions")), "count"),
        "potentials.self_ms_per_op": (per_op(tr.self_seconds("potentials")) * 1e3, "ms"),
        "potentials.calls_per_op": (per_op(tr.calls("potentials")), "count"),
        "variation.self_ms_per_op": (per_op(tr.self_seconds("variation")) * 1e3, "ms"),
        "variation.transport_calls_per_op": (per_op(tr.calls("variation", "transport")), "count"),
        "solver.self_ms_per_op": (per_op(tr.self_seconds("solver")) * 1e3, "ms"),
        "solver.newton_iters_per_solve": (newton, "count"),
        "solver.mismatch_calls_per_solve": (per_solve(tr.calls("solver", "_Shooter.mismatch")), "count"),
        "solver.success_ratio": (per_solve(solves - tr.raised("solver", "solve_critical")), "ratio"),
        "cli.compute_ms": (compute_ms, "ms"),
        "serialize.write_ms": (per_op(tr.self_seconds("serialize")) * 1e3 if cli else 0.0, "ms"),
        "serialize.bytes_written": (written, "B"),
        "trace.overhead_ops_per_s": (rate(plain) - rate(traced), "1/s"),
    }
    same = plain.get("prefix_hash") == traced.get("prefix_hash")
    failed = traced["outcomes"]["named_failure"] + traced["outcomes"]["wrong"]
    correct = plain["passes_identical"] and traced["passes_identical"] and same and failed == 0
    report.append(f"traced run: {ops} attempts; untraced ops_per_s {rate(plain):.3f}, "
                  f"traced {rate(traced):.3f} (overhead is their difference)")
    report.append("the run is single-threaded: no layer waits on another, so no wait times are reported;"
                  " self time = span duration minus child spans")
    report.append("v2c flop and byte figures are computed (2N^2 flop, 8N^2 B per dense transform), not measured")
    if cli:
        report.append("solver.newton_iters_per_solve: n/a for cli-cold (iterations are not visible outside "
                      "a CLI process); reported as 0")
    else:
        report.append("cli.compute_ms, serialize.*: n/a in-process (no CLI); reported as 0; "
                      "solver.newton_iters_per_solve counts solves that returned or raised "
                      "ConvergenceError (the others do not expose their iterations)")
    report.append("layer self time per op (ms): " + ", ".join(
        f"{layer} {per_op(tr.self_seconds(layer)) * 1e3:.3f}"
        for layer in ("spectral", "geometry", "functions", "potentials", "variation", "solver", "cli", "serialize")))
    return metrics, correct, ops, failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "calabilab", "__init__.py")):
        print(f"error: no calabilab package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + 170.0
    facts = machine_facts()
    report = [f"calabilab benchmark: workload {args.workload}, seed {args.seed}, "
              f"{args.seconds:g} s, trace {args.trace}",
              f"machine (read-only): {json.dumps(facts)}"]
    try:
        if args.trace:
            metrics, correct, attempted, failed = per_layer(args, deadline, report)
        else:
            metrics, correct, attempted, failed = end_to_end(args, deadline, report)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report.append(f"correct: {correct}")
    for name, (value, unit) in metrics.items():
        report.append(f"  {name:<40} {value:>14.6g} {unit}")
    print("\n".join(report))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
