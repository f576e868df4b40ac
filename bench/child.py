"""One workload process: set up, then run ops in a closed loop.

    python bench/child.py --workload W --seed S --mode M [--seconds T] [--case-grid] [--trace]

Modes:
  setup  set up and exit; the ready time is the end of set-up.
  check  set up and run the first CHECK_OPS timed ops; report their hash.
  run    set up; with --case-grid, run the case grid once; warm up for
         WARMUP_S seconds untimed; then run timed passes over the timed ops
         until --seconds have passed, finishing the pass in progress so
         that every run holds whole passes.  Every pass must hash the same,
         and its first CHECK_OPS ops the same as in the check process.

Set-up is `import calabilab`, the grids the workload uses and the inputs
drawn from the seed.  The last stdout line is one JSON object; run.py
turns it into metrics.  A CalabiLabError inside an op is a named failure,
an output that fails its check is wrong, and any other exception aborts the
process as a bug.  Each op's check is timed too: run.py uses the check time
of a pass as its measure of the machine's speed during that pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

WARMUP_S = 1.0
CHECK_OPS = 48


def import_library():
    import calabilab

    expected = os.path.join(ROOT, "src", "calabilab", "__init__.py")
    if os.path.realpath(calabilab.__file__) != os.path.realpath(expected):
        raise SystemExit(f"calabilab imported from {calabilab.__file__}, expected {expected}")
    return calabilab


def run_pass(ops, errors, tracer=None):
    """Run every op once.  Returns (records, hash, hash of the first
    CHECK_OPS ops); a record is (op seconds, check seconds, outcome, class,
    digits or None, op index)."""
    h = hashlib.sha256()
    prefix = None
    records = []
    clock = time.perf_counter
    for i, op in enumerate(ops):
        if i == CHECK_OPS:
            prefix = h.hexdigest()
        start = clock()
        try:
            out = op.call()
        except errors as exc:
            took = clock() - start
            name = type(exc).__name__
            records.append((took, 0.0, "named_failure", name, None, i))
            h.update(f"{i}:{name}:{exc}".encode())
            if tracer is not None and hasattr(exc, "trace"):
                # a ConvergenceError carries its Newton trace; other
                # failures leave the iteration count unknown
                tracer.count("newton_solves")
                tracer.count("newton_iters", len(exc.trace))
            op.took = took
            continue
        took = clock() - start
        verdict, numbers = op.check(out)
        checked = clock() - start - took
        outcome = "ok" if verdict.ok else "wrong"
        records.append((took, checked, outcome, None if verdict.ok else "wrong:" + op.kind,
                        verdict.digits(), i))
        h.update(f"{i}:".encode() + numbers)
        if tracer is not None and op.kind == "solve":
            tracer.count("newton_solves")
            tracer.count("newton_iters", out.iterations)
        op.last_failures = verdict.failed
        op.took = took
    return records, h.hexdigest(), prefix or h.hexdigest()


def setup_inprocess(workload, seed, trace):
    import inprocess as W

    cl = import_library()
    tracer = None
    if trace:
        import tracer as T

        tracer = T.Tracer()
        T.install(tracer)
    grid_ops, timed = W.ladder_ops(cl, seed) if workload == "n-ladder" else W.scan_ops(cl, seed)
    return cl, grid_ops, timed, tracer


def tally(records) -> dict:
    out = {"attempted": len(records), "outcomes": {"ok": 0, "named_failure": 0, "wrong": 0},
           "classes": {}, "digits": []}
    for _, _, outcome, cls, digits, _ in records:
        out["outcomes"][outcome] += 1
        if cls is not None:
            out["classes"][cls] = out["classes"].get(cls, 0) + 1
        if digits is not None:
            out["digits"].append(digits)
    return out


def breakdown(records, ops):
    """Ops that did not come back ok, grouped by class, op and the first
    check that failed; one line per group with its count."""
    groups = {}
    for _, _, outcome, cls, _, i in records:
        if outcome == "ok":
            continue
        op = ops[i]
        why = (op.last_failures[0] if outcome == "wrong" else "")
        key = (cls, op.group, why.split(":")[0])
        groups.setdefault(key, [0, why])[0] += 1
    return [f"{count:>4} x {cls:<22} {group}  {why}"
            for (cls, group, _), (count, why) in sorted(groups.items())]


def ladder_baseline(cl, ops):
    """The ROADMAP baseline quantities, from the case-grid pass."""
    times, stds, defects = {}, {}, {}
    for op in ops:
        if op.kind == "solve" and op.geom_name == "cp1" and (op.f, op.h) == ("exp", "id"):
            times.setdefault(op.n, []).append(op.took * 1e3)
            if hasattr(op, "last_defect"):
                defects[op.n] = op.last_defect
        if op.kind == "evaluate" and op.geom_name in ("cpm:2", "cpm:4") and hasattr(op, "last_s_std"):
            stds[f"{op.geom_name} N={op.n}"] = op.last_s_std
    grids = {}
    for n in (129, 513, 1025):
        builds = []
        for _ in range(3):
            start = time.perf_counter()
            grid = cl.SpectralGrid(n, -1.0, 1.0)
            builds.append((time.perf_counter() - start) * 1e3)
        mb = sum(v.nbytes for v in vars(grid).values() if hasattr(v, "nbytes")) / 1e6
        grids[n] = (sorted(builds)[1], mb)
    return {"cp1_exp_id_solve_ms": {n: statistics.median(v) for n, v in sorted(times.items())},
            "grid_build": grids, "fs_s_std": stds, "cp1_exp_id_defect": defects}


def numpy_facts() -> dict:
    import numpy

    facts = {"numpy": numpy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # older numpy has no dict mode; the fact is optional
        facts["blas"] = f"unknown ({type(exc).__name__})"
    return facts


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "check", "run"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--case-grid", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    if args.workload == "cli-cold":
        import clicold

        clicold.main(args, import_library, numpy_facts)
        return

    cl, grid_ops, ops, tracer = setup_inprocess(args.workload, args.seed, args.trace)
    ready = time.monotonic()
    result = {"ready": ready}
    if tracer is not None:
        result["grid_build_s"] = tracer.inclusive_seconds("spectral", "SpectralGrid.__init__")
        result["grid_bytes"] = tracer.counters.get("grid_bytes", 0.0)
        result["grids"] = tracer.calls("spectral", "SpectralGrid.__init__")
    if args.mode == "setup":
        print(json.dumps(result))
        return

    errors = cl.CalabiLabError
    if args.mode == "check":
        _, result["prefix_hash"], _ = run_pass(ops[:CHECK_OPS], errors)
        print(json.dumps(result))
        return

    if args.case_grid:
        grid_records, _, _ = run_pass(grid_ops, errors)
        result["case_grid"] = tally(grid_records)
        result["case_grid"]["breakdown"] = breakdown(grid_records, grid_ops)
        if args.workload == "n-ladder":
            result["baseline"] = ladder_baseline(cl, grid_ops)
    start = time.monotonic()
    while time.monotonic() - start < WARMUP_S:
        for op in ops:
            try:
                op.check(op.call())
            except errors:
                pass
            if time.monotonic() - start >= WARMUP_S:
                break
    if tracer is not None:
        tracer.reset()
    records, hashes, op_s, check_s = [], [], [], []
    start = time.monotonic()
    while True:
        recs, digest, prefix = run_pass(ops, errors, tracer)
        if not hashes:
            result["prefix_hash"] = prefix
            result["breakdown"] = breakdown(recs, ops)
        records.extend(recs)
        hashes.append(digest)
        op_s.append(sum(r[0] for r in recs))
        check_s.append(sum(r[1] for r in recs))
        if time.monotonic() - start >= args.seconds:
            break
    result.update(tally(records))
    result["durations"] = [r[0] for r in records]
    result["pass_op_s"] = op_s
    result["pass_check_s"] = check_s
    result["pass_ok"] = [sum(r[2] == "ok" for r in records[i:i + len(ops)])
                         for i in range(0, len(records), len(ops))]
    result["passes"] = len(hashes)
    result["pass_size"] = len(ops)
    result["passes_identical"] = len(set(hashes)) == 1
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["numpy"] = numpy_facts()
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
