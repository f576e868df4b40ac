import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from calabilab import (
    DeformationPath,
    NonFiniteError,
    SampledFunction,
    eval_S,
    futaki,
    identity,
    make_cp1_geometry,
    normalize_potential,
    power,
    profile_to_csv,
    round_profile,
)
from calabilab import cli
from calabilab.cli import _safe_t_max, build_parser, main
from calabilab.functions import FunctionDescriptor

README = Path(__file__).resolve().parent.parent / "README.md"

EIGHT_PI = 8.0 * math.pi

# each command's flags, without --help: the run options it reads, and --config
COMMAND_FLAGS = {
    "evaluate": {"config", "geometry", "profile", "f", "h", "target", "nodes", "seed", "out"},
    "invariance": {"config", "geometry", "h", "target", "nodes", "seed", "samples", "out"},
    "solve": {"config", "geometry", "f", "h", "target", "nodes", "out"},
    "iterate": {"config", "geometry", "f", "h", "target", "nodes", "max-steps", "out"},
    "variation-check": {"config", "geometry", "profile", "nodes", "seed", "out"},
    "sweep": {"config", "geometry", "target", "nodes", "f-list", "h-list", "out"},
}


def test_evaluate_writes_report(tmp_path):
    out = tmp_path / "eval"
    code = main(
        ["evaluate", "--f", "id", "--h", "const:1", "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert abs(report["S"] - EIGHT_PI) < 1e-9
    assert report["el_report"]["is_critical"] is True
    assert (out / "psi.csv").read_text().startswith("x,psi\n")
    assert (out / "s.csv").exists()


def test_evaluate_cpm3_at_1025_nodes(tmp_path):
    out = tmp_path / "eval1025"
    assert main(["evaluate", "--geometry", "cpm:3", "--nodes", "1025", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    # Fubini-Study: S = s0 * vol = 24 * 2 pi / 3, and the Futaki invariant vanishes
    assert abs(report["S"] - 16.0 * math.pi) < 1e-9 * 16.0 * math.pi
    assert abs(report["futaki"]) < 1e-10


def test_solve_writes_round_profile(tmp_path):
    out = tmp_path / "solve"
    code = main(["solve", "--f", "id", "--h", "const:1", "--out", str(out)])
    assert code == 0
    lines = (out / "solution.csv").read_text().strip().splitlines()
    assert lines[0] == "x,theta"
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.abs(data[:, 1] - (1.0 - data[:, 0] ** 2)).max() < 1e-8
    meta = json.loads((out / "solve.json").read_text())
    assert abs(meta["alpha"]) < 1e-8 and abs(meta["beta"] - 2.0) < 1e-8
    # the solution read back through --profile file: is the critical round metric
    back = tmp_path / "back"
    assert main(["evaluate", "--profile", f"file:{out / 'solution.csv'}", "--out", str(back)]) == 0
    report = json.loads((back / "report.json").read_text())
    assert report["el_report"]["is_critical"] is True and abs(report["S"] - EIGHT_PI) < 1e-9


def test_invariance_report(tmp_path, monkeypatch):
    # Futaki is read on each sample and at 11 points of each of 3 paths; S is
    # not: at f = h = id it is Futaki + s0 * target on every profile
    read, evaluated = [], []
    monkeypatch.setattr(cli, "futaki", lambda profile, phi: read.append(profile) or futaki(profile, phi))
    monkeypatch.setattr(cli, "eval_S", lambda profile, *rest: evaluated.append(profile) or eval_S(profile, *rest))
    out = tmp_path / "inv"
    code = main(
        ["invariance", "--h", "pow:2", "--samples", "20", "--seed", "5", "--target", str(EIGHT_PI), "--out", str(out)]
    )
    assert code == 0
    assert len(read) == 20 + 3 * 11 and evaluated == []
    report = json.loads((out / "invariance.json").read_text())
    # the equivariant integrals do not depend on the metric, so they are not
    # reported, and --h is not read
    assert set(report) == {"samples", "results", "failures"}
    assert set(report["results"]) == {"futaki_max", "futaki_path_spread"}
    assert all(value < 1e-8 for value in report["results"].values()), report["results"]


def test_invariance_records_failed_samples(tmp_path, capsys):
    # at amplitude 1e12 every sample's halvings run out: sample i is the
    # profile random:<seed + i>, whose failure evaluate names the same way,
    # and with no sample left the largest sampled Futaki is 0
    cfg = tmp_path / "amp.cfg"
    cfg.write_text("amplitude=1e12\n")
    out = tmp_path / "inv"
    assert main(["invariance", "--config", str(cfg), "--samples", "2", "--seed", "1", "--out", str(out)]) == 0
    report = json.loads((out / "invariance.json").read_text())
    errors = []
    for seed in (1, 2):
        assert main(["evaluate", "--profile", f"random:{seed}:1e12", "--out", str(tmp_path / "e")]) == 1
        errors.append(capsys.readouterr().err.strip().removeprefix("numerical failure: "))
    assert report["failures"] == [{"sample": 0, "error": errors[0]}, {"sample": 1, "error": errors[1]}]
    assert report["results"]["futaki_max"] == 0.0


def test_invariance_zero_samples_writes_empty_report(tmp_path, capsys):
    out = tmp_path / "inv0"
    assert main(["invariance", "--samples", "0", "--out", str(out)]) == 0
    assert json.loads((out / "invariance.json").read_text()) == {"samples": 0, "results": {}}
    assert "empty report" in capsys.readouterr().out


def test_iterate_command(tmp_path):
    out = tmp_path / "it"
    code = main(
        [
            "iterate",
            "--f",
            "exp",
            "--h",
            "id",
            "--target",
            str(2.0 * 4.0 * math.pi),
            "--max-steps",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads((out / "iterate.json").read_text())
    assert set(report) == {"final_status", "steps"}
    assert len(report["steps"]) >= 2


def test_sweep_csv_schema(tmp_path):
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            "--f-list",
            "id;exp",
            "--h-list",
            "const:1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "f,h,alpha,beta,defect_affine,defect_operator,status,flagged"
    assert len(lines) == 3


def test_sweep_flags_a_nonzero_alpha_for_a_nonconstant_h(tmp_path, monkeypatch):
    # phi = x + 2 keeps h = id positive: exp|id has psi's alpha = e^2 and
    # id|id has psi = phi, alpha = 1 (while its top-level alpha, the slope
    # of s, is 0), both flagged unless the threshold is above them; a
    # constant h is never flagged
    flags = {}
    for threshold in (1e-8, 10.0):
        monkeypatch.setattr(cli, "ALPHA_THRESHOLD", threshold)
        out = tmp_path / str(threshold)
        args = ["sweep", "--f-list", "id;exp", "--h-list", "const:1;id", "--target", str(EIGHT_PI),
                "--out", str(out)]
        assert main(args) == 0
        rows = list(csv.reader(io.StringIO((out / "sweep.csv").read_text())))[1:]
        flags[threshold] = {(row[0], row[1]): row[7] for row in rows}
    assert flags[1e-8] == {("id", "const:1"): "no", ("id", "id"): "yes", ("exp", "const:1"): "no", ("exp", "id"): "yes"}
    assert set(flags[10.0].values()) == {"no"}


def test_safe_t_max_halves_until_both_transports_stay_admissible():
    # u = c x^2 on the round CP^1 profile: Theta_t = Theta / (1 - c t Theta),
    # which stays in the class while c t < 1 (max Theta = 1).  The first of
    # the 30 steps 1/4, 1/8, ..., 2^-31 below 1/c is returned, else 0: for
    # c = 3e9, 2^-31 = 4.7e-10 is above 1/c and 2^-32 would not be
    geom = make_cp1_geometry()
    base, phi, x = round_profile(geom), normalize_potential(geom), geom.grid.x
    # u = -c x^2 leaves the class on the side t < 0 instead
    for c, t_max in ((1.0, 0.25), (10.0, 0.0625), (-10.0, 0.0625), (3e9, 0.0)):
        path = DeformationPath(SampledFunction(geom.grid, c * x ** 2))
        assert _safe_t_max(base, path, phi) == t_max, c


def test_sweep_records_errors_in_rows(tmp_path):
    out = tmp_path / "sweep_err"
    # h = id with phi = x crosses zero: the exp row records the error, exit 0;
    # with f = id the solver never divides by h and every metric is critical
    code = main(["sweep", "--f-list", "exp;id", "--h-list", "id", "--out", str(out)])
    assert code == 0
    exp_row, id_row = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert exp_row[6] == "error:SingularPotential"
    assert id_row[:2] == ["id", "id"] and id_row[6] == "every_metric_critical"
    assert abs(float(id_row[2])) < 1e-12 and abs(float(id_row[3]) - 2.0) < 1e-12


def test_sweep_csv_quotes_cells_with_commas(tmp_path):
    # a sum expression and the parse error that quotes one both hold commas
    out = tmp_path / "sweep_sum"
    args = ["sweep", "--f-list", "sum:exp,pow:2;bogus:1,2;exp", "--h-list", "const:1", "--out", str(out)]
    assert main(args) == 0
    text = (out / "sweep.csv").read_text()
    rows = list(csv.reader(io.StringIO(text)))
    assert [len(row) for row in rows] == [8, 8, 8, 8]
    assert [row[0] for row in rows[1:]] == ["sum:exp,pow:2", "bogus:1,2", "exp"]
    assert rows[2][6] == "parse_error:unknown function expression 'bogus' in 'bogus:1,2'"
    assert text.splitlines()[3] == ",".join(rows[3])  # a cell without a comma is not quoted


def test_variation_check_command(tmp_path):
    out = tmp_path / "var"
    code = main(
        ["variation-check", "--nodes", "65", "--profile", "random:2:0.1", "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "variation.json").read_text())
    assert set(report) == {"convergence_orders", "max_invariance_drift"}
    # a central difference is second order: every fitted slope is near 2
    # (1.986 to 2.076 here; a fit that returned its intercept reads 5 to 13)
    assert all(1.9 <= order <= 2.1 for order in report["convergence_orders"].values())
    assert report["max_invariance_drift"] < 1e-8


def test_variation_check_runs_on_the_profile_it_is_given(tmp_path):
    # --profile means what it means in every command: round is the round
    # profile, and it is also the default
    reports = {}
    for name, profile in (("bare", []), ("round", ["--profile", "round"]), ("random", ["--profile", "random:0:0.3"])):
        out = tmp_path / name
        assert main(["variation-check", "--nodes", "65", "--out", str(out)] + profile) == 0
        reports[name] = (out / "variation.json").read_text()
    assert reports["bare"] == reports["round"]
    assert reports["round"] != reports["random"]
    assert all(1.9 <= order <= 2.1 for order in json.loads(reports["round"])["convergence_orders"].values())


def test_variation_check_builds_each_path_once(tmp_path, monkeypatch):
    # three directions: u'' is computed once for each, not once per (f, h)
    built = []
    u2 = DeformationPath.__dict__["u2"]  # the cached_field descriptor, which calls its .func
    derivative = u2.func

    def counted(path):
        built.append(path)
        return derivative(path)

    monkeypatch.setattr(u2, "func", counted)
    out = tmp_path / "var"
    assert main(["variation-check", "--nodes", "33", "--profile", "random:2:0.1", "--out", str(out)]) == 0
    assert len(built) == 3


def test_exit_code_2_on_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus_key=1\n")
    assert main(["evaluate", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert main(["evaluate", "--f", "nonsense_fn", "--out", str(tmp_path / "x")]) == 2
    assert main(["evaluate", "--geometry", "marsian", "--out", str(tmp_path / "y")]) == 2
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("x,theta\n-1,0\nabc,1\n")
    # the default cp1 grid's nodes, with one theta replaced by nan or inf
    rows = profile_to_csv(round_profile(make_cp1_geometry())).splitlines()
    nonfinite_csvs = []
    for value in ("nan", "inf"):
        path = tmp_path / f"{value}.csv"
        path.write_text("\n".join(rows[:5] + [rows[5].split(",")[0] + "," + value] + rows[6:]) + "\n")
        nonfinite_csvs.append(path)
    # a third column in the header, or a third cell in every row
    junk_header = tmp_path / "junk_header.csv"
    junk_header.write_text("\n".join(["x,theta,junk"] + [row + ",0" for row in rows[1:]]) + "\n")
    junk_rows = tmp_path / "junk_rows.csv"
    junk_rows.write_text("\n".join(rows[:1] + [row + ",0" for row in rows[1:]]) + "\n")
    neg_amp = tmp_path / "neg.cfg"
    neg_amp.write_text("amplitude=-1\n")
    inf_target = tmp_path / "inf.cfg"
    inf_target.write_text("normalization.target=inf\n")
    nan_amp = tmp_path / "nan.cfg"
    nan_amp.write_text("amplitude=nan\n")
    neg_samples = tmp_path / "negsamples.cfg"
    neg_samples.write_text("samples=-3\n")
    capsys.readouterr()
    for args in (
        ["evaluate", "--nodes", "4"],
        ["evaluate", "--geometry", "cpm:1"],
        ["evaluate", "--geometry", "cpm:x"],
        ["evaluate", "--geometry", "cpm:3:4"],
        ["evaluate", "--profile", "random:x"],
        ["evaluate", "--profile", "random:1:abc"],
        ["evaluate", "--profile", "random:1:-1"],
        ["evaluate", "--profile", f"file:{bad_csv}"],
        ["evaluate", "--profile", f"file:{nonfinite_csvs[0]}"],
        ["evaluate", "--profile", f"file:{nonfinite_csvs[1]}"],
        ["evaluate", "--profile", f"file:{junk_header}"],
        ["evaluate", "--profile", f"file:{junk_rows}"],
        ["iterate", "--max-steps", "0"],
        ["invariance", "--config", str(neg_amp), "--samples", "2"],
        ["invariance", "--h", "id", "--config", str(inf_target), "--samples", "2"],
        ["invariance", "--config", str(nan_amp), "--samples", "2"],
        ["invariance", "--samples", "-3"],
        ["invariance", "--config", str(neg_samples)],
        ["invariance", "--samples", "0", "--geometry", "bogus", "--h", "nonsense", "--nodes", "3"],
        ["evaluate", "--profile", "random:1:nan"],
        ["evaluate", "--profile", "random:1:inf"],
        ["evaluate", "--profile", "randomXYZ"],
        ["evaluate", "--profile", "random:1:0.1:junk"],
        # function literals that are not finite
        ["evaluate", "--f", "pow:inf"],
        ["evaluate", "--f", "pow:nan"],
        ["evaluate", "--f", "const:nan"],
        ["evaluate", "--f", "scaled:inf:exp"],
        ["evaluate", "--h", "affine:nan:1"],
        ["evaluate", "--h", "const:1+infj"],
    ):
        assert main(args + ["--out", str(tmp_path / "w")]) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (args, err)
    # non-finite numbers on the command line are refused by the argument
    # parser, which exits 2 with its usage line and "error: ..."
    for args in (
        ["evaluate", "--target", "nan"],
        ["invariance", "--h", "id", "--target", "inf"],
        ["sweep", "--target", "nan"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(args + ["--out", str(tmp_path / "w")])
        assert exc.value.code == 2, args
        assert "error: argument" in capsys.readouterr().err, args
    assert not (tmp_path / "w").exists()
    capsys.readouterr()


def test_a_flag_of_one_command_is_not_a_flag_of_another(tmp_path, capsys):
    # --help lists exactly the flags the command reads: 45 pairs in all
    for command, flags in COMMAND_FLAGS.items():
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert set(re.findall(r"(?<![\w-])--([a-z][a-z-]*)", capsys.readouterr().out)) == flags | {"help"}, command
    assert sum(map(len, COMMAND_FLAGS.values())) == 45
    # every other pair exits 2 with the usage line, before any work: a flag
    # of another command (variation-check --f, sweep --seed, invariance
    # --profile, ...), the threshold that is a constant now, and every
    # abbreviation, so --f is never read as --f-list
    every = set().union(*COMMAND_FLAGS.values()) | {"alpha-threshold"}
    refused = [[command, f"--{flag}", "1"] for command, flags in COMMAND_FLAGS.items() for flag in sorted(every - flags)]
    refused += [["iterate", "--max", "2"], ["sweep", "--f", "exp"], ["evaluate", "--geo", "cp1"]]
    for args in refused:
        with pytest.raises(SystemExit) as exc:
            main(args + ["--out", str(tmp_path / "w")])
        assert exc.value.code == 2, args
        err = capsys.readouterr().err
        assert err.startswith("usage: calabilab "), (args, err)
        assert "error: unrecognized arguments: " + " ".join(args[1:]) in err, (args, err)
    assert not (tmp_path / "w").exists()
    # a flag and its value may still be joined by "="
    out = tmp_path / "it"
    assert main(["iterate", "--max-steps=2", "--f", "exp", "--h", "id", "--target", str(EIGHT_PI), "--out", str(out)]) == 0
    assert len(json.loads((out / "iterate.json").read_text())["steps"]) == 2
    # a config file is shared between commands: a key that the command does
    # not read is accepted, and changes nothing
    shared = tmp_path / "shared.cfg"
    shared.write_text("f=exp\nh=pow:2\nnormalization.target=99\nsamples=3\niterate.max_steps=2\n")
    for name, args in (("bare", []), ("shared", ["--config", str(shared)])):
        assert main(["variation-check", "--nodes", "33", *args, "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "bare" / "variation.json").read_bytes() == (tmp_path / "shared" / "variation.json").read_bytes()


def test_library_checks_name_the_bad_value(tmp_path, capsys):
    # the grid, the CP^m geometry and the random profile each check their
    # own parameter; the message names the value the command line gave
    for args, value in (
        (["--nodes", "4"], "got 4"),
        (["--nodes", "4097"], "at most 2049 and at least 8, got 4097"),
        (["--geometry", "cpm:1"], "got m = 1"),
        (["--profile", "random:1:-1"], "got -1.0"),
        # a draw that overflows on the grid: no numpy warning, only the error
        (["--profile", "random:1:1e308"], "amplitude 1e+308 overflows"),
    ):
        assert main(["evaluate", *args, "--out", str(tmp_path / "w")]) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error: ") and value in err, (args, err)
        assert err.count("\n") == 1, err
    assert not (tmp_path / "w").exists()


def test_non_finite_results_are_named_failures(tmp_path, capsys):
    # x^-400 overflows next to x = 0, so S is infinite; with phi = x + 398,
    # psi = e^s e^phi is finite near 1e173 but the squares in its EL defects
    # overflow.  The command names the quantity the overflow spoils, exits 1,
    # writes nothing and prints that one line: numpy's warnings are off
    for args, quantity in (
        (["--h", "pow:-400"], "non-finite S = "),
        (["--f", "exp", "--h", "exp", "--target", "5000"], "non-finite EL defects: defect_affine inf"),
    ):
        out = tmp_path / "nf"
        assert main(["evaluate", *args, "--out", str(out)]) == 1, args
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: " + quantity), (args, err)
        assert err.count("\n") == 1, err
        assert not out.exists(), args
    # outside the command line the library still warns where it overflows
    geom = make_cp1_geometry()
    with pytest.warns(RuntimeWarning):
        with pytest.raises(NonFiniteError):
            eval_S(round_profile(geom), identity(), power(-400), normalize_potential(geom))


def test_module_run_prints_one_error_line(tmp_path):
    # python -m calabilab.cli in a fresh process, where numpy's warnings
    # would reach stderr: an overflow is the one named failure line
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "calabilab.cli", "evaluate", "--h", "pow:-400", "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env,
    )
    assert run.returncode == 1
    assert run.stderr.startswith("numerical failure: non-finite S = ") and run.stderr.count("\n") == 1, run.stderr
    assert not (tmp_path / "o").exists()


def test_help_names_the_csv_headers_the_commands_write(tmp_path):
    description = build_parser().description
    for h in ("pow:2", "sum:pow:2,const:0.5j"):
        out = tmp_path / h.replace(":", "_")
        assert main(["evaluate", "--f", "exp", "--h", h, "--out", str(out)]) == 0
        for name in ("psi.csv", "s.csv"):
            header = (out / name).read_text().splitlines()[0]
            assert f"({header})" in description, (name, header)


def _readme_commands():
    """The calabilab command lines of the README, as argument lists."""
    return [shlex.split(line)[1:] for line in README.read_text().splitlines() if line.startswith("calabilab ")]


def _refuse_constant(name):
    raise ValueError(f"{name} in an --out JSON file")


def test_every_out_json_is_strict(tmp_path, capsys):
    # the README commands and criterion 10's set: every JSON file they write
    # parses with NaN and Infinity refused
    runs = _readme_commands()
    assert len(runs) == 6 and all("--out" in args for args in runs)
    runs += [
        ["evaluate", "--f", "exp", "--h", "pow:2", "--profile", "random:9:0.25", "--target", "2.0", "--out", "x"],
        ["invariance", "--h", "pow:2", "--samples", "10", "--seed", "9", "--out", "x"],
        ["solve", "--f", "exp", "--h", "id", "--target", str(EIGHT_PI), "--out", "x"],
    ]
    written = 0
    for i, args in enumerate(runs):
        out = tmp_path / str(i)
        args[args.index("--out") + 1] = str(out)
        assert main(args) == 0, args
        # each command prints one summary line that starts with its name
        printed = capsys.readouterr().out
        assert printed.startswith(f"{args[0]}: ") and printed.count("\n") == 1, printed
        for path in out.glob("*.json"):
            json.loads(path.read_text(), parse_constant=_refuse_constant)
            written += 1
    assert written == sum(args[0] != "sweep" for args in runs)  # sweep writes a CSV only


def test_failed_command_makes_no_out_directory(tmp_path, capsys):
    # log(phi) is undefined where phi < 0: the command fails before any
    # output exists, so nothing is written
    out = tmp_path / "eval"
    args = ["evaluate", "--h", "log", "--target", "-100", "--out", str(out)]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert not out.exists()


def test_profile_whose_coefficients_overflow_is_a_named_failure(tmp_path, capsys):
    # every theta is finite, but 1.7e308 at ten interior nodes overflows the
    # transform: the non-finite coefficients are a NonFiniteError, exit 1
    # with one line and no output, not an IndexError traceback from the chop
    rows = profile_to_csv(round_profile(make_cp1_geometry())).splitlines()
    huge = [row.split(",")[0] + ",1.7e308" for row in rows[11:21]]
    path = tmp_path / "huge.csv"
    path.write_text("\n".join(rows[:11] + huge + rows[21:]) + "\n")
    out = tmp_path / "eval"
    capsys.readouterr()
    assert main(["evaluate", "--profile", f"file:{path}", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "numerical failure: non-finite Chebyshev coefficients\n", err
    assert not out.exists()


def test_exit_code_1_on_numerical_failure(tmp_path, capsys):
    for args, message in (
        # phi = x and h = id: h(phi) is 0 at the node x = 0
        (["solve", "--f", "exp", "--h", "id"], "Re h(phi) vanishes"),
        # with an even node count x = 0 is not a node, and h(phi) changes sign
        (["solve", "--nodes", "128", "--f", "exp", "--h", "id"], "Re h(phi) changes sign"),
        # the solver matches f' Re h to alpha x + beta; the imaginary part leaves
        # the EL potential non-affine, so the metric is not critical
        (["solve", "--f", "exp", "--h", "sum:pow:2,const:0.5j", "--target", str(EIGHT_PI)], "not critical"),
        # Re h = 0: the solver would divide by zero
        (["solve", "--f", "pow:2", "--h", "const:0.5j"], "Re h(phi) vanishes"),
        # MAX_HALVINGS = 20 halvings of the amplitude 1e12 leave a draw of
        # about 1e6: the random profile is still negative inside
        (["evaluate", "--profile", "random:1:1e12"], "interior positivity at x=-0.0735646 (|1.733e+06|)"),
    ):
        assert main([*args, "--out", str(tmp_path / "z")]) == 1, args
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and message in err, (args, err)
        assert err.count("\n") == 1, err
    assert not (tmp_path / "z").exists()
    # a failed step ends the iteration, which writes its trace and exits 1
    out = tmp_path / "it"
    assert main(["iterate", "--f", "exp", "--h", "id", "--out", str(out)]) == 1
    report = json.loads((out / "iterate.json").read_text())
    assert report["final_status"] == "failed" and [s["status"] for s in report["steps"]] == ["failed"]


def test_iterate_fails_on_a_complex_psi_pair(tmp_path, capsys):
    # h(phi) = phi + 0.5i: the first solve gives psi the pair (2, 4 + i),
    # which is no real field's potential, so the run ends there, failed,
    # naming the imaginary parts, and exits 1
    out = tmp_path / "it"
    assert main(["iterate", "--f", "scaled:0.5:pow:2", "--h", "sum:id,const:0.5j", "--target", str(EIGHT_PI),
                 "--max-steps", "3", "--out", str(out)]) == 1
    report = json.loads((out / "iterate.json").read_text())
    (step,) = report["steps"]
    assert report["final_status"] == step["status"] == "failed"
    assert abs(step["alpha"]["real"] - 2.0) < 1e-12 and abs(step["beta"]["imag"] - 1.0) < 1e-12
    assert step["summary"]["error"] == (
        f"psi's pair is complex: Im alpha = {step['alpha']['imag']!r}, Im beta = {step['beta']['imag']!r}")
    assert "final status failed" in capsys.readouterr().out


def test_exit_code_1_on_io_failure(tmp_path, capsys):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    code = main(["solve", "--f", "id", "--h", "const:1", "--out", str(blocker / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: I/O")
    assert "numerical failure" not in err


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("geometry=cp1\nf=id\nh=const:1\ngrid.nodes=65\n")
    out = tmp_path / "cfgout"
    code = main(["evaluate", "--config", str(cfg), "--nodes", "129", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert abs(report["S"] - EIGHT_PI) < 1e-9
    # 129 nodes from the flag override: psi.csv has 130 lines (header + nodes)
    assert len((out / "psi.csv").read_text().strip().splitlines()) == 130


def test_flag_overrides_only_its_own_config_key(tmp_path):
    # every key below differs from its default; the command line sets nodes alone
    cfg = tmp_path / "run.cfg"
    cfg.write_text("profile=random\nf=exp\nh=pow:2\nseed=5\ngrid.nodes=65\n")
    out = tmp_path / "cfgout"
    assert main(["evaluate", "--config", str(cfg), "--nodes", "33", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert (report["f"], report["h"]) == ("exp", "pow:2")
    assert len((out / "psi.csv").read_text().strip().splitlines()) == 1 + 33
    # the file's seed survives: the same run spelled out in flags alone, or
    # with the seed in the profile spec random[:seed[:amplitude]]
    for name, profile in (("flags", ["--profile", "random", "--seed", "5"]), ("spec", ["--profile", "random:5"])):
        args = [*profile, "--f", "exp", "--h", "pow:2", "--nodes", "33"]
        assert main(["evaluate", *args, "--out", str(tmp_path / name)]) == 0
        assert (out / "s.csv").read_bytes() == (tmp_path / name / "s.csv").read_bytes()


def test_evaluate_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    args = ["evaluate", "--f", "exp", "--h", "pow:2", "--profile", "random:3:0.2",
            "--target", "1.0"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("report.json", "psi.csv", "s.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("h, value", [("exp", "inf"), ("sum:exp,scaled:-1:exp", "nan")])
def test_non_finite_h_is_named_when_fprime_is_constant(tmp_path, capsys, h, value):
    # f = id: f' is constant, and the solver runs Newton with Re h := 1.
    # At --target 1e5, phi = x + c with c near 8000, so e^phi is inf at
    # every node and e^phi - e^phi NaN: the first node is named with its
    # value before the swap, not left to a generic check of psi
    out = tmp_path / "s"
    assert main(["solve", "--f", "id", "--h", h, "--target", "1e5", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"numerical failure: non-finite Re h(phi) at node x=-1.0: {value}\n"
    assert not out.exists()


def test_h_outside_its_domain_names_h_phi_and_the_node(tmp_path, capsys):
    # phi = x + c is negative at x = -1 for these targets: the DomainError
    # names the tag that raised, the node, and h as written, given phi; the
    # solve, the EL potential and S each evaluate h(phi)
    for args, h in (
        (["solve", "--f", "exp", "--h", "log", "--target", "1"], "log"),
        (["solve", "--f", "id", "--h", "compaff:2:0:log", "--target", "1"], "compaff:2:0:log"),
        (["evaluate", "--f", "exp", "--h", "log", "--target", "-100"], "log"),
        (["evaluate", "--f", "const:1", "--h", "pow:0.5", "--target", "-100"], "pow:0.5"),
    ):
        out = tmp_path / "d"
        assert main([*args, "--out", str(out)]) == 1, args
        err = capsys.readouterr().err
        assert re.fullmatch(rf"numerical failure: \w+: value -[0-9.e+-]+ outside domain at node x=-1\.0 "
                            rf"\(phi given to h = {re.escape(h)}\)\n", err), (args, err)
        assert not out.exists()


def test_no_library_caller_writes_into_a_descriptor_result(tmp_path, capsys, monkeypatch):
    # identity returns its argument, a read-only array of the library's, so
    # no caller may write into what a descriptor returns: with every result
    # made read-only, the README commands and solves on both solver paths
    # run as before
    call = FunctionDescriptor.__call__

    def frozen(self, z, nodes=None):
        out = call(self, z, nodes)
        if isinstance(out, np.ndarray):
            out.setflags(write=False)
        return out

    monkeypatch.setattr(FunctionDescriptor, "__call__", frozen)
    runs = _readme_commands() + [
        ["solve", "--f", "id", "--h", "id", "--out", "x"],
        ["solve", "--f", "log", "--h", "pow:2", "--target", "20", "--out", "x"],
        ["evaluate", "--geometry", "cpm:3", "--profile", "random:5:0.2", "--f", "exp", "--h", "sum:id,const:0.5j",
         "--out", "x"],
    ]
    for i, args in enumerate(runs):
        args[args.index("--out") + 1] = str(tmp_path / str(i))
        assert main(args) == 0, args
    capsys.readouterr()
