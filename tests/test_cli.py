import csv
import io
import json
import math

import numpy as np
import pytest

from calabilab import DeformationPath, make_cp1_geometry, profile_to_csv, round_profile
from calabilab.cli import main

EIGHT_PI = 8.0 * math.pi


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


def test_invariance_report(tmp_path):
    out = tmp_path / "inv"
    code = main(
        ["invariance", "--h", "pow:2", "--samples", "20", "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "invariance.json").read_text())
    assert report["results"]["equivariant_spread"] < 1e-8
    assert report["results"]["futaki_max"] < 1e-8


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
    assert report["degenerate_direction"] is True
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
    assert report["kappa_theta"] == 0.5
    assert report["kappa_phi"] == 0.5
    assert min(report["convergence_orders"].values()) >= 1.9
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
    assert min(json.loads(reports["round"])["convergence_orders"].values()) >= 1.9


def test_variation_check_builds_each_path_once(tmp_path, monkeypatch):
    # three directions: u'' is computed once for each, not once per (f, h)
    built = []
    u2 = DeformationPath.__dict__["u2"]  # the cached_property itself
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
    for args in (
        ["evaluate", "--nodes", "4"],
        ["evaluate", "--geometry", "cpm:1"],
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
    ):
        assert main(args + ["--out", str(tmp_path / "w")]) == 2, args
        assert capsys.readouterr().err.startswith("error: "), args
    # non-finite numbers on the command line are refused by the argument
    # parser, which exits 2 with its usage line and "error: ..."
    for args in (
        ["evaluate", "--target", "nan"],
        ["invariance", "--h", "id", "--target", "inf"],
        ["sweep", "--alpha-threshold", "nan"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(args + ["--out", str(tmp_path / "w")])
        assert exc.value.code == 2, args
        assert "error: argument" in capsys.readouterr().err, args
    assert not (tmp_path / "w").exists()
    capsys.readouterr()


def test_library_checks_name_the_bad_value(tmp_path, capsys):
    # the grid, the CP^m geometry and the random profile each check their
    # own parameter; the message names the value the command line gave
    for args, value in (
        (["--nodes", "4"], "got 4"),
        (["--geometry", "cpm:1"], "got m = 1"),
        (["--profile", "random:1:-1"], "got -1.0"),
    ):
        assert main(["evaluate", *args, "--out", str(tmp_path / "w")]) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error: ") and value in err, (args, err)
    assert not (tmp_path / "w").exists()


def test_failed_command_makes_no_out_directory(tmp_path, capsys):
    # log(phi) is undefined where phi < 0: the command fails before any
    # output exists, so nothing is written
    out = tmp_path / "inv"
    args = ["invariance", "--h", "log", "--target", "-100", "--samples", "2", "--out", str(out)]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert not out.exists()


def test_exit_code_1_on_numerical_failure(tmp_path, capsys):
    for args, message in (
        # phi = x and h = id: h(phi) crosses zero
        (["--f", "exp", "--h", "id"], "Re h(phi) vanishes"),
        # the solver matches f' Re h to alpha x + beta; the imaginary part leaves
        # the EL potential non-affine, so the metric is not critical
        (["--f", "exp", "--h", "sum:pow:2,const:0.5j", "--target", str(EIGHT_PI)], "not critical"),
        # Re h = 0: the solver would divide by zero
        (["--f", "pow:2", "--h", "const:0.5j"], "Re h(phi) vanishes"),
    ):
        assert main(["solve", *args, "--out", str(tmp_path / "z")]) == 1, args
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and message in err, args


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
    # the file's seed survives: the same run spelled out in flags alone
    flags = tmp_path / "flags"
    args = ["--profile", "random", "--f", "exp", "--h", "pow:2", "--seed", "5", "--nodes", "33"]
    assert main(["evaluate", *args, "--out", str(flags)]) == 0
    assert (out / "s.csv").read_bytes() == (flags / "s.csv").read_bytes()


def test_evaluate_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    args = ["evaluate", "--f", "exp", "--h", "pow:2", "--profile", "random:3:0.2",
            "--target", "1.0"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("report.json", "psi.csv", "s.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
