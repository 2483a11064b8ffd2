import argparse
import ast
import functools
import hashlib
import inspect
import io
import math
import os
import shlex
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import akpz
from akpz import cli, errors
from akpz import correlations as corr
from akpz.cli import (ComparisonReport, ConfigError, ExperimentConfig, main,
                      parse_config, run_experiment)
from akpz.lattice import ParticleConfig, TorusParams, config_to_text
from akpz.sde import ModelParams, finite_eps_speed, validate_symbol_properties


def test_parse_config_minimal():
    cfg = parse_config("C = 0.5\nD = 1.5\nexperiment = drift-check\n")
    assert cfg.experiment == "drift-check"
    assert cfg.values == {"C": 0.5, "D": 1.5}


def test_parse_config_ignores_blank_and_comment_lines():
    cfg = parse_config("# drift\n\nexperiment = qpoch-asymptotics\n")
    assert cfg.experiment == "qpoch-asymptotics"


def test_parse_config_rejects_negative_C():
    with pytest.raises(ConfigError):
        parse_config("C = -1\nexperiment = drift-check\n")


def test_parse_config_rejects_q_at_one():
    with pytest.raises(ConfigError):
        parse_config("q = 1.0\nexperiment = stationarity-oracle\n")


def test_parse_config_rejects_unknown_and_duplicate_keys():
    with pytest.raises(ConfigError) as err:
        parse_config("experiment = drift-check\nbogus = 1\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config("C = 0.5\nC = 0.6\nexperiment = drift-check\n")
    assert "duplicate" in str(err.value)


def test_parse_config_rejects_empty():
    with pytest.raises(ConfigError):
        parse_config("")


def test_parse_config_rejects_bad_int():
    with pytest.raises(ConfigError):
        parse_config("experiment = sde-vs-exact\nreplicas = 1.5\n")


def test_parse_config_unknown_experiment():
    with pytest.raises(ConfigError):
        parse_config("experiment = not-a-recipe\n")


def test_run_experiment_unknown_name():
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig("nonsense"))


def test_stationarity_recipe_report():
    report = run_experiment(ExperimentConfig("stationarity-oracle", {"q": 0.5}))
    assert report.passed
    assert all("residual" in r.label for r in report.rows)


def test_stationarity_recipe_tolerance_failure_exit():
    # q = 0.3 has a nonzero (rounding-level) residual, so an absurd
    # tolerance forces the failure path
    report = run_experiment(ExperimentConfig(
        "stationarity-oracle", {"q": 0.3, "tol": 1e-20}))
    assert not report.passed


def test_decreasing_rows_fail_when_the_error_grows(monkeypatch):
    # at their default keys the errors of cor3-she and qpoch-asymptotics do
    # decrease, so only growing errors show that the rule can fail
    she = run_experiment(ExperimentConfig("cor3-she", {"delta_list": (1e-2, 1e-1)}))
    asymptotic = cli.log_qpoch_asymptotic
    monkeypatch.setattr(cli, "log_qpoch_asymptotic",
                        lambda eps, b, X: asymptotic(eps, b, X) + 1e-5 * X / eps)
    qpoch = run_experiment(ExperimentConfig("qpoch-asymptotics"))
    assert [r.passed for r in she.rows[:-1] + qpoch.rows[:-1]] == [False] * 3


def test_acceptance_suite_runs_every_recipe_of_akpz_all():
    # A check of `akpz all` is defined once, in its recipe, and its acceptance
    # criterion runs that recipe.  The one exception is sde-vs-exact: criterion
    # 07 keeps its single seed-123 ensemble, while the recipe draws chunked
    # SeedSequence streams, so running the recipe would re-seed that test.
    tree = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    run = {node.args[0].value for node in ast.walk(tree)
           if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "recipe_rows"}
    assert set(cli.EXPERIMENTS) - run <= {"sde-vs-exact"}


def test_cli_empty_config_file_exit_2(tmp_path, capsys):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    assert main(["run", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_run_config_exit_codes(tmp_path, capsys):
    ok = tmp_path / "ok.cfg"
    ok.write_text("experiment = stationarity-oracle\nq = 0.3\n")
    assert main(["run", str(ok)]) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text("experiment = stationarity-oracle\nq = 0.3\ntol = 1e-30\n")
    assert main(["run", str(bad)]) == 1
    capsys.readouterr()


def test_cli_drift_check_compares_with_finite_eps_speed(tmp_path, capsys):
    # v is the q -> 1 speed; at eps = 0.01 the drift sits about 3% below it,
    # so the recipe compares with v*(1-eps*(f(B)+f(C))) at a tolerance of 2% of v.
    base = "experiment = drift-check\neps = 0.01\nreplicas = 50\nseed = 0\n"
    ok = tmp_path / "ok.cfg"
    ok.write_text(base + f"out = {tmp_path / 'ok.csv'}\n")
    assert main(["run", str(ok)]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("PASS") and "finite-eps speed" in line
    torus = TorusParams.from_scaling(epsilon=0.01, ell=4.0, m=4, m2=2)
    params = ModelParams.from_torus(torus)
    ref = float(line.split("ref=")[1].split()[0])
    assert ref == finite_eps_speed(params, 0.01) < params.v
    tight = tmp_path / "tight.cfg"
    tight.write_text(base + f"tol = 1e-4\nout = {tmp_path / 'tight.csv'}\n")
    assert main(["run", str(tight)]) == 1
    assert capsys.readouterr().out.startswith("FAIL")
    assert (tmp_path / "ok.csv").read_bytes() == (tmp_path / "tight.csv").read_bytes()


def test_cli_validate_exit_zero(capsys):
    assert main(["validate", "--C", "0.5", "--D", "1.5"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize("C, D", [("1e-6", "1"), ("1", "1.000001")])
def test_cli_validate_near_the_slope_boundary_reports(C, D, capsys):
    # a model ModelParams accepts gets the report, here with tolerance failures
    assert main(["validate", "--C", C, "--D", D]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out and "speed_gradient_matches_U" in captured.out
    assert captured.err == ""


def test_cli_validate_where_e_to_the_D_overflows_reports_its_nine_rows(capsys):
    # ModelParams accepts D = 700; the discriminant underflows to -0.0 there,
    # which fails its absolute bound
    assert main(["validate", "--D", "700"]) in (0, 1)
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 9 and captured.err == ""


def test_cli_oracle_stationarity(capsys):
    rc = main(["oracle-stationarity", "--L", "4", "--N", "3", "--m1", "2",
               "--m2", "1", "--q", "0.7"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("PASS  stationarity-oracle: residual q=0.7  ") == 1
    assert out.count("\n") == 1


def test_cli_cov_methods(tmp_path, capsys):
    for method in ("finite", "quad", "kernel", "asymptotic"):
        args = ["cov", "--C", "0.5", "--D", "1.5", "--t", "5", "--s", "5",
                "--y1", "0", "--y2", "0", "--method", method]
        if method == "finite":
            args += ["--m", "8", "--m2", "4"]
        assert main(args) == 0
    out = capsys.readouterr().out
    assert out.count("W_y(t,s)") == 4


def test_cli_cov_at_s_zero_prints_zero_for_every_exact_method(capsys):
    # deterministic data at s = 0: the heat kernel integrates over an empty
    # time interval, where it exited 2
    for method in ("finite", "quad", "kernel"):
        args = ["cov", "--C", "0.5", "--D", "1.5", "--t", "5", "--s", "0",
                "--y1", "0", "--y2", "0", "--method", method, "--m", "16", "--m2", "3"]
        assert main(args) == 0
        assert capsys.readouterr().out.split(" = ")[1].startswith("0 ")


def test_cli_cov_csv(tmp_path):
    out = tmp_path / "cov.csv"
    main(["cov", "--C", "0.5", "--D", "1.5", "--t", "5", "--s", "5",
          "--y1", "0", "--y2", "0", "--method", "quad", "--out", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0] == "t,s,y1,y2,method,value,err_est"
    assert len(lines) == 2


def test_cli_ctmc_csv_deterministic(tmp_path):
    base = ["ctmc", "--L", "4", "--N", "3", "--m1", "2", "--m2", "1",
            "--q", "0.5", "--T", "5", "--seed", "7", "--observe-every", "1"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "time,p1,p2,x_p"


def test_cli_ctmc_csv_and_final_are_pinned(tmp_path):
    # CSV and --dump-final bytes of a cascade run from the crystalline start,
    # recorded with numpy 2.4.6
    out, final = tmp_path / "c.csv", tmp_path / "f.txt"
    assert main(["ctmc", "--L", "32", "--N", "8", "--m1", "8", "--m2", "2", "--q", "0.7",
                 "--T", "5", "--seed", "1", "--crystalline", "--observe-every", "1",
                 "--out", str(out), "--dump-final", str(final)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "92cdaf4b297d295b3791eedae23323d940f89e1646bdf9879fe7f1c097d95345")
    assert hashlib.sha256(final.read_bytes()).hexdigest() == (
        "f46fe5c956db722e45db3bb38b715e29fe257878279807c240ea3cbd443c35af")


def test_cli_ctmc_zero_horizon_writes_the_start_snapshot(tmp_path, capsys):
    out = tmp_path / "a.csv"
    assert main(["ctmc", "--L", "6", "--N", "3", "--m1", "2", "--m2", "1", "--q", "0.5",
                 "--T", "0", "--crystalline", "--out", str(out)]) == 0
    assert "wrote 6 rows" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "time,p1,p2,x_p"
    assert len(lines) == 7 and {ln.split(",")[0] for ln in lines[1:]} == {"0"}


def test_cli_sde_csv_deterministic(tmp_path):
    base = ["sde", "--C", "0.5", "--D", "1.5", "--m", "4", "--m2", "2",
            "--dt", "0.01", "--T", "0.1", "--replicas", "2", "--seed", "3"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().splitlines()[0] == "replica,t,p1,p2,xi"


def test_cli_sde_csv_is_pinned(tmp_path):
    # CSV bytes recorded with numpy 2.4.6 before the Euler-Maruyama step was
    # moved into preallocated buffers
    out = tmp_path / "sde.csv"
    assert main(["sde", "--C", "0.5", "--D", "1.5", "--m", "4", "--m2", "2", "--dt", "0.01",
                 "--T", "0.2", "--replicas", "2", "--seed", "5", "--observe-every", "0.05",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "048b5c8c1ddce00d1e41e34fba07d852f3d6df3d0a9efe08c0b7edbc667232e9")


def test_cli_ctmc_config_roundtrip_bit_exact(tmp_path):
    out = tmp_path / "traj.csv"
    final1 = tmp_path / "final1.txt"
    main(["ctmc", "--L", "4", "--N", "3", "--m1", "2", "--m2", "1", "--q", "0.4",
          "--T", "3", "--seed", "9", "--out", str(out), "--dump-final", str(final1)])
    # restart from the dumped file: it must parse, validate, and survive a
    # zero-length run byte-for-byte
    final2 = tmp_path / "final2.txt"
    assert main(["ctmc", "--start", str(final1), "--q", "0.4", "--T", "0",
                 "--out", str(out), "--dump-final", str(final2)]) == 0
    assert final1.read_bytes() == final2.read_bytes()


def test_cli_ctmc_start_in_another_sector_exit_2(tmp_path, capsys):
    # every row at {0, 4} interlaces but has winding 0, not the header's m2 = 2
    torus = TorusParams(L=8, N=3, m1=2, m2=2)
    start = tmp_path / "start.txt"
    start.write_text(config_to_text(
        ParticleConfig(torus, {(j, i): 4 * j for i in range(3) for j in range(2)})))
    out = tmp_path / "traj.csv"
    assert main(["ctmc", "--start", str(start), "--q", "0.5", "--T", "1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "sector 0 != m2 2" in err
    assert not out.exists()


def test_cli_gff_small(capsys):
    rc = main(["gff", "--C", "0.5", "--D", "1.5", "--delta", "0.125",
               "--m", "64", "--tol", "0.5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS  gff-variance: lattice vs continuum variance  got=")
    assert out.count("\n") == 1


def test_cli_usage_error_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["cov", "--C", "0.5"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["--threads", "2", "all"])
    assert err.value.code == 2


def test_python_dash_m_akpz_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(akpz.__file__).resolve().parent.parent)}
    done = subprocess.run([sys.executable, "-m", "akpz", "validate", "--C", "0.5", "--D", "1.5"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "FAIL" not in done.stdout


_TORUS = ["--L", "6", "--N", "3", "--m1", "2", "--m2", "1"]
_SDE = ["sde", "--C", "0.5", "--D", "1.5", "--m", "4", "--m2", "2", "--dt", "0.01"]
_COV = ["cov", "--C", "0.5", "--D", "1.5", "--y1", "0", "--y2", "0"]
_ASYMPTOTIC = ["cov", "--C", "0.5", "--D", "1.5", "--y2", "0", "--method", "asymptotic"]
_ORACLE = ["oracle-stationarity", "--L", "4", "--N", "3", "--m1", "2", "--m2", "1"]
# delta just inside its bound, where the smoothed variances overflow; PHI is a two-point file
_GFF_OVERFLOWS = [["gff", "--delta", "1.15e77", "--m", "16"],
                  ["gff", "--delta", "1.15e77", "--m", "16", "--phi", "PHI"]]


# inputs that once ended in a traceback or printed a RuntimeWarning first
_BROKE_THE_CONTRACT = [
    ["she-check", "--C", "1.5", "--D", "3", "--t", "700", "--s", "1e-300"],
    ["sde", "--C", "0.5", "--D", "2", "--m", "-1", "--m2", "6", "--dt", "0.01", "--T", "0.02",
     "--replicas", "2"],
    ["sde", "--C", "0.5", "--D", "1", "--m", "4", "--m2", "2", "--dt", "1e-300", "--T", "1e300"],
    ["gff", "--C", "1e-8"],
    ["cov", "--C", "1.5", "--D", "700", "--t", "1.5", "--s", "1.5", "--y1", "5", "--y2", "8",
     "--method", "quad"],
]


def _two_point_phi(tmp_path):
    phi = tmp_path / "phi.txt"
    phi.write_text("0 0 1\n1 0 -1\n")
    return str(phi)


def _non_utf8_file(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\n")
    return str(bad)


def _start_with_repeated_label(tmp_path):
    # the first enumerated 4x3 state, with label (0, 0) given twice
    start = tmp_path / "start.txt"
    start.write_text("4 3 2 1\n0 0 3\n0 0 0\n0 1 0\n0 2 1\n1 0 1\n1 1 2\n1 2 2\n")
    return str(start)


def _valid_start(tmp_path):
    # the first enumerated 4x3 state
    start = tmp_path / "start.txt"
    start.write_text("4 3 2 1\n0 0 0\n0 1 0\n0 2 1\n1 0 1\n1 1 2\n1 2 2\n")
    return str(start)


def _phi_with_repeated_label(tmp_path):
    phi = tmp_path / "phi.txt"
    phi.write_text("0 0 1\n0 0 1\n1 0 -1\n")
    return str(phi)


@pytest.mark.parametrize("argv", [
    ["ctmc", *_TORUS, "--q", "1.5", "--T", "1", "--crystalline"],
    ["ctmc", *_TORUS, "--q", "-0.5", "--T", "1", "--crystalline"],
    ["ctmc", "--L", "4", "--N", "3", "--m1", "3", "--m2", "2", "--q", "0.5", "--T", "1"],
    ["ctmc", "--L", "6", "--N", "5", "--m1", "2", "--m2", "1", "--q", "0.5", "--T", "1"],
    [*_ORACLE, "--q", "1.2"],
    ["oracle-stationarity", "--L", "4", "--N", "3", "--m1", "3", "--m2", "2"],
    [*_SDE, "--T", "-1"],
    [*_SDE, "--T", "0.1", "--replicas", "0"],
    ["ctmc", *_TORUS, "--q", "0.5", "--T", "1", "--crystalline", "--observe-every", "-1"],
    [*_SDE, "--T", "0.1", "--observe-every", "-1"],
    ["gff", "--delta", "0", "--m", "64"],
    ["gff", "--delta", "-0.1", "--m", "64"],
    ["gff", "--delta", "inf", "--m", "16"],
    ["gff", "--delta", "1e200", "--m", "16"],
    ["gff", "--delta", "1e150", "--m", "16"],
    [*_COV, "--t", "5", "--s", "5", "--method", "finite", "--m", "8"],
    [*_COV, "--t", "0", "--s", "0", "--method", "asymptotic"],
    ["she-check", "--delta-list", "0.1", "-0.01"],
    ["she-check", "--delta-list", "0.1", "0.1"],
    [*_ASYMPTOTIC, "--t", "5", "--s", "5", "--y1", "100"],
    [*_ASYMPTOTIC, "--t", "0", "--s", "0", "--y1", "1"],
    ["gff", "--m", "1.5"],
    ["gff", "--tol", "-1"],
    [*_ORACLE, "--q", "0.7", "--tol", "0"],
    ["ctmc", *_TORUS, "--q", "0.5", "--T", "nan", "--crystalline"],
    ["ctmc", *_TORUS, "--q", "0.5", "--T", "inf", "--crystalline"],
    ["ctmc", *_TORUS, "--q", "0.5", "--T", "1", "--crystalline", "--observe-every", "nan"],
    ["sde", "--C", "0.5", "--D", "1.5", "--m", "4", "--m2", "2", "--dt", "nan", "--T", "0.1"],
    [*_SDE, "--T", "nan"],
    ["validate", "--C", "0.5", "--D", "inf"],
    ["ctmc", *_TORUS, "--q", "0.5", "--T", "1", "--crystalline", "--seed", "-1"],
    [*_SDE, "--T", "0.1", "--seed", "-1"],
    ["sde", "--C", "0.5", "--D", "1.5", "--m", "0", "--m2", "1", "--dt", "0.01", "--T", "0.1"],
    ["sde", "--C", "0.5", "--D", "1.5", "--m", "0", "--m2", "1", "--dt", "0.01", "--T", "0"],
    [*_SDE, "--T", "0.015"],
    [*_SDE, "--T", "0.03", "--observe-every", "0.015"],
    [*_COV, "--t", "5", "--s", "5", "--method", "bogus"],
    [*_COV, "--t", "inf", "--s", "0", "--method", "finite", "--m", "8", "--m2", "4"],
    [*_COV, "--t", "inf", "--s", "0", "--method", "asymptotic"],
    *_GFF_OVERFLOWS,
    ["run", "BAD"],
    ["gff", "--m", "16", "--delta", "0.5", "--phi", "BAD"],
    ["ctmc", "--start", "BAD", "--q", "0.5", "--T", "1"],
    ["ctmc", "--start", "DUPSTART", "--q", "0.5", "--T", "1"],
    ["gff", "--m", "16", "--delta", "0.5", "--phi", "DUPPHI"],
    ["validate", "--C", "1e-320", "--D", "1"],
    ["validate", "--C", "700", "--D", "800"],
    ["validate", "--C", "0.5", "--D", "1e300"],
    ["she-check", "--t", "4", "--s", "2", "--delta-list", "1e-320"],
    ["she-check", "--t", "4", "--s", "2", "--delta-list", "1e-200"],
    *_BROKE_THE_CONTRACT,
    ["ctmc", "--start", "START", "--L", "9", "--N", "9", "--m1", "3", "--m2", "1",
     "--crystalline", "--q", "0.5", "--T", "1"],
    ["ctmc", "--L", "100000000000000000000000", "--N", "3", "--m1", "2", "--m2", "1",
     "--q", "0.5", "--T", "1", "--crystalline"],
], ids=["q-above-1", "q-negative", "empty-sector", "too-large-to-enumerate",
        "oracle-q-above-1", "oracle-empty-sector", "sde-negative-T", "sde-no-replicas",
        "ctmc-negative-observe-every", "sde-negative-observe-every",
        "gff-zero-delta", "gff-negative-delta", "gff-inf-delta", "gff-delta-squared-overflows",
        "gff-delta-to-the-4-overflows", "cov-finite-without-m2",
        "cov-no-asymptotic-regime", "she-negative-delta", "she-equal-deltas",
        "cov-asymptotic-far-off-origin", "cov-asymptotic-spatial-out-of-window",
        "gff-non-integer-m", "gff-negative-tol", "oracle-zero-tol", "ctmc-nan-T",
        "ctmc-inf-T", "ctmc-nan-observe-every", "sde-nan-dt", "sde-nan-T", "validate-inf-D",
        "ctmc-negative-seed", "sde-negative-seed", "sde-empty-field", "sde-empty-field-T-0",
        "sde-T-off-dt-grid",
        "sde-observe-every-off-dt-grid", "cov-unknown-method", "cov-finite-inf-t",
        "cov-asymptotic-inf-t", "gff-variance-overflows", "gff-phi-variance-overflows",
        "run-non-utf8-config", "gff-non-utf8-phi", "ctmc-non-utf8-start",
        "ctmc-start-repeated-label", "gff-phi-repeated-label", "validate-C-squared-underflows",
        "validate-d1-underflows", "validate-huge-D", "she-nan-coordinate",
        "she-coordinate-above-2-53", "she-reference-0", "sde-negative-m",
        "sde-steps-not-finite", "gff-R-rounds-to-0", "cov-quad-R-rounds-to-0",
        "ctmc-start-with-torus-flags", "ctmc-q-power-table-too-long"])
def test_cli_bad_input_exit_2_without_traceback(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    files = {"PHI": _two_point_phi, "BAD": _non_utf8_file, "START": _valid_start,
             "DUPSTART": _start_with_repeated_label, "DUPPHI": _phi_with_repeated_label}
    paths = {a: files[a](tmp_path) for a in argv if a in files}
    argv = [paths.get(a, a) for a in argv]
    # validate writes no file and run reads its out from the config, so neither takes --out
    assert main(argv + ([] if argv[0] in ("validate", "run") else ["--out", str(out)])) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    if "--observe-every" in argv:
        assert "observe_every" in lines[0]
    if "BAD" in paths:  # the file that is not UTF-8 and where its first bad byte sits
        assert paths["BAD"] in lines[0] and "offset 0" in lines[0]
    if "DUPSTART" in paths:  # the second line that gives label (0, 0)
        assert "repeated label (0, 0)" in lines[0] and "'0 0 0'" in lines[0]
    if "DUPPHI" in paths:
        assert paths["DUPPHI"] in lines[0] and "line 2" in lines[0]
    if "START" in paths:  # every flag that --start would ignore
        assert all(flag in lines[0] for flag in ("--L", "--N", "--m1", "--m2", "--crystalline"))
    assert not out.exists()


def test_cli_gff_overflow_prints_one_error_line_and_no_warning(tmp_path):
    # pytest captures warnings away from capsys, so stderr is checked in a subprocess
    env = {**os.environ, "PYTHONPATH": str(Path(akpz.__file__).resolve().parent.parent)}
    for argv in _GFF_OVERFLOWS:
        argv = [_two_point_phi(tmp_path) if a == "PHI" else a for a in argv]
        done = subprocess.run([sys.executable, "-m", "akpz", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 2
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "delta" in done.stderr and done.stdout == ""


_HUGE_TIME = ["cov", "--C", "0.5", "--D", "1.5", "--t", "1e308", "--s", "0", "--y1", "0",
              "--y2", "0", "--method"]


def test_cli_cov_at_a_huge_time_prints_one_error_line_and_no_warning():
    # (t - s)^2 overflows, and tau * phi, the quadrature phase and tau * U
    # leave the float range; every method exits 2 with one line, and the
    # quadrature stops at its first level
    env = {**os.environ, "PYTHONPATH": str(Path(akpz.__file__).resolve().parent.parent)}
    for tail in (["asymptotic"], ["finite", "--m", "16", "--m2", "3"], ["quad"], ["kernel"]):
        done = subprocess.run([sys.executable, "-m", "akpz", *_HUGE_TIME, *tail], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
        assert done.stdout == ""
        if tail == ["quad"]:
            assert done.stderr == "error: quadrature value nan at m=128 is not finite\n"


# Generated input for the exit-code contract.  Flag values come from fixed
# lists, and _small keeps every size an example can set small: m <= 16,
# L*N <= 24, replicas <= 4, at most 10^4 EM steps and 10 recorded times, and
# ctmc T <= 10 (drift-check's horizon 1/eps too).  The quadrature refines up
# to m = 4096 whatever the flags, so `cov` draws no quad and `run` neither
# cor1-log-growth nor cor2-characteristic; `all` takes no input.
_ODD_FLOATS = ("0.5", "1.5", "3", "0.01", "1e-8", "700", "1e-300", "1e300", "0", "-0.5", "-1",
               "inf", "nan")
_SMALL_INTS = ("2", "3", "4", "1", "16", "0", "-1")
_VALUES = {float: _ODD_FLOATS, int: _SMALL_INTS, "replicas": ("2", "1", "4", "0", "-1"),
           "method": ("finite", "kernel", "asymptotic", "bogus")}
# a value that works, drawn about half the time so that runs get past their first checks
_TYPICAL = {"C": "0.5", "D": "1.5", "m": "16", "m2": "2", "dt": "0.01", "T": "0.1", "t": "2",
            "s": "1", "y1": "1", "y2": "0", "q": "0.5", "L": "6", "N": "3", "m1": "2",
            "delta": "1.5", "method": "finite"}
# keys always given: these two because their defaults (gff's m = 256, sde-vs-exact's
# replicas = 10^4) are large, and every key with a typical value and no default
_ALWAYS = {"m", "replicas"}
_RUN = [name for name in cli.EXPERIMENTS if name not in ("cor1-log-growth", "cor2-characteristic")]


def _small(values):
    """Whether the flag values, strings keyed by parameter, set only small sizes."""
    def num(key):
        return float(values.get(key, "nan"))

    def ratio(a, b):  # a/b when both are finite and positive; the program rejects the rest
        return num(a) / num(b) if 0 < num(a) < math.inf and 0 < num(b) < math.inf else 0.0

    return not (num("L") * num("N") > 24 or ratio("T" if "T" in values else "t", "dt") > 1e4
                or ratio("T", "observe_every") > 10 or ("dt" not in values and num("T") > 10)
                or 0 < num("eps") < 0.1)


@st.composite
def _generated_argv(draw):
    """`command --key=value ...`, or for `run` the config lines as argv[1:];
    OUT stands for an output file."""
    command = draw(st.sampled_from([*cli._COMMANDS, *cli._ALIASES, "run"]))
    name = draw(st.sampled_from(_RUN)) if command == "run" else cli._ALIASES.get(command)
    fn = cli._RECIPES[name] if name else cli._COMMANDS[command]
    values = {}
    for key, param in inspect.signature(fn).parameters.items():
        if key == "out":
            values[key] = "OUT"
        elif (key in _ALWAYS or param.default in (param.empty, None) and key in _TYPICAL
              or draw(st.booleans())):
            if param.annotation is bool:
                values[key] = True
            elif param.annotation is tuple:
                values[key] = " ".join(draw(st.lists(st.sampled_from(_ODD_FLOATS),
                                                     min_size=1, max_size=3)))
            elif key in _VALUES or param.annotation in _VALUES:
                odd = st.sampled_from(_VALUES.get(key, _VALUES.get(param.annotation)))
                values[key] = draw(st.one_of(st.just(_TYPICAL[key]), odd) if key in _TYPICAL
                                   else odd)
    defaults = {key: str(p.default) for key, p in inspect.signature(fn).parameters.items()
                if isinstance(p.default, (int, float)) and not isinstance(p.default, bool)}
    assume(_small({**defaults, **values}))
    if command == "run":
        return ["run", f"experiment = {name}", *(f"{k} = {v}" for k, v in values.items())]
    return [command, *(f"--{k.replace('_', '-')}" if v is True else
                       f"--{k.replace('_', '-')}={v}" for k, v in values.items())]


@settings(derandomize=True, max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(argv=_generated_argv())
@example(argv=["validate", "--D", "700"])
@example(argv=[*_BROKE_THE_CONTRACT[0], "--out", "OUT"])
@example(argv=[*_BROKE_THE_CONTRACT[1], "--out", "OUT"])
@example(argv=[*_BROKE_THE_CONTRACT[2], "--out", "OUT"])
@example(argv=_BROKE_THE_CONTRACT[3])
@example(argv=_BROKE_THE_CONTRACT[4])
@example(argv=["run", "experiment = drift-check", "D = inf"])
@example(argv=["run", "experiment = drift-check", "eps = 0.5", "D = 1e308"])
@example(argv=["run", "experiment = drift-check", "eps = 1e-320"])
def test_cli_exit_code_contract_under_generated_input(argv):
    # 0 with no FAIL line, 1 with one, or 2 with exactly one `error:` line; no
    # traceback and no warning (each warning is raised as an error here)
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace("OUT", os.path.join(tmp, "out.csv")) for a in argv]
        if argv[0] == "run":
            config = Path(tmp) / "x.cfg"
            config.write_text("\n".join(argv[1:]) + "\n")
            argv = ["run", str(config)]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
    fails = [line for line in out.getvalue().splitlines() if line.startswith("FAIL")]
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert code in (0, 1) and err.getvalue() == ""
        assert bool(fails) == (code == 1)


_NUMPY_OOM = ("Unable to allocate 74.5 GiB for an array with shape (100000, 100000) and data "
              "type float64")


@pytest.mark.parametrize("message, line", [(_NUMPY_OOM, _NUMPY_OOM), ("", "out of memory")],
                         ids=["numpy", "bare"])
def test_cli_maps_memory_error_to_exit_2(message, line, monkeypatch, capsys):
    # no test allocates: the route raises what numpy raises for the mode table
    # of akpz cov --method finite --m 100000
    def fail(*args):
        raise MemoryError(message)

    monkeypatch.setattr(corr, "covariance_finite_m", fail)
    assert main(["cov", "--C", "0.5", "--D", "1.5", "--t", "5", "--s", "5", "--y1", "0",
                 "--y2", "0", "--method", "finite", "--m", "100000", "--m2", "1"]) == 2
    assert capsys.readouterr() == ("", f"error: {line}\n")


@pytest.mark.parametrize("lines", ["s = 500", "s = 400", "t = inf", "s = nan"],
                         ids=["s-above-t", "s-equal-t", "inf-t", "nan-s"])
def test_cli_run_cor2_bad_times_exit_2_without_traceback(lines, tmp_path, capsys):
    out = tmp_path / "out.csv"
    cfg = tmp_path / "x.cfg"
    cfg.write_text(f"experiment = cor2-characteristic\n{lines}\nout = {out}\n")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: need 0 <= s < t < inf") and err.count("\n") == 1
    assert not out.exists()


def test_cli_run_sde_vs_exact_one_replica_exit_2_before_any_work(tmp_path, monkeypatch,
                                                                 capsys):
    def fail(*args, **kwargs):
        raise AssertionError("the ensemble ran")

    monkeypatch.setattr(cli.sde, "euler_maruyama_ensemble", fail)
    out = tmp_path / "out.csv"
    cfg = tmp_path / "x.cfg"
    cfg.write_text(f"experiment = sde-vs-exact\nreplicas = 1\ndt = 0.005\nt = 0.5\n"
                   f"out = {out}\n")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "replicas >= 2" in err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("0 0 1\n1000 0 -1\n", "line 3"), ("0 0 1\n-40 0 -1\n", "line 3"),
    ("0 0 1\n0 0 F\n", "line 3"), ("0 0 1\n0 0\n", "line 3"),
    ("0 0 1\n0.5 0 1\n", "line 3"), ("0 0 0\n", "no nonzero value"),
], ids=["label-above-range", "label-below-range", "value-not-numeric", "two-fields",
        "label-not-integer", "all-zero"])
def test_cli_gff_phi_bad_file_exit_2_without_traceback(text, message, tmp_path, capsys):
    phi = tmp_path / "phi.txt"
    phi.write_text("# p1 p2 value\n" + text)
    out = tmp_path / "out.csv"
    assert main(["gff", "--m", "64", "--delta", "0.125", "--phi", str(phi),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not out.exists()


def test_cli_gff_phi_file_matches_the_built_in_test_function(tmp_path, capsys):
    m, delta = 64, 0.125
    grid = corr.two_bump_test_function(delta, m)
    phi = tmp_path / "phi.txt"
    phi.write_text("".join(f"{p1 - m // 2} {p2 - m // 2} {float(grid[p1, p2])!r}\n"
                           for p1, p2 in zip(*grid.nonzero())))
    args = ["gff", "--m", str(m), "--delta", str(delta), "--tol", "0.5"]
    assert main(args) == 0
    built_in = capsys.readouterr().out
    assert main(args + ["--phi", str(phi)]) == 0
    assert capsys.readouterr().out == built_in


def _run_config(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return main(["run", str(cfg)])


def test_she_check_and_run_cor3_she_are_one_path(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    rc = main(["she-check", "--delta-list", "0.2", "0.05", "--out", str(a)])
    alias_out = capsys.readouterr().out
    config = f"experiment = cor3-she\ndelta_list = 0.2 0.05\nout = {b}\n"
    assert _run_config(tmp_path, config) == rc
    assert capsys.readouterr().out == alias_out
    assert a.read_bytes() == b.read_bytes()


# the symbol-properties rows that fail at C near 0 and at D near C
FAILING_NEAR_C_0 = ["symbol_A_vanishes_at_zero", "symmetrized_symbol_negative",
                    "hessian_det_closed_form", "speed_ratio_sqrt_expD_minus_1",
                    "gibbs_symbol_is_R_over_2v"]
FAILING_NEAR_D_C = ["symmetrized_symbol_negative", "hessian_negative_definite",
                    "hessian_det_closed_form", "speed_ratio_sqrt_expD_minus_1",
                    "V_normalizes_hessian", "gibbs_symbol_is_R_over_2v"]

# (alias argv, the same keys as a config, its row labels that fail, its row count)
ALIAS_RUNS = [
    (["oracle-stationarity"], "", [], 3),
    (["oracle-stationarity", "--tol", "1e-30"], "tol = 1e-30",
     ["residual q=0.3", "residual q=0.7"], 3),
    (["she-check", "--delta-list", "0.2", "0.05"], "delta_list = 0.2 0.05",
     ["final relative error"], 2),
    (["gff", "--m", "64", "--delta", "0.125", "--tol", "0.5"],
     "m = 64\ndelta = 0.125\ntol = 0.5", [], 1),
    (["gff", "--m", "64", "--delta", "0.125", "--tol", "1e-3"],
     "m = 64\ndelta = 0.125\ntol = 1e-3", ["lattice vs continuum variance"], 1),
    (["validate"], "", [], 9),
    (["validate", "--C", "0.001", "--D", "1"], "C = 0.001\nD = 1", [], 9),
    (["validate", "--C", "1e-6", "--D", "1"], "C = 1e-6\nD = 1", FAILING_NEAR_C_0, 9),
    (["validate", "--C", "1", "--D", "1.000001"], "C = 1\nD = 1.000001", FAILING_NEAR_D_C, 9),
]


@pytest.mark.parametrize("argv, keys, failing, n_rows", ALIAS_RUNS,
                         ids=[" ".join(run[0]) for run in ALIAS_RUNS])
def test_aliases_print_what_run_prints(argv, keys, failing, n_rows, tmp_path, capsys):
    # an alias is `akpz run` on a config with its keys: the same stdout and
    # exit code, one PASS/FAIL line per row, and a FAIL line per failing row
    name = cli._ALIASES[argv[0]]
    rc = 1 if failing else 0
    assert main(argv) == rc
    alias_out = capsys.readouterr().out
    assert _run_config(tmp_path, f"experiment = {name}\n{keys}\n") == rc
    assert capsys.readouterr().out == alias_out
    lines = alias_out.splitlines()
    assert len(lines) == n_rows
    assert [line.split("  ")[1] for line in lines if line.startswith("FAIL  ")] == [
        f"{name}: {label}" for label in failing]
    assert _verdicts_follow_the_printed_rule(lines).count("FAIL") == len(failing)


@pytest.mark.parametrize("C, D, failing", [
    ("0.5", "1.5", []),
    ("1e-6", "1", FAILING_NEAR_C_0),
    ("1", "1.000001", FAILING_NEAR_D_C),
])
def test_validate_and_run_symbol_properties_are_one_path(C, D, failing):
    # one bound row per check, which passes when its worst value is below its
    # tolerance; test_aliases_print_what_run_prints checks the stdout of both
    checks = validate_symbol_properties(ModelParams(C=float(C), D=float(D)))
    config = ExperimentConfig("symbol-properties", {"C": float(C), "D": float(D)})
    rows = run_experiment(config).rows
    assert ([(r.label, r.value_a, r.value_b, r.tolerance, r.rule, r.passed) for r in rows]
            == [(c.name, c.worst, 0.0, c.tol, "bound", c.worst < c.tol) for c in checks])
    assert [r.label for r in rows if not r.passed] == failing


def test_gff_and_run_gff_variance_write_the_same_csv(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["gff", "--m", "64", "--delta", "0.125", "--tol", "0.5", "--out", str(a)]) == 0
    assert _run_config(tmp_path, "experiment = gff-variance\nm = 64\ndelta = 0.125\n"
                                 f"tol = 0.5\nout = {b}\n") == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0] == "lattice,continuum,rel_gap"
    capsys.readouterr()


def _subcommands():
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_subcommand_flags_are_the_function_parameters():
    parent_flags = {"oracle-stationarity": {"--L", "--N", "--m1", "--m2", "--q", "--tol"},
                    "she-check": {"--C", "--D", "--delta-list", "--out"},
                    "gff": {"--C", "--D", "--delta", "--m", "--m2", "--phi", "--tol", "--out"},
                    "ctmc": {"--L", "--N", "--m1", "--m2", "--q", "--T", "--seed",
                             "--observe-every", "--crystalline", "--start", "--dump-final",
                             "--out"},
                    "sde": {"--C", "--D", "--m", "--m2", "--dt", "--T", "--replicas", "--seed",
                            "--observe-every", "--out"},
                    "cov": {"--C", "--D", "--m", "--m2", "--t", "--s", "--y1", "--y2",
                            "--method", "--out"},
                    "validate": {"--C", "--D"}}
    functions = {**cli._COMMANDS,
                 **{alias: cli._RECIPES[name] for alias, name in cli._ALIASES.items()}}
    assert functions.keys() == parent_flags.keys()
    subcommands = _subcommands()
    for command, fn in functions.items():
        flags = {f for a in subcommands[command]._actions for f in a.option_strings}
        keys = set(inspect.signature(fn).parameters)
        assert flags - {"-h", "--help"} == {f"--{key.replace('_', '-')}" for key in keys}
        assert parent_flags[command] <= flags
    # validate takes exactly --C and --D: its recipe writes no file, so it has no --out
    validate = {f for a in subcommands["validate"]._actions for f in a.option_strings}
    assert validate - {"-h", "--help"} == parent_flags["validate"]


@pytest.mark.parametrize("command", [*cli._COMMANDS, *cli._ALIASES, "run", "all"])
def test_cli_help_exits_0(command, capsys):
    with pytest.raises(SystemExit) as err:
        main([command, "-h"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: akpz {command}")


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line")[1].split("```")[1].replace("\\\n", " ")
    commands = [line for line in block.splitlines() if line.startswith("akpz ")]
    assert len(commands) >= 10
    parser = cli.build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line)[1:])


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # each example runs in order in one directory, so --start finds the file
    # that the line before dumped; `akpz all` and lines whose input file no
    # earlier line writes are skipped, and every line run exits 0
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line")[1].split("```")[1].replace("\\\n", " ")
    monkeypatch.chdir(tmp_path)
    ran = []
    for line in block.splitlines():
        argv = shlex.split(line)[1:]
        if not line.startswith("akpz ") or argv == ["all"]:
            continue
        inputs = [value for flag, value in zip(argv, argv[1:]) if flag in ("--start", "--phi", "run")]
        if not all(Path(name).exists() for name in inputs):
            continue
        assert main(argv) == 0, (line, capsys.readouterr())
        ran.append(argv[0])
    assert ran.count("ctmc") == 2 and len(ran) >= 9


def _stub_recipe(monkeypatch, name, passed=None):
    """Replace a recipe by one with the same signature that records its calls;
    its report has no row, or one row that passes or fails as `passed` says."""
    recipe = cli._RECIPES[name]
    calls = []

    @functools.wraps(recipe)
    def record(**values):
        calls.append(values)
        report = ComparisonReport(name)
        if passed is not None:
            report.add("stub", 0.0 if passed else 1.0, 0.0, 0.0)
        return report

    monkeypatch.setitem(cli._RECIPES, name, record)
    return calls


@pytest.mark.parametrize("failing", [None, "cor2-characteristic"])
def test_cli_all_runs_every_recipe_and_counts_its_failures(failing, monkeypatch, capsys):
    calls = {name: _stub_recipe(monkeypatch, name, passed=name != failing)
             for name in cli.EXPERIMENTS}
    assert main(["all"]) == (0 if failing is None else 1)
    out = capsys.readouterr().out.splitlines()
    verdicts = [line.split() for line in out if line.startswith(("PASS", "FAIL"))]
    assert [words[1] for words in verdicts] == [f"{name}:" for name in cli.EXPERIMENTS]
    assert [words[0] == "FAIL" for words in verdicts] == [n == failing for n in cli.EXPERIMENTS]
    assert out[-1] == ("ALL PASS" if failing is None else "1 experiment(s) FAILED")
    assert all(c == [{}] for c in calls.values())  # each at its default keys, once


@pytest.mark.parametrize("experiment, line, message", [
    ("drift-check", "C = 0.5", "does not take 'C'"),
    ("qpoch-asymptotics", "eps = 0.5", "does not take 'eps'"),
    ("cor1-log-growth", "replicas = 3", "does not take 'replicas'"),
    ("stationarity-oracle", "seed = 1", "does not take 'seed'"),
    ("qpoch-asymptotics", "T = 5", "unknown key 'T'"),
    ("qpoch-asymptotics", "grid = 7", "unknown key 'grid'"),
    ("qpoch-asymptotics", "ell = 2", "unknown key 'ell'"),
    ("sde-vs-exact", "threads = 2", "unknown key 'threads'"),
])
def test_cli_run_rejects_keys_the_recipe_does_not_take(experiment, line, message, tmp_path,
                                                       monkeypatch, capsys):
    calls = _stub_recipe(monkeypatch, experiment)
    cfg = tmp_path / "x.cfg"
    cfg.write_text(f"experiment = {experiment}\n{line}\n")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert calls == []


def test_cli_run_rejects_a_negative_seed_before_the_recipe(tmp_path, monkeypatch, capsys):
    calls = _stub_recipe(monkeypatch, "drift-check")
    cfg = tmp_path / "x.cfg"
    cfg.write_text("experiment = drift-check\nseed = -1\n")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == "error: line 2: value -1 out of range for 'seed'\n"
    assert calls == []


def test_every_config_key_is_a_recipe_parameter():
    taken = set().union(*(inspect.signature(cli._RECIPES[name]).parameters
                           for name in cli.EXPERIMENTS))
    assert set(cli._SCHEMA) - {"experiment"} <= taken
    # each key has one type, the annotation it carries in every recipe that takes it
    for name in cli.EXPERIMENTS:
        for key, param in inspect.signature(cli._RECIPES[name]).parameters.items():
            assert param.annotation in (int, float, str, tuple), (name, key)
            assert cli._SCHEMA[key] is param.annotation, (name, key)


def test_readme_config_block_passes_the_key_check(monkeypatch):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text().split("### Experiment config files")[1].split("```")[1]
    config = parse_config(text)
    calls = _stub_recipe(monkeypatch, config.experiment)
    run_experiment(config)
    assert calls == [config.values]


def test_readme_lists_the_config_keys_of_each_recipe():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = {}
    for row in readme.splitlines():
        cells = row.split("|")
        if len(cells) == 4 and cells[1].strip(" `") in cli.EXPERIMENTS:
            listed[cells[1].strip(" `")] = set(cells[2].split("(")[0].strip(" `").split())
    assert listed == {name: set(inspect.signature(cli._RECIPES[name]).parameters)
                             & set(cli._SCHEMA) - {"out"}
                      for name in cli.EXPERIMENTS}


@pytest.mark.parametrize("cls", [c for _, c in inspect.getmembers(errors, inspect.isclass)
                                 if issubclass(c, errors.AkpzError)])
def test_cli_every_akpz_error_exits_2(cls, monkeypatch, capsys):
    @functools.wraps(cli.recipe_symbol_properties)
    def fail(**values):
        raise cls("boom")

    monkeypatch.setitem(cli._RECIPES, "symbol-properties", fail)
    assert main(["validate", "--C", "0.5", "--D", "1.5"]) == 2
    assert capsys.readouterr().err == "error: boom\n"


def test_thread_count_does_not_change_results(monkeypatch):
    for config in (ExperimentConfig("sde-vs-exact", {"replicas": 400, "dt": 5e-3, "t": 0.5}),
                   ExperimentConfig("cor2-characteristic")):
        reports = []
        for cpus in (1, 4):
            monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
            reports.append(run_experiment(config))
        assert reports[0].rows == reports[1].rows, config.experiment


def _verdicts_follow_the_printed_rule(lines):
    """The PASS/FAIL of each report line, checked to be what its printed rule
    gives on its printed numbers read back with float(): |got - ref| <= tol,
    or got < bound."""
    tags = []
    for line in lines:
        tag, _, rest = line.partition("  ")
        nums = {key: float(val) for key, val in
                (word.split("=") for word in rest.rsplit("  ", 1)[1].split() if "=" in word)}
        if "bound" in nums:
            assert nums.keys() == {"got", "bound"}, line
            ok = nums["got"] < nums["bound"]
        else:
            assert nums.keys() == {"got", "ref", "|diff|", "tol"}, line
            ok = abs(nums["got"] - nums["ref"]) <= nums["tol"]
        assert tag == ("PASS" if ok else "FAIL"), line
        tags.append(tag)
    return tags


def test_report_lines_format():
    report = ComparisonReport("demo")
    report.add("thing", 1.0, 1.0 + 1e-12, 1e-6)
    line = report.lines()[0]
    assert line.startswith("PASS") and "demo" in line
    # within rows at, just below and just above their tolerance, bound rows
    # at, just below and just above a positive and a negative bound, and nan
    gap = 0.3 - 0.1  # 0.19999999999999998, not exactly 0.2
    nan = float("nan")
    report = ComparisonReport("demo")
    for tol in (gap, math.nextafter(gap, 0), math.nextafter(gap, 1)):
        report.add("within", 0.3, 0.1, tol)
    for bound in (1e-12, -1e-15):
        for got in (bound, math.nextafter(bound, -1), math.nextafter(bound, 1)):
            report.add_bound("bound", got, bound)
    report.add("nan got", nan, 0.0, 1.0)
    report.add("nan ref", 0.0, nan, 1.0)
    report.add_bound("nan got", nan, 1.0)
    tags = _verdicts_follow_the_printed_rule(report.lines())
    assert tags == ["PASS", "FAIL", "PASS", "FAIL", "PASS", "FAIL", "FAIL", "PASS", "FAIL",
                    "FAIL", "FAIL", "FAIL"]
    assert [r.passed for r in report.rows] == [tag == "PASS" for tag in tags]
    # the recipes with bound rows, as `akpz all` prints them
    for name in ("symbol-properties", "cor3-she", "qpoch-asymptotics"):
        assert "FAIL" not in _verdicts_follow_the_printed_rule(
            run_experiment(ExperimentConfig(name)).lines())
