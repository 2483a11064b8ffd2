import argparse
import functools
import hashlib
import inspect
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import akpz
from akpz import cli, errors
from akpz import correlations as corr
from akpz.cli import (ComparisonReport, ConfigError, ExperimentConfig, main,
                      parse_config, run_experiment)
from akpz.lattice import ParticleConfig, TorusParams, config_to_text
from akpz.sde import ModelParams, finite_eps_speed


def test_parse_config_minimal():
    cfg = parse_config("C = 0.5\nD = 1.5\nexperiment = drift-check\n")
    assert cfg.experiment == "drift-check"
    assert cfg.get("C") == 0.5
    assert cfg.get("D") == 1.5


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


def test_qpoch_recipe_passes():
    report = run_experiment(ExperimentConfig("qpoch-asymptotics"))
    assert report.passed


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


def test_cli_oracle_stationarity(capsys):
    rc = main(["oracle-stationarity", "--L", "4", "--N", "3", "--m1", "2",
               "--m2", "1", "--q", "0.7"])
    assert rc == 0
    assert capsys.readouterr().out.count("stationarity residual:") == 1


def test_cli_cov_methods(tmp_path, capsys):
    for method in ("finite", "quad", "kernel", "asymptotic"):
        args = ["cov", "--C", "0.5", "--D", "1.5", "--t", "5", "--s", "5",
                "--y1", "0", "--y2", "0", "--method", method]
        if method == "finite":
            args += ["--m", "8", "--m2", "4"]
        assert main(args) == 0
    out = capsys.readouterr().out
    assert out.count("W_y(t,s)") == 4


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
    assert "lattice variance" in out


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


def _two_point_phi(tmp_path):
    phi = tmp_path / "phi.txt"
    phi.write_text("0 0 1\n1 0 -1\n")
    return str(phi)


@pytest.mark.parametrize("argv", [
    ["ctmc", *_TORUS, "--q", "1.5", "--T", "1", "--crystalline"],
    ["ctmc", *_TORUS, "--q", "-0.5", "--T", "1", "--crystalline"],
    ["ctmc", "--L", "4", "--N", "3", "--m1", "3", "--m2", "2", "--q", "0.5", "--T", "1"],
    ["ctmc", "--L", "6", "--N", "5", "--m1", "2", "--m2", "1", "--q", "0.5", "--T", "1"],
    [*_ORACLE, "--q", "1.2"],
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
], ids=["q-above-1", "q-negative", "empty-sector", "too-large-to-enumerate",
        "oracle-q-above-1", "sde-negative-T", "sde-no-replicas",
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
        "cov-asymptotic-inf-t", "gff-variance-overflows", "gff-phi-variance-overflows"])
def test_cli_bad_input_exit_2_without_traceback(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    argv = [_two_point_phi(tmp_path) if a == "PHI" else a for a in argv]
    # validate writes no file, so it takes no --out
    assert main(argv + ([] if argv[0] == "validate" else ["--out", str(out)])) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    if "--observe-every" in argv:
        assert "observe_every" in lines[0]
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
                 **{alias: cli._RECIPES[name] for alias, (name, _) in cli._ALIASES.items()}}
    assert functions.keys() == parent_flags.keys()
    subcommands = _subcommands()
    for command, fn in functions.items():
        flags = {f for a in subcommands[command]._actions for f in a.option_strings}
        keys = set(inspect.signature(fn).parameters)
        assert flags - {"-h", "--help"} == {f"--{key.replace('_', '-')}" for key in keys}
        assert parent_flags[command] <= flags


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


def _stub_recipe(monkeypatch, name):
    """Replace a recipe by one with the same signature that records its calls."""
    recipe = cli._RECIPES[name]
    calls = []

    @functools.wraps(recipe)
    def record(**values):
        calls.append(values)
        return ComparisonReport(name)

    monkeypatch.setitem(cli._RECIPES, name, record)
    return calls


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
    taken = set().union(*(cli._recipe_keys(name) for name in cli.EXPERIMENTS))
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
    assert listed == {name: set(cli._recipe_keys(name)) & set(cli._SCHEMA) - {"out"}
                      for name in cli.EXPERIMENTS}


@pytest.mark.parametrize("cls", [c for _, c in inspect.getmembers(errors, inspect.isclass)
                                 if issubclass(c, errors.AkpzError)])
def test_cli_every_akpz_error_exits_2(cls, monkeypatch, capsys):
    @functools.wraps(cli.cmd_validate)
    def fail(**values):
        raise cls("boom")

    monkeypatch.setitem(cli._COMMANDS, "validate", fail)
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


def test_report_lines_format():
    report = ComparisonReport("demo")
    report.add("thing", 1.0, 1.0 + 1e-12, 1e-6)
    line = report.lines()[0]
    assert line.startswith("PASS") and "demo" in line
