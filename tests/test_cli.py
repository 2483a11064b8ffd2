import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import akpz
from akpz import cli, errors
from akpz.cli import (ComparisonReport, ConfigError, ExperimentConfig, main,
                      parse_config, run_experiment)
from akpz.lattice import TorusParams
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
    assert "residual" in capsys.readouterr().out


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


def test_cli_sde_csv_deterministic(tmp_path):
    base = ["sde", "--C", "0.5", "--D", "1.5", "--m", "4", "--m2", "2",
            "--dt", "0.01", "--T", "0.1", "--replicas", "2", "--seed", "3"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().splitlines()[0] == "replica,t,p1,p2,xi"


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


def test_python_dash_m_akpz_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(akpz.__file__).resolve().parent.parent)}
    done = subprocess.run([sys.executable, "-m", "akpz", "validate", "--C", "0.5", "--D", "1.5"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "FAIL" not in done.stdout


_TORUS = ["--L", "6", "--N", "3", "--m1", "2", "--m2", "1"]
_SDE = ["sde", "--C", "0.5", "--D", "1.5", "--m", "4", "--m2", "2", "--dt", "0.01"]


@pytest.mark.parametrize("argv", [
    ["ctmc", *_TORUS, "--q", "1.5", "--T", "1", "--crystalline"],
    ["ctmc", *_TORUS, "--q", "-0.5", "--T", "1", "--crystalline"],
    ["ctmc", "--L", "4", "--N", "3", "--m1", "3", "--m2", "2", "--q", "0.5", "--T", "1"],
    ["ctmc", "--L", "6", "--N", "5", "--m1", "2", "--m2", "1", "--q", "0.5", "--T", "1"],
    ["oracle-stationarity", "--L", "4", "--N", "3", "--m1", "2", "--m2", "1", "--q", "1.2"],
    [*_SDE, "--T", "-1"],
    [*_SDE, "--T", "0.1", "--replicas", "0"],
    ["ctmc", *_TORUS, "--q", "0.5", "--T", "1", "--crystalline", "--observe-every", "-1"],
    [*_SDE, "--T", "0.1", "--observe-every", "-1"],
    ["gff", "--delta", "0", "--m", "64"],
    ["gff", "--delta", "-0.1", "--m", "64"],
], ids=["q-above-1", "q-negative", "empty-sector", "too-large-to-enumerate",
        "oracle-q-above-1", "sde-negative-T", "sde-no-replicas",
        "ctmc-negative-observe-every", "sde-negative-observe-every",
        "gff-zero-delta", "gff-negative-delta"])
def test_cli_bad_input_exit_2_without_traceback(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    if argv[0] != "oracle-stationarity":
        argv = argv + ["--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("cls", [c for _, c in inspect.getmembers(errors, inspect.isclass)
                                 if issubclass(c, errors.AkpzError)])
def test_cli_every_akpz_error_exits_2(cls, monkeypatch, capsys):
    def fail(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "cmd_validate", fail)
    assert main(["validate", "--C", "0.5", "--D", "1.5"]) == 2
    assert capsys.readouterr().err == "error: boom\n"


def test_thread_count_does_not_change_results():
    cfg_a = ExperimentConfig("sde-vs-exact", {"replicas": 400, "dt": 5e-3,
                                              "t": 0.5, "threads": 1})
    cfg_b = ExperimentConfig("sde-vs-exact", {"replicas": 400, "dt": 5e-3,
                                              "t": 0.5, "threads": 4})
    ra = run_experiment(cfg_a)
    rb = run_experiment(cfg_b)
    assert [(r.label, r.value_a) for r in ra.rows] == [(r.label, r.value_a) for r in rb.rows]


def test_report_lines_format():
    report = ComparisonReport("demo")
    report.add("thing", 1.0, 1.0 + 1e-12, 1e-6)
    line = report.lines()[0]
    assert line.startswith("PASS") and "demo" in line
