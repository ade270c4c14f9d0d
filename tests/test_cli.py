import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import stochnewton
from stochnewton import cli
from stochnewton.cli import main
from stochnewton.experiment import ExperimentConfig
from stochnewton.linalg import PositiveDefiniteError


def test_run_paired_writes_csv(tmp_path, capsys):
    out = tmp_path / "bench"
    code = main(["run-paired", "--trials", "10", "--steps", "3", "--seed", "5",
                 "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "mse_unfiltered" in captured
    table = (tmp_path / "bench.table1.csv").read_text().splitlines()
    assert len(table) == 4  # header + 3 steps
    curves = (tmp_path / "bench.curves.csv").read_text().splitlines()
    assert len(curves) == 7  # header + 2 methods x 3 steps


def test_run_paired_deterministic_bytes(tmp_path):
    args = ["run-paired", "--trials", "8", "--steps", "3", "--seed", "9"]
    assert main(args + ["--out", str(tmp_path / "x")]) == 0
    assert main(args + ["--out", str(tmp_path / "y"), "--workers", "4"]) == 0
    for suffix in ("table1", "curves"):
        x = (tmp_path / f"x.{suffix}.csv").read_bytes()
        y = (tmp_path / f"y.{suffix}.csv").read_bytes()
        assert x == y


@pytest.mark.parametrize("extra", [
    ["--trials", "200"],
    ["--n", "2000", "--d", "20", "--batch", "100", "--trials", "30"],
], ids=["d2", "d20"])
def test_run_paired_bytes_do_not_depend_on_blas_threads(tmp_path, extra):
    src = str(Path(stochnewton.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "stochnewton.cli", "run-paired", "--seed", "3",
                        *extra, "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=600)
        outputs.append([(tmp_path / f"{out.name}.{suffix}.csv").read_bytes()
                        for suffix in ("table1", "curves")])
    assert outputs[0] == outputs[1]


def test_check_prop1_satisfied(capsys):
    code = main(["check-prop1", "--alpha", "0.9", "--beta", "0.2",
                 "--lambda-min", "1.0", "--lambda-max", "1.0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "bound" in out
    assert "satisfied" in out
    assert repr(0.9 / 1.01) in out


def test_check_prop1_not_satisfied(capsys):
    code = main(["check-prop1", "--alpha", "0.9", "--beta", "0.2",
                 "--lambda-min", "0.01", "--lambda-max", "100.0"])
    assert code == 0
    assert "not satisfied" in capsys.readouterr().out


def test_trace_prints_steps(capsys):
    code = main(["trace", "--steps", "4", "--seed", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "-- unfiltered --" in out
    assert "-- filtered --" in out
    assert out.count("t=  1") == 2
    assert "lambda=" in out


def test_input_error_exit_code(tmp_path):
    # alpha outside (0, 1) is a configuration error.
    code = main(["run-paired", "--alpha", "1.5", "--trials", "2", "--steps", "2",
                 "--out", str(tmp_path / "z")])
    assert code == 1


def test_bad_flag_value_exit_code(capsys):
    code = main(["check-prop1", "--alpha", "0.9", "--beta", "0.2",
                 "--lambda-min", "2.0", "--lambda-max", "1.0"])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["run-paired", "--trials", "3", "--steps", "2", "--beta", "inf"],
    ["trace", "--steps", "2", "--beta", "inf"],
    ["check-prop1", "--alpha", "0.5", "--beta", "inf", "--lambda-min", "0.3", "--lambda-max", "1"],
    ["check-prop1", "--alpha", "0.5", "--beta", "0.2", "--lambda-min", "0.3",
     "--lambda-max", "inf"],
], ids=["run-paired-beta", "trace-beta", "check-prop1-beta", "check-prop1-lambda-max"])
def test_non_finite_setting_is_an_input_error(argv, tmp_path, capsys):
    # An infinite beta or lambda bound is bad input, not a numerical failure,
    # and is refused before anything is run or printed.
    if argv[0] == "run-paired":
        argv = argv + ["--out", str(tmp_path / "inf")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["trace", "--trial", "-1"],
    ["trace", "--seed", "-1"],
    ["run-paired", "--seed", "-1", "--trials", "2", "--steps", "2"],
], ids=["trace-trial", "trace-seed", "run-paired-seed"])
def test_negative_stream_key_is_refused_by_its_flag(argv, capsys):
    # A stream key is a non-negative integer: the parser names the flag and
    # exits before anything is printed.
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    flag = argv[argv.index("-1") - 1]
    assert f"argument {flag}: expected a non-negative integer, got '-1'" in captured.err


def test_unwritable_output_is_input_error(tmp_path):
    code = main(["run-paired", "--trials", "2", "--steps", "2",
                 "--out", str(tmp_path / "missing_dir" / "deep" / "x")])
    assert code == 1


def test_numerical_failure_exit_code(tmp_path):
    # A start point far outside the floating range overflows the batch
    # objective; every trial fails and the run aborts numerically.
    code = main(["run-paired", "--trials", "4", "--steps", "2",
                 "--theta0", "1e200,1e200", "--out", str(tmp_path / "n")])
    assert code == 2


def test_batch_of_fewer_distinct_samples_than_d_is_ridged_not_failed(tmp_path):
    # At batch = d many batches repeat an index and so have a singular
    # Hessian, which must be ridged rather than fail the filter.
    code = main(["run-paired", "--n", "100", "--d", "5", "--batch", "5", "--trials", "50",
                 "--seed", "0", "--out", str(tmp_path / "d5")])
    assert code == 0


def test_positive_definite_failure_is_a_numerical_failure(monkeypatch):
    # PositiveDefiniteError is a ValueError too; it must not read as an input error.
    def not_pd(cfg, workers=1):
        raise PositiveDefiniteError("matrix is not positive definite at the pivot tolerance")

    monkeypatch.setattr(cli, "run_paired_trials", not_pd)
    assert main(["run-paired", "--trials", "2", "--steps", "2"]) == 2


def test_singular_gram_is_an_input_error(tmp_path, capsys):
    # exact_mle reports a singular Gram matrix (here n < d) as a ValueError.
    code = main(["run-paired", "--n", "1", "--trials", "2", "--steps", "2",
                 "--out", str(tmp_path / "s")])
    assert code == 1
    assert "Gram matrix is singular" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run-paired", "trace"])
def test_flag_defaults_are_the_experiment_config_defaults(command):
    # A default re-typed in argparse would drift from ExperimentConfig's.
    default = ExperimentConfig()
    args = cli.build_parser().parse_args([command])
    # trace has no --trials flag; it runs one trial.
    cfg = cli._experiment_config(args, trials=None if command == "run-paired" else default.trials)
    for field in fields(ExperimentConfig):
        assert np.array_equal(getattr(cfg, field.name), getattr(default, field.name)), field.name


def test_theta0_parse_error():
    # Flag-level parse failures exit through argparse with the input-error code.
    with pytest.raises(SystemExit) as excinfo:
        main(["run-paired", "--theta0", "a,b", "--trials", "2", "--steps", "2"])
    assert excinfo.value.code == 1


def test_unknown_flag_is_input_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["run-paired", "--no-such-flag"])
    assert excinfo.value.code == 1


def test_plain_runtime_error_is_not_a_numerical_failure(monkeypatch):
    # Only the typed numerical failures map to exit code 2; a bug surfaces.
    def broken(cfg, workers=1):
        raise RuntimeError("a bug, not a numerical failure")

    monkeypatch.setattr(cli, "run_paired_trials", broken)
    with pytest.raises(RuntimeError, match="a bug"):
        main(["run-paired", "--trials", "2", "--steps", "2"])
