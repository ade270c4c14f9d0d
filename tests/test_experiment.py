import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import stochnewton.experiment as experiment
from stochnewton.experiment import (
    AngularErrorStats,
    ExperimentConfig,
    TooManyFailuresError,
    emit_csv,
    exact_mle,
    generate_data,
    rho_monitor_summary,
    run_paired_trials,
    signed_angular_error,
)
from stochnewton.objectives import LeastSquaresData, LeastSquaresObjective, evaluate_batch
from stochnewton.optim import run
from stochnewton.streams import BATCH_STREAM, DATA_STREAM, derive_stream

from helpers import assert_same_decisions


def small_config(**kwargs):
    defaults = dict(trials=25, steps=6, master_seed=123)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------------
# data generation
# ---------------------------------------------------------------------------

def test_covariate_sample_covariance():
    cfg = ExperimentConfig(n=10 ** 5)
    data = generate_data(cfg, derive_stream(5, DATA_STREAM))
    sample_cov = data.xs.T @ data.xs / cfg.n
    target = np.array([[1.0, 0.1], [0.1, 1.0]])
    # Var(x_i x_j) = c_ii c_jj + c_ij^2 for centered Gaussians.
    sigma = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target ** 2) / cfg.n)
    assert np.all(np.abs(sample_cov - target) <= 5.0 * sigma)


def test_noise_mean_is_one():
    cfg = ExperimentConfig(n=10 ** 5)
    data = generate_data(cfg, derive_stream(6, DATA_STREAM))
    residual = data.ys - data.xs @ cfg.theta_true
    assert abs(residual.mean() - 1.0) <= 5.0 / np.sqrt(cfg.n)


def test_generate_data_deterministic():
    cfg = ExperimentConfig(n=20)
    a = generate_data(cfg, derive_stream(1, DATA_STREAM))
    b = generate_data(cfg, derive_stream(1, DATA_STREAM))
    assert np.array_equal(a.xs, b.xs)
    assert np.array_equal(a.ys, b.ys)


# ---------------------------------------------------------------------------
# exact MLE
# ---------------------------------------------------------------------------

def test_mle_interpolates_noise_free_data():
    rng = np.random.default_rng(0)
    xs = rng.standard_normal((30, 3))
    c = np.array([0.5, -1.0, 2.0])
    theta = exact_mle(LeastSquaresData(xs=xs, ys=xs @ c))
    assert np.max(np.abs(theta - c)) <= 1e-10


def test_mle_orthonormal_design():
    data = LeastSquaresData(xs=np.eye(2), ys=np.array([3.0, -4.0]))
    assert_allclose(exact_mle(data), np.array([3.0, -4.0]))


def test_mle_is_stationary_point():
    cfg = ExperimentConfig(n=80)
    data = generate_data(cfg, derive_stream(2, DATA_STREAM))
    theta_star = exact_mle(data)
    obj = LeastSquaresObjective(data)
    obs = evaluate_batch(obj, theta_star, np.arange(cfg.n))
    assert np.linalg.norm(obs.f) <= 1e-10


def test_mle_rejects_singular_gram():
    data = LeastSquaresData(xs=np.array([[1.0, 0.0], [2.0, 0.0]]), ys=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        exact_mle(data)


# ---------------------------------------------------------------------------
# angular error
# ---------------------------------------------------------------------------

def test_angle_zero_when_parallel():
    angle = signed_angular_error(np.array([2.0, 2.0]), np.zeros(2), np.array([1.0, 1.0]))
    assert angle == pytest.approx(0.0, abs=1e-15)


def test_angle_counterclockwise_perpendicular_is_positive():
    # Optimal direction (1, 0); direction (0, 1) is a +90 degree rotation.
    angle = signed_angular_error(np.array([0.0, 1.0]), np.zeros(2), np.array([1.0, 0.0]))
    assert angle == pytest.approx(np.pi / 2)
    angle = signed_angular_error(np.array([0.0, -1.0]), np.zeros(2), np.array([1.0, 0.0]))
    assert angle == pytest.approx(-np.pi / 2)


def test_signed_angle_magnitude_matches_cosine_formula():
    rng = np.random.default_rng(1)
    for _ in range(100):
        direction = rng.standard_normal(2)
        theta = rng.standard_normal(2)
        star = rng.standard_normal(2)
        optimal = star - theta
        signed = signed_angular_error(direction, theta, star)
        cos = optimal @ direction / (np.linalg.norm(optimal) * np.linalg.norm(direction))
        unsigned = np.arccos(np.clip(cos, -1.0, 1.0))
        assert abs(abs(signed) - unsigned) <= 1e-10


def test_angle_unsigned_above_two_dimensions():
    angle = signed_angular_error(np.array([0.0, 0.0, 1.0]), np.zeros(3),
                                 np.array([0.0, 1.0, 0.0]))
    assert angle == pytest.approx(np.pi / 2)


def test_angle_rejects_zero_vectors():
    with pytest.raises(ValueError):
        signed_angular_error(np.zeros(2), np.zeros(2), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        signed_angular_error(np.array([1.0, 0.0]), np.array([1.0, 1.0]), np.array([1.0, 1.0]))


# ---------------------------------------------------------------------------
# paired trials
# ---------------------------------------------------------------------------

def test_single_trial_matches_hand_composition():
    cfg = small_config(trials=1)
    result = run_paired_trials(cfg)

    data = generate_data(cfg, derive_stream(cfg.master_seed, DATA_STREAM))
    obj = LeastSquaresObjective(data)
    filtered = run(obj, cfg.theta0, cfg.optimizer_config(filtered=True),
                   derive_stream(cfg.master_seed, BATCH_STREAM, 0))
    unfiltered = run(obj, cfg.theta0, cfg.optimizer_config(filtered=False),
                     derive_stream(cfg.master_seed, BATCH_STREAM, 0))

    for mine, theirs in ((filtered, result.filtered), (unfiltered, result.unfiltered)):
        assert len(mine.records) == theirs.step_lengths.shape[1]
        for t, rec in enumerate(mine.records):
            assert np.array_equal(rec.theta_after, theirs.thetas[0, t + 1])
            assert np.array_equal(rec.batch, result.batches[0, t])
            assert rec.step_length == theirs.step_lengths[0, t]


def test_step_one_mse_identical():
    result = run_paired_trials(small_config())
    assert result.stats.mse_unfiltered[0] == result.stats.mse_filtered[0]


def test_mse_decomposition():
    result = run_paired_trials(small_config())
    s = result.stats
    assert np.all(np.abs(s.mse_unfiltered - (s.bias2_unfiltered + s.var_unfiltered)) <= 1e-10)
    assert np.all(np.abs(s.mse_filtered - (s.bias2_filtered + s.var_filtered)) <= 1e-10)


def test_paired_index_logs_agree():
    # Both methods consume the batches recorded for a trial, which are
    # those of a one-trial run on that trial's stream.
    cfg = small_config(trials=10)
    result = run_paired_trials(cfg)
    obj = LeastSquaresObjective(result.data)
    for k, trial in enumerate(result.trials):
        for filtered, steps in ((False, result.unfiltered), (True, result.filtered)):
            alone = run(obj, cfg.theta0, cfg.optimizer_config(filtered=filtered),
                        derive_stream(cfg.master_seed, BATCH_STREAM, trial))
            assert np.array_equal(np.array([rec.batch for rec in alone.records]),
                                  result.batches[k])
            assert np.array_equal(np.array([rec.theta_after for rec in alone.records]),
                                  steps.thetas[k, 1:])


def test_worker_threads_do_not_change_results():
    cfg = small_config(trials=16)
    serial = run_paired_trials(cfg, workers=1)
    threaded = run_paired_trials(cfg, workers=4)
    assert np.array_equal(serial.stats.mse_filtered, threaded.stats.mse_filtered)
    assert np.array_equal(serial.curves.unfiltered.mean_dist,
                          threaded.curves.unfiltered.mean_dist)
    assert np.array_equal(serial.curves.filtered.max_rho, threaded.curves.filtered.max_rho,
                          equal_nan=True)
    assert_same_decisions(serial.unfiltered, threaded.unfiltered)
    assert_same_decisions(serial.filtered, threaded.filtered)


def _start_trials_at(monkeypatch, starts):
    """Make the engine start the trials in ``starts`` (index -> point or
    callable of the exact optimum) there instead of at theta0."""
    engine = experiment.run_trials

    def run_trials(obj, theta0, batches, cfg):
        theta0 = np.tile(theta0, (len(batches), 1))
        for trial, start in starts.items():
            theta0[trial] = start(exact_mle(obj.data)) if callable(start) else start
        return engine(obj, theta0, batches, cfg)

    monkeypatch.setattr(experiment, "run_trials", run_trials)


def test_failed_trials_are_excluded_and_counted(monkeypatch):
    # Trial 3 starts where its batch objective overflows.
    _start_trials_at(monkeypatch, {3: 1e200})
    result = run_paired_trials(small_config(trials=200, steps=3))
    # The reason is the error that stopped the trial, with its type and step.
    assert result.failures == [(3, "NumericalError at step 1: non-finite batch evaluation "
                                   "at theta=array([1.e+200, 1.e+200])")]
    assert len(result.trials) == 199 and 3 not in result.trials
    assert result.filtered.thetas.shape[0] == result.unfiltered.thetas.shape[0] == 199


def test_too_many_failures_abort(monkeypatch):
    _start_trials_at(monkeypatch, {trial: 1e200 for trial in range(10)})
    with pytest.raises(TooManyFailuresError):
        run_paired_trials(small_config(trials=10, steps=2))


def test_undefined_angle_counts_as_a_failed_trial(monkeypatch):
    # Trial 5 starts at the exact optimum, where the optimal direction is zero.
    _start_trials_at(monkeypatch, {5: lambda theta_star: theta_star})
    result = run_paired_trials(small_config(trials=200, steps=2))
    assert result.failures == [(5, "UndefinedAngleError: angular error is undefined "
                                   "for a zero vector")]


def test_programming_errors_in_a_trial_propagate(monkeypatch):
    # A plain ValueError is a bug, not a numerical failure of the trial.
    def broken(obj, theta0, batches, cfg):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(experiment, "run_trials", broken)
    with pytest.raises(ValueError, match="could not be broadcast"):
        run_paired_trials(small_config(trials=10, steps=2))


def test_curve_lengths_match_steps():
    cfg = small_config()
    result = run_paired_trials(cfg)
    assert result.curves.steps == cfg.steps
    assert result.stats.steps == cfg.steps
    assert result.curves.filtered.mean_rho is not None
    assert np.isnan(result.curves.filtered.mean_rho[0])  # no momentum at step 1
    assert np.isnan(result.curves.unfiltered.mean_rho).all()


@pytest.mark.parametrize("d", [2, 5])
def test_objective_curves_match_plain_residuals(d):
    # The curves take the objective from the optimum, f* + 1/2 delta^T G
    # delta; it must agree with averaging every squared residual.
    result = run_paired_trials(small_config(d=d, n=60))
    xs, ys = result.data.xs, result.data.ys
    f_star = 0.5 * np.mean((xs @ result.theta_star - ys) ** 2)
    for method in ("unfiltered", "filtered"):
        residuals = getattr(result, method).thetas[:, 1:] @ xs.T - ys
        objective = 0.5 * np.mean(residuals * residuals, axis=-1)
        curves = getattr(result.curves, method)
        assert_allclose(curves.mean_obj, objective.mean(axis=0), rtol=1e-12, atol=0)
        assert_allclose(curves.sd_obj, objective.std(axis=0), rtol=1e-12, atol=0)
        assert np.all(curves.mean_obj >= f_star)


# ---------------------------------------------------------------------------
# rho monitor
# ---------------------------------------------------------------------------

def test_rho_monitor_empty():
    summary = rho_monitor_summary(np.empty((0, 0)))
    assert summary.step_max.size == 0
    assert summary.violations == []


def test_rho_monitor_maxima_and_violations():
    rho = np.array([
        [np.nan, 0.5, 0.7, 0.85, 0.3, 0.9, 0.4],
        [np.nan, 0.6, 0.2, 0.10, 0.2, 0.1, 0.81],
    ])
    summary = rho_monitor_summary(rho)
    assert np.isnan(summary.step_max[0])
    assert summary.step_max[1] == 0.6
    assert summary.step_max[3] == 0.85  # step 4: below min_step, not flagged
    assert summary.violations == [6, 7]


def test_rho_monitor_stationary_trace():
    summary = rho_monitor_summary(np.array([[np.nan] + [0.9] * 5]))
    assert summary.violations == [6]
    assert_allclose(summary.step_max[1:], 0.9)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def test_csv_single_step_layout(tmp_path):
    cfg = small_config(trials=5, steps=1)
    result = run_paired_trials(cfg)
    out = tmp_path / "single"
    emit_csv(result.stats, result.curves, out)
    table = (tmp_path / "single.table1.csv").read_text()
    lines = table.splitlines()
    assert len(lines) == 2
    assert lines[0] == ("step,mse_unfiltered,mse_filtered,bias2_unfiltered,"
                        "bias2_filtered,var_unfiltered,var_filtered")
    curves = (tmp_path / "single.curves.csv").read_text()
    assert len(curves.splitlines()) == 3  # header + one row per method


def test_csv_step_one_mse_columns_equal(tmp_path):
    cfg = small_config(trials=8, steps=2)
    result = run_paired_trials(cfg)
    emit_csv(result.stats, result.curves, tmp_path / "eq")
    row = (tmp_path / "eq.table1.csv").read_text().splitlines()[1].split(",")
    assert row[0] == "1"
    assert row[1] == row[2]  # shortest-round-trip reprs of equal floats


def test_csv_rho_columns_empty_for_unfiltered(tmp_path):
    cfg = small_config(trials=5, steps=3)
    result = run_paired_trials(cfg)
    emit_csv(result.stats, result.curves, tmp_path / "rho")
    lines = (tmp_path / "rho.curves.csv").read_text().splitlines()[1:]
    unfiltered_rows = [l for l in lines if l.split(",")[1] == "unfiltered"]
    filtered_rows = [l for l in lines if l.split(",")[1] == "filtered"]
    assert all(l.split(",")[8] == "" and l.split(",")[9] == "" for l in unfiltered_rows)
    # Step 1 has no momentum matrix; later steps do.
    assert filtered_rows[0].split(",")[8] == ""
    assert filtered_rows[1].split(",")[8] != ""


def test_csv_does_not_depend_on_the_recorded_decisions(tmp_path, monkeypatch):
    # sigma_lam_max, armijo_satisfied and ridge_eps are diagnostics:
    # emptying them leaves the CSVs byte for byte as they were. At batch
    # size 2 the ridge fires on some steps.
    cfg = small_config(trials=20, steps=5, batch_size=2, n=20)
    result = run_paired_trials(cfg)
    assert (result.unfiltered.ridge_eps > 0).any()
    emit_csv(result.stats, result.curves, tmp_path / "with")
    engine = experiment.run_trials

    def run_trials(obj, theta0, batches, ocfg):
        trace = engine(obj, theta0, batches, ocfg)
        return dataclasses.replace(trace, armijo_satisfied=~trace.armijo_satisfied,
                                   sigma_lam_max=np.full_like(trace.sigma_lam_max, np.nan),
                                   ridge_eps=np.full_like(trace.ridge_eps, np.nan))

    monkeypatch.setattr(experiment, "run_trials", run_trials)
    result = run_paired_trials(cfg)
    assert np.isnan(result.filtered.sigma_lam_max).all()
    assert np.isnan(result.filtered.ridge_eps).all()
    emit_csv(result.stats, result.curves, tmp_path / "without")
    for suffix in ("table1", "curves"):
        assert ((tmp_path / f"with.{suffix}.csv").read_bytes()
                == (tmp_path / f"without.{suffix}.csv").read_bytes())


def test_csv_reruns_are_byte_identical(tmp_path):
    cfg = small_config(trials=10, steps=4)
    first = run_paired_trials(cfg)
    emit_csv(first.stats, first.curves, tmp_path / "a")
    second = run_paired_trials(cfg)
    emit_csv(second.stats, second.curves, tmp_path / "b")
    threaded = run_paired_trials(cfg, workers=4)
    emit_csv(threaded.stats, threaded.curves, tmp_path / "c")
    for name in ("table1", "curves"):
        a = (tmp_path / f"a.{name}.csv").read_bytes()
        b = (tmp_path / f"b.{name}.csv").read_bytes()
        c = (tmp_path / f"c.{name}.csv").read_bytes()
        assert a == b == c


def test_csv_uses_lf_newlines(tmp_path):
    cfg = small_config(trials=4, steps=2)
    result = run_paired_trials(cfg)
    emit_csv(result.stats, result.curves, tmp_path / "lf")
    raw = (tmp_path / "lf.table1.csv").read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_csv_floats_round_trip(tmp_path):
    cfg = small_config(trials=6, steps=2)
    result = run_paired_trials(cfg)
    emit_csv(result.stats, result.curves, tmp_path / "rt")
    row = (tmp_path / "rt.table1.csv").read_text().splitlines()[2].split(",")
    assert float(row[1]) == result.stats.mse_unfiltered[1]
    assert float(row[4]) == result.stats.bias2_filtered[1]


# ---------------------------------------------------------------------------
# stats container
# ---------------------------------------------------------------------------

def test_angular_error_stats_from_errors():
    errs_u = np.array([[0.1, 0.2], [-0.1, 0.4]])
    errs_f = np.array([[0.1, 0.0], [-0.1, 0.2]])
    stats = AngularErrorStats.from_errors(errs_u, errs_f)
    assert stats.mse_unfiltered[0] == pytest.approx(0.01)
    assert stats.bias2_unfiltered[0] == pytest.approx(0.0)
    assert stats.var_unfiltered[0] == pytest.approx(0.01)
    assert stats.mse_filtered[1] == pytest.approx(0.02)
    assert stats.bias2_filtered[1] == pytest.approx(0.01)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(theta0=np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        ExperimentConfig(alpha=1.2)
