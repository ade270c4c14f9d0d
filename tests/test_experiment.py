import numpy as np
import pytest
from numpy.testing import assert_allclose

import stochnewton.experiment as experiment
from stochnewton.experiment import (
    AngularErrorStats,
    ExperimentConfig,
    UndefinedAngleError,
    emit_csv,
    exact_mle,
    generate_data,
    rho_monitor_summary,
    run_paired_trials,
    signed_angular_error,
)
from stochnewton.objectives import LeastSquaresData, LeastSquaresObjective, evaluate_batch
from stochnewton.optim import StepError, StepRecord, TrialTrace, run
from stochnewton.streams import BATCH_STREAM, DATA_STREAM, derive_stream


def small_config(**kwargs):
    defaults = dict(trials=25, steps=6, master_seed=123)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------------
# data generation
# ---------------------------------------------------------------------------

def test_zero_noise_zero_theta_gives_constant_response():
    cfg = ExperimentConfig(n=50, noise_var=0.0, theta_true=np.zeros(2))
    data = generate_data(cfg, derive_stream(0, DATA_STREAM))
    assert_allclose(data.ys, np.ones(50))


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

    got = result.traces[0]
    for mine, theirs in ((filtered, got.filtered), (unfiltered, got.unfiltered)):
        assert len(mine.records) == len(theirs.records)
        for a, b in zip(mine.records, theirs.records):
            assert np.array_equal(a.theta_after, b.theta_after)
            assert np.array_equal(a.batch, b.batch)
            assert a.step_length == b.step_length


def test_step_one_mse_identical():
    result = run_paired_trials(small_config())
    assert result.stats.mse_unfiltered[0] == result.stats.mse_filtered[0]


def test_mse_decomposition():
    result = run_paired_trials(small_config())
    s = result.stats
    assert np.all(np.abs(s.mse_unfiltered - (s.bias2_unfiltered + s.var_unfiltered)) <= 1e-10)
    assert np.all(np.abs(s.mse_filtered - (s.bias2_filtered + s.var_filtered)) <= 1e-10)


def test_paired_index_logs_agree():
    result = run_paired_trials(small_config(trials=10))
    for paired in result.traces:
        for fr, ur in zip(paired.filtered.records, paired.unfiltered.records):
            assert np.array_equal(fr.batch, ur.batch)


def test_worker_threads_do_not_change_results():
    cfg = small_config(trials=16)
    serial = run_paired_trials(cfg, workers=1)
    threaded = run_paired_trials(cfg, workers=4)
    assert np.array_equal(serial.stats.mse_filtered, threaded.stats.mse_filtered)
    assert np.array_equal(serial.curves.unfiltered.mean_dist,
                          threaded.curves.unfiltered.mean_dist)
    assert np.array_equal(serial.curves.filtered.max_rho, threaded.curves.filtered.max_rho,
                          equal_nan=True)


def test_failed_trials_are_excluded_and_counted(monkeypatch):
    original = experiment._run_one_trial

    def flaky(obj, theta_star, cfg, trial):
        if trial == 3:
            raise StepError(1, TrialTrace())
        return original(obj, theta_star, cfg, trial)

    monkeypatch.setattr(experiment, "_run_one_trial", flaky)
    result = run_paired_trials(small_config(trials=200, steps=3))
    assert len(result.failures) == 1
    assert result.failures[0][0] == 3
    assert len(result.traces) == 199


def test_too_many_failures_abort(monkeypatch):
    def always_fail(obj, theta_star, cfg, trial):
        raise StepError(1, TrialTrace())

    monkeypatch.setattr(experiment, "_run_one_trial", always_fail)
    with pytest.raises(RuntimeError):
        run_paired_trials(small_config(trials=10, steps=2))


def test_undefined_angle_counts_as_a_failed_trial(monkeypatch):
    original = experiment._run_one_trial

    def degenerate(obj, theta_star, cfg, trial):
        if trial == 5:
            raise UndefinedAngleError("angular error is undefined for a zero vector")
        return original(obj, theta_star, cfg, trial)

    monkeypatch.setattr(experiment, "_run_one_trial", degenerate)
    result = run_paired_trials(small_config(trials=200, steps=2))
    assert [trial for trial, _ in result.failures] == [5]


def test_programming_errors_in_a_trial_propagate(monkeypatch):
    # A plain ValueError is a bug, not a numerical failure of the trial.
    def broken(obj, theta_star, cfg, trial):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(experiment, "_run_one_trial", broken)
    with pytest.raises(ValueError, match="could not be broadcast"):
        run_paired_trials(small_config(trials=10, steps=2))


def test_curve_lengths_match_steps():
    cfg = small_config()
    result = run_paired_trials(cfg)
    assert result.curves.steps == cfg.steps
    assert result.stats.steps == cfg.steps
    assert result.curves.filtered.mean_rho is not None
    assert np.isnan(result.curves.filtered.mean_rho[0])  # no momentum at step 1
    assert result.curves.unfiltered.mean_rho is None


# ---------------------------------------------------------------------------
# rho monitor
# ---------------------------------------------------------------------------

def _fake_trace(rhos):
    records = []
    for i, rho in enumerate(rhos, start=1):
        records.append(StepRecord(
            t=i, theta_before=np.zeros(2), theta_after=np.zeros(2),
            direction=np.zeros(2), step_length=1.0, batch=np.zeros(1, dtype=int),
            rho_m=rho, fallback_fired=False,
        ))
    return TrialTrace(records=records)


def test_rho_monitor_empty():
    summary = rho_monitor_summary([])
    assert summary.step_max.size == 0
    assert summary.violations == []


def test_rho_monitor_maxima_and_violations():
    traces = [
        _fake_trace([None, 0.5, 0.7, 0.85, 0.3, 0.9, 0.4]),
        _fake_trace([None, 0.6, 0.2, 0.10, 0.2, 0.1, 0.81]),
    ]
    summary = rho_monitor_summary(traces, threshold=0.8, min_step=5)
    assert np.isnan(summary.step_max[0])
    assert summary.step_max[1] == 0.6
    assert summary.step_max[3] == 0.85  # step 4: below min_step, not flagged
    assert summary.violations == [6, 7]


def test_rho_monitor_stationary_trace():
    summary = rho_monitor_summary([_fake_trace([None] + [0.9] * 5)], threshold=0.8)
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
    with pytest.raises(ValueError):
        ExperimentConfig(noise_var=-1.0)
