"""Paired-trial benchmark on synthetic linear regression.

Generates one regression dataset per master seed, computes the exact
least-squares optimum, and runs many paired trials in which the
filtered and unfiltered methods start from the same point and consume
the same batch indices. Reports per-step angular-error statistics
(mean square error split into squared bias and variance), aggregate
convergence curves, and a monitor for the momentum spectral norm, all
emitted as CSV.

The angular error of a step direction is measured against the line
from the current iterate to the exact optimum, which for this quadratic
objective is the full-objective Newton direction. Following the paired
design, the unfiltered comparison direction is the plain batch Newton
direction at the filtered iterate on the same batch, which each filtered
step records, so the two methods are compared on the same footing; the
unfiltered method's own trajectory is still what feeds its convergence
curves.

All trials of a seed run in lockstep: each trial's batches are drawn up
front, once, and both methods run the whole stack of trials on them
through ``optim.run_trials``, so every layer of a step is one numpy
call over all trials. The steps come back as arrays, and the statistics
are formed from those arrays in trial order.
"""

import math
import operator
from dataclasses import dataclass, fields
from typing import List, Optional, Tuple

import numpy as np

from .filtering import FilterConfig
from .linalg import PositiveDefiniteError, solve_spd, sym
from .objectives import LeastSquaresData, LeastSquaresObjective
from .optim import OptimizerConfig, StackedTrace, run_trials
from .streams import DATA_STREAM, batch_indices, derive_stream

__all__ = [
    "ExperimentConfig",
    "AngularErrorStats",
    "MethodCurves",
    "AggregateCurves",
    "ExperimentResult",
    "TooManyFailuresError",
    "generate_data",
    "exact_mle",
    "UndefinedAngleError",
    "angular_errors",
    "signed_angular_error",
    "run_paired_trials",
    "RHO_MONITOR_THRESHOLD",
    "RHO_MONITOR_MIN_STEP",
    "RhoMonitorSummary",
    "rho_monitor_summary",
    "emit_csv",
]


def default_covariate_cov(d):
    """Unit-variance covariates with 0.1 pairwise correlation."""
    cov = np.full((d, d), 0.1)
    np.fill_diagonal(cov, 1.0)
    return cov


def default_theta0(d):
    """Documented default start: entries alternate 4.0, -2.0.

    Sits roughly 4.4 away from the optimum of the default problem, which
    reproduces the reference angular-error magnitudes; closer starts
    inflate the early angular noise.
    """
    theta0 = np.empty(d)
    theta0[0::2] = 4.0
    theta0[1::2] = -2.0
    return theta0


@dataclass
class ExperimentConfig:
    """Benchmark parameters; the defaults are the reference setup.

    ``generate_data`` fixes the data recipe but for ``theta_true``
    (None: all ones); ``theta0`` of None is ``default_theta0``. The line
    search keeps OptimizerConfig's defaults.
    """

    n: int = 100
    d: int = 2
    batch_size: int = 5
    steps: int = 30
    trials: int = 1000
    alpha: float = 0.9
    beta: float = 0.2
    master_seed: int = 0
    theta_true: Optional[np.ndarray] = None
    theta0: Optional[np.ndarray] = None

    def __post_init__(self):
        if operator.index(self.master_seed) < 0:
            raise ValueError("master_seed must be a non-negative integer")
        if min(self.n, self.d, self.batch_size, self.steps, self.trials) < 1:
            raise ValueError("n, d, batch_size, steps, and trials must all be >= 1")
        if self.theta_true is None:
            self.theta_true = np.ones(self.d)
        self.theta_true = np.asarray(self.theta_true, dtype=float).ravel()
        if self.theta0 is None:
            self.theta0 = default_theta0(self.d)
        self.theta0 = np.asarray(self.theta0, dtype=float).ravel()
        for name, vec in (("theta_true", self.theta_true), ("theta0", self.theta0)):
            if vec.shape != (self.d,):
                raise ValueError(f"{name} must have length d={self.d}")
            if not np.isfinite(vec).all():
                raise ValueError(f"{name} contains non-finite entries")
        # Validates alpha/beta ranges as a side effect.
        FilterConfig(alpha=self.alpha, beta=self.beta, dim=self.d)

    def filter_config(self):
        return FilterConfig(alpha=self.alpha, beta=self.beta, dim=self.d)

    def optimizer_config(self, filtered):
        return OptimizerConfig(
            batch_size=self.batch_size,
            max_steps=self.steps,
            filter=self.filter_config() if filtered else None,
        )


def generate_data(cfg, rng):
    """Synthetic regression data: y = theta_true.x + N(1, 1).

    x ~ N(0, C) with C the unit-variance, 0.1-correlation matrix of
    ``default_covariate_cov``.
    """
    chol = np.linalg.cholesky(default_covariate_cov(cfg.d))
    xs = rng.standard_normal((cfg.n, cfg.d)) @ chol.T
    return LeastSquaresData(xs=xs, ys=xs @ cfg.theta_true + (1.0 + rng.standard_normal(cfg.n)))


def exact_mle(data):
    """Exact least-squares optimum via the normal equations."""
    gram = sym(data.xs.T @ data.xs)
    try:
        return solve_spd(gram, data.xs.T @ data.ys)
    except PositiveDefiniteError as err:
        raise ValueError("Gram matrix is singular; cannot compute the exact optimum") from err


class UndefinedAngleError(ValueError):
    """An angular error was asked for with an exactly zero vector."""


_UNDEFINED_ANGLE = "angular error is undefined for a zero vector"


def angular_errors(directions, theta_current, theta_star):
    """``signed_angular_error`` for stacks of directions and iterates (..., d).

    Returns ``(angles, defined)``; ``defined`` is False where either
    vector is exactly zero, and the angle there is not meaningful. The
    stacks may hold the leftovers of failed trials, so no overflow or
    invalid value warns.
    """
    directions = np.asarray(directions, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        optimal = np.asarray(theta_star, dtype=float) - np.asarray(theta_current, dtype=float)
        norm_d = np.sqrt(np.vecdot(directions, directions))
        norm_o = np.sqrt(np.vecdot(optimal, optimal))
        defined = (norm_d != 0.0) & (norm_o != 0.0)
        if directions.shape[-1] == 2:
            cross = optimal[..., 0] * directions[..., 1] - optimal[..., 1] * directions[..., 0]
            return np.arctan2(cross, np.vecdot(optimal, directions)), defined
        cos = np.vecdot(optimal, directions) / (norm_d * norm_o)
        return np.arccos(np.clip(cos, -1.0, 1.0)), defined


def signed_angular_error(direction, theta_current, theta_star):
    """Plane angle from the optimal direction (theta_star - theta_current) to ``direction``.

    Signed (counterclockwise positive) in two dimensions, in (-pi, pi];
    unsigned via the cosine otherwise. Raises UndefinedAngleError (a
    ValueError) when either vector is exactly zero.
    """
    angles, defined = angular_errors(np.asarray(direction, dtype=float)[None],
                                     np.asarray(theta_current, dtype=float)[None], theta_star)
    if not defined[0]:
        raise UndefinedAngleError(_UNDEFINED_ANGLE)
    return float(angles[0])


@dataclass(frozen=True)
class AngularErrorStats:
    """Per-step angular-error statistics over trials, by method.

    mse = bias_squared + variance holds per step up to rounding.
    """

    mse_unfiltered: np.ndarray
    mse_filtered: np.ndarray
    bias2_unfiltered: np.ndarray
    bias2_filtered: np.ndarray
    var_unfiltered: np.ndarray
    var_filtered: np.ndarray

    @property
    def steps(self):
        return self.mse_unfiltered.shape[0]

    @classmethod
    def from_errors(cls, errors_unfiltered, errors_filtered):
        """Aggregate (trials, steps) angular-error matrices."""

        def three(errs):
            mse = np.mean(errs * errs, axis=0)
            bias = np.mean(errs, axis=0)
            var = np.mean((errs - bias) ** 2, axis=0)
            return mse, bias * bias, var

        mse_u, bias2_u, var_u = three(np.asarray(errors_unfiltered, dtype=float))
        mse_f, bias2_f, var_f = three(np.asarray(errors_filtered, dtype=float))
        return cls(
            mse_unfiltered=mse_u,
            mse_filtered=mse_f,
            bias2_unfiltered=bias2_u,
            bias2_filtered=bias2_f,
            var_unfiltered=var_u,
            var_filtered=var_f,
        )


@dataclass(frozen=True)
class MethodCurves:
    """Per-step mean/sd curves for one method; the rho curves are nan at
    steps without a momentum matrix, every step of the unfiltered method."""

    mean_dist: np.ndarray
    sd_dist: np.ndarray
    mean_obj: np.ndarray
    sd_obj: np.ndarray
    mean_displacement: np.ndarray
    sd_displacement: np.ndarray
    mean_rho: np.ndarray
    max_rho: np.ndarray


@dataclass(frozen=True)
class AggregateCurves:
    unfiltered: MethodCurves
    filtered: MethodCurves

    @property
    def steps(self):
        return self.unfiltered.mean_dist.shape[0]


class TooManyFailuresError(RuntimeError):
    """More than 1% of a benchmark's trials failed numerically."""


@dataclass(frozen=True)
class ExperimentResult:
    """Outcome of a paired benchmark.

    ``trials`` (K,) holds the indices of the trials kept, ascending, and
    ``batches`` (K, steps, batch_size) their batches as drawn, which
    both methods consumed. ``unfiltered`` and ``filtered`` hold the
    steps of the kept trials under either method, in the same order.
    """

    config: ExperimentConfig
    stats: AngularErrorStats
    curves: AggregateCurves
    trials: np.ndarray
    batches: np.ndarray
    unfiltered: StackedTrace
    filtered: StackedTrace
    failures: List[Tuple[int, str]]
    theta_star: np.ndarray
    data: LeastSquaresData


def _draw_batches(cfg):
    """Every trial's batches, (trials, steps, batch_size), each from its own stream.

    Trial k's batches are the ``steps * batch_size`` indices of
    ``sample_batch(derive_stream(master_seed, BATCH_STREAM, k), n, size)``,
    the same as one draw per step. ``streams.batch_indices`` draws them
    for all trials in one vectorized pass (SeedSequence keys, numpy's
    Philox 4x64 words and numpy's 32-bit Lemire draw), bit for bit.
    """
    size = cfg.steps * cfg.batch_size
    return batch_indices(cfg.master_seed, cfg.trials, cfg.n, size).reshape(
        cfg.trials, cfg.steps, cfg.batch_size)


def _trajectory_curves(trace, theta_star, gram, f_star):
    """Per-trial distance to the optimum, objective and displacement after each step.

    The objective is f* + 1/2 delta^T G delta, with delta = theta - theta*,
    G = X^T X / n and f* the objective at theta*.
    """
    after = trace.thetas[:, 1:]
    delta = after - theta_star
    dist = np.linalg.norm(delta, axis=-1)
    disp = np.linalg.norm(after - trace.thetas[:, :-1], axis=-1)
    objv = f_star + 0.5 * np.vecdot(delta @ gram, delta)
    return dist, objv, disp


def _failure_message(trial, traces):
    """Why a trial was dropped: the first method's error that stopped it, with its step."""
    for trace in traces:
        if trace.failed_step[trial]:
            err = trace.errors[trial]
            return f"{type(err).__name__} at step {trace.failed_step[trial]}: {err}"
    return f"{UndefinedAngleError.__name__}: {_UNDEFINED_ANGLE}"


def _mean_sd(mat):
    return mat.mean(axis=0), mat.std(axis=0)


def run_paired_trials(cfg, workers=1):
    """Run the full paired benchmark described by ``cfg``.

    Every trial's batches are drawn up front from a stream derived from
    (master_seed, trial index), and each method runs all trials in
    lockstep on them (``optim.run_trials``), split into ``workers``
    contiguous stacks of trials that run one after another. A trial's
    numbers depend only on its own stream, so the result is a pure
    function of the configuration at any stack count. Trials that fail
    numerically, or whose angular error is undefined at some step, are
    excluded and counted; more than 1% failures aborts the experiment
    with TooManyFailuresError.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    data = generate_data(cfg, derive_stream(cfg.master_seed, DATA_STREAM))
    theta_star = exact_mle(data)
    gram = data.xs.T @ data.xs / data.n
    f_star = 0.5 * np.mean(np.square(data.xs @ theta_star - data.ys))
    obj = LeastSquaresObjective(data)
    batches = _draw_batches(cfg)
    stacks = [part for part in np.array_split(batches, workers) if len(part)]
    unfiltered, filtered = (
        StackedTrace.concatenate([run_trials(obj, cfg.theta0, part, cfg.optimizer_config(method))
                                  for part in stacks])
        for method in (False, True)
    )

    # Following the paired design, both angles are taken at the filtered
    # iterate: the unfiltered one of the batch Newton direction there.
    befores = filtered.thetas[:, :-1]
    ang_f, defined_f = angular_errors(filtered.directions, befores, theta_star)
    ang_u, defined_u = angular_errors(filtered.newton_directions, befores, theta_star)
    failed = ((filtered.failed_step > 0) | (unfiltered.failed_step > 0)
              | ~(defined_f & defined_u).all(axis=1))
    failures = [(int(trial), _failure_message(trial, (filtered, unfiltered)))
                for trial in np.flatnonzero(failed)]
    if len(failures) > 0.01 * cfg.trials:
        raise TooManyFailuresError(
            f"{len(failures)} of {cfg.trials} trials failed numerically: "
            f"{failures[:3]}..."
        )

    keep = ~failed
    if failures:
        unfiltered, filtered = unfiltered.select(keep), filtered.select(keep)
        ang_u, ang_f, batches = ang_u[keep], ang_f[keep], batches[keep]
    stats = AngularErrorStats.from_errors(ang_u, ang_f)

    def method_curves(trace):
        dist, objv, disp = _trajectory_curves(trace, theta_star, gram, f_star)
        mean_dist, sd_dist = _mean_sd(dist)
        mean_obj, sd_obj = _mean_sd(objv)
        mean_disp, sd_disp = _mean_sd(disp)
        rho = trace.rho
        mean_rho = np.full(cfg.steps, np.nan)
        max_rho = np.full(cfg.steps, np.nan)
        defined = ~np.isnan(rho[0])
        if defined.any():
            mean_rho[defined] = rho[:, defined].mean(axis=0)
            max_rho[defined] = rho[:, defined].max(axis=0)
        return MethodCurves(
            mean_dist=mean_dist,
            sd_dist=sd_dist,
            mean_obj=mean_obj,
            sd_obj=sd_obj,
            mean_displacement=mean_disp,
            sd_displacement=sd_disp,
            mean_rho=mean_rho,
            max_rho=max_rho,
        )

    curves = AggregateCurves(unfiltered=method_curves(unfiltered), filtered=method_curves(filtered))
    return ExperimentResult(
        config=cfg,
        stats=stats,
        curves=curves,
        trials=np.flatnonzero(keep),
        batches=batches,
        unfiltered=unfiltered,
        filtered=filtered,
        failures=failures,
        theta_star=theta_star,
        data=data,
    )


RHO_MONITOR_THRESHOLD = 0.8
RHO_MONITOR_MIN_STEP = 5


@dataclass(frozen=True)
class RhoMonitorSummary:
    """Per-step maxima of the momentum spectral norm over traces."""

    step_max: np.ndarray
    violations: List[int]


def rho_monitor_summary(traces):
    """Max rho(M_t) per step over filtered runs, flagging late violations.

    ``traces`` is the (trials, steps) array of the runs' rho_m values,
    with nan where there is none, as in ``StackedTrace.rho``. A step
    t > RHO_MONITOR_MIN_STEP is flagged when its maximum reaches
    RHO_MONITOR_THRESHOLD. Steps with no momentum matrix (the first
    step) hold nan and are never flagged.
    """
    step_max = np.fmax.reduce(traces, axis=0, initial=np.nan)
    steps = step_max.shape[0]
    violations = [
        t for t in range(RHO_MONITOR_MIN_STEP + 1, steps + 1)
        if not np.isnan(step_max[t - 1]) and step_max[t - 1] >= RHO_MONITOR_THRESHOLD
    ]
    return RhoMonitorSummary(step_max=step_max, violations=violations)


def _fmt(x):
    x = float(x)
    if math.isnan(x):
        return ""
    return repr(x)


def emit_csv(stats, curves, path):
    """Write ``<path>.table1.csv`` and ``<path>.curves.csv``.

    After ``step`` (and ``method``) the columns are the fields of
    AngularErrorStats and MethodCurves, in order. Floats are written as
    their shortest round-trip decimal; lines end with LF. Rho columns
    are empty for the unfiltered method and for steps where no momentum
    matrix exists.
    """
    table = [f.name for f in fields(AngularErrorStats)]
    table_lines = [",".join(["step"] + table)]
    values = [getattr(stats, name) for name in table]
    for i in range(stats.steps):
        table_lines.append(",".join([str(i + 1)] + [_fmt(value[i]) for value in values]))

    columns = [f.name for f in fields(MethodCurves)]
    curve_lines = [",".join(["step", "method"] + columns)]
    for method in ("unfiltered", "filtered"):
        mc = getattr(curves, method)
        values = [getattr(mc, name) for name in columns]
        for i in range(curves.steps):
            curve_lines.append(",".join([str(i + 1), method] + [_fmt(value[i]) for value in values]))

    with open(f"{path}.table1.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(table_lines) + "\n")
    with open(f"{path}.curves.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(curve_lines) + "\n")
