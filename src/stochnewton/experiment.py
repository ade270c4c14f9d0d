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
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .filtering import FilterConfig
from .linalg import PositiveDefiniteError, solve_spd, sym
from .objectives import LeastSquaresData, LeastSquaresObjective
from .optim import OptimizerConfig, StepError, TrialTrace, run
from .streams import BATCH_STREAM, DATA_STREAM, derive_stream, stream_key

__all__ = [
    "ExperimentConfig",
    "AngularErrorStats",
    "MethodCurves",
    "AggregateCurves",
    "PairedTrace",
    "ExperimentResult",
    "generate_data",
    "exact_mle",
    "UndefinedAngleError",
    "signed_angular_error",
    "run_paired_trials",
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
    """Benchmark parameters; the defaults are the reference setup."""

    n: int = 100
    d: int = 2
    batch_size: int = 5
    steps: int = 30
    trials: int = 1000
    alpha: float = 0.9
    beta: float = 0.2
    covariate_cov: Optional[np.ndarray] = None
    noise_mean: float = 1.0
    noise_var: float = 1.0
    master_seed: int = 0
    theta_true: Optional[np.ndarray] = None
    theta0: Optional[np.ndarray] = None
    armijo_c: float = 0.95
    armijo_max_halvings: int = 4

    def __post_init__(self):
        if min(self.n, self.d, self.batch_size, self.steps, self.trials) < 1:
            raise ValueError("n, d, batch_size, steps, and trials must all be >= 1")
        if self.noise_var < 0.0:
            raise ValueError("noise_var must be nonnegative")
        if self.covariate_cov is None:
            self.covariate_cov = default_covariate_cov(self.d)
        self.covariate_cov = sym(np.asarray(self.covariate_cov, dtype=float))
        if self.covariate_cov.shape != (self.d, self.d):
            raise ValueError("covariate_cov must be d x d")
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
            armijo_c=self.armijo_c,
            armijo_max_halvings=self.armijo_max_halvings,
        )


def generate_data(cfg, rng):
    """Synthetic regression data: x ~ N(0, cov), y = theta_true.x + N(mean, var)."""
    chol = np.linalg.cholesky(cfg.covariate_cov)
    xs = rng.standard_normal((cfg.n, cfg.d)) @ chol.T
    noise = cfg.noise_mean + math.sqrt(cfg.noise_var) * rng.standard_normal(cfg.n)
    return LeastSquaresData(xs=xs, ys=xs @ cfg.theta_true + noise)


def exact_mle(data):
    """Exact least-squares optimum via the normal equations."""
    gram = sym(data.xs.T @ data.xs)
    try:
        return solve_spd(gram, data.xs.T @ data.ys)
    except PositiveDefiniteError as err:
        raise ValueError("Gram matrix is singular; cannot compute the exact optimum") from err


class UndefinedAngleError(ValueError):
    """An angular error was asked for with an exactly zero vector."""


def signed_angular_error(direction, theta_current, theta_star):
    """Plane angle from the optimal direction (theta_star - theta_current) to ``direction``.

    Signed (counterclockwise positive) in two dimensions, in (-pi, pi];
    unsigned via the cosine otherwise. Raises UndefinedAngleError (a
    ValueError) when either vector is exactly zero.
    """
    direction = np.asarray(direction, dtype=float)
    optimal = np.asarray(theta_star, dtype=float) - np.asarray(theta_current, dtype=float)
    norm_d = math.sqrt(direction.dot(direction))
    norm_o = math.sqrt(optimal.dot(optimal))
    if norm_d == 0.0 or norm_o == 0.0:
        raise UndefinedAngleError("angular error is undefined for a zero vector")
    if direction.shape[0] == 2:
        cross = optimal[0] * direction[1] - optimal[1] * direction[0]
        return float(np.arctan2(cross, np.dot(optimal, direction)))
    cos = np.dot(optimal, direction) / (norm_d * norm_o)
    return float(np.arccos(np.clip(cos, -1.0, 1.0)))


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
    """Per-step mean/sd curves for one method; rho fields are filtered-only."""

    mean_dist: np.ndarray
    sd_dist: np.ndarray
    mean_obj: np.ndarray
    sd_obj: np.ndarray
    mean_displacement: np.ndarray
    sd_displacement: np.ndarray
    mean_rho: Optional[np.ndarray] = None
    max_rho: Optional[np.ndarray] = None


@dataclass(frozen=True)
class AggregateCurves:
    unfiltered: MethodCurves
    filtered: MethodCurves

    @property
    def steps(self):
        return self.unfiltered.mean_dist.shape[0]


@dataclass(frozen=True)
class PairedTrace:
    trial: int
    unfiltered: TrialTrace
    filtered: TrialTrace


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    stats: AngularErrorStats
    curves: AggregateCurves
    traces: List[PairedTrace]
    failures: List[Tuple[int, str]]
    theta_star: np.ndarray
    data: LeastSquaresData


@dataclass(frozen=True)
class _TrialOutcome:
    paired: PairedTrace
    ang_unfiltered: np.ndarray
    ang_filtered: np.ndarray
    dist: np.ndarray          # (2, steps): row 0 unfiltered, row 1 filtered
    obj: np.ndarray
    disp: np.ndarray
    rho: np.ndarray           # (steps,), nan where undefined


def _trace_curves(trace, theta_star, obj):
    thetas = np.array([rec.theta_after for rec in trace.records])
    befores = np.array([rec.theta_before for rec in trace.records])
    dist = np.linalg.norm(thetas - theta_star, axis=1)
    disp = np.linalg.norm(thetas - befores, axis=1)
    residuals = thetas @ obj.data.xs.T - obj.data.ys
    objv = 0.5 * np.mean(residuals * residuals, axis=1)
    return dist, objv, disp


def _run_one_trial(obj, theta_star, cfg, trial):
    info = stream_key(cfg.master_seed, BATCH_STREAM, trial)
    rng_filtered = derive_stream(cfg.master_seed, BATCH_STREAM, trial)
    rng_unfiltered = derive_stream(cfg.master_seed, BATCH_STREAM, trial)
    filtered = run(obj, cfg.theta0, cfg.optimizer_config(filtered=True),
                   rng_filtered, seed_info=info)
    unfiltered = run(obj, cfg.theta0, cfg.optimizer_config(filtered=False),
                     rng_unfiltered, seed_info=info)

    steps = cfg.steps
    ang_f = np.empty(steps)
    ang_u = np.empty(steps)
    rho = np.full(steps, np.nan)
    for i, rec in enumerate(filtered.records):
        ang_f[i] = signed_angular_error(rec.direction, rec.theta_before, theta_star)
        ang_u[i] = signed_angular_error(rec.newton_direction, rec.theta_before, theta_star)
        if rec.rho_m is not None:
            rho[i] = rec.rho_m

    dist_u, obj_u, disp_u = _trace_curves(unfiltered, theta_star, obj)
    dist_f, obj_f, disp_f = _trace_curves(filtered, theta_star, obj)
    return _TrialOutcome(
        paired=PairedTrace(trial=trial, unfiltered=unfiltered, filtered=filtered),
        ang_unfiltered=ang_u,
        ang_filtered=ang_f,
        dist=np.stack([dist_u, dist_f]),
        obj=np.stack([obj_u, obj_f]),
        disp=np.stack([disp_u, disp_f]),
        rho=rho,
    )


def _mean_sd(mat):
    return mat.mean(axis=0), mat.std(axis=0)


def run_paired_trials(cfg, workers=1):
    """Run the full paired benchmark described by ``cfg``.

    Trials may be executed by a pool of worker threads; every trial owns
    streams derived from (master_seed, trial index), and aggregation
    folds outcomes in trial order, so the result is a pure function of
    the configuration at any worker count. Trials that fail numerically
    are excluded and counted; more than 1% failures aborts the
    experiment.
    """
    data = generate_data(cfg, derive_stream(cfg.master_seed, DATA_STREAM))
    theta_star = exact_mle(data)
    obj = LeastSquaresObjective(data)

    def attempt(trial):
        try:
            return trial, _run_one_trial(obj, theta_star, cfg, trial), None
        except (StepError, UndefinedAngleError) as err:
            return trial, None, f"{type(err).__name__}: {err}"

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            attempts = list(pool.map(attempt, range(cfg.trials)))
    else:
        attempts = [attempt(trial) for trial in range(cfg.trials)]

    outcomes = []
    failures = []
    for trial, outcome, message in attempts:
        if outcome is None:
            failures.append((trial, message))
        else:
            outcomes.append(outcome)
    if len(failures) > 0.01 * cfg.trials:
        raise RuntimeError(
            f"{len(failures)} of {cfg.trials} trials failed numerically: "
            f"{failures[:3]}..."
        )

    stats = AngularErrorStats.from_errors(
        np.stack([o.ang_unfiltered for o in outcomes]),
        np.stack([o.ang_filtered for o in outcomes]),
    )

    dist = np.stack([o.dist for o in outcomes])     # (T, 2, steps)
    objv = np.stack([o.obj for o in outcomes])
    disp = np.stack([o.disp for o in outcomes])
    rho = np.stack([o.rho for o in outcomes])       # (T, steps)

    mean_rho = np.full(cfg.steps, np.nan)
    max_rho = np.full(cfg.steps, np.nan)
    defined = ~np.isnan(rho[0])
    if defined.any():
        mean_rho[defined] = rho[:, defined].mean(axis=0)
        max_rho[defined] = rho[:, defined].max(axis=0)

    def method_curves(k, with_rho):
        mean_dist, sd_dist = _mean_sd(dist[:, k])
        mean_obj, sd_obj = _mean_sd(objv[:, k])
        mean_disp, sd_disp = _mean_sd(disp[:, k])
        return MethodCurves(
            mean_dist=mean_dist,
            sd_dist=sd_dist,
            mean_obj=mean_obj,
            sd_obj=sd_obj,
            mean_displacement=mean_disp,
            sd_displacement=sd_disp,
            mean_rho=mean_rho if with_rho else None,
            max_rho=max_rho if with_rho else None,
        )

    curves = AggregateCurves(
        unfiltered=method_curves(0, with_rho=False),
        filtered=method_curves(1, with_rho=True),
    )
    return ExperimentResult(
        config=cfg,
        stats=stats,
        curves=curves,
        traces=[o.paired for o in outcomes],
        failures=failures,
        theta_star=theta_star,
        data=data,
    )


@dataclass(frozen=True)
class RhoMonitorSummary:
    """Per-step maxima of the momentum spectral norm over traces."""

    step_max: np.ndarray
    threshold: float
    min_step: int
    violations: List[int]


def rho_monitor_summary(traces, threshold=0.8, min_step=5):
    """Max rho(M_t) per step over filtered traces, flagging late violations.

    A step t > min_step is flagged when its maximum reaches the
    threshold. Steps with no momentum matrix (the first step) hold nan
    and are never flagged.
    """
    traces = list(traces)
    if not traces:
        return RhoMonitorSummary(
            step_max=np.empty(0), threshold=threshold, min_step=min_step, violations=[]
        )
    steps = max(len(tr.records) for tr in traces)
    step_max = np.full(steps, np.nan)
    for tr in traces:
        for i, rec in enumerate(tr.records):
            if rec.rho_m is not None:
                if np.isnan(step_max[i]) or rec.rho_m > step_max[i]:
                    step_max[i] = rec.rho_m
    violations = [
        t for t in range(min_step + 1, steps + 1)
        if not np.isnan(step_max[t - 1]) and step_max[t - 1] >= threshold
    ]
    return RhoMonitorSummary(
        step_max=step_max, threshold=threshold, min_step=min_step, violations=violations
    )


def _fmt(x):
    if x is None:
        return ""
    x = float(x)
    if math.isnan(x):
        return ""
    return repr(x)


def emit_csv(stats, curves, path):
    """Write ``<path>.table1.csv`` and ``<path>.curves.csv``.

    Floats are written as their shortest round-trip decimal; lines end
    with LF. Rho columns are empty for the unfiltered method and for
    steps where no momentum matrix exists.
    """
    table_lines = [
        "step,mse_unfiltered,mse_filtered,bias2_unfiltered,bias2_filtered,"
        "var_unfiltered,var_filtered"
    ]
    for i in range(stats.steps):
        table_lines.append(",".join([
            str(i + 1),
            _fmt(stats.mse_unfiltered[i]),
            _fmt(stats.mse_filtered[i]),
            _fmt(stats.bias2_unfiltered[i]),
            _fmt(stats.bias2_filtered[i]),
            _fmt(stats.var_unfiltered[i]),
            _fmt(stats.var_filtered[i]),
        ]))

    curve_lines = [
        "step,method,mean_dist,sd_dist,mean_obj,sd_obj,mean_displacement,"
        "sd_displacement,mean_rho,max_rho"
    ]
    for method, mc in (("unfiltered", curves.unfiltered), ("filtered", curves.filtered)):
        for i in range(curves.steps):
            curve_lines.append(",".join([
                str(i + 1),
                method,
                _fmt(mc.mean_dist[i]),
                _fmt(mc.sd_dist[i]),
                _fmt(mc.mean_obj[i]),
                _fmt(mc.sd_obj[i]),
                _fmt(mc.mean_displacement[i]),
                _fmt(mc.sd_displacement[i]),
                _fmt(None if mc.mean_rho is None else mc.mean_rho[i]),
                _fmt(None if mc.max_rho is None else mc.max_rho[i]),
            ]))

    with open(f"{path}.table1.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(table_lines) + "\n")
    with open(f"{path}.curves.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(curve_lines) + "\n")
