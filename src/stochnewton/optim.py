"""Batch Newton optimization loops, unfiltered and filtered.

Both variants draw one uniform batch per step, form the batch gradient
and Hessian, pick a step length by backtracking line search on the
batch objective, and update the iterate. The unfiltered variant steps
along -Q_t^-1 f_t; the filtered variant runs the Gaussian filter over
the batch observations and steps along -Sigma_t^-1 mu_t. There is no
termination test: a run always executes ``max_steps`` steps.

``run_trials`` is the engine. It runs a stack of trials of one variant
in lockstep, each on its own batches drawn up front: every step
evaluates all batches, checks and ridges the Hessians, updates the
filters and line-searches with one numpy call per layer on the whole
stack (``evaluate_batches``, ``dkf_updates``, ``armijo_search``), and
the steps come back as arrays (``StackedTrace``). A trial that fails
leaves the stack at that step and the others carry on; no trial's
numbers depend on which others share its stack. ``run`` is the
one-trial case, and ``unfiltered_step``/``filtered_step`` are one step
of it.
"""

from dataclasses import dataclass, field, fields
from typing import List, NamedTuple, Optional

import numpy as np

from . import line_search
from .filtering import FilterConfig, FilterDivergenceError, GaussianBelief, dkf_updates, init_belief
from .objectives import batch_mean_values, evaluate_batches, sample_batch, sorted_batch

__all__ = [
    "OptimizerConfig",
    "StepRecord",
    "TrialTrace",
    "StepError",
    "StackedTrace",
    "run_trials",
    "unfiltered_step",
    "filtered_step",
    "run",
]


@dataclass(frozen=True)
class OptimizerConfig:
    """Loop parameters; a present ``filter`` selects the filtered variant."""

    batch_size: int
    max_steps: int
    filter: Optional[FilterConfig] = None
    armijo_c: float = line_search.DEFAULT_SUFFICIENT_DECREASE
    armijo_max_halvings: int = line_search.DEFAULT_MAX_HALVINGS

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass(frozen=True)
class StepRecord:
    """One optimization step.

    ``theta_after`` is exactly theta_before + step_length * direction.
    ``newton_direction`` is the plain batch Newton direction -Q_t^-1 f_t
    of this step's batch at theta_before; for the unfiltered variant it
    is ``direction`` itself. ``rho_m`` and ``fallback_fired`` are
    populated by the filtered variant from the second step on and are
    None otherwise. A record holds the arrays it was made from, or views
    of a run's arrays, not copies.
    """

    t: int
    theta_before: np.ndarray
    theta_after: np.ndarray
    direction: np.ndarray
    step_length: float
    batch: np.ndarray
    newton_direction: Optional[np.ndarray] = None
    rho_m: Optional[float] = None
    fallback_fired: Optional[bool] = None


@dataclass
class TrialTrace:
    """Per-step records of one run plus stream provenance."""

    records: List[StepRecord] = field(default_factory=list)
    seed_info: str = ""

    def thetas(self):
        """Iterates after each step, shape (len(records), d)."""
        return np.array([rec.theta_after for rec in self.records])


class StepError(RuntimeError):
    """A step failed numerically; carries the partial trace up to the failure."""

    def __init__(self, step, partial_trace):
        super().__init__(f"optimization failed at step {step}")
        self.step = step
        self.partial_trace = partial_trace


@dataclass(frozen=True)
class StackedTrace:
    """The steps of a stack of T runs of one variant, as arrays over S steps.

    ``thetas`` (T, S + 1, d) holds each start and the iterate after each
    step; ``directions``, ``newton_directions`` (T, S, d) and
    ``step_lengths`` (T, S) are as in StepRecord. ``armijo_satisfied``
    (T, S) is False where the line search ran out of halvings and took
    its last step length anyway. ``ridge_eps`` (T, S) is the eps of the
    eps*I that the ridge added to the step's batch Hessian, 0 where it
    added none (see ``BatchObservation``). ``rho`` and ``fallback``
    (T, S) hold rho_m and fallback_fired, and ``sigma_lam_max`` (T, S)
    the largest eigenvalue of the prior covariance Sigma_{t-1} that
    rho_m is taken from; they are nan and False except at filter
    updates.
    ``failed_step`` (T,) is the step at which a run failed, 0 for a run
    that completed, and ``errors`` maps the position of a failed run to
    the exception that stopped it; a failed run's arrays are meaningful
    only before its failed step.
    """

    thetas: np.ndarray
    directions: np.ndarray
    newton_directions: np.ndarray
    step_lengths: np.ndarray
    armijo_satisfied: np.ndarray
    ridge_eps: np.ndarray
    rho: np.ndarray
    fallback: np.ndarray
    sigma_lam_max: np.ndarray
    failed_step: np.ndarray
    errors: dict = field(default_factory=dict)

    def _arrays(self):
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "errors"}

    @classmethod
    def concatenate(cls, traces):
        """The runs of ``traces`` stacked one after another, in order."""
        errors, offset = {}, 0
        for trace in traces:
            errors.update((offset + i, err) for i, err in trace.errors.items())
            offset += len(trace.failed_step)
        arrays = {name: np.concatenate([getattr(tr, name) for tr in traces])
                  for name in traces[0]._arrays()}
        return cls(errors=errors, **arrays)

    def select(self, keep):
        """The completed runs at the positions in ``keep``."""
        return StackedTrace(**{name: array[keep] for name, array in self._arrays().items()})


class _Steps(NamedTuple):
    """One step of a stack; the last three only for filter updates."""

    theta_after: np.ndarray
    direction: np.ndarray
    newton_direction: np.ndarray
    step_length: np.ndarray
    armijo_satisfied: np.ndarray
    ridge_eps: np.ndarray
    rho: Optional[np.ndarray] = None
    fallback: Optional[np.ndarray] = None
    sigma_lam_max: Optional[np.ndarray] = None

    @classmethod
    def of_run(cls, trace, i):
        """Every step of run ``i`` of a StackedTrace, with the step as the leading axis."""
        return cls(trace.thetas[i, 1:], trace.directions[i], trace.newton_directions[i],
                   trace.step_lengths[i], trace.armijo_satisfied[i], trace.ridge_eps[i],
                   trace.rho[i], trace.fallback[i], trace.sigma_lam_max[i])

    def record(self, i, t, theta_before, batch):
        return StepRecord(
            t=t,
            theta_before=theta_before,
            theta_after=self.theta_after[i],
            direction=self.direction[i],
            step_length=float(self.step_length[i]),
            batch=batch,
            newton_direction=self.newton_direction[i],
            rho_m=None if self.rho is None else float(self.rho[i]),
            fallback_fired=None if self.fallback is None else bool(self.fallback[i]),
        )


def _stacked_step(obj, theta, idx, belief, cfg, filtered, t):
    """One step for a stack: theta (T, d), ascending batches idx (T, b).

    ``belief`` is the filter's stacked belief, None before the first
    filtered step. Returns (steps, belief, failures), where ``failures``
    maps the position of each member that failed to the first error it
    met. The line search uses the batch gradient f_t as its gradient
    argument in both variants, since the searched function is the batch
    objective.
    """
    obs, failures = evaluate_batches(obj, theta, idx)
    newton = obs.newton_direction()
    rho = fallback = lam_max = None
    if not filtered:
        direction = newton
    elif belief is None:
        # The first filtered step takes the unfiltered direction bit for bit.
        belief = init_belief(obs)
        direction = newton
    else:
        upd, diverged = dkf_updates(cfg.filter, belief, obs)
        for i, err in diverged.items():
            failures.setdefault(i, FilterDivergenceError(str(err), step=t))
        belief = upd.belief
        direction = belief.direction()
        rho, fallback, lam_max = upd.rho, upd.fallback_fired, upd.sigma_lam_max
    lams, satisfied, search = line_search.armijo_search(
        lambda points: batch_mean_values(obj, points, idx[:, None, :]), theta, direction, obs.f,
        c=cfg.armijo_c, max_halvings=cfg.armijo_max_halvings,
    )
    for i, err in search.items():
        failures.setdefault(i, err)
    steps = _Steps(theta + lams[:, None] * direction, direction, newton, lams, satisfied,
                   obs.ridge_eps, rho, fallback, lam_max)
    return steps, belief, failures


def _one_trial(obj, theta_prev, batch):
    theta_prev = np.asarray(theta_prev, dtype=float)
    if theta_prev.shape != (obj.d,):
        raise ValueError(f"theta must be a length-{obj.d} vector")
    if not np.isfinite(theta_prev).all():
        raise ValueError("theta contains non-finite entries")
    return theta_prev[None], sorted_batch(obj, batch)[None]


def unfiltered_step(obj, theta_prev, batch, cfg, t=1):
    """One batch Newton step along -Q_t^-1 f_t."""
    theta, idx = _one_trial(obj, theta_prev, batch)
    with np.errstate(over="ignore", invalid="ignore"):
        steps, _, failures = _stacked_step(obj, theta, idx, None, cfg, False, t)
    if failures:
        raise failures[0]
    return steps.record(0, t, theta_prev, batch)


def filtered_step(obj, theta_prev, batch, belief_prev, cfg, t=1):
    """One filtered step along -Sigma_t^-1 mu_t; returns (record, belief).

    ``belief_prev`` of None means this is the first step, which
    initializes the belief from the batch observation and therefore
    takes the unfiltered direction bit for bit.
    """
    theta, idx = _one_trial(obj, theta_prev, batch)
    if belief_prev is not None:
        belief_prev = GaussianBelief(mu=np.asarray(belief_prev.mu, dtype=float)[None],
                                     sigma=np.asarray(belief_prev.sigma, dtype=float)[None],
                                     sigma_factor=belief_prev.sigma_factor[None])
    with np.errstate(over="ignore", invalid="ignore"):
        steps, belief, failures = _stacked_step(obj, theta, idx, belief_prev, cfg, True, t)
    if failures:
        raise failures[0]
    belief = GaussianBelief(mu=belief.mu[0], sigma=belief.sigma[0],
                            sigma_factor=belief.sigma_factor[0])
    return steps.record(0, t, theta_prev, batch), belief


def run_trials(obj, theta0, batches, cfg):
    """Run one trial per row of ``batches`` (T, steps, batch_size), in lockstep.

    Every trial starts from ``theta0`` ((d,) or (T, d)) and takes step t
    on its batch ``batches[:, t - 1]``; ``cfg.max_steps`` and
    ``cfg.batch_size`` are not consulted. Returns a StackedTrace. A
    trial that fails numerically is recorded there and leaves the
    stack; bad input raises ValueError.
    """
    batches = np.asarray(batches, dtype=np.intp)
    count, steps, _ = batches.shape
    theta = np.array(np.broadcast_to(np.asarray(theta0, dtype=float), (count, obj.d)))
    if not np.isfinite(theta).all():
        raise ValueError("theta0 contains non-finite entries")
    idx = np.sort(batches, axis=-1)
    if idx.size == 0:
        raise ValueError("batch is empty")
    if idx.min() < 0 or idx.max() >= obj.n:
        raise ValueError(f"batch index out of range for n={obj.n}")

    filtered = cfg.filter is not None
    trace = StackedTrace(
        thetas=np.full((count, steps + 1, obj.d), np.nan),
        directions=np.full((count, steps, obj.d), np.nan),
        newton_directions=np.full((count, steps, obj.d), np.nan),
        step_lengths=np.full((count, steps), np.nan),
        armijo_satisfied=np.zeros((count, steps), dtype=bool),
        ridge_eps=np.zeros((count, steps)),
        rho=np.full((count, steps), np.nan),
        fallback=np.zeros((count, steps), dtype=bool),
        sigma_lam_max=np.full((count, steps), np.nan),
        failed_step=np.zeros(count, dtype=int),
    )
    trace.thetas[:, 0] = theta
    # Positions of the trials still running: all of them, as a slice,
    # until one fails.
    live = slice(None)
    belief = None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for t in range(1, steps + 1):
            step, belief, failures = _stacked_step(obj, theta, idx[live, t - 1], belief, cfg,
                                                   filtered, t)
            trace.thetas[live, t] = step.theta_after
            trace.directions[live, t - 1] = step.direction
            trace.newton_directions[live, t - 1] = step.newton_direction
            trace.step_lengths[live, t - 1] = step.step_length
            trace.armijo_satisfied[live, t - 1] = step.armijo_satisfied
            trace.ridge_eps[live, t - 1] = step.ridge_eps
            if step.rho is not None:
                trace.rho[live, t - 1] = step.rho
                trace.fallback[live, t - 1] = step.fallback
                trace.sigma_lam_max[live, t - 1] = step.sigma_lam_max
            theta = step.theta_after
            if failures:
                members = np.arange(count)[live]
                keep = np.ones(len(members), dtype=bool)
                for i, err in failures.items():
                    trace.failed_step[members[i]] = t
                    trace.errors[int(members[i])] = err
                    keep[i] = False
                live, theta = members[keep], theta[keep]
                if belief is not None:
                    belief = GaussianBelief(mu=belief.mu[keep], sigma=belief.sigma[keep],
                                            sigma_factor=belief.sigma_factor[keep])
                if not live.size:
                    break
    return trace


def run(obj, theta0, cfg, rng, seed_info=""):
    """Run ``cfg.max_steps`` steps, drawing one batch per step from ``rng``.

    All batches are drawn up front, in step order, with one call that
    yields the same indices as one draw per step. Deterministic given
    (obj, theta0, cfg, stream state). On a failed step, raises StepError
    carrying the partial trace accumulated so far. This is the one-trial
    case of ``run_trials``.
    """
    theta = np.array(theta0, dtype=float)
    if not np.isfinite(theta).all():
        raise ValueError("theta0 contains non-finite entries")
    batches = sample_batch(rng, obj.n, cfg.max_steps * cfg.batch_size).reshape(
        1, cfg.max_steps, cfg.batch_size)
    stacked = run_trials(obj, theta, batches, cfg)
    failed = int(stacked.failed_step[0])
    updates = _Steps.of_run(stacked, 0)
    # Steps that were not filter updates record no rho_m or fallback_fired.
    plain = updates._replace(rho=None, fallback=None, sigma_lam_max=None)
    filtered = cfg.filter is not None
    trace = TrialTrace(seed_info=seed_info, records=[
        (updates if filtered and t > 1 else plain).record(t - 1, t, stacked.thetas[0, t - 1],
                                                          batches[0, t - 1])
        for t in range(1, failed or cfg.max_steps + 1)
    ])
    if failed:
        raise StepError(failed, trace) from stacked.errors[0]
    return trace
