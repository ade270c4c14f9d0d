"""Batch Newton optimization loops, unfiltered and filtered.

Both variants draw one uniform batch per step, form the batch gradient
and Hessian, pick a step length by backtracking line search on the
batch objective, and update the iterate. The unfiltered variant steps
along -Q_t^-1 f_t; the filtered variant runs the Gaussian filter over
the batch observations and steps along -Sigma_t^-1 mu_t. There is no
termination test: a run always executes ``max_steps`` steps.
"""

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import line_search
from .filtering import FilterConfig, FilterDivergenceError, dkf_update_info, init_belief
from .linalg import PositiveDefiniteError
from .objectives import (
    NumericalError,
    batch_mean_values,
    evaluate_batch,
    sample_batch,
    sorted_batch,
)

__all__ = [
    "OptimizerConfig",
    "StepRecord",
    "TrialTrace",
    "StepError",
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
    None otherwise. A record holds the ``theta_prev`` and ``batch``
    arrays it was made from, not copies.
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


def _backtrack(obj, theta, direction, grad, idx, cfg):
    return line_search.armijo_backtrack(
        lambda points: batch_mean_values(obj, points, idx), theta, direction, grad,
        c=cfg.armijo_c, max_halvings=cfg.armijo_max_halvings,
    )


def unfiltered_step(obj, theta_prev, batch, cfg, t=1):
    """One batch Newton step along -Q_t^-1 f_t."""
    idx = sorted_batch(obj, batch)
    obs = evaluate_batch(obj, theta_prev, idx)
    direction = obs.newton_direction()
    lam = _backtrack(obj, theta_prev, direction, obs.f, idx, cfg)
    return StepRecord(
        t=t,
        theta_before=theta_prev,
        theta_after=theta_prev + lam * direction,
        direction=direction,
        step_length=lam,
        batch=batch,
        newton_direction=direction,
    )


def filtered_step(obj, theta_prev, batch, belief_prev, cfg, t=1):
    """One filtered step along -Sigma_t^-1 mu_t; returns (record, belief).

    ``belief_prev`` of None means this is the first step, which
    initializes the belief from the batch observation and therefore
    takes the unfiltered direction bit for bit. The line search uses
    the batch gradient f_t as its gradient argument in both variants,
    since the searched function is the batch objective.
    """
    idx = sorted_batch(obj, batch)
    obs = evaluate_batch(obj, theta_prev, idx)
    newton = obs.newton_direction()
    if belief_prev is None:
        belief = init_belief(obs)
        direction = newton
        rho = None
        fallback = None
    else:
        try:
            upd = dkf_update_info(cfg.filter, belief_prev, obs)
        except FilterDivergenceError as err:
            raise FilterDivergenceError(str(err), step=t) from err
        belief = upd.belief
        direction = belief.direction()
        rho = upd.momentum.rho
        fallback = upd.fallback_fired
    lam = _backtrack(obj, theta_prev, direction, obs.f, idx, cfg)
    record = StepRecord(
        t=t,
        theta_before=theta_prev,
        theta_after=theta_prev + lam * direction,
        direction=direction,
        step_length=lam,
        batch=batch,
        newton_direction=newton,
        rho_m=rho,
        fallback_fired=fallback,
    )
    return record, belief


def run(obj, theta0, cfg, rng, seed_info=""):
    """Run ``cfg.max_steps`` steps, drawing one batch per step from ``rng``.

    Deterministic given (obj, theta0, cfg, stream state). On a failed
    step, raises StepError carrying the partial trace accumulated so
    far.
    """
    theta = np.array(theta0, dtype=float)
    if not np.isfinite(theta).all():
        raise ValueError("theta0 contains non-finite entries")
    trace = TrialTrace(seed_info=seed_info)
    belief = None
    for t in range(1, cfg.max_steps + 1):
        batch = sample_batch(rng, obj.n, cfg.batch_size)
        try:
            if cfg.filter is None:
                record = unfiltered_step(obj, theta, batch, cfg, t=t)
            else:
                record, belief = filtered_step(obj, theta, batch, belief, cfg, t=t)
        except (PositiveDefiniteError, NumericalError, FilterDivergenceError) as err:
            raise StepError(t, trace) from err
        trace.records.append(record)
        theta = record.theta_after
    return trace
