"""Batch Newton optimization loops, unfiltered and filtered.

Both variants draw one uniform batch per step, form the batch gradient
and Hessian, pick a step length by backtracking line search on the
batch objective, and update the iterate. The unfiltered variant steps
along -Q_t^-1 f_t; the filtered variant runs the Gaussian filter over
the batch observations and steps along -Sigma_t^-1 mu_t, the negative
information vector that the filter update forms. There is no
termination test: a run always executes ``max_steps`` steps.

``run_trials`` is the engine. It runs a stack of trials of one variant
in lockstep, each on its own batches drawn up front: every step
evaluates all batches, checks and ridges the Hessians, updates the
filters and line-searches with one numpy call per layer on the whole
stack (``evaluate_batches``, ``filtering._updates``, ``armijo_search``), and
writes the step straight into the arrays of a ``StackedTrace``. A trial
that fails leaves the stack at that step and the others carry on; no
trial's numbers depend on which others share its stack. ``run`` is the
one-trial case, and ``unfiltered_step``/``filtered_step`` are one step
of it on a one-step trace; all three read their StepRecords from one
run of the trace, which is the only place records are formed. ``run``
forms a record only when its trace's ``records`` are read.
"""

import operator
from dataclasses import dataclass, field, fields
from collections.abc import Sequence
from typing import Optional

import numpy as np

from . import line_search
from .filtering import FilterConfig, _updates, init_belief
from .linalg import require_pd
from .objectives import _members, _one_trial, evaluate_batches, sample_batch, sorted_batch

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
    newton_direction: np.ndarray
    rho_m: Optional[float] = None
    fallback_fired: Optional[bool] = None


@dataclass
class TrialTrace:
    """Per-step records of one run.

    From ``run``, ``records`` is a read-only sequence over the run's
    arrays that forms each StepRecord when it is read, with views of
    those arrays: reading a record twice gives two equal records, not
    the same object. It supports ``len``, indexing and iteration.
    """

    records: Sequence[StepRecord]


class _RunRecords(Sequence):
    """The StepRecords of the first ``steps`` steps of a one-run view (``trace.select(0)``).

    ``batches`` (steps, b) holds each step's batch as drawn.
    """

    def __init__(self, view, batches, steps):
        self._view, self._batches, self._steps = view, batches, steps

    def __len__(self):
        return self._steps

    def __getitem__(self, index):
        # An integer only: a slice raises TypeError.
        s = range(self._steps)[operator.index(index)]
        return _record(self._view, s, s + 1, self._batches[s])


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
        """The runs of ``traces`` stacked one after another, in order.

        A single trace is returned as it is, not copied.
        """
        if len(traces) == 1:
            return traces[0]
        errors, offset = {}, 0
        for trace in traces:
            errors.update((offset + i, err) for i, err in trace.errors.items())
            offset += len(trace.failed_step)
        arrays = {name: np.concatenate([getattr(tr, name) for tr in traces])
                  for name in traces[0]._arrays()}
        return cls(errors=errors, **arrays)

    def select(self, keep):
        """The runs at the positions in ``keep``; an integer gives one run without the run axis."""
        return StackedTrace(**{name: array[keep] for name, array in self._arrays().items()})


def _empty_trace(count, steps, d):
    """A StackedTrace of ``count`` runs of ``steps`` steps with nothing written yet."""
    return StackedTrace(
        thetas=np.full((count, steps + 1, d), np.nan),
        directions=np.full((count, steps, d), np.nan),
        newton_directions=np.full((count, steps, d), np.nan),
        step_lengths=np.full((count, steps), np.nan),
        armijo_satisfied=np.zeros((count, steps), dtype=bool),
        ridge_eps=np.zeros((count, steps)),
        rho=np.full((count, steps), np.nan),
        fallback=np.zeros((count, steps), dtype=bool),
        sigma_lam_max=np.full((count, steps), np.nan),
        failed_step=np.zeros(count, dtype=int),
    )


def _stacked_step(obj, cfg, theta, idx, belief, trace, rows, s):
    """One step of a stack, written into column ``s`` of the runs ``rows`` of ``trace``.

    ``theta`` (T, d) holds the iterates and ``idx`` (T, b) the ascending
    batches; the new iterates go to ``trace.thetas[rows, s + 1]``.
    ``belief`` is the filter's stacked belief, None before the first
    filtered step; it holds PD-tested posteriors, which is what the
    stacked filter update ``_updates`` requires. Returns (theta, belief,
    failures): the new iterates, the new belief, and a map from the
    position of each member that failed to the first error it met. The
    line search searches the batch objective in both variants, on the
    decreases that the objective forms from the evaluation
    (``step_decreases``): a GLM evaluates the batch objective at the
    candidates only, and least squares at no point at all.
    """
    obs, failures = evaluate_batches(obj, theta, idx)
    newton = obs.newton_direction()
    if cfg.filter is None:
        direction = newton
    elif belief is None:
        # The first filtered step takes the unfiltered direction bit for bit.
        belief = init_belief(obs)
        direction = newton
    else:
        upd, diverged = _updates(cfg.filter, belief, obs)
        for i, err in diverged.items():
            failures.setdefault(i, err)
        belief, direction = upd.belief, upd.direction
        trace.rho[rows, s] = upd.rho
        trace.fallback[rows, s] = upd.fallback_fired
        trace.sigma_lam_max[rows, s] = upd.sigma_lam_max
    decreases = obj.step_decreases(theta, idx, obs, direction, line_search.STEP_LENGTHS)
    lams, satisfied, search = line_search.armijo_search(decreases, theta, direction, obs.f,
                                                        c=cfg.armijo_c)
    for i, err in search.items():
        failures.setdefault(i, err)
    theta = theta + lams[:, None] * direction
    trace.thetas[rows, s + 1] = theta
    trace.directions[rows, s] = direction
    trace.newton_directions[rows, s] = newton
    trace.step_lengths[rows, s] = lams
    trace.armijo_satisfied[rows, s] = satisfied
    trace.ridge_eps[rows, s] = obs.ridge_eps
    return theta, belief, failures


def _record(view, s, t, batch):
    """StepRecord of step t from column ``s`` of a one-run view (``trace.select(0)``).

    Only a filter update records rho_m and fallback_fired: a step is one
    exactly where its rho is not nan.
    """
    update = not np.isnan(view.rho[s])
    return StepRecord(
        t=t,
        theta_before=view.thetas[s],
        theta_after=view.thetas[s + 1],
        direction=view.directions[s],
        step_length=float(view.step_lengths[s]),
        batch=batch,
        newton_direction=view.newton_directions[s],
        rho_m=float(view.rho[s]) if update else None,
        fallback_fired=bool(view.fallback[s]) if update else None,
    )


def _one_step(obj, theta_prev, batch, belief_prev, cfg, t):
    """Step t of one trial, on a one-step trace; returns (record, belief)."""
    theta, idx = _one_trial(obj, theta_prev, batch)
    trace = _empty_trace(1, 1, obj.d)
    trace.thetas[:, 0] = theta
    if belief_prev is not None:
        belief_prev = _members(belief_prev, None)
    with np.errstate(over="ignore", invalid="ignore"):
        _, belief, failures = _stacked_step(obj, cfg, theta, idx, belief_prev, trace, slice(None), 0)
    if failures:
        raise failures[0]
    record = _record(trace.select(0), 0, t, batch)
    return record, None if belief is None else _members(belief, 0)


def unfiltered_step(obj, theta_prev, batch, cfg, t=1):
    """One batch Newton step along -Q_t^-1 f_t; a filtered ``cfg`` gives the same record."""
    return _one_step(obj, theta_prev, batch, None, cfg, t)[0]


def filtered_step(obj, theta_prev, batch, belief_prev, cfg, t=1):
    """One filtered step along -Sigma_t^-1 mu_t; returns (record, belief).

    ``belief_prev`` of None means this is the first step, which
    initializes the belief from the batch observation and therefore
    takes the unfiltered direction bit for bit. A prior covariance that
    is not PD raises PositiveDefiniteError, and a ``cfg`` without a
    filter ValueError.
    """
    if cfg.filter is None:
        raise ValueError("filtered_step needs a cfg with a filter")
    if belief_prev is not None:
        require_pd(belief_prev.sigma)
    return _one_step(obj, theta_prev, batch, belief_prev, cfg, t)


def run_trials(obj, theta0, batches, cfg):
    """Run one trial per row of ``batches`` (T, steps, batch_size), in lockstep.

    Every trial starts from ``theta0`` ((d,) or (T, d)) and takes step t
    on its batch ``batches[:, t - 1]``; ``cfg.max_steps`` and
    ``cfg.batch_size`` are not consulted. Returns a StackedTrace. A
    trial that fails numerically is recorded there and leaves the
    stack; bad input raises ValueError.
    """
    idx = sorted_batch(obj, batches)
    count, steps, _ = idx.shape
    # C order, as every later iterate has: a trial's arithmetic must not
    # depend on whether it shares theta0 with a stack.
    theta = np.array(np.broadcast_to(np.asarray(theta0, dtype=float), (count, obj.d)), order="C")
    if not np.isfinite(theta).all():
        raise ValueError("theta0 contains non-finite entries")
    trace = _empty_trace(count, steps, obj.d)
    trace.thetas[:, 0] = theta

    # Positions of the trials still running: all of them, as a slice,
    # until one fails.
    live = slice(None)
    belief = None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for t in range(1, steps + 1):
            theta, belief, failures = _stacked_step(obj, cfg, theta, idx[live, t - 1], belief,
                                                    trace, live, t - 1)
            if failures:
                members = np.arange(count)[live]
                keep = np.ones(len(members), dtype=bool)
                for i, err in failures.items():
                    trace.failed_step[members[i]] = t
                    trace.errors[int(members[i])] = err
                    keep[i] = False
                live, theta = members[keep], theta[keep]
                if belief is not None:
                    belief = _members(belief, keep)
                if not live.size:
                    break
    return trace


def run(obj, theta0, cfg, rng):
    """Run ``cfg.max_steps`` steps, drawing one batch per step from ``rng``.

    All batches are drawn up front, in step order, with one call that
    yields the same indices as one draw per step. Deterministic given
    (obj, theta0, cfg, stream state). On a failed step, raises StepError
    carrying the partial trace of the steps before it. This is the
    one-trial case of ``run_trials``: the returned trace keeps the run's
    one-run StackedTrace and batches, and forms no StepRecord until one
    is read.
    """
    batches = sample_batch(rng, obj.n, cfg.max_steps * cfg.batch_size).reshape(
        cfg.max_steps, cfg.batch_size)
    stacked = run_trials(obj, theta0, batches[None], cfg)
    failed = int(stacked.failed_step[0])
    trace = TrialTrace(records=_RunRecords(stacked.select(0), batches,
                                           failed - 1 if failed else cfg.max_steps))
    if failed:
        raise StepError(failed, trace) from stacked.errors[0]
    return trace
