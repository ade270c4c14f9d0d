import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from stochnewton.experiment import ExperimentConfig, _draw_batches, generate_data
from stochnewton.filtering import FilterConfig, GaussianBelief, dkf_update_info, init_belief
from stochnewton.objectives import (
    ExpFamilyObjective,
    GlmData,
    GlmObjective,
    LeastSquaresData,
    LeastSquaresObjective,
    NumericalError,
    SubsampledObjective,
    bernoulli_family,
    bernoulli_scalar_family,
    evaluate_batch,
    sample_batch,
)
from stochnewton.line_search import STEP_LENGTHS, armijo_backtrack
from stochnewton.linalg import pd_mask, solve_spd, sym
from stochnewton.optim import (
    OptimizerConfig,
    StepError,
    filtered_step,
    run,
    run_trials,
    unfiltered_step,
)
from stochnewton.streams import DATA_STREAM, derive_stream


class ScalarQuadratic(SubsampledObjective):
    """Every sample shares log g(theta) = theta^2 / 2 (one-dimensional)."""

    def __init__(self, n=10):
        self.n = n
        self.d = 1

    def row_terms(self, theta, idx, derivatives=True):
        th = theta[..., 0]
        if not derivatives:
            return (0.5 * th * th,)
        return 0.5 * th * th, theta, np.full(th.shape[1:] + (1, 1), float(idx.shape[0]))


class FailsAfter(SubsampledObjective):
    """Returns a non-finite gradient once theta moves below a trigger.

    Values stay finite so the line search is unaffected; the failure
    surfaces in the batch evaluation of a later step.
    """

    def __init__(self, trigger):
        self.n = 4
        self.d = 1
        self.trigger = trigger

    def row_terms(self, theta, idx, derivatives=True):
        th = theta[..., 0]
        if not derivatives:
            return (0.5 * th * th,)
        grad = np.where(theta < self.trigger, np.nan, theta)
        return 0.5 * th * th, grad, np.full(th.shape[1:] + (1, 1), float(idx.shape[0]))


def make_ls(rng, n=30, d=2):
    xs = rng.standard_normal((n, d))
    ys = xs @ np.ones(d) + rng.standard_normal(n)
    return LeastSquaresObjective(LeastSquaresData(xs=xs, ys=ys))


def ls_mle(obj):
    sol, *_ = np.linalg.lstsq(obj.data.xs, obj.data.ys, rcond=None)
    return sol


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def test_unfiltered_scalar_quadratic_step():
    # direction -1 from theta = 1; the strict default constant forces the
    # smallest step, so theta lands on 15/16.
    obj = ScalarQuadratic()
    cfg = OptimizerConfig(batch_size=3, max_steps=1)
    rec = unfiltered_step(obj, np.array([1.0]), np.array([0, 1, 2]), cfg)
    assert_allclose(rec.direction, np.array([-1.0]))
    assert rec.step_length == 1.0 / 16.0
    assert_allclose(rec.theta_after, np.array([15.0 / 16.0]))


def test_unfiltered_full_batch_newton_with_relaxed_constant():
    # With c < 0.5 the full step is accepted and Newton solves the
    # quadratic in one iteration.
    rng = np.random.default_rng(0)
    obj = make_ls(rng)
    cfg = OptimizerConfig(batch_size=obj.n, max_steps=1, armijo_c=0.4)
    rec = unfiltered_step(obj, np.zeros(obj.d), np.arange(obj.n), cfg)
    assert rec.step_length == 1.0
    assert np.linalg.norm(rec.theta_after - ls_mle(obj)) <= 1e-8


def test_unfiltered_zero_gradient_stays_put():
    rng = np.random.default_rng(1)
    obj = make_ls(rng)
    theta_star = ls_mle(obj)
    cfg = OptimizerConfig(batch_size=obj.n, max_steps=1)
    rec = unfiltered_step(obj, theta_star, np.arange(obj.n), cfg)
    assert np.linalg.norm(rec.direction) <= 1e-8
    assert_allclose(rec.theta_after, theta_star + rec.step_length * rec.direction)


def test_update_arithmetic_invariant():
    rng = np.random.default_rng(2)
    obj = make_ls(rng)
    cfg = OptimizerConfig(batch_size=5, max_steps=6,
                          filter=FilterConfig(alpha=0.9, beta=0.2, dim=obj.d))
    trace = run(obj, np.array([1.5, -1.0]), cfg, derive_stream(0, 1, 0))
    for rec in trace.records:
        assert np.array_equal(rec.theta_after,
                              rec.theta_before + rec.step_length * rec.direction)


def test_first_filtered_step_matches_unfiltered_bitwise():
    rng = np.random.default_rng(3)
    obj = make_ls(rng)
    theta0 = np.array([1.5, -1.0])
    batch = np.array([3, 1, 4, 1, 5])
    ucfg = OptimizerConfig(batch_size=5, max_steps=1)
    fcfg = OptimizerConfig(batch_size=5, max_steps=1,
                           filter=FilterConfig(alpha=0.9, beta=0.2, dim=obj.d))
    urec = unfiltered_step(obj, theta0, batch, ucfg)
    frec, belief = filtered_step(obj, theta0, batch, None, fcfg)
    assert np.array_equal(urec.direction, frec.direction)
    assert urec.step_length == frec.step_length
    assert np.array_equal(urec.theta_after, frec.theta_after)
    assert frec.rho_m is None and frec.fallback_fired is None


def test_filtered_step_stationary_isotropic_direction():
    # With sigma_prev = s I and Q = q I the new direction collapses to
    # f/q + alpha * mu_prev / s.
    fcfg = FilterConfig(alpha=0.9, beta=0.2, dim=1)
    s = fcfg.s_scalar
    q = 0.5

    class IsotropicObjective(SubsampledObjective):
        n = 3
        d = 1

        def row_terms(self, theta, idx, derivatives=True):
            zeros = np.zeros(idx.shape)
            if not derivatives:
                return (zeros,)
            return zeros, np.full(idx.shape + (1,), 0.3), np.full((1, 1), idx.shape[0] * q)

    obj = IsotropicObjective()
    belief_prev = GaussianBelief(mu=np.array([0.7]), sigma=np.array([[s]]))
    cfg = OptimizerConfig(batch_size=2, max_steps=1, filter=fcfg)
    rec, belief = filtered_step(obj, np.array([0.0]), np.array([0, 1]), belief_prev, cfg)
    expected = -(0.3 / q + 0.9 * 0.7 / s)
    assert rec.direction[0] == pytest.approx(expected, rel=1e-12)
    assert rec.rho_m == pytest.approx(0.9, rel=1e-10)  # stationary momentum


def test_recursion_identity_along_filtered_run():
    # direction_t = -(Qeff^-1 f_t) + M_t direction_{t-1}, checked against an
    # independent replay of the belief sequence.
    rng = np.random.default_rng(4)
    obj = make_ls(rng)
    fcfg = FilterConfig(alpha=0.9, beta=0.2, dim=obj.d)
    cfg = OptimizerConfig(batch_size=5, max_steps=10, filter=fcfg)
    trace = run(obj, np.array([2.0, -1.0]), cfg, derive_stream(1, 1, 0))

    belief = None
    prev_direction = None
    for rec in trace.records:
        obs = evaluate_batch(obj, rec.theta_before, rec.batch)
        if belief is None:
            belief = init_belief(obs)
        else:
            upd = dkf_update_info(fcfg, belief, obs)
            belief = upd.belief
            lhs = -rec.direction  # Sigma_t^-1 mu_t as recorded
            rhs = upd.q_inv_effective @ obs.f + upd.momentum.m @ (-prev_direction)
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(1.0, np.linalg.norm(lhs))
        # The filter takes the direction from its information vector, so
        # it agrees with solving the belief back to rounding.
        solved = -solve_spd(belief.sigma, belief.mu)
        assert np.linalg.norm(rec.direction - solved) <= 1e-12 * np.linalg.norm(solved)
        assert np.array_equal(rec.newton_direction, -solve_spd(obs.q, obs.f))
        prev_direction = rec.direction


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_run_is_deterministic():
    rng = np.random.default_rng(5)
    obj = make_ls(rng)
    cfg = OptimizerConfig(batch_size=5, max_steps=8,
                          filter=FilterConfig(alpha=0.9, beta=0.2, dim=obj.d))
    t1 = run(obj, np.array([1.5, -1.0]), cfg, derive_stream(9, 1, 0))
    t2 = run(obj, np.array([1.5, -1.0]), cfg, derive_stream(9, 1, 0))
    for a, b in zip(t1.records, t2.records):
        assert np.array_equal(a.theta_after, b.theta_after)
        assert np.array_equal(a.batch, b.batch)
        assert a.step_length == b.step_length


def test_paired_runs_consume_identical_batches():
    rng = np.random.default_rng(6)
    obj = make_ls(rng)
    base = dict(batch_size=5, max_steps=12)
    fcfg = OptimizerConfig(**base, filter=FilterConfig(alpha=0.9, beta=0.2, dim=obj.d))
    ucfg = OptimizerConfig(**base)
    ftrace = run(obj, np.zeros(obj.d), fcfg, derive_stream(4, 1, 7))
    utrace = run(obj, np.zeros(obj.d), ucfg, derive_stream(4, 1, 7))
    for fr, ur in zip(ftrace.records, utrace.records):
        assert np.array_equal(fr.batch, ur.batch)


def test_single_step_traces_coincide_between_methods():
    rng = np.random.default_rng(7)
    obj = make_ls(rng)
    fcfg = OptimizerConfig(batch_size=5, max_steps=1,
                           filter=FilterConfig(alpha=0.9, beta=0.2, dim=obj.d))
    ucfg = OptimizerConfig(batch_size=5, max_steps=1)
    ftrace = run(obj, np.array([1.0, 1.0]), fcfg, derive_stream(2, 1, 3))
    utrace = run(obj, np.array([1.0, 1.0]), ucfg, derive_stream(2, 1, 3))
    assert np.array_equal(ftrace.records[0].theta_after, utrace.records[0].theta_after)


def test_n_equals_one_converges_by_step_two():
    # With a single sample every batch is the full dataset, so the exact
    # Newton step (relaxed constant) lands on the optimum at step 1 and
    # stays there.
    obj = LeastSquaresObjective(LeastSquaresData(xs=np.array([[1.0]]), ys=np.array([2.0])))
    cfg = OptimizerConfig(batch_size=1, max_steps=2, armijo_c=0.4)
    trace = run(obj, np.array([0.0]), cfg, derive_stream(0, 1, 0))
    assert abs(trace.records[1].theta_after[0] - 2.0) <= 1e-8


def test_step_error_carries_partial_trace():
    obj = FailsAfter(trigger=0.93)
    cfg = OptimizerConfig(batch_size=2, max_steps=5)
    with pytest.raises(StepError) as excinfo:
        run(obj, np.array([1.0]), cfg, derive_stream(0, 1, 0))
    err = excinfo.value
    # Steps shrink theta by 15/16 each: 1 -> 0.9375 -> 0.8789..., and the
    # step-3 batch evaluation crosses the trigger.
    assert err.step == 3
    assert len(err.partial_trace.records) == 2
    assert isinstance(err.__cause__, NumericalError)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(batch_size=0, max_steps=1)
    with pytest.raises(ValueError):
        OptimizerConfig(batch_size=1, max_steps=0)


def test_run_rejects_non_finite_start():
    rng = np.random.default_rng(8)
    obj = make_ls(rng)
    cfg = OptimizerConfig(batch_size=5, max_steps=1)
    with pytest.raises(ValueError):
        run(obj, np.array([np.inf, 0.0]), cfg, derive_stream(0, 1, 0))


def test_run_trials_rejects_bad_input():
    rng = np.random.default_rng(9)
    obj = make_ls(rng)
    cfg = OptimizerConfig(batch_size=3, max_steps=2)
    batches = rng.integers(0, obj.n, size=(4, 2, 3))
    theta0 = np.zeros(obj.d)
    for bad in (-1, obj.n):
        outside = batches.copy()
        outside[1, 1, 2] = bad
        with pytest.raises(ValueError, match="out of range"):
            run_trials(obj, theta0, outside, cfg)
    with pytest.raises(ValueError, match="empty"):
        run_trials(obj, theta0, np.zeros((4, 2, 0), dtype=int), cfg)
    start = np.zeros((4, obj.d))
    start[2, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        run_trials(obj, start, batches, cfg)


# ---------------------------------------------------------------------------
# the trial-stacked engine
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, size, steps", [(100, 5, 30), (2000, 100, 30), (1000, 20, 300),
                                            (7, 3, 30)])
def test_bulk_batch_draw_equals_per_step_draws(n, size, steps):
    # run draws all batches of a trial with one call; the indices are
    # those of one draw per step from the same stream.
    for trial in range(3):
        bulk = sample_batch(derive_stream(0, 1, trial), n, steps * size).reshape(steps, size)
        rng = derive_stream(0, 1, trial)
        per_step = np.array([sample_batch(rng, n, size) for _ in range(steps)])
        assert np.array_equal(bulk, per_step)


def _engine_cases():
    rng = np.random.default_rng(12)
    wide = rng.standard_normal((300, 20))
    logistic = rng.standard_normal((200, 5))
    return [
        (make_ls(rng), 5),
        # A 100x20 Gram product per trial: one BLAS call per member of a
        # stack, as for a trial alone.
        (LeastSquaresObjective(LeastSquaresData(xs=wide, ys=wide @ np.ones(20))), 100),
        (GlmObjective(GlmData(xs=logistic, ys=(rng.random(200) < 0.5).astype(float),
                              family=bernoulli_scalar_family())), 20),
        # Evaluated through the family's a, grad_a and hess_a on the whole stack.
        (ExpFamilyObjective(bernoulli_family(), (rng.random((50, 1)) < 0.3).astype(float)), 10),
    ]


def _assert_members_equal_one_trial_runs(obj, theta0, batches, cfg, stacked):
    """Each trial of ``stacked`` equals a run of that trial alone, bit for bit."""
    steps = batches.shape[1]
    for i in range(len(batches)):
        alone = run_trials(obj, theta0[i] if theta0.ndim == 2 else theta0, batches[i:i + 1], cfg)
        assert alone.failed_step[0] == stacked.failed_step[i]
        done = stacked.failed_step[i] - 1 if stacked.failed_step[i] else steps
        assert np.array_equal(alone.thetas[0, :done + 1], stacked.thetas[i, :done + 1])
        for name in ("directions", "newton_directions", "step_lengths", "armijo_satisfied",
                     "ridge_eps", "rho", "fallback", "sigma_lam_max"):
            assert np.array_equal(getattr(alone, name)[0, :done], getattr(stacked, name)[i, :done],
                                  equal_nan=True)


@pytest.mark.parametrize("filtered", [False, True])
@pytest.mark.parametrize("case", range(4))
def test_stacked_trials_equal_one_trial_runs_bitwise(case, filtered):
    obj, size = _engine_cases()[case]
    count, steps = 6, 8
    rng = np.random.default_rng(case)
    theta0 = rng.uniform(-1.0, 1.0, size=(count, obj.d))
    theta0[2] = 1e308  # the batch objective overflows: trial 2 fails at step 1
    batches = rng.integers(0, obj.n, size=(count, steps, size))
    cfg = OptimizerConfig(batch_size=size, max_steps=steps,
                          filter=FilterConfig(alpha=0.9, beta=0.2, dim=obj.d) if filtered else None)
    stacked = run_trials(obj, theta0, batches, cfg)
    assert stacked.failed_step.tolist() == [0, 0, 1, 0, 0, 0]
    assert isinstance(stacked.errors[2], NumericalError)
    _assert_members_equal_one_trial_runs(obj, theta0, batches, cfg, stacked)
    # A stack that shares one (d,) theta0.
    shared = run_trials(obj, theta0[0], batches, cfg)
    _assert_members_equal_one_trial_runs(obj, theta0[0], batches, cfg, shared)
    # The one-trial entry point is the same engine.
    trace = run(obj, theta0[0], cfg, derive_stream(5, 1, 0))
    again = run_trials(obj, theta0[0], np.array([[rec.batch for rec in trace.records]]), cfg)
    assert np.array_equal(np.array([rec.theta_after for rec in trace.records]),
                          again.thetas[0, 1:])


@pytest.mark.parametrize("filtered", [False, True])
@pytest.mark.parametrize("case", [0, 2])
def test_chained_one_step_calls_reproduce_a_run_bitwise(case, filtered):
    # d = 2 least squares and d = 5 logistic regression.
    obj, size = _engine_cases()[case]
    cfg = OptimizerConfig(batch_size=size, max_steps=12,
                          filter=FilterConfig(alpha=0.9, beta=0.2, dim=obj.d) if filtered else None)
    theta0 = np.linspace(0.5, -0.5, obj.d)
    trace = run(obj, theta0, cfg, derive_stream(3, 1, case))
    theta, belief = theta0, None
    for rec in trace.records:
        if filtered:
            step, belief = filtered_step(obj, theta, rec.batch, belief, cfg, t=rec.t)
        else:
            step = unfiltered_step(obj, theta, rec.batch, cfg, t=rec.t)
        assert step.t == rec.t
        for name in ("theta_before", "theta_after", "direction", "newton_direction", "batch"):
            assert np.array_equal(getattr(step, name), getattr(rec, name))
        assert step.step_length == rec.step_length
        assert step.rho_m == rec.rho_m and step.fallback_fired == rec.fallback_fired
        assert (rec.rho_m is None) == (not filtered or rec.t == 1)
        theta = step.theta_after


@pytest.mark.parametrize("case", range(3))
def test_trace_records_rho_source_and_armijo_outcome(case):
    obj, size = _engine_cases()[case]
    count, steps, c = 5, 8, 0.95
    rng = np.random.default_rng(20 + case)
    theta0 = rng.uniform(-1.0, 1.0, size=(count, obj.d))
    batches = rng.integers(0, obj.n, size=(count, steps, size))
    fcfg = FilterConfig(alpha=0.9, beta=0.2, dim=obj.d)
    satisfied = []
    for filt in (None, fcfg):
        cfg = OptimizerConfig(batch_size=size, max_steps=steps, filter=filt, armijo_c=c)
        trace = run_trials(obj, theta0, batches, cfg)
        assert not trace.failed_step.any()
        lam = trace.sigma_lam_max
        if filt is None:
            assert np.isnan(lam).all()
        else:
            # Defined at every filter update, and rho is exactly its image.
            assert np.isnan(lam[:, 0]).all() and not np.isnan(lam[:, 1:]).any()
            rho = fcfg.alpha * lam / (fcfg.alpha ** 2 * lam + fcfg.beta)
            assert np.array_equal(rho, trace.rho, equal_nan=True)
        # The flag is the sufficient-decrease test at the step length taken.
        for i in range(count):
            for t in range(1, steps + 1):
                idx = np.sort(batches[i, t - 1])
                points = trace.thetas[i, t - 1:t + 1]
                sums = obj.batch_sums(points[None], idx[None, None], derivatives=False)[0]
                before, after = sums[0] / size
                v = trace.directions[i, t - 1]
                f = evaluate_batch(obj, points[0], idx).f
                lam_t = trace.step_lengths[i, t - 1]
                passed = after - before <= (c * lam_t) * np.vecdot(v, f)
                assert trace.armijo_satisfied[i, t - 1] == passed
        satisfied.append(trace.armijo_satisfied)
    satisfied = np.concatenate(satisfied)
    assert satisfied.any() and not satisfied.all()


def test_ridge_eps_marks_exactly_the_batch_hessians_that_are_not_pd():
    # At batch size 2 and d = 2 a batch that draws one sample twice has a
    # rank-one Hessian, which only the ridge makes PD. A least-squares
    # Hessian does not depend on theta, so it is recomputed at 0.
    rng = np.random.default_rng(30)
    obj = make_ls(rng, n=20, d=2)
    count, steps, size = 200, 10, 2
    batches = rng.integers(0, obj.n, size=(count, steps, size))
    hess = obj.batch_sums(np.zeros(obj.d), np.sort(batches, axis=-1))[2]
    with np.errstate(invalid="ignore"):
        pd = pd_mask(sym(hess / size))
    assert 0 < (~pd).sum() < pd.size
    for filt in (None, FilterConfig(alpha=0.9, beta=0.2, dim=obj.d)):
        cfg = OptimizerConfig(batch_size=size, max_steps=steps, filter=filt)
        trace = run_trials(obj, np.array([2.0, -1.0]), batches, cfg)
        assert not trace.failed_step.any()
        assert np.array_equal(trace.ridge_eps > 0, ~pd)
        assert (trace.ridge_eps >= 0).all()


# ---------------------------------------------------------------------------
# the five-point search
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("filtered", [False, True])
@pytest.mark.parametrize("case", range(3))
def test_each_step_evaluates_the_origin_once_and_the_candidates_once(case, filtered):
    # The line search starts from the batch value and gradient of the
    # evaluation. A GLM's search calls the objective once, on the
    # (T, 5, d) candidates; least squares forms the decreases from its
    # exact quadratic and evaluates no candidate.
    obj, size = _engine_cases()[case]
    count, steps = 4, 5
    rng = np.random.default_rng(50 + case)
    theta0 = rng.uniform(-1.0, 1.0, size=(count, obj.d))
    batches = rng.integers(0, obj.n, size=(count, steps, size))
    cfg = OptimizerConfig(batch_size=size, max_steps=steps,
                          filter=FilterConfig(alpha=0.9, beta=0.2, dim=obj.d) if filtered else None)
    calls = []
    batch_sums = obj.batch_sums

    def counted(theta, idx, derivatives=True):
        calls.append((np.array(theta), derivatives))
        return batch_sums(theta, idx, derivatives)

    obj.batch_sums = counted
    trace = run_trials(obj, theta0, batches, cfg)
    assert not trace.failed_step.any()
    quadratic = isinstance(obj, LeastSquaresObjective)
    per_step = [((count, obj.d), True)] + ([] if quadratic else [((count, 5, obj.d), False)])
    assert [(theta.shape, derivatives) for theta, derivatives in calls] == per_step * steps
    lams = STEP_LENGTHS
    for s in range(steps):
        step = calls[len(per_step) * s:]
        assert np.array_equal(step[0][0], trace.thetas[:, s])
        if not quadratic:
            candidates = trace.thetas[:, s, None, :] + lams[:, None] * trace.directions[:, s, None, :]
            assert np.array_equal(step[1][0], candidates)


def _ridge_case():
    # At batch size 2 and d = 2 a batch that draws one sample twice has a
    # rank-one Hessian, which only the ridge makes PD.
    return make_ls(np.random.default_rng(30), n=20, d=2), 2


@pytest.mark.parametrize("case", ["ls-d2", "glm-d5", "ls-d20", "ls-d2-ridge"])
def test_every_step_length_is_the_one_point_search(case):
    # The stacked search reads the origin from the evaluation, and takes
    # the decreases of least squares from its exact quadratic and those
    # of a GLM from the candidate predictors formed by matrix products;
    # armijo_backtrack below evaluates the origin and every candidate
    # one point at a time, with one dot per row. Both must take the same
    # step lengths, and the trace's flag must be the sufficient-decrease
    # test of the evaluated objective at the step length taken.
    obj, size = {"ls-d2": _engine_cases()[0], "glm-d5": _engine_cases()[2],
                 "ls-d20": _engine_cases()[1], "ls-d2-ridge": _ridge_case()}[case]
    count, steps, c = 20 if case == "ls-d2-ridge" else 6, 10, 0.95
    rng = np.random.default_rng(60)
    theta0 = rng.uniform(-1.0, 1.0, size=(count, obj.d))
    batches = rng.integers(0, obj.n, size=(count, steps, size))
    for filt in (None, FilterConfig(alpha=0.9, beta=0.2, dim=obj.d)):
        cfg = OptimizerConfig(batch_size=size, max_steps=steps, filter=filt, armijo_c=c)
        trace = run_trials(obj, theta0, batches, cfg)
        assert not trace.failed_step.any()
        assert (trace.ridge_eps > 0).sum() >= 5 if case == "ls-d2-ridge" else \
            not trace.ridge_eps.any()
        expected = np.empty_like(trace.step_lengths)
        satisfied = np.empty_like(trace.armijo_satisfied)
        for i in range(count):
            for s in range(steps):
                idx = np.sort(batches[i, s])
                theta, v = trace.thetas[i, s], trace.directions[i, s]
                f = evaluate_batch(obj, theta, idx).f

                def value(p):
                    return obj.batch_sums(p, idx, derivatives=False)[0] / size

                expected[i, s] = lam = armijo_backtrack(
                    lambda points: np.array([value(p) for p in points]), theta, v, f, c=c)
                before, after = (value(p) for p in (theta, theta + lam * v))
                satisfied[i, s] = after - before <= (c * lam) * np.vecdot(v, f)
        assert np.array_equal(trace.step_lengths, expected)
        assert np.array_equal(trace.armijo_satisfied, satisfied)


# ---------------------------------------------------------------------------
# what the trace says of each step
# ---------------------------------------------------------------------------

SETTINGS = {
    "default": dict(trials=40),
    "ridge-d2": dict(trials=40, n=20, batch_size=2),
    "paired-d2": {},
    "paired-wide": dict(trials=20, n=2000, d=20, batch_size=100),
}


def _setting(name, seed=0):
    """(obj, experiment config, batches) of a benchmark run: 40 trials at
    the default settings or at the golden ridge-d2 settings (n 20, batch
    2), all 1000 at the defaults (paired-d2), or 20 at the paired-wide
    settings (n 2000, d 20, batch 100)."""
    cfg = ExperimentConfig(master_seed=seed, **SETTINGS[name])
    obj = LeastSquaresObjective(generate_data(cfg, derive_stream(cfg.master_seed, DATA_STREAM)))
    return obj, cfg, _draw_batches(cfg)


def _trace(setting, filtered, seed=0):
    obj, cfg, batches = _setting(setting, seed)
    trace = run_trials(obj, cfg.theta0, batches, cfg.optimizer_config(filtered))
    assert not trace.failed_step.any()
    return trace


@pytest.mark.parametrize("setting", ["default", "ridge-d2"])
def test_rho_is_finite_exactly_at_filter_updates(setting):
    # A step's record holds rho_m and fallback_fired exactly where the
    # trace's rho is not nan, so rho must mark the filter updates.
    assert np.isnan(_trace(setting, False).rho).all()
    trace = _trace(setting, True)
    fcfg = _setting(setting)[1].filter_config()
    update = np.ones(trace.rho.shape, dtype=bool)
    update[:, 0] = False
    assert np.array_equal(np.isfinite(trace.rho), update)
    lam = trace.sigma_lam_max[update]
    assert np.array_equal(trace.rho[update],
                          fcfg.alpha * lam / (fcfg.alpha ** 2 * lam + fcfg.beta))


@pytest.mark.parametrize("seed", [0, 4242])
@pytest.mark.parametrize("setting", ["paired-d2", "ridge-d2", "paired-wide"])
def test_rho_is_below_one_exactly_below_the_contraction_threshold(setting, seed):
    # rho_t = alpha lam / (alpha^2 lam + beta) increases with lam = lam_max(Sigma_{t-1})
    # and is 1 at lam = beta / (alpha (1 - alpha)), 2.22 at the defaults.
    trace = _trace(setting, True, seed)
    fcfg = _setting(setting, seed)[1].filter_config()
    threshold = fcfg.beta / (fcfg.alpha * (1.0 - fcfg.alpha))
    update = ~np.isnan(trace.rho)
    contracts = trace.rho[update] < 1.0
    assert np.array_equal(contracts, trace.sigma_lam_max[update] < threshold)
    # Both sides of the threshold are met, so the statement is not empty.
    assert contracts.any() and not contracts.all()


@pytest.mark.parametrize("setting", ["default", "ridge-d2"])
def test_unfiltered_least_squares_takes_the_fixed_step(setting):
    # Along -Q^-1 f the exact quadratic passes the c = 0.95 test exactly
    # when lam <= 2 (1 - c) = 0.1, so of the five lengths only 1/16 does.
    trace = _trace(setting, False)
    assert (trace.step_lengths == 1.0 / 16.0).all()
    assert trace.armijo_satisfied.all()
    assert setting == "default" or trace.ridge_eps.any()


@pytest.mark.parametrize("setting", ["default", "ridge-d2"])
def test_unfiltered_step_ignores_the_filter(setting):
    obj, cfg, batches = _setting(setting)
    for batch in batches[:3].reshape(-1, cfg.batch_size):
        plain = unfiltered_step(obj, cfg.theta0, batch, cfg.optimizer_config(False))
        _assert_same_record(unfiltered_step(obj, cfg.theta0, batch, cfg.optimizer_config(True)),
                            plain)
        assert plain.rho_m is None and plain.fallback_fired is None


def test_filtered_step_needs_a_filter():
    obj, cfg, batches = _setting("ridge-d2")
    with pytest.raises(ValueError, match="filter"):
        filtered_step(obj, cfg.theta0, batches[0, 0], None, cfg.optimizer_config(False))


# ---------------------------------------------------------------------------
# records formed on read
# ---------------------------------------------------------------------------

RECORD_ARRAYS = ("theta_before", "theta_after", "direction", "newton_direction", "batch")


def _assert_same_record(a, b):
    assert (a.t, a.step_length, a.rho_m, a.fallback_fired) == \
        (b.t, b.step_length, b.rho_m, b.fallback_fired)
    for name in RECORD_ARRAYS:
        assert np.array_equal(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize("filtered", [False, True])
def test_run_records_are_the_engine_trace_bitwise(filtered):
    rng = np.random.default_rng(70)
    obj = make_ls(rng, d=3)
    steps, size = 12, 5
    cfg = OptimizerConfig(batch_size=size, max_steps=steps,
                          filter=FilterConfig(alpha=0.9, beta=0.2, dim=obj.d) if filtered else None)
    theta0 = np.array([1.0, -2.0, 0.5])
    trace = run(obj, theta0, cfg, derive_stream(3, 1, 0))
    batches = sample_batch(derive_stream(3, 1, 0), obj.n, steps * size).reshape(1, steps, size)
    stacked = run_trials(obj, theta0, batches, cfg)
    assert len(trace.records) == steps
    for s, rec in enumerate(trace.records):
        update = filtered and s > 0
        assert rec.t == s + 1
        assert rec.step_length == stacked.step_lengths[0, s]
        assert rec.rho_m == (float(stacked.rho[0, s]) if update else None)
        assert rec.fallback_fired == (bool(stacked.fallback[0, s]) if update else None)
        for name, want in (("theta_before", stacked.thetas[0, s]),
                           ("theta_after", stacked.thetas[0, s + 1]),
                           ("direction", stacked.directions[0, s]),
                           ("newton_direction", stacked.newton_directions[0, s]),
                           ("batch", batches[0, s])):
            assert np.array_equal(getattr(rec, name), want)


def test_run_records_behave_as_a_list():
    rng = np.random.default_rng(71)
    obj = make_ls(rng)
    cfg = OptimizerConfig(batch_size=5, max_steps=7,
                          filter=FilterConfig(alpha=0.9, beta=0.2, dim=obj.d))
    records = run(obj, np.array([1.5, -1.0]), cfg, derive_stream(1, 1, 0)).records
    listed = list(records)
    assert len(records) == len(listed) == 7
    assert [rec.t for rec in records] == list(range(1, 8))
    for index in range(-7, 7):
        _assert_same_record(records[index], listed[index])
    for index in (7, -8):
        with pytest.raises(IndexError):
            records[index]
    # An index is an integer: a float or a slice is refused.
    for index in (1.0, slice(2, 5), slice(5, 2)):
        with pytest.raises(TypeError):
            records[index]
    # Iterating twice reads the same records again.
    for a, b in zip(records, listed):
        _assert_same_record(a, b)
    assert [rec.t for rec in reversed(records)] == list(range(7, 0, -1))


def test_step_error_records_stop_before_the_failed_step():
    obj = FailsAfter(trigger=0.93)
    cfg = OptimizerConfig(batch_size=2, max_steps=5)
    with pytest.raises(StepError) as excinfo:
        run(obj, np.array([1.0]), cfg, derive_stream(0, 1, 0))
    records = excinfo.value.partial_trace.records
    assert [rec.t for rec in records] == [1, 2]
    assert records[-1].t == excinfo.value.step - 1
    with pytest.raises(IndexError):
        records[2]


def test_a_run_keeps_its_arrays_and_forms_no_records():
    # A 300-step run at d = 5 keeps its one-run trace and batches (about
    # 330 bytes a step); forming every StepRecord up front kept about
    # 1,050 bytes a step.
    obj, size = _engine_cases()[2]
    steps = 300
    cfg = OptimizerConfig(batch_size=size, max_steps=steps,
                          filter=FilterConfig(alpha=0.9, beta=0.2, dim=obj.d))
    theta0 = np.zeros(obj.d)
    run(obj, theta0, cfg, derive_stream(0, 1, 0))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = run(obj, theta0, cfg, derive_stream(0, 1, 1))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace.records) == steps
    assert retained < 500 * steps
