import numpy as np
import pytest
from numpy.testing import assert_allclose

from stochnewton.filtering import FilterConfig, GaussianBelief, dkf_update_info, init_belief
from stochnewton.objectives import (
    LeastSquaresData,
    LeastSquaresObjective,
    NumericalError,
    SubsampledObjective,
    evaluate_batch,
)
from stochnewton.linalg import solve_spd
from stochnewton.optim import (
    OptimizerConfig,
    StepError,
    filtered_step,
    run,
    unfiltered_step,
)
from stochnewton.streams import derive_stream


class ScalarQuadratic(SubsampledObjective):
    """Every sample shares log g(theta) = theta^2 / 2 (one-dimensional)."""

    def __init__(self, n=10):
        self.n = n
        self.d = 1

    def value_grad_hess(self, theta, j):
        th = float(theta[0])
        return 0.5 * th * th, np.array([th]), np.array([[1.0]])


class FailsAfter(SubsampledObjective):
    """Returns a non-finite gradient once theta moves below a trigger.

    Values stay finite so the line search is unaffected; the failure
    surfaces in the batch evaluation of a later step.
    """

    def __init__(self, trigger):
        self.n = 4
        self.d = 1
        self.trigger = trigger

    def value_grad_hess(self, theta, j):
        th = float(theta[0])
        grad = np.nan if th < self.trigger else th
        return 0.5 * th * th, np.array([grad]), np.array([[1.0]])


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

        def value_grad_hess(self, theta, j):
            return 0.0, np.array([0.3]), np.array([[q]])

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
        assert np.array_equal(rec.direction, -solve_spd(belief.sigma, belief.mu))
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
