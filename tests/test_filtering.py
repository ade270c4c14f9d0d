from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.stats import multivariate_normal

from stochnewton.filtering import (
    FilterConfig,
    FilterDivergenceError,
    GaussianBelief,
    _updates,
    check_contraction_bound,
    dkf_update,
    dkf_update_info,
    init_belief,
    momentum_matrix,
    unrolled_direction,
)
from stochnewton.linalg import PositiveDefiniteError, solve_spd, spectral_norm
from stochnewton.objectives import BatchObservation, LeastSquaresData, LeastSquaresObjective
from stochnewton.optim import OptimizerConfig, filtered_step

from helpers import eig_extremes, random_spd


def obs(f, q):
    f = np.atleast_1d(np.asarray(f, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    return BatchObservation(f=f, q=q, value=0.0)


def random_obs(rng, d, lam_min=0.3, lam_max=3.0):
    return obs(rng.standard_normal(d), random_spd(rng, d, lam_min, lam_max))


def posterior_by_density_multiplication(cfg, prev, observation):
    """Oracle: multiply the three Gaussian factors explicitly.

    Uses plain LU inverses rather than the Cholesky kernel, applying the
    same Q-replacement rule via an eigenvalue PD test.
    """
    d = cfg.dim
    eye = np.eye(d)
    s_inv = (1.0 / cfg.s_scalar) * eye
    q = np.asarray(observation.q, dtype=float)
    q_inv = np.linalg.inv(q)
    if np.min(np.linalg.eigvalsh(q_inv - s_inv)) <= 0.0:
        q_inv = q_inv + s_inv
    r = cfg.alpha ** 2 * prev.sigma + cfg.beta * eye
    r_inv = np.linalg.inv(r)
    precision = q_inv + r_inv - s_inv
    sigma = np.linalg.inv(precision)
    mu = np.linalg.solve(precision, q_inv @ observation.f + r_inv @ (cfg.alpha * prev.mu))
    return mu, 0.5 * (sigma + sigma.T)


# ---------------------------------------------------------------------------
# FilterConfig
# ---------------------------------------------------------------------------

def test_config_s_scalar():
    cfg = FilterConfig(alpha=0.9, beta=0.2, dim=1)
    assert cfg.s_scalar == pytest.approx(0.2 / 0.19)
    # Stationarity: s = alpha^2 s + beta.
    assert cfg.alpha ** 2 * cfg.s_scalar + cfg.beta == pytest.approx(cfg.s_scalar)


def test_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(alpha=1.0, beta=0.2, dim=1)
    with pytest.raises(ValueError):
        FilterConfig(alpha=0.5, beta=0.0, dim=1)
    with pytest.raises(ValueError):
        FilterConfig(alpha=0.5, beta=0.2, dim=0)


@pytest.mark.parametrize("alpha, beta", [(0.5, np.inf), (0.5, np.nan), (np.nan, 0.2)])
def test_config_refuses_non_finite_parameters(alpha, beta):
    with pytest.raises(ValueError):
        FilterConfig(alpha=alpha, beta=beta, dim=1)


# ---------------------------------------------------------------------------
# init_belief
# ---------------------------------------------------------------------------

def test_init_belief_copies_observation():
    o = obs([1.0, 2.0], np.eye(2))
    belief = init_belief(o)
    assert np.array_equal(belief.mu, np.array([1.0, 2.0]))
    assert np.array_equal(belief.sigma, o.q)


def test_init_belief_scalar():
    belief = init_belief(obs([0.5], [[2.0]]))
    assert belief.mu[0] == 0.5
    assert belief.sigma[0, 0] == 2.0


# ---------------------------------------------------------------------------
# dkf_update
# ---------------------------------------------------------------------------

def test_stationary_prior_returns_q_exactly():
    cfg = FilterConfig(alpha=0.9, beta=0.2, dim=1)
    s = cfg.s_scalar
    prev = GaussianBelief(mu=np.array([1.0]), sigma=np.array([[s]]))
    q = 0.4  # q < s keeps the PD branch
    upd = dkf_update_info(cfg, prev, obs([0.5], [[q]]))
    assert not upd.fallback_fired
    assert abs(upd.belief.sigma[0, 0] - q) <= 1e-12
    assert upd.belief.mu[0] == pytest.approx(0.5 + q * 0.9 * 1.0 / s, rel=1e-12)


def test_stationary_prior_matrix_case():
    cfg = FilterConfig(alpha=0.7, beta=0.3, dim=3)
    s = cfg.s_scalar
    q = 0.5 * np.eye(3)
    prev = GaussianBelief(mu=np.zeros(3), sigma=s * np.eye(3))
    out = dkf_update(cfg, prev, obs(np.zeros(3), q))
    assert np.max(np.abs(out.sigma - q)) <= 1e-12


def stack_of_one(x):
    """The belief or observation ``x`` as a stack of one trial."""
    return replace(x, **{f.name: np.asarray(getattr(x, f.name), dtype=float)[None] for f in fields(x)})


@pytest.mark.parametrize("d", [3, 6])
def test_direction_is_the_information_vector(d):
    # The step direction -Sigma_t^-1 mu_t is taken as the negative
    # information vector -(Q_eff^-1 f_t + alpha R^-1 mu_{t-1}), not by
    # solving Sigma_t back; the two agree to rounding.
    rng = np.random.default_rng(5)
    cfg = FilterConfig(alpha=0.9, beta=0.2, dim=d)
    belief = init_belief(random_obs(rng, d))
    for _ in range(5):
        observation = random_obs(rng, d)
        info = dkf_update_info(cfg, belief, observation)
        with np.errstate(invalid="ignore"):
            upd = _updates(cfg, stack_of_one(belief), stack_of_one(observation))[0]
        direction = upd.direction[0]
        r = cfg.alpha ** 2 * belief.sigma + cfg.beta * np.eye(d)
        information = info.q_inv_effective @ observation.f + cfg.alpha * np.linalg.solve(r, belief.mu)
        assert_allclose(direction, -information, rtol=1e-12, atol=0)
        solved = -solve_spd(info.belief.sigma, info.belief.mu)
        assert np.linalg.norm(direction - solved) <= 1e-12 * np.linalg.norm(solved)
        belief = info.belief


def test_a_prior_that_is_not_pd_raises_where_it_enters():
    # A belief is the plain (mu, Sigma) and is not checked when built;
    # the one-trial entry points check a caller's prior covariance.
    cfg = FilterConfig(alpha=0.9, beta=0.2, dim=2)
    xs = np.random.default_rng(5).standard_normal((10, 2))
    obj = LeastSquaresObjective(LeastSquaresData(xs=xs, ys=xs @ np.ones(2)))
    for sigma in (np.diag([1.0, 0.0]), -0.1 * np.eye(2)):
        prior = GaussianBelief(mu=np.zeros(2), sigma=sigma)
        with pytest.raises(PositiveDefiniteError):
            dkf_update_info(cfg, prior, obs([0.5, -0.2], np.eye(2)))
        with pytest.raises(PositiveDefiniteError):
            filtered_step(obj, np.zeros(2), np.array([0, 1, 2]), prior,
                          OptimizerConfig(batch_size=3, max_steps=1, filter=cfg))


def test_update_matches_density_multiplication_oracle():
    rng = np.random.default_rng(0)
    hits = {True: 0, False: 0}
    for _ in range(200):
        d = int(rng.integers(1, 4))
        alpha = float(rng.uniform(0.2, 0.95))
        beta = float(rng.uniform(0.1, 1.5))
        cfg = FilterConfig(alpha=alpha, beta=beta, dim=d)
        prev = GaussianBelief(mu=rng.standard_normal(d), sigma=random_spd(rng, d))
        observation = random_obs(rng, d)
        upd = dkf_update_info(cfg, prev, observation)
        hits[upd.fallback_fired] += 1
        mu, sigma = posterior_by_density_multiplication(cfg, prev, observation)
        scale = max(1.0, np.max(np.abs(sigma)), np.max(np.abs(mu)))
        assert np.max(np.abs(upd.belief.sigma - sigma)) <= 1e-9 * scale
        assert np.max(np.abs(upd.belief.mu - mu)) <= 1e-9 * scale
    assert hits[True] > 10 and hits[False] > 10


def test_log_density_identity_holds_pointwise():
    # log posterior(z) - [log N(z; f, Q~) + log N(z; a mu, R) - log N(z; 0, S)]
    # must not depend on z.
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        cfg = FilterConfig(alpha=0.8, beta=0.4, dim=d)
        prev = GaussianBelief(mu=rng.standard_normal(d), sigma=random_spd(rng, d))
        observation = random_obs(rng, d)
        upd = dkf_update_info(cfg, prev, observation)
        eye = np.eye(d)
        q_eff = np.linalg.inv(upd.q_inv_effective)
        r = cfg.alpha ** 2 * prev.sigma + cfg.beta * eye
        post = multivariate_normal(mean=upd.belief.mu, cov=upd.belief.sigma)
        meas = multivariate_normal(mean=observation.f, cov=q_eff)
        pred = multivariate_normal(mean=cfg.alpha * prev.mu, cov=r)
        prior = multivariate_normal(mean=np.zeros(d), cov=cfg.s_scalar * eye)
        consts = []
        for _ in range(8):
            z = rng.standard_normal(d)
            consts.append(
                post.logpdf(z) - meas.logpdf(z) - pred.logpdf(z) + prior.logpdf(z)
            )
        assert np.max(consts) - np.min(consts) <= 1e-9


def test_fallback_branch_equals_two_factor_posterior():
    # When the replacement fires, the covariance collapses to
    # (Q_orig^-1 + R^-1)^-1.
    rng = np.random.default_rng(2)
    cfg = FilterConfig(alpha=0.9, beta=0.2, dim=2)
    found = 0
    for _ in range(100):
        prev = GaussianBelief(mu=rng.standard_normal(2), sigma=random_spd(rng, 2))
        observation = random_obs(rng, 2, lam_min=1.5, lam_max=4.0)
        upd = dkf_update_info(cfg, prev, observation)
        if not upd.fallback_fired:
            continue
        found += 1
        r = cfg.alpha ** 2 * prev.sigma + cfg.beta * np.eye(2)
        expected = np.linalg.inv(np.linalg.inv(observation.q) + np.linalg.inv(r))
        assert np.max(np.abs(upd.belief.sigma - expected)) <= 1e-10
    assert found > 50


def test_update_rejects_mismatched_shapes():
    cfg = FilterConfig(alpha=0.9, beta=0.2, dim=2)
    prev = GaussianBelief(mu=np.zeros(2), sigma=np.eye(2))
    with pytest.raises(ValueError):
        dkf_update(cfg, prev, obs(np.zeros(3), np.eye(3)))


# ---------------------------------------------------------------------------
# momentum matrix
# ---------------------------------------------------------------------------

def test_momentum_isotropic_case():
    cfg = FilterConfig(alpha=0.9, beta=0.2, dim=2)
    mm = momentum_matrix(cfg, np.eye(2))
    assert_allclose(mm.m, (0.9 / 1.01) * np.eye(2), rtol=1e-12)
    assert mm.rho == pytest.approx(0.9 / 1.01)


def test_momentum_at_stationarity_is_alpha():
    for alpha, beta in [(0.9, 0.2), (0.5, 1.0), (0.3, 0.05)]:
        cfg = FilterConfig(alpha=alpha, beta=beta, dim=3)
        mm = momentum_matrix(cfg, cfg.s_scalar * np.eye(3))
        assert mm.rho == pytest.approx(alpha, rel=1e-10)


def test_momentum_rho_cache_matches_spectral_norm():
    rng = np.random.default_rng(3)
    cfg = FilterConfig(alpha=0.6, beta=0.3, dim=4)
    for _ in range(20):
        mm = momentum_matrix(cfg, random_spd(rng, 4))
        assert abs(mm.rho - spectral_norm(mm.m)) <= 1e-10


def test_momentum_contraction_with_conservative_parameters():
    # alpha = 1/2 and beta = lam_max always give rho < 1.
    rng = np.random.default_rng(4)
    for _ in range(30):
        sigma = random_spd(rng, 3, lam_min=0.05, lam_max=5.0)
        _, lam_max = eig_extremes(sigma)
        cfg = FilterConfig(alpha=0.5, beta=lam_max, dim=3)
        assert momentum_matrix(cfg, sigma).rho < 1.0


def test_momentum_instancewise_bound():
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        cfg = FilterConfig(alpha=float(rng.uniform(0.1, 0.95)),
                           beta=float(rng.uniform(0.05, 1.0)), dim=d)
        sigma = random_spd(rng, d, lam_min=0.1, lam_max=4.0)
        lo, hi = eig_extremes(sigma)
        bound = cfg.alpha * hi / (cfg.alpha ** 2 * lo + cfg.beta)
        assert momentum_matrix(cfg, sigma).rho <= bound + 1e-9


# ---------------------------------------------------------------------------
# contraction bound checker
# ---------------------------------------------------------------------------

def test_contraction_bound_examples():
    cfg = FilterConfig(alpha=0.9, beta=0.2, dim=1)
    check = check_contraction_bound(cfg, 1.0, 1.0)
    assert check.satisfied
    assert check.bound == pytest.approx(0.9 / 1.01)

    bad = check_contraction_bound(cfg, 0.01, 100.0)
    assert not bad.satisfied
    assert bad.bound == pytest.approx(90.0 / (0.81 * 0.01 + 0.2))


def test_contraction_conservative_choice_always_satisfied():
    rng = np.random.default_rng(6)
    for _ in range(50):
        lam_min = float(rng.uniform(0.01, 2.0))
        lam_max = lam_min * float(rng.uniform(1.0, 10.0))
        cfg = FilterConfig(alpha=0.5, beta=lam_max, dim=1)
        assert check_contraction_bound(cfg, lam_min, lam_max).satisfied


def test_contraction_bound_input_validation():
    cfg = FilterConfig(alpha=0.9, beta=0.2, dim=1)
    with pytest.raises(ValueError):
        check_contraction_bound(cfg, 0.0, 1.0)
    with pytest.raises(ValueError):
        check_contraction_bound(cfg, 2.0, 1.0)


@pytest.mark.parametrize("lam_min, lam_max", [(0.3, np.inf), (np.inf, np.inf), (np.nan, 1.0),
                                              (0.3, np.nan)])
def test_contraction_bound_refuses_non_finite_bounds(lam_min, lam_max):
    cfg = FilterConfig(alpha=0.9, beta=0.2, dim=1)
    with pytest.raises(ValueError, match="finite"):
        check_contraction_bound(cfg, lam_min, lam_max)


# ---------------------------------------------------------------------------
# unrolled direction
# ---------------------------------------------------------------------------

def test_unrolled_single_observation():
    cfg = FilterConfig(alpha=0.9, beta=0.2, dim=2)
    o = random_obs(np.random.default_rng(7), 2)
    assert_allclose(unrolled_direction([o], cfg), solve_spd(o.q, o.f))


def test_unrolled_matches_recursion():
    rng = np.random.default_rng(8)
    for _ in range(30):
        d = int(rng.integers(1, 5))
        cfg = FilterConfig(alpha=float(rng.uniform(0.2, 0.95)),
                           beta=float(rng.uniform(0.1, 1.0)), dim=d)
        seq = [random_obs(rng, d) for _ in range(int(rng.integers(2, 12)))]
        belief = init_belief(seq[0])
        for o in seq[1:]:
            belief = dkf_update(cfg, belief, o)
        recursive = solve_spd(belief.sigma, belief.mu)
        unrolled = unrolled_direction(seq, cfg)
        assert np.linalg.norm(unrolled - recursive) <= 1e-8 * max(1.0, np.linalg.norm(recursive))


def test_unrolled_zero_gradients_give_zero():
    rng = np.random.default_rng(9)
    cfg = FilterConfig(alpha=0.8, beta=0.3, dim=3)
    seq = [obs(np.zeros(3), random_spd(rng, 3)) for _ in range(6)]
    assert_allclose(unrolled_direction(seq, cfg), np.zeros(3))


def test_unrolled_rejects_empty_sequence():
    cfg = FilterConfig(alpha=0.8, beta=0.3, dim=2)
    with pytest.raises(ValueError):
        unrolled_direction([], cfg)


# ---------------------------------------------------------------------------
# momentum decay along filter runs
# ---------------------------------------------------------------------------

def test_rho_bound_holds_along_filter_runs():
    rng = np.random.default_rng(10)
    cfg = FilterConfig(alpha=0.9, beta=0.2, dim=2)
    belief = init_belief(random_obs(rng, 2))
    for _ in range(30):
        prev_sigma = belief.sigma
        upd = dkf_update_info(cfg, belief, random_obs(rng, 2))
        lo, hi = eig_extremes(prev_sigma)
        bound = cfg.alpha * hi / (cfg.alpha ** 2 * lo + cfg.beta)
        assert upd.momentum.rho <= bound + 1e-9
        belief = upd.belief


# ---------------------------------------------------------------------------
# the stacked update (properties over random stacks)
# ---------------------------------------------------------------------------

@st.composite
def filter_stacks(draw, q_scale=(0.05, 5.0)):
    """A filter config with a stack of prior beliefs and batch observations."""
    d = draw(st.integers(1, 4))
    count = draw(st.integers(1, 5))
    cfg = FilterConfig(alpha=draw(st.floats(0.05, 0.95)), beta=draw(st.floats(0.05, 1.5)), dim=d)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sigma = np.array([random_spd(rng, d, 0.1, 4.0) for _ in range(count)])
    q = np.array([random_spd(rng, d, *q_scale) for _ in range(count)])
    prev = GaussianBelief(mu=rng.standard_normal((count, d)), sigma=sigma)
    observation = BatchObservation(f=rng.standard_normal((count, d)), q=q, value=np.zeros(count))
    return cfg, prev, observation


def stacked_update(cfg, prev, observation):
    # The fallback test fails for many members by design; numpy flags
    # each such factorization as an invalid value.
    with np.errstate(invalid="ignore"):
        return _updates(cfg, prev, observation)


@settings(max_examples=60, deadline=None)
@given(filter_stacks())
def test_stacked_update_preserves_spd(stack):
    cfg, prev, observation = stack
    upd, failures = stacked_update(cfg, prev, observation)
    assert not failures
    sigma = upd.belief.sigma
    assert np.array_equal(sigma, sigma.swapaxes(-1, -2))
    assert np.all(np.linalg.eigvalsh(sigma) > 0.0)


@settings(max_examples=60, deadline=None)
@given(filter_stacks())
def test_stacked_update_equals_one_trial_updates_bitwise(stack):
    cfg, prev, observation = stack
    upd, _ = stacked_update(cfg, prev, observation)
    for i in range(len(prev.mu)):
        member = (GaussianBelief(mu=prev.mu[i], sigma=prev.sigma[i]),
                  BatchObservation(f=observation.f[i], q=observation.q[i], value=0.0))
        one = dkf_update_info(cfg, *member)
        alone, _ = stacked_update(cfg, *map(stack_of_one, member))
        assert np.array_equal(alone.direction[0], upd.direction[i])
        assert np.array_equal(one.belief.mu, upd.belief.mu[i])
        assert np.array_equal(one.belief.sigma, upd.belief.sigma[i])
        assert one.fallback_fired == upd.fallback_fired[i]
        assert one.momentum.rho == upd.rho[i]
        # One M_t: the update's and momentum_matrix's agree bit for bit.
        formed = momentum_matrix(cfg, prev.sigma[i])
        assert np.array_equal(one.momentum.m, formed.m)
        assert one.momentum.rho == formed.rho


@settings(max_examples=60, deadline=None)
@given(filter_stacks(q_scale=(0.05, 0.9)))
def test_stacked_stationary_prior_returns_q(stack):
    # From the stationary covariance S = s I the prediction is R = S, so
    # the posterior covariance is Q itself whenever Q < S (no fallback).
    cfg, prev, observation = stack
    s = cfg.s_scalar
    observation = BatchObservation(f=observation.f, q=s * observation.q / 5.0, value=observation.value)
    stationary = s * np.broadcast_to(np.eye(cfg.dim), prev.sigma.shape)
    prev = GaussianBelief(mu=prev.mu, sigma=stationary)
    upd, failures = stacked_update(cfg, prev, observation)
    assert not failures and not upd.fallback_fired.any()
    assert np.max(np.abs(upd.belief.sigma - observation.q)) <= 1e-10 * s


@settings(max_examples=60, deadline=None)
@given(filter_stacks())
def test_stacked_momentum_meets_the_contraction_bound(stack):
    # Prop. 1: rho(M_t) <= alpha lam_max / (alpha^2 lam_min + beta) over
    # the eigenvalues of the prior covariance.
    cfg, prev, observation = stack
    upd, _ = stacked_update(cfg, prev, observation)
    lam = np.linalg.eigvalsh(prev.sigma)
    bound = cfg.alpha * lam[:, -1] / (cfg.alpha ** 2 * lam[:, 0] + cfg.beta)
    assert np.all(upd.rho <= bound * (1.0 + 1e-9))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 20])
def test_stacked_rho_equals_the_norm_of_the_formed_momentum_matrix(d):
    # rho is taken from lam_max(Sigma_{t-1}) (closed form at d = 2,
    # eigvalsh above) and never from M_t; it must match the SVD norm of
    # the M_t that momentum_matrix forms.
    rng = np.random.default_rng(70 + d)
    count = 40
    cfg = FilterConfig(alpha=0.9, beta=0.2, dim=d)
    sigma = np.array([random_spd(rng, d, 0.02, 5.0) for _ in range(count)])
    q = np.array([random_spd(rng, d, 0.05, 5.0) for _ in range(count)])
    prev = GaussianBelief(mu=rng.standard_normal((count, d)), sigma=sigma)
    observation = BatchObservation(f=rng.standard_normal((count, d)), q=q, value=np.zeros(count))
    upd, failures = stacked_update(cfg, prev, observation)
    assert not failures
    expected = [spectral_norm(momentum_matrix(cfg, s).m) for s in sigma]
    assert_allclose(upd.rho, expected, rtol=1e-12, atol=0)
    assert np.array_equal(upd.rho, [momentum_matrix(cfg, s).rho for s in sigma])
    lam = upd.sigma_lam_max
    assert np.array_equal(upd.rho, cfg.alpha * lam / (cfg.alpha ** 2 * lam + cfg.beta))
    # The same rho from LAPACK's eigenvalues, which the closed form replaces at d = 2.
    lam = np.linalg.eigvalsh(sigma)[:, -1]
    assert_allclose(cfg.alpha * lam / (cfg.alpha ** 2 * lam + cfg.beta), expected,
                    rtol=1e-12, atol=0)


def _stack(cfg, sigmas, q):
    """Priors with covariances ``sigmas`` and observations Q = ``q``, (count, d, d) each."""
    rng = np.random.default_rng(11)
    count, d = len(sigmas), cfg.dim
    prev = GaussianBelief(mu=rng.standard_normal((count, d)), sigma=np.array(sigmas))
    observation = BatchObservation(f=rng.standard_normal((count, d)), q=q, value=np.zeros(count))
    return prev, observation


def _assert_member_0_as_alone(cfg, prev, observation, upd):
    member = [GaussianBelief(mu=prev.mu[:1], sigma=prev.sigma[:1]),
              BatchObservation(f=observation.f[:1], q=observation.q[:1], value=np.zeros(1))]
    alone, failures = stacked_update(cfg, *member)
    assert not failures
    assert np.array_equal(alone.direction[0], upd.direction[0])
    assert np.array_equal(alone.belief.sigma[0], upd.belief.sigma[0])
    assert np.array_equal(alone.belief.mu[0], upd.belief.mu[0])


def test_stacked_update_reports_a_divergent_member():
    cfg = FilterConfig(alpha=0.9, beta=0.2, dim=2)
    q = np.array([np.diag([0.5, 2.0])] * 2)
    q[1] = np.nan
    prev, observation = _stack(cfg, [np.eye(2)] * 2, q)
    upd, failures = stacked_update(cfg, prev, observation)
    assert list(failures) == [1]
    assert isinstance(failures[1], FilterDivergenceError)
    assert str(failures[1]) == "posterior precision is not positive definite"
    _assert_member_0_as_alone(cfg, prev, observation, upd)


def test_stacked_update_reports_an_indefinite_observation():
    # A stacked observation is not checked when it is built; the filter
    # reports the member whose Q is not PD and updates the others.
    cfg = FilterConfig(alpha=0.9, beta=0.2, dim=2)
    q = np.array([np.diag([0.5, 2.0]), np.diag([1.0, -1.0])])
    prev, observation = _stack(cfg, [np.eye(2)] * 2, q)
    upd, failures = stacked_update(cfg, prev, observation)
    assert list(failures) == [1]
    assert isinstance(failures[1], FilterDivergenceError)
    _assert_member_0_as_alone(cfg, prev, observation, upd)
