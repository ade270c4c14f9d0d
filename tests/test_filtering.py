import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import multivariate_normal

from stochnewton.filtering import (
    FilterConfig,
    GaussianBelief,
    check_contraction_bound,
    dkf_update,
    dkf_update_info,
    init_belief,
    momentum_matrix,
    unrolled_direction,
)
from stochnewton.linalg import PositiveDefiniteError, cholesky, eig_extremes, solve_spd, spectral_norm
from stochnewton.objectives import BatchObservation

from helpers import random_spd


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


def test_belief_carries_the_cholesky_factor_of_sigma():
    rng = np.random.default_rng(5)
    cfg = FilterConfig(alpha=0.9, beta=0.2, dim=3)
    first = random_obs(rng, 3)
    belief = init_belief(first)
    assert np.array_equal(belief.sigma_factor, first.q_factor)
    for _ in range(5):
        belief = dkf_update(cfg, belief, random_obs(rng, 3))
        assert np.array_equal(belief.sigma_factor, cholesky(belief.sigma))
        assert np.array_equal(belief.direction(), -solve_spd(belief.sigma, belief.mu))
    given = GaussianBelief(mu=belief.mu, sigma=belief.sigma)
    assert np.array_equal(given.sigma_factor, belief.sigma_factor)
    with pytest.raises(PositiveDefiniteError):
        GaussianBelief(mu=np.zeros(2), sigma=np.diag([1.0, 0.0]))


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
