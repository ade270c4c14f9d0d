"""Gaussian filter over the latent full-objective gradient.

The latent gradient follows the stationary AR(1) state model
z_t = alpha * z_{t-1} + N(0, beta I) with unconditioned covariance
S = beta / (1 - alpha^2) I. Each batch supplies a discriminative
Gaussian observation N(f_t, Q_t) of z_t, and the posterior after t
batches stays Gaussian with

    R       = alpha^2 Sigma_{t-1} + beta I
    Sigma_t = (Q_t^-1 + R^-1 - S^-1)^-1
    mu_t    = Sigma_t (Q_t^-1 f_t + R^-1 alpha mu_{t-1})

provided Q_t^-1 - S^-1 is positive definite. When it is not, Q_t is
first replaced by (Q_t^-1 + S^-1)^-1 and the same formulas are applied,
which collapses Sigma_t to (Q_t^-1 + R^-1)^-1.

The update can be rewritten as

    Sigma_t^-1 mu_t = Q_t^-1 f_t + M_t Sigma_{t-1}^-1 mu_{t-1},
    M_t = alpha (alpha^2 Sigma_{t-1} + beta I)^-1 Sigma_{t-1},

so the filtered step direction is the plain batch Newton direction plus
a matrix-momentum carry-over of the previous direction. Keeping the
spectral norm of M_t below one makes old batches decay exponentially;
``check_contraction_bound`` evaluates the sufficient condition
alpha * Lam_max < alpha^2 * Lam_min + beta on eigenvalue bounds for the
Sigma_t sequence.
"""

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .linalg import (
    cholesky,
    cholesky_solve,
    is_pd,
    solve_spd,
    spectral_norm,
    sym,
    try_cholesky,
)

__all__ = [
    "FilterConfig",
    "GaussianBelief",
    "MomentumMatrix",
    "DkfUpdate",
    "FilterDivergenceError",
    "init_belief",
    "dkf_update",
    "dkf_update_info",
    "momentum_matrix",
    "ContractionCheck",
    "check_contraction_bound",
    "unrolled_direction",
]


class FilterDivergenceError(RuntimeError):
    """Posterior covariance stopped being positive definite."""

    def __init__(self, message, step=None):
        if step is not None:
            message = f"step {step}: {message}"
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class FilterConfig:
    """Smoothing parameters of the AR(1) state model.

    Requires 0 < alpha < 1 and beta > 0; ``s_scalar`` is the stationary
    variance beta / (1 - alpha^2), so the stationary covariance is
    s_scalar * I.
    """

    alpha: float
    beta: float
    dim: int

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie strictly between 0 and 1")
        if not (self.beta > 0.0):
            raise ValueError("beta must be positive")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")

    @property
    def s_scalar(self):
        return self.beta / (1.0 - self.alpha ** 2)


@dataclass(frozen=True)
class GaussianBelief:
    """Posterior N(mu, sigma) over the latent full-objective gradient.

    ``sigma_factor`` is the lower Cholesky factor of ``sigma``, kept
    from the PD check of the update so that the step direction needs no
    second factorization. When it is not given it is computed from
    ``sigma``, and a ``sigma`` that is not PD raises
    PositiveDefiniteError.
    """

    mu: np.ndarray
    sigma: np.ndarray
    sigma_factor: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.sigma_factor is None:
            object.__setattr__(self, "sigma_factor", cholesky(self.sigma))

    def direction(self):
        """The filtered step direction -sigma^-1 mu."""
        return -cholesky_solve(self.sigma_factor, self.mu)


@dataclass(frozen=True)
class MomentumMatrix:
    """Momentum matrix with its cached spectral norm."""

    m: np.ndarray
    rho: float


class DkfUpdate(NamedTuple):
    """One filter step: new belief plus per-step diagnostics."""

    belief: GaussianBelief
    fallback_fired: bool
    q_inv_effective: np.ndarray
    momentum: MomentumMatrix


def init_belief(obs):
    """Belief after the first batch: mu = f_1, sigma = Q_1."""
    return GaussianBelief(mu=np.array(obs.f, dtype=float),
                          sigma=np.array(obs.q, dtype=float),
                          sigma_factor=obs.q_factor)


def momentum_matrix(cfg, sigma_prev):
    """M = alpha (alpha^2 sigma_prev + beta I)^-1 sigma_prev, with cached norm."""
    sigma_prev = np.asarray(sigma_prev, dtype=float)
    r = sym(cfg.alpha ** 2 * sigma_prev + cfg.beta * np.eye(sigma_prev.shape[0]))
    m = cfg.alpha * cholesky_solve(cholesky(r), sigma_prev)
    return MomentumMatrix(m=m, rho=spectral_norm(m))


def dkf_update_info(cfg, prev, obs):
    """Advance the posterior by one batch, returning full step diagnostics.

    Follows the update literally: when Q^-1 - S^-1 is not PD, Q is
    replaced by (Q^-1 + S^-1)^-1 before both the covariance and mean
    formulas are applied.
    """
    d = cfg.dim
    mu_prev = np.asarray(prev.mu, dtype=float)
    sigma_prev = np.asarray(prev.sigma, dtype=float)
    if sigma_prev.shape != (d, d) or mu_prev.shape != (d,):
        raise ValueError(f"belief dimensions do not match dim={d}")
    if obs.q.shape != (d, d) or obs.f.shape != (d,):
        raise ValueError(f"observation dimensions do not match dim={d}")

    eye = np.eye(d)
    s_inv = (1.0 / cfg.s_scalar) * eye
    r = sym(cfg.alpha ** 2 * sigma_prev + cfg.beta * eye)
    q_inv = sym(cholesky_solve(obs.q_factor, eye))
    r_inv = sym(cholesky_solve(cholesky(r), eye))

    fallback = not is_pd(q_inv - s_inv)
    q_inv_eff = q_inv + s_inv if fallback else q_inv

    precision = sym(q_inv_eff + r_inv - s_inv)
    factor = try_cholesky(precision)
    if factor is None:
        raise FilterDivergenceError("posterior precision is not positive definite")
    sigma = sym(cholesky_solve(factor, eye))
    sigma_factor = try_cholesky(sigma)
    if sigma_factor is None:
        raise FilterDivergenceError("posterior covariance is not positive definite")
    rhs = q_inv_eff @ obs.f + cfg.alpha * (r_inv @ mu_prev)
    mu = cholesky_solve(factor, rhs)

    # R^-1 is already on hand, so the momentum matrix comes for the cost
    # of one product plus its norm.
    m = cfg.alpha * (r_inv @ sigma_prev)
    return DkfUpdate(
        belief=GaussianBelief(mu=mu, sigma=sigma, sigma_factor=sigma_factor),
        fallback_fired=fallback,
        q_inv_effective=q_inv_eff,
        momentum=MomentumMatrix(m=m, rho=spectral_norm(m)),
    )


def dkf_update(cfg, prev, obs):
    """Advance the posterior by one batch."""
    return dkf_update_info(cfg, prev, obs).belief


class ContractionCheck(NamedTuple):
    satisfied: bool
    bound: float


def check_contraction_bound(cfg, lam_min, lam_max):
    """Spectral-norm bound alpha*lam_max / (alpha^2*lam_min + beta).

    ``satisfied`` reports whether the bound is below one, i.e. whether
    alpha * lam_max < alpha^2 * lam_min + beta, which guarantees that
    every momentum matrix built from covariances with eigenvalues in
    [lam_min, lam_max] is a contraction.
    """
    if not (0.0 < lam_min <= lam_max):
        raise ValueError("need 0 < lam_min <= lam_max")
    denom = cfg.alpha ** 2 * lam_min + cfg.beta
    bound = cfg.alpha * lam_max / denom
    return ContractionCheck(satisfied=cfg.alpha * lam_max < denom, bound=bound)


def unrolled_direction(obs_seq, cfg):
    """Sigma_t^-1 mu_t written out as a sum over the batch history.

    Computes sum_i (M_t ... M_{i+1}) Q_i^-1 f_i with the momentum
    matrices generated by running the filter over ``obs_seq`` (using the
    replaced Q_i wherever the PD fallback fired). This is a test oracle
    for the recursive update, not a hot-path routine.
    """
    if len(obs_seq) == 0:
        raise ValueError("observation sequence is empty")
    terms = [solve_spd(obs_seq[0].q, obs_seq[0].f)]
    momenta = []
    belief = init_belief(obs_seq[0])
    for obs in obs_seq[1:]:
        upd = dkf_update_info(cfg, belief, obs)
        momenta.append(upd.momentum.m)
        terms.append(upd.q_inv_effective @ obs.f)
        belief = upd.belief

    direction = np.array(terms[-1])
    prod = np.eye(cfg.dim)
    for i in range(len(terms) - 2, -1, -1):
        prod = prod @ momenta[i]
        direction += prod @ terms[i]
    return direction
