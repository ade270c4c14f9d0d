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
a matrix-momentum carry-over of the previous direction. As
M_t Sigma_{t-1}^-1 mu_{t-1} = alpha R^-1 mu_{t-1}, it is the information
vector Q_t^-1 f_t + alpha R^-1 mu_{t-1} that the mean formula forms, so
the filter returns its negative as the step direction and a belief is
the plain (mu_t, Sigma_t). Keeping the
spectral norm of M_t below one makes old batches decay exponentially;
``check_contraction_bound`` evaluates the sufficient condition
alpha * Lam_max < alpha^2 * Lam_min + beta on eigenvalue bounds for the
Sigma_t sequence.

R = alpha^2 Sigma_{t-1} + beta I commutes with Sigma_{t-1}, so M_t is
symmetric with eigenvalues alpha lam / (alpha^2 lam + beta) over the
eigenvalues lam of Sigma_{t-1}. That map increases with lam, so the
spectral norm is exact from the largest eigenvalue alone:

    rho_t = alpha lam_max / (alpha^2 lam_max + beta).

The stacked filter takes rho_t that way and never forms M_t;
``momentum_matrix`` forms it as alpha R^-1 Sigma_{t-1}, with R^-1 and
rho_t computed as the update computes them, so the two agree bit for
bit. Read backwards,
rho_t < r exactly when lam_max(Sigma_{t-1}) < r beta / (alpha (1 - r alpha)):
at alpha = 0.9 and beta = 0.2 the monitor's rho_t < 0.8 is the
statement lam_max(Sigma_{t-1}) < 0.635.

``_updates`` applies the update to a whole stack of trials at once,
with beliefs and observations that carry a leading trial axis, and
reports the members whose posterior is not PD instead of raising; the
engine (``optim.run_trials``) calls it with PD-tested priors, and
``dkf_update_info`` is its one-trial case, which checks its prior, so a
trial gets the same bits whether it is filtered alone or in a stack.
The one-trial case also returns M_t from ``momentum_matrix``, which the
oracle ``unrolled_direction`` reads with the effective Q_t^-1.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import largest_eigenvalues, pd_mask, require_pd, solve_spd, spd_solve, sym
from .objectives import _members

__all__ = [
    "FilterConfig",
    "GaussianBelief",
    "MomentumMatrix",
    "DkfUpdate",
    "DkfUpdates",
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


@dataclass(frozen=True)
class FilterConfig:
    """Smoothing parameters of the AR(1) state model.

    Requires 0 < alpha < 1 and a finite beta > 0; ``s_scalar`` is the
    stationary variance beta / (1 - alpha^2), so the stationary
    covariance is s_scalar * I.
    """

    alpha: float
    beta: float
    dim: int

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie strictly between 0 and 1")
        if not (0.0 < self.beta < np.inf):
            raise ValueError("beta must be positive and finite")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")

    @property
    def s_scalar(self):
        return self.beta / (1.0 - self.alpha ** 2)


@dataclass(frozen=True)
class GaussianBelief:
    """Posterior N(mu, sigma) over the latent full-objective gradient.

    The beliefs of a stack of trials (see ``_updates``) share one
    object whose fields carry a leading trial axis.
    """

    mu: np.ndarray
    sigma: np.ndarray


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


class DkfUpdates(NamedTuple):
    """One filter step of a stack of T trials; every field has the trial axis.

    ``direction`` (T, d) is the step direction -Sigma_t^-1 mu_t, taken as
    the negative information vector -(Q_eff^-1 f_t + alpha R^-1 mu_{t-1}).
    ``fallback_fired`` (T,) marks the members whose Q_t was replaced
    and ``q_inv_effective`` (T, d, d) is each effective Q_t^-1,
    ``sigma_lam_max`` (T,) is the largest eigenvalue of each prior
    covariance Sigma_{t-1} and ``rho`` (T,) the spectral norm of each
    M_t, alpha lam_max / (alpha^2 lam_max + beta).
    """

    belief: GaussianBelief
    direction: np.ndarray
    fallback_fired: np.ndarray
    q_inv_effective: np.ndarray
    sigma_lam_max: np.ndarray
    rho: np.ndarray


def init_belief(obs):
    """Belief after the first batch: mu = f_1, sigma = Q_1."""
    return GaussianBelief(mu=np.array(obs.f, dtype=float), sigma=np.array(obs.q, dtype=float))


def _momentum_norm(cfg, lam_max):
    """rho_t = alpha lam_max / (alpha^2 lam_max + beta), the spectral norm of M_t."""
    return cfg.alpha * lam_max / (cfg.alpha ** 2 * lam_max + cfg.beta)


def _r_inverse(cfg, sigma_prev, eye):
    """R^-1 = (alpha^2 Sigma_{t-1} + beta I)^-1 of a stack of priors (T, d, d).

    ``eye`` is the (d, d) identity. R is PD whenever Sigma_{t-1} is.
    """
    r = sym(cfg.alpha ** 2 * sigma_prev + cfg.beta * eye)
    return sym(spd_solve(r, eye[None]))


def momentum_matrix(cfg, sigma_prev):
    """M = alpha (alpha^2 sigma_prev + beta I)^-1 sigma_prev, with its spectral norm.

    ``sigma_prev`` is one PD prior covariance (d, d). R^-1 and the norm
    are computed exactly as the stacked ``_updates`` computes them, so
    the norm agrees with its rho bit for bit.
    """
    sigma_prev = np.asarray(sigma_prev, dtype=float)
    r_inv = _r_inverse(cfg, sigma_prev[None], np.eye(sigma_prev.shape[-1]))[0]
    return MomentumMatrix(m=cfg.alpha * (r_inv @ sigma_prev),
                          rho=float(_momentum_norm(cfg, largest_eigenvalues(sigma_prev))))


def _updates(cfg, prev, obs):
    """Advance a stack of posteriors by one batch each.

    ``prev`` is a GaussianBelief and ``obs`` a BatchObservation whose
    fields carry a leading trial axis (T, ...); every prior covariance
    must be PD, which is not checked. Follows the update literally:
    where Q^-1 - S^-1 is not PD, Q is replaced by (Q^-1 + S^-1)^-1
    before both the covariance and mean formulas are applied. Returns
    ``(update, failures)``: a DkfUpdates and a map from the position of
    each member whose posterior stopped being PD to its
    FilterDivergenceError. The fields of a failed member are not
    meaningful. A member's result does not depend on the rest of the
    stack. The fallback test fails for many members by design, and
    numpy flags each such factorization as an invalid value: call this
    under ``np.errstate(invalid="ignore")``, as ``dkf_update_info`` and
    ``optim.run_trials`` do.
    """
    eye = np.eye(cfg.dim)
    s_inv = (1.0 / cfg.s_scalar) * eye
    sigma_prev = prev.sigma
    q_inv = sym(spd_solve(obs.q, eye[None]))
    r_inv = _r_inverse(cfg, sigma_prev, eye)

    fallback = ~pd_mask(q_inv - s_inv)
    q_inv_eff = q_inv + fallback[:, None, None] * s_inv

    # A sum of exactly symmetric matrices, so no sym() is needed.
    precision = q_inv_eff + r_inv - s_inv
    precision_pd = pd_mask(precision)
    rhs = (q_inv_eff @ obs.f[..., None]) + cfg.alpha * (r_inv @ prev.mu[..., None])
    # Sigma_t and mu_t = Sigma_t rhs from one solve of the precision
    # against [I | rhs].
    columns = np.empty((*rhs.shape[:-1], cfg.dim + 1))
    columns[..., :-1] = eye
    columns[..., -1:] = rhs
    x = spd_solve(precision, columns)
    sigma = sym(x[..., :-1])
    sigma_pd = pd_mask(sigma)

    lam_max = largest_eigenvalues(sigma_prev)
    failures = {}
    if not (precision_pd.all() and sigma_pd.all()):
        for i in np.flatnonzero(~sigma_pd):
            failures[i] = FilterDivergenceError("posterior covariance is not positive definite")
        for i in np.flatnonzero(~precision_pd):
            failures[i] = FilterDivergenceError("posterior precision is not positive definite")
    update = DkfUpdates(
        belief=GaussianBelief(mu=x[..., -1], sigma=sigma),
        direction=-rhs[..., 0],
        fallback_fired=fallback,
        q_inv_effective=q_inv_eff,
        sigma_lam_max=lam_max,
        rho=_momentum_norm(cfg, lam_max),
    )
    return update, failures


def dkf_update_info(cfg, prev, obs):
    """Advance the posterior by one batch, returning full step diagnostics.

    Follows the update literally: when Q^-1 - S^-1 is not PD, Q is
    replaced by (Q^-1 + S^-1)^-1 before both the covariance and mean
    formulas are applied. This is the one-trial case of ``_updates``;
    it also returns the effective Q^-1 and the momentum matrix M_t from
    ``momentum_matrix``, whose rho is the update's bit for bit. A prior
    covariance that is not PD raises PositiveDefiniteError, and a
    posterior that is not PD raises FilterDivergenceError.
    """
    d = cfg.dim
    if np.shape(prev.sigma) != (d, d) or np.shape(prev.mu) != (d,):
        raise ValueError(f"belief dimensions do not match dim={d}")
    if obs.q.shape != (d, d) or obs.f.shape != (d,):
        raise ValueError(f"observation dimensions do not match dim={d}")
    require_pd(prev.sigma)

    with np.errstate(invalid="ignore"):
        upd, failures = _updates(cfg, _members(prev, None), _members(obs, None))
    if failures:
        raise failures[0]
    return DkfUpdate(
        belief=_members(upd.belief, 0),
        fallback_fired=bool(upd.fallback_fired[0]),
        q_inv_effective=upd.q_inv_effective[0],
        momentum=momentum_matrix(cfg, prev.sigma),
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
    if not (0.0 < lam_min <= lam_max < np.inf):
        raise ValueError("need finite 0 < lam_min <= lam_max")
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
