"""Shared test utilities."""

import numpy as np

from stochnewton.linalg import try_cholesky


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def random_spd(rng, d, lam_min=0.5, lam_max=2.0):
    """SPD matrix with eigenvalues drawn uniformly from [lam_min, lam_max]."""
    q = random_orthogonal(rng, d)
    lams = rng.uniform(lam_min, lam_max, size=d)
    m = (q * lams) @ q.T
    return 0.5 * (m + m.T)


def is_pd(m):
    """True if ``m`` admits a Cholesky factorization with all pivots above tolerance."""
    return try_cholesky(m) is not None


def eig_extremes(m):
    """Smallest and largest eigenvalues of a symmetric matrix."""
    w = np.linalg.eigvalsh(m)
    return float(w[0]), float(w[-1])


def finite_difference_gradient(fn, theta, h=1e-5):
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (fn(up) - fn(dn)) / (2.0 * h)
    return grad


def finite_difference_hessian(grad_fn, theta, h=1e-5):
    theta = np.asarray(theta, dtype=float)
    d = theta.size
    hess = np.empty((d, d))
    for i in range(d):
        up = theta.copy()
        dn = theta.copy()
        up[i] += h
        dn[i] -= h
        hess[:, i] = (grad_fn(up) - grad_fn(dn)) / (2.0 * h)
    return 0.5 * (hess + hess.T)


DECISIONS = ("step_lengths", "armijo_satisfied", "fallback", "ridge_eps", "failed_step")


def assert_same_decisions(a, b):
    """Require two StackedTraces to have taken the same discrete decisions.

    The step lengths, Armijo outcomes, Q_t fallbacks, ridges and failed
    steps must be identical; a drift in the continuous arrays that moves
    none of these cannot change a verdict by itself.
    """
    for name in DECISIONS:
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), \
            f"the runs differ in {name}"
