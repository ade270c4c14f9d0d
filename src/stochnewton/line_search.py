"""Backtracking line search over dyadic step lengths.

Trial step lengths are 1, 1/2, ..., 2**-max_halvings, accepted on a
sufficient-decrease test with constant ``c``. The defaults (c = 0.95,
five trial lengths) are deliberately strict; both are configurable.

The objective is evaluated once per search, on a (k, d) stack that
holds the origin and every candidate point, so a vectorized objective
pays its per-call overhead once. Candidates are still examined in order
of decreasing step length, and values past the accepted one are never
looked at, so they cannot fail a search.
"""

import math

import numpy as np

from .objectives import NumericalError

__all__ = ["armijo_backtrack"]

DEFAULT_SUFFICIENT_DECREASE = 0.95
DEFAULT_MAX_HALVINGS = 4


def armijo_backtrack(h, theta0, v, m, c=DEFAULT_SUFFICIENT_DECREASE,
                     max_halvings=DEFAULT_MAX_HALVINGS):
    """First dyadic step length lam with h(theta0 + lam*v) - h(theta0) <= c*lam*<v, m>.

    ``h`` is the (batch) objective, applied row-wise: it maps a (k, d)
    stack of points to their k values. ``v`` is the search direction and
    ``m`` the gradient of h at theta0. ``h`` is called exactly once, on
    theta0 followed by the candidates theta0 + lam*v for lam = 2**-k,
    k = 0..max_halvings. The first candidate that passes is returned; if
    none passes, the last one is. NumericalError is raised when h is
    non-finite at theta0 or at a candidate up to the returned one.
    """
    theta0 = np.asarray(theta0, dtype=float)
    v = np.asarray(v, dtype=float)
    lams = [2.0 ** -k for k in range(max_halvings + 1)]
    points = np.concatenate((theta0[None, :], theta0 + np.array(lams)[:, None] * v))
    h0, *trials = np.asarray(h(points), dtype=float).tolist()
    if not math.isfinite(h0):
        raise NumericalError("objective is non-finite at the line-search origin", theta=theta0)
    slope = float(np.dot(v, m))
    for k, (lam, trial) in enumerate(zip(lams, trials)):
        if not math.isfinite(trial):
            raise NumericalError(
                f"objective is non-finite at trial step length {lam}", theta=points[k + 1]
            )
        if trial - h0 <= c * lam * slope:
            return lam
    return lam
