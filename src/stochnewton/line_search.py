"""Backtracking line search over dyadic step lengths.

Trial step lengths are 1, 1/2, ..., 2**-max_halvings, accepted on a
sufficient-decrease test with constant ``c``. The defaults (c = 0.95,
five trial lengths) are deliberately strict; both are configurable.

``armijo_search`` runs the searches of a whole stack of trials at once:
the caller gives the objective's values at the origins, which the
optimizer has already formed as the batch value, and the objective is
evaluated once, on a (T, k, d) stack of every trial's candidate points.
Each trial takes its own first passing candidate, and reports whether
that candidate passed or the search ran out of halvings.
``armijo_backtrack`` is its one-trial case, with an objective that it
evaluates once on the origin and the candidates. Values past a trial's
accepted candidate are never looked at, so they cannot fail its search.
"""

import functools

import numpy as np

from .objectives import NumericalError

__all__ = ["armijo_search", "armijo_backtrack"]

DEFAULT_SUFFICIENT_DECREASE = 0.95
DEFAULT_MAX_HALVINGS = 4


def armijo_search(h, h0, theta0, v, m, c=DEFAULT_SUFFICIENT_DECREASE,
                  max_halvings=DEFAULT_MAX_HALVINGS):
    """Per trial, the first dyadic lam with h(theta0 + lam*v) - h0 <= c*lam*<v, m>.

    ``theta0``, ``v`` (search directions) and ``m`` (gradients of h at
    theta0) are (T, d) stacks, and ``h0`` (T,) holds h at theta0. ``h``
    maps a (T, k, d) stack of points to their (T, k) values, row t on
    trial t's objective, and is called exactly once, on each trial's
    candidates theta0 + lam*v for lam = 2**-k, k = 0..max_halvings. A
    trial whose candidates all fail takes the last one. Returns ``(lams,
    satisfied, failures)``: the (T,) step lengths, a (T,) mask of the
    trials whose taken candidate passed the test (False where the search
    ran out of halvings), and a map from the position of each trial
    whose h0 is non-finite, or whose h is non-finite at a candidate up
    to the one it would take, to its NumericalError.
    """
    lams, points = _candidates(theta0, v, max_halvings)
    return _first_passing(h(points), np.asarray(h0, dtype=float), theta0, points, lams, v, m, c)


def _candidates(theta0, v, max_halvings):
    """The dyadic step lengths (k,) and each trial's candidates theta0 + lam*v (T, k, d)."""
    lams = _step_lengths(max_halvings)
    return lams, theta0[:, None, :] + lams[:, None] * v[:, None, :]


def _first_passing(values, h0, theta0, points, lams, v, m, c):
    """``armijo_search``'s result from the (T, k) ``values`` of h at ``points``."""
    passed = values - h0[:, None] <= (c * lams) * np.vecdot(v, m)[:, None]
    # The taken candidate passed exactly when any did.
    satisfied = passed.any(axis=1)
    # A trial whose candidates all fail takes the last one.
    passed[:, -1] = True
    taken = passed.argmax(axis=1)
    failures = {}
    finite = np.isfinite(values).all(axis=1) & np.isfinite(h0)
    if not finite.all():
        for i in np.flatnonzero(~finite):
            if not np.isfinite(h0[i]):
                failures[i] = NumericalError("objective is non-finite at the line-search origin",
                                             theta=theta0[i])
                continue
            bad = np.flatnonzero(~np.isfinite(values[i]))[0]
            if bad <= taken[i]:
                failures[i] = NumericalError(
                    f"objective is non-finite at trial step length {lams[bad]}",
                    theta=points[i, bad])
    return lams[taken], satisfied, failures


@functools.lru_cache(maxsize=None)
def _step_lengths(max_halvings):
    lams = 2.0 ** -np.arange(max_halvings + 1.0)
    lams.flags.writeable = False
    return lams


def armijo_backtrack(h, theta0, v, m, c=DEFAULT_SUFFICIENT_DECREASE,
                     max_halvings=DEFAULT_MAX_HALVINGS):
    """First dyadic step length lam with h(theta0 + lam*v) - h(theta0) <= c*lam*<v, m>.

    ``h`` is the (batch) objective, applied row-wise: it maps a (k, d)
    stack of points to their k values. ``v`` is the search direction and
    ``m`` the gradient of h at theta0. ``h`` is called exactly once, on
    theta0 followed by the candidates theta0 + lam*v for lam = 2**-k,
    k = 0..max_halvings. The first candidate that passes is returned; if
    none passes, the last one is. NumericalError is raised when h is
    non-finite at theta0 or at a candidate up to the returned one. This
    is the one-trial case of ``armijo_search``.
    """
    theta0, v, m = (np.asarray(x, dtype=float)[None] for x in (theta0, v, m))
    lams, points = _candidates(theta0, v, max_halvings)
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.asarray(h(np.concatenate((theta0, points[0]))), dtype=float)[None, :]
        taken, _, failures = _first_passing(values[:, 1:], values[:, 0], theta0, points, lams,
                                            v, m, c)
    if failures:
        raise failures[0]
    return float(taken[0])
