"""Backtracking line search over dyadic step lengths.

Trial step lengths are the five fixed ``STEP_LENGTHS`` 1, 1/2, ..., 1/16,
accepted on a sufficient-decrease test with constant ``c``. The default
c = 0.95 is deliberately strict and configurable; the step lengths are not.

``armijo_search`` runs the searches of a whole stack of trials at once
on the (T, k) array of decreases h(theta0 + lam*v) - h(theta0) of every
trial's candidates at the step lengths: the optimizer asks the
objective for that array (``SubsampledObjective.step_decreases``), and
least squares forms it from its exact quadratic without evaluating any
candidate. Each trial takes its own first passing candidate, and
reports whether that candidate passed or the search ran out of halvings.
``armijo_backtrack`` is its one-trial case, with an objective that it
evaluates once on the origin and the candidates. Decreases past a
trial's accepted candidate are never looked at, so they cannot fail its
search.
"""

import numpy as np

from .objectives import NumericalError

__all__ = ["armijo_search", "armijo_backtrack"]

DEFAULT_SUFFICIENT_DECREASE = 0.95
DEFAULT_MAX_HALVINGS = 4
STEP_LENGTHS = 2.0 ** -np.arange(DEFAULT_MAX_HALVINGS + 1.0)
STEP_LENGTHS.flags.writeable = False


def armijo_search(decreases, theta0, v, m, c=DEFAULT_SUFFICIENT_DECREASE):
    """Per trial, the first dyadic lam with h(theta0 + lam*v) - h(theta0) <= c*lam*<v, m>.

    ``theta0``, ``v`` (search directions) and ``m`` (gradients of h at
    theta0) are (T, d) stacks. ``decreases`` is the (T, k) array of the
    decreases h(theta0 + lam*v) - h(theta0) at the k step lengths
    ``STEP_LENGTHS``, row t on trial t's objective. A trial whose
    candidates all fail takes the last one. Returns ``(lams, satisfied,
    failures)``: the (T,) step lengths, a (T,) mask of the trials whose
    taken candidate passed the test (False where the search ran out of
    halvings), and a map from the position of each trial whose decrease
    is non-finite at a candidate up to the one it would take, to its
    NumericalError.
    """
    passed = decreases <= (c * STEP_LENGTHS) * np.vecdot(v, m)[:, None]
    # The taken candidate passed exactly when any did.
    satisfied = passed.any(axis=1)
    # A trial whose candidates all fail takes the last one.
    passed[:, -1] = True
    taken = passed.argmax(axis=1)
    failures = {}
    finite = np.isfinite(decreases)
    if not finite.all():
        for i in np.flatnonzero(~finite.all(axis=1)):
            bad = np.flatnonzero(~finite[i])[0]
            if bad <= taken[i]:
                failures[i] = NumericalError(
                    f"objective is non-finite at trial step length {STEP_LENGTHS[bad]}",
                    theta=theta0[i] + STEP_LENGTHS[bad] * v[i])
    return STEP_LENGTHS[taken], satisfied, failures


def armijo_backtrack(h, theta0, v, m, c=DEFAULT_SUFFICIENT_DECREASE):
    """First dyadic step length lam with h(theta0 + lam*v) - h(theta0) <= c*lam*<v, m>.

    ``h`` is the (batch) objective, applied row-wise: it maps a (k, d)
    stack of points to their k values. ``v`` is the search direction and
    ``m`` the gradient of h at theta0. ``h`` is called exactly once, on
    theta0 followed by the candidates theta0 + lam*v for lam in
    ``STEP_LENGTHS``. The first candidate that passes is returned; if
    none passes, the last one is. NumericalError is raised when h is
    non-finite at theta0 or at a candidate up to the returned one. This
    is the one-trial case of ``armijo_search``.
    """
    theta0, v, m = (np.asarray(x, dtype=float)[None] for x in (theta0, v, m))
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.asarray(h(np.concatenate((theta0, theta0 + STEP_LENGTHS[:, None] * v))),
                            dtype=float)
        if not np.isfinite(values[0]):
            raise NumericalError("objective is non-finite at the line-search origin",
                                 theta=theta0[0])
        taken, _, failures = armijo_search(values[None, 1:] - values[0], theta0, v, m, c)
    if failures:
        raise failures[0]
    return float(taken[0])
