import warnings

import numpy as np
import pytest

from stochnewton.line_search import armijo_backtrack
from stochnewton.objectives import NumericalError

# Objectives are applied row-wise: a (k, d) stack of points to k values.
LINEAR = lambda th: th[:, 0]
QUADRATIC = lambda th: 0.5 * th[:, 0] ** 2


def test_linear_function_accepts_full_step():
    lam = armijo_backtrack(LINEAR, np.array([1.0]), np.array([-1.0]), np.array([1.0]))
    assert lam == 1.0


def test_quadratic_needs_the_smallest_step():
    # Hand enumeration of the trial lengths: k = 0..3 each violate the
    # 0.95 sufficient-decrease test and k = 4 passes.
    lam = armijo_backtrack(QUADRATIC, np.array([1.0]), np.array([-1.0]), np.array([1.0]))
    assert lam == 1.0 / 16.0


def test_zero_direction_accepts_immediately():
    lam = armijo_backtrack(QUADRATIC, np.array([1.0]), np.array([0.0]), np.array([1.0]))
    assert lam == 1.0


def test_output_is_dyadic_and_first_accept():
    rng = np.random.default_rng(0)
    allowed = {1.0, 0.5, 0.25, 0.125, 0.0625}
    for _ in range(50):
        a = rng.uniform(0.1, 4.0)
        x0 = rng.standard_normal(3)
        v = -rng.standard_normal(3)
        h = lambda th: 0.5 * a * np.sum(th * th, axis=-1)
        m = a * x0
        lam = armijo_backtrack(h, x0, v, m)
        assert lam in allowed
        # First-accept semantics: every larger dyadic step must fail the test.
        h0 = h(x0)
        slope = float(v @ m)
        k = int(round(-np.log2(lam)))
        for kk in range(k):
            trial = 2.0 ** (-kk)
            if k < 4:
                assert h(x0 + trial * v) - h0 > 0.95 * trial * slope


def test_evaluation_budget():
    calls = []
    points = []

    def h(th):
        calls.append(th.shape)
        points.extend(th[:, 0].tolist())
        return 0.5 * th[:, 0] ** 2

    armijo_backtrack(h, np.array([1.0]), np.array([-1.0]), np.array([1.0]))
    # One call of h on theta0 plus at most five trial points.
    assert len(calls) == 1
    assert len(points) <= 6
    assert points[0] == 1.0


def test_relaxed_constant_accepts_newton_step():
    # With c < 0.5 the exact Newton step on a quadratic is accepted at once.
    lam = armijo_backtrack(QUADRATIC, np.array([1.0]), np.array([-1.0]),
                           np.array([1.0]), c=0.4)
    assert lam == 1.0


def test_fallback_returns_last_trial_value():
    # An increasing direction never satisfies the test; the final trial
    # value is returned unchanged.
    lam = armijo_backtrack(QUADRATIC, np.array([1.0]), np.array([5.0]), np.array([1.0]))
    assert lam == 1.0 / 16.0


def test_non_finite_evaluation_raises():
    def h(th):
        return np.where(th[:, 0] < 1.0, np.inf, th[:, 0])

    with pytest.raises(NumericalError):
        armijo_backtrack(h, np.array([1.0]), np.array([-1.0]), np.array([1.0]))


def test_non_finite_origin_raises():
    with pytest.raises(NumericalError):
        armijo_backtrack(lambda th: np.full(len(th), np.nan), np.array([1.0]),
                         np.array([-1.0]), np.array([1.0]))


def test_non_finite_candidates_after_the_accepted_one_are_ignored():
    # The full step lands on 0 and passes; every shorter candidate lies in
    # (0, 1), where h is nan or inf.
    def h(th):
        x = th[:, 0]
        inside = (x > 0.0) & (x < 1.0)
        return np.where(inside, np.where(x < 0.7, np.nan, np.inf), x)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam = armijo_backtrack(h, np.array([1.0]), np.array([-1.0]), np.array([1.0]))
    assert lam == 1.0
