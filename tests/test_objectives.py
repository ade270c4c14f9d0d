import numpy as np
import pytest
from numpy.testing import assert_allclose

from stochnewton.experiment import ExperimentConfig, generate_data
from stochnewton.linalg import PositiveDefiniteError, solve_spd, sym
from stochnewton.objectives import (
    BatchObservation,
    ExpFamily,
    ExpFamilyObjective,
    GlmData,
    GlmObjective,
    LeastSquaresData,
    LeastSquaresObjective,
    NumericalError,
    SubsampledObjective,
    _regularize_hessians,
    bernoulli_family,
    bernoulli_scalar_family,
    evaluate_batch,
    evaluate_batches,
    fisher_identity_check,
    gaussian_family,
    gaussian_scalar_family,
    load_least_squares_csv,
    sample_batch,
)
from stochnewton.streams import DATA_STREAM, derive_stream

from helpers import eig_extremes, finite_difference_gradient, finite_difference_hessian, is_pd


def make_ls_objective(rng, n=40, d=3):
    xs = rng.standard_normal((n, d))
    ys = xs @ rng.standard_normal(d) + rng.standard_normal(n)
    return LeastSquaresObjective(LeastSquaresData(xs=xs, ys=ys))


# ---------------------------------------------------------------------------
# sample_batch
# ---------------------------------------------------------------------------

def test_sample_batch_single_index():
    rng = np.random.default_rng(0)
    assert list(sample_batch(rng, 1, 5)) == [0, 0, 0, 0, 0]


def test_sample_batch_deterministic_given_seed():
    a = sample_batch(np.random.default_rng(42), 100, 50)
    b = sample_batch(np.random.default_rng(42), 100, 50)
    assert np.array_equal(a, b)


def test_sample_batch_rejects_empty():
    with pytest.raises(ValueError):
        sample_batch(np.random.default_rng(0), 10, 0)


def test_sample_batch_uniform_frequencies():
    # 1e5 batches of size 5; each index count is Binomial(5e5, 1/100).
    rng = np.random.default_rng(7)
    draws = sample_batch(rng, 100, 5 * 10 ** 5)
    counts = np.bincount(draws, minlength=100)
    expected = draws.size / 100.0
    sigma = np.sqrt(draws.size * 0.01 * 0.99)
    assert np.all(np.abs(counts - expected) <= 5.0 * sigma)


# ---------------------------------------------------------------------------
# least squares
# ---------------------------------------------------------------------------

def test_least_squares_single_sample_at_zero():
    data = LeastSquaresData(xs=np.array([[1.0, 0.0]]), ys=np.array([2.0]))
    obj = LeastSquaresObjective(data)
    obs = evaluate_batch(obj, np.zeros(2), [0])
    assert_allclose(obs.f, np.array([-2.0, 0.0]))
    # Raw Hessian [[1, 0], [0, 0]] is singular, so a small ridge is added.
    assert is_pd(obs.q)
    assert_allclose(obs.q, np.array([[1.0, 0.0], [0.0, 0.0]]), atol=1e-6)
    assert obs.value == pytest.approx(2.0)


def test_a_batch_with_a_repeated_index_at_d5_is_ridged():
    # A batch of the run-paired data at n 100, d 5, seed 0 whose rank-4
    # Hessian the pivot test accepts, so that without the ridge the
    # filter fails. A least-squares Hessian does not depend on theta.
    cfg = ExperimentConfig(n=100, d=5, batch_size=5, master_seed=0)
    obj = LeastSquaresObjective(generate_data(cfg, derive_stream(0, DATA_STREAM)))
    obs = evaluate_batch(obj, np.zeros(5), [19, 34, 76, 76, 92])
    assert obs.ridge_eps > 0
    assert not evaluate_batch(obj, np.zeros(5), [19, 34, 76, 77, 92]).ridge_eps


def test_only_rank_one_objectives_ridge_by_distinct_count():
    assert LeastSquaresObjective.rank_one_hessians and GlmObjective.rank_one_hessians
    assert not ExpFamilyObjective.rank_one_hessians
    # An exponential family's per-sample Hessian is hess_a(theta), here I.
    obj = ExpFamilyObjective(gaussian_family(d=2), np.arange(6.0).reshape(3, 2))
    obs = evaluate_batch(obj, np.zeros(2), [1, 1])
    assert obs.ridge_eps == 0
    assert_allclose(obs.q, np.eye(2))


def test_collinear_distinct_rows_are_left_to_the_pivot_test():
    # A known limit: three distinct rows of rank two at d = 3 (the third
    # is twice the first) give a singular Hessian that the pivot test of
    # an unpivoted Cholesky factor accepts, so no ridge is added.
    a = np.array([1.538, 0.769, -0.287])
    xs = np.array([a, [0.518, 0.261, -0.275], 2 * a])
    assert np.linalg.matrix_rank(xs) == 2
    obj = LeastSquaresObjective(LeastSquaresData(xs=xs, ys=np.zeros(3)))
    assert evaluate_batch(obj, np.zeros(3), [0, 1, 2]).ridge_eps == 0


@pytest.mark.parametrize("d", [2, 3])
def test_ridge_of_a_finite_hessian_whose_trace_overflows_is_finite(d):
    # The rank-one Hessian with every entry 1e308 is finite, but its
    # trace overflows. The ridge eps is 1e-8 + sum_i q_ii * (1e-8/d),
    # 1e300, which makes it PD at once. As in the engine, only the
    # invalid-value flag of the failed factorization at d = 3 is
    # silenced; the error filter turns an overflow warning into a failure.
    with np.errstate(invalid="ignore"):
        q, ok, eps = _regularize_hessians(np.full((1, d, d), 1e308), True)
    assert ok.all()
    assert eps[0] == pytest.approx(1e300, rel=1e-12)
    assert is_pd(q[0])
    # Through a batch evaluation: the one sample x = (1e154, ..., 1e154)
    # has that Hessian, whose entries exceed half the largest double, so
    # re-symmetrizing it must not add two of them.
    obj = LeastSquaresObjective(LeastSquaresData(xs=np.full((1, d), 1e154), ys=np.zeros(1)))
    with np.errstate(invalid="ignore"):
        obs, failures = evaluate_batches(obj, np.zeros((1, d)), np.zeros((1, 1), dtype=np.intp))
    assert not failures
    assert obs.ridge_eps[0] == pytest.approx(1e300, rel=1e-12)


def test_least_squares_gradient_at_zero():
    rng = np.random.default_rng(1)
    obj = make_ls_objective(rng)
    j = 4
    g, h = obj.grad_hess(np.zeros(obj.d), j)
    assert_allclose(g, -obj.data.xs[j] * obj.data.ys[j])
    assert_allclose(h, np.outer(obj.data.xs[j], obj.data.xs[j]))


def test_least_squares_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    obj = make_ls_objective(rng)
    for _ in range(20):
        theta = rng.standard_normal(obj.d)
        j = int(rng.integers(obj.n))
        g, _ = obj.grad_hess(theta, j)
        fd = finite_difference_gradient(lambda th: obj.value(th, j), theta)
        assert np.max(np.abs(g - fd)) <= 1e-6 * max(1.0, np.max(np.abs(g)))


def test_least_squares_hessian_independent_of_theta():
    rng = np.random.default_rng(3)
    obj = make_ls_objective(rng)
    _, h1 = obj.grad_hess(rng.standard_normal(obj.d), 0)
    _, h2 = obj.grad_hess(rng.standard_normal(obj.d), 0)
    assert np.array_equal(h1, h2)


def test_full_batch_gradient_vanishes_at_mle():
    rng = np.random.default_rng(4)
    obj = make_ls_objective(rng)
    # Independent oracle: normal equations via lstsq.
    mle, *_ = np.linalg.lstsq(obj.data.xs, obj.data.ys, rcond=None)
    obs = evaluate_batch(obj, mle, np.arange(obj.n))
    assert np.linalg.norm(obs.f) <= 1e-8


# ---------------------------------------------------------------------------
# evaluate_batch semantics
# ---------------------------------------------------------------------------

def make_glm_objective(rng, n=40, d=3):
    xs = rng.standard_normal((n, d))
    ys = (rng.random(n) < 0.5).astype(float)
    return GlmObjective(GlmData(xs=xs, ys=ys, family=bernoulli_scalar_family()))


def make_expfam_objectives(rng, n=40):
    return [
        ExpFamilyObjective(bernoulli_family(), rng.integers(0, 2, size=(n, 1)).astype(float)),
        ExpFamilyObjective(gaussian_family(2), rng.standard_normal((n, 2))),
    ]


def test_evaluate_batch_equals_ascending_per_sample_mean_exactly():
    # Values and gradients are the sequential per-sample sums bit for bit;
    # the Hessian is one Gram product, equal to the sum to rounding.
    rng = np.random.default_rng(5)
    objs = [make_ls_objective(rng), make_glm_objective(rng), *make_expfam_objectives(rng)]
    for obj in objs:
        theta = rng.standard_normal(obj.d)
        batch = np.arange(obj.n)
        obs = evaluate_batch(obj, theta, batch)
        f = np.zeros(obj.d)
        q = np.zeros((obj.d, obj.d))
        value = 0.0
        for j in range(obj.n):
            v, g, h = obj.value_grad_hess(theta, j)
            value += v
            f += g
            q += h
        assert np.array_equal(obs.f, f / obj.n)
        assert obs.value == value / obj.n
        want = sym(q / obj.n)
        assert np.max(np.abs(obs.q - want)) <= 1e-14 * np.max(np.abs(want))
        assert np.array_equal(obs.q, obs.q.T)


def test_stacked_thetas_equal_single_theta_evaluations_exactly():
    rng = np.random.default_rng(16)
    objs = [make_ls_objective(rng), make_glm_objective(rng), *make_expfam_objectives(rng)]
    for obj in objs:
        thetas = rng.standard_normal((4, obj.d))
        for size in (1, 7, 40):
            idx = np.sort(rng.integers(0, obj.n, size=size))
            stacked = obj.batch_sums(thetas, idx)
            for k, theta in enumerate(thetas):
                for got, want in zip(stacked, obj.batch_sums(theta, idx)):
                    assert np.array_equal(got[k], want)
            # The batch-mean values that the line search forms from batch_sums.
            values = obj.batch_sums(thetas, idx, derivatives=False)[0] / size
            assert values.shape == (4,)
            for k, theta in enumerate(thetas):
                assert values[k] == evaluate_batch(obj, theta, idx).value


@pytest.mark.parametrize("d, size, count", [(2, 5, 1000), (20, 100, 100), (5, 20, 1)])
def test_stacked_hessian_sums_equal_one_trial_sums_bitwise(d, size, count):
    rng = np.random.default_rng(d)
    xs = rng.standard_normal((300, d))
    objs = [
        LeastSquaresObjective(LeastSquaresData(xs=xs, ys=xs @ np.ones(d))),
        GlmObjective(GlmData(xs=xs, ys=(rng.random(300) < 0.5).astype(float),
                             family=bernoulli_scalar_family())),
        ExpFamilyObjective(gaussian_family(d), rng.standard_normal((300, d))),
    ]
    thetas = rng.uniform(-1.0, 1.0, size=(count, d))
    idx = np.sort(rng.integers(0, 300, size=(count, size)), axis=-1)
    for obj in objs:
        stacked = obj.batch_sums(thetas, idx)[2]
        for k in range(count):
            assert np.array_equal(obj.batch_sums(thetas[k:k + 1], idx[k:k + 1])[2][0], stacked[k])
            assert np.array_equal(obj.batch_sums(thetas[k], idx[k])[2], stacked[k])


@pytest.mark.parametrize("d, size, count", [(2, 5, 1000), (5, 20, 1), (5, 20, 30), (20, 100, 100)])
def test_candidate_values_do_not_depend_on_the_stack(d, size, count):
    # Five points share each batch, as the line search's candidates do:
    # each point's predictors are the same dots as for a point alone.
    rng = np.random.default_rng(40 + d)
    xs = rng.standard_normal((300, d))
    objs = [
        LeastSquaresObjective(LeastSquaresData(xs=xs, ys=xs @ np.ones(d))),
        GlmObjective(GlmData(xs=xs, ys=(rng.random(300) < 0.5).astype(float),
                             family=bernoulli_scalar_family())),
    ]
    points = rng.uniform(-1.0, 1.0, size=(count, 5, d))
    idx = np.sort(rng.integers(0, 300, size=(count, 1, size)), axis=-1)
    for obj in objs:
        def values(thetas, batches):
            return obj.batch_sums(thetas, batches, derivatives=False)[0]

        stacked = values(points, idx)
        assert stacked.shape == (count, 5)
        one_at_a_time = np.array([[values(p, idx[k, 0]) for p in points[k]]
                                  for k in range(min(count, 30))])
        for k in range(min(count, 30)):
            assert np.array_equal(values(points[k:k + 1], idx[k:k + 1])[0], stacked[k])
        assert np.array_equal(one_at_a_time, stacked[:30])


@pytest.mark.parametrize("d", [2, 20])
def test_least_squares_step_decreases_are_the_evaluated_differences(d):
    # The closed form lam * (<v, f> + lam/2 * v^T Q v) takes Q before the
    # ridge. Along a null direction of a rank-one batch Hessian h is flat
    # (x . v = x0 x1 - x1 x0 is exactly 0), where the ridge's eps would
    # bend it by lam^2/2 * eps * |v|^2, at least 1e-9 here.
    rng = np.random.default_rng(45 + d)
    obj = make_ls_objective(rng, n=20, d=d)
    count, size = 60, 2
    theta = rng.uniform(-1.0, 1.0, size=(count, d))
    idx = np.sort(rng.integers(0, obj.n, size=(count, size)), axis=-1)
    idx[:20, 1] = idx[:20, 0]
    with np.errstate(invalid="ignore"):
        obs, failures = evaluate_batches(obj, theta, idx)
    assert not failures and (obs.ridge_eps[:20] > 0).all()
    v = rng.standard_normal((count, d))
    x = obj.data.xs[idx[:20, 0]]
    v[:20] = 0.0
    v[:20, 0], v[:20, 1] = x[:, 1], -x[:, 0]
    lams = 2.0 ** -np.arange(5.0)
    got = obj.step_decreases(theta, idx, obs, v, lams)
    evaluated = SubsampledObjective.step_decreases(obj, theta, idx, obs, v, lams)
    candidates = theta[:, None] + lams[:, None] * v[:, None]
    sums = obj.batch_sums(candidates, idx[:, None], derivatives=False)[0]
    assert np.array_equal(evaluated, sums / size - obs.value[:, None])
    assert np.all(np.abs(got - evaluated) <= 1e-12 * (1.0 + obs.value[:, None]))


def test_bernoulli_mean_is_the_logistic_function():
    from scipy.special import expit

    family = bernoulli_scalar_family()
    x = np.linspace(-700.0, 700.0, 28001)
    assert_allclose(family.a_prime(x), expit(x), rtol=1e-12, atol=0.0)
    wide = np.linspace(-1e3, 1e3, 20001)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        mean = family.a_prime(wide)
        variance = family.variance(mean)
    assert np.isfinite(mean).all() and np.isfinite(variance).all()
    # A''(eta) = V(A'(eta)): the variance function of the mean is the
    # logistic density expit(x) expit(-x), checked where x <= 0 and so
    # 1 - p loses no digits.
    left = x[x <= 0.0]
    assert_allclose(family.variance(family.a_prime(left)), expit(left) * expit(-left),
                    rtol=1e-12, atol=0.0)
    assert family.a_prime(np.array(0.0)) == 0.5


def test_evaluate_batch_bit_identical_across_calls():
    rng = np.random.default_rng(6)
    obj = make_ls_objective(rng)
    theta = rng.standard_normal(obj.d)
    batch = rng.integers(0, obj.n, size=7)
    a = evaluate_batch(obj, theta, batch)
    b = evaluate_batch(obj, theta, np.array(sorted(batch)))
    assert np.array_equal(a.f, b.f)
    assert np.array_equal(a.q, b.q)
    assert a.value == b.value


def test_evaluate_batch_duplicates_allowed():
    rng = np.random.default_rng(7)
    obj = make_ls_objective(rng)
    theta = rng.standard_normal(obj.d)
    obs = evaluate_batch(obj, theta, [3, 3, 3])
    v, g, _ = obj.value_grad_hess(theta, 3)
    assert_allclose(obs.f, g)
    assert obs.value == pytest.approx(v)


def test_evaluate_batch_index_out_of_range():
    rng = np.random.default_rng(8)
    obj = make_ls_objective(rng)
    with pytest.raises(ValueError):
        evaluate_batch(obj, np.zeros(obj.d), [obj.n])
    with pytest.raises(ValueError):
        evaluate_batch(obj, np.zeros(obj.d), [-1])
    with pytest.raises(ValueError):
        evaluate_batch(obj, np.zeros(obj.d), [])


def test_evaluate_batch_rejects_non_finite_theta():
    rng = np.random.default_rng(9)
    obj = make_ls_objective(rng)
    with pytest.raises(ValueError):
        evaluate_batch(obj, np.array([np.nan] * obj.d), [0])


def test_evaluate_batch_overflow_is_a_numerical_error():
    # Runs with RuntimeWarning as an error: the overflow must not warn.
    rng = np.random.default_rng(17)
    xs = rng.standard_normal((10, 3))
    gaussian_glm = GlmObjective(GlmData(xs=xs, ys=xs @ np.ones(3), family=gaussian_scalar_family()))
    for obj in (make_ls_objective(rng), gaussian_glm):
        with pytest.raises(NumericalError):
            evaluate_batch(obj, np.full(obj.d, 1e200), [0, 1])


def test_objective_without_a_kernel_is_not_implemented():
    class Bare(SubsampledObjective):
        n = 2
        d = 1

    with pytest.raises(NotImplementedError):
        evaluate_batch(Bare(), np.zeros(1), [0])


def test_observation_carries_the_cholesky_factor_of_q():
    # A single observation is PD-checked when it is built, and its
    # Newton direction is the checked solve of q.
    rng = np.random.default_rng(11)
    obj = make_ls_objective(rng)
    theta = rng.standard_normal(obj.d)
    # One sample gives a rank-one Hessian, which takes the ridge path.
    for batch, ridged in (([3], True), ([0, 5, 5, 9, 17, 30], False)):
        obs = evaluate_batch(obj, theta, batch)
        assert (obs.ridge_eps > 0.0) == ridged
        assert np.array_equal(obs.newton_direction(), -solve_spd(obs.q, obs.f))
    with pytest.raises(PositiveDefiniteError):
        BatchObservation(f=np.zeros(2), q=np.diag([1.0, -1.0]), value=0.0)


def test_batch_hessian_psd_before_regularization():
    rng = np.random.default_rng(10)
    obj = make_ls_objective(rng)
    theta = rng.standard_normal(obj.d)
    for _ in range(20):
        batch = np.sort(rng.integers(0, obj.n, size=5))
        q = np.mean([obj.grad_hess(theta, int(j))[1] for j in batch], axis=0)
        lo, hi = eig_extremes(sym(q))
        assert lo >= -1e-10 * max(hi, 1.0)


# ---------------------------------------------------------------------------
# exponential families
# ---------------------------------------------------------------------------

def test_gaussian_family_gradient_is_residual():
    fam = gaussian_family(2)
    obj = ExpFamilyObjective(fam, np.array([[0.3, -0.7], [1.0, 2.0]]))
    theta = np.array([0.5, 0.5])
    _, g, h = obj.value_grad_hess(theta, 1)
    assert_allclose(g, theta - np.array([1.0, 2.0]))
    assert_allclose(h, np.eye(2))


def test_bernoulli_family_at_zero():
    fam = bernoulli_family()
    obj = ExpFamilyObjective(fam, np.array([[1.0], [0.0]]))
    _, g, h = obj.value_grad_hess(np.zeros(1), 0)
    assert_allclose(g, np.array([0.5 - 1.0]))
    assert_allclose(h, np.array([[0.25]]))


def test_expfam_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    fam = bernoulli_family()
    obj = ExpFamilyObjective(fam, rng.integers(0, 2, size=(30, 1)).astype(float))
    for _ in range(10):
        theta = rng.standard_normal(1)
        j = int(rng.integers(obj.n))
        _, g, _ = obj.value_grad_hess(theta, j)
        fd = finite_difference_gradient(lambda th: obj.value(th, j), theta)
        assert np.max(np.abs(g - fd)) <= 1e-6


def test_expfam_hessian_matches_monte_carlo_variance():
    # Var of T(Y) under the Bernoulli member at theta should equal hess_a.
    rng = np.random.default_rng(12)
    fam = bernoulli_family()
    theta = np.array([0.4])
    draws = fam.sample(rng, theta, 10 ** 6)
    ts = fam.t(draws)
    mc_var = ts.var()
    se = np.sqrt(2.0) * ts.var() / np.sqrt(draws.shape[0])  # rough SE scale
    expected = fam.hess_a(theta)[0, 0]
    assert abs(mc_var - expected) <= 3.0 * max(se, 1e-3)


# ---------------------------------------------------------------------------
# GLMs
# ---------------------------------------------------------------------------

def test_identity_link_gaussian_glm_reduces_to_least_squares():
    rng = np.random.default_rng(13)
    xs = rng.standard_normal((15, 3))
    ys = rng.standard_normal(15)
    glm = GlmObjective(GlmData(xs=xs, ys=ys, family=gaussian_scalar_family()))
    ls = LeastSquaresObjective(LeastSquaresData(xs=xs, ys=ys))
    theta = rng.standard_normal(3)
    for j in (0, 7, 14):
        g_glm, h_glm = glm.grad_hess(theta, j)
        g_ls, h_ls = ls.grad_hess(theta, j)
        assert np.array_equal(g_glm, g_ls)
        assert np.array_equal(h_glm, h_ls)


def test_logistic_glm_gradient_matches_finite_differences():
    rng = np.random.default_rng(14)
    xs = rng.standard_normal((20, 2))
    ys = rng.integers(0, 2, size=20).astype(float)
    glm = GlmObjective(GlmData(xs=xs, ys=ys, family=bernoulli_scalar_family()))
    for _ in range(10):
        theta = rng.standard_normal(2)
        j = int(rng.integers(20))
        _, g, h = glm.value_grad_hess(theta, j)
        fd_g = finite_difference_gradient(lambda th: glm.value(th, j), theta)
        fd_h = finite_difference_hessian(lambda th: glm.grad_hess(th, j)[0], theta)
        assert np.max(np.abs(g - fd_g)) <= 1e-6
        assert np.max(np.abs(h - fd_h)) <= 1e-4 * max(1.0, np.max(np.abs(h)))


def test_bernoulli_glm_hessian_at_zero():
    xs = np.array([[1.0, 2.0]])
    glm = GlmObjective(GlmData(xs=xs, ys=np.array([1.0]), family=bernoulli_scalar_family()))
    _, h = glm.grad_hess(np.zeros(2), 0)
    assert_allclose(h, 0.25 * np.outer(xs[0], xs[0]))


# ---------------------------------------------------------------------------
# Fisher identity diagnostic
# ---------------------------------------------------------------------------

def test_fisher_check_gaussian():
    rng = np.random.default_rng(15)
    report = fisher_identity_check(gaussian_family(1), np.zeros(1), 10 ** 6, rng)
    assert report.expected[0, 0] == 1.0
    assert report.within(3.0)


def test_fisher_check_bernoulli():
    rng = np.random.default_rng(16)
    report = fisher_identity_check(bernoulli_family(), np.zeros(1), 10 ** 6, rng)
    assert report.expected[0, 0] == 0.25
    assert report.within(3.0)


def test_fisher_check_degenerate_family():
    # a, grad_a and hess_a map a stack of points (..., 1) to (...),
    # (..., 1) and (..., 1, 1).
    fam = ExpFamily(
        d=1,
        k=1,
        t=lambda xs: np.ones((np.atleast_2d(xs).shape[0], 1)),
        a=lambda theta: np.asarray(theta, dtype=float)[..., 0],
        grad_a=lambda theta: np.ones(np.shape(theta)),
        hess_a=lambda theta: np.zeros(np.shape(theta) + (1,)),
        sample=lambda rng, theta, size: np.zeros((size, 1)),
    )
    report = fisher_identity_check(fam, np.zeros(1), 10 ** 4, np.random.default_rng(0))
    assert report.sample_variance[0, 0] == 0.0
    assert report.within(3.0)


def test_fisher_check_requires_enough_draws():
    with pytest.raises(ValueError):
        fisher_identity_check(gaussian_family(1), np.zeros(1), 999)


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x_1,x_2,y\n1.0,2.0,3.0\n-0.5,0.25,1.5\n")
    data = load_least_squares_csv(path)
    assert_allclose(data.xs, np.array([[1.0, 2.0], [-0.5, 0.25]]))
    assert_allclose(data.ys, np.array([3.0, 1.5]))


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        load_least_squares_csv(path)


def test_csv_rejects_missing_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError):
        load_least_squares_csv(path)
