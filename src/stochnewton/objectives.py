"""Sub-sampled objectives: average-of-log-losses problems.

An objective is an average (1/n) * sum_j log g_j(theta) of per-sample
log-convex losses. Optimizers only ever see batch means of the
per-sample value, gradient, and Hessian, packaged as a
``BatchObservation``, and batch-mean values along a line search. Three
families are built in:

* least squares (Gaussian linear regression negative log-likelihood),
* natural-parameter exponential-family maximum likelihood,
* canonical generalized linear models with scalar response.

Each family implements one numpy kernel, ``row_terms``: the per-sample
value, gradient and Hessian at every index of a batch at once, for one
theta of shape (d,) or a stack of k thetas of shape (k, d).
``SubsampledObjective.batch_sums`` adds the rows up in ascending index
order with a sequential reduction (never BLAS or numpy's pairwise
summation; see ``_sequential_sums``), so a batch sum is a pure function
of theta and the batch multiset, equal bit for bit to adding the
per-sample terms one at a time, whatever the caller or thread count.
Per-sample ``value_grad_hess`` is the one-index case of the same kernel.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import expit

from .linalg import PositiveDefiniteError, cholesky, cholesky_solve, sym, try_cholesky

__all__ = [
    "NumericalError",
    "BatchObservation",
    "SubsampledObjective",
    "sample_batch",
    "sorted_batch",
    "evaluate_batch",
    "batch_mean_values",
    "LeastSquaresData",
    "load_least_squares_csv",
    "LeastSquaresObjective",
    "ExpFamily",
    "gaussian_family",
    "bernoulli_family",
    "ExpFamilyObjective",
    "ScalarFamily",
    "gaussian_scalar_family",
    "bernoulli_scalar_family",
    "GlmData",
    "GlmObjective",
    "FisherCheckReport",
    "fisher_identity_check",
]


class NumericalError(RuntimeError):
    """Non-finite quantity produced while evaluating an objective."""

    def __init__(self, message, theta=None, index=None):
        if theta is not None:
            message = f"{message} at theta={np.asarray(theta)!r}"
        if index is not None:
            message = f"{message} (sample index {index})"
        super().__init__(message)
        self.theta = None if theta is None else np.array(theta)
        self.index = index


@dataclass(frozen=True)
class BatchObservation:
    """Batch-mean gradient ``f``, regularized SPD batch-mean Hessian ``q``,
    and batch-mean objective value for one mini-batch.

    ``q_factor`` is the lower Cholesky factor of ``q``, so that the
    Newton solve and the filter reuse the factorization that certified
    ``q`` as PD. When it is not given it is computed from ``q``, and a
    ``q`` that is not PD raises PositiveDefiniteError.
    """

    f: np.ndarray
    q: np.ndarray
    value: float
    q_factor: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.q_factor is None:
            object.__setattr__(self, "q_factor", cholesky(self.q))

    def newton_direction(self):
        """The batch Newton direction -q^-1 f."""
        return -cholesky_solve(self.q_factor, self.f)


def sample_batch(rng, n, size):
    """Draw ``size`` indices i.i.d. uniformly from {0, ..., n-1} with replacement."""
    if size < 1:
        raise ValueError("batch size must be >= 1")
    if n < 1:
        raise ValueError("sample count must be >= 1")
    return rng.integers(0, n, size=size)


def _sequential_sums(parts, axis):
    """Sum of each array in ``parts`` along ``axis``, adding the slices strictly in order.

    Every part is laid out with the summed axis first and its other axes
    flattened into columns, and the parts are placed side by side in one
    C-contiguous (b, m) block. With m > 1 columns, ``np.add.reduce``
    adds one whole row at a time into the running total, which is a
    sequential sum in every column, so one reduction serves all parts.
    With a single column numpy would switch to pairwise summation, so
    that case goes through ``np.add.accumulate`` instead.
    """
    if axis:
        parts = [p.swapaxes(0, axis) for p in parts]
    b = parts[0].shape[0]
    cols = [p.reshape(b, -1) for p in parts]
    widths = [c.shape[1] for c in cols]
    # np.concatenate would follow the layout of its inputs, which is
    # column-major for swapped stacks; the sum needs row-major.
    flat = np.empty((b, sum(widths)))
    np.concatenate(cols, axis=1, out=flat)
    if flat.shape[1] == 1:
        total = np.add.accumulate(flat[:, 0])[-1:]
    else:
        total = np.add.reduce(flat, axis=0)
    sums = []
    start = 0
    for p, width in zip(parts, widths):
        sums.append(total[start:start + width].reshape(p.shape[1:]))
        start += width
    return tuple(sums)


class SubsampledObjective:
    """Base class for averaged log-loss objectives.

    Subclasses set ``n`` and ``d`` and implement the vectorized kernel
    ``row_terms``. An objective that defines only the per-sample
    ``value_grad_hess`` also works: the base ``row_terms`` then calls it
    once per (theta, index) pair. Either way, sums over a batch are
    formed by ``batch_sums`` in the order of the given indices, which
    callers sort ascending. Per-sample Hessians must be symmetric
    positive semidefinite.
    """

    n: int
    d: int

    def row_terms(self, theta, idx, derivatives=True):
        """Per-sample terms at every index of ``idx`` (shape (b,)).

        ``theta`` has shape (d,) or (k, d). Returns the tuple (values,)
        or, with ``derivatives``, (values, gradients, Hessians), with
        shapes (b,), (b, d), (b, d, d) for one theta and a leading k
        axis for a stack. This default loops over ``value_grad_hess``.
        """
        thetas = np.atleast_2d(theta)
        terms = [[self.value_grad_hess(th, int(j)) for j in idx] for th in thetas]
        rows = tuple(
            np.array([[term[part] for term in row] for row in terms], dtype=float)
            for part in range(3 if derivatives else 1)
        )
        return rows if theta.ndim == 2 else tuple(r[0] for r in rows)

    def batch_sums(self, theta, idx, derivatives=True):
        """Sums over ``idx`` of the ``row_terms``, added in the order of ``idx``.

        Same shapes as ``row_terms`` with the batch axis summed away.
        Overflow produces inf or nan without a warning; callers check
        the result for finiteness.
        """
        theta = np.asarray(theta, dtype=float)
        axis = theta.ndim - 1
        with np.errstate(over="ignore", invalid="ignore"):
            return _sequential_sums(self.row_terms(theta, idx, derivatives), axis)

    def value_grad_hess(self, theta, j):
        """Per-sample (log g_j(theta), gradient, Hessian)."""
        if type(self).row_terms is SubsampledObjective.row_terms:
            raise NotImplementedError("implement row_terms or value_grad_hess")
        value, grad, hess = self.batch_sums(theta, np.array([j], dtype=np.intp))
        return float(value), grad, hess

    def value(self, theta, j):
        return self.value_grad_hess(theta, j)[0]

    def grad_hess(self, theta, j):
        _, g, h = self.value_grad_hess(theta, j)
        return g, h


def _regularize_hessian(q):
    """Ridge an almost-PSD batch Hessian until Cholesky succeeds.

    Adds eps*I with eps = 1e-8 * (1 + trace(q)/d), doubling eps up to
    ten times before giving up. Returns the matrix and its lower
    Cholesky factor.
    """
    factor = try_cholesky(q)
    if factor is not None:
        return q, factor
    d = q.shape[0]
    eps = 1e-8 * (1.0 + float(np.trace(q)) / d)
    eye = np.eye(d)
    for _ in range(10):
        candidate = q + eps * eye
        factor = try_cholesky(candidate)
        if factor is not None:
            return candidate, factor
        eps *= 2.0
    raise PositiveDefiniteError(
        "batch Hessian is not positive definite even after ridge regularization"
    )


def sorted_batch(obj, batch):
    """``batch`` as an ascending index array, checked against ``obj.n``."""
    idx = np.sort(np.asarray(batch, dtype=np.intp).ravel())
    if idx.size == 0:
        raise ValueError("batch is empty")
    if idx[0] < 0 or idx[-1] >= obj.n:
        raise ValueError(f"batch index out of range for n={obj.n}")
    return idx


def evaluate_batch(obj, theta, batch):
    """Batch-mean value, gradient, and regularized Hessian at ``theta``.

    Per-sample terms are summed in ascending index order (duplicates
    included), which makes the result a pure function of (theta, batch
    multiset). The mean Hessian is ridge-regularized to PD if needed.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.shape[0] != obj.d:
        raise ValueError(f"theta must be a length-{obj.d} vector")
    if not np.isfinite(theta).all():
        raise ValueError("theta contains non-finite entries")
    idx = sorted_batch(obj, batch)
    value, f, q = obj.batch_sums(theta, idx)
    if not (math.isfinite(value) and np.isfinite(f).all() and np.isfinite(q).all()):
        raise NumericalError("non-finite batch evaluation", theta=theta)
    size = float(idx.size)
    q, q_factor = _regularize_hessian(sym(q / size))
    return BatchObservation(f=f / size, q=q, value=float(value) / size, q_factor=q_factor)


def batch_mean_values(obj, thetas, idx):
    """Batch-mean objective value at each row of ``thetas`` (k, d).

    ``idx`` is an ascending index array, as from ``sorted_batch``; the
    values are summed exactly as in ``evaluate_batch``. Non-finite
    values are returned as they are.
    """
    return obj.batch_sums(thetas, idx, derivatives=False)[0] / float(idx.size)


# ---------------------------------------------------------------------------
# Least squares
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LeastSquaresData:
    """Regression data: covariate rows ``xs`` (n, d) and responses ``ys`` (n,)."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.atleast_2d(np.asarray(self.xs, dtype=float))
        ys = np.asarray(self.ys, dtype=float).ravel()
        if xs.shape[0] != ys.shape[0]:
            raise ValueError("xs and ys disagree on the sample count")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("data contains non-finite entries")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def n(self):
        return self.xs.shape[0]

    @property
    def d(self):
        return self.xs.shape[1]


def load_least_squares_csv(path):
    """Read a least-squares dataset from CSV with header ``x_1,...,x_d,y``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline().strip()
        if not header:
            raise ValueError(f"{path}: missing header row")
        names = [c.strip() for c in header.split(",")]
        d = len(names) - 1
        expected = [f"x_{i}" for i in range(1, d + 1)] + ["y"]
        if d < 1 or names != expected:
            raise ValueError(
                f"{path}: header must be x_1,...,x_d,y; got {names}"
            )
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if rows.shape[1] != d + 1:
        raise ValueError(f"{path}: rows do not match the header width")
    return LeastSquaresData(xs=rows[:, :d], ys=rows[:, d])


class LeastSquaresObjective(SubsampledObjective):
    """log g_j(theta) = (y_j - theta.x_j)^2 / 2.

    Gradient x_j r_j with r_j = theta.x_j - y_j; Hessian x_j x_j^T,
    which does not depend on theta.
    """

    def __init__(self, data):
        self.data = data
        self.n = data.n
        self.d = data.d

    def row_terms(self, theta, idx, derivatives=True):
        xs = self.data.xs[idx]
        r = np.vecdot(xs, theta[..., None, :]) - self.data.ys[idx]
        value = 0.5 * r * r
        if not derivatives:
            return (value,)
        outers = xs[:, :, None] * xs[:, None, :]
        if r.ndim == 2:
            outers = np.broadcast_to(outers, r.shape + outers.shape[1:])
        return value, xs * r[..., None], outers


# ---------------------------------------------------------------------------
# Exponential families (natural parameterization)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpFamily:
    """Natural-parameter exponential family.

    ``t`` maps a batch of raw samples (m, k) to sufficient statistics
    (m, d); ``a`` is the log-normalizer with evaluators ``grad_a`` and
    ``hess_a``; ``sample(rng, theta, size)`` draws from the member at
    ``theta``. grad_a and hess_a are the mean and covariance of t under
    that member, which is what makes the Newton direction a natural
    gradient here.
    """

    d: int
    k: int
    t: Callable
    a: Callable
    grad_a: Callable
    hess_a: Callable
    sample: Callable
    name: str = ""


def gaussian_family(d=1):
    """Gaussian with identity covariance; the natural parameter is the mean."""
    return ExpFamily(
        d=d,
        k=d,
        t=lambda xs: np.atleast_2d(xs),
        a=lambda theta: 0.5 * float(np.dot(theta, theta)),
        grad_a=lambda theta: np.asarray(theta, dtype=float),
        hess_a=lambda theta: np.eye(d),
        sample=lambda rng, theta, size: theta + rng.standard_normal((size, d)),
        name="gaussian",
    )


def bernoulli_family():
    """Bernoulli in the natural (log-odds) parameterization."""
    return ExpFamily(
        d=1,
        k=1,
        t=lambda xs: np.atleast_2d(np.asarray(xs, dtype=float).reshape(-1, 1)),
        a=lambda theta: float(np.logaddexp(0.0, theta[0])),
        grad_a=lambda theta: np.array([float(expit(theta[0]))]),
        hess_a=lambda theta: np.array([[float(expit(theta[0])) * (1.0 - float(expit(theta[0])))]]),
        sample=lambda rng, theta, size: (
            rng.random((size, 1)) < expit(theta[0])
        ).astype(float),
        name="bernoulli",
    )


class ExpFamilyObjective(SubsampledObjective):
    """Negative log-likelihood for i.i.d. exponential-family samples.

    log g_j(theta) = A(theta) - <theta, T(x_j)> up to the carrier term,
    which is constant in theta and therefore omitted. The per-sample
    Hessian is hess_a(theta) for every j.
    """

    def __init__(self, family, samples):
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        if samples.shape[1] != family.k:
            raise ValueError(
                f"samples must have {family.k} columns, got {samples.shape[1]}"
            )
        self.family = family
        self.samples = samples
        self.n = samples.shape[0]
        self.d = family.d
        self._ts = np.asarray(family.t(samples), dtype=float).reshape(self.n, self.d)

    def row_terms(self, theta, idx, derivatives=True):
        fam = self.family
        thetas = np.atleast_2d(theta)
        ts = self._ts[idx]
        a_vals = np.array([float(fam.a(th)) for th in thetas])
        rows = [a_vals[:, None] - np.vecdot(thetas[:, None, :], ts)]
        if derivatives:
            grad_a = np.array([np.asarray(fam.grad_a(th), dtype=float) for th in thetas])
            hess_a = np.array([sym(np.asarray(fam.hess_a(th), dtype=float)) for th in thetas])
            rows.append(grad_a[:, None, :] - ts)
            rows.append(np.broadcast_to(hess_a[:, None], (len(thetas), len(ts)) + hess_a.shape[1:]))
        return tuple(rows) if theta.ndim == 2 else tuple(r[0] for r in rows)


# ---------------------------------------------------------------------------
# Canonical GLMs (scalar response)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarFamily:
    """Scalar exponential-family component for canonical GLMs.

    ``t``, ``a``, ``a_prime``, ``a_double_prime`` act elementwise on
    arrays; ``sample(rng, eta, size)`` draws responses at natural
    parameter eta.
    """

    t: Callable
    a: Callable
    a_prime: Callable
    a_double_prime: Callable
    sample: Callable
    name: str = ""


def gaussian_scalar_family():
    """Unit-variance Gaussian response; the canonical link is the identity."""
    return ScalarFamily(
        t=lambda y: np.asarray(y, dtype=float),
        a=lambda eta: 0.5 * np.square(eta),
        a_prime=lambda eta: np.asarray(eta, dtype=float),
        a_double_prime=lambda eta: np.ones_like(np.asarray(eta, dtype=float)),
        sample=lambda rng, eta, size: eta + rng.standard_normal(size),
        name="gaussian",
    )


def bernoulli_scalar_family():
    """Bernoulli response; the canonical link is the logit."""
    return ScalarFamily(
        t=lambda y: np.asarray(y, dtype=float),
        a=lambda eta: np.logaddexp(0.0, eta),
        a_prime=expit,
        a_double_prime=lambda eta: expit(eta) * (1.0 - expit(eta)),
        sample=lambda rng, eta, size: (rng.random(size) < expit(eta)).astype(float),
        name="bernoulli",
    )


@dataclass(frozen=True)
class GlmData:
    """Covariate rows ``xs`` (n, d), scalar responses ``ys`` (n,), and the
    scalar family tying them together."""

    xs: np.ndarray
    ys: np.ndarray
    family: ScalarFamily

    def __post_init__(self):
        xs = np.atleast_2d(np.asarray(self.xs, dtype=float))
        ys = np.asarray(self.ys, dtype=float).ravel()
        if xs.shape[0] != ys.shape[0]:
            raise ValueError("xs and ys disagree on the sample count")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("data contains non-finite entries")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)


class GlmObjective(SubsampledObjective):
    """Canonical GLM negative log-likelihood with eta_j = theta.x_j.

    log g_j(theta) = A(eta_j) - eta_j T(y_j) up to the carrier term;
    gradient x_j (A'(eta_j) - T(y_j)); Hessian (x_j x_j^T) A''(eta_j).
    The identity-link Gaussian case coincides with least squares.
    """

    def __init__(self, data):
        self.data = data
        self.n = data.xs.shape[0]
        self.d = data.xs.shape[1]
        self._t_ys = np.asarray(data.family.t(data.ys), dtype=float).ravel()

    def row_terms(self, theta, idx, derivatives=True):
        fam = self.data.family
        xs = self.data.xs[idx]
        t_ys = self._t_ys[idx]
        eta = np.vecdot(xs, theta[..., None, :])
        value = np.asarray(fam.a(eta), dtype=float) - eta * t_ys
        if not derivatives:
            return (value,)
        mean = np.asarray(fam.a_prime(eta), dtype=float)
        var = np.asarray(fam.a_double_prime(eta), dtype=float)
        outers = xs[:, :, None] * xs[:, None, :]
        return value, xs * (mean - t_ys)[..., None], outers * var[..., None, None]


# ---------------------------------------------------------------------------
# Fisher-identity diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FisherCheckReport:
    """Monte-Carlo check that the score variance matches hess_a at the truth.

    Diagnostic only; it never gates optimization.
    """

    sample_variance: np.ndarray
    expected: np.ndarray
    deviation: np.ndarray
    standard_error: np.ndarray
    draws: int

    def within(self, n_se):
        """True if every entry deviates by at most n_se standard errors."""
        return bool(np.all(self.deviation <= n_se * self.standard_error))


def fisher_identity_check(family, theta_star, draws, rng=None):
    """Compare the MC variance of the score at ``theta_star`` to hess_a.

    Draws ``draws`` samples from the family member at theta_star, forms
    the score grad_a(theta) - T(x) per sample, and reports the
    entrywise deviation of its sample covariance from hess_a(theta_star)
    together with the Monte-Carlo standard error of each entry.
    """
    if draws < 1000:
        raise ValueError("fisher_identity_check needs at least 1000 draws")
    if rng is None:
        rng = np.random.default_rng()
    theta_star = np.asarray(theta_star, dtype=float)
    xs = family.sample(rng, theta_star, draws)
    ts = np.asarray(family.t(xs), dtype=float).reshape(draws, family.d)
    scores = np.asarray(family.grad_a(theta_star), dtype=float)[None, :] - ts
    dev = scores - scores.mean(axis=0)
    var_hat = dev.T @ dev / draws
    # SE of each covariance entry from the second moment of dev_i*dev_j.
    sq = dev * dev
    second = sq.T @ sq / draws
    se = np.sqrt(np.maximum(second - var_hat * var_hat, 0.0) / draws)
    expected = sym(np.asarray(family.hess_a(theta_star), dtype=float))
    return FisherCheckReport(
        sample_variance=var_hat,
        expected=expected,
        deviation=np.abs(var_hat - expected),
        standard_error=se,
        draws=draws,
    )
