"""Sub-sampled objectives: average-of-log-losses problems.

An objective is an average (1/n) * sum_j log g_j(theta) of per-sample
log-convex losses. Optimizers only ever see batch means of the
per-sample value, gradient, and Hessian, packaged as a
``BatchObservation``, and the decreases of the batch mean along a line
search (``step_decreases``): by default from batch-mean values at the
candidates, and for least squares, whose batch objective is exactly
quadratic, from the observation alone. Three families are built in:

* least squares (Gaussian linear regression negative log-likelihood),
* natural-parameter exponential-family maximum likelihood,
* canonical generalized linear models with scalar response.

Each family implements one numpy kernel, ``row_terms``: for any
broadcastable stack of (theta, batch) pairs it returns the per-sample
values and gradients of the batch as rows, and the sum of the
per-sample Hessians over the batch. The linear models (least squares
and GLMs) start from the linear predictors x_j . theta, one dot per
(point, row), however many points share a batch.
``SubsampledObjective.batch_sums`` turns the rows into batch sums
under a rule with two parts:

* Values and gradients are added up in ascending index order with a
  sequential reduction (never BLAS or numpy's pairwise summation; see
  ``_sequential_sum``), so their batch sums equal, bit for bit, adding
  the per-sample terms one at a time.
* The Hessian sum is one Gram product per member of the stack,
  X_b^T diag(w) X_b, where the rows of X_b are the batch's covariates
  (least squares has w = 1 and a canonical GLM w = A''(eta)), or b
  times the shared Hessian for an exponential family. It agrees with
  the sequential sum to rounding, not bit for bit, but it is
  deterministic: a member gets the same bits alone as in a stack, and
  under any BLAS thread count.

Either way a batch sum is a pure function of theta and the batch
multiset, never of the stack around it or of the other points that
share the batch. ``evaluate_batches`` forms the
regularized batch observation of a whole stack of trials at once;
``evaluate_batch`` is its one-trial case, and per-sample
``value_grad_hess`` the one-index case of ``batch_sums``.
"""

from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from .linalg import PositiveDefiniteError, pd_mask, require_pd, scaled_trace, spd_solve, sym

__all__ = [
    "NumericalError",
    "BatchObservation",
    "SubsampledObjective",
    "sample_batch",
    "sorted_batch",
    "evaluate_batches",
    "evaluate_batch",
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

    def __init__(self, message, theta=None):
        if theta is not None:
            message = f"{message} at theta={np.asarray(theta)!r}"
        super().__init__(message)


@dataclass(frozen=True)
class BatchObservation:
    """Batch-mean gradient ``f``, regularized SPD batch-mean Hessian ``q``,
    and batch-mean objective ``value`` for one mini-batch; the line
    search starts from ``value`` and ``f``.

    ``ridge_eps`` is the eps of the eps*I that the ridge added to the
    batch-mean Hessian to make ``q``, 0 where none was added. The
    observations of a stack of trials (see ``evaluate_batches``) share
    one object whose fields carry a leading trial axis. A single
    observation (a ``q`` of shape (d, d)) that is not PD raises
    PositiveDefiniteError when it is built; a stack is not checked.
    """

    f: np.ndarray
    q: np.ndarray
    value: float
    ridge_eps: float = 0.0

    def __post_init__(self):
        if np.ndim(self.q) == 2:
            require_pd(self.q)

    def newton_direction(self):
        """The batch Newton direction -q^-1 f."""
        return -spd_solve(self.q, self.f)


def sample_batch(rng, n, size):
    """Draw ``size`` indices i.i.d. uniformly from {0, ..., n-1} with replacement."""
    if size < 1:
        raise ValueError("batch size must be >= 1")
    if n < 1:
        raise ValueError("sample count must be >= 1")
    return rng.integers(0, n, size=size)


def _sequential_sum(rows, shape):
    """The rows of ``rows`` (shape (b, ...)) added one row at a time.

    This is the summation rule for batch values and gradients. ``rows``
    is first made a C-contiguous array of ``shape`` that this function
    owns. Over such an array ``np.add.reduce`` along the first axis adds
    one whole row at a time into the running total, which is a
    sequential sum in every column, as long as a row holds more than one
    number; with a single number per row numpy would switch to pairwise
    summation, so that case goes through ``np.add.accumulate`` instead.
    """
    if rows.shape != shape or not (rows.flags.c_contiguous and rows.flags.owndata):
        rows = np.array(np.broadcast_to(rows, shape), order="C")
    if rows.size == shape[0]:
        return np.add.accumulate(rows.reshape(-1))[-1:].reshape(shape[1:])
    return np.add.reduce(rows, axis=0)


def _gram(xs, weights=None):
    """sum_k w_k x_k x_k^T over the rows x_k along the first axis of ``xs``.

    ``xs`` is (b, ..., d) and ``weights`` (b, ...) or None for w = 1;
    the leading shapes after the row axis broadcast. This is the
    summation rule for batch Hessians: one matrix product X^T diag(w) X
    per member of the stack, which numpy hands to BLAS one member at a
    time, so a member's bits do not depend on the stack around it.
    """
    # (b, ..., d) -> (..., b, d); transpose is much cheaper than moveaxis
    # on the one-trial path.
    xs = xs.transpose((*range(1, xs.ndim - 1), 0, xs.ndim - 1))
    if weights is None:
        return np.matmul(xs.mT, xs)
    weights = weights.transpose((*range(1, weights.ndim), 0))
    return np.matmul(xs.mT * weights[..., None, :], xs)


class SubsampledObjective:
    """Base class for averaged log-loss objectives.

    Subclasses set ``n`` and ``d`` (and ``rank_one_hessians`` when every
    per-sample Hessian has rank at most one) and implement the
    vectorized kernel ``row_terms``. Sums over a batch are formed by
    ``batch_sums`` in the order of the given indices, which callers sort
    ascending. Per-sample Hessians must be symmetric positive
    semidefinite.
    """

    n: int
    d: int
    rank_one_hessians = False

    def row_terms(self, theta, idx, derivatives=True):
        """Per-sample terms of the samples ``idx[k, ...]`` at ``theta[..., :]``.

        ``idx`` is an integer array (b, ...) holding one batch row per
        index of its first axis, and ``theta`` (1, ..., d) a stack of
        points; the shapes after their first axes broadcast to L.
        Returns the tuple (values,) or, with ``derivatives``, (values,
        gradients, Hessian sum): value and gradient rows that broadcast
        to (b,) + L and (b,) + L + (d,), and the sum over the b rows of
        the per-sample Hessians, which broadcasts to L + (d, d).
        """
        raise NotImplementedError("implement row_terms")

    def batch_sums(self, theta, idx, derivatives=True):
        """Sums of the per-sample terms over the last axis of ``idx``.

        ``theta`` has shape (..., d) and ``idx`` shape (..., b), with
        leading shapes that broadcast to L: one batch per theta, one
        batch for a stack of thetas, or one theta for a stack of
        batches. Returns (values,) or (values, gradients, Hessians) of
        shapes L, L + (d,), L + (d, d). Values and gradients are the
        sequential sums of ``row_terms``'s rows in the order of ``idx``;
        the Hessians are the kernel's Gram sums (see the module
        docstring). Overflow produces inf or nan, with numpy's warning
        unless the caller's error state silences it; callers check the
        result for finiteness.
        """
        theta = np.asarray(theta, dtype=float)
        idx = np.asarray(idx, dtype=np.intp)
        lead = theta.shape[:-1]
        if idx.shape[:-1] != lead:
            lead = np.broadcast_shapes(lead, idx.shape[:-1])
        # The kernel sees the rows along a new first axis, so that values
        # and gradients come back with their rows first, ready to be summed.
        rank = len(lead)
        theta = theta.reshape((1,) * (rank + 2 - theta.ndim) + theta.shape)
        rows = idx.reshape((1,) * (rank + 1 - idx.ndim) + idx.shape)
        rows = rows.transpose((rank,) + tuple(range(rank)))
        terms = self.row_terms(theta, rows, derivatives)
        sums = [_sequential_sum(part, rows.shape[:1] + lead + tail)
                for part, tail in zip(terms[:2], ((), (self.d,)))]
        if derivatives:
            hess = terms[2]
            # np.broadcast_to costs microseconds, which a one-trial step notices.
            if hess.shape != lead + (self.d, self.d):
                hess = np.broadcast_to(hess, lead + (self.d, self.d))
            sums.append(hess)
        return tuple(sums)

    def step_decreases(self, theta, idx, obs, v, lams):
        """Decreases h(theta + lam*v) - h(theta) of the batch objective h along a line.

        ``theta`` and ``v`` are (T, d) stacks, ``idx`` (T, b) the
        ascending batches, ``obs`` their observation at ``theta`` (as
        from ``evaluate_batches``) and ``lams`` (k,) the step lengths.
        Returns the (T, k) decreases, row t on trial t's batch. Here the
        batch-mean value at every candidate theta + lam*v is formed from
        ``batch_sums`` as ``evaluate_batches`` forms ``obs.value``, so
        it equals that value bit for bit at lam = 0, and ``obs.value`` is
        subtracted; a subclass whose h has a closed form along a line may
        form them without evaluating any candidate. Non-finite decreases
        are returned as they are.
        """
        points = theta[:, None, :] + lams[:, None] * v[:, None, :]
        values = self.batch_sums(points, idx[:, None, :], derivatives=False)[0]
        return values / idx.shape[-1] - obs.value[:, None]

    def value_grad_hess(self, theta, j):
        """Per-sample (log g_j(theta), gradient, Hessian): the one-index case of ``batch_sums``."""
        with np.errstate(over="ignore", invalid="ignore"):
            value, grad, hess = self.batch_sums(theta, np.full(1, j, dtype=np.intp))
        return float(value), np.array(grad), np.array(hess)

    def value(self, theta, j):
        return self.value_grad_hess(theta, j)[0]

    def grad_hess(self, theta, j):
        _, g, h = self.value_grad_hess(theta, j)
        return g, h


def _regularize_hessians(q, maybe_pd):
    """Ridge almost-PSD batch Hessians until Cholesky succeeds.

    ``q`` is a (T, d, d) stack, changed in place, and ``maybe_pd`` a
    (T,) mask, or True, that is False where a member is known singular.
    Every finite member that is not PD or not ``maybe_pd`` gets eps*I
    added, with eps = 1e-8 * (1 + trace(q)/d)
    (``scaled_trace``, finite even where the trace overflows), doubling
    eps up to ten times before giving up. Returns (q, PD mask,
    eps), where ``eps`` (T,) is the ridge that made each member PD, 0
    where none was added or none sufficed.
    """
    ok = pd_mask(q) & maybe_pd
    ridge = np.zeros(len(q))
    if ok.all():
        return q, ok, ridge
    need = np.flatnonzero(~ok & np.isfinite(q).all(axis=(-2, -1)))
    sub = q[need]
    eps = scaled_trace(sub, 1e-8)
    eye = np.eye(q.shape[-1])
    for _ in range(10):
        if not len(need):
            break
        trial = sub + eps[:, None, None] * eye
        passed = pd_mask(trial)
        done = need[passed]
        q[done], ok[done] = trial[passed], True
        ridge[done] = eps[passed]
        need, sub, eps = need[~passed], sub[~passed], 2.0 * eps[~passed]
    return q, ok, ridge


def sorted_batch(obj, batch):
    """A batch (b,) or stack of batches (..., b) sorted along its last axis,
    as indices checked against ``obj.n``."""
    idx = np.sort(np.asarray(batch, dtype=np.intp), axis=-1)
    if idx.size == 0:
        raise ValueError("batch is empty")
    if idx[..., 0].min() < 0 or idx[..., -1].max() >= obj.n:
        raise ValueError(f"batch index out of range for n={obj.n}")
    return idx


def _one_trial(obj, theta, batch):
    """One trial's ``theta`` (d,) and ``batch``, checked, as stacks of one."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (obj.d,):
        raise ValueError(f"theta must be a length-{obj.d} vector")
    if not np.isfinite(theta).all():
        raise ValueError("theta contains non-finite entries")
    return theta[None], sorted_batch(obj, np.ravel(batch))[None]


def _members(x, index):
    """The belief or observation ``x`` with ``[index]`` applied to every field:
    one member or a sub-stack of a stack, or with None a stack of one."""
    return replace(x, **{f.name: np.asarray(getattr(x, f.name), dtype=float)[index]
                         for f in fields(x)})


def evaluate_batches(obj, theta, idx):
    """Batch-mean value, gradient, and regularized Hessian for a stack of trials.

    ``theta`` is (T, d) and ``idx`` (T, b), each row ascending as from
    ``sorted_batch``. Returns ``(obs, failures)``: ``obs`` is one
    BatchObservation whose fields carry the leading trial axis, and
    ``failures`` maps the position of each member that failed to its
    NumericalError (non-finite sums) or PositiveDefiniteError (ridge
    exhausted); the fields of a failed member are not meaningful. A
    member's result does not depend on the rest of the stack. With
    ``rank_one_hessians`` a batch of fewer than d distinct indices is
    singular and ridged untested: the pivot test misses rank at d > 2.
    Floating-point warnings (overflow, and the invalid value numpy flags
    for a failed factorization) follow the caller's ``np.errstate``;
    ``evaluate_batch`` and ``optim.run_trials`` silence them.
    """
    value, f, q = obj.batch_sums(theta, idx)
    size = idx.shape[-1]
    # d distinct indices are d - 1 rises along the sorted batch.
    maybe_pd = (not obj.rank_one_hessians
                or (idx[..., 1:] != idx[..., :-1]).sum(axis=-1) >= obj.d - 1)
    q, pd, ridge_eps = _regularize_hessians(sym(q / size), maybe_pd)
    failures = {}
    # A non-finite Hessian never passes as PD, so the per-member masks
    # are formed only when a test on the whole stack fails.
    if not (pd.all() and np.isfinite(value).all() and np.isfinite(f).all()):
        finite = np.isfinite(value) & np.isfinite(f).all(axis=-1) & np.isfinite(q).all(axis=(-2, -1))
        for i in np.flatnonzero(~finite):
            failures[i] = NumericalError("non-finite batch evaluation", theta=theta[i])
        for i in np.flatnonzero(finite & ~pd):
            failures[i] = PositiveDefiniteError(
                "batch Hessian is not positive definite even after ridge regularization"
            )
    return BatchObservation(f=f / size, q=q, value=value / size, ridge_eps=ridge_eps), failures


def evaluate_batch(obj, theta, batch):
    """Batch-mean value, gradient, and regularized Hessian at ``theta``.

    Per-sample terms are summed in ascending index order (duplicates
    included), which makes the result a pure function of (theta, batch
    multiset). The mean Hessian is ridge-regularized to PD if needed.
    This is the one-trial case of ``evaluate_batches``.
    """
    theta, idx = _one_trial(obj, theta, batch)
    with np.errstate(over="ignore", invalid="ignore"):
        obs, failures = evaluate_batches(obj, theta, idx)
    if failures:
        raise failures[0]
    return _members(obs, 0)


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
    which does not depend on theta, so a batch Hessian is X_b^T X_b.
    The batch objective is therefore exactly quadratic, and
    ``step_decreases`` needs no evaluation.
    """

    rank_one_hessians = True

    def __init__(self, data):
        self.data = data
        self.n = data.n
        self.d = data.d

    def row_terms(self, theta, idx, derivatives=True):
        xs = self.data.xs[idx]
        r = np.vecdot(xs, theta) - self.data.ys[idx]
        value = 0.5 * r * r
        if not derivatives:
            return (value,)
        return value, xs * r[..., None], _gram(xs)

    def step_decreases(self, theta, idx, obs, v, lams):
        """Decreases lam * (<v, f> + lam/2 * v^T Q v) of the quadratic batch objective.

        f is the batch-mean gradient ``obs.f`` and Q the batch-mean
        Hessian before the ridge, ``obs.q`` less ``obs.ridge_eps`` * I:
        the ridge is not part of h. This equals h(theta + lam*v) - h(theta)
        in exact arithmetic; no candidate is evaluated.
        """
        slope = np.vecdot(v, obs.f)
        curvature = np.vecdot(v, np.matvec(obs.q, v)) - obs.ridge_eps * np.vecdot(v, v)
        return lams * (slope[:, None] + (0.5 * lams) * curvature[:, None])


# ---------------------------------------------------------------------------
# Exponential families (natural parameterization)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpFamily:
    """Natural-parameter exponential family.

    ``t`` maps a batch of raw samples (m, k) to sufficient statistics
    (m, d); ``a`` is the log-normalizer with evaluators ``grad_a`` and
    ``hess_a``; ``sample(rng, theta, size)`` draws from the member at
    ``theta`` (d,). grad_a and hess_a are the mean and covariance of t
    under that member, which is what makes the Newton direction a
    natural gradient here.

    ``a``, ``grad_a`` and ``hess_a`` take a stack of points (..., d),
    one point (d,) included, and return float arrays of shapes (...),
    (..., d) and (..., d, d), each member computed on its own.
    """

    d: int
    k: int
    t: Callable
    a: Callable
    grad_a: Callable
    hess_a: Callable
    sample: Callable


def gaussian_family(d=1):
    """Gaussian with identity covariance; the natural parameter is the mean."""
    return ExpFamily(
        d=d,
        k=d,
        t=lambda xs: np.atleast_2d(xs),
        a=lambda theta: 0.5 * np.vecdot(theta, theta),
        grad_a=lambda theta: np.asarray(theta, dtype=float),
        hess_a=lambda theta: np.broadcast_to(np.eye(d), np.shape(theta)[:-1] + (d, d)),
        sample=lambda rng, theta, size: theta + rng.standard_normal((size, d)),
    )


def _logistic(x):
    """The logistic function 1 / (1 + exp(-x)), elementwise.

    Written as exp(-log(1 + exp(-x))), which is finite and raises no
    floating-point warning for any finite x.
    """
    return np.exp(-np.logaddexp(0.0, -x))


def _bernoulli_variance(p):
    """The Bernoulli variance function p (1 - p) of the mean p."""
    return p * (1.0 - p)


def bernoulli_family():
    """Bernoulli in the natural (log-odds) parameterization."""
    return ExpFamily(
        d=1,
        k=1,
        t=lambda xs: np.atleast_2d(np.asarray(xs, dtype=float).reshape(-1, 1)),
        a=lambda theta: np.logaddexp(0.0, theta[..., 0]),
        grad_a=lambda theta: _logistic(theta),
        hess_a=lambda theta: _bernoulli_variance(_logistic(theta))[..., None],
        sample=lambda rng, theta, size: (
            rng.random((size, 1)) < _logistic(theta[0])
        ).astype(float),
    )


class ExpFamilyObjective(SubsampledObjective):
    """Negative log-likelihood for i.i.d. exponential-family samples.

    log g_j(theta) = A(theta) - <theta, T(x_j)> up to the carrier term,
    which is constant in theta and therefore omitted. The per-sample
    Hessian is hess_a(theta) for every j, so a batch of b samples has
    the Hessian sum b * hess_a(theta).
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
        ts = self._ts[idx]
        value = fam.a(theta) - np.vecdot(theta, ts)
        if not derivatives:
            return (value,)
        # theta is (1, ..., d), so theta[0] is the stack of points itself.
        return value, fam.grad_a(theta) - ts, idx.shape[0] * sym(fam.hess_a(theta[0]))


# ---------------------------------------------------------------------------
# Canonical GLMs (scalar response)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarFamily:
    """Scalar exponential-family component for canonical GLMs, whose
    sufficient statistic is the response itself.

    ``a`` and ``a_prime`` act elementwise on arrays, and so does
    ``variance``, the variance function V of the canonical link: it
    takes the mean A'(eta) and returns A''(eta) = V(A'(eta)).
    """

    a: Callable
    a_prime: Callable
    variance: Callable


def gaussian_scalar_family():
    """Unit-variance Gaussian response; the canonical link is the identity."""
    return ScalarFamily(
        a=lambda eta: 0.5 * np.square(eta),
        a_prime=lambda eta: np.asarray(eta, dtype=float),
        variance=np.ones_like,
    )


def bernoulli_scalar_family():
    """Bernoulli response; the canonical link is the logit."""
    return ScalarFamily(
        a=lambda eta: np.logaddexp(0.0, eta),
        a_prime=_logistic,
        variance=_bernoulli_variance,
    )


@dataclass(frozen=True)
class GlmData(LeastSquaresData):
    """Covariate rows ``xs`` (n, d), scalar responses ``ys`` (n,), and the
    scalar family tying them together; validated as LeastSquaresData."""

    family: ScalarFamily


class GlmObjective(SubsampledObjective):
    """Canonical GLM negative log-likelihood with eta_j = theta.x_j.

    log g_j(theta) = A(eta_j) - eta_j y_j up to the carrier term;
    gradient x_j (A'(eta_j) - y_j); Hessian (x_j x_j^T) A''(eta_j),
    so a batch Hessian is X_b^T diag(A''(eta)) X_b. The identity-link
    Gaussian case coincides with least squares.
    """

    rank_one_hessians = True

    def __init__(self, data):
        self.data = data
        self.n = data.n
        self.d = data.d

    def row_terms(self, theta, idx, derivatives=True):
        fam = self.data.family
        xs = self.data.xs[idx]
        ys = self.data.ys[idx]
        eta = np.vecdot(xs, theta)
        value = np.asarray(fam.a(eta), dtype=float) - eta * ys
        if not derivatives:
            return (value,)
        mean = np.asarray(fam.a_prime(eta), dtype=float)
        var = np.asarray(fam.variance(mean), dtype=float)
        return value, xs * (mean - ys)[..., None], _gram(xs, var)


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
