"""Dense symmetric-positive-definite matrix kernel.

Everything here targets small matrices (d up to ~100): covariance and
precision updates, Newton solves, extreme eigenvalues, and spectral-norm
monitoring. All solves and inverses are routed through a Cholesky
factorization; explicit cofactor inverses are never formed.

Positive definiteness is decided by a scale-aware pivot threshold, see
``pd_tolerance``. Matrix sums and products that are symmetric in exact
arithmetic should be passed through ``sym`` so that covariances stay
exactly symmetric over long filter recursions.
"""

import math

import numpy as np
from scipy.linalg import lapack

__all__ = [
    "PositiveDefiniteError",
    "sym",
    "pd_tolerance",
    "cholesky",
    "try_cholesky",
    "cholesky_solve",
    "is_pd",
    "assert_pd",
    "solve_spd",
    "inverse_spd",
    "eig_extremes",
    "spectral_norm",
]


class PositiveDefiniteError(np.linalg.LinAlgError):
    """Raised when a matrix fails the positive-definiteness test."""


def sym(m):
    """Re-symmetrize a nominally symmetric matrix as (m + m.T) / 2."""
    return 0.5 * (m + m.T)


def pd_tolerance(m):
    """Scale-aware Cholesky pivot threshold, 1e-12 * (1 + trace(m)/d).

    Unit-scale matrices get an effectively absolute 1e-12 threshold;
    larger scales get proportionally looser ones.
    """
    d = m.shape[0]
    return 1e-12 * (1.0 + float(np.add.reduce(m.diagonal())) / d)


def _as_square(m, name="matrix"):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    # A finite sum certifies that every entry is finite (inf or nan
    # anywhere propagates into the total).
    if not math.isfinite(np.add.reduce(m, axis=None)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def try_cholesky(m):
    """Lower Cholesky factor of ``m``, or None if ``m`` is not PD.

    A factorization counts as successful only if LAPACK completes and
    every pivot (squared diagonal of the factor) exceeds
    ``pd_tolerance(m)``.
    """
    m = _as_square(m)
    c, info = lapack.dpotrf(m, lower=1, clean=1)
    if info != 0:
        return None
    # The pivots are positive here, so the smallest one decides; it is
    # compared as a Python float, because at the small d this library
    # targets numpy's per-call overhead would dominate.
    piv = min(c.diagonal().tolist())
    if not piv * piv > pd_tolerance(m):
        return None
    return c


def cholesky(m):
    """Lower Cholesky factor of an SPD matrix.

    Raises PositiveDefiniteError if a pivot falls at or below
    ``pd_tolerance(m)``, ValueError on non-finite input.
    """
    c = try_cholesky(m)
    if c is None:
        raise PositiveDefiniteError(
            "matrix is not positive definite at the pivot tolerance"
        )
    return c


def is_pd(m):
    """True if ``m`` admits a Cholesky factorization with all pivots above tolerance."""
    return try_cholesky(m) is not None


def assert_pd(m, context=""):
    """Raise PositiveDefiniteError unless ``m`` is PD."""
    if try_cholesky(m) is None:
        suffix = f" ({context})" if context else ""
        raise PositiveDefiniteError(f"matrix is not positive definite{suffix}")


def cholesky_solve(factor, b):
    """Solve m x = b given the lower Cholesky factor of m.

    ``b`` may be a vector or a matrix of right-hand-side columns.
    """
    b = np.asarray(b, dtype=float)
    x, info = lapack.dpotrs(factor, b, lower=1)
    if info != 0:
        raise PositiveDefiniteError("triangular solve failed")
    return x


def solve_spd(m, b):
    """Solve m x = b for SPD ``m`` via Cholesky.

    Propagates PositiveDefiniteError when the factorization fails.
    """
    b = np.asarray(b, dtype=float)
    if not np.isfinite(b.sum()):
        raise ValueError("right-hand side contains non-finite entries")
    return cholesky_solve(cholesky(m), b)


def inverse_spd(m):
    """Inverse of an SPD matrix, computed column-wise through Cholesky.

    The result is re-symmetrized as (X + X.T)/2 before it is returned.
    """
    m = _as_square(m)
    factor = cholesky(m)
    inv = cholesky_solve(factor, np.eye(m.shape[0]))
    return sym(inv)


def eig_extremes(m):
    """Smallest and largest eigenvalues of a symmetric matrix.

    Uses a full symmetric eigendecomposition, which is accurate and
    cheap at the dimensions this library works with.
    """
    m = _as_square(m)
    w = np.linalg.eigvalsh(m)
    return float(w[0]), float(w[-1])


def spectral_norm(m):
    """Largest singular value of a general (not necessarily symmetric) matrix.

    Equals sqrt(lambda_max(m.T m)); for symmetric PD input this is the
    largest eigenvalue.
    """
    m = _as_square(m)
    return float(np.linalg.svd(m, compute_uv=False)[0])
