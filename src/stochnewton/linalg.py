"""Dense symmetric-positive-definite matrix kernel.

Everything here targets small matrices (d up to ~100): covariance and
precision updates, Newton solves and spectral-norm monitoring. Explicit
cofactor inverses are never formed.

The kernels take one matrix (d, d) or a stack (..., d, d) and treat
every member on its own, so a member's result does not depend on what
else is in the stack, and the one-matrix functions are the
stack-of-one case of the same code. ``cholesky_factors`` never raises:
it reports which members are PD, so that one non-PD member does not
stop a whole stack.

Three kernels choose how to compute by one rule, on d alone: a closed
form, elementwise over the stack, at d = 2, and one LAPACK gufunc call
at every other d.

- ``cholesky_lower`` factors at d = 2 in LAPACK's operation order, and
  so with LAPACK's bits, and calls LAPACK's Cholesky gufunc otherwise.
- ``spd_solve`` solves m x = b. At d = 2 it substitutes through the
  Cholesky factor of m (``cholesky_lower``), one row at a time over the
  whole stack; otherwise it makes one call of LAPACK's LU solver gufunc
  on m itself. Every solve in the library goes through it.
- ``largest_eigenvalues`` uses the closed form at d = 2 and LAPACK's
  symmetric eigenvalue gufunc otherwise.

The choice is never made by the stack size: the two kernels round
differently, so a trial must meet the same kernel alone as in a stack
to get the same bits.

Positive definiteness is decided by a scale-aware pivot threshold, see
``pd_tolerance``. Matrix sums and products that are symmetric in exact
arithmetic should be passed through ``sym`` so that covariances stay
exactly symmetric over long filter recursions.
"""

import numpy as np
# The gufuncs behind np.linalg.cholesky/solve/svd/eigvalsh. Called
# directly they mark a failed member with nan and the invalid flag
# instead of raising for the whole stack, and skip np.linalg's per-call
# checks.
from numpy.linalg import _umath_linalg

__all__ = [
    "PositiveDefiniteError",
    "sym",
    "pd_tolerance",
    "cholesky_lower",
    "cholesky_factors",
    "cholesky",
    "try_cholesky",
    "cholesky_solve",
    "spd_solve",
    "solve_spd",
    "largest_eigenvalues",
    "spectral_norm",
]


class PositiveDefiniteError(np.linalg.LinAlgError):
    """Raised when a matrix fails the positive-definiteness test."""


def sym(m):
    """Re-symmetrize a nominally symmetric matrix (or stack) as (m + m.T) / 2."""
    return 0.5 * (m + m.swapaxes(-1, -2))


def pd_tolerance(m):
    """Scale-aware Cholesky pivot threshold, 1e-12 * (1 + trace(m)/d).

    Unit-scale matrices get an effectively absolute 1e-12 threshold;
    larger scales get proportionally looser ones. For a stack, one
    threshold per member. A finite ``m`` gets a finite threshold, even
    where its trace overflows.
    """
    with np.errstate(over="ignore"):
        return _pd_tolerance(m, m.trace(0, -2, -1))


def _pd_tolerance(m, trace):
    """``pd_tolerance(m)`` from the trace of ``m``.

    Where the trace overflows, the threshold is formed as
    1e-12 + sum_i m_ii * (1e-12/d), which stays finite for a finite
    ``m``; every other member keeps the bits of the formula.
    """
    tol = 1e-12 * (1.0 + trace / m.shape[-1])
    if np.isinf(tol).any():
        scaled = 1e-12 + (m.diagonal(0, -2, -1) * (1e-12 / m.shape[-1])).sum(axis=-1)
        tol = np.where(np.isinf(trace), scaled, tol)
    return tol


def _as_square(m):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    return m


def cholesky_lower(m):
    """Lower Cholesky factors of ``m`` (..., d, d), known to be PD: no PD test.

    At d = 2 the factor is formed elementwise over the stack, in the
    order of LAPACK's unblocked factorization (l11 = sqrt(a11),
    l21 = a21 * (1/l11), l22 = sqrt(a22 - l21^2)), which gives LAPACK's
    bits for a PD member; LAPACK's gufunc otherwise. Only the lower
    triangle is read. As with the gufunc, a member that is not PD raises
    at most numpy's invalid-value flag.
    """
    if m.shape[-1] != 2:
        return _umath_linalg.cholesky_lo(m, signature="d->d")
    return _factor_2x2(m.shape, *_entries_2x2(m))


def _entries_2x2(m):
    """The entries (l11, l21, l22) of ``cholesky_lower`` of a stack (..., 2, 2)."""
    # A zero pivot divides by zero, and a member far from PD can
    # overflow; such a member's factor is not meaningful.
    with np.errstate(divide="ignore", over="ignore"):
        l11 = np.sqrt(m[..., 0, 0])
        l21 = m[..., 1, 0] * (1.0 / l11)
        l22 = np.sqrt(m[..., 1, 1] - l21 * l21)
    return l11, l21, l22


def _factor_2x2(shape, l11, l21, l22):
    """The lower-triangular stack of ``shape`` (..., 2, 2) with entries l11, l21, l22."""
    factor = np.zeros(shape)
    factor[..., 0, 0] = l11
    factor[..., 1, 0] = l21
    factor[..., 1, 1] = l22
    return factor


def cholesky_factors(m):
    """Lower Cholesky factors of ``m`` (d, d) or (..., d, d), and which are PD.

    Returns ``(factors, ok)``. A member is PD when its factorization
    (``cholesky_lower``) completes and every pivot (squared diagonal of
    its factor) exceeds ``pd_tolerance``; the factor of any other member
    is not meaningful. At d = 2 the pivots and the trace are taken from
    the closed-form entries, elementwise over the stack, with the bits
    of the general form.
    Never raises for a member that is not PD or not finite, but numpy
    flags its factorization as an invalid value: callers that expect
    such members run this under ``np.errstate(invalid="ignore")``.
    """
    if m.shape[-1] != 2:
        factors = cholesky_lower(m)
        piv = np.minimum.reduce(factors.diagonal(0, -2, -1), axis=-1)
        return factors, piv * piv > _pd_tolerance(m, m.trace(0, -2, -1))
    l11, l21, l22 = _entries_2x2(m)
    piv = np.minimum(l11, l22)
    ok = piv * piv > _pd_tolerance(m, m[..., 0, 0] + m[..., 1, 1])
    return _factor_2x2(m.shape, l11, l21, l22), ok


def try_cholesky(m):
    """Lower Cholesky factor of ``m``, or None if ``m`` is not PD.

    A factorization counts as successful only if ``cholesky_lower``
    completes and every pivot (squared diagonal of the factor) exceeds
    ``pd_tolerance(m)``.
    """
    m = _as_square(m)
    # A matrix far from PD can overflow its factorization.
    with np.errstate(invalid="ignore", over="ignore"):
        factor, ok = cholesky_factors(m)
    return factor if ok else None


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


def spd_solve(m, b):
    """Solve m x = b for SPD ``m``.

    ``m`` is one matrix (d, d) or a stack (..., d, d). ``b`` holds one
    right-hand side per matrix, (..., d), when it has one axis fewer
    than ``m``, and columns of right-hand sides, (..., d, k), otherwise.
    At d = 2 the two triangular systems of the Cholesky factor of ``m``
    (``cholesky_lower``, without a PD test) are solved by substitution,
    elementwise over the stack and the columns; at every other d ``m``
    is solved by one LU factorization. No input is checked.
    """
    b = np.asarray(b, dtype=float)
    vector = b.ndim < m.ndim
    if m.shape[-1] != 2:
        solve = _umath_linalg.solve1 if vector else _umath_linalg.solve
        return solve(m, b, signature="dd->d")
    lower = cholesky_lower(m)[..., None]
    l11, l21, l22 = lower[..., 0, 0, :], lower[..., 1, 0, :], lower[..., 1, 1, :]
    rhs = b[..., None] if vector else b
    y1 = rhs[..., 0, :] / l11
    x2 = (rhs[..., 1, :] - l21 * y1) / l22 / l22
    x = np.stack([(y1 - l21 * x2) / l11, x2], axis=-2)
    return x[..., 0] if vector else x


def cholesky_solve(factor, b):
    """Solve m x = b given the lower Cholesky factor of m.

    ``factor`` is one factor (d, d) or a stack (..., d, d), and ``b`` as
    for ``spd_solve``, which gets m as factor @ factor^T.
    """
    return spd_solve(factor @ factor.swapaxes(-1, -2), b)


def solve_spd(m, b):
    """Solve m x = b for one SPD matrix ``m`` with ``spd_solve``.

    Raises PositiveDefiniteError when ``m`` fails the Cholesky PD test,
    ValueError on non-finite input.
    """
    b = np.asarray(b, dtype=float)
    if not np.isfinite(b).all():
        raise ValueError("right-hand side contains non-finite entries")
    m = np.asarray(m, dtype=float)
    cholesky(m)
    return spd_solve(m, b)


def largest_eigenvalues(m):
    """Largest eigenvalue of each member of a stack (..., d, d) of symmetric matrices.

    Closed form at d = 2, (a + c)/2 + hypot((a - c)/2, b), which adds
    two nonnegative terms for a PD member; LAPACK's symmetric eigenvalue
    gufunc otherwise. Only the lower triangle is read.
    """
    if m.shape[-1] == 2:
        a, b, c = m[..., 0, 0], m[..., 1, 0], m[..., 1, 1]
        return 0.5 * (a + c) + np.hypot(0.5 * (a - c), b)
    return _umath_linalg.eigvalsh_lo(m, signature="d->d")[..., -1]


def spectral_norm(m):
    """Largest singular value of a general (not necessarily symmetric) matrix.

    Equals sqrt(lambda_max(m.T m)); for symmetric PD input this is the
    largest eigenvalue.
    """
    return float(_umath_linalg.svd(_as_square(m), signature="d->d")[0])
