"""Dense symmetric-positive-definite matrix kernel.

Everything here targets small matrices (d up to ~100): covariance and
precision updates, Newton solves and spectral-norm monitoring. Explicit
cofactor inverses are never formed.

The kernels take one matrix (d, d) or a stack (..., d, d) and treat
every member on its own, so a member's result does not depend on what
else is in the stack, and the one-matrix functions are the
stack-of-one case of the same code. ``pd_mask`` never raises: it
reports which members are PD, so that one non-PD member does not stop
a whole stack, and it forms no factor.

The kernels choose how to compute by one rule, on d alone: a closed
form, elementwise over the stack, at d = 2, and one LAPACK gufunc call
at every other d.

- ``pd_mask`` takes the pivots of the Cholesky factor at d = 2 from
  its closed-form entries, in LAPACK's operation order and so with
  LAPACK's bits (``_entries_2x2``), and from LAPACK's factor otherwise.
- ``spd_solve`` solves m x = b. At d = 2 it substitutes through the
  same closed-form entries, one row at a time over the whole stack;
  otherwise it makes one call of LAPACK's LU solver gufunc on m itself.
  Every solve in the library goes through it.
- ``largest_eigenvalues`` uses the closed form at d = 2 and LAPACK's
  symmetric eigenvalue gufunc otherwise.

The choice is never made by the stack size: the two kernels round
differently, so a trial must meet the same kernel alone as in a stack
to get the same bits. Only ``try_cholesky``, whose callers receive the
factor, returns one: it makes one LAPACK call (``cholesky_lower``) at
every d and takes its PD test from the pivots of that factor, which at
d = 2 has the bits of the closed form, so it decides as ``pd_mask``.

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
    "scaled_trace",
    "cholesky_lower",
    "pd_mask",
    "require_pd",
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
    """Re-symmetrize a nominally symmetric matrix (or stack) as m/2 + m.T/2.

    Halving first keeps a finite ``m`` finite; in the normal range it
    has the bits of (m + m.T) / 2.
    """
    half = 0.5 * m
    return half + half.swapaxes(-1, -2)


def pd_tolerance(m):
    """Scale-aware Cholesky pivot threshold, 1e-12 * (1 + trace(m)/d).

    Unit-scale matrices get an effectively absolute 1e-12 threshold;
    larger scales get proportionally looser ones. For a stack, one
    threshold per member. A finite ``m`` gets a finite threshold, even
    where its trace overflows (see ``scaled_trace``).
    """
    return scaled_trace(m, 1e-12)


def scaled_trace(m, c):
    """c * (1 + trace(m)/d) for each member of ``m`` (..., d, d), finite for a finite ``m``.

    Where the trace overflows, the result is formed as
    c + sum_i m_ii * (c/d) instead; every other member keeps the bits of
    the formula. Raises no floating-point warning.
    """
    d = m.shape[-1]
    try:
        # Only an overflowing trace raises here: the error state tests
        # for it at less cost than testing the result would.
        with np.errstate(over="raise"):
            return c * (1.0 + _trace(m) / d)
    except FloatingPointError:
        with np.errstate(over="ignore"):
            trace = _trace(m)
            scaled = c * (1.0 + trace / d)
    safe = c + (m.diagonal(0, -2, -1) * (c / d)).sum(axis=-1)
    return np.where(np.isinf(trace), safe, scaled)


def _trace(m):
    """The trace of each member: at d = 2 as m11 + m22, which has the bits
    of ``np.trace`` in less time."""
    return m[..., 0, 0] + m[..., 1, 1] if m.shape[-1] == 2 else m.trace(0, -2, -1)


def _as_square(m):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    return m


def cholesky_lower(m):
    """Lower Cholesky factors of ``m`` (..., d, d), known to be PD: no PD test.

    One call of LAPACK's Cholesky gufunc, which reads only the lower
    triangle. A member that is not PD raises at most numpy's
    invalid-value flag.
    """
    return _umath_linalg.cholesky_lo(m, signature="d->d")


def _entries_2x2(m):
    """The entries (l11, l21, l22) of the lower Cholesky factor of a stack (..., 2, 2).

    Formed elementwise over the stack in the order of LAPACK's unblocked
    factorization (l11 = sqrt(a11), l21 = a21 * (1/l11),
    l22 = sqrt(a22 - l21^2)), which gives LAPACK's bits for a PD member.
    Only the lower triangle is read. A zero pivot divides by zero, and a
    member far from PD can overflow: callers silence both flags, and
    such a member's entries are not meaningful.
    """
    l11 = np.sqrt(m[..., 0, 0])
    l21 = m[..., 1, 0] * (1.0 / l11)
    l22 = np.sqrt(m[..., 1, 1] - l21 * l21)
    return l11, l21, l22


def pd_mask(m):
    """Which members of ``m`` (d, d) or (..., d, d) are PD.

    A member is PD when its Cholesky factorization completes and every
    pivot (squared diagonal entry of its factor) exceeds
    ``pd_tolerance``. At d = 2 the pivots come from the closed-form
    entries, elementwise over the stack, with LAPACK's bits; at every
    other d from LAPACK's factor. No factor is returned.
    Never raises for a member that is not PD or not finite, but numpy
    flags a failed factorization as an invalid value, and at d > 2 the
    factorization of a member far from PD can overflow: callers that
    expect such members silence these flags with ``np.errstate``.
    """
    if m.shape[-1] == 2:
        with np.errstate(divide="ignore", over="ignore"):
            l11, _, l22 = _entries_2x2(m)
        piv = np.minimum(l11, l22)
    else:
        piv = np.minimum.reduce(cholesky_lower(m).diagonal(0, -2, -1), axis=-1)
    return piv * piv > pd_tolerance(m)


def require_pd(m):
    """``m`` as a float (d, d) array, checked to pass ``pd_mask``.

    Raises PositiveDefiniteError if a pivot falls at or below
    ``pd_tolerance(m)``, ValueError on non-finite input.
    """
    m = _as_square(m)
    # A matrix far from PD can overflow its factorization.
    with np.errstate(invalid="ignore", over="ignore"):
        ok = pd_mask(m)
    if not ok:
        raise PositiveDefiniteError(
            "matrix is not positive definite at the pivot tolerance"
        )
    return m


def try_cholesky(m):
    """Lower Cholesky factor of ``m``, or None if ``m`` fails ``require_pd``.

    Non-finite input raises ValueError, as there.
    """
    m = _as_square(m)
    # A failed factorization is filled with nan, which fails the pivot
    # test; one far from PD can overflow.
    with np.errstate(invalid="ignore", over="ignore"):
        factor = cholesky_lower(m)
        piv = factor.diagonal().min()
        return factor if piv * piv > pd_tolerance(m) else None


def spd_solve(m, b):
    """Solve m x = b for SPD ``m``.

    ``m`` is one matrix (d, d) or a stack (..., d, d). ``b`` holds one
    right-hand side per matrix, (..., d), when it has one axis fewer
    than ``m``, and columns of right-hand sides, (..., d, k), otherwise.
    At d = 2 the two triangular systems of the Cholesky factor of ``m``
    (its closed-form entries, without a PD test) are solved by
    substitution, elementwise over the stack and the columns; at every
    other d ``m`` is solved by one LU factorization. No input is checked.
    """
    b = np.asarray(b, dtype=float)
    vector = b.ndim < m.ndim
    if m.shape[-1] != 2:
        solve = _umath_linalg.solve1 if vector else _umath_linalg.solve
        return solve(m, b, signature="dd->d")
    with np.errstate(divide="ignore", over="ignore"):
        l11, l21, l22 = (entry[..., None] for entry in _entries_2x2(m))
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
    return spd_solve(require_pd(m), b)


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
