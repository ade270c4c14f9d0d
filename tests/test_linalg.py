import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from stochnewton.linalg import (
    PositiveDefiniteError,
    _entries_2x2,
    cholesky_lower,
    cholesky_solve,
    largest_eigenvalues,
    pd_mask,
    pd_tolerance,
    require_pd,
    solve_spd,
    spd_solve,
    spectral_norm,
    sym,
    try_cholesky,
)

from helpers import eig_extremes, is_pd, random_spd


def test_cholesky_identity():
    assert_allclose(try_cholesky(np.eye(2)), np.eye(2))


def test_cholesky_diagonal():
    assert_allclose(try_cholesky(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_cholesky_rejects_indefinite():
    # [[1, 2], [2, 1]] has eigenvalues 3 and -1 (char. poly (1-l)^2 = 4).
    m = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert try_cholesky(m) is None
    with pytest.raises(PositiveDefiniteError):
        require_pd(m)


def test_cholesky_rejects_a_finite_matrix_far_from_pd_without_a_warning():
    # The factorization of this matrix overflows at d >= 3; the error
    # filter turns any floating-point warning into a failure.
    m = np.array([[1e-300, 1e200, 0.0], [1e200, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert try_cholesky(m) is None
    with pytest.raises(PositiveDefiniteError):
        require_pd(m)
    with pytest.raises(PositiveDefiniteError):
        solve_spd(m, np.ones(3))


@pytest.mark.parametrize("d", [2, 3])
def test_a_finite_pd_matrix_whose_trace_overflows_is_pd(d):
    # The trace of this matrix is inf; 1e-12 times its mean is 1e296.
    # The error filter turns any floating-point warning into a failure.
    m = np.diag([1e308] * d)
    assert_allclose(try_cholesky(m), np.diag([1e154] * d))
    assert_allclose(solve_spd(m, np.full(d, 1e308)), np.ones(d))
    assert pd_tolerance(m) == pytest.approx(1e296)
    # In a stack, every member whose trace is finite keeps the formula's bits.
    stack = np.array([np.eye(d), m, 3.0 * np.eye(d), np.diag([np.finfo(float).max] * d)])
    tol = pd_tolerance(stack)
    assert np.isfinite(tol).all()
    assert np.array_equal(tol[[0, 2]], 1e-12 * (1.0 + np.trace(stack[[0, 2]], axis1=1, axis2=2) / d))
    assert pd_mask(m)
    assert pd_mask(stack).all()


def test_cholesky_reconstructs_random_spd():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = random_spd(rng, rng.integers(1, 8))
        factor = try_cholesky(m)
        assert_allclose(factor @ factor.T, m, atol=1e-12 * spectral_norm(m))


def test_cholesky_rejects_non_finite():
    with pytest.raises(ValueError):
        require_pd(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        spectral_norm(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_finiteness_checks_accept_finite_input_whose_sum_overflows():
    # The entries sum past the largest double; the error filter turns an
    # overflow warning into a failure.
    m = np.array([[6e307, 5e307], [5e307, 6e307]])
    assert np.isfinite(try_cholesky(m)).all()
    assert np.isfinite(spectral_norm(m))
    assert np.isfinite(solve_spd(m, np.ones(2))).all()
    assert np.array_equal(solve_spd(np.eye(2), [1e308, 1e308]), [1e308, 1e308])
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError):
            try_cholesky(np.array([[1.0, 0.0], [0.0, bad]]))
        with pytest.raises(ValueError):
            spectral_norm(np.array([[1.0, bad], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            solve_spd(np.eye(2), [1.0, bad])


def test_pd_tolerance_rejects_tiny_scale():
    # Unit trace keeps the threshold near 1e-12; a 1e-15 matrix is treated
    # as numerically singular even though LAPACK would factor it.
    assert not is_pd(1e-15 * np.eye(3))
    assert is_pd(1e-15 * np.eye(3) * 1e6)


def test_solve_identity_and_diagonal():
    b = np.array([2.0, 4.0])
    assert_allclose(solve_spd(np.eye(2), b), b)
    assert_allclose(solve_spd(np.diag([2.0, 4.0]), b), np.array([1.0, 1.0]))


def test_solve_round_trip_random():
    rng = np.random.default_rng(1)
    for _ in range(50):
        d = int(rng.integers(1, 10))
        m = random_spd(rng, d)
        x = rng.standard_normal(d)
        got = solve_spd(m, m @ x)
        assert np.linalg.norm(got - x) <= 1e-9 * max(1.0, np.linalg.norm(x))


def test_solve_residual_bound():
    rng = np.random.default_rng(2)
    for _ in range(50):
        d = int(rng.integers(1, 30))
        m = random_spd(rng, d, lam_min=0.1, lam_max=10.0)
        b = rng.standard_normal(d)
        x = solve_spd(m, b)
        res = np.linalg.norm(m @ x - b)
        assert res <= 1e-10 * (np.linalg.norm(b) + spectral_norm(m) * np.linalg.norm(x))


def test_solve_agrees_with_inverse():
    rng = np.random.default_rng(5)
    for _ in range(25):
        d = int(rng.integers(1, 8))
        m = random_spd(rng, d)
        b = rng.standard_normal(d)
        x = solve_spd(m, b)
        y = np.linalg.inv(m) @ b
        assert np.linalg.norm(x - y) <= 1e-9 * max(1.0, np.linalg.norm(x))


def test_eig_extremes_examples():
    assert eig_extremes(np.eye(3)) == (1.0, 1.0)
    lo, hi = eig_extremes(np.diag([0.2, 1.0526]))
    assert_allclose((lo, hi), (0.2, 1.0526))
    # Characteristic polynomial of [[2, 1], [1, 2]]: (2-l)^2 = 1.
    lo, hi = eig_extremes(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert_allclose((lo, hi), (1.0, 3.0), rtol=1e-12)


def test_eig_extremes_bound_rayleigh_quotients():
    rng = np.random.default_rng(6)
    m = random_spd(rng, 6, lam_min=0.2, lam_max=3.0)
    lo, hi = eig_extremes(m)
    for _ in range(100):
        r = rng.standard_normal(6)
        quot = (r @ m @ r) / (r @ r)
        assert lo - 1e-10 <= quot <= hi + 1e-10


def test_spectral_norm_examples():
    assert_allclose(spectral_norm(np.eye(4)), 1.0)
    assert_allclose(spectral_norm(0.5 * np.eye(4)), 0.5)
    # Nilpotent shift: singular values are 1 and 0.
    assert_allclose(spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]])), 1.0)


def test_spectral_norm_equals_top_eigenvalue_for_spd():
    rng = np.random.default_rng(7)
    m = random_spd(rng, 5)
    assert_allclose(spectral_norm(m), eig_extremes(m)[1], rtol=1e-10)


def test_spectral_norm_submultiplicative():
    rng = np.random.default_rng(8)
    for _ in range(50):
        d = int(rng.integers(1, 6))
        a = rng.standard_normal((d, d))
        b = rng.standard_normal((d, d))
        assert spectral_norm(a @ b) <= spectral_norm(a) * spectral_norm(b) + 1e-10


def test_sym_halves_asymmetry():
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    s = sym(m)
    assert np.array_equal(s, s.T)
    assert_allclose(s, np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_pd_tolerance_is_scale_aware():
    assert pd_tolerance(np.eye(4)) == pytest.approx(2e-12)
    assert pd_tolerance(100.0 * np.eye(4)) == pytest.approx(1e-12 * 101.0)


# ---------------------------------------------------------------------------
# stacked solves and eigenvalues
# ---------------------------------------------------------------------------

def _right_hand_side(rng, kind, count, d):
    if kind == "vector":
        return rng.standard_normal((count, d))
    if kind == "matrix":
        return rng.standard_normal((count, d, 3))
    return np.eye(d)[None]  # broadcast over the stack, as the filter passes it


def _assert_agrees_with_lapack_solve(m, b, x):
    """``x`` solves the stack ``m`` against ``b`` to 1e-12 relative, member by member."""
    count, d = m.shape[:2]
    if b.ndim == 2:
        ref = np.linalg.solve(m, b[..., None])[..., 0]
    else:
        ref = np.linalg.solve(m, np.broadcast_to(b, (count, d, b.shape[-1])))
    err = np.abs(x - ref).reshape(count, -1).max(axis=1)
    scale = np.abs(ref).reshape(count, -1).max(axis=1)
    assert np.all(err <= 1e-12 * scale)


@pytest.mark.parametrize("kind", ["vector", "matrix", "identity"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_substitution_agrees_with_lapack_solve(d, kind):
    # cholesky_solve substitutes at d = 2 and makes one LU solve of
    # L L^T at every other d.
    rng = np.random.default_rng(d)
    count = 200
    m = np.array([random_spd(rng, d, 0.05, 5.0) for _ in range(count)])
    b = _right_hand_side(rng, kind, count, d)
    _assert_agrees_with_lapack_solve(m, b, cholesky_solve(np.linalg.cholesky(m), b))


@pytest.mark.parametrize("given_factor", [False, True])
@pytest.mark.parametrize("kind", ["vector", "matrix", "identity"])
@pytest.mark.parametrize("d", [1, 2, 4, 5, 20])
def test_spd_solve_agrees_with_lapack_solve(d, kind, given_factor):
    # Given its factor, m is solved through cholesky_solve.
    rng = np.random.default_rng(100 + d)
    count = 50
    m = np.array([random_spd(rng, d, 0.05, 5.0) for _ in range(count)])
    b = _right_hand_side(rng, kind, count, d)
    with warnings.catch_warnings():
        # No kernel may flag an invalid value on PD input.
        warnings.simplefilter("error", RuntimeWarning)
        x = cholesky_solve(np.linalg.cholesky(m), b) if given_factor else spd_solve(m, b)
    _assert_agrees_with_lapack_solve(m, b, x)


@pytest.mark.parametrize("d", [1, 3, 4, 5])
def test_spd_solve_away_from_d2_is_lapack_solve_bitwise(d):
    rng = np.random.default_rng(200 + d)
    m = np.array([random_spd(rng, d, 0.05, 5.0) for _ in range(50)])
    vectors = rng.standard_normal((50, d))
    columns = rng.standard_normal((50, d, 3))
    assert np.array_equal(spd_solve(m, vectors), np.linalg.solve(m, vectors[..., None])[..., 0])
    assert np.array_equal(spd_solve(m, columns), np.linalg.solve(m, columns))
    assert np.array_equal(spd_solve(m[0], vectors[0]), np.linalg.solve(m[0], vectors[0]))
    assert np.array_equal(spd_solve(m[0], columns[0]), np.linalg.solve(m[0], columns[0]))


_SOLVES = {
    "cholesky_solve": lambda m, factor, b: cholesky_solve(factor, b),
    "spd_solve": lambda m, factor, b: spd_solve(m, b),
}


@settings(max_examples=90, deadline=None)
@given(d=st.sampled_from([1, 2, 4, 5, 20]),
       count=st.integers(1, 6), kind=st.sampled_from(["vector", "matrix", "identity"]),
       solve=st.sampled_from(sorted(_SOLVES)), seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_solve_equals_one_member_solves_bitwise(d, count, kind, solve, seed):
    # The kernel is chosen by d alone, so a member gets the same bits in
    # a stack of any size.
    solve = _SOLVES[solve]
    rng = np.random.default_rng(seed)
    m = np.array([random_spd(rng, d) for _ in range(count)])
    factor = np.linalg.cholesky(m)
    b = _right_hand_side(rng, kind, count, d)
    stacked = solve(m, factor, b)
    for i in range(count):
        member = b if kind == "identity" else b[i:i + 1]
        assert np.array_equal(solve(m[i:i + 1], factor[i:i + 1], member)[0], stacked[i])
        if kind == "vector":
            assert np.array_equal(solve(m[i], factor[i], b[i]), stacked[i])


def test_closed_form_largest_eigenvalue_matches_lapack():
    rng = np.random.default_rng(30)
    m = np.array([random_spd(rng, 2, 0.01, 10.0) for _ in range(200)]
                 + [np.eye(2), np.diag([3.0, 0.5]), np.diag([0.5, 3.0]), [[1.0, 1e-9], [1e-9, 1.0]]])
    assert_allclose(largest_eigenvalues(m), np.linalg.eigvalsh(m)[:, -1], rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# the closed-form 2x2 Cholesky factor
# ---------------------------------------------------------------------------

def _lapack_cholesky(m):
    from numpy.linalg import _umath_linalg

    return _umath_linalg.cholesky_lo(m, signature="d->d")


def _closed_form_factor(m):
    """The lower factor (..., 2, 2) with the closed-form entries of ``m``.

    As every caller of ``_entries_2x2`` does, the divide and overflow
    flags of members that are not PD are silenced.
    """
    with np.errstate(divide="ignore", over="ignore"):
        l11, l21, l22 = _entries_2x2(m)
    factor = np.zeros(m.shape)
    factor[..., 0, 0], factor[..., 1, 0], factor[..., 1, 1] = l11, l21, l22
    return factor


def test_closed_form_2x2_cholesky_equals_lapack_bitwise():
    rng = np.random.default_rng(31)
    count = 20000
    a = rng.standard_normal((count, 2, 2))
    m = a @ a.mT + 1e-3 * np.eye(2)
    # The same matrices with rows and columns scaled over eight orders
    # of magnitude.
    scale = 10.0 ** rng.uniform(-4.0, 4.0, size=(count, 2))
    m = np.concatenate([
        m, m * scale[:, :, None] * scale[:, None, :],
        [np.eye(2), np.diag([1e-300, 1e300]), [[1.0, 1.0 - 1e-12], [1.0 - 1e-12, 1.0]]],
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _closed_form_factor(m)
    assert np.array_equal(got, _lapack_cholesky(m))
    assert np.array_equal(cholesky_lower(m), got)
    # The upper triangle is not read.
    upper = m.copy()
    upper[:, 0, 1] = np.nan
    assert np.array_equal(_closed_form_factor(upper), got)
    # A member alone gets its bits in the stack.
    for i in (0, count, len(m) - 1):
        assert np.array_equal(_closed_form_factor(m[i]), got[i])


def test_closed_form_2x2_cholesky_flags_the_members_lapack_flags():
    rng = np.random.default_rng(32)
    pd = [random_spd(rng, 2, 0.01, 10.0) for _ in range(4)]
    not_pd = [
        -np.eye(2),
        np.diag([0.0, 1.0]),                # zero first pivot
        np.diag([-0.0, 1.0]),
        np.diag([1.0, 0.0]),                # zero second pivot
        [[1.0, 1.0], [1.0, 1.0]],           # singular: the second pivot rounds to 0
        [[1.0, 2.0], [2.0, 1.0]],           # indefinite
        np.diag([1e-300, 1.0]),             # a pivot below the tolerance
        [[1e-300, 1e200], [1e200, 1.0]],    # far from PD: l21 overflows
        [[np.nan, 0.0], [0.0, 1.0]],
        [[1.0, np.nan], [np.nan, 1.0]],
        np.diag([np.inf, 1.0]),
        [[1.0, np.inf], [np.inf, 1.0]],
    ]
    m = np.array(pd + not_pd, dtype=float)
    # As callers that expect members which are not PD do, only the
    # invalid-value flag is silenced.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(invalid="ignore"):
            ok = pd_mask(m)
            factors = _closed_form_factor(m)
        for member in not_pd:
            if np.isfinite(member).all():
                assert try_cholesky(member) is None
    with np.errstate(all="ignore"):
        lapack = _lapack_cholesky(m)
    pivots = np.minimum.reduce(lapack.diagonal(0, -2, -1), axis=-1)
    assert np.array_equal(ok, pivots * pivots > pd_tolerance(m))
    assert ok.tolist() == [True] * len(pd) + [False] * len(not_pd)
    assert np.array_equal(factors[ok], lapack[ok])


def test_closed_form_2x2_pd_test_matches_lapack_pivots_at_the_tolerance():
    # Random stacks whose first or second squared pivot lies within a
    # relative 1e-3 of pd_tolerance, on either side, over twelve orders
    # of magnitude: the closed form's mask must be the generic one.
    rng = np.random.default_rng(33)
    count = 20000
    a = 10.0 ** rng.uniform(-6.0, 6.0, size=count)
    l21 = rng.standard_normal(count) * np.sqrt(a)
    near = 1.0 + rng.uniform(-1e-3, 1e-3, size=count)
    # Second pivot: l22^2 near 1e-12 * (1 + trace / 2), where the trace is
    # about a + l21^2.
    second = 1e-12 * (1.0 + 0.5 * (a + l21 * l21)) * near
    m2 = np.empty((count, 2, 2))
    m2[:, 0, 0] = a
    m2[:, 1, 0] = m2[:, 0, 1] = l21 * np.sqrt(a)
    m2[:, 1, 1] = l21 * l21 + second
    # First pivot: a11 near 1e-12 * (1 + a22 / 2), with a small coupling.
    c = 10.0 ** rng.uniform(-6.0, 6.0, size=count)
    m1 = np.zeros((count, 2, 2))
    m1[:, 0, 0] = 1e-12 * (1.0 + 0.5 * c) * near
    m1[:, 1, 1] = c
    m1[:, 1, 0] = m1[:, 0, 1] = 1e-3 * np.sqrt(m1[:, 0, 0] * c) * rng.uniform(-1.0, 1.0, count)
    for m in (m2, m1):
        with np.errstate(invalid="ignore"):
            ok = pd_mask(m)
            factors = _closed_form_factor(m)
            lapack = _lapack_cholesky(m)
        pivots = np.minimum.reduce(lapack.diagonal(0, -2, -1), axis=-1)
        want = pivots * pivots > pd_tolerance(m)
        assert np.array_equal(ok, want)
        assert 0.2 < ok.mean() < 0.8
        assert np.array_equal(factors[ok], lapack[ok])
        assert np.array_equal(pd_tolerance(m), 1e-12 * (1.0 + (m[:, 0, 0] + m[:, 1, 1]) / 2))
        # The one-matrix factor and the stacked mask agree on every member.
        assert [try_cholesky(member) is not None for member in m] == ok.tolist()


# ---------------------------------------------------------------------------
# numpy's private gufuncs
# ---------------------------------------------------------------------------

def test_numpy_private_gufuncs_take_the_signatures_linalg_passes():
    # linalg calls these gufuncs of numpy.linalg._umath_linalg directly;
    # a numpy release that renames one or changes its loops fails here.
    from numpy.linalg import _umath_linalg

    m = np.array([[4.0, 1.0], [1.0, 3.0]])
    b = np.array([1.0, 2.0])
    assert_allclose(_umath_linalg.cholesky_lo(m, signature="d->d"), np.linalg.cholesky(m))
    assert_allclose(_umath_linalg.solve(m, np.eye(2), signature="dd->d"), np.linalg.inv(m))
    assert_allclose(_umath_linalg.solve1(m, b, signature="dd->d"), np.linalg.solve(m, b))
    assert_allclose(_umath_linalg.eigvalsh_lo(m, signature="d->d"), np.linalg.eigvalsh(m))
    assert_allclose(_umath_linalg.svd(m, signature="d->d"), np.linalg.svd(m, compute_uv=False))
