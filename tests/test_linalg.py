import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from examweight import gradebook as gb
from examweight import linalg, solvers, synthetic
from examweight.errors import ConvergenceError


def random_matrix(rng, max_dim=12, force_deficient=False):
    n = rng.integers(1, max_dim + 1)
    p = rng.integers(1, max_dim + 1)
    if force_deficient and min(n, p) >= 2:
        r = rng.integers(1, min(n, p))
        return rng.standard_normal((n, r)) @ rng.standard_normal((r, p))
    return rng.standard_normal((n, p))


class TestSvd:
    def test_diagonal(self):
        u, sigma, v = linalg.svd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(sigma, [3.0, 1.0])
        np.testing.assert_allclose(u, np.eye(2))
        np.testing.assert_allclose(v, np.eye(2))

    def test_zero_matrix(self):
        u, sigma, _ = linalg.svd(np.zeros((2, 2)))
        np.testing.assert_array_equal(sigma, [0.0, 0.0])
        np.testing.assert_allclose(u.T @ u, np.eye(2), atol=1e-12)

    def test_rank_one_ones(self):
        # eigenvalues of A^T A for [[1,1],[1,1]] are 4 and 0 by hand
        _, sigma, _ = linalg.svd([[1.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(sigma, [2.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(25))
    def test_reconstruction_and_orthonormality(self, seed):
        rng = np.random.default_rng(seed)
        a = random_matrix(rng, force_deficient=seed % 2 == 0)
        u, sigma, v = linalg.svd(a)
        smax = sigma[0]
        recon = u @ np.diag(sigma) @ v.T
        assert np.max(np.abs(recon - a)) <= 1e-8 * max(smax, 1e-30)
        r = len(sigma)
        assert np.max(np.abs(u.T @ u - np.eye(r))) < 1e-10
        assert np.max(np.abs(v.T @ v - np.eye(r))) < 1e-10
        assert np.all(np.diff(sigma) <= 0)
        assert np.all(sigma >= 0)

    def test_deterministic(self):
        a = np.random.default_rng(5).standard_normal((7, 9))
        (u1, sigma1, _), (u2, sigma2, _) = linalg.svd(a), linalg.svd(a)
        np.testing.assert_array_equal(u1, u2)
        np.testing.assert_array_equal(sigma1, sigma2)

    def test_lapack_failure_raises_convergence_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(ConvergenceError, match="3x3 matrix: SVD did not converge") as info:
            linalg.svd(np.eye(3))
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            linalg.svd([[np.nan, 0.0], [0.0, 1.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            linalg.svd(np.zeros((0, 3)))


@pytest.fixture
def cutoff(monkeypatch):
    """Sets the relative rank cutoff of every linalg routine to a value."""
    return lambda value: monkeypatch.setattr(
        linalg, "default_rank_cutoff", lambda rows, cols: value
    )


@pytest.fixture
def calls(monkeypatch):
    seen = []
    original = linalg.svd

    def counting(a):
        seen.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(linalg, "svd", counting)
    return seen


def fold_solution(a, y, j, centered):
    """Fold j's minimum-norm solution by a solve of its own; centered on a
    basis of the zero-sum vectors taken from an SVD of the all-ones row."""
    fa, fy = np.delete(a, j, axis=0), np.delete(y, j)
    if centered:
        if len(fa) == 1:
            return np.zeros(a.shape[1])
        basis = np.linalg.svd(np.ones((1, len(fa))))[2][1:].T
        fa, fy = basis.T @ fa, basis.T @ fy
    return linalg.solve_min_norm(fa, fy)


def assert_matches_folds(x, a, ys, centered, rtol=1e-10):
    for j in range(len(a)):
        for t in range(ys.shape[1]):
            want = fold_solution(a, ys[:, t], j, centered)
            np.testing.assert_allclose(x[j, :, t], want, rtol=rtol, atol=rtol * np.abs(want).max())


def exact_least_squares(a, y):
    """Least-squares solution of a full-column-rank system in exact rational
    arithmetic on the normal equations, rounded once at the end."""
    m = a.shape[1]
    rows = [[Fraction(v) for v in row] for row in a]
    rhs = [Fraction(v) for v in y]
    g = [[sum(r[i] * r[k] for r in rows) for k in range(m)]
         + [sum(r[i] * b for r, b in zip(rows, rhs))] for i in range(m)]
    for i in range(m):
        for r in range(m):
            if r != i:
                f = g[r][i] / g[i][i]
                g[r] = [u - f * v for u, v in zip(g[r], g[i])]
    return np.array([float(g[i][m] / g[i][i]) for i in range(m)])


class TestSvdCallers:
    """solve_min_norm and loo_min_norm factor through the module-level svd,
    so a wrapper installed on ``linalg.svd`` sees every factorization."""

    def test_solve_min_norm_calls_svd_once(self, calls):
        linalg.solve_min_norm(np.ones((4, 2)), np.ones(4))
        assert calls == [(4, 2)]

    def test_loo_min_norm_calls_svd_once(self, calls):
        linalg.loo_min_norm(np.eye(3, 5), np.ones((3, 2)))
        assert calls == [(3, 5)]

    @pytest.mark.parametrize("centered", [False, True])
    def test_loo_min_norm_calls_svd_once_when_tall(self, calls, centered):
        rng = np.random.default_rng(8)
        a, ys = rng.random((9, 3)), rng.random((9, 2))
        x = linalg.loo_min_norm(a, ys, centered=centered)
        assert calls == [(8, 3) if centered else (9, 3)]
        assert_matches_folds(x, a, ys, centered)


def test_rank_zero_gives_zeros_without_dividing():
    """A zero matrix keeps no singular value, so nothing is divided by 0."""
    with np.errstate(all="raise"):
        x = linalg.solve_min_norm(np.zeros((3, 2)), np.array([1.0, -2.0, 3.0]))
    np.testing.assert_array_equal(x, np.zeros(2))


class TestSolveMinNorm:
    def test_identity_system(self):
        np.testing.assert_allclose(
            linalg.solve_min_norm(np.eye(2), [3.0, 4.0]), [3.0, 4.0]
        )

    def test_symmetric_underdetermined(self):
        # min-norm point on x1 + x2 = 2 is (1, 1)
        np.testing.assert_allclose(
            linalg.solve_min_norm([[1.0, 1.0]], [2.0]), [1.0, 1.0]
        )

    def test_rank_deficient_least_squares(self):
        # normal equations by hand; second coordinate forced to 0 by min-norm
        np.testing.assert_allclose(
            linalg.solve_min_norm([[1.0, 0.0], [1.0, 0.0]], [1.0, 2.0]),
            [1.5, 0.0],
            atol=1e-14,
        )

    @pytest.mark.parametrize("with_gram", [False, True])
    def test_dimension_mismatch_is_raised_before_any_svd(self, calls, with_gram):
        a = np.eye(3)
        with pytest.raises(ValueError, match="dimension mismatch"):
            linalg.solve_min_norm(a, [1.0, 2.0], gram=a.T @ a if with_gram else None)
        assert calls == []

    @given(st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_row_space_membership(self, seed):
        rng = np.random.default_rng(seed)
        a = random_matrix(rng, force_deficient=seed % 2 == 0)
        y = rng.standard_normal(a.shape[0])
        x = linalg.solve_min_norm(a, y)
        # x lies in the row space of a
        p = np.linalg.pinv(a, rcond=max(a.shape) * np.finfo(float).eps)
        err = np.linalg.norm(x - p @ (a @ x))
        assert err < 1e-10 * max(1.0, np.linalg.norm(x))

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_residual_optimality(self, seed):
        rng = np.random.default_rng(seed)
        a = random_matrix(rng)
        y = rng.standard_normal(a.shape[0])
        x = linalg.solve_min_norm(a, y)
        best = np.linalg.norm(y - a @ x)
        for _ in range(20):
            d = rng.standard_normal(len(x))
            d *= 1e-3 / np.linalg.norm(d)
            assert np.linalg.norm(y - a @ (x + d)) >= best - 1e-12

    @given(st.integers(0, 500), st.floats(-50, 50, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_linearity_in_target(self, seed, c):
        rng = np.random.default_rng(seed)
        a = random_matrix(rng)
        y = rng.standard_normal(a.shape[0])
        x1 = linalg.solve_min_norm(a, c * y)
        x2 = c * linalg.solve_min_norm(a, y)
        assert np.max(np.abs(x1 - x2)) <= 1e-10 * max(1.0, np.max(np.abs(x2)))


    def test_loo_full_column_rank_makes_no_svd(self, calls):
        # it inverts the Gram matrix instead
        certified = linalg.loo_full_column_rank(np.random.default_rng(2).random((6, 3)))
        assert certified.all() and calls == []

    def test_loo_full_column_rank_skips_svd_when_folds_are_wide(self, calls):
        # 9 rows and 53 columns, as the paper's cohort: no fold has full
        # column rank, and nothing is factored to say so
        certified = linalg.loo_full_column_rank(np.random.default_rng(2).random((9, 53)))
        assert certified.tolist() == [False] * 9 and calls == []


def conditioned(rng, rows, cols, cond, kind="plain"):
    """A rows-by-cols matrix (rows >= cols) with singular values spaced
    evenly in log from 1 down to 1 / cond, then with one column zeroed
    (kind "zero") or the last a multiple of the first (kind "repeated")."""
    u = np.linalg.qr(rng.standard_normal((rows, cols)))[0]
    v = np.linalg.qr(rng.standard_normal((cols, cols)))[0]
    a = (u * np.logspace(0.0, -np.log10(cond), cols)) @ v.T
    if kind == "zero":
        a[:, rng.integers(cols)] = 0.0
    elif kind == "repeated" and cols > 1:
        a[:, -1] = rng.choice([1.0, 3.0, -0.7]) * a[:, 0]
    return a


class TestGramSolve:
    """solve_min_norm given a's Gram matrix: the corrected seminormal
    equations, or the SVD solve when their error estimate or a singular
    Gram matrix declines them."""

    @given(
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 12.0),
        st.sampled_from(["plain", "zero", "repeated"]),
        st.floats(0.0, 3.0),
        st.floats(0.0, 10.0),
    )
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_an_accepted_solve_matches_the_svd_solve(
        self, calls, seed, log_cond, kind, log_scale, noise
    ):
        rng = np.random.default_rng(seed)
        cols = int(rng.integers(1, 33))
        # square and nearly square designs often: their fitted targets leave
        # no residual to show the seminormal solve's error
        rows = cols + int(rng.choice([0, 1, rng.integers(0, 40)]))
        a = conditioned(rng, rows, cols, 10.0**log_cond, kind)
        a *= 10.0 ** rng.uniform(-log_scale, log_scale, cols)  # columns on their own scales
        # a fitted part plus noise, so residuals run from none to most of y
        y = a @ rng.standard_normal(cols) + noise * rng.standard_normal(rows)
        calls.clear()
        x = linalg.solve_min_norm(a, y, gram=a.T @ a)
        if calls:  # declined: the SVD solve itself
            return
        want = linalg.solve_min_norm(a, y)
        assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 10.0))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_a_repeated_column_always_falls_back(self, calls, seed, noise):
        # singular G: LU need not meet an exactly zero pivot, and the
        # refinement step alone can miss it, most of all when y is fitted
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(2, 40))
        cols = int(rng.integers(2, rows + 1))
        a = conditioned(rng, rows, cols, 10.0, "repeated")
        y = a @ rng.standard_normal(cols) + noise * rng.standard_normal(rows)
        calls.clear()
        x = linalg.solve_min_norm(a, y, gram=a.T @ a)
        assert calls == [(rows, cols)]
        np.testing.assert_array_equal(x, linalg.solve_min_norm(a, y))

    @pytest.mark.parametrize("rows, cols", [(40, 32), (12, 12), (200, 110)])
    def test_a_well_conditioned_design_makes_no_svd(self, calls, rows, cols):
        rng = np.random.default_rng(rows)
        a = conditioned(rng, rows, cols, 1e3)
        y = rng.standard_normal(rows)
        x = linalg.solve_min_norm(a, y, gram=a.T @ a)
        assert calls == []
        want = linalg.solve_min_norm(a, y)
        assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("cond, kind", [
        (1e6, "plain"), (1e9, "plain"), (1e12, "plain"), (10.0, "zero"), (10.0, "repeated"),
    ])
    def test_an_ill_conditioned_or_singular_design_falls_back_to_the_svd(self, calls, cond, kind):
        rng = np.random.default_rng(6)
        a = conditioned(rng, 12, 6, cond, kind)
        y = rng.standard_normal(12)
        x = linalg.solve_min_norm(a, y, gram=a.T @ a)  # no LinAlgError escapes
        assert calls == [(12, 6)]
        np.testing.assert_array_equal(x, linalg.solve_min_norm(a, y))

    def test_a_large_residual_falls_back_to_the_svd(self, calls):
        # y's part off a's range swamps its fitted part, and rounding of a
        # moves the least-squares solution by far more than LOO_RTOL
        rng = np.random.default_rng(7)
        a = conditioned(rng, 12, 3, 10.0)
        off_range = np.linalg.qr(a, mode="complete")[0][:, 3:]
        y = a @ np.ones(3) + 1e8 * (off_range @ rng.standard_normal(9))
        x = linalg.solve_min_norm(a, y, gram=a.T @ a)
        assert calls == [(12, 3)]
        np.testing.assert_array_equal(x, linalg.solve_min_norm(a, y))

    def test_a_zero_matrix_falls_back_to_zeros(self, calls):
        x = linalg.solve_min_norm(np.zeros((3, 2)), np.ones(3), gram=np.zeros((2, 2)))
        assert calls == [(3, 2)]
        np.testing.assert_array_equal(x, np.zeros(2))

    def test_a_gram_matrix_of_another_shape_is_rejected(self):
        with pytest.raises(ValueError, match="gram must be 2x2"):
            linalg.solve_min_norm(np.eye(3, 2), np.ones(3), gram=np.eye(3))


def gram_t(a):
    """(t, G^-1) of G = a^T a: t = eps * ||G||_F * ||G^-1||_F, the number
    the Gram solve holds to sqrt(LOO_RTOL), computed directly."""
    g = a.T @ a
    g_inv = np.linalg.inv(g)
    return np.finfo(float).eps * np.sqrt(np.vdot(g, g) * np.vdot(g_inv, g_inv)), g_inv


class TestLooFullColumnRank:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 10),
        st.integers(-3, 3),
        st.sampled_from(["plain", "repeated_row", "repeated_column", "scaled_column"]),
    )
    # fold 1 loses rank, and rounding leaves its 1 - h_jj at 1.2e-30, not 0
    @example(seed=1304090, n=3, extra=0, kind="repeated_row")
    @settings(max_examples=200, deadline=None)
    def test_matches_rank_of_each_fold(self, seed, n, extra, kind):
        # tall (extra < 0), square-fold and wide designs
        rng = np.random.default_rng(seed)
        p = max(1, n - 1 + extra)
        a = rng.standard_normal((n, p))
        if kind == "repeated_row":
            a[-1] = a[0]
        elif kind == "repeated_column" and p > 1:
            a[:, -1] = a[:, 0]
        elif kind == "scaled_column":
            a[:, 0] *= 10.0 ** -rng.uniform(0, 12)  # toward the cutoff
        certified = linalg.loo_full_column_rank(a)
        assert certified.shape == (n,) and certified.dtype == bool
        top = np.linalg.svd(a, compute_uv=False)[0]
        for j in range(n):
            fold = np.delete(a, j, axis=0)
            full = np.linalg.matrix_rank(fold) == p
            # a certified fold is of full rank under numpy's own cutoff,
            # which for a (n - 1)-by-p fold is the default here
            assert full or not certified[j]
            # and a fold far from the cutoff is certified
            if min(fold.shape) == p and np.linalg.svd(fold, compute_uv=False)[-1] > 1e-4 * top:
                assert certified[j]

    def test_a_row_alone_in_a_direction_is_not_certified(self):
        # only row 0 answers question 0
        a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 2.0], [0.0, 3.0]])
        assert linalg.loo_full_column_rank(a).tolist() == [False, True, True, True]

    def test_a_fold_whose_t_crosses_the_bound_is_not_certified(self):
        # without row 1, question 1 is scored by row 3 alone, at delta: the
        # fold's G is diag(2, delta^2), whose t = eps * ||G||_F * ||G^-1||_F
        # (about 2 eps / delta^2) crosses sqrt(LOO_RTOL) between these deltas
        for delta, fold_passes in ((2e-5, True), (1e-5, False)):
            a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, delta]])
            assert (gram_t(np.delete(a, 1, axis=0))[0] <= np.sqrt(linalg.LOO_RTOL)) == fold_passes
            assert linalg.loo_full_column_rank(a).tolist() == [True, fold_passes, True, True]

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 12),
        st.integers(0, 6),
        st.sampled_from(["plain", "repeated_row", "repeated_column", "scaled_column",
                         "collinear", "alone"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_certified_folds_pass_the_gram_test(self, seed, n, short, kind):
        # tall designs, whose folds have at least as many rows as columns
        rng = np.random.default_rng(seed)
        p = max(1, n - 1 - short)
        a = rng.standard_normal((n, p))
        if kind == "repeated_row":
            a[-1] = a[0]
        elif kind == "repeated_column" and p > 1:
            a[:, -1] = a[:, 0]
        elif kind == "scaled_column":
            a[:, 0] *= 10.0 ** -rng.uniform(0, 12)
        elif kind == "collinear" and p > 1:
            a[:, 1] = a[:, 0] + 10.0 ** -rng.uniform(0, 8) * rng.random(n)
        elif kind == "alone":
            a[1:, 0] = 0.0  # only row 0 answers question 0
        certified = linalg.loo_full_column_rank(a)
        try:
            t, g_inv = gram_t(a)
        except np.linalg.LinAlgError:
            assert not certified.any()
            return
        # fold j is certified exactly when t <= sqrt(LOO_RTOL) * (1 - h_jj) ...
        gap = 1.0 - np.sum((a @ g_inv) * a, axis=1)
        np.testing.assert_array_equal(certified, t <= np.sqrt(linalg.LOO_RTOL) * gap)
        # ... and then the fold's own Gram matrix passes the Gram solve's test
        for j in np.flatnonzero(certified):
            assert gram_t(np.delete(a, j, axis=0))[0] <= np.sqrt(linalg.LOO_RTOL)
        if kind == "alone":
            assert not certified[0]

    def test_zero_design_is_not_certified(self):
        assert not linalg.loo_full_column_rank(np.zeros((4, 2))).any()


class TestLooMinNorm:
    def test_identity_folds(self):
        # fold 0 keeps row (0, 1) with target 2; fold 1 keeps (1, 0) with 1
        x = linalg.loo_min_norm(np.eye(2), [[1.0], [2.0]])
        np.testing.assert_allclose(x[:, :, 0], [[0.0, 2.0], [1.0, 0.0]], atol=1e-15)

    @given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(-4, 4), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_matches_per_fold_solve(self, seed, centered, extra, deficient):
        # wide (extra >= 0) and tall designs, of full rank or not
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 8))
        a = rng.standard_normal((n, max(1, n + extra)))
        if deficient:
            a[:, -1] = a[:, 0]  # a repeated column
        ys = rng.standard_normal((n, 3))
        x = linalg.loo_min_norm(a, ys, centered=centered)
        assume(x is not None)  # declined by the guard; tested below
        assert_matches_folds(x, a, ys, centered)

    @pytest.mark.parametrize("centered", [False, True])
    def test_repeated_rows_match_per_fold_solves(self, calls, centered):
        # rank 3 of 4 rows (2 of 3 once centered): the repeated rows have
        # leverage 1/2 and are downdated, the others are projected off
        a = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0], [1.0, 2.0, 3.0], [2.0, 0.0, 1.0]])
        ys = np.array([[1.0], [2.0], [4.0], [3.0]])
        x = linalg.loo_min_norm(a, ys, centered=centered)
        assert len(calls) == 1
        assert_matches_folds(x, a, ys, centered)

    def test_near_unit_leverage_is_declined(self):
        # only row 0 has the third column, up to 1e-7 elsewhere: its leverage
        # is 1 - O(1e-14), and fold 0 keeps that direction with tiny spread
        rng = np.random.default_rng(2)
        a = rng.random((8, 3))
        a[:, 2] = 1e-7 * rng.random(8)
        a[0, 2] = 1.0
        ys = rng.random((8, 1))
        assert np.linalg.norm(fold_solution(a, ys[:, 0], 0, False)) > 1e5
        assert linalg.loo_min_norm(a, ys) is None
        assert linalg.loo_min_norm(a, ys, centered=True) is None

    def test_zero_design_gives_zero_folds(self):
        # identical rows center to exactly zero
        a = np.tile([0.1, 0.2, 0.7], (3, 1))
        x = linalg.loo_min_norm(a, np.array([[1.0], [2.0], [6.0]]), centered=True)
        np.testing.assert_array_equal(x, 0.0)

    def test_cutoff_decides_rank(self, cutoff):
        a = np.array([[1.0, 0.0, 0.0], [0.0, 1e-3, 0.0]])
        ys = np.array([[1.0], [1e-3]])
        assert linalg.loo_min_norm(a, ys) is not None
        cutoff(1e-2)
        assert linalg.loo_min_norm(a, ys) is None

    def test_rank_a_fold_would_cut_is_declined(self, cutoff):
        # both singular values clear the cutoff 0.1, but without row 1 the
        # second is 0.05 of the first, which a per-fold solve drops
        a = np.array([[1.0, 0.0], [0.0, 0.2], [0.0, 0.05]])
        ys = np.array([[1.0], [2.0], [3.0]])
        assert linalg.loo_min_norm(a, ys) is not None
        cutoff(0.1)
        assert linalg.loo_min_norm(a, ys) is None

    def test_rank_a_fold_would_keep_is_declined(self):
        # the third singular value, 3e-13, is under the cutoff relative to
        # the first, 1e3, but without row 0 it is 1.5e-13 of the largest,
        # which a per-fold solve keeps
        a = np.array([[1e3, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0 + 6e-13]])
        ys = np.array([[1.0], [2.0], [3.0]])
        assert np.linalg.norm(fold_solution(a, ys[:, 0], 0, False)) > 1e12
        assert linalg.loo_min_norm(a, ys) is None

    def test_cutoff_that_drops_a_material_direction_is_declined(self, cutoff):
        # the cutoff drops a singular value 1e-3 of the largest; the folds
        # drop theirs too, but each fold's leading direction turns, so the
        # shared solution would miss the per-fold one by 5e-4
        a = np.array([[1.0, 1e-3], [1.0, -1e-3], [1.0, 2e-3], [1.0, 0.0]])
        ys = np.array([[1.0], [2.0], [3.0], [5.0]])
        assert linalg.loo_min_norm(a, ys) is not None
        cutoff(1e-2)
        assert linalg.loo_min_norm(a, ys) is None

    def test_residual_error_is_estimated(self):
        # near-collinear columns and targets far from the column space: the
        # residual's rounding, which grows as cond^2, carried a fold to 1.2e-10
        # from its exact solution when the estimate left it out
        rng = np.random.default_rng(133)
        t = rng.random(6)
        a = np.column_stack([t, t + 4e-5 * rng.standard_normal(6)])
        ys = 100 * rng.random((6, 1))
        x = linalg.loo_min_norm(a, ys)
        if x is not None:
            for j in range(6):
                want = exact_least_squares(np.delete(a, j, axis=0), np.delete(ys[:, 0], j))
                assert np.linalg.norm(x[j, :, 0] - want) <= linalg.LOO_RTOL * np.linalg.norm(want)

    def test_inaccurate_folds_are_declined(self):
        # full row rank, but fold 1's solution (1, 0, 0) would come out of
        # cancelling two vectors of norm 1e7
        a = np.array([[1.0, 1e-7, 0.0], [1.0, 0.0, 0.0]])
        assert np.linalg.matrix_rank(a) == 2
        assert linalg.loo_min_norm(a, np.array([[2.0], [1.0]])) is None

    def test_two_rows_centered_are_declined(self):
        # each fold is one row, whose centered solution is exactly zero;
        # the shared path would leave rounding of X0's size in its place
        a = np.array([[0.2, 0.7, 0.1], [0.9, 0.3, 0.4]])
        assert linalg.loo_min_norm(a, np.array([[10.0], [20.0]]), centered=True) is None

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2 rows"):
            linalg.loo_min_norm(np.ones((1, 3)), np.ones((1, 1)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            linalg.loo_min_norm(np.eye(2, 3), np.ones((3, 1)))
        with pytest.raises(ValueError, match="2-D"):
            linalg.loo_min_norm(np.eye(2, 3), np.ones(2))


def qr_center(a):
    """center by a QR of the n-by-(n - 1) difference matrix [e_j - e_1]: the
    reference basis that center's closed form must match."""
    n = len(a)
    basis = np.linalg.qr(np.eye(n)[:, 1:] - np.eye(n)[:, :1])[0]
    return basis, basis.T @ (a - a[0])


LADDER = {
    "wide-20x53": dict(seed=3, noise=4.0, students=20),
    "tall-40x32": dict(seed=3, noise=4.0, students=40, mc_questions=16, tf_questions=8,
                       analytical_questions=4, analytical_subparts=8),
    "tall-200x120": dict(seed=3, noise=4.0, students=200, mc_questions=68, tf_questions=34,
                         analytical_questions=6, analytical_subparts=18),
}


def linear_intercept_folds(s, targets):
    """(shared, direct): every fold of every column from the shared path,
    and 20 folds spread over the students from one fit_linear_intercept
    each."""
    shared = solvers.fit_linear_intercept(s, targets, leave_one_out=True)
    assert shared is not None
    sample = range(0, len(s), max(1, len(s) // 20))
    direct = [[solvers.fit_linear_intercept(np.delete(s, k, axis=0), np.delete(a, k))
               for k in sample] for a in targets.T]
    return shared, direct


class TestCenter:
    @pytest.mark.parametrize("n", [2, 3, 9, 40, 200])
    def test_basis_is_orthonormal_and_zero_sum(self, n):
        a = np.random.default_rng(n).random((n, 3))
        basis, centered = linalg.center(a)
        eps = np.finfo(float).eps
        assert basis.shape == (n, n - 1)
        assert np.abs(basis.T @ basis - np.eye(n - 1)).max() <= 8 * eps
        assert np.abs(np.ones(n) @ basis).max() <= 8 * eps
        np.testing.assert_array_equal(centered, basis.T @ (a - a[0]))
        # Q Q^T de-means the columns
        np.testing.assert_allclose(basis @ centered, a - a.mean(axis=0), atol=1e-14)

    def test_one_row_has_an_empty_basis(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            basis, centered = linalg.center(np.ones((1, 3)))
        assert basis.shape == (1, 0) and centered.shape == (0, 3)

    def test_needs_no_qr(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("center called a QR")

        monkeypatch.setattr(np.linalg, "qr", fail)
        basis, centered = linalg.center(np.arange(12.0).reshape(4, 3) ** 2)
        assert basis.shape == (4, 3) and centered.shape == (3, 3)

    def test_a_constant_column_centers_to_exactly_zero(self, monkeypatch):
        s = np.random.default_rng(4).random((9, 5))
        s[:, 2] = 0.1  # 0.1 - mean(0.1, ...) need not round to 0
        a = s @ np.arange(1.0, 6.0) + 0.5
        # the direct path
        np.testing.assert_array_equal(linalg.center(s)[1][:, 2], 0.0)
        # the SVD leaves its weight at rounding, not at exactly 0
        assert abs(solvers.fit_linear_intercept(s, a).question_weights[2]) <= 1e-14
        # the shared path: the design loo_min_norm factors
        factored = []
        original = linalg.svd
        monkeypatch.setattr(linalg, "svd", lambda m: factored.append(m) or original(m))
        assert linalg.loo_min_norm(s, a[:, None], centered=True) is not None
        [design] = factored
        assert design.shape == (8, 5)
        np.testing.assert_array_equal(design[:, 2], 0.0)

    @pytest.mark.parametrize("spec", list(LADDER))
    def test_linear_intercept_folds_match_a_qr_basis(self, monkeypatch, spec):
        book = synthetic.generate_gradebook(synthetic.SyntheticSpec(**LADDER[spec]))
        s = book.exams["final"]
        targets = np.column_stack([
            gb.ability(book, "final", gb.ACTUAL_SCALE, exclusion)
            for exclusion in (gb.INCLUDE_EXAM, gb.EXCLUDE_EXAM)
        ])
        got = linear_intercept_folds(s, targets)
        monkeypatch.setattr(linalg, "center", qr_center)
        want = linear_intercept_folds(s, targets)
        for got_path, want_path in zip(got, want):
            for got_folds, want_folds in zip(got_path, want_path):
                for g, w in zip(got_folds, want_folds, strict=True):
                    x = np.append(g.question_weights, g.intercept)
                    y = np.append(w.question_weights, w.intercept)
                    assert np.linalg.norm(x - y) <= 1e-10 * np.linalg.norm(y)
