import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from examweight import linalg
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
        res = linalg.svd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(res.singular_values, [3.0, 1.0])
        np.testing.assert_allclose(res.u, np.eye(2))
        np.testing.assert_allclose(res.v, np.eye(2))

    def test_zero_matrix(self):
        res = linalg.svd(np.zeros((2, 2)))
        np.testing.assert_array_equal(res.singular_values, [0.0, 0.0])
        np.testing.assert_allclose(res.u.T @ res.u, np.eye(2), atol=1e-12)

    def test_rank_one_ones(self):
        # eigenvalues of A^T A for [[1,1],[1,1]] are 4 and 0 by hand
        res = linalg.svd([[1.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(res.singular_values, [2.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(25))
    def test_reconstruction_and_orthonormality(self, seed):
        rng = np.random.default_rng(seed)
        a = random_matrix(rng, force_deficient=seed % 2 == 0)
        res = linalg.svd(a)
        smax = res.singular_values[0]
        recon = res.u @ np.diag(res.singular_values) @ res.v.T
        assert np.max(np.abs(recon - a)) <= 1e-8 * max(smax, 1e-30)
        r = len(res.singular_values)
        assert np.max(np.abs(res.u.T @ res.u - np.eye(r))) < 1e-10
        assert np.max(np.abs(res.v.T @ res.v - np.eye(r))) < 1e-10
        assert np.all(np.diff(res.singular_values) <= 0)
        assert np.all(res.singular_values >= 0)

    def test_deterministic(self):
        a = np.random.default_rng(5).standard_normal((7, 9))
        r1, r2 = linalg.svd(a), linalg.svd(a)
        np.testing.assert_array_equal(r1.u, r2.u)
        np.testing.assert_array_equal(r1.singular_values, r2.singular_values)

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


class TestSvdCallers:
    """pinv and solve_min_norm factor through the module-level svd, so a
    wrapper installed on ``linalg.svd`` sees every factorization."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        original = linalg.svd

        def counting(a):
            seen.append(np.shape(a))
            return original(a)

        monkeypatch.setattr(linalg, "svd", counting)
        return seen

    def test_pinv_calls_svd_once(self, calls):
        linalg.pinv(np.ones((3, 5)))
        assert calls == [(3, 5)]

    def test_solve_min_norm_calls_svd_once(self, calls):
        linalg.solve_min_norm(np.ones((4, 2)), np.ones(4))
        assert calls == [(4, 2)]

    def test_loo_min_norm_calls_svd_once(self, calls):
        linalg.loo_min_norm(np.eye(3, 5), np.ones((3, 2)))
        assert calls == [(3, 5)]

    def test_loo_min_norm_skips_svd_when_too_tall(self, calls):
        assert linalg.loo_min_norm(np.ones((4, 2)), np.ones((4, 1))) is None
        assert linalg.loo_min_norm(np.ones((4, 2)), np.ones((4, 1)), centered=True) is None
        assert calls == []


class TestPinv:
    def test_rank_deficient_diagonal(self):
        np.testing.assert_allclose(
            linalg.pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14
        )

    def test_column_of_ones(self):
        # (A^T A)^-1 A^T = (1/2)(1 1)
        np.testing.assert_allclose(
            linalg.pinv([[1.0], [1.0]]), [[0.5, 0.5]], atol=1e-14
        )

    def test_identity(self):
        np.testing.assert_allclose(linalg.pinv(np.eye(3)), np.eye(3), atol=1e-14)

    @pytest.mark.parametrize("seed", range(20))
    def test_moore_penrose_conditions(self, seed):
        rng = np.random.default_rng(100 + seed)
        a = random_matrix(rng, force_deficient=seed % 2 == 0)
        p = linalg.pinv(a)
        tol = 1e-9 * max(1.0, np.max(np.abs(a)))
        assert np.max(np.abs(a @ p @ a - a)) < tol
        assert np.max(np.abs(p @ a @ p - p)) < tol
        assert np.max(np.abs((a @ p).T - a @ p)) < tol
        assert np.max(np.abs((p @ a).T - p @ a)) < tol

    def test_rejects_nonpositive_cutoff(self):
        with pytest.raises(ValueError, match="rank_cutoff"):
            linalg.pinv(np.eye(2), rank_cutoff=0.0)


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

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            linalg.solve_min_norm(np.eye(3), [1.0, 2.0])

    @given(st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_row_space_membership(self, seed):
        rng = np.random.default_rng(seed)
        a = random_matrix(rng, force_deficient=seed % 2 == 0)
        y = rng.standard_normal(a.shape[0])
        x = linalg.solve_min_norm(a, y)
        # x lies in the row space of a
        err = np.linalg.norm(x - linalg.pinv(a) @ (a @ x))
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


class TestLooMinNorm:
    def test_identity_folds(self):
        # fold 0 keeps row (0, 1) with target 2; fold 1 keeps (1, 0) with 1
        x = linalg.loo_min_norm(np.eye(2), [[1.0], [2.0]])
        np.testing.assert_allclose(x[:, :, 0], [[0.0, 2.0], [1.0, 0.0]], atol=1e-15)

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_matches_per_fold_solve(self, seed, centered):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 8))
        a = rng.standard_normal((n, n + int(rng.integers(0, 5))))
        ys = rng.standard_normal((n, 3))
        x = linalg.loo_min_norm(a, ys, centered=centered)
        for j in range(n):
            keep = np.arange(n) != j
            fa, fy = a[keep], ys[keep]
            if centered:
                fa, fy = fa - fa.mean(axis=0), fy - fy.mean(axis=0)
            for t in range(3):
                np.testing.assert_allclose(
                    x[j, :, t], linalg.solve_min_norm(fa, fy[:, t]), rtol=1e-10, atol=1e-10
                )

    def test_repeated_row_is_not_full_rank(self):
        a = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0], [1.0, 2.0, 3.0]])
        ys = np.array([[1.0], [2.0], [4.0]])
        assert linalg.loo_min_norm(a, ys) is None
        assert linalg.loo_min_norm(a, ys, centered=True) is None
        # three distinct rows: rank 3, and rank 2 = n - 1 once centered
        a[2, 0] = 2.0
        assert linalg.loo_min_norm(a, ys) is not None
        assert linalg.loo_min_norm(a, ys, centered=True) is not None

    def test_cutoff_decides_rank(self):
        a = np.array([[1.0, 0.0, 0.0], [0.0, 1e-3, 0.0]])
        ys = np.array([[1.0], [1e-3]])
        assert linalg.loo_min_norm(a, ys) is not None
        assert linalg.loo_min_norm(a, ys, rank_cutoff=1e-2) is None

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
