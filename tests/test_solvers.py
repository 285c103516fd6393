import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from examweight import linalg, solvers
from examweight.errors import ConvergenceError
from examweight.solvers import SolverConfig




def brute_force_nnls(s, a):
    """Exhaustive enumeration over all support patterns (oracle for p <= 6)."""
    n, p = s.shape
    best_x, best_obj = np.zeros(p), np.linalg.norm(a) ** 2
    for mask in range(1, 2 ** p):
        support = [j for j in range(p) if mask >> j & 1]
        z = linalg.solve_min_norm(s[:, support], a)
        if np.any(z < 0):
            continue
        x = np.zeros(p)
        x[support] = z
        obj = np.linalg.norm(s @ x - a) ** 2
        if obj < best_obj - 1e-15:
            best_x, best_obj = x, obj
    return best_x, best_obj


class TestOlsClosedForm:
    def test_matches_pinv_oracle(self):
        s, a = np.eye(2), np.array([1.0, 2.0])
        aug = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        expected = np.linalg.pinv(aug) @ a
        sol = solvers.fit_ols_closed_form(s, a)
        np.testing.assert_allclose(sol.question_weights, expected[:2], atol=1e-12)
        assert sol.intercept == pytest.approx(expected[2], abs=1e-12)

    def test_zero_target(self):
        sol = solvers.fit_ols_closed_form(np.eye(3), np.zeros(3))
        np.testing.assert_allclose(sol.question_weights, 0.0, atol=1e-14)
        assert sol.intercept == pytest.approx(0.0, abs=1e-14)

    def test_all_correct_column_gets_intercept_weight(self):
        rng = np.random.default_rng(2)
        s = rng.random((5, 4))
        s[:, 1] = 1.0  # identical to the bias column
        sol = solvers.fit_ols_closed_form(s, rng.random(5) * 100)
        assert sol.question_weights[1] == pytest.approx(sol.intercept, rel=1e-9)


class TestLinearIntercept:
    def test_constant_column_weight_zero(self):
        rng = np.random.default_rng(3)
        s = rng.random((6, 5))
        s[:, 2] = 1.0
        sol = solvers.fit_linear_intercept(s, rng.random(6) * 100)
        assert abs(sol.question_weights[2]) < 1e-10

    def test_line_through_two_points(self):
        sol = solvers.fit_linear_intercept(np.array([[0.0], [1.0]]), [10.0, 20.0])
        assert sol.question_weights[0] == pytest.approx(10.0)
        assert sol.intercept == pytest.approx(10.0)

    def test_underdetermined_min_norm(self):
        rng = np.random.default_rng(4)
        s = rng.random((4, 8))
        a = rng.random(4) * 50
        sol = solvers.fit_linear_intercept(s, a)
        preds = solvers.predict(sol, s)
        np.testing.assert_allclose(preds, a, atol=1e-9)
        # oracle: pinv on the centered system gives the min-norm interpolant
        oracle = np.linalg.pinv(s - s.mean(0)) @ (a - a.mean())
        np.testing.assert_allclose(sol.question_weights, oracle, atol=1e-9)

    def test_two_students_keep_no_rounding_direction(self):
        # the centered two-row design has rank 1; de-meaning it directly
        # left a second singular value of rounding above the cutoff here,
        # and its direction moved the weights by 2.2e-2 relative
        rng = np.random.default_rng(145)
        s = rng.random((2, 5))
        a = 100 * rng.random(2)
        d = s[1] - s[0]
        expect = d * (a[1] - a[0]) / (d @ d)
        sol = solvers.fit_linear_intercept(s, a)
        assert np.linalg.norm(sol.question_weights - expect) <= 1e-12 * np.linalg.norm(expect)

    def test_identical_students_give_zero_weights(self):
        # a rounded column mean can leave a constant column nonzero, and a
        # relative cutoff then keeps that rounding as the whole design
        s = np.tile([0.1, 0.2, 0.7], (3, 1))  # each mean of three rounds off
        sol = solvers.fit_linear_intercept(s, [10.0, 20.0, 60.0])
        np.testing.assert_array_equal(sol.question_weights, 0.0)
        assert sol.intercept == pytest.approx(30.0)

    def test_one_student_gets_zero_weights(self):
        # one student centers to an empty design: the fit is its target
        sol = solvers.fit_linear_intercept(np.array([[0.3, 0.9, 0.0]]), [42.5])
        np.testing.assert_array_equal(sol.question_weights, 0.0)
        assert sol.intercept == 42.5

    @given(st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_residuals_sum_to_zero(self, seed):
        rng = np.random.default_rng(seed)
        n, m = rng.integers(2, 10), rng.integers(1, 10)
        s = rng.random((n, m))
        a = rng.random(n) * 100
        sol = solvers.fit_linear_intercept(s, a)
        resid = a - solvers.predict(sol, s)
        assert abs(resid.sum()) < 1e-9 * n * max(np.max(np.abs(a)), 1.0)


class TestNnls:
    def test_negative_coordinate_clipped(self):
        sol = solvers.fit_nnls(np.eye(2), [3.0, -1.0])
        np.testing.assert_allclose(sol.question_weights, [3.0, 0.0], atol=1e-12)

    def test_feasible_unconstrained_optimum(self):
        sol = solvers.fit_nnls(np.eye(2), [3.0, 4.0])
        np.testing.assert_allclose(sol.question_weights, [3.0, 4.0], atol=1e-12)

    def test_all_negative_target(self):
        sol = solvers.fit_nnls(np.array([[1.0], [1.0]]), [-1.0, -1.0])
        np.testing.assert_allclose(sol.question_weights, [0.0])

    def test_intercept_fixed_at_zero(self):
        sol = solvers.fit_nnls(np.eye(3), [1.0, 2.0, 3.0])
        assert sol.intercept == 0.0

    @given(st.integers(0, 1000), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration_and_kkt(self, seed, warm):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        p = int(rng.integers(1, 7))
        s = rng.standard_normal((n, p))
        a = rng.standard_normal(n) * 3
        start = None
        if warm:  # random weights, about half of them zero
            start = rng.random(p) * (rng.random(p) < 0.5)
        sol = solvers.fit_nnls(s, a, start=start)
        x = sol.question_weights
        assert np.all(x >= 0)
        oracle_x, oracle_obj = brute_force_nnls(s, a)
        obj = np.linalg.norm(s @ x - a) ** 2
        assert obj <= oracle_obj + 1e-9
        if p <= n:  # overdetermined case has a unique minimizer to compare
            np.testing.assert_allclose(x, oracle_x, atol=1e-7)
        # KKT: passive gradient ~ 0, active gradient >= -tol
        grad = s.T @ (s @ x - a)
        passive = x > solvers.NNLS_TOLERANCE
        assert np.all(np.abs(grad[passive]) < 1e-8)
        assert np.all(grad[~passive] >= -solvers.NNLS_TOLERANCE)

    def test_start_at_the_optimum_takes_one_solve(self):
        rng = np.random.default_rng(3)
        s = rng.random((12, 5))
        a = s @ np.array([2.0, 0.0, 1.0, 0.0, 3.0]) - 0.5 * s[:, 1]
        cold = solvers.fit_nnls(s, a)
        warm = solvers.fit_nnls(s, a, start=cold.question_weights)
        assert cold.iterations > 1 and warm.iterations == 1
        np.testing.assert_array_equal(warm.question_weights, cold.question_weights)

    def test_infeasible_start_is_pruned_to_a_feasible_one(self):
        # the unconstrained optimum on all three columns has a negative
        # weight; dropping it gives the answer, in two solves
        s = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        a = s @ np.array([1.0, 2.0, -0.5])
        warm = solvers.fit_nnls(s, a, start=np.ones(3))
        cold = solvers.fit_nnls(s, a)
        np.testing.assert_allclose(warm.question_weights, cold.question_weights, atol=1e-12)
        assert warm.question_weights[2] == 0.0 and warm.iterations == 2

    def test_zero_start_is_a_cold_fit(self):
        rng = np.random.default_rng(4)
        s, a = rng.random((8, 4)), rng.random(8)
        cold = solvers.fit_nnls(s, a)
        warm = solvers.fit_nnls(s, a, start=np.zeros(4))
        np.testing.assert_array_equal(warm.question_weights, cold.question_weights)
        assert warm.iterations == cold.iterations

    def test_start_solves_count_toward_the_cap(self, monkeypatch):
        s = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        a = s @ np.array([1.0, 2.0, -0.5])
        monkeypatch.setattr(solvers, "nnls_iteration_cap", lambda n_questions: 1)
        with pytest.raises(ConvergenceError, match="iteration cap of 1"):
            solvers.fit_nnls(s, a, start=np.ones(3))

    def test_start_of_another_length_is_rejected(self):
        with pytest.raises(ValueError, match="start weights"):
            solvers.fit_nnls(np.eye(3), np.ones(3), start=np.ones(2))

    @pytest.mark.parametrize("start", [[1.0, np.nan, 0.0], np.ones((3, 1))],
                             ids=["not_finite", "not_a_vector"])
    def test_start_must_be_a_finite_vector(self, start):
        with pytest.raises(ValueError, match="finite|1-D"):
            solvers.fit_nnls(np.eye(3), np.ones(3), start=start)

    def test_tall_and_wide_designs_solve_from_the_gram_matrix(self, monkeypatch):
        factored = []
        svd = linalg.svd
        monkeypatch.setattr(linalg, "svd", lambda a: factored.append(np.shape(a)) or svd(a))
        rng = np.random.default_rng(5)
        for shape in ((30, 8), (6, 8)):
            s = rng.random(shape)
            sol = solvers.fit_nnls(s, s @ (rng.random(8) - 0.3))
            assert sol.iterations > 1 and factored == []

    def test_iteration_cap(self, monkeypatch):
        rng = np.random.default_rng(1)
        s = rng.random((6, 5))
        monkeypatch.setattr(solvers, "nnls_iteration_cap", lambda n_questions: 1)
        with pytest.raises(ConvergenceError, match="iteration cap of 1$"):
            solvers.fit_nnls(s, rng.random(6) + 1.0)

    def test_non_finite_gradient_is_a_convergence_error(self):
        # finite inputs whose products overflow, so S^T a is inf
        rng = np.random.default_rng(0)
        s, a = rng.random((6, 4)) * 1e200, rng.random(6) * 1e200
        with np.errstate(all="ignore"), pytest.raises(
            ConvergenceError, match=r"^NNLS gradient S\^T \(a - S w\) is not finite: inf "
        ):
            solvers.fit_nnls(s, a)


class TestBaselines:
    def test_uniform(self):
        sol = solvers.baseline_uniform(4)
        np.testing.assert_allclose(sol.question_weights, 25.0)
        sol = solvers.baseline_uniform(53)
        np.testing.assert_allclose(sol.question_weights, 100.0 / 53)
        sol = solvers.baseline_uniform(1)
        np.testing.assert_allclose(sol.question_weights, [100.0])

    def test_actual(self):
        points = [3.0, 3.0, 4.0, 5.0, 5.0]
        sol = solvers.baseline_actual(points)
        np.testing.assert_array_equal(sol.question_weights, points)
        assert sol.intercept == 0.0

    def test_actual_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            solvers.baseline_actual([3.0, 0.0])

    def test_uniform_rejects_bad_args(self):
        with pytest.raises(ValueError):
            solvers.baseline_uniform(0)


@pytest.mark.parametrize("stop_reason, converged", [
    (None, True),
    (solvers.STOP_GRADIENT, True),
    (solvers.STOP_STALLED, False),
    (solvers.STOP_ITERATION_CAP, False),
])
def test_converged_follows_stop_reason(stop_reason, converged):
    sol = solvers.WeightSolution(np.zeros(2), 0.0, stop_reason=stop_reason)
    assert sol.converged is converged


class TestPredict:
    def test_intercept_only(self):
        sol = solvers.WeightSolution(np.zeros(3), 5.0)
        np.testing.assert_allclose(solvers.predict(sol, np.random.rand(4, 3)), 5.0)

    def test_uniform_row(self):
        sol = solvers.baseline_uniform(2)
        np.testing.assert_allclose(
            solvers.predict(sol, [[1.0, 0.5]]), [75.0]
        )

    def test_perfect_row_sums_points(self):
        sol = solvers.baseline_actual([3.0, 4.0, 10.0])
        np.testing.assert_allclose(solvers.predict(sol, [[1.0, 1.0, 1.0]]), [17.0])

    def test_dimension_mismatch(self):
        sol = solvers.baseline_uniform(2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            solvers.predict(sol, np.ones((2, 3)))


class TestCrossSolverInvariants:
    @pytest.fixture
    def tall_design(self):
        rng = np.random.default_rng(11)
        s = rng.random((20, 5))
        a = s @ (rng.standard_normal(5) * 4) + 7 + 0.5 * rng.standard_normal(20)
        return s, a

    def test_zero_column_gets_zero_weight(self):
        rng = np.random.default_rng(12)
        s = rng.random((8, 5))
        s[:, 3] = 0.0
        a = rng.random(8) * 100
        for fit in (solvers.fit_ols_closed_form, solvers.fit_linear_intercept,
                    solvers.fit_huber, solvers.fit_nnls):
            sol = fit(s, a)
            assert abs(sol.question_weights[3]) < 1e-8, fit.__name__

    def test_duplicate_columns_get_equal_weight(self, monkeypatch):
        rng = np.random.default_rng(13)
        s = rng.random((8, 6))
        s[:, 4] = s[:, 1]
        a = rng.random(8) * 100
        monkeypatch.setattr(solvers, "HUBER_TOLERANCE", 1e-11)
        tight = SolverConfig(huber_max_iterations=4000)
        for fit, tol in ((solvers.fit_ols_closed_form, 1e-8),
                         (solvers.fit_linear_intercept, 1e-8),
                         (solvers.fit_huber, 1e-6)):
            sol = fit(s, a, tight)
            assert abs(sol.question_weights[1] - sol.question_weights[4]) < tol, fit.__name__

    def test_target_scaling_equivariance(self, tall_design, monkeypatch):
        s, a = tall_design
        c = 49.5 / 67.92
        monkeypatch.setattr(solvers, "HUBER_TOLERANCE", 1e-11)
        cfg = SolverConfig(huber_regularization=0.0, huber_max_iterations=4000)
        for fit in (solvers.fit_ols_closed_form, solvers.fit_linear_intercept,
                    solvers.fit_huber, solvers.fit_nnls):
            s1, s2 = fit(s, a, cfg), fit(s, c * a, cfg)
            v1 = np.append(s1.question_weights, s1.intercept)
            v2 = np.append(s2.question_weights, s2.intercept)
            err = np.max(np.abs(v2 - c * v1)) / max(1.0, np.max(np.abs(c * v1)))
            assert err < 1e-8, f"{fit.__name__}: relative error {err}"


class TestSolverConfig:
    def test_rejects_small_epsilon(self):
        with pytest.raises(ValueError, match="huber_epsilon"):
            SolverConfig(huber_epsilon=1.0)

    @pytest.mark.parametrize("name", ["huber_epsilon", "huber_regularization"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_floats(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SolverConfig(**{name: value})

    @pytest.mark.parametrize("name", ["huber_max_iterations"])
    @pytest.mark.parametrize("cap", [0, -1, -2, 2.5, 3.0, True, "5"])
    def test_rejects_non_positive_integer_caps(self, name, cap):
        with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
            SolverConfig(**{name: cap})

    def test_accepts_positive_integer_caps(self):
        assert SolverConfig(huber_max_iterations=np.int64(7)).huber_max_iterations == 7

    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.huber_epsilon == 1.8
        assert cfg.huber_regularization == 0.1
        assert cfg.huber_max_iterations == 500
        assert [f.name for f in dataclasses.fields(cfg)] == [
            "huber_epsilon", "huber_regularization", "huber_max_iterations",
        ]
        assert solvers.HUBER_TOLERANCE == 1e-8
        assert solvers.nnls_iteration_cap(53) == 159
