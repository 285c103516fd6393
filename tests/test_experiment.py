import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from examweight import experiment, gradebook as gb, solvers
from examweight.errors import ConvergenceError
from examweight.solvers import SolverConfig


def tall_linear_book(seed=3, n=12, m=4):
    """Cohort whose components are an exact linear function of the exam."""
    rng = np.random.default_rng(seed)
    scores = rng.random((n, m))
    points = np.arange(1.0, m + 1)
    points *= 100.0 / points.sum()
    totals = scores @ points
    comps = {name: totals.copy() for name in gb.COMPONENTS}
    qs = tuple(
        gb.Question(id=f"Q{j + 1}", kind=gb.MULTIPLE_CHOICE, max_points=points[j])
        for j in range(m)
    )
    return gb.Gradebook(
        students=tuple(f"s{i}" for i in range(n)),
        exams={"final": scores},
        questions={"final": qs},
        components=comps,
    )


class TestLoocvFit:
    def test_identical_students_give_identical_folds(self):
        s = np.tile([0.5, 1.0], (5, 1))
        a = np.full(5, 70.0)
        folds, avg = experiment.loocv_fit(s, a, solvers.OLS_CLOSED_FORM)
        assert len(folds) == 5
        for f in folds:
            np.testing.assert_allclose(f.question_weights, avg.question_weights)

    def test_average_of_two_folds(self):
        # leaving out either row of the identity leaves a single-point fit
        s = np.eye(2)
        a = np.array([1.0, 1.0])
        folds, avg = experiment.loocv_fit(s, a, solvers.OLS_CLOSED_FORM)
        # fold 0 sees only e2 -> weight (0, 1) plus min-norm intercept split;
        # the averaged weights must be the plain coordinate mean
        expect = np.mean([f.question_weights for f in folds], axis=0)
        np.testing.assert_allclose(avg.question_weights, expect, atol=1e-12)
        assert avg.intercept == pytest.approx(
            np.mean([f.intercept for f in folds]), abs=1e-12
        )

    def test_noiseless_tall_folds_recover_truth(self):
        rng = np.random.default_rng(5)
        s = rng.random((9, 3))
        w_true = np.array([30.0, 50.0, 20.0])
        a = s @ w_true
        folds, avg = experiment.loocv_fit(s, a, solvers.OLS_CLOSED_FORM)
        for k, f in enumerate(folds):
            keep = np.arange(9) != k
            oracle = np.linalg.pinv(np.column_stack([s[keep], np.ones(8)])) @ a[keep]
            np.testing.assert_allclose(f.question_weights, oracle[:3], atol=1e-8)
        np.testing.assert_allclose(avg.question_weights, w_true, atol=1e-8)

    def test_needs_two_students(self):
        with pytest.raises(ValueError, match="at least 2"):
            experiment.loocv_fit(np.eye(1), [1.0], solvers.OLS_CLOSED_FORM)

    def test_fold_errors_name_the_fold(self):
        s = np.random.default_rng(1).random((6, 5)) + 1.0
        cfg = SolverConfig(nnls_max_iterations=1)
        with pytest.raises(ConvergenceError, match="fold 0"):
            experiment.loocv_fit(s, np.ones(6), solvers.NNLS, cfg)

    def test_foreign_errors_propagate_unchanged(self, monkeypatch):
        class TwoArgError(Exception):
            def __init__(self, code, detail):
                super().__init__(f"{code}: {detail}")
                self.code = code

        raised = TwoArgError(7, "bad fit")

        def failing_fitter(s, a, cfg):
            raise raised

        monkeypatch.setitem(solvers.FITTERS, "failing", failing_fitter)
        with pytest.raises(TwoArgError) as info:
            experiment.loocv_fit(np.eye(3), np.ones(3), "failing")
        assert info.value is raised
        with pytest.raises(TwoArgError) as info:
            experiment.evaluate(
                tall_linear_book(), "final", approaches=("failing",),
                scales=(gb.ACTUAL_SCALE,),
            )
        assert info.value is raised and info.value.code == 7


class TestEvaluate:
    def test_report_shape_and_mae_arithmetic(self):
        g = tall_linear_book()
        rep = experiment.evaluate(
            g, "final", approaches=(solvers.UNIFORM, solvers.OLS_CLOSED_FORM)
        )
        assert rep.exam == "final"
        assert len(rep.records) == 4  # 2 scales x 2 approaches
        for rec in rep.records:
            expect = float(np.mean(np.abs(rec.predictions - rec.target)))
            assert rec.mae == pytest.approx(expect, abs=1e-12)

    def test_baselines_bypass_loocv(self):
        g = tall_linear_book()
        rep = experiment.evaluate(g, "final", approaches=(solvers.UNIFORM, solvers.ACTUAL))
        n = len(g.students)
        for rec in rep.records:
            assert len(rec.fold_weights) == n
            for f in rec.fold_weights:
                np.testing.assert_array_equal(
                    f.question_weights, rec.averaged_weights.question_weights
                )
        uni = rep.get(solvers.UNIFORM, gb.ACTUAL_SCALE)
        np.testing.assert_allclose(uni.averaged_weights.question_weights, 25.0)
        act = rep.get(solvers.ACTUAL, gb.ACTUAL_SCALE)
        # components equal the actual exam totals here, so actual weights are exact
        assert act.mae == pytest.approx(0.0, abs=1e-10)

    def test_averaged_weights_equal_fold_mean(self):
        g = tall_linear_book()
        rep = experiment.evaluate(
            g, "final", approaches=(solvers.LINEAR_INTERCEPT, solvers.NNLS)
        )
        for rec in rep.records:
            mean_w = np.mean([f.question_weights for f in rec.fold_weights], axis=0)
            np.testing.assert_allclose(
                rec.averaged_weights.question_weights, mean_w, atol=1e-12
            )

    def test_fitted_beats_uniform_on_linear_cohort(self):
        g = tall_linear_book()
        rep = experiment.evaluate(
            g, "final", approaches=(solvers.UNIFORM, solvers.OLS_CLOSED_FORM)
        )
        for scale in (gb.ACTUAL_SCALE, gb.NORMALIZED_SCALE):
            assert (
                rep.get(solvers.OLS_CLOSED_FORM, scale).mae
                <= rep.get(solvers.UNIFORM, scale).mae
            )

    def test_student_permutation_invariance(self):
        g = tall_linear_book()
        perm = np.random.default_rng(0).permutation(len(g.students))
        g2 = gb.Gradebook(
            students=tuple(g.students[i] for i in perm),
            exams={"final": g.exams["final"][perm]},
            questions=dict(g.questions),
            components={k: v[perm] for k, v in g.components.items()},
        )
        r1 = experiment.evaluate(g, "final", approaches=(solvers.OLS_CLOSED_FORM,))
        r2 = experiment.evaluate(g2, "final", approaches=(solvers.OLS_CLOSED_FORM,))
        for scale in (gb.ACTUAL_SCALE, gb.NORMALIZED_SCALE):
            a = r1.get(solvers.OLS_CLOSED_FORM, scale)
            b = r2.get(solvers.OLS_CLOSED_FORM, scale)
            np.testing.assert_allclose(
                a.averaged_weights.question_weights,
                b.averaged_weights.question_weights,
                atol=1e-9,
            )
            assert a.mae == pytest.approx(b.mae, abs=1e-9)

    def test_unknown_exam(self):
        with pytest.raises(gb.DataError, match="unknown exam"):
            experiment.evaluate(tall_linear_book(), "midterm")

    def test_cell_errors_name_the_cell_and_fold(self):
        cfg = SolverConfig(nnls_max_iterations=1)
        with pytest.raises(ConvergenceError, match=r"nnls \(actual, include_exam\): fold 0"):
            experiment.evaluate(
                tall_linear_book(), "final", cfg,
                scales=(gb.ACTUAL_SCALE,), approaches=(solvers.NNLS,),
            )

    def test_get_raises_on_missing_cell(self):
        g = tall_linear_book()
        rep = experiment.evaluate(g, "final", approaches=(solvers.UNIFORM,))
        with pytest.raises(KeyError):
            rep.get(solvers.HUBER, gb.ACTUAL_SCALE)

    @given(st.integers(0, 100))
    @settings(max_examples=10, deadline=None)
    def test_mae_recomputable_from_record(self, seed):
        g = tall_linear_book(seed=seed)
        rep = experiment.evaluate(
            g, "final", approaches=(solvers.LINEAR_INTERCEPT,),
            scales=(gb.ACTUAL_SCALE,),
        )
        rec = rep.records[0]
        preds = solvers.predict(rec.averaged_weights, g.exams["final"])
        np.testing.assert_allclose(preds, rec.predictions, atol=1e-12)
        assert rec.mae == pytest.approx(
            float(np.mean(np.abs(preds - rec.target))), abs=1e-12
        )


class TestExclusionComparison:
    def test_degenerate_when_exam_equals_other_components(self):
        # all four components identical: include vs exclude gives the same
        # target, so every weight delta is exactly machine-level zero
        g = tall_linear_book()
        cmp = experiment.exclusion_comparison(
            g, "final", scales=(gb.ACTUAL_SCALE,)
        )
        for delta in cmp.deltas:
            assert delta.mae_include == pytest.approx(delta.mae_exclude, abs=1e-9)
            for _, d in delta.weight_deltas:
                assert abs(d) < 1e-9

    def test_deltas_sorted_by_magnitude(self):
        g = tall_linear_book()
        # perturb one non-exam component so the two targets differ
        g.components["homework"] = np.clip(
            g.components["homework"] + np.linspace(-5, 5, len(g.students)), 0, 100
        )
        cmp = experiment.exclusion_comparison(g, "final", scales=(gb.ACTUAL_SCALE,))
        for delta in cmp.deltas:
            mags = [abs(d) for _, d in delta.weight_deltas]
            assert mags == sorted(mags, reverse=True)
            assert {q for q, _ in delta.weight_deltas} == set(
                cmp.include_report.question_ids
            )
