import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from examweight import experiment, gradebook as gb, linalg, solvers, synthetic
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


MIN_NORM = (solvers.OLS_CLOSED_FORM, solvers.LINEAR_INTERCEPT)


def min_norm_design(s, solver):
    """The matrix that the shared path factors."""
    if solver == solvers.OLS_CLOSED_FORM:
        return np.hstack([s, np.ones((len(s), 1))])
    return linalg.center(s)[1]


def per_fold(s, a, solver):
    fitter = solvers.FITTERS[solver]
    return [fitter(np.delete(s, k, axis=0), np.delete(a, k), solvers.DEFAULT_CONFIG)
            for k in range(len(a))]


@pytest.fixture
def svd_calls(monkeypatch):
    seen = []
    original = linalg.svd

    def counting(a):
        seen.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(linalg, "svd", counting)
    return seen


class TestSharedLoo:
    """The one-SVD leave-one-out path of the minimum-norm solvers against the
    per-fold loop it replaces, which stays as the fallback."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 15),
        st.integers(0, 20),
        st.sampled_from(["wide", "tall", "rank_deficient", "repeated_rows"]),
        st.sampled_from([None, 1e-1, 1e-3, 1e-6]),
        st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_fold_loop(self, seed, n, extra, shape, near_duplicate, k):
        rng = np.random.default_rng(seed)
        m = max(1, n - 1 - extra) if shape == "tall" else n - 1 + extra
        s = rng.random((n, m))
        if m >= 3:
            s[:, 0] = 0.0  # nobody answered
            s[:, 1] = 1.0  # everybody answered
            s[:, 2] = s[:, -1]  # duplicate question
        if shape == "rank_deficient" and min(n, m) >= 2:
            rank = int(rng.integers(1, min(n, m)))
            s = rng.random((n, rank)) @ rng.random((rank, m)) / rank
        if shape == "repeated_rows" and n >= 3:
            for _ in range(int(rng.integers(1, n))):
                i, j = rng.choice(n, 2, replace=False)
                s[i] = s[j]
        if near_duplicate is not None:
            s[-1] = s[0] + near_duplicate * rng.standard_normal(m)
        targets = 100.0 * rng.random((n, k))
        for solver in MIN_NORM:
            design = min_norm_design(s, solver)
            sigma = np.linalg.svd(design, compute_uv=False)
            cutoff = linalg.default_rank_cutoff(len(design) - 1, design.shape[1])
            rank = int(np.sum(sigma > cutoff * sigma[0]))
            shared = solvers.FITTERS[solver](s, targets, leave_one_out=True)
            if shared is None:
                continue  # declined by the accuracy guard; fallback tested below
            cond = sigma[0] / sigma[rank - 1] if rank else 1.0
            tol = 1e-10 if cond <= 1e4 else 100 * cond * np.finfo(float).eps
            for t in range(k):
                for got, want in zip(shared[t], per_fold(s, targets[:, t], solver)):
                    x_got = np.append(got.question_weights, got.intercept)
                    x_want = np.append(want.question_weights, want.intercept)
                    err = np.linalg.norm(x_got - x_want) / np.linalg.norm(x_want)
                    assert err <= tol, f"{solver}: cond {cond:.3g}, error {err:.3g}"

    def test_near_repeated_student_with_a_near_equal_target(self):
        # X0 stays moderate, so the error estimate lets this cond ~1e4 design
        # through; truncating the centered SVD at rank n - 1 instead of
        # factoring on the zero-sum basis missed by 6e-9 here
        rng = np.random.default_rng(0)
        s = rng.random((8, 20))
        s[-1] = s[0] + 1e-4 * rng.standard_normal(20)
        targets = 100.0 * rng.random((8, 2))
        targets[-1] = targets[0] + 1e-2 * rng.standard_normal(2)
        shared = solvers.fit_linear_intercept(s, targets, leave_one_out=True)
        assert shared is not None
        for t in range(2):
            for got, want in zip(shared[t], per_fold(s, targets[:, t], solvers.LINEAR_INTERCEPT)):
                x_got = np.append(got.question_weights, got.intercept)
                x_want = np.append(want.question_weights, want.intercept)
                assert np.linalg.norm(x_got - x_want) <= 1e-10 * np.linalg.norm(x_want)

    @pytest.mark.parametrize("solver", MIN_NORM)
    @pytest.mark.parametrize("design", ["tall", "repeated_rows"])
    def test_fallback_gives_per_fold_results(self, solver, design, svd_calls):
        # tall and repeated-row designs share one SVD unless the accuracy
        # guard declines them, as it does these two
        rng = np.random.default_rng(11)
        if design == "tall":
            # a student alone in (nearly) answering question 3: leverage
            # within about 1e-14 of 1, and fold 0 keeps that question
            s = rng.random((12, 4))
            s[:, 3] = 1e-7 * rng.random(12)
            s[0, 3] = 1.0
        else:
            # a student who repeats another to within 1e-7
            s = rng.random((6, 20))
            s[3] = s[1] + 1e-7 * rng.standard_normal(20)
        n = len(s)
        targets = 100.0 * rng.random((n, 2))
        assert solvers.FITTERS[solver](s, targets, leave_one_out=True) is None
        del svd_calls[:]
        fits = experiment.loocv_fit(s, targets, solver)
        assert len(svd_calls) == 1 + 2 * n
        for t, (folds, avg) in enumerate(fits):
            expect = per_fold(s, targets[:, t], solver)
            for got, want in zip(folds, expect):
                np.testing.assert_array_equal(got.question_weights, want.question_weights)
                assert got.intercept == want.intercept
            np.testing.assert_array_equal(
                avg.question_weights, np.mean([f.question_weights for f in expect], axis=0)
            )

    def test_a_replaced_fitter_is_used_for_every_fold(self, monkeypatch, svd_calls):
        s = np.random.default_rng(4).random((5, 8))
        original = solvers.FITTERS[solvers.OLS_CLOSED_FORM]
        seen = []

        def replacement(s, a, cfg):
            seen.append(len(a))
            return original(s, a, cfg)

        monkeypatch.setitem(solvers.FITTERS, solvers.OLS_CLOSED_FORM, replacement)
        experiment.loocv_fit(s, np.arange(5.0), solvers.OLS_CLOSED_FORM)
        assert seen == [4] * 5

        # a functools.wraps wrapper reports the fitter's signature, so it is
        # called once for the whole run, with the keyword passed through
        keywords = []

        @functools.wraps(original)
        def passing(*args, **kwargs):
            keywords.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setitem(solvers.FITTERS, solvers.OLS_CLOSED_FORM, passing)
        del svd_calls[:]
        experiment.loocv_fit(s, np.arange(5.0), solvers.OLS_CLOSED_FORM)
        assert keywords == [{"leave_one_out": True}] and svd_calls == [(5, 9)]

        # one that cannot take the keyword fails instead of being skipped
        monkeypatch.setitem(solvers.FITTERS, solvers.OLS_CLOSED_FORM,
                            functools.wraps(original)(replacement))
        del seen[:]
        with pytest.raises(TypeError, match="leave_one_out"):
            experiment.loocv_fit(s, np.arange(5.0), solvers.OLS_CLOSED_FORM)
        assert seen == []

    def test_vector_target_gives_one_pair(self):
        s = np.random.default_rng(2).random((5, 8))
        a = np.arange(5.0)
        folds, avg = experiment.loocv_fit(s, a, solvers.LINEAR_INTERCEPT)
        [(folds2, avg2)] = experiment.loocv_fit(s, a[:, None], solvers.LINEAR_INTERCEPT)
        assert len(folds) == 5
        np.testing.assert_array_equal(avg.question_weights, avg2.question_weights)

    def test_evaluate_factors_each_min_norm_design_once(self, svd_calls):
        # a wide cohort and a tall one
        for students in (12, 60):
            book = synthetic.generate_gradebook(
                synthetic.SyntheticSpec(seed=3, students=students, noise=4.0)
            )
            n, m = book.exams["final"].shape
            del svd_calls[:]
            rep = experiment.evaluate(
                book, "final", exclusions=(gb.INCLUDE_EXAM, gb.EXCLUDE_EXAM),
                approaches=MIN_NORM,
            )
            assert len(rep.records) == 8  # 2 approaches x 4 targets
            # the centered design is factored on a basis of the zero-sum vectors
            assert svd_calls == [(n, m + 1), (n - 1, m)]
        assert n > m


TALL_40x32 = dict(seed=3, noise=4.0, students=40, mc_questions=16, tf_questions=8,
                 analytical_questions=4, analytical_subparts=8)


def cohort(spec, cells=((gb.ACTUAL_SCALE, gb.INCLUDE_EXAM),)):
    """The design and one target column per (scale, exclusion) cell."""
    book = synthetic.generate_gradebook(synthetic.SyntheticSpec(**spec))
    targets = np.column_stack([gb.ability(book, "final", *cell) for cell in cells])
    return book.exams["final"], targets


@pytest.fixture
def nnls_calls(monkeypatch):
    """The keywords of every call of the NNLS entry, through a wrapper."""
    seen = []
    original = solvers.FITTERS[solvers.NNLS]

    @functools.wraps(original)
    def recording(s, a, cfg=solvers.DEFAULT_CONFIG, **kwargs):
        seen.append((len(a), kwargs))
        return original(s, a, cfg, **kwargs)

    monkeypatch.setitem(solvers.FITTERS, solvers.NNLS, recording)
    return seen


class TestWarmNnls:
    """Full-rank NNLS folds start from the full cohort's fit, and give the
    weights of a cold per-fold fit."""

    @pytest.mark.parametrize("spec", [TALL_40x32, dict(seed=3, noise=4.0, students=60)],
                             ids=["40x32", "60x53"])
    def test_folds_equal_cold_per_fold_fits(self, spec, nnls_calls):
        s, targets = cohort(spec, [(gb.ACTUAL_SCALE, gb.INCLUDE_EXAM),
                                   (gb.NORMALIZED_SCALE, gb.EXCLUDE_EXAM)])
        n = len(s)
        assert linalg.loo_full_column_rank(s).all()
        fits = experiment.loocv_fit(s, targets, solvers.NNLS)
        # per column: one full-cohort fit, then every fold with its start
        assert [size for size, _ in nnls_calls] == [n, *[n - 1] * n] * 2
        assert all("start" in kwargs for size, kwargs in nnls_calls if size == n - 1)
        for t, (folds, avg) in enumerate(fits):
            for k, got in enumerate(folds):
                cold = solvers.fit_nnls(np.delete(s, k, axis=0), np.delete(targets[:, t], k))
                np.testing.assert_array_equal(got.question_weights, cold.question_weights)
            np.testing.assert_array_equal(
                avg.question_weights, np.mean([f.question_weights for f in folds], axis=0)
            )

    @pytest.mark.parametrize("design", ["repeated_column", "paper_9x53"])
    def test_designs_without_a_certified_fold_get_no_start(self, design, nnls_calls):
        if design == "repeated_column":
            s, targets = cohort(TALL_40x32, [(gb.ACTUAL_SCALE, gb.INCLUDE_EXAM),
                                             (gb.NORMALIZED_SCALE, gb.INCLUDE_EXAM)])
            s = np.column_stack([s, s[:, 3]])
        else:
            s, targets = cohort(dict(seed=7), [(gb.ACTUAL_SCALE, gb.INCLUDE_EXAM),
                                               (gb.NORMALIZED_SCALE, gb.INCLUDE_EXAM)])
        n = len(s)
        assert not linalg.loo_full_column_rank(s).any()
        fits = experiment.loocv_fit(s, targets, solvers.NNLS)
        assert nnls_calls == [(n - 1, {})] * (2 * n)
        for t, (folds, _) in enumerate(fits):
            for k, got in enumerate(folds):
                cold = solvers.fit_nnls(np.delete(s, k, axis=0), np.delete(targets[:, t], k))
                np.testing.assert_array_equal(got.question_weights, cold.question_weights)

    def test_svd_budget_on_the_tall_bench_cohort(self, svd_calls):
        # at the parent every one of 862 passive solves was an SVD
        s, targets = cohort(TALL_40x32)
        experiment.loocv_fit(s, targets, solvers.NNLS)
        assert len(svd_calls) <= 130

    def test_a_failed_start_fit_leaves_the_folds_cold(self, monkeypatch, nnls_calls):
        s, targets = cohort(TALL_40x32)
        n = len(s)
        recording = solvers.FITTERS[solvers.NNLS]

        @functools.wraps(recording)
        def full_fit_fails(s, a, cfg=solvers.DEFAULT_CONFIG, **kwargs):
            if len(a) == n:
                raise ConvergenceError("no full fit")
            return recording(s, a, cfg, **kwargs)

        monkeypatch.setitem(solvers.FITTERS, solvers.NNLS, full_fit_fails)
        folds, _ = experiment.loocv_fit(s, targets[:, 0], solvers.NNLS)
        assert nnls_calls == [(n - 1, {})] * n
        cold = solvers.fit_nnls(s[1:], targets[1:, 0])
        np.testing.assert_array_equal(folds[0].question_weights, cold.question_weights)

    def test_a_fold_whose_start_passes_the_cap_is_fit_cold(self):
        # every cold fold takes at most 3 solves; from the start, fold 4 takes 4
        s = np.array([[0.343, -1.163, -0.187], [-0.339, -0.228, 0.597],
                      [-1.279, 0.967, -1.128], [-0.188, 0.887, 0.664],
                      [-0.691, 1.769, 0.366]])
        a = np.array([-2.863, 0.128, -2.493, 1.303, -4.025])
        cfg = SolverConfig(nnls_max_iterations=3)
        assert linalg.loo_full_column_rank(s).all()
        with pytest.raises(ConvergenceError, match="iteration cap"):
            solvers.fit_nnls(s[:4], a[:4], cfg, start=solvers.fit_nnls(s, a, cfg))
        folds, _ = experiment.loocv_fit(s, a, solvers.NNLS, cfg)
        for k, got in enumerate(folds):
            cold = solvers.fit_nnls(np.delete(s, k, axis=0), np.delete(a, k), cfg)
            np.testing.assert_array_equal(got.question_weights, cold.question_weights)

    def test_a_fitter_without_start_is_not_certified(self, monkeypatch, svd_calls):
        s, targets = cohort(TALL_40x32)
        seen = []

        def replacement(s, a, cfg):
            seen.append(len(a))
            return solvers.fit_nnls(s, a, cfg)

        monkeypatch.setitem(solvers.FITTERS, solvers.NNLS, replacement)
        experiment.loocv_fit(s, targets, solvers.NNLS)
        assert seen == [len(s) - 1] * len(s)
        assert (len(s), s.shape[1]) not in svd_calls


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

    def test_errors_name_the_failing_target_column(self, monkeypatch):
        # targets of one approach are fit together; the error still names
        # the (scale, exclusion) cell whose fold failed
        calls = []

        def fails_on_second_target(s, a, cfg):
            calls.append(1)
            if len(calls) > len(a) + 1:  # past the first target's folds
                raise ConvergenceError("boom")
            return solvers.fit_nnls(s, a, cfg)

        monkeypatch.setitem(solvers.FITTERS, "flaky", fails_on_second_target)
        with pytest.raises(ConvergenceError,
                           match=r"^flaky \(normalized, include_exam\): fold 0: boom$"):
            experiment.evaluate(tall_linear_book(), "final", approaches=("flaky",))

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
