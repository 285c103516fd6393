import dataclasses
import functools
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from examweight import analysis, experiment, gradebook as gb, linalg, solvers, synthetic
from examweight.errors import ConvergenceError


def tall_linear_book(seed=3, n=12, m=4, homework_offset=0.0):
    """Cohort whose components are an exact linear function of the exam.

    With a nonzero homework_offset the overall mean is not the exam's, so
    the normalized target is not the actual one."""
    rng = np.random.default_rng(seed)
    scores = rng.random((n, m))
    points = np.arange(1.0, m + 1)
    points *= 100.0 / points.sum()
    totals = scores @ points
    comps = {name: totals.copy() for name in gb.COMPONENTS}
    comps["homework"] += homework_offset
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
        a = np.full((5, 1), 70.0)
        [(folds, avg)] = experiment.loocv_fit(s, a, solvers.OLS_CLOSED_FORM)
        assert len(folds) == 5
        for f in folds:
            np.testing.assert_allclose(f.question_weights, avg.question_weights)

    def test_average_of_two_folds(self):
        # leaving out either row of the identity leaves a single-point fit
        s = np.eye(2)
        a = np.array([[1.0], [1.0]])
        [(folds, avg)] = experiment.loocv_fit(s, a, solvers.OLS_CLOSED_FORM)
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
        [(folds, avg)] = experiment.loocv_fit(s, a[:, None], solvers.OLS_CLOSED_FORM)
        for k, f in enumerate(folds):
            keep = np.arange(9) != k
            oracle = np.linalg.pinv(np.column_stack([s[keep], np.ones(8)])) @ a[keep]
            np.testing.assert_allclose(f.question_weights, oracle[:3], atol=1e-8)
        np.testing.assert_allclose(avg.question_weights, w_true, atol=1e-8)

    def test_needs_two_students(self):
        with pytest.raises(ValueError, match="at least 2"):
            experiment.loocv_fit(np.eye(1), [[1.0]], solvers.OLS_CLOSED_FORM)
        for solver in solvers.FITTERS:
            with pytest.raises(ValueError, match="^leave-one-out needs at least 2 students$"):
                solvers.leave_one_out_fits(solver, np.eye(1), [[1.0]])

    @pytest.mark.parametrize("solver", list(solvers.FITTERS))
    @pytest.mark.parametrize("shape", [(6, 3), (6, 8)], ids=["tall", "wide"])
    def test_the_design_is_checked_before_any_fit(self, monkeypatch, solver, shape):
        calls = recording_entry(monkeypatch, solver)
        s = np.random.default_rng(0).random(shape)
        with pytest.raises(ValueError, match=r"^dimension mismatch: 6 score rows vs 5 targets$"):
            experiment.loocv_fit(s, np.ones((5, 1)), solver)
        with pytest.raises(ValueError, match=r"^dimension mismatch: 6 score rows vs 5 targets$"):
            solvers.leave_one_out_fits(solver, s, np.ones((5, 1)))
        s[2, 1] = np.nan
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            experiment.loocv_fit(s, np.ones((6, 1)), solver)
        with pytest.raises(ValueError, match="^expected a 2-D matrix, got ndim=1$"):
            experiment.loocv_fit(s[0], np.ones((6, 1)), solver)
        assert calls == []

    @pytest.mark.parametrize("solver", list(solvers.FITTERS))
    @pytest.mark.parametrize("shape", [(6, 3), (6, 8)], ids=["tall", "wide"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_the_targets_are_checked_before_any_fit(self, monkeypatch, solver, shape, bad):
        # the bad entry is in the second column, so no column is fit first
        fitted = [recording_entry(monkeypatch, name) for name in solvers.FITTERS]
        monkeypatch.setattr(linalg, "svd", lambda *args, **kwargs: pytest.fail("an SVD ran"))
        s = np.random.default_rng(0).random(shape)
        targets = np.ones((6, 2))
        targets[3, 1] = bad
        with pytest.raises(ValueError, match="^target entries must be finite$"):
            solvers.leave_one_out_fits(solver, s, targets)
        with pytest.raises(ValueError, match="^target entries must be finite$"):
            experiment.loocv_fit(s, targets, solver)
        assert fitted == [[]] * len(solvers.FITTERS)

    def test_unknown_solver_names_the_registered_ones(self):
        registered = ", ".join(solvers.FITTERS)
        with pytest.raises(ValueError, match=rf"^unknown solver 'foo'; registered: {registered}$"):
            experiment.loocv_fit(np.eye(3), np.ones((3, 1)), "foo")
        with pytest.raises(ValueError, match=rf"^unknown solver 'foo'; registered: {registered}$"):
            solvers.leave_one_out_fits("foo", np.eye(3), np.ones((3, 1)))
        with pytest.raises(ValueError, match="unknown solver 'foo'"):
            experiment.evaluate(tall_linear_book(), "final", approaches=("foo",))

    def test_fold_errors_name_the_fold(self, monkeypatch):
        # with a cap of 0 every fit fails at its first solve, warm or cold
        s = np.random.default_rng(1).random((6, 5)) + 1.0
        monkeypatch.setattr(solvers, "nnls_iteration_cap", lambda n_questions: 0)
        with pytest.raises(ConvergenceError, match="fold 0"):
            experiment.loocv_fit(s, np.ones((6, 1)), solvers.NNLS)

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
            experiment.loocv_fit(np.eye(3), np.ones((3, 1)), "failing")
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
        experiment.loocv_fit(s, np.arange(5.0)[:, None], solvers.OLS_CLOSED_FORM)
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
        experiment.loocv_fit(s, np.arange(5.0)[:, None], solvers.OLS_CLOSED_FORM)
        assert keywords == [{"leave_one_out": True}] and svd_calls == [(5, 9)]

        # one that cannot take the keyword fails instead of being skipped
        monkeypatch.setitem(solvers.FITTERS, solvers.OLS_CLOSED_FORM,
                            functools.wraps(original)(replacement))
        del seen[:]
        with pytest.raises(TypeError, match="leave_one_out"):
            experiment.loocv_fit(s, np.arange(5.0)[:, None], solvers.OLS_CLOSED_FORM)
        assert seen == []

    def test_vector_target_is_rejected(self):
        s = np.random.default_rng(2).random((5, 8))
        a = np.arange(5.0)
        with pytest.raises(ValueError, match=r"^targets must be an n-by-k matrix, got shape \(5,\)$"):
            experiment.loocv_fit(s, a, solvers.LINEAR_INTERCEPT)
        for solver in solvers.FITTERS:
            with pytest.raises(ValueError, match=r"^targets must be an n-by-k matrix, got shape \(5,\)$"):
                solvers.leave_one_out_fits(solver, s, a)
        [(folds, _)] = experiment.loocv_fit(s, a[:, None], solvers.LINEAR_INTERCEPT)
        assert len(folds) == 5

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


def recording_entry(monkeypatch, solver):
    """The target length and keywords of every call of a FITTERS entry,
    through a wrapper that reports the entry's signature."""
    seen = []
    original = solvers.FITTERS[solver]

    @functools.wraps(original)
    def recording(s, a, cfg=solvers.DEFAULT_CONFIG, **kwargs):
        seen.append((len(a), kwargs))
        return original(s, a, cfg, **kwargs)

    monkeypatch.setitem(solvers.FITTERS, solver, recording)
    return seen


def distinct_design():
    """A tall design, a noisy target a, a zero in a[0], and b = 1.5 a."""
    rng = np.random.default_rng(6)
    s = rng.random((8, 5))
    a = s @ (10 * rng.random(5)) + rng.standard_normal(8)
    a[0] = 0.0
    return s, a, 1.5 * a


class TestDistinctTargets:
    """Per-fold fits are made once per distinct target column, and every
    equal column gets that column's folds."""

    @pytest.mark.parametrize("solver", [solvers.HUBER, solvers.NNLS])
    def test_equal_columns_share_one_fold_loop(self, monkeypatch, solver):
        s, a, b = distinct_design()
        calls = recording_entry(monkeypatch, solver)
        alone, per_column = [], []
        for col in (a, b):
            del calls[:]
            alone.append(experiment.loocv_fit(s, col[:, None], solver)[0])
            per_column.append(len(calls))
        del calls[:]
        targets = np.column_stack([a, b, a, a])
        fits = experiment.loocv_fit(s, targets, solver)
        assert len(calls) == sum(per_column)
        for (folds, avg), (want, want_avg) in zip(fits, [alone[0], alone[1], alone[0], alone[0]]):
            for got, fold in zip(folds, want):
                assert got.question_weights.tobytes() == fold.question_weights.tobytes()
                assert got.intercept == fold.intercept
            assert avg.question_weights.tobytes() == want_avg.question_weights.tobytes()

    @pytest.mark.parametrize("solver", [solvers.HUBER, solvers.NNLS])
    def test_a_column_one_ulp_or_a_sign_of_zero_away_is_fit_on_its_own(self, monkeypatch,
                                                                        solver):
        s, a, _ = distinct_design()
        calls = recording_entry(monkeypatch, solver)
        experiment.loocv_fit(s, a[:, None], solver)
        one_loop = len(calls)
        ulp, negative_zero = a.copy(), a.copy()
        ulp[3] = np.nextafter(a[3], np.inf)
        negative_zero[0] = -0.0
        del calls[:]
        experiment.loocv_fit(s, np.column_stack([a, ulp, negative_zero]), solver)
        assert len(calls) == 3 * one_loop

    def test_a_leave_one_out_entry_gets_every_column(self, monkeypatch):
        s, a, b = distinct_design()
        targets = np.column_stack([a, a, b])
        original = solvers.FITTERS[solvers.OLS_CLOSED_FORM]
        shared, per_fold = [], []

        @functools.wraps(original)
        def declining(s, ys, cfg, leave_one_out=False):
            if leave_one_out:
                shared.append(ys)
                return None  # as the accuracy guard may
            per_fold.append(ys)
            return original(s, ys, cfg)

        monkeypatch.setitem(solvers.FITTERS, solvers.OLS_CLOSED_FORM, declining)
        fits = experiment.loocv_fit(s, targets, solvers.OLS_CLOSED_FORM)
        assert len(shared) == 1 and shared[0] is targets
        # the declined run falls back to one fold loop per distinct column
        assert len(per_fold) == 2 * len(s)
        assert fits[0][0] is fits[1][0]

    def test_a_fold_error_names_the_first_equal_column(self, monkeypatch):
        s, a, b = distinct_design()

        def fails_on_a(s, y, cfg):
            if np.array_equal(y, a[1:]):
                raise ConvergenceError("boom")
            return solvers.fit_nnls(s, y, cfg)

        monkeypatch.setitem(solvers.FITTERS, "flaky", fails_on_a)
        with pytest.raises(ConvergenceError, match="^fold 0: boom$") as info:
            experiment.loocv_fit(s, np.column_stack([b, a, a]), "flaky")
        assert info.value.column == 1

        # tall_linear_book's two targets are one: its error names the first cell
        calls = []

        def fails(s, y, cfg):
            calls.append(1)
            raise ConvergenceError("boom")

        monkeypatch.setitem(solvers.FITTERS, "flaky", fails)
        with pytest.raises(ConvergenceError,
                           match=r"^flaky \(actual, include_exam\): fold 0: boom$"):
            experiment.evaluate(tall_linear_book(), "final", approaches=("flaky",))
        assert calls == [1]


TALL_40x32 = dict(seed=3, noise=4.0, students=40, mc_questions=16, tf_questions=8,
                 analytical_questions=4, analytical_subparts=8)


def cohort(spec, cells=((gb.ACTUAL_SCALE, gb.INCLUDE_EXAM),)):
    """The design and one target column per (scale, exclusion) cell."""
    book = synthetic.generate_gradebook(synthetic.SyntheticSpec(**spec))
    targets = np.column_stack([gb.ability(book, "final", *cell) for cell in cells])
    return book.exams["final"], targets


@pytest.fixture
def nnls_calls(monkeypatch):
    return recording_entry(monkeypatch, solvers.NNLS)


def recording_fits(monkeypatch):
    """The target length, keywords and return value of every NNLS entry call
    that returns."""
    seen = []
    original = solvers.FITTERS[solvers.NNLS]

    @functools.wraps(original)
    def recording(s, a, cfg=solvers.DEFAULT_CONFIG, **kwargs):
        sol = original(s, a, cfg, **kwargs)
        seen.append((len(a), kwargs, sol))
        return sol

    monkeypatch.setitem(solvers.FITTERS, solvers.NNLS, recording)
    return seen


@st.composite
def tall_nnls_problem(draw):
    """A tall design (m <= 12 questions, m + 1 to 3m students) and a target:
    scores in [0, 1) or Gaussian, optionally with a near-collinear column
    pair (differing by up to 1e-4, 1e-5 or 1e-6) or a repeated row; the
    target is noisy, nearly a sparse nonnegative combination, or <= 0 on
    scores, whose support is then empty.

    At gaps of 1e-5 and 1e-6 (condition numbers near 1e6 and up) a cold fit
    can stop within NNLS_TOLERANCE of a point off the unique optimum, where
    a warm one reaches the optimum itself; no such fold passes the Gram
    test that certifies a warm one."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(m + 1, 3 * m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["noisy", "sparse", "nonpositive"]))
    gaussian = kind != "nonpositive" and draw(st.booleans())
    s = rng.standard_normal((n, m)) if gaussian else rng.random((n, m))
    if m >= 2 and draw(st.booleans()):
        s[:, 1] = s[:, 0] + draw(st.sampled_from([1e-4, 1e-5, 1e-6])) * rng.random(n)
    if draw(st.booleans()):
        s[-1] = s[0]
    if kind == "noisy":
        a = s @ rng.standard_normal(m) + rng.standard_normal(n)
    elif kind == "sparse":
        w = 10 * rng.random(m) * (rng.random(m) < 0.3)
        a = s @ w + 0.01 * rng.standard_normal(n)
    else:
        a = -rng.random(n) * draw(st.sampled_from([0.0, 1.0]))
    return s, a


class TestWarmNnls:
    """When a fold passes the Gram test, the full cohort's NNLS fit and
    each such fold start at their least-squares support, and give the
    weights of a cold fit."""

    @pytest.mark.parametrize("spec", [TALL_40x32, dict(seed=3, noise=4.0, students=60)],
                             ids=["40x32", "60x53"])
    def test_folds_equal_cold_per_fold_fits(self, spec, nnls_calls):
        s, targets = cohort(spec, [(gb.ACTUAL_SCALE, gb.INCLUDE_EXAM),
                                   (gb.NORMALIZED_SCALE, gb.EXCLUDE_EXAM)])
        n = len(s)
        assert linalg.loo_full_column_rank(s).all()
        fits = experiment.loocv_fit(s, targets, solvers.NNLS)
        # per column: one full-cohort fit, then every fold, each with its start
        assert [size for size, _ in nnls_calls] == [n, *[n - 1] * n] * 2
        assert all("start" in kwargs for _, kwargs in nnls_calls)
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
        # both targets are one on the noiseless seed-7 cohort: one fold loop
        assert nnls_calls == [(n - 1, {})] * (n if design == "paper_9x53" else 2 * n)
        for t, (folds, _) in enumerate(fits):
            for k, got in enumerate(folds):
                cold = solvers.fit_nnls(np.delete(s, k, axis=0), np.delete(targets[:, t], k))
                np.testing.assert_array_equal(got.question_weights, cold.question_weights)

    def test_svd_budget_on_the_tall_bench_cohort(self, svd_calls):
        # every one of 862 passive solves was once an SVD; the warm start
        # cut them to 98, the least-squares starts to 57, and the Gram route
        # makes none an SVD: the one SVD left is the folds' downdate on the
        # full fit's support, as the certificate inverts the Gram matrix
        s, targets = cohort(TALL_40x32)
        experiment.loocv_fit(s, targets, solvers.NNLS)
        support = solvers.fit_nnls(s, targets[:, 0]).question_weights > 0
        assert svd_calls == [(len(s), support.sum())]

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
        [(folds, _)] = experiment.loocv_fit(s, targets[:, :1], solvers.NNLS)
        assert nnls_calls == [(n - 1, {})] * n
        cold = solvers.fit_nnls(s[1:], targets[1:, 0])
        np.testing.assert_array_equal(folds[0].question_weights, cold.question_weights)

    def test_a_fold_whose_start_passes_the_cap_is_fit_cold(self, monkeypatch):
        # every cold fold takes at most 3 solves; from the start, fold 4 takes 4
        s = np.array([[0.343, -1.163, -0.187], [-0.339, -0.228, 0.597],
                      [-1.279, 0.967, -1.128], [-0.188, 0.887, 0.664],
                      [-0.691, 1.769, 0.366]])
        a = np.array([-2.863, 0.128, -2.493, 1.303, -4.025])
        monkeypatch.setattr(solvers, "nnls_iteration_cap", lambda n_questions: 3)
        assert linalg.loo_full_column_rank(s).all()
        with pytest.raises(ConvergenceError, match="iteration cap"):
            solvers.fit_nnls(s[:4], a[:4], start=solvers.fit_nnls(s, a).question_weights)
        [(folds, _)] = experiment.loocv_fit(s, a[:, None], solvers.NNLS)
        for k, got in enumerate(folds):
            cold = solvers.fit_nnls(np.delete(s, k, axis=0), np.delete(a, k))
            np.testing.assert_array_equal(got.question_weights, cold.question_weights)

    def test_a_fold_that_loses_rank_is_fit_cold(self, nnls_calls):
        # rows 0 and 2 are equal, so fold 1 has rank 1 and its optimum is
        # not unique: started from the full fit's weights it lands on
        # (0.94, 0.76), cold on (1.55, 0)
        s = np.random.default_rng(1304090).standard_normal((3, 2))
        s[2] = s[0]
        a = np.array([-4.0, 1.0, 1.0])
        assert linalg.loo_full_column_rank(s).tolist() == [True, False, True]
        [(folds, _)] = experiment.loocv_fit(s, a[:, None], solvers.NNLS)
        assert [("start" in kwargs) for size, kwargs in nnls_calls if size == 2] == [
            True, False, True]
        for k, got in enumerate(folds):
            cold = solvers.fit_nnls(np.delete(s, k, axis=0), np.delete(a, k))
            np.testing.assert_array_equal(got.question_weights, cold.question_weights)

    def test_an_ill_conditioned_fold_is_fit_cold(self):
        # columns 0 and 1 differ by under 1e-6, and without row 2 the fold's
        # condition number is 5e9.  An SVD rank test certified that fold:
        # from its start it reached the optimum (0.0035, 0), while the cold
        # fit stops at (0, 0.0035), whose gradient on column 0 (6.5e-12) is
        # already within NNLS_TOLERANCE.  Its Gram matrix fails the Gram test.
        rng = np.random.default_rng(10806)
        s = rng.standard_normal((3, 2))
        s[:, 1] = s[:, 0] + 1e-6 * rng.random(3)
        a = s @ (10 * rng.random(2) * (rng.random(2) < 0.3)) + 0.01 * rng.standard_normal(3)
        [(folds, _)] = experiment.loocv_fit(s, a[:, None], solvers.NNLS)
        for k, got in enumerate(folds):
            cold = solvers.fit_nnls(np.delete(s, k, axis=0), np.delete(a, k))
            np.testing.assert_array_equal(got.question_weights, cold.question_weights)
        assert not linalg.loo_full_column_rank(s)[2]

    @given(tall_nnls_problem())
    @settings(max_examples=150, deadline=None)
    def test_warm_fits_equal_cold_fits(self, problem):
        s, a = problem
        n = len(a)
        warm = linalg.loo_full_column_rank(s)
        assume(warm.any())
        with pytest.MonkeyPatch.context() as patch:
            calls = recording_fits(patch)
            [(folds, _)] = experiment.loocv_fit(s, a[:, None], solvers.NNLS)
        [full] = [sol for size, _, sol in calls if size == n]
        cold = solvers.fit_nnls(s, a)
        np.testing.assert_array_equal(full.question_weights, cold.question_weights)
        # the certified folds start, unless the support is empty or its
        # downdate declines
        support = cold.question_weights > 0
        started = support.any() and linalg.loo_min_norm(s[:, support], a[:, None]) is not None
        assert [("start" in kwargs) for size, kwargs, _ in calls if size == n - 1] == [
            bool(w and started) for w in warm]
        for k, got in enumerate(folds):
            cold = solvers.fit_nnls(np.delete(s, k, axis=0), np.delete(a, k))
            np.testing.assert_array_equal(got.question_weights, cold.question_weights)

    def test_a_declined_downdate_leaves_the_folds_cold(self, monkeypatch):
        s, targets = cohort(TALL_40x32)
        n = len(s)
        monkeypatch.setattr(linalg, "loo_min_norm", lambda a, ys, centered=False: None)
        calls = recording_fits(monkeypatch)
        [(folds, _)] = experiment.loocv_fit(s, targets, solvers.NNLS)
        assert [("start" in kwargs) for size, kwargs, _ in calls] == [True] + [False] * n
        for k, got in enumerate(folds):
            cold = solvers.fit_nnls(np.delete(s, k, axis=0), np.delete(targets[:, 0], k))
            np.testing.assert_array_equal(got.question_weights, cold.question_weights)

    def test_a_full_fit_whose_start_passes_the_cap_is_fit_cold(self, monkeypatch, nnls_calls):
        # the cold full fit and every cold fold take 1 solve; from its
        # least-squares start the full fit takes 2
        s = np.array([[-0.005, -0.532, -2.277], [0.019, 0.927, 1.043],
                      [-0.536, 2.229, 1.944], [-0.228, -0.155, 0.959],
                      [-0.255, 0.225, 1.22]])
        a = np.array([2.379, -1.06, -0.911, -1.098, -0.028])
        monkeypatch.setattr(solvers, "nnls_iteration_cap", lambda n_questions: 1)
        assert linalg.loo_full_column_rank(s).all()
        with pytest.raises(ConvergenceError, match="iteration cap"):
            solvers.fit_nnls(s, a, start=np.linalg.lstsq(s, a)[0])
        [(folds, _)] = experiment.loocv_fit(s, a[:, None], solvers.NNLS)
        assert [("start" in kwargs) for size, kwargs in nnls_calls if size == len(a)] == [
            True, False]
        for k, got in enumerate(folds):
            cold = solvers.fit_nnls(np.delete(s, k, axis=0), np.delete(a, k))
            np.testing.assert_array_equal(got.question_weights, cold.question_weights)

    @pytest.mark.parametrize("spec", [TALL_40x32, dict(seed=3, noise=4.0, students=60)],
                             ids=["40x32", "60x53"])
    def test_averaged_weights_do_not_depend_on_order(self, spec):
        s, targets = cohort(spec)
        [(_, want)] = experiment.loocv_fit(s, targets, solvers.NNLS)
        w = want.question_weights
        rng = np.random.default_rng(23)
        for _ in range(10):
            rows, cols = rng.permutation(s.shape[0]), rng.permutation(s.shape[1])
            [(_, got)] = experiment.loocv_fit(s[rows][:, cols], targets[rows], solvers.NNLS)
            moved = np.empty_like(w)
            moved[cols] = got.question_weights
            assert np.abs(moved - w).max() <= 1e-10 * np.abs(w).max()

    def test_a_fitter_without_start_is_not_certified(self, monkeypatch):
        s, targets = cohort(TALL_40x32)
        seen, certified = [], []

        def replacement(s, a, cfg):
            seen.append(len(a))
            return solvers.fit_nnls(s, a, cfg)

        monkeypatch.setitem(solvers.FITTERS, solvers.NNLS, replacement)
        monkeypatch.setattr(linalg, "loo_full_column_rank", lambda a: certified.append(a))
        experiment.loocv_fit(s, targets, solvers.NNLS)
        assert seen == [len(s) - 1] * len(s)
        assert certified == []


EVERY_CELL = [(scale, exclusion) for exclusion in (gb.INCLUDE_EXAM, gb.EXCLUDE_EXAM)
              for scale in (gb.ACTUAL_SCALE, gb.NORMALIZED_SCALE)]


class TestGramNnls:
    """NNLS's passive solves come from the Gram matrix on wide and tall
    designs alike; its folds are those of the SVD solves to 1e-10."""

    @pytest.mark.parametrize("spec", [
        dict(seed=7),
        dict(seed=3, students=20, noise=4.0),
        dict(seed=3, students=30, noise=4.0),
        dict(seed=3, students=45, noise=4.0),
        dict(seed=3, students=60, noise=4.0),
    ], ids=["seed7", "20x53", "30x53", "45x53", "60x53"])
    def test_folds_match_the_svd_path(self, monkeypatch, spec):
        s, targets = cohort(spec, EVERY_CELL)
        fits = experiment.loocv_fit(s, targets, solvers.NNLS)
        solve = linalg.solve_min_norm
        monkeypatch.setattr(linalg, "solve_min_norm", lambda a, y, gram=None: solve(a, y))
        svd_fits = experiment.loocv_fit(s, targets, solvers.NNLS)
        for (folds, _), (svd_folds, _) in zip(fits, svd_fits):
            for got, want in zip(folds, svd_folds):
                w = want.question_weights
                assert np.linalg.norm(got.question_weights - w) <= 1e-10 * np.linalg.norm(w)
                np.testing.assert_array_equal(got.question_weights > 0, w > 0)
                assert got.iterations == want.iterations

    def test_the_seed7_folds_solve_from_the_gram_matrix(self, monkeypatch, svd_calls):
        # wide (9x53): every passive solve gets its Gram block, and none
        # falls back to an SVD
        s, targets = cohort(dict(seed=7), EVERY_CELL)
        grams = []
        solve = linalg.solve_min_norm

        def recording(a, y, gram=None):
            grams.append(gram)
            return solve(a, y, gram)

        monkeypatch.setattr(linalg, "solve_min_norm", recording)
        experiment.loocv_fit(s, targets, solvers.NNLS)
        assert len(grams) > 0 and all(gram is not None for gram in grams)
        assert svd_calls == []


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

    def test_cell_errors_name_the_cell_and_fold(self, monkeypatch):
        monkeypatch.setattr(solvers, "nnls_iteration_cap", lambda n_questions: 0)
        with pytest.raises(ConvergenceError, match=r"nnls \(actual, include_exam\): fold 0"):
            experiment.evaluate(
                tall_linear_book(), "final",
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
            experiment.evaluate(tall_linear_book(homework_offset=10.0), "final",
                                approaches=("flaky",))

    def test_a_nan_gradient_norm_counts_as_far_from_stationary(self, monkeypatch):
        def nan_gradient(s, a, cfg):
            return solvers.WeightSolution(
                question_weights=np.zeros(s.shape[1]), intercept=0.0,
                gradient_norm=np.nan, stop_reason=solvers.STOP_STALLED,
            )

        monkeypatch.setitem(solvers.FITTERS, "nan-gradient", nan_gradient)
        with pytest.raises(ConvergenceError, match="far from stationarity"):
            experiment.evaluate(tall_linear_book(), "final", approaches=("nan-gradient",))

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
    """The include/exclude comparison: one evaluate report holding both
    exclusions, read by analysis.weight_deltas."""

    @staticmethod
    def compare(g):
        return experiment.evaluate(
            g, "final", scales=(gb.ACTUAL_SCALE,),
            exclusions=(gb.INCLUDE_EXAM, gb.EXCLUDE_EXAM),
        )

    def test_degenerate_when_exam_equals_other_components(self):
        # all four components identical: include vs exclude gives the same
        # target, so every weight delta is exactly machine-level zero
        report = self.compare(tall_linear_book())
        for approach in experiment.APPROACHES:
            include = report.get(approach, gb.ACTUAL_SCALE, gb.INCLUDE_EXAM)
            exclude = report.get(approach, gb.ACTUAL_SCALE, gb.EXCLUDE_EXAM)
            assert include.mae == pytest.approx(exclude.mae, abs=1e-9)
            for _, d in analysis.weight_deltas(report, approach, gb.ACTUAL_SCALE):
                assert abs(d) < 1e-9

    def test_one_report_holds_both_exclusions_include_first(self):
        report = self.compare(tall_linear_book())
        n = len(experiment.APPROACHES)
        assert [r.exclusion for r in report.records] == (
            [gb.INCLUDE_EXAM] * n + [gb.EXCLUDE_EXAM] * n
        )
        assert [r.approach for r in report.records] == list(experiment.APPROACHES) * 2
        for rec in report.records[:n]:
            assert rec.mae == report.get(rec.approach, rec.scale).mae

    def test_deltas_sorted_by_magnitude(self):
        g = tall_linear_book()
        # perturb one non-exam component so the two targets differ
        g.components["homework"] = np.clip(
            g.components["homework"] + np.linspace(-5, 5, len(g.students)), 0, 100
        )
        report = self.compare(g)
        for approach in experiment.APPROACHES:
            include = report.get(approach, gb.ACTUAL_SCALE, gb.INCLUDE_EXAM)
            exclude = report.get(approach, gb.ACTUAL_SCALE, gb.EXCLUDE_EXAM)
            expected = dict(zip(
                report.question_ids,
                include.averaged_weights.question_weights
                - exclude.averaged_weights.question_weights,
            ))
            deltas = analysis.weight_deltas(report, approach, gb.ACTUAL_SCALE)
            mags = [abs(d) for _, d in deltas]
            assert mags == sorted(mags, reverse=True)
            # every question once, with its include-minus-exclude delta
            assert len(deltas) == len(report.question_ids)
            assert dict(deltas) == expected

    def test_ties_break_by_question_id(self):
        # the baselines' weights do not depend on the target, so every delta
        # is 0 and the order is the question ids'
        g = tall_linear_book(m=4)
        g.questions["final"] = tuple(
            dataclasses.replace(q, id=qid)
            for q, qid in zip(g.questions["final"], ["Q3", "Q10", "Q1", "Q2"])
        )
        g.components["homework"] += np.linspace(-5, 5, len(g.students))
        report = self.compare(g)
        for approach in (solvers.UNIFORM, solvers.ACTUAL):
            deltas = analysis.weight_deltas(report, approach, gb.ACTUAL_SCALE)
            assert deltas == [("Q1", 0.0), ("Q10", 0.0), ("Q2", 0.0), ("Q3", 0.0)]

    @pytest.mark.parametrize("exclusion, missing", [
        (gb.INCLUDE_EXAM, gb.EXCLUDE_EXAM), (gb.EXCLUDE_EXAM, gb.INCLUDE_EXAM),
    ])
    def test_one_exclusion_is_not_enough(self, exclusion, missing):
        report = experiment.evaluate(
            tall_linear_book(), "final", scales=(gb.ACTUAL_SCALE,),
            exclusions=(exclusion,), approaches=(solvers.NNLS,),
        )
        with pytest.raises(KeyError, match=re.escape(f"(nnls, actual, {missing})")):
            analysis.weight_deltas(report, solvers.NNLS, gb.ACTUAL_SCALE)
