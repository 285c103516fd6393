import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from examweight import gradebook as gb
from examweight.errors import DataError

# per-student course scores from one semester's published summary table
FINALS = (50.32, 59.89, 61.63, 66.50, 67.54, 67.92, 69.57, 83.16, 84.73)
NORMALIZED = (36.67, 43.65, 44.92, 48.46, 49.23, 49.50, 50.70, 60.61, 61.75)
MIDTERM_MEAN = 49.5


def single_exam_book(scores, points, components, kind=gb.MULTIPLE_CHOICE):
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    n, m = scores.shape
    qs = tuple(
        gb.Question(id=f"Q{j + 1}", kind=kind, max_points=float(points[j]))
        for j in range(m)
    )
    return gb.Gradebook(
        students=tuple(f"s{i}" for i in range(n)),
        exams={"final": scores},
        questions={"final": qs},
        components={k: np.asarray(v, dtype=float) for k, v in components.items()},
    )


Q1, Q2 = (gb.Question(id=q, kind=gb.MULTIPLE_CHOICE, max_points=1.0) for q in ("Q1", "Q2"))


def full_components(n, **overrides):
    comps = {name: np.full(n, 50.0) for name in gb.COMPONENTS}
    comps.update({k: np.asarray(v, dtype=float) for k, v in overrides.items()})
    return comps


class TestQuestion:
    def test_subpart_requires_parent(self):
        with pytest.raises(DataError, match="parent"):
            gb.Question(id="AE1a", kind=gb.ANALYTICAL_SUBPART, max_points=2.0)
        with pytest.raises(DataError, match="parent"):
            gb.Question(id="MC1", kind=gb.MULTIPLE_CHOICE, max_points=2.0, parent="X")

    def test_rejects_bad_kind_and_points(self):
        with pytest.raises(DataError, match="kind"):
            gb.Question(id="Q1", kind="essay", max_points=2.0)
        with pytest.raises(DataError, match="positive"):
            gb.Question(id="Q1", kind=gb.TRUE_FALSE, max_points=0.0)


class TestGradebookValidation:
    def test_rejects_out_of_range_scores(self):
        with pytest.raises(DataError, match=r"\[0, 1\]"):
            single_exam_book([[0.5, 1.2]], [1, 1], full_components(1))

    def test_rejects_out_of_range_components(self):
        with pytest.raises(DataError, match=r"\[0, 100\]"):
            single_exam_book([[0.5]], [1], full_components(1, homework=[101.0]))

    def test_rejects_shape_mismatch(self):
        q = gb.Question(id="Q1", kind=gb.MULTIPLE_CHOICE, max_points=1.0)
        with pytest.raises(DataError, match="expected"):
            gb.Gradebook(
                students=("s0",),
                exams={"final": np.array([[0.5, 0.5]])},
                questions={"final": (q,)},
                components=full_components(1),
            )
        with pytest.raises(DataError, match="values for"):
            single_exam_book([[0.5]], [1], full_components(1, midterm=[1.0, 2.0]))

    def test_rejects_duplicate_students(self):
        with pytest.raises(DataError, match="duplicate student"):
            gb.Gradebook(students=("a", "a"))

    @pytest.mark.parametrize("change, message", [
        ({"students": ()}, "gradebook has no students"),
        ({"questions": {}}, "exams and questions must cover the same exam ids"),
        ({"questions": {"final": (Q1, Q1)}}, "exam 'final': duplicate question ids"),
        ({"components": {"homework": [np.inf]}}, "component 'homework': values must be finite"),
    ])
    def test_rejection_messages(self, change, message):
        fields = dict(
            students=("s0",),
            exams={"final": np.array([[0.5, 0.5]])},
            questions={"final": (Q1, Q2)},
            components=full_components(1),
        )
        with pytest.raises(DataError) as err:
            gb.Gradebook(**{**fields, **change})
        assert str(err.value) == message

    def test_rejects_nan(self):
        with pytest.raises(DataError, match="finite"):
            single_exam_book([[np.nan]], [1], full_components(1))

    def test_actual_exam_totals(self):
        g = single_exam_book(
            [[1.0, 0.5], [0.0, 1.0]], [60, 40], full_components(2)
        )
        np.testing.assert_allclose(g.actual_exam_totals("final"), [80.0, 40.0])

    def test_unknown_exam(self):
        g = single_exam_book([[1.0]], [100], full_components(1))
        with pytest.raises(DataError, match="unknown exam"):
            g.question_points("midterm")


class TestComponentConsistency:
    def book(self, final_component):
        return single_exam_book(
            [[1.0, 0.5]], [60, 40], full_components(1, final=final_component)
        )

    def test_passes_within_tolerance(self):
        self.book([80.005]).check_component_consistency()

    def test_fails_beyond_tolerance(self):
        with pytest.raises(DataError, match="student 's0'"):
            self.book([80.5]).check_component_consistency()

    def test_skips_exams_without_component(self):
        g = single_exam_book([[1.0]], [100], full_components(1, final=[100.0]))
        g.exams["quiz"] = g.exams["final"]
        g.questions["quiz"] = g.questions["final"]
        g.check_component_consistency()  # no 'quiz' component: nothing to check


class TestOverallScore:
    def test_equal_mean_of_four(self):
        g = single_exam_book(
            [[1.0]],
            [100],
            {"homework": [60.0], "midterm": [49.5], "project": [70.0], "final": [64.0]},
        )
        assert gb.overall_score(g)[0] == pytest.approx(60.875)

    def test_exclusion_drops_the_exam_component(self):
        g = single_exam_book(
            [[1.0]],
            [100],
            {"homework": [60.0], "midterm": [49.5], "project": [70.0], "final": [64.0]},
        )
        out = gb.overall_score(g, gb.EXCLUDE_EXAM, "final")
        assert out[0] == pytest.approx((60.0 + 49.5 + 70.0) / 3)

    def test_missing_component(self):
        g = single_exam_book([[1.0]], [100], {"homework": [60.0]})
        with pytest.raises(DataError, match="missing component"):
            gb.overall_score(g)

    def test_exclude_requires_component_exam(self):
        g = single_exam_book([[1.0]], [100], full_components(1))
        with pytest.raises(DataError, match="cannot exclude"):
            gb.overall_score(g, gb.EXCLUDE_EXAM, "quiz3")

    def test_bad_exclusion_mode(self):
        g = single_exam_book([[1.0]], [100], full_components(1))
        with pytest.raises(ValueError):
            gb.overall_score(g, "sometimes")


class TestNormalizeAbility:
    def test_published_cohort_roundtrip(self):
        """Overall scores rescale onto the midterm scale within a cent."""
        overall = np.array(FINALS)
        got = gb.normalize_ability(overall, MIDTERM_MEAN, float(overall.mean()))
        np.testing.assert_allclose(got, NORMALIZED, atol=0.01)
        assert got.mean() == pytest.approx(MIDTERM_MEAN, abs=1e-9)

    def test_identity_when_means_agree(self):
        overall = np.array([10.0, 20.0, 30.0])
        np.testing.assert_array_equal(
            gb.normalize_ability(overall, 20.0, 20.0), overall
        )

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(DataError, match="positive"):
            gb.normalize_ability(np.ones(3), 50.0, 0.0)

    @given(st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_preserves_ranking(self, seed):
        rng = np.random.default_rng(seed)
        overall = rng.random(8) * 90 + 5
        exam_mean = rng.random() * 90 + 5
        out = gb.normalize_ability(overall, exam_mean, float(overall.mean()))
        assert np.array_equal(np.argsort(out), np.argsort(overall))
        assert out.mean() == pytest.approx(exam_mean, rel=1e-12)


class TestAbility:
    def book(self):
        return single_exam_book(
            [[1.0], [0.5]],
            [100],
            {
                "homework": [80.0, 40.0],
                "midterm": [60.0, 40.0],
                "project": [90.0, 50.0],
                "final": [100.0, 50.0],
            },
        )

    def test_actual_mode_is_overall(self):
        av = gb.ability(self.book(), "final")
        np.testing.assert_allclose(av, [82.5, 45.0])

    def test_normalized_mode_rescales_to_exam_mean(self):
        av = gb.ability(self.book(), "final", gb.NORMALIZED_SCALE)
        # exam actual-total mean 75, overall mean 63.75
        np.testing.assert_allclose(av, np.array([82.5, 45.0]) * 75 / 63.75)
        assert av.mean() == pytest.approx(75.0)

    def test_exclusion_mode_flows_through(self):
        av = gb.ability(self.book(), "final", gb.ACTUAL_SCALE, gb.EXCLUDE_EXAM)
        np.testing.assert_allclose(
            av, [(80 + 60 + 90) / 3, (40 + 40 + 50) / 3]
        )

    def test_unknown_exam(self):
        with pytest.raises(DataError, match="unknown exam"):
            gb.ability(self.book(), "quiz")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            gb.ability(self.book(), "final", "log")
