import numpy as np
import pytest

from examweight import gradebook as gb, synthetic


class TestBuildQuestions:
    def test_points_keep_ratio_and_sum_to_100(self):
        spec = synthetic.SyntheticSpec()
        qs = synthetic.build_questions(spec)
        points = {q.kind: q.max_points for q in qs if q.kind != gb.ANALYTICAL_SUBPART}
        assert points[gb.TRUE_FALSE] / points[gb.MULTIPLE_CHOICE] == pytest.approx(4 / 3)
        total = sum(q.max_points for q in qs)
        assert total == pytest.approx(100.0)

    def test_subparts_split_parent_points_evenly(self):
        spec = synthetic.SyntheticSpec(analytical_questions=2, analytical_subparts=5)
        qs = synthetic.build_questions(spec)
        subs = [q for q in qs if q.kind == gb.ANALYTICAL_SUBPART]
        assert [q.id for q in subs] == ["AE1a", "AE1b", "AE1c", "AE2a", "AE2b"]
        by_parent = {}
        for q in subs:
            by_parent.setdefault(q.parent, []).append(q.max_points)
        for pts in by_parent.values():
            assert len(set(pts)) == 1
        assert sum(sum(p) for p in by_parent.values()) == pytest.approx(
            2 * 10.0 * 100.0 / (30 * 3 + 15 * 4 + 2 * 10)
        )

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="at least 1"):
            synthetic.SyntheticSpec(students=0)
        with pytest.raises(ValueError, match="subpart"):
            synthetic.SyntheticSpec(analytical_questions=3, analytical_subparts=2)
        with pytest.raises(ValueError, match="difficulty"):
            synthetic.SyntheticSpec(difficulty_low=1.0, difficulty_high=-1.0)

    def test_subparts_per_question_end_at_z(self):
        ids = synthetic.build_questions(
            synthetic.SyntheticSpec(analytical_questions=2, analytical_subparts=52)
        )
        assert {"AE1z", "AE2z"} <= {q.id for q in ids}
        with pytest.raises(ValueError, match="at most 26 subparts"):
            synthetic.SyntheticSpec(analytical_questions=2, analytical_subparts=53)


class TestGenerateGradebook:
    def test_noiseless_components_equal_exam_totals(self):
        g = synthetic.generate_gradebook(synthetic.SyntheticSpec(seed=7, noise=0.0))
        totals = g.actual_exam_totals("final")
        for name in gb.COMPONENTS:
            np.testing.assert_allclose(g.components[name], totals, atol=1e-12)

    def test_noisy_cohort_passes_consistency_check(self):
        g = synthetic.generate_gradebook(synthetic.SyntheticSpec(seed=3, noise=8.0))
        g.check_component_consistency()
        others = [n for n in gb.COMPONENTS if n != "final"]
        totals = g.actual_exam_totals("final")
        assert any(
            np.max(np.abs(g.components[n] - totals)) > 0.5 for n in others
        )

    def test_seed_determinism(self):
        a = synthetic.generate_gradebook(synthetic.SyntheticSpec(seed=11))
        b = synthetic.generate_gradebook(synthetic.SyntheticSpec(seed=11))
        c = synthetic.generate_gradebook(synthetic.SyntheticSpec(seed=12))
        np.testing.assert_array_equal(a.exams["final"], b.exams["final"])
        assert not np.array_equal(a.exams["final"], c.exams["final"])

    def test_binary_kinds_and_quantized_subparts(self):
        g = synthetic.generate_gradebook(synthetic.SyntheticSpec(seed=5))
        ids = g.question_ids("final")
        s = g.exams["final"]
        for j, q in enumerate(g.questions["final"]):
            col = s[:, j]
            if q.kind == gb.ANALYTICAL_SUBPART:
                np.testing.assert_array_equal(col * 4, np.round(col * 4))
            else:
                assert set(np.unique(col)) <= {0.0, 1.0}, ids[j]

    def test_discrimination_zero_flattens_difficulty(self):
        # with no discrimination every question is a fair coin regardless of
        # ability, so average correctness hovers near one half
        spec = synthetic.SyntheticSpec(seed=2, students=60, discrimination=0.0)
        g = synthetic.generate_gradebook(spec)
        mc_cols = [
            j for j, q in enumerate(g.questions["final"])
            if q.kind == gb.MULTIPLE_CHOICE
        ]
        assert g.exams["final"][:, mc_cols].mean() == pytest.approx(0.5, abs=0.05)
