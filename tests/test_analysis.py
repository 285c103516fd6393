import itertools

import numpy as np
import pytest

from examweight import analysis, experiment, gradebook as gb, solvers
from examweight.errors import DataError


def make_book(scores, components=None):
    scores = np.asarray(scores, dtype=float)
    n, m = scores.shape
    if components is None:
        points = np.full(m, 100.0 / m)
        totals = scores @ points
        components = {name: totals.copy() for name in gb.COMPONENTS}
    qs = tuple(
        gb.Question(id=f"Q{j + 1}", kind=gb.MULTIPLE_CHOICE, max_points=100.0 / m)
        for j in range(m)
    )
    return gb.Gradebook(
        students=tuple(f"s{i}" for i in range(n)),
        exams={"final": scores},
        questions={"final": qs},
        components=components,
    )


class TestExtremeQuestions:
    def report_with_weights(self, weights):
        # synthesize a minimal report carrying fixed averaged weights
        m = len(weights)
        sol = solvers.WeightSolution(
            question_weights=np.asarray(weights, dtype=float),
            intercept=0.0,
        )
        rec = experiment.ApproachRecord(
            approach=solvers.LINEAR_INTERCEPT,
            scale=gb.ACTUAL_SCALE,
            exclusion=gb.INCLUDE_EXAM,
            fold_weights=(sol,),
            averaged_weights=sol,
            predictions=np.zeros(1),
            target=np.zeros(1),
            mae=0.0,
        )
        return experiment.EvaluationReport(
            exam="final",
            question_ids=tuple(f"Q{j + 1}" for j in range(m)),
            records=(rec,),
        )

    def test_top_and_bottom(self):
        rep = self.report_with_weights([-1.3, 0.2, 2.4])
        top, bottom = analysis.extreme_questions(rep, solvers.LINEAR_INTERCEPT, k=1)
        assert top == [("Q3", 2.4)]
        assert bottom == [("Q1", -1.3)]

    def test_ties_break_by_question_id(self):
        rep = self.report_with_weights([5.0, 5.0, 1.0])
        top, _ = analysis.extreme_questions(rep, solvers.LINEAR_INTERCEPT, k=2)
        assert top == [("Q1", 5.0), ("Q2", 5.0)]

    def test_large_k_truncates(self):
        rep = self.report_with_weights([1.0, 2.0])
        top, bottom = analysis.extreme_questions(rep, solvers.LINEAR_INTERCEPT, k=10)
        assert len(top) == len(bottom) == 2

    def test_k_must_be_positive(self):
        rep = self.report_with_weights([1.0])
        with pytest.raises(ValueError):
            analysis.extreme_questions(rep, solvers.LINEAR_INTERCEPT, k=0)


class TestDistributionTable:
    def test_sorted_by_ability_ascending(self):
        g = make_book([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        av = gb.ability(g, "final")
        diag = analysis.distribution_table(g, "final", "Q1", av)
        abilities = [row[2] for row in diag.distribution]
        assert abilities == sorted(abilities)
        students = {row[0] for row in diag.distribution}
        assert students == {"s0", "s1", "s2"}

    def test_scores_keep_full_precision(self):
        g = make_book([[0.123456789, 1.0], [0.5, 0.0]])
        av = gb.ability(g, "final")
        diag = analysis.distribution_table(g, "final", "Q1", av)
        scores = {row[0]: row[1] for row in diag.distribution}
        assert scores["s0"] == 0.123456789

    def test_unknown_question(self):
        g = make_book([[1.0]])
        with pytest.raises(DataError, match="unknown question"):
            analysis.distribution_table(g, "final", "Q9", gb.ability(g, "final"))

    def test_flags_on_constant_columns(self):
        g = make_book([[1.0, 0.0], [1.0, 0.0]])
        av = gb.ability(g, "final")
        assert analysis.distribution_table(g, "final", "Q1", av).flags == (
            analysis.ALL_CORRECT,
        )
        assert analysis.distribution_table(g, "final", "Q2", av).flags == (
            analysis.ALL_ZERO,
        )


class TestDegenerateQuestions:
    def test_flags_constant_duplicate_and_top_only(self):
        # abilities: s0 strongest, then s1, s2, s3 (components drive ranking)
        scores = np.array(
            [
                # Q1 all-correct, Q2 all-zero, Q3 informative, Q4 dup of Q3,
                # Q5 answered only by the strongest student
                [1.0, 0.0, 1.0, 1.0, 1.0],
                [1.0, 0.0, 1.0, 1.0, 0.0],
                [1.0, 0.0, 0.5, 0.5, 0.0],
                [1.0, 0.0, 0.0, 0.0, 0.0],
            ]
        )
        comps = {
            name: np.array([90.0, 70.0, 50.0, 30.0]) for name in gb.COMPONENTS
        }
        g = make_book(scores, comps)
        diags = {d.question: d.flags for d in analysis.degenerate_questions(g, "final")}
        assert diags["Q1"] == (analysis.ALL_CORRECT,)
        assert diags["Q2"] == (analysis.ALL_ZERO,)
        assert "Q3" not in diags
        assert diags["Q4"] == ("duplicate_of:Q3",)
        assert diags["Q5"] == ("top_only:1",)

    def test_top_two_flag(self):
        scores = np.array([[1.0], [1.0], [0.0], [0.0]])
        comps = {name: np.array([90.0, 70.0, 50.0, 30.0]) for name in gb.COMPONENTS}
        g = make_book(scores, comps)
        (d,) = analysis.degenerate_questions(g, "final")
        assert "top_only:2" in d.flags

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_tied_abilities_flag_the_same_questions_in_any_row_order(self, order):
        # students A and B tie at the top (60.25) above C (37.5): no one
        # student is the strongest, but A and B are the two strongest
        scores = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        abilities = np.array([60.25, 60.25, 37.5])
        order = list(order)
        g = make_book(scores[order], {name: abilities[order] for name in gb.COMPONENTS})
        diags = {d.question: d.flags for d in analysis.degenerate_questions(g, "final")}
        assert diags == {"Q3": ("top_only:2",)}

    def test_duplicate_points_at_first_in_column_order(self):
        scores = np.tile([[1.0, 1.0, 1.0]], (3, 1))
        scores[0] = [0.5, 0.5, 0.5]
        g = make_book(scores)
        diags = {d.question: d.flags for d in analysis.degenerate_questions(g, "final")}
        assert diags["Q2"] == ("duplicate_of:Q1",)
        assert diags["Q3"] == ("duplicate_of:Q1",)

    def test_all_zero_column_gets_zero_weight_from_solvers(self):
        rng = np.random.default_rng(2)
        scores = rng.random((10, 4))
        scores[:, 2] = 0.0
        g = make_book(scores)
        rep = experiment.evaluate(
            g,
            "final",
            approaches=(solvers.OLS_CLOSED_FORM, solvers.LINEAR_INTERCEPT),
            scales=(gb.ACTUAL_SCALE,),
        )
        for rec in rep.records:
            assert abs(rec.averaged_weights.question_weights[2]) < 1e-8

