"""Evaluation protocol: leave-one-out cross-validation with weight averaging,
MAE scoring of every approach on both target scales, and the include/exclude
comparison for the overall score.

MAE is computed in-sample on all students using the LOOCV-averaged weights;
the uniform/actual baselines bypass LOOCV since their weights are constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gradebook as gb
from . import solvers
from .errors import ConvergenceError, DataError, with_context
from .solvers import SolverConfig, WeightSolution

APPROACHES = (
    solvers.UNIFORM,
    solvers.ACTUAL,
    solvers.LINEAR_INTERCEPT,
    solvers.HUBER,
    solvers.OLS_CLOSED_FORM,
    solvers.NNLS,
)

# An unconverged Huber fold is tolerated when its iterate is this close to
# stationary; anything worse aborts the evaluation.
_FOLD_GRADIENT_CEILING = 1e-4


# (fold solutions in student order, their coordinate-wise mean)
Fit = tuple[list[WeightSolution], WeightSolution]


def loocv_fit(
    s,
    targets,
    solver: str,
    cfg: SolverConfig = solvers.DEFAULT_CONFIG,
) -> list[Fit]:
    """n fits, fold k trained on all students except k, then averaged.

    targets is an n-by-k matrix with one target per column, and s the n-row
    design.  Returns a list of k pairs (fold solutions in student order,
    coordinate-wise mean solution), one per column.  The folds come from
    solvers.leave_one_out_fits, which checks the arguments and states how
    each solver's folds are fit and how a fold's error is raised.
    """
    columns = solvers.leave_one_out_fits(solver, s, targets, cfg)
    return [(folds, _average(folds)) for folds in columns]


def _average(folds: list[WeightSolution]) -> WeightSolution:
    """The folds' mean weights and intercept; which folds did not converge
    is ApproachRecord.unconverged_folds."""
    return WeightSolution(
        question_weights=np.mean([f.question_weights for f in folds], axis=0),
        intercept=float(np.mean([f.intercept for f in folds])),
    )


@dataclass(frozen=True)
class ApproachRecord:
    """One cell of the comparison: an approach evaluated on one target."""

    approach: str
    scale: str  # actual | normalized
    exclusion: str  # include_exam | exclude_exam
    fold_weights: tuple[WeightSolution, ...]
    averaged_weights: WeightSolution
    predictions: np.ndarray
    target: np.ndarray
    mae: float
    unconverged_folds: tuple[int, ...] = ()


@dataclass(frozen=True)
class EvaluationReport:
    exam: str
    question_ids: tuple[str, ...]
    records: tuple[ApproachRecord, ...]

    def get(self, approach: str, scale: str, exclusion: str = gb.INCLUDE_EXAM) -> ApproachRecord:
        for rec in self.records:
            if (rec.approach, rec.scale, rec.exclusion) == (approach, scale, exclusion):
                return rec
        raise KeyError(f"no record for ({approach}, {scale}, {exclusion})")


def _solve_approach(s, targets, approach, cfg, points) -> list[Fit]:
    """One Fit per target column."""
    n, k = targets.shape
    if approach == solvers.UNIFORM:
        sol = solvers.baseline_uniform(s.shape[1])
        return [([sol] * n, sol)] * k
    if approach == solvers.ACTUAL:
        sol = solvers.baseline_actual(points)
        return [([sol] * n, sol)] * k
    return loocv_fit(s, targets, approach, cfg)


def evaluate(
    g: gb.Gradebook,
    exam: str,
    cfg: SolverConfig = solvers.DEFAULT_CONFIG,
    scales: tuple[str, ...] = (gb.ACTUAL_SCALE, gb.NORMALIZED_SCALE),
    exclusions: tuple[str, ...] = (gb.INCLUDE_EXAM,),
    approaches: tuple[str, ...] = APPROACHES,
) -> EvaluationReport:
    """Mean-absolute-error comparison of all approaches on the chosen exam.

    Each approach is fit to every (scale, exclusion) target in one
    loocv_fit call, so the minimum-norm solvers factor the design once and
    the others fit equal targets once.
    """
    points = g.question_points(exam)  # raises DataError for an unknown exam
    s = g.exams[exam]
    cells = [(scale, exclusion) for exclusion in exclusions for scale in scales]
    targets = np.column_stack(
        [gb.ability(g, exam, scale, exclusion) for scale, exclusion in cells]
    )
    records = [[] for _ in cells]
    for approach in approaches:
        try:
            fits = _solve_approach(s, targets, approach, cfg, points)
        except (ConvergenceError, DataError) as exc:
            column = getattr(exc, "column", None)
            where = approach if column is None else f"{approach} ({', '.join(cells[column])})"
            raise with_context(exc, where) from exc
        for t, (scale, exclusion) in enumerate(cells):
            folds, averaged = fits[t]
            unconverged = tuple(k for k, f in enumerate(folds) if not f.converged)
            bad = [
                k for k in unconverged
                if folds[k].gradient_norm is None
                or not folds[k].gradient_norm < _FOLD_GRADIENT_CEILING
            ]
            if bad:
                raise ConvergenceError(
                    f"{approach} ({scale}, {exclusion}): folds {bad} ended far from stationarity"
                )
            target = targets[:, t]
            preds = solvers.predict(averaged, s)
            records[t].append(ApproachRecord(
                approach=approach,
                scale=scale,
                exclusion=exclusion,
                fold_weights=tuple(folds),
                averaged_weights=averaged,
                predictions=preds,
                target=target,
                mae=float(np.mean(np.abs(preds - target))),
                unconverged_folds=unconverged,
            ))
    return EvaluationReport(
        exam=exam,
        question_ids=g.question_ids(exam),
        records=tuple(rec for column in records for rec in column),
    )


@dataclass(frozen=True)
class ExclusionDelta:
    """Per-approach weight movement between include- and exclude-exam targets."""

    approach: str
    scale: str
    mae_include: float
    mae_exclude: float
    # (question id, weight_include - weight_exclude), sorted by |delta| descending
    weight_deltas: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class ExclusionComparison:
    # both exclusions' records, the include-exam ones first
    report: EvaluationReport
    deltas: tuple[ExclusionDelta, ...]


def exclusion_comparison(
    g: gb.Gradebook,
    exam: str,
    cfg: SolverConfig = solvers.DEFAULT_CONFIG,
    scales: tuple[str, ...] = (gb.ACTUAL_SCALE, gb.NORMALIZED_SCALE),
) -> ExclusionComparison:
    """Side-by-side MAE and per-question weight deltas for the two overall
    score computations (exam component included vs excluded)."""
    report = evaluate(g, exam, cfg, scales, (gb.INCLUDE_EXAM, gb.EXCLUDE_EXAM))
    deltas = []
    for scale in scales:
        for approach in APPROACHES:
            ri = report.get(approach, scale, gb.INCLUDE_EXAM)
            re = report.get(approach, scale, gb.EXCLUDE_EXAM)
            dw = ri.averaged_weights.question_weights - re.averaged_weights.question_weights
            pairs = sorted(
                zip(report.question_ids, dw),
                key=lambda p: (-abs(p[1]), p[0]),
            )
            deltas.append(
                ExclusionDelta(
                    approach=approach,
                    scale=scale,
                    mae_include=ri.mae,
                    mae_exclude=re.mae,
                    weight_deltas=tuple((q, float(d)) for q, d in pairs),
                )
            )
    return ExclusionComparison(report=report, deltas=tuple(deltas))
