"""Evaluation protocol: leave-one-out cross-validation with weight averaging,
MAE scoring of every approach on both target scales, and the include/exclude
comparison for the overall score.

MAE is computed in-sample on all students using the LOOCV-averaged weights;
the uniform/actual baselines bypass LOOCV since their weights are constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gradebook as gb
from . import solvers
from .errors import ConvergenceError, DataError
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


def _with_context(exc: ConvergenceError | DataError, context: str) -> Exception:
    """The project error of exc's kind, its message prefixed with context."""
    kind = ConvergenceError if isinstance(exc, ConvergenceError) else DataError
    return kind(f"{context}: {exc}")


def loocv_fit(
    s,
    a,
    solver: str,
    cfg: SolverConfig = solvers.DEFAULT_CONFIG,
) -> tuple[list[WeightSolution], WeightSolution]:
    """n fits, fold k trained on all students except k, then averaged.

    Returns (fold solutions in student order, coordinate-wise mean solution).
    """
    s = np.asarray(s, dtype=float)
    a = np.asarray(a, dtype=float)
    n = len(a)
    if n < 2:
        raise ValueError("leave-one-out needs at least 2 students")
    fitter = solvers.FITTERS[solver]
    folds: list[WeightSolution] = []
    for k in range(n):
        keep = np.arange(n) != k
        try:
            folds.append(fitter(s[keep], a[keep], cfg))
        except (ConvergenceError, DataError) as exc:
            raise _with_context(exc, f"fold {k}") from exc
    averaged = WeightSolution(
        question_weights=np.mean([f.question_weights for f in folds], axis=0),
        intercept=float(np.mean([f.intercept for f in folds])),
        solver_id=solver,
        converged=all(f.converged for f in folds),
        iterations=sum(f.iterations for f in folds),
    )
    return folds, averaged


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


def _solve_cell(s, target, approach, cfg, points, n):
    if approach == solvers.UNIFORM:
        sol = solvers.baseline_uniform(s.shape[1])
        return [sol] * n, sol, ()
    if approach == solvers.ACTUAL:
        sol = solvers.baseline_actual(points)
        return [sol] * n, sol, ()
    folds, averaged = loocv_fit(s, target, approach, cfg)
    bad = tuple(
        k for k, f in enumerate(folds)
        if not f.converged and (f.gradient_norm is None or f.gradient_norm >= _FOLD_GRADIENT_CEILING)
    )
    if bad:
        raise ConvergenceError(
            f"{approach}: folds {list(bad)} ended far from stationarity"
        )
    unconverged = tuple(k for k, f in enumerate(folds) if not f.converged)
    return folds, averaged, unconverged


def evaluate(
    g: gb.Gradebook,
    exam: str,
    cfg: SolverConfig = solvers.DEFAULT_CONFIG,
    scales: tuple[str, ...] = (gb.ACTUAL_SCALE, gb.NORMALIZED_SCALE),
    exclusions: tuple[str, ...] = (gb.INCLUDE_EXAM,),
    approaches: tuple[str, ...] = APPROACHES,
) -> EvaluationReport:
    """Mean-absolute-error comparison of all approaches on the chosen exam."""
    if exam not in g.exams:
        raise gb.DataError(f"unknown exam {exam!r}")
    s = g.exams[exam]
    points = g.question_points(exam)
    n = len(g.students)
    records = []
    for exclusion in exclusions:
        for scale in scales:
            target = gb.ability(g, exam, scale, exclusion).values
            for approach in approaches:
                try:
                    folds, averaged, unconverged = _solve_cell(
                        s, target, approach, cfg, points, n
                    )
                except (ConvergenceError, DataError) as exc:
                    raise _with_context(
                        exc, f"{approach} ({scale}, {exclusion})"
                    ) from exc
                preds = solvers.predict(averaged, s)
                records.append(
                    ApproachRecord(
                        approach=approach,
                        scale=scale,
                        exclusion=exclusion,
                        fold_weights=tuple(folds),
                        averaged_weights=averaged,
                        predictions=preds,
                        target=target,
                        mae=float(np.mean(np.abs(preds - target))),
                        unconverged_folds=unconverged,
                    )
                )
    return EvaluationReport(
        exam=exam, question_ids=g.question_ids(exam), records=tuple(records)
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
    exam: str
    include_report: EvaluationReport
    exclude_report: EvaluationReport
    deltas: tuple[ExclusionDelta, ...]


def exclusion_comparison(
    g: gb.Gradebook,
    exam: str,
    cfg: SolverConfig = solvers.DEFAULT_CONFIG,
    scales: tuple[str, ...] = (gb.ACTUAL_SCALE, gb.NORMALIZED_SCALE),
) -> ExclusionComparison:
    """Side-by-side MAE and per-question weight deltas for the two overall
    score computations (exam component included vs excluded)."""
    inc = evaluate(g, exam, cfg, scales, (gb.INCLUDE_EXAM,))
    exc = evaluate(g, exam, cfg, scales, (gb.EXCLUDE_EXAM,))
    deltas = []
    for scale in scales:
        for approach in APPROACHES:
            ri = inc.get(approach, scale, gb.INCLUDE_EXAM)
            re = exc.get(approach, scale, gb.EXCLUDE_EXAM)
            dw = ri.averaged_weights.question_weights - re.averaged_weights.question_weights
            pairs = sorted(
                zip(inc.question_ids, dw),
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
    return ExclusionComparison(
        exam=exam, include_report=inc, exclude_report=exc, deltas=tuple(deltas)
    )
