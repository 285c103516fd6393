"""Evaluation protocol: leave-one-out cross-validation with weight averaging,
MAE scoring of every approach on both target scales, and the include/exclude
comparison for the overall score.

MAE is computed in-sample on all students using the LOOCV-averaged weights;
the uniform/actual baselines bypass LOOCV since their weights are constant.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from . import gradebook as gb
from . import linalg, solvers
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


# (fold solutions in student order, their coordinate-wise mean)
Fit = tuple[list[WeightSolution], WeightSolution]


def loocv_fit(
    s,
    a,
    solver: str,
    cfg: SolverConfig = solvers.DEFAULT_CONFIG,
) -> Fit | list[Fit]:
    """n fits, fold k trained on all students except k, then averaged.

    a is a vector of n targets, or an n-by-k matrix with one target per
    column.  Returns (fold solutions in student order, coordinate-wise mean
    solution) for a vector, and a list of k such pairs for a matrix.

    An entry of ``solvers.FITTERS`` whose signature takes leave_one_out
    (so a wrapper of the fitter sees the call) is first called once with
    ``leave_one_out=True``.  For ols_closed_form and linear_intercept that
    gives every fold of every column from one SVD of the design, whatever
    its shape or rank (linalg.loo_min_norm), unless the accuracy guard
    declines it.  Then, and for the other solvers, each fold of each column
    is fit on its own.

    An entry whose signature takes start (nnls) is fit once to the full
    cohort of each column when linalg.loo_full_column_rank certifies any
    fold, and each certified fold, whose optimum is unique, starts from that
    fit; the start changes the work, not the weights.  The other folds, and
    every fold of a column whose full fit fails, start cold.  A fold's
    ConvergenceError or DataError is re-raised with the fold in its message
    and the target's column index in its ``column`` attribute.
    """
    s = np.asarray(s, dtype=float)
    a = np.asarray(a, dtype=float)
    targets = a[:, None] if a.ndim == 1 else a
    n = len(targets)
    if n < 2:
        raise ValueError("leave-one-out needs at least 2 students")
    fitter = solvers.FITTERS[solver]
    parameters = inspect.signature(fitter).parameters
    columns = None
    if "leave_one_out" in parameters:
        columns = fitter(s, targets, cfg, leave_one_out=True)
    if columns is None:
        warm = np.zeros(n, dtype=bool)
        if "start" in parameters:
            warm = linalg.loo_full_column_rank(s)
        columns = [
            _fold_fits(s, targets[:, t], solver, cfg, t, warm) for t in range(targets.shape[1])
        ]
    fits = [(folds, _average(folds, solver)) for folds in columns]
    return fits[0] if a.ndim == 1 else fits


def _fold_fits(s, a, solver, cfg, column, warm) -> list[WeightSolution]:
    """Every fold's fit; fold k starts from the full cohort's fit if warm[k]."""
    n = len(a)
    fitter = solvers.FITTERS[solver]
    start = None
    if warm.any():
        try:
            start = fitter(s, a, cfg)
        except ConvergenceError:
            pass  # every fold starts cold
    folds: list[WeightSolution] = []
    for k in range(n):
        keep = np.arange(n) != k
        try:
            folds.append(_fit_fold(fitter, s[keep], a[keep], cfg, start if warm[k] else None))
        except (ConvergenceError, DataError) as exc:
            err = _with_context(exc, f"fold {k}")
            err.column = column
            raise err from exc
    return folds


def _fit_fold(fitter, s, a, cfg, start) -> WeightSolution:
    if start is not None:
        try:
            return fitter(s, a, cfg, start=start)
        except ConvergenceError:
            pass  # the start's extra solves may pass the cap; a cold fit decides
    return fitter(s, a, cfg)


def _average(folds: list[WeightSolution], solver: str) -> WeightSolution:
    return WeightSolution(
        question_weights=np.mean([f.question_weights for f in folds], axis=0),
        intercept=float(np.mean([f.intercept for f in folds])),
        solver_id=solver,
        converged=all(f.converged for f in folds),
        iterations=sum(f.iterations for f in folds),
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
    loocv_fit call, so the minimum-norm solvers factor the design once.
    """
    if exam not in g.exams:
        raise gb.DataError(f"unknown exam {exam!r}")
    s = g.exams[exam]
    points = g.question_points(exam)
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
            raise _with_context(exc, where) from exc
        for t, (scale, exclusion) in enumerate(cells):
            folds, averaged = fits[t]
            bad = [
                k for k, f in enumerate(folds)
                if not f.converged
                and (f.gradient_norm is None or f.gradient_norm >= _FOLD_GRADIENT_CEILING)
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
                unconverged_folds=tuple(k for k, f in enumerate(folds) if not f.converged),
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
    both = evaluate(g, exam, cfg, scales, (gb.INCLUDE_EXAM, gb.EXCLUDE_EXAM))
    inc, exc = (
        EvaluationReport(
            exam=exam,
            question_ids=both.question_ids,
            records=tuple(r for r in both.records if r.exclusion == exclusion),
        )
        for exclusion in (gb.INCLUDE_EXAM, gb.EXCLUDE_EXAM)
    )
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
