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
    targets,
    solver: str,
    cfg: SolverConfig = solvers.DEFAULT_CONFIG,
) -> list[Fit]:
    """n fits, fold k trained on all students except k, then averaged.

    targets is an n-by-k matrix with one target per column.  Returns a list
    of k pairs (fold solutions in student order, coordinate-wise mean
    solution), one per column.

    An entry of ``solvers.FITTERS`` whose signature takes leave_one_out
    (so a wrapper of the fitter sees the call) is first called once with
    ``leave_one_out=True``.  For ols_closed_form and linear_intercept that
    gives every fold of every column from one SVD of the design, whatever
    its shape or rank (linalg.loo_min_norm), unless the accuracy guard
    declines it.  Then, and for the other solvers, each fold is fit on its
    own, once per distinct column: columns with the same bytes (so -0.0 and
    0.0 differ) share the folds of the first of them, as the actual and
    normalized targets do when the overall mean equals the exam's.

    An entry whose signature takes start (nnls) starts each fold that
    linalg.loo_full_column_rank certifies: one whose Gram matrix passes the
    conditioning test that linalg.solve_min_norm applies to every Gram
    solve, so it has full column rank and a unique optimum.  When any fold
    is certified, the full cohort of each distinct column is fit first,
    starting from the column's least-squares solution.  Each certified fold
    starts from its own least-squares solution on the support of that fit,
    all of them from one linalg.loo_min_norm downdate; when its guard
    declines, or the support is empty, they start cold.  A start changes
    the work, not the weights, and a fit whose start passes the iteration
    cap is refit cold.
    The other folds, and every fold of a column whose full fit fails, start
    cold.  A fold's ConvergenceError or DataError is re-raised with the fold
    in its message and, in its ``column`` attribute, the index of the first
    column equal to the target that failed.
    """
    s = np.asarray(s, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 2:
        raise ValueError(f"targets must be an n-by-k matrix, got shape {targets.shape}")
    n = len(targets)
    if n < 2:
        raise ValueError("leave-one-out needs at least 2 students")
    if solver not in solvers.FITTERS:
        raise ValueError(f"unknown solver {solver!r}; registered: {', '.join(solvers.FITTERS)}")
    fitter = solvers.FITTERS[solver]
    parameters = inspect.signature(fitter).parameters
    columns = None
    if "leave_one_out" in parameters:
        columns = fitter(s, targets, cfg, leave_one_out=True)
    if columns is None:
        warm = np.zeros(n, dtype=bool)
        if "start" in parameters:
            warm = linalg.loo_full_column_rank(s)
        fits = {}  # a column's bytes -> the folds of the first column with them
        columns = []
        for t in range(targets.shape[1]):
            key = targets[:, t].tobytes()
            if key not in fits:
                fits[key] = _fold_fits(s, targets[:, t], fitter, cfg, t, warm)
            columns.append(fits[key])
    return [(folds, _average(folds)) for folds in columns]


def _fold_fits(s, a, fitter, cfg, column, warm) -> list[WeightSolution]:
    """Every fold's fit; fold k starts warm if warm[k] (``_warm_starts``)."""
    n = len(a)
    starts = [None] * n
    if warm.any():
        try:
            starts = _warm_starts(s, a, fitter, cfg, warm)
        except ConvergenceError:
            pass  # every fold starts cold
    folds: list[WeightSolution] = []
    for k in range(n):
        keep = np.arange(n) != k
        try:
            folds.append(_fit_fold(fitter, s[keep], a[keep], cfg, starts[k]))
        except (ConvergenceError, DataError) as exc:
            err = _with_context(exc, f"fold {k}")
            err.column = column
            raise err from exc
    return folds


def _warm_starts(s, a, fitter, cfg, warm) -> list[np.ndarray | None]:
    """Per fold, its start weights, None unless warm[k] (``loocv_fit`` states
    the rule); raises ConvergenceError when the full cohort's fit fails."""
    full = _fit_fold(fitter, s, a, cfg, linalg.solve_min_norm(s, a, gram=s.T @ s))
    support = full.question_weights > 0
    loo = linalg.loo_min_norm(s[:, support], a[:, None]) if support.any() else None
    if loo is None:
        return [None] * len(a)
    weights = np.zeros((len(a), s.shape[1]))
    weights[:, support] = loo[:, :, 0]
    return [x if w else None for x, w in zip(weights, warm)]


def _fit_fold(fitter, s, a, cfg, start) -> WeightSolution:
    if start is not None:
        try:
            return fitter(s, a, cfg, start=start)
        except ConvergenceError:
            pass  # the start's extra solves may pass the cap; a cold fit decides
    return fitter(s, a, cfg)


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
            raise _with_context(exc, where) from exc
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
