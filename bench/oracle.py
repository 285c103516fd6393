"""Independent oracles for the benchmark's correctness checks.

Nothing here imports examweight: the oracle reads the generated CSV files with
the standard ``csv`` module, rebuilds the regression targets from the course
components, and solves every leave-one-out fold with numpy's LAPACK
pseudoinverse or with scipy (allowed as a harness-only oracle; it is not a
runtime dependency of the program).

``expected_cells`` runs once per workload and seed at set-up, outside timing.
``check_report`` then compares one op's written report against it.  The
check reads only what the user gets: the MAE table (4 decimals) and the
long-format weights file (full ``repr`` precision), so every workload, the
CLI one included, is checked the same way.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

COMPONENTS = ("homework", "midterm", "project", "final")
EXAM = "final"

# Relative tolerances, each beside the agreement measured on the default
# cohorts before any solver change (max over cells of the relative error):
TOLERANCES = {
    # ||w - w_pinv|| / ||w_pinv||, intercept included; measured <= 1.2e-14.
    "ols_closed_form": 1e-10,
    "linear_intercept": 1e-10,
    # Against scipy.optimize.nnls where every fold's design has full column
    # rank, so the solution is unique; measured 1.5e-14.
    "nnls": 1e-9,
    # Where the NNLS solution is not unique (n < m), the LP distance from the
    # averaged weights to the set of averages of optimal fold solutions, over
    # ||w||_1; measured below 1e-12.
    "nnls_nonunique": 1e-7,
    # Against L-BFGS-B fits of fit_huber's documented objective, which is
    # strictly convex in the weights through its ridge term; measured
    # 6.6e-10.  This bounds the MAE difference too.
    "huber": 1e-6,
    # Constant baselines must match exactly.
    "uniform": 0.0,
    "actual": 0.0,
}

# MAE table cells carry 4 decimals: half a unit in the last place, plus slack
# for the binary representation of the rounded value.
_MAE_TABLE_SLACK = 0.5e-4 + 1e-12

# fit_huber's objective as the CLI runs it: the default threshold and ridge
# weight, and the lower bound on the concomitant scale, as a share of
# max|target|, that keeps the objective smooth when the scale collapses.
_HUBER_EPSILON = 1.8
_HUBER_ALPHA = 0.1
_HUBER_SIGMA_FLOOR = 1e-4


@dataclass(frozen=True)
class Inputs:
    students: tuple[str, ...]  # components-file order
    question_ids: tuple[str, ...]  # questions-file order
    points: np.ndarray
    scores: np.ndarray  # students x questions, in the two orders above
    components: dict[str, np.ndarray]


@dataclass(frozen=True)
class Expected:
    """Oracle answer for one (approach, scale, exclusion) cell."""

    kind: str  # a key of TOLERANCES
    target: np.ndarray
    weights: np.ndarray  # averaged over folds
    intercept: float
    fold_fits: tuple[np.ndarray, ...] = ()  # nnls_nonunique: optimal fold fits


def read_inputs(scores_csv: Path, questions_csv: Path, components_csv: Path) -> Inputs:
    with open(components_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    students = tuple(r[0] for r in rows[1:])
    components = {
        name: np.array([float(r[1 + i]) for r in rows[1:]])
        for i, name in enumerate(COMPONENTS)
    }
    with open(questions_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    question_ids = tuple(r[0] for r in rows[1:])
    points = np.array([float(r[2]) for r in rows[1:]])
    with open(scores_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    col = {q: j for j, q in enumerate(rows[0][1:])}
    by_student = {r[0]: r[1:] for r in rows[1:]}
    scores = np.array([
        [float(by_student[s][col[q]]) for q in question_ids] for s in students
    ])
    return Inputs(students, question_ids, points, scores, components)


def target(inp: Inputs, scale: str, exclusion: str) -> np.ndarray:
    names = [c for c in COMPONENTS if exclusion == "include_exam" or c != EXAM]
    overall = np.mean([inp.components[c] for c in names], axis=0)
    if scale == "normalized":
        overall = overall * (np.mean(inp.scores @ inp.points) / overall.mean())
    return overall


def _folds(n: int):
    for k in range(n):
        yield k, np.arange(n) != k


def _min_norm(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.linalg.pinv(a, rcond=max(a.shape) * np.finfo(float).eps) @ y


def _ols_fold(s, a):
    x = _min_norm(np.hstack([s, np.ones((len(a), 1))]), a)
    return x[:-1], x[-1]


def _linear_fold(s, a):
    means = s.mean(axis=0)
    w = _min_norm(s - means, a - a.mean())
    return w, a.mean() - means @ w


def _huber_fold(s, a, eps=_HUBER_EPSILON, alpha=_HUBER_ALPHA):
    """Minimize sum_i [sigma + H_eps(r_i/sigma) * sigma] + alpha * ||w||^2
    over (w, c, sigma), the objective documented in fit_huber, in the
    target's own units."""
    from scipy.optimize import minimize

    n, m = s.shape
    floor = _HUBER_SIGMA_FLOOR * np.max(np.abs(a))

    def fun(theta):
        w, c, sigma = theta[:m], theta[m], theta[m + 1]
        z = (a - c - s @ w) / sigma
        quad = np.abs(z) <= eps
        h = np.where(quad, z * z, 2 * eps * np.abs(z) - eps * eps)
        hp = np.where(quad, 2 * z, 2 * eps * np.sign(z))
        grad = np.concatenate([
            -(s.T @ hp) + 2 * alpha * w,
            [-hp.sum(), n - np.minimum(z * z, eps * eps).sum()],
        ])
        return n * sigma + sigma * h.sum() + alpha * (w @ w), grad

    theta = np.concatenate([np.zeros(m), [a.mean(), max(np.std(a), floor)]])
    bounds = [(None, None)] * (m + 1) + [(floor, None)]
    best = np.inf
    # With the scale at its floor the curvature is badly scaled and a single
    # L-BFGS-B run can stop early; restart from its answer, with fresh
    # curvature memory, until the objective stops decreasing.
    while True:
        res = minimize(fun, theta, jac=True, method="L-BFGS-B", bounds=bounds,
                       options={"maxiter": 50000, "maxcor": 50, "ftol": 1e-16, "gtol": 1e-12})
        if not res.fun < best:
            return theta[:m], theta[m]
        theta, best = res.x, res.fun


def _nnls_fold(s, a):
    from scipy.optimize import nnls

    return nnls(s, a, maxiter=50 * s.shape[1])[0], 0.0


_FOLD_SOLVERS = {
    "ols_closed_form": _ols_fold,
    "linear_intercept": _linear_fold,
    "huber": _huber_fold,
    "nnls": _nnls_fold,
}


def _cell(inp: Inputs, approach: str, a: np.ndarray) -> Expected:
    s = inp.scores
    n, m = s.shape
    fold_fits: tuple[np.ndarray, ...] = ()
    kind = approach
    if approach == "uniform":
        w, c = np.full(m, 100.0 / m), 0.0
    elif approach == "actual":
        w, c = inp.points.copy(), 0.0
    else:
        fits = [_FOLD_SOLVERS[approach](s[keep], a[keep]) for _, keep in _folds(n)]
        w = np.mean([f[0] for f in fits], axis=0)
        c = float(np.mean([f[1] for f in fits]))
        if approach == "nnls" and any(
            np.linalg.matrix_rank(s[keep]) < m for _, keep in _folds(n)
        ):
            kind = "nnls_nonunique"
            fold_fits = tuple(s[keep] @ f[0] for (_, keep), f in zip(_folds(n), fits))
    return Expected(kind, a, w, c, fold_fits)


def expected_cells(files: dict[str, Path], approaches, scales, exclusions) -> dict:
    """Oracle answers keyed by (approach, scale label) as in the report,
    where the label is the scale with ``_excl`` appended for exclude_exam."""
    inp = read_inputs(files["scores"], files["questions"], files["components"])
    cells = {}
    for exclusion in exclusions:
        for scale in scales:
            a = target(inp, scale, exclusion)
            label = scale if exclusion == "include_exam" else f"{scale}_excl"
            for approach in approaches:
                cells[approach, label] = _cell(inp, approach, a)
    return {"inputs": inp, "cells": cells}


def read_report(mae_csv: Path) -> tuple[dict, dict]:
    """(MAE table cells, averaged weights) from one written CSV report.

    Returns ({(approach, label): mae}, {(approach, label): {question: weight}}).
    """
    with open(mae_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    approaches = rows[0][1:]
    maes = {}
    for row in rows[1:]:
        label = row[0][row[0].index("(") + 1:-1]
        for approach, cell in zip(approaches, row[1:]):
            maes[approach, label] = float(cell)
    weights: dict = {}
    with open(mae_csv.with_name(mae_csv.stem + "_weights.csv"), newline="", encoding="utf-8") as fh:
        for _exam, solver, label, question, value in list(csv.reader(fh))[1:]:
            weights.setdefault((solver, label), {})[question] = float(value)
    return maes, weights


def _nonunique_distance(inp: Inputs, exp: Expected, w: np.ndarray) -> float:
    """L1 distance, over ||w||_1, from w to the set of averages of optimal
    NNLS fold solutions, found as a linear program.

    The optimal fit of each fold is unique even when its weights are not, so
    fold k's optimal set is {x >= 0 : S_-k x = fit_k}.
    """
    from scipy.optimize import linprog
    from scipy.sparse import bmat, coo_matrix, eye, hstack

    s = inp.scores
    n, m = s.shape
    blocks = [[None] * n for _ in range(n)]
    for k, keep in _folds(n):
        blocks[k][k] = coo_matrix(s[keep])
    fit_rows = n * (n - 1)
    fold_block = bmat(blocks)
    mean_block = hstack([eye(m) / n] * n)
    # Variables: n fold solutions, then +/- slacks on the fits and the mean.
    a_eq = bmat([
        [fold_block, eye(fit_rows), -eye(fit_rows), None, None],
        [mean_block, None, None, eye(m), -eye(m)],
    ]).tocsc()
    b_eq = np.concatenate([*exp.fold_fits, w])
    cost = np.concatenate([np.zeros(n * m), np.ones(2 * fit_rows + 2 * m)])
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        return np.inf
    return float(res.fun) / max(np.abs(w).sum(), 1e-300)


def cell_error(inp: Inputs, exp: Expected, w: np.ndarray, c: float) -> float:
    """Relative disagreement of one reported cell with its oracle, to be
    compared with TOLERANCES[exp.kind]."""
    if exp.kind in ("uniform", "actual"):
        return 0.0 if np.array_equal(w, exp.weights) and c == exp.intercept else np.inf
    if exp.kind == "nnls_nonunique":
        if c != 0.0 or np.any(w < 0):
            return np.inf
        return _nonunique_distance(inp, exp, w)
    ref = np.append(exp.weights, exp.intercept)
    return float(np.linalg.norm(np.append(w, c) - ref) / np.linalg.norm(ref))


def check_report(mae_csv: Path, oracle: dict) -> tuple[list[str], dict[str, float]]:
    """Compare one written report with the oracle.

    Returns (problems, worst relative error per oracle kind); an op passes
    when problems is empty.
    """
    inp: Inputs = oracle["inputs"]
    problems: list[str] = []
    worst: dict[str, float] = {}
    try:
        maes, weights = read_report(mae_csv)
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable report: {exc!r}"], worst
    if set(maes) != set(oracle["cells"]) or set(weights) != set(oracle["cells"]):
        return [f"report cells {sorted(maes)} differ from {sorted(oracle['cells'])}"], worst
    for key, exp in oracle["cells"].items():
        cell = weights[key]
        if set(cell) != set(inp.question_ids) | {"_intercept"}:
            problems.append(f"{key}: weights for unexpected questions")
            continue
        w = np.array([cell[q] for q in inp.question_ids])
        c = cell["_intercept"]
        err = cell_error(inp, exp, w, c)
        worst[exp.kind] = max(worst.get(exp.kind, 0.0), err)
        if not err <= TOLERANCES[exp.kind]:
            problems.append(f"{key}: relative error {err:.3g} > {TOLERANCES[exp.kind]:g}")
        own_mae = float(np.mean(np.abs(c + inp.scores @ w - exp.target)))
        if not abs(maes[key] - own_mae) <= _MAE_TABLE_SLACK:
            problems.append(f"{key}: table MAE {maes[key]} but weights give {own_mae:.6f}")
    return problems, worst
