"""Question-weight fitting schemes.

Four fitted solvers (closed-form least squares on an augmented bias column,
centered regression with intercept, Huber regression with a jointly optimized
concomitant scale, and non-negative least squares via the Lawson-Hanson
active-set method) plus the two constant baselines (uniform and actual
points), all producing a WeightSolution.

Design matrices hold fractional question scores (rows = students, columns =
questions); weights therefore carry units of points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import ConvergenceError

OLS_CLOSED_FORM = "ols_closed_form"
LINEAR_INTERCEPT = "linear_intercept"
HUBER = "huber"
NNLS = "nnls"
UNIFORM = "uniform"
ACTUAL = "actual"

# Why fit_huber stopped; only STOP_GRADIENT counts as converged.
STOP_GRADIENT = "gradient"
STOP_STALLED = "stalled"
STOP_ITERATION_CAP = "iteration_cap"

# Lower bound on the concomitant scale, in units of the normalized target
# (max|a| = 1).  When the scale collapses (near-interpolable data, or more
# than ~half the residuals in the absolute-loss regime) the objective tends
# to an unsmoothed L1 limit; the floor fixes the residual smoothing width so
# the problem stays well-posed and twice differentiable.
_SIGMA_FLOOR = 1e-4

# fit_nnls's optimality and feasibility tolerance: a coordinate of
# S^T (a - S w) at or below it stops the active-set loop, and a weight at or
# below it leaves the passive set.
NNLS_TOLERANCE = 1e-11


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs shared by the fitted solvers.

    huber_epsilon and huber_regularization are the CLI's --epsilon and
    --alpha.  huber_tolerance, huber_max_iterations and nnls_max_iterations
    keep their defaults outside tests, which set them to check convergence,
    the iteration caps and the stop reasons.
    """

    huber_epsilon: float = 1.8
    huber_regularization: float = 0.1
    huber_tolerance: float = 1e-8
    huber_max_iterations: int = 500
    nnls_max_iterations: int | None = None  # default 3 * n_questions

    def __post_init__(self):
        if not self.huber_epsilon > 1.0:
            raise ValueError("huber_epsilon must exceed 1")
        if self.huber_regularization < 0:
            raise ValueError("huber_regularization must be nonnegative")
        if not self.huber_tolerance > 0:
            raise ValueError("huber_tolerance must be positive")
        caps = {"huber_max_iterations": self.huber_max_iterations}
        if self.nnls_max_iterations is not None:
            caps["nnls_max_iterations"] = self.nnls_max_iterations
        for name, cap in caps.items():
            if isinstance(cap, bool) or not isinstance(cap, (int, np.integer)) or cap < 1:
                raise ValueError(f"{name} must be a positive integer, got {cap!r}")


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True, eq=False)
class WeightSolution:
    """Fitted per-question weights plus intercept and solver diagnostics."""

    question_weights: np.ndarray
    intercept: float
    solver_id: str
    converged: bool = True
    iterations: int = 0
    sigma: float | None = None  # huber concomitant scale (target units)
    gradient_norm: float | None = None  # huber final gradient norm
    objective_history: tuple[float, ...] = field(default=(), repr=False)
    # why an iterative fit stopped (STOP_*); None for the direct solvers
    stop_reason: str | None = None


def _check_design(s, a) -> tuple[np.ndarray, np.ndarray]:
    s = linalg.as_matrix(s)
    a = linalg.as_vector(a)
    if s.shape[0] != len(a):
        raise ValueError(
            f"dimension mismatch: {s.shape[0]} score rows vs {len(a)} targets"
        )
    return s, a


def fit_ols_closed_form(
    s, a, cfg: SolverConfig = DEFAULT_CONFIG, *, leave_one_out: bool = False
) -> WeightSolution | list[list[WeightSolution]] | None:
    """Least squares on the design augmented with an unscaled all-ones column.

    The minimum-norm solution of the augmented system; the bias column's
    coordinate becomes the intercept, so a question everyone answered
    correctly receives exactly the intercept's weight.

    With leave_one_out, a holds k targets as the columns of an n-by-k matrix
    and the result is the fit of every leave-one-out fold of every column,
    [column][fold], from one SVD of the augmented design of any shape or
    rank; None when the accuracy guard of linalg.loo_min_norm declines it,
    so that each fold is fit alone.
    """
    if leave_one_out:
        s = linalg.as_matrix(s)
        x = linalg.loo_min_norm(np.hstack([s, np.ones((len(s), 1))]), a)
        return None if x is None else _loo_solutions(x[:, :-1], x[:, -1], OLS_CLOSED_FORM)
    s, a = _check_design(s, a)
    n, m = s.shape
    aug = np.hstack([s, np.ones((n, 1))])
    x = linalg.solve_min_norm(aug, a)
    return WeightSolution(
        question_weights=x[:m], intercept=float(x[m]), solver_id=OLS_CLOSED_FORM
    )


def fit_linear_intercept(
    s, a, cfg: SolverConfig = DEFAULT_CONFIG, *, leave_one_out: bool = False
) -> WeightSolution | list[list[WeightSolution]] | None:
    """Centered least squares: the minimum-norm solve of the design and
    target centered by linalg.center, with the intercept recovered from the
    means.

    Training residuals have exactly zero mean; a constant column (e.g. a
    question everyone answered) centers to exactly zero and gets weight 0.

    With leave_one_out, as for fit_ols_closed_form, from one SVD of the
    design centered the same way.
    """
    if leave_one_out:
        s, targets = linalg.as_matrix(s), linalg.as_matrix(a)
        w = linalg.loo_min_norm(s, targets, centered=True)
        if w is None:
            return None
        # row j: the means over every student but j, as fold j's own fit uses
        col_means = (s.sum(axis=0) - s) / (len(s) - 1)
        target_means = (targets.sum(axis=0) - targets) / (len(s) - 1)
        intercepts = target_means - np.einsum("jm,jmk->jk", col_means, w)
        return _loo_solutions(w, intercepts, LINEAR_INTERCEPT)
    s, a = _check_design(s, a)
    if len(s) > 1:
        basis, centered = linalg.center(s)
        w = linalg.solve_min_norm(centered, basis.T @ (a - a[0]))
    else:  # one student centers to an empty design
        w = np.zeros(s.shape[1])
    intercept = float(a.mean() - s.mean(axis=0) @ w)
    return WeightSolution(
        question_weights=w, intercept=intercept, solver_id=LINEAR_INTERCEPT
    )


def _loo_solutions(weights, intercepts, solver_id) -> list[list[WeightSolution]]:
    """[column][fold] solutions from (n, m, k) weights and (n, k) intercepts."""
    n, _, k = weights.shape
    return [
        [
            WeightSolution(
                question_weights=weights[j, :, t],
                intercept=float(intercepts[j, t]),
                solver_id=solver_id,
            )
            for j in range(n)
        ]
        for t in range(k)
    ]


def _huber_objective_and_grad(theta, s, a, eps, alpha, n, m):
    """Objective sum_i [sigma + H_eps(r_i/sigma) * sigma] + alpha * ||w||^2
    with sigma = floor + exp(u); theta = (w, c, u).
    """
    w, c, u = theta[:m], theta[m], theta[m + 1]
    if u > 30.0:  # absurd scale for a normalized target; reject in line search
        return np.inf, np.zeros(m + 2)
    sigma = _SIGMA_FLOOR + np.exp(u)
    r = a - c - s @ w
    z = r / sigma
    absz = np.abs(z)
    quad = absz <= eps
    h = np.where(quad, z * z, 2.0 * eps * absz - eps * eps)
    f = n * sigma + sigma * h.sum() + alpha * (w @ w)
    # dH/dz clipped to the linear regime; d(term)/d(sigma) = 1 - min(z^2, eps^2)
    hprime = np.where(quad, 2.0 * z, 2.0 * eps * np.sign(z))
    grad = np.empty(m + 2)
    grad[:m] = -(s.T @ hprime) + 2.0 * alpha * w
    grad[m] = -hprime.sum()
    grad[m + 1] = (n - np.minimum(z * z, eps * eps).sum()) * np.exp(u)
    return f, grad


def _huber_hessian(theta, grad, s, a, eps, alpha, m):
    """PSD Hessian of the objective in theta = (w, c, u).

    In (w, c, sigma) it is (2/sigma) * sum_quad v_i v_i^T with
    v_i = (x_i, 1, z_i), plus 2*alpha on the w block; rows in the
    absolute-loss regime carry no curvature.  The map to u scales the last
    coordinate by exp(u) and adds the gradient term to H_uu, clipped at zero
    so the matrix stays positive semidefinite.
    """
    w, c, u = theta[:m], theta[m], theta[m + 1]
    sigma = _SIGMA_FLOOR + np.exp(u)
    z = (a - c - s @ w) / sigma
    quad = np.abs(z) <= eps
    v = np.column_stack([s[quad], np.ones(quad.sum()), z[quad] * np.exp(u)])
    h = (2.0 / sigma) * (v.T @ v)
    h[np.arange(m), np.arange(m)] += 2.0 * alpha
    h[m + 1, m + 1] += max(grad[m + 1], 0.0)
    return h


def fit_huber(s, a, cfg: SolverConfig = DEFAULT_CONFIG) -> WeightSolution:
    """Huber regression with a jointly optimized concomitant scale.

    Minimizes sum_i [sigma + H_eps(r_i/sigma) * sigma] + alpha * ||w||^2 over
    (weights, intercept, sigma > 0) by a damped Newton method on the
    piecewise-quadratic objective: each step solves (H + mu*I) d = -g with
    the analytic Hessian, and mu shrinks after a full step and grows after a
    shortened one.  The target is normalized by max|a| internally (with
    alpha rescaled so the objective is unchanged), keeping the iteration
    scale-equivariant; the convergence test is on the normalized objective's
    gradient norm.

    A step is accepted on an Armijo strict decrease, or when the objective
    stays within its rounding error and the gradient norm falls, so the
    recorded objective values are nonincreasing up to rounding.  The fit
    reports why it stopped in stop_reason:

    * "gradient": the gradient norm fell below huber_tolerance (converged);
    * "stalled": 60 step halvings found no acceptable point, and the step
      was already damped (a failed search with mu below 1e-10 * max diag H
      is retried with mu raised to that floor);
    * "iteration_cap": huber_max_iterations Newton solves were made.

    Neither of the last two is fatal: the last accepted iterate, the best up
    to rounding, is returned with converged=False and its gradient norm.
    """
    s, a = _check_design(s, a)
    n, m = s.shape
    eps = cfg.huber_epsilon

    scale = float(np.max(np.abs(a)))
    if scale == 0.0:
        return WeightSolution(
            question_weights=np.zeros(m),
            intercept=0.0,
            solver_id=HUBER,
            sigma=_SIGMA_FLOOR,
            gradient_norm=0.0,
            objective_history=(0.0,),
            stop_reason=STOP_GRADIENT,
        )
    at = a / scale
    # On the normalized problem the original objective becomes
    # scale * (huber part + alpha*scale*||w_t||^2), so alpha picks up a factor.
    alpha = cfg.huber_regularization * scale

    theta = np.zeros(m + 2)
    theta[m] = at.mean()
    sigma0 = float(np.std(at - theta[m]))
    theta[m + 1] = np.log(max(sigma0, 1e-3))

    f, g = _huber_objective_and_grad(theta, s, at, eps, alpha, n, m)
    gnorm = float(np.linalg.norm(g))
    history = [f]
    mu = 0.0
    it = 0
    while True:
        if gnorm < cfg.huber_tolerance:
            stop_reason = STOP_GRADIENT
            break
        if it == cfg.huber_max_iterations:
            stop_reason = STOP_ITERATION_CAP
            break
        it += 1
        h = _huber_hessian(theta, g, s, at, eps, alpha, m)
        try:
            d = np.linalg.solve(h + mu * np.eye(m + 2), -g)
        except np.linalg.LinAlgError:
            d = -g
        slope = g @ d
        mu_floor = 1e-10 * h.diagonal().max()
        t = 1.0
        for _ in range(60):
            cand = theta + t * d
            f_cand, g_cand = _huber_objective_and_grad(cand, s, at, eps, alpha, n, m)
            g_cand_norm = float(np.linalg.norm(g_cand))
            if (f_cand < f and f_cand <= f + 1e-4 * t * slope) or (
                f_cand <= f + 4.0 * np.spacing(f) and g_cand_norm < gnorm
            ):
                break
            t *= 0.5
        else:
            if mu >= mu_floor:
                stop_reason = STOP_STALLED
                break
            # A barely damped solve of a singular H can return a useless
            # step; retry from the same point with the damping raised.
            mu = max(4.0 * mu, mu_floor)
            continue
        mu = mu / 4.0 if t == 1.0 else max(4.0 * mu, mu_floor)
        theta, f, g, gnorm = cand, f_cand, g_cand, g_cand_norm
        history.append(f)

    w, c, u = theta[:m], theta[m], theta[m + 1]
    return WeightSolution(
        question_weights=w * scale,
        intercept=float(c * scale),
        solver_id=HUBER,
        converged=stop_reason == STOP_GRADIENT,
        iterations=it,
        sigma=float((_SIGMA_FLOOR + np.exp(u)) * scale),
        gradient_norm=gnorm,
        objective_history=tuple(history),
        stop_reason=stop_reason,
    )


def fit_nnls(
    s, a, cfg: SolverConfig = DEFAULT_CONFIG, *, start: WeightSolution | None = None
) -> WeightSolution:
    """Lawson-Hanson active-set solution of min ||S w - a|| s.t. w >= 0.

    No bias column is added (a nonnegative intercept would distort weights);
    the intercept is fixed at 0.  Candidate selection ties are broken toward
    the smallest column index for determinism.

    With start, the fit of a nearby problem (experiment.loocv_fit passes
    the full cohort's fit to a leave-one-out fold), the first passive set
    is start's positive weights: the fit solves on it and drops the
    nonpositive coordinates until the solution is feasible, then runs the
    active-set loop from there (passive-set reuse, Bro & De Jong 1997).
    Those solves count in iterations and toward the cap, and the stopping
    test on S^T (a - S w) is unchanged.  Where the optimum is unique, as
    when S has full column rank, the start therefore changes the work and
    not the answer; pass a start only there.
    """
    s, a = _check_design(s, a)
    n, m = s.shape
    max_iter = cfg.nnls_max_iterations or 3 * m

    x = np.zeros(m)
    passive = np.zeros(m, dtype=bool)
    iterations = 0

    def passive_solve():
        nonlocal iterations
        iterations += 1
        if iterations > max_iter:
            raise ConvergenceError(f"NNLS exceeded iteration cap of {max_iter}")
        z = np.zeros(m)
        z[passive] = linalg.solve_min_norm(s[:, passive], a)
        return z

    if start is not None:
        if len(start.question_weights) != m:
            raise ValueError(
                f"dimension mismatch: {m} score columns vs {len(start.question_weights)} start weights"
            )
        passive = start.question_weights > 0
        while passive.any():
            z = passive_solve()
            if z[passive].min() > 0.0:
                x = z
                break
            passive &= z > 0.0
    while True:
        grad = s.T @ (a - s @ x)  # negative objective gradient
        inactive = ~passive
        if not inactive.any():
            break
        wmax = grad[inactive].max()
        if wmax <= NNLS_TOLERANCE:
            break
        candidates = np.flatnonzero(inactive & (grad >= wmax - NNLS_TOLERANCE))
        passive[candidates[0]] = True
        while True:
            z = passive_solve()
            if z[passive].min() > 0.0:
                x = z
                break
            blocking = passive & (z <= 0.0)
            denom = x[blocking] - z[blocking]
            movable = denom > 0.0
            # denom == 0 means x and z agree at the bound; any step keeps it there
            alpha = (x[blocking][movable] / denom[movable]).min() if movable.any() else 1.0
            x = x + alpha * (z - x)
            passive &= x > NNLS_TOLERANCE
            x[~passive] = 0.0

    x[x < 0] = 0.0
    return WeightSolution(
        question_weights=x,
        intercept=0.0,
        solver_id=NNLS,
        iterations=iterations,
    )


def baseline_uniform(n_questions: int) -> WeightSolution:
    """Every question worth 100 / n_questions points; intercept 0."""
    if n_questions < 1:
        raise ValueError("need at least one question")
    return WeightSolution(
        question_weights=np.full(n_questions, 100.0 / n_questions),
        intercept=0.0,
        solver_id=UNIFORM,
    )


def baseline_actual(points) -> WeightSolution:
    """Weights equal the declared per-question maximum points; intercept 0."""
    points = linalg.as_vector(points)
    if not np.all(points > 0):
        raise ValueError("all question points must be positive")
    return WeightSolution(
        question_weights=points.copy(), intercept=0.0, solver_id=ACTUAL
    )


def predict(sol: WeightSolution, s) -> np.ndarray:
    """Weighted exam score per student: intercept + S @ weights."""
    s = linalg.as_matrix(s)
    if s.shape[1] != len(sol.question_weights):
        raise ValueError(
            f"dimension mismatch: {s.shape[1]} score columns vs "
            f"{len(sol.question_weights)} weights"
        )
    return sol.intercept + s @ sol.question_weights


# Each entry is called as fitter(s, a, cfg) for one fit.  An entry whose
# signature takes leave_one_out is first called once per leave-one-out run
# by experiment.loocv_fit (the min-norm fitters answer it from one SVD of
# any design), and per fold only when that returns None, as it does when
# the accuracy guard declines the design.  An entry whose signature takes
# start (fit_nnls) is fit once to the full cohort and then called once per
# fold, with start= that fit on folds certified to keep full column rank.
# A functools.wraps wrapper reports the signature of the fitter it wraps,
# so it must pass these keywords through.
#
# The benchmark's tracer (bench/tracing.py) wraps every entry and hands
# each return value to a counter that reads .iterations, so a per-fold entry
# must return one WeightSolution per call.  Its Huber counter,
# _count_huber(values, sol, s, a, cfg), takes no other keyword: giving
# fit_huber leave_one_out (a list return) or start would break every traced
# run.  A Huber warm start through this entry therefore needs that counter
# to accept extra keywords first, a benchmark change made on its own.
FITTERS = {
    OLS_CLOSED_FORM: fit_ols_closed_form,
    LINEAR_INTERCEPT: fit_linear_intercept,
    HUBER: fit_huber,
    NNLS: fit_nnls,
}
