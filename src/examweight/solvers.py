"""Question-weight fitting schemes.

Four fitted solvers (closed-form least squares on an augmented bias column,
centered regression with intercept, Huber regression with a jointly optimized
concomitant scale, and non-negative least squares, by a least-norm closed
form on wide designs where it is optimal and the Lawson-Hanson active-set
method otherwise) plus the two constant baselines (uniform and actual
points), all producing a WeightSolution.

Design matrices hold fractional question scores (rows = students, columns =
questions); weights therefore carry units of points.
"""

from __future__ import annotations

import contextlib
import inspect
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ConvergenceError, DataError, with_context

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
# the problem stays well-posed and twice differentiable.  fit_huber steps in
# log(sigma), where the floor is the plain bound _LOG_FLOOR; sigma is
# exactly _SIGMA_FLOOR there.
_SIGMA_FLOOR = 1e-4
_LOG_FLOOR = float(np.log(_SIGMA_FLOOR))

# fit_huber stops when the normalized objective's gradient norm falls below
# this (stop reason "gradient").
HUBER_TOLERANCE = 1e-8

# fit_nnls's optimality and feasibility tolerance: a coordinate of
# S^T (a - S w) at or below it stops the active-set loop, and a weight at or
# below it leaves the passive set.
NNLS_TOLERANCE = 1e-11


def nnls_iteration_cap(n_questions: int) -> int:
    """fit_nnls's cap on passive-set solves for a design of n_questions
    columns; more raise ConvergenceError."""
    return 3 * n_questions


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs of fit_huber, passed to every fitter alike.

    huber_epsilon and huber_regularization are the CLI's --epsilon and
    --alpha.  huber_max_iterations caps fit_huber's Newton solves, its
    floor probes included; the benchmark's tracer reads it to count fits
    that hit the cap.  The stopping tolerance and the NNLS cap are
    HUBER_TOLERANCE and nnls_iteration_cap.
    """

    huber_epsilon: float = 1.8
    huber_regularization: float = 0.1
    huber_max_iterations: int = 500

    def __post_init__(self):
        bounds = {
            "huber_epsilon": (self.huber_epsilon > 1.0, "exceed 1"),
            "huber_regularization": (self.huber_regularization >= 0, "nonnegative"),
        }
        for name, (inside, rule) in bounds.items():
            if not (inside and np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite and {rule}")
        cap = self.huber_max_iterations
        if isinstance(cap, bool) or not isinstance(cap, (int, np.integer)) or cap < 1:
            raise ValueError(f"huber_max_iterations must be a positive integer, got {cap!r}")


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True, eq=False)
class WeightSolution:
    """Fitted per-question weights plus intercept and solver diagnostics.

    converged is not stored: it derives from stop_reason, and is true for a
    direct solve (None) and for STOP_GRADIENT.  iterations and evaluations
    are 0 for a direct solve.
    """

    question_weights: np.ndarray
    intercept: float
    iterations: int = 0
    evaluations: int = 0  # huber objective evaluations
    sigma: float | None = None  # huber concomitant scale (target units)
    gradient_norm: float | None = None  # huber final gradient norm
    # why an iterative fit stopped (STOP_*); None for the direct solvers
    stop_reason: str | None = None

    @property
    def converged(self) -> bool:
        return self.stop_reason in (None, STOP_GRADIENT)


def _check_design(s, a, as_target=linalg.as_vector) -> tuple[np.ndarray, np.ndarray]:
    s = linalg.as_matrix(s)
    a = as_target(a)
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
        return None if x is None else _loo_solutions(x[:, :-1], x[:, -1])
    s, a = _check_design(s, a)
    n, m = s.shape
    aug = np.hstack([s, np.ones((n, 1))])
    x = linalg.solve_min_norm(aug, a)
    return WeightSolution(question_weights=x[:m], intercept=float(x[m]))


def fit_linear_intercept(
    s, a, cfg: SolverConfig = DEFAULT_CONFIG, *, leave_one_out: bool = False
) -> WeightSolution | list[list[WeightSolution]] | None:
    """Centered least squares: the minimum-norm solve of the design and
    target centered by linalg.center, with the intercept recovered from the
    means.

    Training residuals have exactly zero mean; a constant column (e.g. a
    question everyone answered) centers to exactly zero and gets weight 0
    to rounding.

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
        return _loo_solutions(w, intercepts)
    s, a = _check_design(s, a)
    if len(s) > 1:
        basis, centered = linalg.center(s)
        w = linalg.solve_min_norm(centered, basis.T @ (a - a[0]))
    else:  # one student centers to an empty design
        w = np.zeros(s.shape[1])
    intercept = float(a.mean() - s.mean(axis=0) @ w)
    return WeightSolution(question_weights=w, intercept=intercept)


def _loo_solutions(weights, intercepts) -> list[list[WeightSolution]]:
    """[column][fold] solutions from (n, m, k) weights and (n, k) intercepts."""
    n, _, k = weights.shape
    return [
        [
            WeightSolution(question_weights=weights[j, :, t], intercept=float(intercepts[j, t]))
            for j in range(n)
        ]
        for t in range(k)
    ]


def _huber_objective_and_grad(theta, s, a, eps, alpha):
    """(f, grad, point): the objective sum_i [sigma + H_eps(r_i/sigma) * sigma]
    + alpha * ||w||^2 at theta = (w, c, log sigma), its projected gradient,
    and the point (z, quad, sigma) that _huber_hessian reads: the scaled
    residuals z = r / sigma and which are in the quadratic regime.

    At the bound theta[-1] = _LOG_FLOOR, sigma is exactly _SIGMA_FLOOR, and
    the gradient keeps sigma's entry only where it points above the floor:
    where f's slope points below it, the entry is 0 (the KKT condition of
    the bound, Bertsekas 1982).
    """
    n, m = s.shape
    w, c, v = theta[:m], theta[m], theta[m + 1]
    sigma = np.exp(v) if v > _LOG_FLOOR else _SIGMA_FLOOR
    r = a - c - s @ w
    z = r / sigma
    absz = np.abs(z)
    quad = absz <= eps
    # z clipped to the linear regime: dH/dz = 2 zc, and zc^2 = min(z^2, eps^2)
    zc = np.clip(z, -eps, eps)
    zc2 = zc * zc
    h = np.where(quad, zc2, 2.0 * eps * absz - eps * eps)
    f = n * sigma + sigma * h.sum() + alpha * (w @ w)
    hprime = 2.0 * zc
    grad = np.empty(m + 2)
    grad[:m] = -(s.T @ hprime) + 2.0 * alpha * w
    grad[m] = -hprime.sum()
    grad[m + 1] = (n - zc2.sum()) * sigma  # d(term)/d(sigma) = 1 - min(z^2, eps^2)
    if v <= _LOG_FLOOR:
        grad[m + 1] = min(grad[m + 1], 0.0)
    return f, grad, (z, quad, sigma)


def _huber_hessian(point, grad, s, alpha):
    """PSD Hessian of the objective in theta = (w, c, log sigma) at the
    point _huber_objective_and_grad returned with grad.

    In (w, c, sigma) it is (2/sigma) * sum_quad v_i v_i^T with
    v_i = (x_i, 1, z_i), plus 2*alpha on the w block; rows in the
    absolute-loss regime carry no curvature.  The map to log sigma scales
    the last coordinate by sigma and adds the gradient term to its diagonal
    entry, clipped at zero so the matrix stays positive semidefinite.
    """
    z, quad, sigma = point
    m = s.shape[1]
    v = np.column_stack([s[quad], np.ones(quad.sum()), z[quad] * sigma])
    h = (2.0 / sigma) * (v.T @ v)
    h[np.arange(m), np.arange(m)] += 2.0 * alpha
    h[m + 1, m + 1] += max(grad[m + 1], 0.0)
    return h


def _floor_holds(z, quad, eps) -> bool:
    """Whether, at scaled residuals z = r / floor, sigma's minimizer with
    (w, c) held lies on the floor and the rows quad are the ones in the
    quadratic regime there.  f is convex in sigma, so the first holds when
    the floor's slope df/dsigma = n - sum_i min(z_i^2, eps^2) is
    nonnegative."""
    return len(z) >= np.minimum(z * z, eps * eps).sum() and ((np.abs(z) <= eps) == quad).all()


def _floor_probe(theta, f, point, s, a, eps, alpha):
    """One Newton step of the floor's (w, c) model from theta, landing on
    the floor (log sigma = _LOG_FLOOR): the point fit_huber accepts as
    (theta, f, grad, point), or None if it refuses it.

    The model keeps the regime of the current point: rows in the quadratic
    regime there are quadratic in (w, c) at sigma = floor, and the rest are
    linear with the sign of their residual.  The step is accepted only if f
    falls strictly and _floor_holds at the new point for the current
    regime, the same test as fit_huber's move onto the floor.
    """
    m = s.shape[1]
    z, quad = point[0], point[1]
    r = a - theta[m] - s @ theta[:m]
    hprime = np.where(quad, 2.0 * r / _SIGMA_FLOOR, 2.0 * eps * np.sign(r))
    g = np.concatenate([-(s.T @ hprime) + 2.0 * alpha * theta[:m], [-hprime.sum(), 0.0]])
    h = _huber_hessian((z, quad, _SIGMA_FLOOR), g, s, alpha)[: m + 1, : m + 1]
    cand = theta.copy()
    cand[m + 1] = _LOG_FLOOR
    try:
        cand[: m + 1] += np.linalg.solve(h, -g[: m + 1])
    except np.linalg.LinAlgError:
        cand[: m + 1] -= g[: m + 1]
    f_cand, g_cand, point_cand = _huber_objective_and_grad(cand, s, a, eps, alpha)
    if f_cand < f and _floor_holds(point_cand[0], quad, eps):
        return cand, f_cand, g_cand, point_cand
    return None


def fit_huber(s, a, cfg: SolverConfig = DEFAULT_CONFIG) -> WeightSolution:
    """Huber regression with a jointly optimized concomitant scale.

    Minimizes sum_i [sigma + H_eps(r_i/sigma) * sigma] + alpha * ||w||^2 over
    (weights, intercept, sigma > 0) by a damped Newton method on the
    piecewise-quadratic objective in theta = (w, c, log sigma): each step
    solves (H + D) d = -g with the analytic Hessian, and the damping mu in D
    shrinks after a full step and grows after a shortened one.  The target
    is normalized by max|a| internally (with alpha rescaled so the objective
    is unchanged), keeping the iteration scale-equivariant; the convergence
    test is on the normalized objective's gradient norm.

    On a wide design with a ridge (alpha > 0, fewer students than answered
    questions) the fit first tries the ridge fit that f is with sigma on its
    floor and every row quadratic (Hoerl & Kennard 1970): w = S_c^T (S_c
    S_c^T + floor * alpha I)^-1 (a - mean a), S_c the column-centered design,
    kept if it passes the stop test.  A question no student scored on gets
    weight exactly 0.

    sigma >= floor * max|a| is a plain bound on log sigma, handled as in a
    projected Newton method (Bertsekas, "Projected Newton methods for
    optimization problems with simple constraints", 1982), and f is convex
    in sigma with (w, c) held:

    * Held on the floor: sigma sits on the floor while f's slope points
      below it.  The gradient then leaves sigma's entry out (so a fit stops
      there on the KKT conditions), and the Newton step solves for (w, c)
      alone, whose quadratic model is then exact while no row changes
      regime.  A line-search trial below the floor is projected onto it.
    * The floor test (_floor_holds): the slope df/dsigma = n - sum_i
      min(z_i^2, eps^2) at the floor is nonnegative, so sigma's minimizer
      with (w, c) held lies on it, and the rows in the quadratic regime stay
      the same there.  When sigma is falling and the test holds at the
      current (w, c), sigma moves exactly onto the floor and mu resets to 0.
    * The floor probe (_floor_probe): the floor test sees only the current
      (w, c), and the bounded steps below carry a falling sigma down by at
      most a factor of e per step.  So on a wide design with a ridge, when
      sigma is falling and the test fails after at least one accepted step,
      the fit tries one Newton solve of the floor's (w, c) model in the
      current regime, landing on the floor, and keeps it if f falls strictly
      and the floor test holds there for that regime; mu then resets to 0.
      A refused probe is not retried until the regime changes.  Each probe
      counts as a Newton solve and an evaluation, toward
      huber_max_iterations too.  For alpha > 0 the objective is jointly
      convex in (w, c, sigma), as a perspective function (Owen, "A robust
      hybrid of lasso and ridge regression", 2007), so the probe moves where
      the fit stops within the tolerance, not its minimizer.

    Each step is bounded in log sigma, as a trust region bounds it (More &
    Sorensen, "Computing a trust region step", 1983): a Newton step with
    |d_sigma| > 1 is scaled by 1/|d_sigma|, so sigma changes by at most a
    factor of e per step instead of the line search halving an overshoot
    from far outside.  The (w, c) diagonal is damped by max(mu, 1e-10 * max
    diag of the system solved), on the floor and off it, and log sigma's by
    mu alone: at alpha = 0 on a wide design the w block is singular, and
    once mu has decayed to 0 an undamped solve of it fails or returns a
    useless step along its null space.  Held on the floor, where the model
    is exact, the step is solved twice, the second time with the first step
    as the damping's center (iterated Tikhonov): that removes the damping's
    bias along every direction the block does not nearly annihilate, so the
    step lands on the minimizer as an undamped one would, and it at most
    doubles along a null space.

    A step is accepted on an Armijo strict decrease along the projected
    step, or when the objective stays within its rounding error and the
    gradient norm falls, so f at the accepted iterates is nonincreasing up
    to rounding.  That error is the one the residuals carry into the sum,
    far above f's own spacing when sigma is small: eps * sum_i |dH/dz_i| *
    (|a_i| + |c| + |x_i| . |w|), or 4 ulps of f if that is larger.  The fit
    reports why it stopped in stop_reason:

    * "gradient": the gradient norm fell below HUBER_TOLERANCE (converged);
    * "stalled": 60 step halvings found no acceptable point;
    * "iteration_cap": huber_max_iterations Newton solves were made.

    Neither of the last two is fatal: the last accepted iterate, the best up
    to rounding, is returned with converged=False and its gradient norm.
    evaluations counts every objective evaluation: the starts tried,
    line-search trials, moves onto the floor and floor probes.
    """
    s, a = _check_design(s, a)
    n, m = s.shape
    eps = cfg.huber_epsilon

    # a zero target is fit as it stands: sigma moves onto the floor, and the
    # fit stops there with w = 0 and c = 0
    scale = float(np.max(np.abs(a))) or 1.0
    at = a / scale
    alpha = cfg.huber_regularization * scale

    starts = []
    wide = alpha > 0 and n < np.count_nonzero(s.any(axis=0))
    if wide:  # the ridge fit on the floor, every row quadratic
        centered = s - s.mean(axis=0)
        kernel = centered @ centered.T + _SIGMA_FLOOR * alpha * np.eye(n)
        with contextlib.suppress(np.linalg.LinAlgError):
            w = centered.T @ np.linalg.solve(kernel, at - at.mean())
            starts.append(np.concatenate([w, [at.mean() - s.mean(axis=0) @ w, _LOG_FLOOR]]))
    cold = np.zeros(m + 2)
    cold[m:] = at.mean(), np.log(_SIGMA_FLOOR + max(np.std(at - at.mean()), 1e-3))
    # the ridge fit is kept only if it passes the stop test
    for evaluations, theta in enumerate((*starts, cold), start=1):
        f, g, point = _huber_objective_and_grad(theta, s, at, eps, alpha)
        gnorm = math.sqrt(g @ g)
        if gnorm < HUBER_TOLERANCE:
            break
    mu = 0.0
    it = 0
    refused = None  # the regime of the last refused floor probe
    abs_s = np.abs(s)
    while True:
        z, quad, sigma = point
        probe = False
        if theta[m + 1] > _LOG_FLOOR and g[m + 1] > 0.0:  # sigma is falling
            if _floor_holds(z * (sigma / _SIGMA_FLOOR), quad, eps):
                theta[m + 1] = _LOG_FLOOR  # f falls: no acceptance test
                f, g, point = _huber_objective_and_grad(theta, s, at, eps, alpha)
                evaluations += 1
                gnorm = math.sqrt(g @ g)
                mu = 0.0
            else:  # the floor may still hold a minimizer for another (w, c)
                probe = wide and it > 0 and not np.array_equal(quad, refused)
        if gnorm < HUBER_TOLERANCE:
            stop_reason = STOP_GRADIENT
            break
        if it == cfg.huber_max_iterations:
            stop_reason = STOP_ITERATION_CAP
            break
        it += 1
        if probe:  # a Newton solve and an evaluation of its own
            evaluations += 1
            landed = _floor_probe(theta, f, point, s, at, eps, alpha)
            if landed is None:
                refused = point[1]
            else:
                theta, f, g, point = landed
                gnorm = math.sqrt(g @ g)
                mu = 0.0
            continue
        # held on the floor, the Newton system is the (w, c) block alone
        k = m + 1 if theta[m + 1] == _LOG_FLOOR and g[m + 1] == 0.0 else m + 2
        h = _huber_hessian(point, g, s, alpha)[:k, :k]
        mu_floor = 1e-10 * h.diagonal().max()
        damping = np.full(k, max(mu, mu_floor))
        damping[m + 1:] = mu  # log sigma's own entry, when free
        d = np.zeros(m + 2)
        h += np.diag(damping)
        try:  # held, the model is exact: a second solve undoes the damping's bias
            for _ in range(2 if k == m + 1 else 1):
                d[:k] = np.linalg.solve(h, damping * d[:k] - g[:k])
        except np.linalg.LinAlgError:
            d[:k] = -g[:k]
        if abs(d[m + 1]) > 1.0:
            d /= abs(d[m + 1])  # sigma changes by at most a factor of e
        # f's rounding error: that of the residuals it sums, or 4 ulps of f
        r_size = np.abs(at) + abs(theta[m]) + abs_s @ np.abs(theta[:m])
        dh = np.where(point[1], 2.0 * np.abs(point[0]), 2.0 * eps)
        noise = max(4.0 * np.spacing(f), np.finfo(float).eps * (dh @ r_size))
        t = 1.0
        for _ in range(60):
            cand = theta + t * d
            cand[m + 1] = max(cand[m + 1], _LOG_FLOOR)  # a trial below the floor lands on it
            f_cand, g_cand, point_cand = _huber_objective_and_grad(cand, s, at, eps, alpha)
            evaluations += 1
            g_cand_norm = math.sqrt(g_cand @ g_cand)
            if (f_cand < f and f_cand <= f + 1e-4 * (g @ (cand - theta))) or (
                f_cand <= f + noise and g_cand_norm < gnorm
            ):
                break
            t *= 0.5
        else:
            stop_reason = STOP_STALLED
            break
        mu = mu / 4.0 if t == 1.0 else max(4.0 * mu, mu_floor)
        theta, f, g, gnorm, point = cand, f_cand, g_cand, g_cand_norm, point_cand

    return WeightSolution(
        question_weights=theta[:m] * scale,
        intercept=float(theta[m] * scale),
        iterations=it,
        evaluations=evaluations,
        sigma=float(point[2] * scale),
        gradient_norm=gnorm,
        stop_reason=stop_reason,
    )


def fit_nnls(s, a, cfg: SolverConfig = DEFAULT_CONFIG, *, start=None) -> WeightSolution:
    """Nonnegative least squares, min ||S w - a|| s.t. w >= 0: the
    least-norm optimum where the closed form below finds it, else the
    Lawson-Hanson active-set solution.

    No bias column is added (a nonnegative intercept would distort weights);
    the intercept is fixed at 0.  Candidate selection ties are broken toward
    the smallest column index for determinism.

    On a wide design (fewer students than answered questions) and without
    start, the fit first tries a closed form: the minimum-norm least-squares
    solution w = linalg.solve_min_norm(S, a), with every entry within
    linalg.LOO_RTOL * max|w| of 0 set to +0.0.  It keeps w, with 0
    iterations, when w >= 0 and w passes the active-set loop's stop test on
    every coordinate, S^T (a - S w) <= NNLS_TOLERANCE; otherwise the
    active-set loop runs, as on a tall design.  A kept w is the least-norm
    optimum: it minimizes ||S w - a|| with no constraint, so it is optimal
    among w >= 0, and every other optimum is a least-squares solution too,
    none of which has a smaller norm (Lawson & Hanson 1974, ch. 23; Bjorck
    1996, section 1.2).  A wide design's optima need not be unique, and the
    loop returns the vertex its path reaches.

    With start, a weight vector that guesses the answer (leave_one_out_fits
    states which fits get one), the first passive set is start's positive
    weights: the fit solves on it and drops the nonpositive coordinates
    until the solution is feasible, then runs the active-set loop from there
    (passive-set reuse, Bro & De Jong 1997).  Those solves count in
    iterations and toward the cap, and the stopping test on S^T (a - S w) is
    unchanged.  Where the optimum is unique, as when S has full column rank,
    the start therefore changes the work and not the answer; pass a start
    only there.

    Each passive-set solve is linalg.solve_min_norm on S's passive columns.
    The fit forms G = S^T S once and hands each solve its passive block
    G[P, P]: the solve then takes the corrected seminormal equations, one
    refinement step on top of G[P, P] x = S_P^T a, and falls back to an SVD
    when its error estimate passes linalg.LOO_RTOL or the block is
    singular.  This holds for a wide S too: Lawson-Hanson keeps the passive
    columns linearly independent (Lawson & Hanson 1974, ch. 23), so a
    passive block of a wide design is as usable as one of a tall design.

    Raises ConvergenceError past the cap, and when the largest gradient
    entry of the weights held at zero is not finite, as when S^T a
    overflows.
    """
    s, a = _check_design(s, a)
    m = s.shape[1]
    if start is None and len(s) < np.count_nonzero(s.any(axis=0)):
        w = linalg.solve_min_norm(s, a)
        allowance = linalg.LOO_RTOL * np.abs(w).max()
        if w.min() >= -allowance:
            w[w <= allowance] = 0.0  # +0.0, also where w held -0.0
            if (s.T @ (a - s @ w)).max() <= NNLS_TOLERANCE:
                return WeightSolution(question_weights=w, intercept=0.0)
    max_iter = nnls_iteration_cap(m)
    gram = s.T @ s

    x = np.zeros(m)
    passive = np.zeros(m, dtype=bool)
    iterations = 0

    def passive_solve():
        nonlocal iterations
        iterations += 1
        if iterations > max_iter:
            raise ConvergenceError(f"NNLS exceeded iteration cap of {max_iter}")
        z = np.zeros(m)
        cols = passive.nonzero()[0]
        z[cols] = linalg.solve_min_norm(s[:, cols], a, gram=gram.take(cols, 0).take(cols, 1))
        return z

    if start is not None:
        start = linalg.as_vector(start)
        if len(start) != m:
            raise ValueError(f"dimension mismatch: {m} score columns vs {len(start)} start weights")
        passive = start > 0
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
        if not math.isfinite(wmax):  # S^T a or S w overflowed
            raise ConvergenceError(
                f"NNLS gradient S^T (a - S w) is not finite: {wmax} at the weights held at zero"
            )
        if wmax <= NNLS_TOLERANCE:
            break
        # the first column whose gradient is within NNLS_TOLERANCE of the largest
        passive[(inactive & (grad >= wmax - NNLS_TOLERANCE)).argmax()] = True
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

    return WeightSolution(
        question_weights=x,
        intercept=0.0,
        iterations=iterations,
    )


def baseline_uniform(n_questions: int) -> WeightSolution:
    """Every question worth 100 / n_questions points; intercept 0."""
    if n_questions < 1:
        raise ValueError("need at least one question")
    return WeightSolution(
        question_weights=np.full(n_questions, 100.0 / n_questions), intercept=0.0
    )


def baseline_actual(points) -> WeightSolution:
    """Weights equal the declared per-question maximum points; intercept 0."""
    points = linalg.as_vector(points)
    if not np.all(points > 0):
        raise ValueError("all question points must be positive")
    return WeightSolution(question_weights=points.copy(), intercept=0.0)


def predict(sol: WeightSolution, s) -> np.ndarray:
    """Weighted exam score per student: intercept + S @ weights."""
    s = linalg.as_matrix(s)
    if s.shape[1] != len(sol.question_weights):
        raise ValueError(
            f"dimension mismatch: {s.shape[1]} score columns vs "
            f"{len(sol.question_weights)} weights"
        )
    return sol.intercept + s @ sol.question_weights


# Each entry is called as fitter(s, a, cfg) for one fit, and looked up here by
# leave_one_out_fits at each leave-one-out run, so a replaced or wrapped
# entry is the one used.  leave_one_out_fits reads an entry's signature: one
# that takes leave_one_out is first called once with every column (the
# min-norm fitters answer it from one SVD of any design), and per fold only
# when that returns None, as it does when the accuracy guard declines the
# design; one that takes start (fit_nnls) gets start= weights for the fits
# that leave_one_out_fits names.  A functools.wraps wrapper reports the
# signature of the fitter it wraps, so it must pass these keywords through.
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


def leave_one_out_fits(
    solver: str, s, targets, cfg: SolverConfig = DEFAULT_CONFIG
) -> list[list[WeightSolution]]:
    """Every leave-one-out fold fit of FITTERS[solver], [column][fold]: fold
    k of a column is trained on all rows of s and of that column but k.

    targets is a finite n-by-k matrix, n >= 2, with one target per column,
    and s must be a finite n-row design; both are checked before any fit.
    The entry is looked up when the run starts, and its signature sets the
    run (the comment above FITTERS):

    * An entry that takes leave_one_out is first called once with every
      column.  For ols_closed_form and linear_intercept that gives every
      fold of every column from one SVD of the design, whatever its shape or
      rank (linalg.loo_min_norm), unless the accuracy guard declines it.
    * Then, and for the other solvers, each fold is fit on its own, once per
      distinct column: columns with the same bytes (so -0.0 and 0.0 differ)
      share the folds of the first of them, as the actual and normalized
      targets do when the overall mean equals the exam's.
    * An entry that takes start (nnls) starts each fold that
      linalg.loo_full_column_rank certifies: one whose Gram matrix passes
      the conditioning test that linalg.solve_min_norm applies to every
      Gram solve, so it has full column rank and a unique optimum.  When any
      fold is certified, the full cohort of each distinct column is fit
      first, starting from the column's least-squares solution.  Each
      certified fold starts from its own least-squares solution on the
      support of that fit, all of them from one linalg.loo_min_norm
      downdate; when its guard declines, or the support is empty, they start
      cold.  A start changes the work, not the weights, and a fit whose
      start passes the iteration cap is refit cold.  The other folds, and
      every fold of a column whose full fit fails, start cold.

    A fold's ConvergenceError or DataError is re-raised with the fold in its
    message and, in its ``column`` attribute, the index of the first column
    equal to the target that failed.
    """
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 2:
        raise ValueError(f"targets must be an n-by-k matrix, got shape {targets.shape}")
    if len(targets) < 2:
        raise ValueError("leave-one-out needs at least 2 students")
    if not np.isfinite(targets).all():
        raise ValueError("target entries must be finite")
    if solver not in FITTERS:
        raise ValueError(f"unknown solver {solver!r}; registered: {', '.join(FITTERS)}")
    s, targets = _check_design(s, targets, np.asarray)
    fitter = FITTERS[solver]
    parameters = inspect.signature(fitter).parameters
    if "leave_one_out" in parameters:
        columns = fitter(s, targets, cfg, leave_one_out=True)
        if columns is not None:
            return columns
    warm = linalg.loo_full_column_rank(s) if "start" in parameters else np.zeros(len(s), bool)
    fits = {}  # a column's bytes -> the folds of the first column with them
    for t, a in enumerate(targets.T):
        if a.tobytes() not in fits:
            fits[a.tobytes()] = _fold_fits(s, a, fitter, cfg, t, warm)
    return [fits[a.tobytes()] for a in targets.T]


def _fold_fits(s, a, fitter, cfg, column, warm) -> list[WeightSolution]:
    """Every fold's fit; fold k starts warm if warm[k] (``_warm_starts``)."""
    n = len(a)
    starts = _warm_starts(s, a, fitter, cfg, warm) if warm.any() else [None] * n
    folds = []
    for k in range(n):
        keep = np.arange(n) != k
        try:
            folds.append(_fit(fitter, s[keep], a[keep], cfg, starts[k]))
        except (ConvergenceError, DataError) as exc:
            err = with_context(exc, f"fold {k}")
            err.column = column
            raise err from exc
    return folds


def _warm_starts(s, a, fitter, cfg, warm) -> list[np.ndarray | None]:
    """Per fold, its start weights, None unless warm[k] (``leave_one_out_fits``
    states the rule)."""
    try:
        full = _fit(fitter, s, a, cfg, linalg.solve_min_norm(s, a, gram=s.T @ s))
        support = full.question_weights > 0
    except ConvergenceError:
        support = np.zeros(s.shape[1], dtype=bool)  # every fold starts cold
    loo = linalg.loo_min_norm(s[:, support], a[:, None]) if support.any() else None
    if loo is None:
        return [None] * len(a)
    weights = np.zeros((len(a), s.shape[1]))
    weights[:, support] = loo[:, :, 0]
    return [x if w else None for x, w in zip(weights, warm)]


def _fit(fitter, s, a, cfg, start) -> WeightSolution:
    """fitter's fit from start, or a cold one when start is None or its fit
    fails: a start's extra solves may pass the iteration cap."""
    if start is not None:
        with contextlib.suppress(ConvergenceError):
            return fitter(s, a, cfg, start=start)
    return fitter(s, a, cfg)
