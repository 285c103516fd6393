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

from dataclasses import dataclass

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
# the problem stays well-posed and twice differentiable.  fit_huber treats
# it as a bound that sigma can sit on, not a limit approached along u.
_SIGMA_FLOOR = 1e-4

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
    + alpha * ||w||^2 with sigma = floor + exp(u), theta = (w, c, u), its
    gradient, and the point (z, quad, sigma, exp(u)) that _huber_hessian
    reads: the scaled residuals z = r / sigma and which are in the quadratic
    regime.  u = -inf puts sigma exactly on the floor, with a zero u gradient.
    """
    n, m = s.shape
    w, c, u = theta[:m], theta[m], theta[m + 1]
    if u > 30.0:  # absurd scale for a normalized target; reject in line search
        return np.inf, np.zeros(m + 2), None
    exp_u = np.exp(u)
    sigma = _SIGMA_FLOOR + exp_u
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
    grad[m + 1] = (n - np.minimum(z * z, eps * eps).sum()) * exp_u
    return f, grad, (z, quad, sigma, exp_u)


def _scale_minimizer(z, eps):
    """The sigma, in units of the scale that gave z, that minimizes f with
    (w, c) held: the root of n - sum_i min(z_i^2 / sigma^2, eps^2), found
    among the counts of rows in the absolute-loss regime."""
    q = np.sort(z * z)[::-1]
    n = len(q)
    room = n - eps * eps * np.arange(n)  # the rows after the first L are quadratic
    with np.errstate(divide="ignore", invalid="ignore"):
        s2 = np.cumsum(q[::-1])[::-1] / room
    bound = eps * eps * s2
    fits = (room > 0) & (q <= bound) & (np.concatenate([[np.inf], q[:-1]]) > bound)
    return float(np.sqrt(s2[np.argmax(fits)]))


def _huber_hessian(point, grad, s, alpha):
    """PSD Hessian of the objective in theta = (w, c, u) at the point
    _huber_objective_and_grad returned with grad.

    In (w, c, sigma) it is (2/sigma) * sum_quad v_i v_i^T with
    v_i = (x_i, 1, z_i), plus 2*alpha on the w block; rows in the
    absolute-loss regime carry no curvature.  The map to u scales the last
    coordinate by exp(u) and adds the gradient term to H_uu, clipped at zero
    so the matrix stays positive semidefinite.
    """
    z, quad, sigma, exp_u = point
    m = s.shape[1]
    v = np.column_stack([s[quad], np.ones(quad.sum()), z[quad] * exp_u])
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
    return len(z) >= np.minimum(z * z, eps * eps).sum() and np.array_equal(
        np.abs(z) <= eps, quad
    )


def _floor_probe(theta, f, point, s, a, eps, alpha):
    """One Newton step of the floor's (w, c) model from theta, landing on
    the floor (u = -inf): the point fit_huber accepts as (theta, f, grad,
    point), or None if it refuses it.

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
    g = np.zeros(m + 2)
    g[:m] = -(s.T @ hprime) + 2.0 * alpha * theta[:m]
    g[m] = -hprime.sum()
    h = _huber_hessian((z, quad, _SIGMA_FLOOR, 0.0), g, s, alpha)[: m + 1, : m + 1]
    cand = theta.copy()
    cand[m + 1] = -np.inf
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
    piecewise-quadratic objective: each step solves (H + mu*I) d = -g with
    the analytic Hessian, and mu shrinks after a full step and grows after a
    shortened one.  The target is normalized by max|a| internally (with
    alpha rescaled so the objective is unchanged), keeping the iteration
    scale-equivariant; the convergence test is on the normalized objective's
    gradient norm.

    With a ridge (alpha > 0) every stationary w lies in the row space of
    S's nonzero columns (the representer theorem; Kimeldorf & Wahba 1971).
    When that space is smaller than the number of those columns, as on a
    wide design, the fit factors S_used^T = Q R with Q orthonormal, and runs
    the same iteration on the n-by-n design R^T in coordinates y, w_used =
    Q y.  The objective is the same (S w = R^T y and ||w|| = ||y||), and so
    are the gradient norm and the stop rules.  A question no student scored
    on gets weight exactly 0.  At alpha = 0 the fit runs on S itself.

    sigma >= floor * max|a| is a bound (Bertsekas, "Projected Newton methods
    for optimization problems with simple constraints", 1982), and f is
    convex in sigma with (w, c) held.  Each rule of the bound is stated
    once:

    * The floor test (_floor_holds): the slope df/dsigma = n - sum_i
      min(z_i^2, eps^2) at the floor is nonnegative, so sigma's minimizer
      with (w, c) held lies on it, and the rows in the quadratic regime stay
      the same there.  When sigma is falling and the test holds at the
      current (w, c), sigma moves exactly onto the floor (u = -inf), mu
      resets to 0, and the Newton steps solve for (w, c) alone, whose
      quadratic model is then exact while no row changes regime.  A sigma
      that equals the floor in floating point is on it: u = -inf, and its u
      gradient is 0.
    * The scale move: when the gradient norm is below HUBER_TOLERANCE but
      the slope in log(sigma), g_u * sigma / exp(u), is not, sigma moves to
      its minimizer with (w, c) held, the root of the slope, or onto the
      floor if that root lies below it; a sigma on the floor stays there.
      On the floor exp(u) = 0, so this is the floor's KKT test: a fit stops
      there only at a small (w, c) gradient and a nonnegative slope.  Off
      it, the test keeps a sigma just above the floor from hiding its slope
      behind exp(u) = sigma - floor.
    * The floor probe (_floor_probe): the floor test sees only the current
      (w, c), and the bounded u steps below carry a falling sigma down by at
      most a factor of e per step.  So on the row-space route, when sigma is
      falling and the test fails after at least one accepted step, the fit
      tries one Newton solve of the floor's (w, c) model in the current
      regime, landing at u = -inf, and keeps it if f falls strictly and the
      floor test holds there for that regime; sigma then sits on the floor
      with mu = 0.  A refused probe is not retried until the regime changes.
      Each probe counts as a Newton solve and an evaluation, toward
      huber_max_iterations too.  For alpha > 0 the objective is jointly
      convex in (w, c, sigma), as a perspective function (Owen, "A robust
      hybrid of lasso and ridge regression", 2007), so the probe moves where
      the fit stops within the tolerance, not its minimizer.

    Off the floor, each step is bounded in u, as a trust region bounds it
    (More & Sorensen, "Computing a trust region step", 1983): a Newton step
    with |d_u| > 1 is scaled by 1/|d_u|, so sigma changes by at most a
    factor of e per step instead of the line search halving an overshoot
    from far outside.  The damping of the (w, c) diagonal there is at least
    1e-10 * max diag of the system solved (in y on the row-space route), and
    u's is mu alone: at alpha = 0 on a wide design the w block is singular,
    and once mu has decayed to 0 an undamped solve of it fails or returns a
    useless step.  On the floor the (w, c) solve is damped by mu alone, so
    its exact Newton steps land on the minimizer.

    A step is accepted on an Armijo strict decrease, or when the objective
    stays within its rounding error and the gradient norm falls, so f at the
    accepted iterates is nonincreasing up to rounding.  That error is the
    one the residuals carry into the sum, far above f's own spacing when
    sigma is small: eps * sum_i |dH/dz_i| * (|a_i| + |c| + |x_i| . |w|), or
    4 ulps of f if that is larger.  The fit reports why it stopped in
    stop_reason:

    * "gradient": the gradient norm fell below HUBER_TOLERANCE (converged);
    * "stalled": 60 step halvings found no acceptable point, and the step
      was already damped (a failed search with mu below the damping floor
      is retried with mu raised to it);
    * "iteration_cap": huber_max_iterations Newton solves were made.

    Neither of the last two is fatal: the last accepted iterate, the best up
    to rounding, is returned with converged=False and its gradient norm.
    evaluations counts every objective evaluation, line-search trials and
    moves onto or off the floor included.
    """
    s, a = _check_design(s, a)
    n, m = s.shape
    eps = cfg.huber_epsilon

    scale = float(np.max(np.abs(a)))
    if scale == 0.0:
        return WeightSolution(
            question_weights=np.zeros(m),
            intercept=0.0,
            sigma=_SIGMA_FLOOR,
            gradient_norm=0.0,
            stop_reason=STOP_GRADIENT,
        )
    at = a / scale
    # On the normalized problem the original objective becomes
    # scale * (huber part + alpha*scale*||w_t||^2), so alpha picks up a factor.
    alpha = cfg.huber_regularization * scale

    # With a ridge the minimizer's w lies in the row space of S's nonzero
    # columns; on a wide design the fit runs in coordinates y of that space.
    used = s.any(axis=0)
    basis = None
    if alpha > 0 and n < used.sum():
        basis, r = np.linalg.qr(s[:, used].T)
        s = r.T
    full_m, m = m, s.shape[1]

    theta = np.zeros(m + 2)
    theta[m] = at.mean()
    sigma0 = float(np.std(at - theta[m]))
    theta[m + 1] = np.log(max(sigma0, 1e-3))

    f, g, point = _huber_objective_and_grad(theta, s, at, eps, alpha)
    evaluations = 1
    gnorm = float(np.linalg.norm(g))
    mu = 0.0
    it = 0
    at_floor = stepped = False
    refused = None  # the regime of the last refused floor probe
    abs_s = np.abs(s)
    while True:
        u = None
        probe = False
        if not at_floor and point[2] == _SIGMA_FLOOR:
            # sigma is the floor in floating point, and the u gradient has
            # vanished with exp(u): sit on the floor, where KKT is tested
            theta[m + 1], g[m + 1], at_floor, mu = -np.inf, 0.0, True, 0.0
            gnorm = float(np.linalg.norm(g))
        z, quad, sigma, _ = point
        if not at_floor and g[m + 1] > 0.0:
            if _floor_holds(z * (sigma / _SIGMA_FLOOR), quad, eps):
                u = -np.inf
            else:  # the floor may still hold a minimizer for another (w, c)
                probe = basis is not None and stepped and not np.array_equal(quad, refused)
        # (w, c) is stationary but sigma's slope in log(sigma) is not small,
        # as on the floor, where exp(u) = 0: sigma moves to its minimizer
        # with (w, c) held, and one on the floor stays there
        if (u is None and gnorm < HUBER_TOLERANCE
                and abs(g[m + 1]) * sigma >= HUBER_TOLERANCE * np.exp(theta[m + 1])):
            above = _scale_minimizer(z, eps) * sigma - _SIGMA_FLOOR
            if above > 0.0:
                u = np.log(above)
            elif not at_floor:
                u = -np.inf
        if u is not None:  # f falls, so the move needs no acceptance test
            theta[m + 1] = u
            f, g, point = _huber_objective_and_grad(theta, s, at, eps, alpha)
            evaluations += 1
            gnorm = float(np.linalg.norm(g))
            mu = 0.0
            at_floor = u == -np.inf
        if gnorm < HUBER_TOLERANCE:
            stop_reason = STOP_GRADIENT
            break
        if it == cfg.huber_max_iterations:
            stop_reason = STOP_ITERATION_CAP
            break
        it += 1
        if probe and u is None:  # a Newton solve and an evaluation of its own
            evaluations += 1
            landed = _floor_probe(theta, f, point, s, at, eps, alpha)
            if landed is None:
                refused = point[1]
            else:
                theta, f, g, point = landed
                gnorm = float(np.linalg.norm(g))
                at_floor, mu = True, 0.0
            continue
        # on the floor the Newton system is the (w, c) block alone
        k = m + 1 if at_floor else m + 2
        h = _huber_hessian(point, g, s, alpha)[:k, :k]
        mu_floor = 1e-10 * h.diagonal().max()
        damping = np.full(k, mu)
        if not at_floor:  # the (w, c) block may be singular; u keeps mu alone
            damping[: m + 1] = max(mu, mu_floor)
        d = np.zeros(m + 2)
        try:
            d[:k] = np.linalg.solve(h + np.diag(damping), -g[:k])
        except np.linalg.LinAlgError:
            d[:k] = -g[:k]
        if not at_floor and abs(d[m + 1]) > 1.0:
            d /= abs(d[m + 1])  # sigma changes by at most a factor of e
        slope = g @ d
        # f's rounding error: that of the residuals it sums, or 4 ulps of f
        z, quad = point[0], point[1]
        r_size = np.abs(at) + abs(theta[m]) + abs_s @ np.abs(theta[:m])
        dh = np.where(quad, 2.0 * np.abs(z), 2.0 * eps)
        noise = max(4.0 * np.spacing(f), np.finfo(float).eps * (dh @ r_size))
        t = 1.0
        for _ in range(60):
            cand = theta + t * d
            f_cand, g_cand, point_cand = _huber_objective_and_grad(cand, s, at, eps, alpha)
            evaluations += 1
            g_cand_norm = float(np.linalg.norm(g_cand))
            if (f_cand < f and f_cand <= f + 1e-4 * t * slope) or (
                f_cand <= f + noise and g_cand_norm < gnorm
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
        theta, f, g, gnorm, point = cand, f_cand, g_cand, g_cand_norm, point_cand
        stepped = True

    w = theta[:m]
    if basis is not None:
        w = np.zeros(full_m)
        w[used] = basis @ theta[:m]
    return WeightSolution(
        question_weights=w * scale,
        intercept=float(theta[m] * scale),
        iterations=it,
        evaluations=evaluations,
        sigma=float(point[2] * scale),
        gradient_norm=gnorm,
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

    Each passive-set solve is linalg.solve_min_norm on S's passive columns.
    The fit forms G = S^T S once and hands each solve its passive block
    G[P, P]: the solve then takes the corrected seminormal equations, one
    refinement step on top of G[P, P] x = S_P^T a, and falls back to an SVD
    when its error estimate passes linalg.LOO_RTOL or the block is
    singular.  This holds for a wide S too: Lawson-Hanson keeps the passive
    columns linearly independent (Lawson & Hanson 1974, ch. 23), so a
    passive block of a wide design is as usable as one of a tall design.
    """
    s, a = _check_design(s, a)
    m = s.shape[1]
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
        z[passive] = linalg.solve_min_norm(s[:, passive], a, gram=gram[passive][:, passive])
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
