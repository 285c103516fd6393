import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from examweight import experiment, gradebook as gb, solvers, synthetic
from examweight.solvers import _SIGMA_FLOOR, SolverConfig, _huber_objective_and_grad


def concomitant_objective(s, a, w, c, sigma, eps, alpha):
    r = a - c - s @ np.atleast_1d(w)
    z = r / sigma
    h = np.where(np.abs(z) <= eps, z * z, 2 * eps * np.abs(z) - eps * eps)
    return len(a) * sigma + sigma * h.sum() + alpha * np.dot(w, w)


def grid_minimize(s, a, eps, w_range, c_range, sigma_range, rounds=4, pts=21):
    """Independent oracle: iterative grid refinement over (w, c, sigma)."""
    best = None
    for _ in range(rounds):
        ws = np.linspace(*w_range, pts)
        cs = np.linspace(*c_range, pts)
        sigmas = np.linspace(*sigma_range, pts)
        for w in ws:
            for c in cs:
                for sig in sigmas:
                    f = concomitant_objective(s, a, np.array([w]), c, sig, eps, 0.0)
                    if best is None or f < best[0]:
                        best = (f, w, c, sig)
        _, w0, c0, sig0 = best
        dw = (w_range[1] - w_range[0]) / 10
        dc = (c_range[1] - c_range[0]) / 10
        ds = (sigma_range[1] - sigma_range[0]) / 10
        w_range = (w0 - dw, w0 + dw)
        c_range = (c0 - dc, c0 + dc)
        sigma_range = (max(sig0 - ds, 1e-6), sig0 + ds)
    return best


class TestFitHuber:
    def test_exact_fit_recovers_truth(self):
        rng = np.random.default_rng(0)
        s = rng.random((12, 3))
        w_true = np.array([5.0, -2.0, 3.0])
        a = s @ w_true + 4.0
        cfg = SolverConfig(huber_regularization=0.0)
        sol = solvers.fit_huber(s, a, cfg)
        np.testing.assert_allclose(solvers.predict(sol, s), a, atol=1e-6)
        np.testing.assert_allclose(sol.question_weights, w_true, atol=1e-5)
        assert sol.intercept == pytest.approx(4.0, abs=1e-5)
        # concomitant scale collapses to its lower bound on exact-fit data
        assert sol.sigma < 1e-3 * np.max(np.abs(a))

    def test_zero_target(self):
        sol = solvers.fit_huber(np.eye(3), np.zeros(3))
        np.testing.assert_array_equal(sol.question_weights, 0.0)
        assert sol.intercept == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_huge_epsilon_degenerates_to_intercept_solver(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 25, 4
        s = rng.random((n, m))
        a = s @ (rng.standard_normal(m) * 5) + 3 + rng.standard_normal(n)
        cfg = SolverConfig(huber_epsilon=1e6, huber_regularization=0.0)
        h = solvers.fit_huber(s, a, cfg)
        lin = solvers.fit_linear_intercept(s, a)
        scale = max(1.0, np.max(np.abs(lin.question_weights)))
        assert np.max(np.abs(h.question_weights - lin.question_weights)) < 1e-6 * scale
        assert abs(h.intercept - lin.intercept) < 1e-6 * max(1.0, abs(lin.intercept))

    def test_outlier_fixture_more_robust_than_ols(self):
        x = np.arange(1.0, 9.0).reshape(-1, 1)
        a = x.ravel().copy()
        a[-1] = 100.0
        cfg = SolverConfig(huber_epsilon=1.35, huber_regularization=0.0)
        hub = solvers.fit_huber(x, a, cfg)
        ols = solvers.fit_linear_intercept(x, a)
        assert abs(hub.question_weights[0] - 1.0) < 0.05
        assert abs(ols.question_weights[0] - 1.0) > 1.0

    def test_outlier_fixture_matches_grid_oracle(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        a = np.array([1.0, 2.0, 3.0, 100.0])
        eps = 1.35
        cfg = SolverConfig(huber_epsilon=eps, huber_regularization=0.0)
        sol = solvers.fit_huber(x, a, cfg)
        f_sol = concomitant_objective(
            x, a, sol.question_weights, sol.intercept, sol.sigma, eps, 0.0
        )
        f_grid, w_g, c_g, _ = grid_minimize(
            x, a, eps, w_range=(-5, 35), c_range=(-40, 40), sigma_range=(0.01, 60)
        )
        assert f_sol <= f_grid + 1e-6 * abs(f_grid)
        assert sol.question_weights[0] == pytest.approx(w_g, abs=0.05)

    def test_objective_monotone_descent(self):
        # the fit capped at k steps returns the iterate after step k
        rng = np.random.default_rng(9)
        s = rng.random((10, 6))
        a = rng.random(10) * 100
        cfg = solvers.DEFAULT_CONFIG
        steps = solvers.fit_huber(s, a).iterations
        assert steps >= 2
        hist = []
        for cap in range(1, steps + 1):
            sol = solvers.fit_huber(s, a, SolverConfig(huber_max_iterations=cap))
            hist.append(concomitant_objective(
                s, a, sol.question_weights, sol.intercept, sol.sigma,
                cfg.huber_epsilon, cfg.huber_regularization,
            ))
        assert np.all(np.diff(hist) <= 1e-12 * np.abs(hist[:-1]))

    def test_iteration_cap_returns_best_iterate(self):
        rng = np.random.default_rng(10)
        s = rng.random((10, 6))
        a = rng.random(10) * 100
        cfg = SolverConfig(huber_max_iterations=3)
        sol = solvers.fit_huber(s, a, cfg)
        assert not sol.converged
        assert sol.stop_reason == solvers.STOP_ITERATION_CAP
        assert sol.iterations == 3
        assert sol.gradient_norm is not None

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        n, m = 7, 4
        s = rng.random((n, m))
        a = rng.random(n)
        theta = rng.standard_normal(m + 2) * 0.5
        f0, g, _ = _huber_objective_and_grad(theta, s, a, 1.8, 0.3)
        step = 1e-7
        for i in range(m + 2):
            d = np.zeros(m + 2)
            d[i] = step
            fp = _huber_objective_and_grad(theta + d, s, a, 1.8, 0.3)[0]
            fm = _huber_objective_and_grad(theta - d, s, a, 1.8, 0.3)[0]
            assert (fp - fm) / (2 * step) == pytest.approx(g[i], rel=1e-4, abs=1e-6)


def reference_objective_and_grad(theta, s, a, eps, alpha):
    """_huber_objective_and_grad in its plain form, one numpy call per term:
    the reference the solver's form must match bit for bit."""
    n, m = s.shape
    w, c, v = theta[:m], theta[m], theta[m + 1]
    sigma = np.exp(v) if v > solvers._LOG_FLOOR else _SIGMA_FLOOR
    r = a - c - s @ w
    z = r / sigma
    absz = np.abs(z)
    quad = absz <= eps
    h = np.where(quad, z * z, 2.0 * eps * absz - eps * eps)
    f = n * sigma + sigma * h.sum() + alpha * (w @ w)
    hprime = np.where(quad, 2.0 * z, 2.0 * eps * np.sign(z))
    grad = np.empty(m + 2)
    grad[:m] = -(s.T @ hprime) + 2.0 * alpha * w
    grad[m] = -hprime.sum()
    grad[m + 1] = (n - np.minimum(z * z, eps * eps).sum()) * sigma
    if v <= solvers._LOG_FLOOR:
        grad[m + 1] = min(grad[m + 1], 0.0)
    return f, grad, (z, quad, sigma)


def reference_hessian(point, grad, s, alpha):
    """_huber_hessian in its plain form, the reference for the solver's."""
    z, quad, sigma = point
    m = s.shape[1]
    v = np.column_stack([s[quad], np.ones(quad.sum()), z[quad] * sigma])
    h = (2.0 / sigma) * (v.T @ v)
    h[np.arange(m), np.arange(m)] += 2.0 * alpha
    h[m + 1, m + 1] += max(grad[m + 1], 0.0)
    return h


def assert_same_bits(x, y):
    np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(np.signbit(x), np.signbit(y))  # -0.0 is not 0.0


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("case", ["random", "at_the_kink", "on_the_floor", "zero_target"])
def test_objective_and_hessian_match_the_reference_bit_for_bit(seed, case):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 12)), int(rng.integers(1, 12))
    s = rng.random((n, m)) if seed % 2 else rng.integers(0, 2, (n, m)).astype(float)
    eps = float(rng.choice([1.8, 1.35, 1e6]))
    alpha = float(rng.choice([0.0, 0.1, 3.0]))
    theta = np.concatenate([rng.standard_normal(m + 1), [rng.uniform(-6.0, 1.0)]])
    a = s @ theta[:m] + theta[m] + rng.standard_normal(n) * 10 ** rng.uniform(-5, 1)
    if case == "at_the_kink":
        # rows of zeros with c = 0 make r = a exactly: some go to r = +-eps * sigma,
        # and eps becomes |r| / sigma, so that z lands on it
        theta[m] = 0.0
        sigma = np.exp(theta[m + 1])
        kinks = rng.random(n) < 0.6
        kinks[0] = True
        s[kinks] = 0.0
        a[kinks] = eps * sigma * rng.choice([-1.0, 1.0], kinks.sum())
        eps = float(abs(a[0]) / sigma)
    elif case == "on_the_floor":
        theta[m + 1] = float(rng.choice([solvers._LOG_FLOOR, solvers._LOG_FLOOR - 1.0]))
    elif case == "zero_target":
        a = np.zeros(n)
        theta[: m + 1] *= rng.random() < 0.5
    f, g, point = _huber_objective_and_grad(theta, s, a, eps, alpha)
    f_ref, g_ref, point_ref = reference_objective_and_grad(theta, s, a, eps, alpha)
    assert_same_bits(f, f_ref)
    assert_same_bits(g, g_ref)
    for x, y in zip(point, point_ref):
        assert_same_bits(x, y)
    if case == "at_the_kink":
        assert np.any(np.abs(point[0]) == eps)
    assert_same_bits(solvers._huber_hessian(point, g, s, alpha),
                     reference_hessian(point_ref, g_ref, s, alpha))
    z = point[0]
    for quad in (point[1], ~point[1]):
        assert solvers._floor_holds(z, quad, eps) == (
            len(z) >= np.minimum(z * z, eps * eps).sum() and np.array_equal(np.abs(z) <= eps, quad)
        )


def seed7_huber_folds(cfg):
    """Every Huber fold of evaluate on the default seed-7 cohort, both scales."""
    book = synthetic.generate_gradebook(synthetic.SyntheticSpec(seed=7))
    report = experiment.evaluate(book, "final", cfg, approaches=(solvers.HUBER,))
    return [f for rec in report.records for f in rec.fold_weights]


def distinct_fits(folds):
    """The fits among folds, each once: the seed-7 cohort's two targets are
    one, and its records share one set of folds."""
    return list({id(f): f for f in folds}.values())


def ladder_huber_folds(students):
    """Every Huber fold of a noisy seed-3 cohort's LOOCV, 4 targets (both
    scales, both exclusions)."""
    spec = synthetic.SyntheticSpec(seed=3, students=students, noise=4.0)
    report = experiment.evaluate(
        synthetic.generate_gradebook(spec), "final",
        exclusions=(gb.INCLUDE_EXAM, gb.EXCLUDE_EXAM), approaches=(solvers.HUBER,),
    )
    return [f for rec in report.records for f in rec.fold_weights]


class TestStopReason:
    def test_seed7_folds_stop_on_gradient(self):
        folds = seed7_huber_folds(solvers.DEFAULT_CONFIG)
        assert len(folds) == 18
        assert all(f.stop_reason == solvers.STOP_GRADIENT for f in folds)
        assert all(f.converged for f in folds)

    def test_seed7_folds_stop_on_the_scale_floor(self, monkeypatch):
        # the floor is a bound: sigma lands on it exactly, and the fit then
        # stops after one Newton step instead of a ~20-step tail toward it
        fits = []

        def recording(s, a, cfg):
            fits.append((a, solvers.fit_huber(s, a, cfg)))
            return fits[-1][1]

        monkeypatch.setitem(solvers.FITTERS, solvers.HUBER, recording)
        seed7_huber_folds(solvers.DEFAULT_CONFIG)
        assert len(fits) == 9  # both scales' targets are one, fit once
        for a, sol in fits:
            assert sol.sigma == _SIGMA_FLOOR * np.max(np.abs(a))
            assert sol.stop_reason == solvers.STOP_GRADIENT
        # over both targets' 18 fits, in u = log(sigma - floor): 586 when
        # sigma approached the floor along u alone, 254 with the floor as a
        # bound before each step in u was bounded, 188 before the floor probe
        assert sum(sol.iterations for _, sol in fits) <= 30

    def test_seed7_evaluations_fall_and_repeat(self):
        totals = []
        for _ in range(2):
            folds = seed7_huber_folds(solvers.DEFAULT_CONFIG)
            assert all(f.evaluations > f.iterations for f in folds)
            totals.append(sum(f.evaluations for f in folds))
        assert totals[0] == totals[1]
        # in u = log(sigma - floor): 1580 when sigma approached the floor
        # along u alone, 1266 before each step in u was bounded and the line
        # search halved its overshoot, 362 before the floor probe
        assert totals[0] <= 150

    @pytest.mark.parametrize("students, cap", [(20, 560), (30, 1150)])
    def test_wide_ladder_step_totals(self, students, cap):
        # the row-space route with the floor probe: 1060 and 1804 steps
        # before it, 508 and 1051 with it
        folds = ladder_huber_folds(students)
        assert len(folds) == 4 * students
        assert all(f.stop_reason == solvers.STOP_GRADIENT for f in folds)
        assert sum(f.iterations for f in folds) <= cap

    def test_seed7_evaluations_without_ridge(self):
        # n < m and alpha = 0: the w block is singular; its damping floor
        # keeps the bounded steps useful (2926 evaluations without either)
        folds = seed7_huber_folds(SolverConfig(huber_regularization=0.0))
        assert all(f.stop_reason == solvers.STOP_GRADIENT for f in folds)
        assert sum(f.evaluations for f in folds) <= 1600

    def test_seed7_folds_converge_without_ridge(self):
        # n < m and alpha = 0: the w block of the Hessian is singular
        folds = seed7_huber_folds(SolverConfig(huber_regularization=0.0))
        assert all(f.stop_reason == solvers.STOP_GRADIENT for f in folds)

    def test_near_exact_fits_without_ridge_stop_on_gradient(self):
        # the last steps on the floor lower f by less than its rounding
        for seed in range(64):
            rng = np.random.default_rng(seed)
            s = rng.random((20, 15))
            noise = 10.0 ** rng.uniform(-7, -3) * rng.standard_normal(20)
            a = s @ rng.standard_normal(15) + 1.0 + noise
            sol = solvers.fit_huber(s, a, SolverConfig(huber_regularization=0.0))
            assert sol.stop_reason == solvers.STOP_GRADIENT, seed

    def test_near_exact_tall_fits_with_small_ridge_stop_on_gradient(self):
        # sigma is small, and f's rounding error is that of the residuals it
        # sums, far above 4 ulps of f: a last step judged against 4 ulps
        # stalled at gradient norms of 1e-8 to 1e-6
        for seed in range(40):
            rng = np.random.default_rng(seed)
            s = rng.random((37, 4))
            a = s @ rng.random(4) + 1 + 1e-3 * rng.standard_normal(37)
            sol = solvers.fit_huber(s, a, SolverConfig(huber_regularization=0.01))
            assert sol.stop_reason == solvers.STOP_GRADIENT, seed

    def test_wide_designs_without_ridge_converge(self):
        # alpha = 0 and n < m: the w block is singular.  With the (w, c)
        # block undamped everywhere, seeds 21, 40, 43, 46, 109 and 146
        # stalled with gradient norms from 11 to 27; damped off the floor
        # only, seeds 2, 3, 17, 38, 61, 68, 76, 100, 148, 179 and 199
        # stalled or hit the cap
        for seed in range(200):
            rng = np.random.default_rng(seed)
            s = rng.integers(0, 2, (8, 30)).astype(float)
            a = s @ rng.random(30) * 4 + 3 * rng.standard_normal(8)
            sol = solvers.fit_huber(s, a, SolverConfig(huber_regularization=0.0))
            assert sol.stop_reason == solvers.STOP_GRADIENT, seed

    def test_unreachable_tolerance_stalls_early(self, monkeypatch):
        rng = np.random.default_rng(9)
        s = rng.random((10, 6))
        a = rng.random(10) * 100
        monkeypatch.setattr(solvers, "HUBER_TOLERANCE", 1e-300)
        sol = solvers.fit_huber(s, a)
        assert sol.stop_reason == solvers.STOP_STALLED
        assert not sol.converged
        assert sol.iterations < 50
        assert sol.evaluations < 100  # one failed search of 60 trials

    def test_degenerate_epsilon_cohorts_never_hit_the_cap(self, monkeypatch):
        # the generator of acceptance criterion 4
        rng = np.random.default_rng(5)
        monkeypatch.setattr(solvers, "HUBER_TOLERANCE", 1e-11)
        cfg = SolverConfig(
            huber_epsilon=1e6, huber_regularization=0.0, huber_max_iterations=4000,
        )
        for _ in range(50):
            n = int(rng.integers(8, 20))
            m = int(rng.integers(2, 6))
            s = rng.random((n, m))
            a = s @ (rng.standard_normal(m) * 10) + 5 + rng.standard_normal(n)
            assert solvers.fit_huber(s, a, cfg).stop_reason != solvers.STOP_ITERATION_CAP

    def test_direct_solvers_have_no_stop_reason(self):
        s = np.random.default_rng(2).random((6, 3))
        a = s @ np.array([1.0, 2.0, 3.0])
        for fit in (solvers.fit_ols_closed_form, solvers.fit_linear_intercept,
                    solvers.fit_nnls):
            sol = fit(s, a)
            assert sol.stop_reason is None
            assert sol.evaluations == 0


def lbfgsb_oracle(s, a, eps, alpha):
    """scipy L-BFGS-B on the documented objective over (w, c, sigma), with
    sigma bounded below by fit_huber's floor; restarted until it stops
    improving."""
    optimize = pytest.importorskip("scipy.optimize")
    n, m = s.shape

    def fun(x):
        w, c, sigma = x[:m], x[m], x[m + 1]
        z = (a - c - s @ w) / sigma
        quad = np.abs(z) <= eps
        hprime = np.where(quad, 2.0 * z, 2.0 * eps * np.sign(z))
        grad = np.concatenate([
            -(s.T @ hprime) + 2.0 * alpha * w,
            [-hprime.sum(), n - np.minimum(z * z, eps * eps).sum()],
        ])
        return concomitant_objective(s, a, w, c, sigma, eps, alpha), grad

    x = np.concatenate([np.zeros(m), [a.mean(), a.std()]])
    bounds = [(None, None)] * (m + 1) + [(_SIGMA_FLOOR * np.max(np.abs(a)), None)]
    best = np.inf
    for _ in range(20):
        res = optimize.minimize(
            fun, x, jac=True, method="L-BFGS-B", bounds=bounds,
            options={"maxiter": 20000, "ftol": 1e-16, "gtol": 1e-13},
        )
        x = res.x
        if not res.fun < best:
            break
        best = res.fun
    return x[:m], x[m], x[m + 1]


# A binary 23x16 design, one row a student, whose sigma optimum lies 5.4
# times above the floor.  The Newton steps keep asking sigma to fall: when
# sigma stepped in log(sigma - floor), they carried it down one bounded step
# at a time until it equaled the floor in floating point.
FLOATING_FLOOR_SCORES = [
    "0101001100111011", "1101001011111101", "0000101101101010", "0010001111001110",
    "1011111110010011", "0010010000000000", "0011000100100111", "1001111101100001",
    "0010010111011001", "1010101101110001", "1101000001111001", "1100110101001101",
    "0110010001011001", "0111011111111010", "0110111110001100", "1000111010011100",
    "0010110101110001", "1100001011000111", "1100010001110001", "1110010110110011",
    "0100111011110010", "0110101101000001", "0001111111101110",
]
FLOATING_FLOOR_TARGET = [
    34.4194, 48.3129, 29.9728, 35.8194, 42.9308, 17.4744, 39.4869, 39.0341, 34.049,
    45.1225, 37.4708, 37.5495, 32.7737, 51.1539, 35.2768, 36.493, 43.1731, 32.699,
    38.2738, 45.7036, 40.0567, 26.4223, 46.8981,
]

def oracle_design(case):
    """(s, a, cfg).  Seeds 0-2: tall designs with one outlier, sigma inside.
    "wide": an exactly interpolable design with n < m, sigma on the floor.
    "repeated_student": a noisy wide design whose rows 3 and 5 are equal, so
    the row-space factor R is singular; sigma inside.  "zero_column": a
    noisy wide binary design with an all-zero column, sigma on the floor.
    "above_floor": near-exact rows and one outlier; the fit reaches the
    floor on its way, but sigma's optimum lies above it.  "floating_floor":
    the steps keep asking sigma to fall, but its optimum lies above the
    floor.  Cases 2 onward take a bounded first step in log sigma."""
    cfg = solvers.DEFAULT_CONFIG
    if case == "wide":
        rng = np.random.default_rng(0)
        s = rng.random((6, 10))
        return s, s @ (rng.random(10) * 4) + 1, cfg
    if case == "repeated_student":
        rng = np.random.default_rng(1)
        s = rng.random((7, 12))
        s[3] = s[5]
        return s, s @ (rng.random(12) * 4) + 1 + 5 * rng.standard_normal(7), cfg
    if case == "zero_column":
        rng = np.random.default_rng(2)
        s = rng.integers(0, 2, (8, 20)).astype(float)
        s[:, 4] = 0.0
        return s, s @ (rng.random(20) * 4) + 3 + rng.standard_normal(8), cfg
    if case == "above_floor":
        rng = np.random.default_rng(56)
        s = rng.random((6, 2))
        a = s @ rng.standard_normal(2) + 1 + 1e-4 * rng.standard_normal(6)
        a[0] += 1.0
        return s, a, cfg
    if case == "floating_floor":
        s = np.array([[float(c) for c in row] for row in FLOATING_FLOOR_SCORES])
        return s, np.array(FLOATING_FLOOR_TARGET), SolverConfig(huber_epsilon=2.2764)
    rng = np.random.default_rng(case)
    n, m = 15, 3
    s = rng.random((n, m))
    a = s @ (rng.random(m) * 40) + 10 + rng.standard_normal(n)
    a[0] += 30.0  # one outlier in the absolute-loss regime
    return s, a, cfg


@pytest.mark.parametrize("case", [
    0, 1, 2, "wide", "repeated_student", "zero_column", "above_floor", "floating_floor",
])
def test_weights_match_lbfgsb_oracle(case):
    s, a, cfg = oracle_design(case)
    w_o, c_o, sigma_o = lbfgsb_oracle(s, a, cfg.huber_epsilon, cfg.huber_regularization)
    sol = solvers.fit_huber(s, a, cfg)
    assert sol.stop_reason == solvers.STOP_GRADIENT
    assert (sol.sigma == _SIGMA_FLOOR * np.max(np.abs(a))) == (case in ("wide", "zero_column"))
    assert np.max(np.abs(sol.question_weights - w_o)) < 1e-6 * np.max(np.abs(w_o))
    assert sol.intercept == pytest.approx(c_o, rel=1e-6)
    assert sol.sigma == pytest.approx(sigma_o, rel=1e-6)
    eps, alpha = cfg.huber_epsilon, cfg.huber_regularization
    f = concomitant_objective(s, a, sol.question_weights, sol.intercept, sol.sigma, eps, alpha)
    f_o = concomitant_objective(s, a, w_o, c_o, sigma_o, eps, alpha)
    assert f <= f_o + 1e-12 * abs(f_o)


def test_a_scale_pushed_below_its_optimum_takes_few_steps():
    # the floor is a plain bound in log sigma: a trial below it lands on it,
    # where f's slope turns sigma back up.  57 steps when sigma stepped in
    # log(sigma - floor) and reached the floor only in floating point.
    s, a, cfg = oracle_design("floating_floor")
    sol = solvers.fit_huber(s, a, cfg)
    assert sol.stop_reason == solvers.STOP_GRADIENT
    assert sol.iterations <= 15


@pytest.mark.parametrize("case", [2, "wide", "above_floor", "floating_floor"])
def test_first_scale_step_is_bounded(case, monkeypatch):
    # the Newton step wants |d| > 1 in log sigma; scaled to 1, sigma changes by
    # at most a factor of e
    s, a, cfg = oracle_design(case)
    trials = []

    def recording(theta, *args):
        trials.append(theta[-1])
        return _huber_objective_and_grad(theta, *args)

    monkeypatch.setattr(solvers, "_huber_objective_and_grad", recording)
    solvers.fit_huber(s, a, cfg)
    assert abs(trials[1] - trials[0]) == pytest.approx(1.0)


@pytest.mark.parametrize("case", ["wide", "repeated_student", "zero_column"])
def test_wide_ridge_weights_lie_in_the_row_space(case):
    # with alpha > 0 the fit runs in coordinates of the row space of S's
    # nonzero columns: a zero column's weight is exactly 0, and the rest is
    # a combination of the students' rows
    s, a, cfg = oracle_design(case)
    w = solvers.fit_huber(s, a, cfg).question_weights
    used = s.any(axis=0)
    assert np.all(w[~used] == 0.0)
    assert used.sum() == s.shape[1] - (case == "zero_column")
    rows = s[:, used].T
    beta = np.linalg.lstsq(rows, w[used], rcond=None)[0]
    assert np.linalg.norm(w[used] - rows @ beta) <= 1e-12 * np.linalg.norm(w)


def wide_ridge_design(seed, binary, zero_column, repeated_student, noisy=False):
    """(s, a): a random wide design, optionally binary, with an all-zero
    column and with its first student repeating its last.  The noise is 1e-3
    to 10, or 10 to 100 when noisy, where sigma's optimum mostly lies above
    the floor."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 11))
    m = int(rng.integers(n + 1, 26))
    s = rng.integers(0, 2, (n, m)).astype(float) if binary else rng.random((n, m))
    if zero_column:
        s[:, rng.integers(m)] = 0.0
    if repeated_student:
        s[0] = s[-1]
    noise = 10 ** rng.uniform(*((1, 2) if noisy else (-3, 1)))
    return s, s @ (rng.random(m) * 4) + 3 + noise * rng.standard_normal(n)


@settings(max_examples=60, deadline=None)
# stopped 1.14e-10 (relative) above the oracle when sigma stepped in
# log(sigma - floor)
@example(seed=4193331672, alpha=1.0, binary=True, zero_column=False,
         repeated_student=True, noisy=False)
@given(
    seed=st.integers(0, 2**32 - 1),
    alpha=st.sampled_from([0.01, 0.1, 1.0]),
    binary=st.booleans(),
    zero_column=st.booleans(),
    repeated_student=st.booleans(),
    noisy=st.booleans(),
)
def test_wide_ridge_fits_reach_the_oracle_objective(seed, alpha, binary, zero_column,
                                                    repeated_student, noisy):
    # Objectives, not weights: where a flat minimum's fit stops within
    # HUBER_TOLERANCE can move w by far more than it moves f.  That
    # tolerance is on the normalized gradient, so when f is tiny (two equal
    # students, near-exact targets) the default fit stops up to about 4e-11
    # (relative) above the minimum; a tighter tolerance brings it within
    # 1e-12.  Noisy designs mostly keep sigma above the floor, where floor
    # probes are refused.
    s, a = wide_ridge_design(seed, binary, zero_column, repeated_student, noisy)
    cfg = SolverConfig(huber_regularization=alpha)
    eps = cfg.huber_epsilon
    f_oracle = concomitant_objective(s, a, *lbfgsb_oracle(s, a, eps, alpha), eps, alpha)
    for tolerance, rtol in ((solvers.HUBER_TOLERANCE, 1e-10), (1e-10, 1e-12)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solvers, "HUBER_TOLERANCE", tolerance)
            sol = solvers.fit_huber(s, a, cfg)
        assert sol.stop_reason == solvers.STOP_GRADIENT
        f = concomitant_objective(s, a, sol.question_weights, sol.intercept, sol.sigma, eps, alpha)
        assert f <= f_oracle + rtol * abs(f_oracle)


@pytest.mark.xfail(strict=True, reason="roadmap item 9: the gradient stop test is absolute")
def test_a_tiny_objective_reaches_the_oracle_at_the_default_tolerance():
    # two equal students with near-equal targets: the fit stops on
    # "gradient" after 5 steps, 1.45e-10 (relative) above the oracle
    s, a = wide_ridge_design(192001, binary=True, zero_column=True, repeated_student=True)
    cfg = SolverConfig(huber_regularization=0.01)
    eps = cfg.huber_epsilon
    f_oracle = concomitant_objective(s, a, *lbfgsb_oracle(s, a, eps, 0.01), eps, 0.01)
    sol = solvers.fit_huber(s, a, cfg)
    assert sol.stop_reason == solvers.STOP_GRADIENT
    f = concomitant_objective(s, a, sol.question_weights, sol.intercept, sol.sigma, eps, 0.01)
    assert f <= f_oracle * (1 + 1e-10)


@pytest.mark.parametrize("seed, binary", [(63, False), (747, True)])
def test_sigma_just_above_the_floor_is_tested_in_log_sigma(seed, binary):
    # sigma left the floor by a hair (sigma - floor about 1e-13 of it for
    # seed 63), and when the fit stepped in log(sigma - floor), that
    # difference hid sigma's slope from the gradient: these fits stopped on
    # "gradient" 4.3e-3 and 9.6e-8 (relative) above the minimum
    s, a = wide_ridge_design(seed, binary, zero_column=False, repeated_student=True)
    cfg = SolverConfig(huber_regularization=0.01)
    eps = cfg.huber_epsilon
    f_oracle = concomitant_objective(s, a, *lbfgsb_oracle(s, a, eps, 0.01), eps, 0.01)
    sol = solvers.fit_huber(s, a, cfg)
    assert sol.stop_reason == solvers.STOP_GRADIENT
    f = concomitant_objective(s, a, sol.question_weights, sol.intercept, sol.sigma, eps, 0.01)
    assert f <= f_oracle + 1e-10 * abs(f_oracle)


@pytest.fixture
def probes(monkeypatch):
    """Every floor probe's outcome, True when accepted."""
    outcomes = []
    probe = solvers._floor_probe

    def recording(*args):
        landed = probe(*args)
        outcomes.append(landed is not None)
        return landed

    monkeypatch.setattr(solvers, "_floor_probe", recording)
    return outcomes


class TestFloorProbe:
    def test_without_probes_the_seed7_folds_take_the_old_steps(self, monkeypatch):
        # every probe is refused: each still counts one Newton solve and one
        # evaluation, and the rest of the path is the one without probes
        probed = seed7_huber_folds(solvers.DEFAULT_CONFIG)
        calls = []
        monkeypatch.setattr(solvers, "_floor_probe", lambda *args: calls.append(1))
        folds = seed7_huber_folds(solvers.DEFAULT_CONFIG)
        fits = distinct_fits(folds)
        assert calls and len(fits) == 9
        # 94 and 181 when sigma stepped in log(sigma - floor); 188 and 362
        # before that, over both targets' 18 fits
        assert sum(f.iterations for f in fits) - len(calls) == 97
        assert sum(f.evaluations for f in fits) - len(calls) == 202
        for got, want in zip(probed, folds):
            w = want.question_weights
            assert got.stop_reason == want.stop_reason == solvers.STOP_GRADIENT
            assert np.linalg.norm(got.question_weights - w) <= 1e-10 * np.linalg.norm(w)
            assert got.intercept == pytest.approx(want.intercept, rel=1e-10)
            assert got.sigma == want.sigma

    def test_seed7_folds_land_on_the_floor_by_a_probe(self, probes):
        # one accepted probe per fit; where none is refused, it is the
        # fold's second step, after its first Newton step
        folds = seed7_huber_folds(solvers.DEFAULT_CONFIG)
        assert probes.count(True) == len(distinct_fits(folds)) == 9
        assert min(f.iterations for f in folds) == 2

    def test_ridgeless_and_tall_fits_never_probe(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a floor probe off the row-space route")

        monkeypatch.setattr(solvers, "_floor_probe", refuse)
        for case in (0, 1, 2, "floating_floor"):
            s, a, cfg = oracle_design(case)
            assert solvers.fit_huber(s, a, cfg).stop_reason == solvers.STOP_GRADIENT
        ridgeless = SolverConfig(huber_regularization=0.0)
        for case in ("wide", "zero_column"):
            s, a, _ = oracle_design(case)
            assert solvers.fit_huber(s, a, ridgeless).stop_reason == solvers.STOP_GRADIENT
        assert len(seed7_huber_folds(ridgeless)) == 18
        spec = synthetic.SyntheticSpec(seed=3, students=60, noise=4.0)
        report = experiment.evaluate(
            synthetic.generate_gradebook(spec), "final", approaches=(solvers.HUBER,)
        )
        assert all(f.converged for rec in report.records for f in rec.fold_weights)

    @pytest.mark.parametrize("seed, binary, noisy, outcomes", [
        (156, True, False, [False, False, False]),
        (3, False, False, [False, False, False, True]),
        (0, False, True, [False, False, False]),
        (5, True, True, [False, True]),
    ], ids=["slope", "regime", "noisy_above", "noisy_floor"])
    def test_refused_probes_leave_the_fit_to_newton(self, probes, seed, binary, noisy,
                                                    outcomes):
        # The first probe of "slope" lowers f and keeps the regime, but the
        # floor's slope is negative there: sigma's optimum lies 130 times
        # above the floor.  The first of "regime" lowers f with a
        # nonnegative slope, but changes a row's regime.  Noisy designs:
        # sigma's optimum lies 800 times above the floor, or a probe is
        # refused before another lands on it.
        s, a = wide_ridge_design(seed, binary, zero_column=False, repeated_student=False,
                                 noisy=noisy)
        cfg = solvers.DEFAULT_CONFIG
        eps, alpha = cfg.huber_epsilon, cfg.huber_regularization
        sol = solvers.fit_huber(s, a, cfg)
        assert probes == outcomes
        assert sol.stop_reason == solvers.STOP_GRADIENT
        assert (sol.sigma == _SIGMA_FLOOR * np.max(np.abs(a))) == outcomes[-1]
        f_oracle = concomitant_objective(s, a, *lbfgsb_oracle(s, a, eps, alpha), eps, alpha)
        f = concomitant_objective(s, a, sol.question_weights, sol.intercept, sol.sigma, eps, alpha)
        assert f <= f_oracle + 1e-10 * abs(f_oracle)

    def test_probes_count_toward_the_iteration_cap(self, probes):
        s, a = wide_ridge_design(0, False, zero_column=False, repeated_student=False, noisy=True)
        sol = solvers.fit_huber(s, a, SolverConfig(huber_max_iterations=2))
        assert sol.stop_reason == solvers.STOP_ITERATION_CAP
        assert sol.iterations == 2
        assert probes == [False]
