"""Acceptance gate: nine release criteria, each printing one PASS/FAIL line.

Criterion 6 checks the exact recovery that leave-one-out weight averaging
delivers on a noiseless underdetermined cohort (9 students, 53 questions,
target exactly S @ points).  Each fold's design has full row rank, so its
minimum-norm solve interpolates its 8 training students.  Predictions are
affine in the weights, so the averaged weights miss student k by exactly
e_k / n, where e_k is fold k's error on its held-out student k.  That error
is the held-out student's component outside the fold's row space and is
generically nonzero, so the in-sample MAE plateaus (0.82 for
linear_intercept, 0.33 for ols_closed_form) instead of reaching zero.
The uniform baseline above 1 point, the fitted-below-uniform ordering and
the 10 s bound are asserted as well.
"""

import itertools
import time

import numpy as np
import pytest

from examweight import (
    analysis,
    dataio,
    experiment,
    gradebook as gb,
    linalg,
    solvers,
    synthetic,
)
from examweight.solvers import SolverConfig

FINALS = np.array([50.32, 59.89, 61.63, 66.50, 67.54, 67.92, 69.57, 83.16, 84.73])
NORMALIZED = np.array([36.67, 43.65, 44.92, 48.46, 49.23, 49.50, 50.70, 60.61, 61.75])


def report(criterion, ok):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} failed"


def exact_linear_cohort():
    return synthetic.generate_gradebook(
        synthetic.SyntheticSpec(seed=7, noise=0.0)
    )


class TestAcceptance:
    def test_01_normalization_cross_check(self):
        mean_ok = abs(FINALS.mean() - 67.92) <= 0.01
        got = gb.normalize_ability(FINALS, 49.5, float(FINALS.mean()))
        report(1, mean_ok and np.max(np.abs(got - NORMALIZED)) <= 0.01)

    def test_02_pseudoinverse_four_conditions(self):
        start = time.monotonic()
        rng = np.random.default_rng(42)
        ok = True
        for trial in range(200):
            rows = int(rng.integers(1, 13))
            cols = int(rng.integers(1, 13))
            a = rng.standard_normal((rows, cols))
            if trial % 2 == 0:  # force rank deficiency
                r = max(1, min(rows, cols) - int(rng.integers(1, min(rows, cols) + 1)))
                a = (
                    rng.standard_normal((rows, r))
                    @ rng.standard_normal((r, cols))
                )
            p = linalg.pinv(a)
            tol = 1e-9 * max(1.0, float(np.abs(a).max()))
            ok &= np.allclose(a @ p @ a, a, atol=tol)
            ok &= np.allclose(p @ a @ p, p, atol=tol)
            ok &= np.allclose((a @ p).T, a @ p, atol=tol)
            ok &= np.allclose((p @ a).T, p @ a, atol=tol)
        report(2, ok and time.monotonic() - start < 5.0)

    def test_03_nnls_oracle_equivalence(self):
        rng = np.random.default_rng(11)
        ok = True
        for _ in range(100):
            n = int(rng.integers(2, 10))
            p = int(rng.integers(1, 7))
            s = rng.standard_normal((n, p))
            a = rng.standard_normal(n) * 3
            sol = solvers.fit_nnls(s, a)
            x = sol.question_weights
            ok &= bool(np.all(x >= 0))
            best_obj, best_x = np.inf, None
            for mask in itertools.product([0, 1], repeat=p):
                idx = np.flatnonzero(mask)
                cand = np.zeros(p)
                if idx.size:
                    sub = np.linalg.lstsq(s[:, idx], a, rcond=None)[0]
                    if np.any(sub < -1e-12):
                        continue
                    cand[idx] = np.clip(sub, 0.0, None)
                obj = np.linalg.norm(s @ cand - a) ** 2
                if obj < best_obj - 1e-12:
                    best_obj, best_x = obj, cand
            obj = np.linalg.norm(s @ x - a) ** 2
            ok &= obj - best_obj < 1e-9
            if p <= n:
                ok &= bool(np.all(np.abs(x - best_x) < 1e-7))
            grad = s.T @ (s @ x - a)
            passive = x > 1e-10
            ok &= bool(np.all(np.abs(grad[passive]) < 1e-8))
            ok &= bool(np.all(grad[~passive] >= -1e-8))
        report(3, ok)

    def test_04_huber_degeneration_and_robustness(self, monkeypatch):
        rng = np.random.default_rng(5)
        monkeypatch.setattr(solvers, "HUBER_TOLERANCE", 1e-11)
        cfg = SolverConfig(
            huber_epsilon=1e6, huber_regularization=0.0, huber_max_iterations=4000,
        )
        ok = True
        for _ in range(50):
            n = int(rng.integers(8, 20))
            m = int(rng.integers(2, 6))
            s = rng.random((n, m))
            a = s @ (rng.standard_normal(m) * 10) + 5 + rng.standard_normal(n)
            hub = solvers.fit_huber(s, a, cfg)
            lin = solvers.fit_linear_intercept(s, a)
            scale = max(1.0, float(np.max(np.abs(lin.question_weights))))
            ok &= bool(
                np.max(np.abs(hub.question_weights - lin.question_weights))
                < 1e-6 * scale
            )
        x = np.arange(1.0, 9.0).reshape(-1, 1)
        a = x.ravel().copy()
        a[-1] = 100.0
        rob = SolverConfig(huber_epsilon=1.35, huber_regularization=0.0)
        hub = solvers.fit_huber(x, a, rob)
        ols = solvers.fit_linear_intercept(x, a)
        ok &= abs(hub.question_weights[0] - 1.0) < abs(ols.question_weights[0] - 1.0)
        report(4, ok)

    def test_05_degenerate_question_behavior(self, monkeypatch):
        rng = np.random.default_rng(8)
        s = rng.random((12, 6))
        s[:, 2] = 0.0  # dead question
        s[:, 5] = s[:, 1]  # duplicate
        a = s @ (rng.random(6) * 20) + 3
        monkeypatch.setattr(solvers, "HUBER_TOLERANCE", 1e-11)
        cfg = SolverConfig(huber_max_iterations=4000)
        ok = True
        for fit in (solvers.fit_ols_closed_form, solvers.fit_linear_intercept,
                    solvers.fit_huber, solvers.fit_nnls):
            sol = fit(s, a, cfg)
            ok &= abs(sol.question_weights[2]) < 1e-8
        for fit in (solvers.fit_ols_closed_form, solvers.fit_linear_intercept):
            sol = fit(s, a, cfg)
            ok &= abs(sol.question_weights[1] - sol.question_weights[5]) < 1e-8
        hub = solvers.fit_huber(s, a, cfg)
        ok &= abs(hub.question_weights[1] - hub.question_weights[5]) < 1e-8
        report(5, ok)

    def test_06_exact_linear_recovery(self):
        start = time.monotonic()
        g = exact_linear_cohort()
        rep = experiment.evaluate(
            g, "final",
            approaches=(solvers.UNIFORM, solvers.LINEAR_INTERCEPT,
                        solvers.OLS_CLOSED_FORM),
            scales=(gb.ACTUAL_SCALE,),
        )
        uniform = rep.get(solvers.UNIFORM, gb.ACTUAL_SCALE).mae
        lin = rep.get(solvers.LINEAR_INTERCEPT, gb.ACTUAL_SCALE).mae
        ols = rep.get(solvers.OLS_CLOSED_FORM, gb.ACTUAL_SCALE).mae
        ok = uniform > 1.0
        ok &= lin < uniform and ols < uniform
        ok &= time.monotonic() - start < 10.0
        # Every fold interpolates its training students, so the averaged
        # weights' residual on student k is fold k's held-out error over n.
        s = g.exams["final"]
        for approach in (solvers.LINEAR_INTERCEPT, solvers.OLS_CLOSED_FORM):
            rec = rep.get(approach, gb.ACTUAL_SCALE)
            n = len(rec.target)
            # row k: fold k's residual on every student
            fold_resid = np.array(
                [solvers.predict(f, s) - rec.target for f in rec.fold_weights]
            )
            held_out = np.diag(fold_resid)
            training = fold_resid[~np.eye(n, dtype=bool)]
            ok &= bool(np.max(np.abs(training)) < 1e-9)
            averaged_resid = rec.predictions - rec.target
            ok &= bool(np.max(np.abs(averaged_resid - held_out / n)) < 1e-9)
        report(6, ok)

    def test_07_scale_equivariance(self, monkeypatch):
        rng = np.random.default_rng(21)
        s = rng.random((20, 5))
        a = s @ (rng.random(5) * 30) + 4 + rng.standard_normal(20)
        c = 49.5 / 67.92
        monkeypatch.setattr(solvers, "HUBER_TOLERANCE", 1e-11)
        cfg = SolverConfig(huber_regularization=0.0, huber_max_iterations=4000)
        ok = True
        for fit in (solvers.fit_ols_closed_form, solvers.fit_linear_intercept,
                    solvers.fit_huber, solvers.fit_nnls):
            w1 = fit(s, a, cfg).question_weights
            w2 = fit(s, c * a, cfg).question_weights
            scale = max(1.0, float(np.max(np.abs(c * w1))))
            ok &= bool(np.max(np.abs(w2 - c * w1)) < 1e-8 * scale)
        report(7, ok)

    def test_08_loocv_protocol(self):
        g = exact_linear_cohort()
        rep = experiment.evaluate(
            g, "final",
            approaches=(solvers.LINEAR_INTERCEPT, solvers.NNLS),
            scales=(gb.ACTUAL_SCALE,),
        )
        ok = True
        for rec in rep.records:
            ok &= len(rec.fold_weights) == 9
            mean_w = np.mean([f.question_weights for f in rec.fold_weights], axis=0)
            ok &= bool(
                np.max(np.abs(rec.averaged_weights.question_weights - mean_w)) < 1e-12
            )
            ok &= (
                abs(rec.mae - float(np.mean(np.abs(rec.predictions - rec.target))))
                < 1e-12
            )
        report(8, ok)

    def test_09_end_to_end_determinism(self, tmp_path):
        outputs = []
        for sub in ("run1", "run2"):
            d = tmp_path / sub
            book = synthetic.generate_gradebook(synthetic.SyntheticSpec(seed=7))
            fileset = dataio.write_gradebook_files(book, d)
            loaded = dataio.load_gradebook(fileset)
            rep = experiment.evaluate(
                loaded, "final",
                approaches=(solvers.UNIFORM, solvers.ACTUAL,
                            solvers.LINEAR_INTERCEPT, solvers.OLS_CLOSED_FORM),
            )
            paths = dataio.write_report(rep, d / "report.csv")
            diag_path = d / "degenerate.csv"
            dataio.write_diagnostics(
                analysis.degenerate_questions(loaded, "final"), diag_path
            )
            blobs = [p.read_bytes() for p in paths]
            blobs.append(diag_path.read_bytes())
            blobs.append(fileset.components.read_bytes())
            blobs.append(fileset.scores["final"].read_bytes())
            blobs.append(fileset.questions["final"].read_bytes())
            outputs.append(blobs)
        report(9, outputs[0] == outputs[1])
