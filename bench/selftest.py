"""Self-test of the benchmark harness on tiny cohorts (a few seconds).

    python3 bench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import unittest
from pathlib import Path

import numpy as np

import hostspeed
import oracle
import run

sys.path.insert(0, str(run.SRC))

import runner  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from examweight import linalg, solvers  # noqa: E402

# Each tiny cohort keeps its workload's side of n versus m.
TINY = {
    "paper-9x53": dict(students=5, mc_questions=4, tf_questions=2,
                       analytical_questions=2, analytical_subparts=3),
    "wide-20x53": dict(students=6, mc_questions=4, tf_questions=2,
                       analytical_questions=2, analytical_subparts=3),
    "tall-40x32": dict(students=12, mc_questions=4, tf_questions=2,
                       analytical_questions=2, analytical_subparts=3),
}


def tiny(name: str) -> workloads.Workload:
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(w, spec={**w.spec, **TINY[name]})


class HarnessTest(unittest.TestCase):
    def setUp(self):
        self.work = run.ROOT / ".bench_work" / f"selftest-{self.id().rsplit('.', 1)[-1]}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.addCleanup(shutil.rmtree, self.work, True)

    def prepare(self, name: str, seed: int = 1):
        w = tiny(name)
        files = workloads.write_inputs(w, seed, self.work / "inputs")
        return w, files, oracle.expected_cells(files, w.approaches, w.scales, w.exclusions)

    def test_every_workload_runs_and_passes_its_oracle(self):
        declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual(sorted(w["name"] for w in declared["workloads"]), sorted(workloads.WORKLOADS))
        produced = set()
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                w, files, expected = self.prepare(name)
                ops = runner.measure(w, files, self.work / name, seconds=0, trace=True)
                self.assertEqual([op["traced"] for op in ops], [False, True])
                failed, problems, worst = run.check_ops(ops, expected)
                self.assertEqual((failed, problems), (0, []))
                self.assertEqual(set(worst), {e.kind for e in expected["cells"].values()})
                problems = []
                produced |= set(run.layer_metrics(ops, problems))
                self.assertEqual(problems, [])
        self.assertLessEqual({m["name"] for m in declared["per_layer"]}, produced)

    def test_seed_changes_the_files_but_not_the_matrices(self):
        w = tiny("tall-40x32")
        a = workloads.write_inputs(w, 1, self.work / "a")
        b = workloads.write_inputs(w, 2, self.work / "b")
        self.assertNotEqual(a["scores"].read_bytes(), b["scores"].read_bytes())
        ia, ib = (oracle.read_inputs(f["scores"], f["questions"], f["components"]) for f in (a, b))
        np.testing.assert_array_equal(ia.scores, ib.scores)
        self.assertEqual(workloads.write_inputs(w, 1, self.work / "c")["scores"].read_bytes(),
                         a["scores"].read_bytes())

    def test_nudged_fold_weight_is_a_failed_op(self):
        w, files, expected = self.prepare("wide-20x53")
        original = solvers.FITTERS[solvers.OLS_CLOSED_FORM]
        nudged = []

        def nudge_first_fold(s, a, cfg=solvers.DEFAULT_CONFIG):
            sol = original(s, a, cfg)
            if not nudged:
                sol.question_weights[0] += 1e-6 * np.linalg.norm(sol.question_weights)
                nudged.append(True)
            return sol

        solvers.FITTERS[solvers.OLS_CLOSED_FORM] = nudge_first_fold
        try:
            ops = runner.measure(w, files, self.work / "out", seconds=0, trace=False)
        finally:
            solvers.FITTERS[solvers.OLS_CLOSED_FORM] = original
        failed, problems, _ = run.check_ops(ops, expected)
        self.assertEqual(failed, 1)
        self.assertIn("ols_closed_form", problems[0])

    def test_perturbed_report_cells_fail(self):
        w, files, expected = self.prepare("paper-9x53")
        [op] = runner.measure(w, files, self.work / "out", seconds=0, trace=False)
        weights_csv = Path(op["report"]).with_name(Path(op["report"]).stem + "_weights.csv")
        clean = weights_csv.read_text(encoding="utf-8")
        # One weight of a unique-answer cell; every weight of the NNLS cell,
        # whose answer is a set.
        for solver, factor, rows in (("huber", 1.01, 1), ("uniform", 1 + 1e-15, 1),
                                     ("nnls", 1.5, None)):
            with self.subTest(solver=solver):
                lines = clean.splitlines()
                cell = [i for i, line in enumerate(lines)
                        if f",{solver},actual," in line and float(line.split(",")[-1]) != 0.0]
                for i in cell[:rows]:
                    *head, value = lines[i].split(",")
                    lines[i] = ",".join([*head, repr(float(value) * factor)])
                weights_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
                failed, problems, _ = run.check_ops([op], expected)
                self.assertEqual(failed, 1)
                self.assertTrue(any(solver in p for p in problems), problems)
        weights_csv.write_text(clean, encoding="utf-8")
        self.assertEqual(run.check_ops([op], expected)[0], 0)

    def test_failed_program_run_is_a_failed_op(self):
        w, files, expected = self.prepare("paper-9x53")
        files = {**files, "scores": self.work / "missing.csv"}
        [op] = runner.measure(w, files, self.work / "out", seconds=0, trace=False)
        self.assertIn("exit code 1", op["error"])
        self.assertEqual(run.check_ops([op], expected)[0], 1)

    def test_untraced_ops_call_the_unwrapped_functions(self):
        svd = linalg.svd
        tracer = tracing.Tracer()
        with tracer.installed():
            self.assertEqual(len(tracing.wrapped_layers()), 12)
            self.assertIsNot(linalg.svd, svd)
        self.assertEqual(tracing.wrapped_layers(), [])
        self.assertIs(linalg.svd, svd)

        w, files, _ = self.prepare("tall-40x32")
        ops = runner.measure(w, files, self.work / "out", seconds=0, trace=True)
        self.assertEqual(tracing.wrapped_layers(), [])
        self.assertNotIn("layers", ops[0])
        self.assertIsNone(ops[0]["error"])
        # A wrapper left in place is caught before the untraced op runs.
        with tracing.Tracer().installed():
            [op] = runner.measure(w, files, self.work / "out2", seconds=0, trace=False)
        self.assertIn("wrapped layers", op["error"])

    def test_op_time_is_rescaled_by_the_reference_around_it(self):
        nominal = hostspeed.NOMINAL_S
        self.assertAlmostEqual(hostspeed.normalized_seconds(6.0, nominal, nominal), 6.0)
        # A host half as fast doubles both the op and the reference.
        self.assertAlmostEqual(hostspeed.normalized_seconds(12.0, 1.5 * nominal, 2.5 * nominal), 6.0)
        w, files, _ = self.prepare("wide-20x53")
        ops = runner.measure(w, files, self.work / "out", seconds=0, trace=True)
        self.assertEqual(ops[1]["ref_before_s"], ops[0]["ref_after_s"])
        self.assertTrue(all(op["ref_before_s"] > 0 and op["ref_after_s"] > 0 for op in ops))

    def test_nested_svd_counts_once(self):
        tracer = tracing.Tracer()
        with tracer.installed():
            linalg.svd(np.arange(12.0).reshape(3, 4))
            linalg.svd(np.arange(12.0).reshape(4, 3))
        self.assertEqual(tracer.values["linalg.svd.calls"], 2)
        self.assertEqual(tracer.values["linalg.svd.wide_calls"], 1)
        self.assertEqual(tracer.values["linalg.svd.bytes_in"], 2 * 8 * 12)


if __name__ == "__main__":
    unittest.main()
