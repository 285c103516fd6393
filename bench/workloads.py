"""The benchmark's workloads: which cohort, how its CSV files are written for a
seed, and what one op runs.

One op is what a user waits for: load the CSV files, evaluate, write the
report.  The load model is a closed loop with one client: the next op starts
only when the previous one has finished, like a user re-running
``examweight evaluate``.

The seed sets the encoding of the input files, not their numbers: student and
question labels, and the row and column order of the scores file.  The
loader maps scores to the components' student order and the questions file's
question order, so every seed gives the program the same matrices and the
same work, while no two seeds give it the same bytes.  Changing the numbers
would make op time spread with the data: the Huber fits' cost on the 9x53
cohort is chaotic in its inputs.  On a 2-core x86-64 VM (Python 3.11, numpy
2.4 with OpenBLAS) an op took 1.4 to 7.7 s over cohort seeds 7 to 14, and
3.7 to 6.5 s over row and column permutations of the seed-7 cohort.
"""

from __future__ import annotations

import contextlib
import csv
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from examweight import cli, dataio, experiment, solvers, synthetic
from examweight import gradebook as gb

EXAM = "final"
BOTH_SCALES = (gb.ACTUAL_SCALE, gb.NORMALIZED_SCALE)


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict  # SyntheticSpec fields
    approaches: tuple[str, ...]
    scales: tuple[str, ...]
    exclusions: tuple[str, ...]
    via_cli: bool  # run `examweight evaluate` in-process instead of the library calls
    # Work counters per op on this cohort before any solver change.
    baseline_counts: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w for w in (
        # The paper's cohort and the README command (all six approaches, both
        # scales, include-exam).  Huber is about 90% of the op.
        Workload(
            name="paper-9x53",
            spec=dict(seed=7),
            approaches=experiment.APPROACHES,
            scales=BOTH_SCALES,
            exclusions=(gb.INCLUDE_EXAM,),
            via_cli=True,
            baseline_counts={
                "solvers.huber.iterations": 5416, "solvers.huber.cap_hits": 8,
                "solvers.huber.unconverged_folds": 12, "solvers.nnls.iterations": 144,
                "linalg.svd.calls": 180, "linalg.svd.wide_calls": 36,
            },
        ),
        # n < m as in the paper but larger; 4 targets x 2 min-norm solvers x
        # 20 folds = 160 fits, each refactoring its fold.  SVD is about 99%.
        Workload(
            name="wide-20x53",
            spec=dict(seed=3, noise=4.0, students=20),
            approaches=(solvers.OLS_CLOSED_FORM, solvers.LINEAR_INTERCEPT),
            scales=BOTH_SCALES,
            exclusions=(gb.INCLUDE_EXAM, gb.EXCLUDE_EXAM),
            via_cli=False,
            baseline_counts={"linalg.svd.calls": 160, "linalg.svd.wide_calls": 160},
        ),
        # n > m, one target: NNLS's active set makes many small tall solves on
        # column subsets beside the 40 plain solves.
        Workload(
            name="tall-40x32",
            spec=dict(seed=3, noise=4.0, students=40, mc_questions=16, tf_questions=8,
                      analytical_questions=4, analytical_subparts=8),
            approaches=(solvers.LINEAR_INTERCEPT, solvers.NNLS),
            scales=(gb.ACTUAL_SCALE,),
            exclusions=(gb.INCLUDE_EXAM,),
            via_cli=False,
            baseline_counts={"linalg.svd.calls": 902, "solvers.nnls.iterations": 862},
        ),
    )
}


class OpFailed(Exception):
    """The program returned a failure instead of a report."""


def write_inputs(w: Workload, seed: int, out_dir: Path) -> dict[str, Path]:
    """Generate the workload's cohort and write its three CSV files, encoded
    by the seed.  Returns paths keyed scores / questions / components."""
    book = synthetic.generate_gradebook(synthetic.SyntheticSpec(**w.spec))
    rng = np.random.default_rng(seed)
    scores = book.exams[EXAM]
    questions = book.questions[EXAM]
    n, m = scores.shape
    students = [f"s{v:06d}" for v in rng.choice(10**6, n, replace=False)]
    qids = [f"q{v:05d}" for v in rng.choice(10**5, m, replace=False)]
    parents = sorted({q.parent for q in questions if q.parent})
    parent_ids = dict(zip(parents, (f"p{v:04d}" for v in rng.choice(10**4, len(parents), replace=False))))
    rows, cols = rng.permutation(n), rng.permutation(m)

    out_dir.mkdir(parents=True, exist_ok=True)
    files = {name: out_dir / f"{name}.csv" for name in ("scores", "questions", "components")}
    with open(files["components"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["student", *gb.COMPONENTS])
        for i, sid in enumerate(students):
            writer.writerow([sid, *(repr(float(book.components[c][i])) for c in gb.COMPONENTS)])
    with open(files["questions"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "kind", "max_points", "parent"])
        for qid, q in zip(qids, questions):
            writer.writerow([qid, dataio.KIND_NAMES[q.kind], repr(float(q.max_points)),
                             parent_ids.get(q.parent, "")])
    with open(files["scores"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["student", *(qids[j] for j in cols)])
        for i in rows:
            writer.writerow([students[i], *(repr(float(scores[i, j])) for j in cols)])
    return files


def run_op(w: Workload, files: dict[str, Path], out_csv: Path) -> None:
    """One op: load, evaluate, write the CSV report to out_csv.

    Calls go through module attributes (``dataio.load_gradebook``, ...), which
    is where the traced run installs its wrappers.
    """
    if w.via_cli:
        argv = ["evaluate", "--scores", str(files["scores"]),
                "--questions", str(files["questions"]),
                "--components", str(files["components"]), "--out", str(out_csv)]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        if code != 0:
            raise OpFailed(f"exit code {code}: {err.getvalue().strip()}")
        return
    fileset = dataio.GradebookFileSet(
        scores={EXAM: files["scores"]}, questions={EXAM: files["questions"]},
        components=files["components"],
    )
    book = dataio.load_gradebook(fileset)
    report = experiment.evaluate(book, EXAM, scales=w.scales, exclusions=w.exclusions,
                                 approaches=w.approaches)
    dataio.write_report(report, out_csv)
