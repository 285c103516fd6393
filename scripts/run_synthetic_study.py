#!/usr/bin/env python3
"""Desk-scale weighting study on a synthetic cohort.

Generates an item-response cohort, runs the full MAE comparison on both
target scales, prints the include/exclude overall-score deltas, and lists
the extreme-weight questions for one solver.

Usage:
    python3 scripts/run_synthetic_study.py [--seed 7] [--students 9]
        [--noise 0.0] [--solver linear] [--out-dir study_out]
"""

import argparse
import dataclasses
from pathlib import Path

from examweight import analysis, dataio, experiment, synthetic
from examweight import gradebook as gb
from examweight.cli import SOLVER_ALIASES


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--students", type=int, default=9)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--solver", choices=sorted(SOLVER_ALIASES), default="linear")
    p.add_argument("--extremes", type=int, default=3)
    p.add_argument("--out-dir", default="study_out")
    return p.parse_args()


def print_table(header, rows):
    widths = [max(len(str(r[i])) for r in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def main():
    args = parse_args()
    spec = synthetic.SyntheticSpec(
        students=args.students, noise=args.noise, seed=args.seed
    )
    book = synthetic.generate_gradebook(spec)
    out_dir = Path(args.out_dir)
    fileset = dataio.write_gradebook_files(book, out_dir)
    print(f"cohort: {len(book.students)} students, "
          f"{len(book.question_ids(spec.exam))} questions -> {out_dir}/")

    print("\nMAE by approach and target scale")
    report = experiment.evaluate(book, spec.exam, exclusions=(gb.INCLUDE_EXAM, gb.EXCLUDE_EXAM))
    print_table(*dataio.mae_table(report))
    include_only = tuple(r for r in report.records if r.exclusion == gb.INCLUDE_EXAM)
    dataio.write_report(dataclasses.replace(report, records=include_only), out_dir / "report.csv")

    print("\nlargest weight shifts when the exam component is excluded")
    for approach in experiment.APPROACHES:
        deltas = analysis.weight_deltas(report, approach, gb.ACTUAL_SCALE)
        moved = [f"{q}:{d:+.3f}" for q, d in deltas[:3]]
        print(f"  {approach:>16}  {'  '.join(moved)}")

    solver = SOLVER_ALIASES[args.solver]
    top, bottom = analysis.extreme_questions(report, solver, k=args.extremes)
    print(f"\nextreme questions under {solver}")
    for label, pairs in (("highest", top), ("lowest", bottom)):
        for q, w in pairs:
            print(f"  {label:>7}  {q:>6}  {w:+.4f}")

    diags = analysis.degenerate_questions(book, spec.exam)
    if diags:
        print("\ndegenerate questions")
        for d in diags:
            print(f"  {d.question:>6}  {';'.join(d.flags)}")
    dataio.write_diagnostics(diags, out_dir / "degenerate.csv")
    print(f"\nreports written to {out_dir}/")


if __name__ == "__main__":
    main()
