"""Command-line surface: fit / evaluate / analyze / generate.

Exit codes: 0 success, 1 data error, 2 solver non-convergence (hard caps
always; soft Huber non-convergence only under --strict), 64 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import analysis, dataio, experiment
from . import gradebook as gb
from . import solvers, synthetic
from .errors import ConvergenceError, DataError

SOLVER_ALIASES = {
    "ols": solvers.OLS_CLOSED_FORM,
    "linear": solvers.LINEAR_INTERCEPT,
    "huber": solvers.HUBER,
    "nnls": solvers.NNLS,
}

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_NO_CONVERGENCE = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits 64 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _add_gradebook_args(p: _Parser) -> None:
    p.add_argument("--scores", required=True, help="scores CSV for the exam")
    p.add_argument("--questions", required=True, help="questions CSV for the exam")
    p.add_argument("--components", required=True, help="course components CSV")
    p.add_argument("--exam", default="final", help="exam id (default: final)")
    p.add_argument(
        "--no-consistency-check", action="store_true",
        help="skip the exam-component vs actual-weight-total check",
    )


class _SolverOption(argparse.Action):
    """Store an option's value, or const for a flag, and note the option in
    solver_options, so that a command that fits nothing can refuse it."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, self.const if self.nargs == 0 else values)
        namespace.solver_options = [*namespace.solver_options, option_string]


def _add_solver_args(p: _Parser) -> None:
    defaults = solvers.DEFAULT_CONFIG
    p.set_defaults(solver_options=[])
    p.add_argument("--epsilon", type=float, default=defaults.huber_epsilon, action=_SolverOption,
                   help=f"Huber loss threshold (default {defaults.huber_epsilon})")
    p.add_argument("--alpha", type=float, default=defaults.huber_regularization,
                   action=_SolverOption,
                   help=f"Huber ridge regularization (default {defaults.huber_regularization})")
    p.add_argument("--strict", nargs=0, const=True, default=False, action=_SolverOption,
                   help="treat solver non-convergence as fatal (exit 2)")


def build_parser() -> _Parser:
    parser = _Parser(prog="examweight",
                     description="Optimal per-question exam weighting")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit question weights (LOOCV averaged)")
    _add_gradebook_args(fit)
    _add_solver_args(fit)
    fit.add_argument("--solver", choices=[*SOLVER_ALIASES, "all"], default="all")
    fit.add_argument("--scale", choices=["actual", "normalized", "both"], default="actual")
    fit.add_argument("--exclude-exam", action="store_true",
                     help="exclude the exam component from the overall score")
    fit.add_argument("--out", help="output CSV path (default: stdout)")

    ev = sub.add_parser("evaluate", help="MAE comparison of all six approaches")
    _add_gradebook_args(ev)
    _add_solver_args(ev)
    ev.add_argument("--scale", choices=["actual", "normalized", "both"], default="both")
    ev.add_argument("--compare-exclusion", action="store_true",
                    help="also evaluate with the exam excluded and report weight deltas")
    ev.add_argument("--format", choices=["csv", "json"], default="csv",
                    help="format of the --out report; json needs --out and "
                         "does not combine with --compare-exclusion")
    ev.add_argument("--out", help="output path (default: stdout table)")

    an = sub.add_parser("analyze", help="question diagnostics")
    _add_gradebook_args(an)
    _add_solver_args(an)
    group = an.add_mutually_exclusive_group(required=True)
    group.add_argument("--question", help="distribution table for one question")
    group.add_argument("--extremes", type=int, metavar="K",
                       help="top/bottom K questions by averaged weight")
    group.add_argument("--degenerate", action="store_true",
                       help="flag all-correct / all-zero / duplicate / top-only questions")
    an.add_argument("--solver", choices=list(SOLVER_ALIASES), default="linear",
                    action=_SolverOption, help="solver whose weights rank the extremes")
    an.add_argument("--scale", choices=["actual", "normalized"])
    an.add_argument("--out", help="output CSV path (default: stdout)")

    gen = sub.add_parser("generate", help="write a synthetic gradebook file set")
    gen.add_argument("--students", type=int, default=9)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--mc", type=int, default=30, help="multiple choice count")
    gen.add_argument("--tf", type=int, default=15, help="true/false count")
    gen.add_argument("--analytical", type=int, default=5, help="analytical question count")
    gen.add_argument("--subparts", type=int, default=8, help="total analytical subparts")
    gen.add_argument("--noise", type=float, default=0.0)
    gen.add_argument("--discrimination", type=float, default=1.0)
    gen.add_argument("--exam", default="final")
    gen.add_argument("--out-dir", default=".", help="directory for the CSV files")
    return parser


def _check_combinations(parser: _Parser, args) -> None:
    """Usage errors that argparse cannot express on its own."""
    if args.command == "analyze" and args.extremes is not None and args.extremes < 1:
        parser.error(f"argument --extremes: K must be at least 1, got {args.extremes}")
    if args.command == "analyze" and args.extremes is None and args.solver_options:
        parser.error(f"argument {args.solver_options[0]}: not allowed without --extremes, "
                     "the one analysis that fits weights")
    if args.command == "analyze" and args.degenerate and args.scale:
        parser.error("argument --scale: not allowed with --degenerate, which reads no target")
    if args.command != "evaluate" or args.format != "json":
        return
    if args.compare_exclusion:
        parser.error("--format json cannot be combined with --compare-exclusion, "
                     "which writes a CSV table")
    if not args.out:
        parser.error("--format json needs --out; the table printed to stdout is CSV")


def _load(args) -> gb.Gradebook:
    fileset = dataio.GradebookFileSet(
        scores={args.exam: Path(args.scores)},
        questions={args.exam: Path(args.questions)},
        components=Path(args.components),
    )
    return dataio.load_gradebook(fileset, check_consistency=not args.no_consistency_check)


def _scales(flag: str) -> tuple[str, ...]:
    return ("actual", "normalized") if flag == "both" else (flag,)


_STOP_MESSAGES = {
    solvers.STOP_ITERATION_CAP: "hit the iteration cap",
    solvers.STOP_STALLED: "stalled (the line search found no further decrease)",
}


def _warn_unconverged(report: experiment.EvaluationReport, strict: bool) -> None:
    for rec in report.records:
        if rec.unconverged_folds:
            by_reason: dict[str, list[int]] = {}
            for k in rec.unconverged_folds:
                why = _STOP_MESSAGES[rec.fold_weights[k].stop_reason]
                by_reason.setdefault(why, []).append(k)
            causes = "; ".join(f"folds {folds} {why}" for why, folds in by_reason.items())
            msg = f"{rec.approach} ({rec.scale}, {rec.exclusion}): {causes}"
            if strict:
                raise ConvergenceError(msg)
            print(f"warning: {msg}", file=sys.stderr)


def _evaluate(
    args, scales, exclusions=(gb.INCLUDE_EXAM,), approaches=experiment.APPROACHES
) -> experiment.EvaluationReport:
    """experiment.evaluate on the loaded gradebook with the solver options,
    warning of unconverged folds (raising under --strict).  The gradebook is
    loaded before the options are checked, so a bad input file is reported
    before a bad --alpha or --epsilon."""
    book = _load(args)
    cfg = solvers.SolverConfig(huber_epsilon=args.epsilon, huber_regularization=args.alpha)
    report = experiment.evaluate(book, args.exam, cfg, scales, exclusions, approaches)
    _warn_unconverged(report, args.strict)
    return report


def _cmd_fit(args) -> int:
    exclusion = gb.EXCLUDE_EXAM if args.exclude_exam else gb.INCLUDE_EXAM
    approaches = (
        tuple(SOLVER_ALIASES.values()) if args.solver == "all"
        else (SOLVER_ALIASES[args.solver],)
    )
    report = _evaluate(args, _scales(args.scale), (exclusion,), approaches)
    dataio.write_weights(report, args.out)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    scales = _scales(args.scale)
    if args.compare_exclusion:
        report = _evaluate(args, scales, (gb.INCLUDE_EXAM, gb.EXCLUDE_EXAM))
        header = ["approach", "scale", "mae_include", "mae_exclude",
                  "question", "weight_delta"]
        rows = []
        for scale in scales:
            for approach in experiment.APPROACHES:
                maes = [f"{report.get(approach, scale, e).mae:.4f}"
                        for e in (gb.INCLUDE_EXAM, gb.EXCLUDE_EXAM)]
                for qid, delta in analysis.weight_deltas(report, approach, scale):
                    rows.append([approach, scale, *maes, qid, repr(delta)])
        dataio.write_csv(header, rows, args.out)
        return EXIT_OK
    report = _evaluate(args, scales)
    if args.out:
        dataio.write_report(report, args.out, args.format)
    else:
        dataio.write_csv(*dataio.mae_table(report))
    return EXIT_OK


def _cmd_analyze(args) -> int:
    scale = args.scale or "actual"
    if args.extremes is not None:
        solver = SOLVER_ALIASES[args.solver]
        report = _evaluate(args, (scale,), approaches=(solver,))
        top, bottom = analysis.extreme_questions(report, solver, args.extremes, scale)
        rows = [["top", i + 1, q, repr(w)] for i, (q, w) in enumerate(top)]
        rows += [["bottom", i + 1, q, repr(w)] for i, (q, w) in enumerate(bottom)]
        dataio.write_csv(["position", "rank", "question", "weight"], rows, args.out)
        return EXIT_OK
    book = _load(args)
    if args.question:
        abil = gb.ability(book, args.exam, scale, gb.INCLUDE_EXAM)
        diag = analysis.distribution_table(book, args.exam, args.question, abil)
        rows = [[s, repr(score), f"{a:.2f}"] for s, score, a in diag.distribution]
        dataio.write_csv(["student", "score", "ability"], rows, args.out)
        return EXIT_OK
    diags = analysis.degenerate_questions(book, args.exam)
    rows = [[d.question, ";".join(d.flags)] for d in diags]
    dataio.write_csv(["question", "flags"], rows, args.out)
    return EXIT_OK


def _cmd_generate(args) -> int:
    spec = synthetic.SyntheticSpec(
        students=args.students,
        mc_questions=args.mc,
        tf_questions=args.tf,
        analytical_questions=args.analytical,
        analytical_subparts=args.subparts,
        discrimination=args.discrimination,
        noise=args.noise,
        seed=args.seed,
        exam=args.exam,
    )
    book = synthetic.generate_gradebook(spec)
    fileset = dataio.write_gradebook_files(book, args.out_dir)
    print(fileset.scores[spec.exam])
    print(fileset.questions[spec.exam])
    print(fileset.components)
    return EXIT_OK


_COMMANDS = {
    "fit": _cmd_fit,
    "evaluate": _cmd_evaluate,
    "analyze": _cmd_analyze,
    "generate": _cmd_generate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_combinations(parser, args)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (DataError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
