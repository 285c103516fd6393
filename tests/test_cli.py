import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from examweight import cli, experiment, solvers, synthetic
from examweight.errors import ConvergenceError

GEN_ARGS = ["generate", "--seed", "7", "--analytical", "5", "--subparts", "8"]


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def files(tmp_path, capsys):
    code, out, _ = run_cli(GEN_ARGS + ["--out-dir", str(tmp_path)], capsys)
    assert code == 0
    scores, questions, components = out.strip().splitlines()
    return {
        "--scores": scores,
        "--questions": questions,
        "--components": components,
    }


def gradebook_args(files):
    return [arg for pair in files.items() for arg in pair]


class TestGenerate:
    def test_prints_three_paths(self, tmp_path, capsys):
        code, out, _ = run_cli(GEN_ARGS + ["--out-dir", str(tmp_path)], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert [l.rsplit("/", 1)[-1] for l in lines] == [
            "final_scores.csv", "final_questions.csv", "components.csv",
        ]

    def test_deterministic_across_runs(self, tmp_path, capsys):
        for sub in ("a", "b"):
            code, _, _ = run_cli(GEN_ARGS + ["--out-dir", str(tmp_path / sub)], capsys)
            assert code == 0
        for name in ("final_scores.csv", "final_questions.csv", "components.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_rejects_bad_spec(self, capsys):
        code, _, err = run_cli(GEN_ARGS + ["--students", "0"], capsys)
        assert code == 1
        assert "students" in err


class TestEvaluate:
    def test_mae_table_on_stdout(self, files, capsys):
        code, out, _ = run_cli(["evaluate", *gradebook_args(files)], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "overall_score"
        assert len(rows) == 3  # header + two scales
        # noiseless cohort: actual weights reproduce the target exactly
        actual_col = rows[0].index("actual")
        assert float(rows[1][actual_col]) == pytest.approx(0.0, abs=1e-4)
        uniform_col = rows[0].index("uniform")
        assert float(rows[1][uniform_col]) > 1.0

    def test_seed7_mae_table(self, files, capsys):
        # GEN_ARGS spells out the defaults, so this is `generate --seed 7`
        code, out, err = run_cli(["evaluate", *gradebook_args(files)], capsys)
        assert (code, err) == (0, "")
        assert out == (
            "overall_score,uniform,actual,linear_intercept,huber,ols_closed_form,nnls\r\n"
            "final (actual),1.2482,0.0000,0.8214,0.8220,0.3347,2.4819\r\n"
            "final (normalized),1.2482,0.0000,0.8214,0.8220,0.3347,2.4819\r\n"
        )

    def test_seed7_mae_table_without_ridge(self, files, capsys):
        # at alpha = 0 the wide Huber minimizer is not unique, so its cell
        # depends on the fit's path; the other cells ignore --alpha
        code, out, err = run_cli(["evaluate", *gradebook_args(files), "--alpha", "0"], capsys)
        assert (code, err) == (0, "")
        assert out == (
            "overall_score,uniform,actual,linear_intercept,huber,ols_closed_form,nnls\r\n"
            "final (actual),1.2482,0.0000,0.8214,1.7657,0.3347,2.4819\r\n"
            "final (normalized),1.2482,0.0000,0.8214,1.7657,0.3347,2.4819\r\n"
        )

    def test_json_output_file(self, files, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            ["evaluate", *gradebook_args(files), "--format", "json",
             "--out", str(out_path), "--scale", "actual"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert set(payload) == {"mae", "weights"}

    def test_json_to_stdout_is_a_usage_error(self, files, capsys):
        code, out, err = run_cli(
            ["evaluate", *gradebook_args(files), "--format", "json"], capsys
        )
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert "--format json needs --out" in err

    def test_json_with_compare_exclusion_is_a_usage_error(self, files, tmp_path, capsys):
        out_path = tmp_path / "x.json"
        code, _, err = run_cli(
            ["evaluate", *gradebook_args(files), "--compare-exclusion",
             "--format", "json", "--out", str(out_path)],
            capsys,
        )
        assert code == cli.EXIT_USAGE
        assert "--format json cannot be combined with --compare-exclusion" in err
        assert not out_path.exists()

    def test_compare_exclusion(self, files, capsys):
        code, out, _ = run_cli(
            ["evaluate", *gradebook_args(files), "--compare-exclusion",
             "--scale", "actual"],
            capsys,
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["approach", "scale", "mae_include", "mae_exclude",
                           "question", "weight_delta"]
        assert len(rows) > 1


class TestFit:
    def test_weight_dump(self, files, capsys):
        code, out, _ = run_cli(
            ["fit", *gradebook_args(files), "--solver", "ols"], capsys
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["exam", "solver", "scale", "question", "weight"]
        assert len(rows) == 1 + 54  # 53 questions + intercept
        assert {r[1] for r in rows[1:]} == {"ols_closed_form"}


# ids that csv quotes (a comma and a quote), that are not ASCII, or that
# have spaces at both ends, which csv keeps as they are
QUOTED_IDS = {"MC1": 'M,C"1', "MC2": "é q", "TF1": " TF1 "}


@pytest.fixture
def quoted_files(files):
    """The seed-7 files with QUOTED_IDS renamed in the questions file and in
    the scores header."""
    for flag in ("--questions", "--scores"):
        path = Path(files[flag])
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if flag == "--scores":
            rows[0] = [QUOTED_IDS.get(c, c) for c in rows[0]]
        else:
            for row in rows[1:]:
                row[0] = QUOTED_IDS.get(row[0], row[0])
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
    return files


class TestQuotedIds:
    def test_weights_read_back_and_match_fit(self, quoted_files, tmp_path, capsys):
        book = gradebook_args(quoted_files)
        code, _, err = run_cli(["evaluate", *book, "--out", str(tmp_path / "r.csv")], capsys)
        assert (code, err) == (0, "")
        with open(tmp_path / "r_weights.csv", newline="", encoding="utf-8") as fh:
            report = list(csv.reader(fh))
        code, out, err = run_cli(["fit", *book, "--scale", "both"], capsys)
        assert (code, err) == (0, "")
        fitted = list(csv.reader(io.StringIO(out, newline="")))
        assert report[0] == fitted[0] == ["exam", "solver", "scale", "question", "weight"]

        with open(quoted_files["--questions"], newline="", encoding="utf-8") as fh:
            qids = [row[0] for row in list(csv.reader(fh))[1:]] + ["_intercept"]
        assert set(QUOTED_IDS.values()) <= set(qids)

        def blocks(rows):  # (solver, scale) -> its rows, in order
            cells = {}
            for row in rows[1:]:
                cells.setdefault((row[1], row[2]), []).append(row)
            return cells

        report_blocks, fit_blocks = blocks(report), blocks(fitted)
        assert {solver for solver, _ in fit_blocks} == set(cli.SOLVER_ALIASES.values())
        assert all([row[3] for row in rows] == qids for rows in report_blocks.values())
        assert {k: report_blocks[k] for k in fit_blocks} == fit_blocks


class TestAnalyze:
    def test_question_distribution(self, files, capsys):
        code, out, _ = run_cli(
            ["analyze", *gradebook_args(files), "--question", "MC1"], capsys
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["student", "score", "ability"]
        abilities = [float(r[2]) for r in rows[1:]]
        assert abilities == sorted(abilities)

    def test_extremes(self, files, capsys):
        code, out, _ = run_cli(
            ["analyze", *gradebook_args(files), "--extremes", "2"], capsys
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert [r[0] for r in rows[1:]] == ["top", "top", "bottom", "bottom"]

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_extremes_below_one_is_a_usage_error(self, tmp_path, capsys, k):
        # rejected before any file is read: none of these files exists
        book = {flag: str(tmp_path / name) for flag, name in
                [("--scores", "s.csv"), ("--questions", "q.csv"), ("--components", "c.csv")]}
        code, out, err = run_cli(["analyze", *gradebook_args(book), "--extremes", k], capsys)
        assert code == 64 and out == ""
        assert err.splitlines()[-1] == (
            f"examweight: error: argument --extremes: K must be at least 1, got {k}")

    def test_degenerate(self, files, capsys):
        code, out, _ = run_cli(
            ["analyze", *gradebook_args(files), "--degenerate"], capsys
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["question", "flags"]

    def test_unknown_question_is_data_error(self, files, capsys):
        code, _, err = run_cli(
            ["analyze", *gradebook_args(files), "--question", "MC999"], capsys
        )
        assert code == 1
        assert "unknown question" in err


class TestSolverOptions:
    @pytest.mark.parametrize("command", [["fit"], ["evaluate"], ["analyze", "--degenerate"]])
    def test_defaults_are_the_library_defaults(self, command):
        book = ["--scores", "s.csv", "--questions", "q.csv", "--components", "c.csv"]
        args = cli.build_parser().parse_args([*command, *book])
        assert args.epsilon == solvers.DEFAULT_CONFIG.huber_epsilon
        assert args.alpha == solvers.DEFAULT_CONFIG.huber_regularization

    def test_help_states_the_library_defaults(self, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["fit", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"(default {solvers.DEFAULT_CONFIG.huber_epsilon})" in help_text
        assert f"(default {solvers.DEFAULT_CONFIG.huber_regularization})" in help_text


class TestExitCodes:
    def test_usage_error_is_64(self, capsys):
        code, _, _ = run_cli(["evaluate", "--bogus-flag"], capsys)
        assert code == 64

    def test_missing_subcommand_is_64(self, capsys):
        code, _, _ = run_cli([], capsys)
        assert code == 64

    def test_data_error_is_1(self, tmp_path, capsys):
        for name in ("s.csv", "q.csv", "c.csv"):
            (tmp_path / name).write_text("garbage\n", encoding="utf-8")
        code, _, err = run_cli(
            ["evaluate",
             "--scores", str(tmp_path / "s.csv"),
             "--questions", str(tmp_path / "q.csv"),
             "--components", str(tmp_path / "c.csv")],
            capsys,
        )
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("argv, where", [
        (["fit"], "missing/w.csv"),
        (["analyze", "--degenerate"], "file/d.csv"),
        (["evaluate", "--compare-exclusion"], "missing/c.csv"),
        (["evaluate"], "file/e.csv"),
        (["evaluate", "--format", "json"], "missing/e.json"),
    ], ids=["fit", "analyze", "compare-exclusion", "evaluate", "evaluate-json"])
    def test_unwritable_out_is_1(self, files, tmp_path, capsys, argv, where):
        (tmp_path / "file").write_text("", encoding="utf-8")
        out = tmp_path / where
        code, _, err = run_cli([*argv, *gradebook_args(files), "--out", str(out)], capsys)
        assert code == 1
        assert err.startswith(f"error: {out}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_csv_report_is_written_whole_or_not_at_all(self, files, tmp_path, capsys):
        # the MAE table can be written, its weights sibling cannot
        (tmp_path / "pw" / "r_weights.csv").mkdir(parents=True)
        out = tmp_path / "pw" / "r.csv"
        code, _, err = run_cli(["evaluate", *gradebook_args(files), "--out", str(out)], capsys)
        assert code == 1
        assert err.startswith(f"error: {out.with_name('r_weights.csv')}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert [p.name for p in (tmp_path / "pw").iterdir()] == ["r_weights.csv"]

    @pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="no /dev/fd")
    def test_csv_report_to_a_pipe_is_1_and_writes_nothing(self, files, capsys):
        # as --out /dev/stdout is when stdout is a pipe: the weights table
        # has no sibling to go to, so neither table is written
        r, w = os.pipe()
        with os.fdopen(r, "rb") as reader:
            try:
                code, out, err = run_cli(
                    ["evaluate", *gradebook_args(files), "--out", f"/dev/fd/{w}"], capsys
                )
            finally:
                os.close(w)
            assert reader.read() == b""
        assert code == 1 and out == ""
        assert err.startswith(f"error: /dev/fd/{w}: not a regular file; a CSV report is two files")
        assert err.count("\n") == 1 and "Traceback" not in err

    # the commands that fit weights; analyze --question and --degenerate
    # refuse the solver options (test_a_solver_option_without_extremes_is_64)
    SOLVER_COMMANDS = {
        "fit": ["fit"],
        "evaluate": ["evaluate"],
        "compare-exclusion": ["evaluate", "--compare-exclusion"],
        "extremes": ["analyze", "--extremes", "3"],
    }

    @pytest.mark.parametrize("argv", list(SOLVER_COMMANDS.values()), ids=list(SOLVER_COMMANDS))
    def test_a_bad_input_file_is_reported_before_a_bad_alpha(self, files, capsys, argv):
        Path(files["--components"]).write_text("garbage\n", encoding="utf-8")
        code, out, err = run_cli([*argv, *gradebook_args(files), "--alpha", "nan"], capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {files['--components']}: ")

    @pytest.mark.parametrize("argv", list(SOLVER_COMMANDS.values()), ids=list(SOLVER_COMMANDS))
    def test_a_bad_alpha_is_1_in_every_command_that_reads_a_gradebook(self, files, capsys, argv):
        code, out, err = run_cli([*argv, *gradebook_args(files), "--alpha", "nan"], capsys)
        assert code == 1 and out == ""
        assert err == "error: huber_regularization must be finite and nonnegative\n"

    @pytest.mark.parametrize("analysis, option", [
        (["--question", "MC1"], ["--alpha", "nan"]),
        (["--question", "MC1"], ["--epsilon", "1.8"]),
        (["--question", "MC1"], ["--solver", "ols"]),
        (["--degenerate"], ["--alpha", "0.1"]),
        (["--degenerate"], ["--strict"]),
    ], ids=["question-alpha", "question-epsilon", "question-solver",
            "degenerate-alpha", "degenerate-strict"])
    def test_a_solver_option_without_extremes_is_64(self, tmp_path, capsys, analysis, option):
        # only --extremes fits; refused before any file is read, even one
        # that is not there, and whatever the option's value
        book = {flag: str(tmp_path / name) for flag, name in
                [("--scores", "s.csv"), ("--questions", "q.csv"), ("--components", "c.csv")]}
        code, out, err = run_cli(["analyze", *analysis, *gradebook_args(book), *option], capsys)
        assert code == 64 and out == ""
        assert err.splitlines()[-1] == (
            f"examweight: error: argument {option[0]}: not allowed without --extremes, "
            "the one analysis that fits weights")

    def test_scale_with_degenerate_is_64(self, tmp_path, capsys):
        # the degeneracy flags read no target, so a scale would be ignored;
        # refused before any file is read, even one that is not there
        book = {flag: str(tmp_path / name) for flag, name in
                [("--scores", "s.csv"), ("--questions", "q.csv"), ("--components", "c.csv")]}
        argv = ["analyze", "--degenerate", *gradebook_args(book), "--scale", "actual"]
        code, out, err = run_cli(argv, capsys)
        assert code == 64 and out == ""
        assert err.splitlines()[-1] == (
            "examweight: error: argument --scale: not allowed with --degenerate, "
            "which reads no target")

    @pytest.mark.parametrize("analysis", [["--question", "MC1"], ["--extremes", "2"]],
                             ids=["question", "extremes"])
    def test_scale_is_kept_by_the_analyses_that_read_a_target(self, files, capsys, analysis):
        argv = ["analyze", *analysis, *gradebook_args(files)]
        code, default, _ = run_cli(argv, capsys)
        assert code == 0
        assert run_cli([*argv, "--scale", "actual"], capsys) == (0, default, "")
        code, out, _ = run_cli([*argv, "--scale", "normalized"], capsys)
        assert code == 0 and out.splitlines()[0] == default.splitlines()[0]

    def test_unwritable_out_dir_is_1(self, tmp_path, capsys):
        (tmp_path / "file").write_text("", encoding="utf-8")
        out_dir = tmp_path / "file" / "cohort"
        code, _, err = run_cli(GEN_ARGS + ["--out-dir", str(out_dir)], capsys)
        assert code == 1
        assert err.startswith(f"error: {out_dir}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_undecodable_input_is_1(self, files, capsys):
        Path(files["--components"]).write_bytes(b"student,homework\n\xff\n")
        code, _, err = run_cli(["evaluate", *gradebook_args(files)], capsys)
        assert code == 1
        assert err.startswith(f"error: {files['--components']}: 'utf-8' codec can't decode")

    def test_strict_evaluate_on_seed7_cohort_is_0(self, files, capsys):
        code, _, err = run_cli(
            ["evaluate", "--strict", *gradebook_args(files)], capsys
        )
        assert code == 0
        assert "warning" not in err

    def test_more_subparts_than_letters_is_1(self, tmp_path, capsys):
        argv = ["generate", "--analytical", "1", "--subparts", "27", "--out-dir", str(tmp_path)]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert err == "error: at most 26 subparts per analytical question (ids run a to z)\n"
        assert out == "" and not list(tmp_path.iterdir())

    @pytest.mark.parametrize("option, value, message", [
        ("--noise", "inf", "noise must be finite and nonnegative"),
        ("--discrimination", "nan", "discrimination must be finite"),
    ])
    def test_non_finite_generate_option_is_1(self, tmp_path, capsys, option, value, message):
        argv = ["generate", "--seed", "7", option, value, "--out-dir", str(tmp_path)]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert err == f"error: {message}\n"
        assert out == "" and not list(tmp_path.iterdir())


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "examweight", *GEN_ARGS,
             "--out-dir", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "components.csv").exists()


class TestUnconvergedWarning:
    @staticmethod
    def report(reasons):
        folds = tuple(
            solvers.WeightSolution(
                question_weights=np.zeros(2), intercept=0.0, stop_reason=reason,
            )
            for reason in reasons
        )
        rec = experiment.ApproachRecord(
            approach=solvers.HUBER, scale="actual", exclusion="include_exam",
            fold_weights=folds, averaged_weights=folds[0],
            predictions=np.zeros(len(folds)), target=np.zeros(len(folds)), mae=0.0,
            unconverged_folds=tuple(
                k for k, f in enumerate(folds) if not f.converged
            ),
        )
        return experiment.EvaluationReport(
            exam="final", question_ids=("Q1", "Q2"), records=(rec,)
        )

    def test_folds_grouped_by_real_reason(self, capsys):
        rep = self.report([
            solvers.STOP_GRADIENT, solvers.STOP_STALLED, solvers.STOP_ITERATION_CAP,
            solvers.STOP_GRADIENT, solvers.STOP_STALLED,
        ])
        cli._warn_unconverged(rep, strict=False)
        err = capsys.readouterr().err
        assert "folds [1, 4] stalled" in err
        assert "folds [2] hit the iteration cap" in err
        assert err.count("warning:") == 1

    def test_names_every_stalled_fold_of_a_fitter(self, monkeypatch, capsys):
        # stalled near stationarity: evaluate keeps the folds, the CLI warns
        def stalled(s, a, cfg):
            return solvers.WeightSolution(
                question_weights=np.zeros(s.shape[1]), intercept=0.0,
                gradient_norm=1e-6, stop_reason=solvers.STOP_STALLED,
            )

        monkeypatch.setitem(solvers.FITTERS, "stalled", stalled)
        book = synthetic.generate_gradebook(synthetic.SyntheticSpec(seed=7))
        rep = experiment.evaluate(book, "final", scales=("actual",), approaches=("stalled",))
        cli._warn_unconverged(rep, strict=False)
        assert capsys.readouterr().err == (
            "warning: stalled (actual, include_exam): folds [0, 1, 2, 3, 4, 5, 6, 7, 8] "
            "stalled (the line search found no further decrease)\n"
        )

    def test_compare_exclusion_warns_include_exam_first(self, files, monkeypatch, capsys):
        def stalled(s, a, cfg):
            return solvers.WeightSolution(
                question_weights=np.zeros(s.shape[1]), intercept=0.0,
                gradient_norm=1e-6, stop_reason=solvers.STOP_STALLED,
            )

        monkeypatch.setitem(solvers.FITTERS, solvers.HUBER, stalled)
        argv = ["evaluate", *gradebook_args(files), "--compare-exclusion", "--scale", "actual"]
        code, _, err = run_cli(argv, capsys)
        folds = "folds [0, 1, 2, 3, 4, 5, 6, 7, 8] stalled (the line search found no further decrease)"
        assert code == 0
        assert err == (
            f"warning: huber (actual, include_exam): {folds}\n"
            f"warning: huber (actual, exclude_exam): {folds}\n"
        )
        code, _, err = run_cli([*argv, "--strict"], capsys)
        assert (code, err) == (2, f"error: huber (actual, include_exam): {folds}\n")

    def test_strict_raises_with_the_reason(self):
        rep = self.report([solvers.STOP_GRADIENT, solvers.STOP_STALLED])
        with pytest.raises(ConvergenceError, match=r"^huber \(actual, include_exam\): folds \[1\] stalled"):
            cli._warn_unconverged(rep, strict=True)
