import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from examweight import cli, experiment, solvers
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
                question_weights=np.zeros(2), intercept=0.0, solver_id=solvers.HUBER,
                converged=reason == solvers.STOP_GRADIENT, stop_reason=reason,
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

    def test_strict_raises_with_the_reason(self):
        rep = self.report([solvers.STOP_GRADIENT, solvers.STOP_STALLED])
        with pytest.raises(ConvergenceError, match=r"folds \[1\] stalled"):
            cli._warn_unconverged(rep, strict=True)
