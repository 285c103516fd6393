import csv
import json
import os
import re
import stat
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from examweight import dataio, experiment, gradebook as gb, solvers, synthetic
from examweight.errors import DataError


@pytest.fixture
def cohort():
    return synthetic.generate_gradebook(synthetic.SyntheticSpec(seed=7))


def uniform_report(book):
    return experiment.evaluate(book, "final", approaches=(solvers.UNIFORM,))


class TestRoundTrip:
    def test_write_then_load_is_exact(self, cohort, tmp_path):
        fileset = dataio.write_gradebook_files(cohort, tmp_path)
        loaded = dataio.load_gradebook(fileset)
        assert loaded.students == cohort.students
        assert loaded.questions == cohort.questions
        for exam in cohort.exams:
            np.testing.assert_array_equal(loaded.exams[exam], cohort.exams[exam])
        for name in gb.COMPONENTS:
            np.testing.assert_array_equal(
                loaded.components[name], cohort.components[name]
            )

    def test_synthetic_cohort_shape(self, cohort):
        assert len(cohort.students) == 9
        ids = cohort.question_ids("final")
        assert len(ids) == 53
        kinds = [q.kind for q in cohort.questions["final"]]
        assert kinds.count(gb.MULTIPLE_CHOICE) == 30
        assert kinds.count(gb.TRUE_FALSE) == 15
        assert kinds.count(gb.ANALYTICAL_SUBPART) == 8
        assert cohort.question_points("final").sum() == pytest.approx(100.0)

    def test_generation_is_byte_deterministic(self, tmp_path):
        spec = synthetic.SyntheticSpec(seed=7)
        a = dataio.write_gradebook_files(synthetic.generate_gradebook(spec), tmp_path / "a")
        b = dataio.write_gradebook_files(synthetic.generate_gradebook(spec), tmp_path / "b")
        for pa, pb in (
            (a.components, b.components),
            (a.scores["final"], b.scores["final"]),
            (a.questions["final"], b.questions["final"]),
        ):
            assert pa.read_bytes() == pb.read_bytes()

    def test_student_order_follows_components_file(self, cohort, tmp_path):
        fileset = dataio.write_gradebook_files(cohort, tmp_path)
        rows = list(csv.reader(open(fileset.scores["final"], encoding="utf-8")))
        # reverse the score rows; the loader must realign them
        body = rows[1:][::-1]
        with open(fileset.scores["final"], "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([rows[0], *body])
        loaded = dataio.load_gradebook(fileset)
        assert loaded.students == cohort.students
        np.testing.assert_array_equal(loaded.exams["final"], cohort.exams["final"])


def reference_student_table(path, rows, columns, lo, hi, what):
    """The loader's row-by-row reading of a student table, one cell at a
    time: the reference for dataio._student_table's whole-table parse."""
    body = rows[1:]
    if not body:
        raise DataError(f"{path}: no students")
    students = {}
    matrix = np.zeros((len(body), len(columns)))
    for r, row in enumerate(body, start=2):
        if len(row) != len(columns) + 1:
            raise DataError(f"{path}: row {r}: expected {len(columns) + 1} fields, got {len(row)}")
        if row[0] in students:
            raise DataError(
                f"{path}: row {r}: duplicate student {row[0]!r} (first on row {students[row[0]]})"
            )
        students[row[0]] = r
        for c, (col, cell) in enumerate(zip(columns, row[1:])):
            try:
                val = float(cell)
            except ValueError:
                raise DataError(f"{path}: row {r}, column {col!r}: not a number: {cell!r}") from None
            if not lo <= val <= hi:
                raise DataError(f"{path}: row {r}, column {col!r}: {what} {val} outside [{lo}, {hi}]")
            matrix[r - 2, c] = val
    return tuple(students), matrix


CLEAN_CELLS = ["0", "-0", "1", " 0.5 ", "5e-1", "1e-300"]
FAULTS = ["unparsable", "out_of_range", "nan", "inf", "short", "long", "duplicate"]


@st.composite
def faulty_tables(draw):
    """(rows, columns, lo, hi): a small table of clean cells, with none, one
    or two faults at random rows and columns."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    lo, hi = draw(st.sampled_from([(0, 1), (0, 100)]))
    columns = [f"Q{j}" for j in range(m)]
    body = [[f"s{i}", *draw(st.lists(st.sampled_from(CLEAN_CELLS), min_size=m, max_size=m))]
            for i in range(n)]
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=2)):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(1, m))
        if fault == "short":
            del body[i][-1]
        elif fault == "long":
            body[i].append("0")
        elif fault == "duplicate":
            if n > 1:  # another row's student
                body[i][0] = body[(i + draw(st.integers(1, n - 1))) % n][0]
        elif j < len(body[i]):
            body[i][j] = {"unparsable": "x", "out_of_range": draw(st.sampled_from(["-0.5", "101"])),
                          "nan": "nan", "inf": "inf"}[fault]
    return [["student", *columns], *body], columns, lo, hi


class TestLoaderErrors:
    def write(self, tmp_path, name, text):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return p

    def fileset(self, tmp_path, scores=None, questions=None, components=None):
        s = self.write(
            tmp_path, "s.csv", scores if scores is not None else "student,Q1\nal,0.5\n"
        )
        q = self.write(
            tmp_path,
            "q.csv",
            questions if questions is not None else "id,kind,max_points,parent\nQ1,mc,100,\n",
        )
        c = self.write(
            tmp_path,
            "c.csv",
            components
            if components is not None
            else "student,homework,midterm,project,final\nal,50,50,50,50\n",
        )
        return dataio.GradebookFileSet(scores={"final": s}, questions={"final": q}, components=c)

    def test_malformed_cell_names_coordinates(self, tmp_path):
        fs = self.fileset(tmp_path, scores="student,Q1\nal,oops\n")
        with pytest.raises(DataError, match=r"row 2, column 'Q1'.*'oops'"):
            dataio.load_gradebook(fs)

    def test_score_out_of_range(self, tmp_path):
        fs = self.fileset(tmp_path, scores="student,Q1\nal,1.5\n")
        with pytest.raises(DataError, match=r"outside \[0, 1\]"):
            dataio.load_gradebook(fs)

    def test_component_out_of_range(self, tmp_path):
        fs = self.fileset(
            tmp_path,
            components="student,homework,midterm,project,final\nal,50,50,50,101\n",
        )
        with pytest.raises(DataError, match=r"outside \[0, 100\]"):
            dataio.load_gradebook(fs)

    def test_bad_question_header(self, tmp_path):
        fs = self.fileset(tmp_path, questions="id,max_points\nQ1,100\n")
        with pytest.raises(DataError, match="expected header"):
            dataio.load_gradebook(fs)

    def test_unknown_kind(self, tmp_path):
        fs = self.fileset(tmp_path, questions="id,kind,max_points,parent\nQ1,essay,100,\n")
        with pytest.raises(DataError, match="unknown kind 'essay'"):
            dataio.load_gradebook(fs)

    def test_empty_scores_file(self, tmp_path):
        fs = self.fileset(tmp_path, scores="")
        with pytest.raises(DataError, match="header"):
            dataio.load_gradebook(fs)

    def test_missing_score_column(self, tmp_path):
        fs = self.fileset(
            tmp_path,
            questions="id,kind,max_points,parent\nQ1,mc,60,\nQ2,mc,40,\n",
        )
        with pytest.raises(DataError, match="missing for questions"):
            dataio.load_gradebook(fs)

    def test_student_mismatch(self, tmp_path):
        fs = self.fileset(tmp_path, scores="student,Q1\nbetty,0.5\n")
        with pytest.raises(DataError, match="students disagree") as err:
            dataio.load_gradebook(fs)
        # the first student missing from each side, named with that side's file
        assert f"'al' is not in {fs.scores['final']}" in str(err.value)
        assert f"'betty' is not in {fs.components}" in str(err.value)

    def test_student_missing_from_one_side_only(self, tmp_path):
        fs = self.fileset(
            tmp_path,
            components="student,homework,midterm,project,final\nal,50,50,50,50\n"
            "cy,50,50,50,50\ndee,50,50,50,50\n",
        )
        with pytest.raises(DataError) as err:
            dataio.load_gradebook(fs)
        assert str(err.value).endswith(f": 'cy' is not in {fs.scores['final']}")

    def test_duplicate_student_in_scores(self, tmp_path):
        fs = self.fileset(tmp_path, scores="student,Q1\nal,0.5\nal,0.7\n")
        with pytest.raises(
            DataError, match=r"s\.csv: row 3: duplicate student 'al' \(first on row 2\)"
        ):
            dataio.load_gradebook(fs)

    def test_duplicate_question_names_the_questions_file(self, tmp_path):
        fs = self.fileset(
            tmp_path,
            scores="student,Q1,Q2\nal,1,0\n",
            questions="id,kind,max_points,parent\nQ1,mc,60,\nQ1,mc,40,\n",
        )
        with pytest.raises(
            DataError, match=r"q\.csv: row 3: duplicate question 'Q1' \(first on row 2\)"
        ):
            dataio.load_gradebook(fs, check_consistency=False)

    @pytest.mark.parametrize("points", ["0", "-1", "nan", "inf"])
    def test_max_points_must_be_finite_and_positive(self, tmp_path, points):
        fs = self.fileset(tmp_path, questions=f"id,kind,max_points,parent\nQ1,mc,{points},\n")
        with pytest.raises(
            DataError, match=r"q\.csv: row 2, column 'max_points': .* is not finite and positive"
        ):
            dataio.load_gradebook(fs, check_consistency=False)

    @pytest.mark.parametrize("row", ["Q1,mc,100,A1", "Q1,sub,100,"])
    def test_question_errors_name_the_file_and_row(self, tmp_path, row):
        fs = self.fileset(tmp_path, questions=f"id,kind,max_points,parent\n{row}\n")
        with pytest.raises(
            DataError, match=r"q\.csv: row 2: question Q1: parent is required exactly for"
        ):
            dataio.load_gradebook(fs, check_consistency=False)

    def test_repeated_question_column_in_scores(self, tmp_path):
        # two students, so a silently dropped second Q1 column would still load
        fs = self.fileset(
            tmp_path,
            scores="student,Q1,Q1,Q2\nal,1,0,1\nbo,0,1,0\n",
            questions="id,kind,max_points,parent\nQ1,mc,60,\nQ2,mc,40,\n",
            components="student,homework,midterm,project,final\nal,50,50,50,50\nbo,60,60,60,60\n",
        )
        with pytest.raises(DataError, match=r"s\.csv: repeated question ids in header: \['Q1'\]"):
            dataio.load_gradebook(fs)

    def test_duplicate_student_in_components(self, tmp_path):
        fs = self.fileset(
            tmp_path,
            components="student,homework,midterm,project,final\nal,50,50,50,50\nal,60,60,60,60\n",
        )
        with pytest.raises(
            DataError, match=r"c\.csv: row 3: duplicate student 'al' \(first on row 2\)"
        ):
            dataio.load_gradebook(fs)

    @pytest.mark.parametrize("name", ["s.csv", "q.csv", "c.csv"])
    def test_utf8_bom_is_ignored(self, tmp_path, name):
        fs = self.fileset(tmp_path)
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        book = dataio.load_gradebook(fs, check_consistency=False)
        assert book.students == ("al",)
        assert book.question_ids("final") == ("Q1",)

    @pytest.mark.parametrize("name", ["s.csv", "q.csv", "c.csv"])
    def test_undecodable_file_is_named(self, tmp_path, name):
        fs = self.fileset(tmp_path)
        path = tmp_path / name
        path.write_bytes(path.read_bytes() + b"\xe9\n")
        message = f"{path}: 'utf-8' codec can't decode byte 0xe9"
        with pytest.raises(DataError, match="^" + re.escape(message)):
            dataio.load_gradebook(fs)

    @pytest.mark.parametrize("files, message", [
        ({"scores": "student,Q1\n"}, "{s}: no students"),
        ({"scores": "student,Q1\nal,0.5,0.7\n"}, "{s}: row 2: expected 2 fields, got 3"),
        ({"questions": "id,kind,max_points,parent\nQ1,mc,100\n"},
         "{q}: row 2: expected 4 fields, got 3"),
        ({"questions": "id,kind,max_points,parent\n"}, "{q}: no questions"),
        ({"scores": "student,Q1,Q9\nal,0.5,0.5\n"},
         "{s}: unknown question ids in header: ['Q9']"),
        ({"exam": "midterm"}, "scores and questions files must cover the same exams"),
    ])
    def test_rejection_messages(self, tmp_path, files, message):
        fs = self.fileset(tmp_path, **{k: v for k, v in files.items() if k != "exam"})
        if "exam" in files:  # the questions file is for another exam
            fs = dataio.GradebookFileSet(
                scores=fs.scores, questions={files["exam"]: fs.questions["final"]},
                components=fs.components,
            )
        message = message.format(s=tmp_path / "s.csv", q=tmp_path / "q.csv")
        with pytest.raises(DataError) as err:
            dataio.load_gradebook(fs, check_consistency=False)
        assert str(err.value) == message

    @pytest.mark.parametrize("body, message", [
        # in one row, the first bad cell from the left, range or parse
        ("al,1.5,oops\n", "row 2, column 'Q1': fractional score 1.5 outside [0, 1]"),
        ("al,oops,1.5\n", "row 2, column 'Q1': not a number: 'oops'"),
        ("al,nan,oops\n", "row 2, column 'Q1': fractional score nan outside [0, 1]"),
        ("al,0.5,-0.5\n", "row 2, column 'Q2': fractional score -0.5 outside [0, 1]"),
        # a bad cell wins over a fault further down, and loses to one above
        ("al,0.5,2\nbo,0.5\n", "row 2, column 'Q2': fractional score 2.0 outside [0, 1]"),
        ("al,0.5,x\nbo,0.5\n", "row 2, column 'Q2': not a number: 'x'"),
        ("al,2,0.5\nal,0.5,0.5\n", "row 2, column 'Q1': fractional score 2.0 outside [0, 1]"),
        ("al,0.5\nbo,2,0.5\n", "row 2: expected 3 fields, got 2"),
        ("al,0.5,0.5\nal,x,0.5\n", "row 3: duplicate student 'al' (first on row 2)"),
        ("al,0.5,0.5\nbo,0.5,inf\n", "row 3, column 'Q2': fractional score inf outside [0, 1]"),
    ])
    def test_first_fault_in_a_scores_table_is_reported(self, tmp_path, body, message):
        fs = self.fileset(
            tmp_path, scores="student,Q1,Q2\n" + body,
            questions="id,kind,max_points,parent\nQ1,mc,50,\nQ2,mc,50,\n",
        )
        with pytest.raises(DataError) as err:
            dataio.load_gradebook(fs, check_consistency=False)
        assert str(err.value) == f"{tmp_path / 's.csv'}: {message}"

    def test_first_fault_in_a_components_table_is_reported(self, tmp_path):
        fs = self.fileset(tmp_path, components=(
            "student,homework,midterm,project,final\nal,50,101,x,50\nbo,50,50\n"
        ))
        with pytest.raises(DataError) as err:
            dataio.load_gradebook(fs, check_consistency=False)
        assert str(err.value) == (
            f"{tmp_path / 'c.csv'}: row 2, column 'midterm': component score 101.0 outside [0, 100]"
        )

    @settings(max_examples=300, deadline=None)
    @given(table=faulty_tables())
    def test_student_table_agrees_with_the_per_cell_loop(self, table):
        rows, columns, lo, hi = table
        try:
            expected = reference_student_table(Path("t.csv"), rows, columns, lo, hi, "score")
        except DataError as exc:
            with pytest.raises(DataError) as err:
                dataio._student_table(Path("t.csv"), rows, columns, lo, hi, "score")
            assert str(err.value) == str(exc)
        else:
            students, matrix = dataio._student_table(Path("t.csv"), rows, columns, lo, hi, "score")
            assert students == expected[0]
            assert matrix.dtype == expected[1].dtype and matrix.shape == expected[1].shape
            assert matrix.tobytes() == expected[1].tobytes()

    @pytest.mark.parametrize("header, message", [
        # listed in header order
        ("student,Q9,Q1,Q2,Q3,Q0", "unknown question ids in header: ['Q9', 'Q0']"),
        # listed in questions-file order
        ("student,Q2", "score columns missing for questions: ['Q3', 'Q1']"),
    ])
    def test_header_ids_are_listed_in_file_order(self, tmp_path, header, message):
        fs = self.fileset(
            tmp_path, scores=header + "\n",
            questions="id,kind,max_points,parent\nQ3,mc,30,\nQ2,mc,30,\nQ1,mc,40,\n",
        )
        with pytest.raises(DataError) as err:
            dataio.load_gradebook(fs, check_consistency=False)
        assert str(err.value) == f"{tmp_path / 's.csv'}: {message}"

    def test_consistency_check_applied(self, tmp_path):
        # final component 50 but actual exam total 100
        fs = self.fileset(tmp_path, scores="student,Q1\nal,1.0\n")
        with pytest.raises(DataError, match="disagrees"):
            dataio.load_gradebook(fs)
        dataio.load_gradebook(fs, check_consistency=False)

    def test_missing_file(self, tmp_path):
        fs = self.fileset(tmp_path)
        fs.components.unlink()
        with pytest.raises(DataError):
            dataio.load_gradebook(fs)


class TestReportSerialization:
    @pytest.fixture
    def report(self, cohort):
        return experiment.evaluate(
            cohort,
            "final",
            approaches=(solvers.UNIFORM, solvers.ACTUAL),
        )

    def test_mae_table_layout(self, report):
        header, rows = dataio.mae_table(report)
        assert header[0] == "overall_score"
        assert list(header[1:]) == [solvers.UNIFORM, solvers.ACTUAL]
        labels = [r[0] for r in rows]
        assert labels == ["final (actual)", "final (normalized)"]
        for row in rows:
            for cell in row[1:]:
                assert cell == "" or len(cell.split(".")[-1]) == 4

    def test_weight_rows_long_format(self, report):
        rows = dataio.weight_rows(report)
        # 2 scales x 2 approaches x (53 questions + intercept)
        assert len(rows) == 2 * 2 * 54
        exams, solvers_, scales, qids, _ = zip(*rows)
        assert set(exams) == {"final"}
        assert set(scales) == {"actual", "normalized"}
        assert "_intercept" in qids
        uniform_weight = next(
            float(r[4]) for r in rows if r[1] == "uniform" and r[3] != "_intercept"
        )
        assert uniform_weight == pytest.approx(100.0 / 53)

    def test_csv_writes_two_files(self, report, tmp_path):
        out = tmp_path / "report.csv"
        paths = dataio.write_report(report, out, "csv")
        assert paths == [out, tmp_path / "report_weights.csv"]
        assert all(p.exists() for p in paths)

    def test_json_mirrors_tables(self, report, tmp_path):
        out = tmp_path / "report.json"
        (path,) = dataio.write_report(report, out, "json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert set(payload) == {"mae", "weights"}
        header, rows = dataio.mae_table(report)
        assert payload["mae"] == [dict(zip(header, row)) for row in rows]
        assert len(payload["weights"]) == len(dataio.weight_rows(report))

    def test_unknown_format(self, report, tmp_path):
        with pytest.raises(ValueError, match="unknown format"):
            dataio.write_report(report, tmp_path / "r.xml", "xml")

    def test_exclusion_rows_get_suffixed_label(self, cohort):
        rep = experiment.evaluate(
            cohort,
            "final",
            approaches=(solvers.UNIFORM,),
            scales=(gb.ACTUAL_SCALE,),
            exclusions=(gb.EXCLUDE_EXAM,),
        )
        _, rows = dataio.mae_table(rep)
        assert rows[0][0] == "final (actual_excl)"
        wrows = dataio.weight_rows(rep)
        assert {r[2] for r in wrows} == {"actual_excl"}


class TestWriters:
    HEADER = ["student", "score"]
    ROWS = [["al", repr(0.1)], ["bo, jr", 1 / 3]]
    GOLDEN = b'student,score\r\nal,0.1\r\n"bo, jr",0.3333333333333333\r\n'

    def test_csv_bytes_in_a_file(self, tmp_path):
        out = tmp_path / "t.csv"
        dataio.write_csv(self.HEADER, self.ROWS, out)
        assert out.read_bytes() == self.GOLDEN

    def test_csv_bytes_on_stdout(self, capsysbinary):
        dataio.write_csv(self.HEADER, self.ROWS)
        assert capsysbinary.readouterr().out == self.GOLDEN

    WRITERS = {
        "report-csv": lambda book, out: dataio.write_report(uniform_report(book), out, "csv"),
        "report-json": lambda book, out: dataio.write_report(uniform_report(book), out, "json"),
        "diagnostics-csv": lambda book, out: dataio.write_diagnostics([], out),
        "gradebook": dataio.write_gradebook_files,
    }

    @pytest.mark.parametrize("writer", list(WRITERS))
    def test_unwritable_path_is_named(self, cohort, tmp_path, writer):
        (tmp_path / "file").write_text("", encoding="utf-8")
        out = tmp_path / "file" / "out"
        with pytest.raises(DataError, match="^" + re.escape(f"{out}: ")):
            self.WRITERS[writer](cohort, out)


    @staticmethod
    def failing_rows():
        yield ["al", "0.5"]
        raise OSError("device lost")

    def test_failed_write_leaves_no_file(self, tmp_path):
        out = tmp_path / "t.csv"
        with pytest.raises(DataError, match="^" + re.escape(f"{out}: device lost")):
            dataio.write_csv(self.HEADER, self.failing_rows(), out)
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        out = tmp_path / "t.csv"
        out.write_bytes(b"old")
        with pytest.raises(DataError):
            dataio.write_csv(self.HEADER, self.failing_rows(), out)
        assert list(tmp_path.iterdir()) == [out] and out.read_bytes() == b"old"

    def test_gradebook_set_is_written_together(self, cohort, tmp_path):
        (tmp_path / "components.csv").mkdir()
        with pytest.raises(DataError, match="^" + re.escape(f"{tmp_path / 'components.csv'}: ")):
            dataio.write_gradebook_files(cohort, tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["components.csv"]

    def test_symlink_is_written_through(self, tmp_path):
        (tmp_path / "d").mkdir()
        target = tmp_path / "d" / "t.csv"
        target.write_bytes(b"old")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        dataio.write_csv(self.HEADER, self.ROWS, link)
        assert link.is_symlink() and target.read_bytes() == self.GOLDEN
        assert [p.name for p in (tmp_path / "d").iterdir()] == ["t.csv"]

    def test_pipe_is_written_in_place(self, tmp_path):
        # as /dev/null or /dev/stdout would be: not replaced by a file
        fifo = tmp_path / "p"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        dataio.write_csv(self.HEADER, self.ROWS, fifo)
        reader.join(timeout=10)
        assert not reader.is_alive() and got == [self.GOLDEN]
        assert stat.S_ISFIFO(fifo.stat().st_mode)

    @pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="no /dev/fd")
    def test_pipe_named_by_a_descriptor_is_written_in_place(self):
        # as /dev/stdout is when stdout is a pipe: the name resolves to a
        # pipe:[...] entry that names no file
        r, w = os.pipe()
        with os.fdopen(r, "rb") as reader:
            try:
                dataio.write_csv(self.HEADER, self.ROWS, Path(f"/dev/fd/{w}"))
            finally:
                os.close(w)
            assert reader.read() == self.GOLDEN

    @pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="no /dev/fd")
    def test_csv_report_to_a_pipe_is_refused_before_writing(self, cohort):
        # the weights table would go to a sibling of the pipe's name, so the
        # pair cannot be written both or neither
        r, w = os.pipe()
        path = Path(f"/dev/fd/{w}")
        with os.fdopen(r, "rb") as reader:
            try:
                with pytest.raises(DataError) as err:
                    dataio.write_report(experiment.evaluate(cohort, "final"), path)
            finally:
                os.close(w)
            assert reader.read() == b""
        assert str(err.value) == (
            f"{path}: not a regular file; a CSV report is two files, the MAE table "
            f"and {w}_weights.csv beside it: use a file path or --format json"
        )

    def test_csv_report_pair_is_written_together(self, cohort, tmp_path):
        (tmp_path / "r_weights.csv").mkdir()
        with pytest.raises(DataError, match="^" + re.escape(f"{tmp_path / 'r_weights.csv'}: ")):
            dataio.write_report(uniform_report(cohort), tmp_path / "r.csv")
        assert [p.name for p in tmp_path.iterdir()] == ["r_weights.csv"]
        paths = dataio.write_report(uniform_report(cohort), tmp_path / "q.csv")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["q.csv", "q_weights.csv", "r_weights.csv"]
        assert paths == [tmp_path / "q.csv", tmp_path / "q_weights.csv"]


class TestDiagnosticsSerialization:
    def test_ability_rounded_to_cents(self, tmp_path):
        from examweight.analysis import QuestionDiagnostic

        diag = QuestionDiagnostic(
            question="Q1",
            distribution=(("al", 0.123456789, 59.87654),),
        )
        out = tmp_path / "diag.csv"
        dataio.write_diagnostics([diag], out)
        rows = list(csv.DictReader(open(out, encoding="utf-8")))
        assert rows[0]["ability"] == "59.88"
        assert rows[0]["score"] == "0.123456789"

    def test_flag_only_rows(self, tmp_path):
        from examweight.analysis import QuestionDiagnostic

        diag = QuestionDiagnostic(question="Q1", flags=("all_correct",))
        out = tmp_path / "diag.csv"
        dataio.write_diagnostics([diag], out)
        rows = list(csv.DictReader(open(out, encoding="utf-8")))
        assert rows == [
            {"question": "Q1", "student": "", "score": "", "ability": "", "flags": "all_correct"}
        ]
