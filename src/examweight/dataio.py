"""CSV ingestion and report serialization.

Three-file gradebook encoding, all UTF-8 comma-separated with '.' decimals
and a header row:

* scores file (one per exam): ``student,<question ids...>`` with fractional
  scores in [0, 1];
* questions file (one per exam): ``id,kind,max_points,parent`` with kind in
  {mc, tf, sub} and parent empty unless kind=sub;
* components file: ``student,homework,midterm,project,final`` on a 0-100
  scale.

Every CSV file or table examweight writes goes through ``write_csv`` (the
csv module's default dialect: comma-separated, CRLF line ends), to a file or
to stdout.  A file is written to a temporary sibling and moved into place
only when complete, so a failed write leaves no partial file, and the two
files of a CSV report are moved only once both are written.  A file that
cannot be read, decoded as UTF-8 or written raises DataError naming it.

Report serialization: MAE tables use 4 decimal places, weight dumps keep full
precision (repr round-trip), field ordering is deterministic.
"""

from __future__ import annotations

import csv
import errno
import json
import os
import sys
from collections.abc import Callable
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

import numpy as np

from . import gradebook as gb
from .analysis import QuestionDiagnostic
from .errors import DataError
from .experiment import APPROACHES, EvaluationReport

KIND_CODES = {
    "mc": gb.MULTIPLE_CHOICE,
    "tf": gb.TRUE_FALSE,
    "sub": gb.ANALYTICAL_SUBPART,
}
KIND_NAMES = {v: k for k, v in KIND_CODES.items()}

COMPONENT_HEADERS = ["student"] + list(gb.COMPONENTS)
WEIGHT_HEADER = ["exam", "solver", "scale", "question", "weight"]


@dataclass(frozen=True)
class GradebookFileSet:
    """Paths of one cohort's CSV files, keyed by exam id where applicable."""

    scores: dict[str, Path]
    questions: dict[str, Path]
    components: Path


def _read_rows(path: Path) -> list[list[str]]:
    try:
        # utf-8-sig drops the byte-order mark of spreadsheet "CSV UTF-8" exports
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from exc


def _write_files(writers: dict[Path, Callable[[TextIO], None]], newline: str | None = None) -> None:
    """Write each file by calling its writer on a text stream.

    A path that names a directory, through any symlink, is refused; one that
    names another existing file that is not regular, such as /dev/null or a
    pipe, is written in place.  Any other file goes to a new temporary
    sibling of the file a path names, and the siblings are moved onto those
    files only after every one is complete; otherwise they are removed and
    no path is touched.  A failed open, write or move raises DataError
    naming the path.
    """
    staged: list[tuple[Path, Path, Path]] = []  # (path, temporary file, target)
    try:
        for path, write in writers.items():
            with _naming(path):
                if path.is_dir():
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
                if path.exists() and not path.is_file():
                    stream, mode = path, "w"
                else:
                    target = path.resolve()
                    stream, mode = target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp"), "x"
                    staged.append((path, stream, target))
                with open(stream, mode, newline=newline, encoding="utf-8") as fh:
                    write(fh)
        for path, tmp, target in staged:
            with _naming(path):
                os.replace(tmp, target)
    finally:
        for _, tmp, _ in staged:
            with suppress(OSError):
                tmp.unlink(missing_ok=True)


@contextmanager
def _naming(path: Path):
    """Turn an OSError inside the block into DataError naming path."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc


def _csv_writer(header, rows) -> Callable[[TextIO], None]:
    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return write


def write_csv(header, rows, path: Path | str | None = None) -> None:
    """Write a header row and then rows as CSV to path, or to stdout when path
    is None."""
    if path is None:
        _csv_writer(header, rows)(sys.stdout)
    else:
        _write_files({Path(path): _csv_writer(header, rows)}, newline="")


def _parse_float(cell: str, path: Path, row: int, col: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise DataError(
            f"{path}: row {row}, column {col!r}: not a number: {cell!r}"
        ) from None


def _student_table(
    path: Path, rows: list[list[str]], columns, lo: int, hi: int, what: str
) -> tuple[tuple[str, ...], np.ndarray]:
    """The students and their students x columns matrix from a table whose
    header, checked by the caller, is ``student`` then ``columns``.

    Each student has one row, and every cell is a number in [lo, hi]; ``what``
    names such a number in the range error.  A clean table is parsed whole
    (numpy parses a str as float() does); otherwise the rows are read in
    order, and the first fault found is raised.
    """
    body = rows[1:]
    if not body:
        raise DataError(f"{path}: no students")
    names = tuple(row[0] for row in body if row)  # a blank line has none
    if len(set(names)) == len(body) and all(len(row) == len(columns) + 1 for row in body):
        with suppress(ValueError):
            matrix = np.array([row[1:] for row in body], dtype=float)
            if ((lo <= matrix) & (matrix <= hi)).all():
                return names, matrix
    students: dict[str, int] = {}
    matrix = np.zeros((len(body), len(columns)))
    for r, row in enumerate(body, start=2):
        if len(row) != len(columns) + 1:
            raise DataError(
                f"{path}: row {r}: expected {len(columns) + 1} fields, got {len(row)}"
            )
        student = row[0]
        if student in students:
            raise DataError(
                f"{path}: row {r}: duplicate student {student!r} "
                f"(first on row {students[student]})"
            )
        students[student] = r
        for c, (col, cell) in enumerate(zip(columns, row[1:])):
            val = _parse_float(cell, path, r, col)
            if not lo <= val <= hi:
                raise DataError(
                    f"{path}: row {r}, column {col!r}: {what} {val} outside [{lo}, {hi}]"
                )
            matrix[r - 2, c] = val
    return tuple(students), matrix


def _load_questions(path: Path) -> tuple[gb.Question, ...]:
    rows = _read_rows(path)
    if not rows or rows[0] != ["id", "kind", "max_points", "parent"]:
        raise DataError(f"{path}: expected header 'id,kind,max_points,parent'")
    questions = []
    first_rows: dict[str, int] = {}
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != 4:
            raise DataError(f"{path}: row {r}: expected 4 fields, got {len(row)}")
        qid, kind, pts, parent = row
        if qid in first_rows:
            raise DataError(
                f"{path}: row {r}: duplicate question {qid!r} (first on row {first_rows[qid]})"
            )
        first_rows[qid] = r
        if kind not in KIND_CODES:
            raise DataError(
                f"{path}: row {r}, column 'kind': unknown kind {kind!r} "
                f"(expected one of {sorted(KIND_CODES)})"
            )
        points = _parse_float(pts, path, r, "max_points")
        if not (np.isfinite(points) and points > 0):
            raise DataError(
                f"{path}: row {r}, column 'max_points': {points} is not finite and positive"
            )
        try:
            questions.append(gb.Question(
                id=qid, kind=KIND_CODES[kind], max_points=points, parent=parent or None
            ))
        except DataError as exc:
            raise DataError(f"{path}: row {r}: {exc}") from None
    if not questions:
        raise DataError(f"{path}: no questions")
    return tuple(questions)


def _load_scores(path: Path, question_ids: tuple[str, ...]) -> tuple[tuple[str, ...], np.ndarray]:
    rows = _read_rows(path)
    if not rows or not rows[0] or rows[0][0] != "student":
        raise DataError(f"{path}: first header must be 'student'")
    header_ids = rows[0][1:]
    column = {q: c for c, q in enumerate(header_ids)}
    if len(column) < len(header_ids):
        repeated = sorted({q for q in header_ids if header_ids.count(q) > 1})
        raise DataError(f"{path}: repeated question ids in header: {repeated}")
    known = set(question_ids)
    unknown = [q for q in header_ids if q not in known]
    if unknown:
        raise DataError(f"{path}: unknown question ids in header: {unknown}")
    missing = [q for q in question_ids if q not in column]
    if missing:
        raise DataError(f"{path}: score columns missing for questions: {missing}")
    students, matrix = _student_table(path, rows, header_ids, 0, 1, "fractional score")
    # reorder columns to the questions-file order
    return students, matrix[:, [column[q] for q in question_ids]]


def _load_components(path: Path) -> tuple[tuple[str, ...], dict[str, np.ndarray]]:
    rows = _read_rows(path)
    if not rows or rows[0] != COMPONENT_HEADERS:
        raise DataError(
            f"{path}: expected header {','.join(COMPONENT_HEADERS)!r}"
        )
    students, matrix = _student_table(path, rows, gb.COMPONENTS, 0, 100, "component score")
    return students, dict(zip(gb.COMPONENTS, matrix.T.copy()))


def load_gradebook(fileset: GradebookFileSet, check_consistency: bool = True) -> gb.Gradebook:
    """Parse and validate a gradebook file set.

    Student order comes from the components file; every scores file must list
    exactly the same students (any order).
    """
    if set(fileset.scores) != set(fileset.questions):
        raise DataError("scores and questions files must cover the same exams")
    students, components = _load_components(fileset.components)
    exams = {}
    questions = {}
    for exam in sorted(fileset.scores):
        qs = _load_questions(fileset.questions[exam])
        exam_students, matrix = _load_scores(fileset.scores[exam], tuple(q.id for q in qs))
        if set(exam_students) != set(students):
            # the first student each side lacks, in the other side's order
            firsts = [
                f"{next(s for s in names if s not in others)!r} is not in {path}"
                for names, others, path in (
                    (students, set(exam_students), fileset.scores[exam]),
                    (exam_students, set(students), fileset.components),
                )
                if not others.issuperset(names)
            ]
            raise DataError(
                f"{fileset.scores[exam]}: students disagree with "
                f"{fileset.components}: " + "; ".join(firsts)
            )
        row = {s: r for r, s in enumerate(exam_students)}
        exams[exam] = matrix[[row[s] for s in students]]
        questions[exam] = qs
    book = gb.Gradebook(
        students=students, exams=exams, questions=questions, components=components
    )
    if check_consistency:
        book.check_component_consistency()
    return book


def write_gradebook_files(book: gb.Gradebook, out_dir: Path | str) -> GradebookFileSet:
    """Write a Gradebook as the three-file CSV set (full float precision, so a
    reload reproduces the in-memory values exactly), all files or none."""
    out_dir = Path(out_dir)
    with _naming(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    scores_paths = {exam: out_dir / f"{exam}_scores.csv" for exam in sorted(book.exams)}
    questions_paths = {exam: out_dir / f"{exam}_questions.csv" for exam in sorted(book.exams)}
    cpath = out_dir / "components.csv"
    writers = {}
    for exam in sorted(book.exams):
        writers[scores_paths[exam]] = _csv_writer(["student", *book.question_ids(exam)], [
            [student, *(repr(float(v)) for v in book.exams[exam][i])]
            for i, student in enumerate(book.students)
        ])
        writers[questions_paths[exam]] = _csv_writer(["id", "kind", "max_points", "parent"], [
            [q.id, KIND_NAMES[q.kind], repr(float(q.max_points)), q.parent or ""]
            for q in book.questions[exam]
        ])
    writers[cpath] = _csv_writer(COMPONENT_HEADERS, [
        [student, *(repr(float(book.components[name][i])) for name in gb.COMPONENTS)]
        for i, student in enumerate(book.students)
    ])
    _write_files(writers, newline="")  # every file of the set, or none
    return GradebookFileSet(scores=scores_paths, questions=questions_paths, components=cpath)


def _scale_label(scale: str, exclusion: str) -> str:
    return scale if exclusion == gb.INCLUDE_EXAM else f"{scale}_excl"


def mae_table(report: EvaluationReport) -> tuple[list[str], list[list[str]]]:
    """Table-shaped MAE comparison: one row per (scale, exclusion), one column
    per approach, 4 decimal places."""
    present = {rec.approach for rec in report.records}
    approaches = [a for a in APPROACHES if a in present]
    approaches += sorted(present - set(approaches))
    header = ["overall_score", *approaches]
    cells = {}
    combos = []
    for rec in report.records:
        key = (rec.scale, rec.exclusion)
        if key not in combos:
            combos.append(key)
        cells[(rec.approach, *key)] = f"{rec.mae:.4f}"
    rows = []
    for scale, exclusion in combos:
        label = f"{report.exam} ({_scale_label(scale, exclusion)})"
        rows.append([label] + [cells[(a, scale, exclusion)] for a in approaches])
    return header, rows


def weight_rows(report: EvaluationReport) -> list[list[str]]:
    """Plot-ready long format: exam, solver, scale, question, weight (full
    precision).  The intercept is emitted as pseudo-question '_intercept'."""
    qids = (*report.question_ids, "_intercept")
    return [
        [report.exam, rec.approach, scale, qid, repr(w)]
        for rec in report.records
        for scale in [_scale_label(rec.scale, rec.exclusion)]
        for qid, w in zip(qids, [*rec.averaged_weights.question_weights.tolist(),
                                 float(rec.averaged_weights.intercept)])
    ]


def write_report(report: EvaluationReport, path: Path | str, format: str = "csv") -> list[Path]:
    """Serialize an evaluation report.

    csv: the MAE table goes to ``path`` and the long-format weights to a
    sibling ``<stem>_weights.csv``, so ``path`` must not be an existing file
    that is not regular, such as a device or a pipe (DataError, before
    anything is written).  json: one file mirroring both tables, which may
    be a device or a pipe.  Returns the written paths.
    """
    path = Path(path)
    header, rows = mae_table(report)
    wrows = weight_rows(report)
    if format == "csv":
        wpath = path.with_name(path.stem + "_weights.csv")
        if path.exists() and not path.is_file():
            raise DataError(
                f"{path}: not a regular file; a CSV report is two files, the MAE table "
                f"and {wpath.name} beside it: use a file path or --format json"
            )
        # both files or neither
        _write_files({
            path: _csv_writer(header, rows), wpath: _csv_writer(WEIGHT_HEADER, wrows),
        }, newline="")
        return [path, wpath]
    if format == "json":
        text = json.dumps({
            "mae": [dict(zip(header, row)) for row in rows],
            "weights": [dict(zip(WEIGHT_HEADER, row)) for row in wrows],
        }, indent=2)
        _write_files({path: lambda fh: fh.write(text + "\n")})
        return [path]
    raise ValueError(f"unknown format {format!r}")


def write_diagnostics(diagnostics: list[QuestionDiagnostic], path: Path | str) -> list[Path]:
    """Serialize diagnostics as CSV; distribution abilities are rounded to 2
    decimals here, at the reporting boundary."""
    path = Path(path)
    fields = ["question", "student", "score", "ability", "flags"]
    rows = []
    for diag in diagnostics:
        # a diagnostic without a distribution is one row of flags
        cells = [(student, repr(score), f"{abil:.2f}") for student, score, abil in diag.distribution]
        for cell in cells or [("", "", "")]:
            rows.append([diag.question, *cell, ";".join(diag.flags)])
    write_csv(fields, rows, path)
    return [path]
