"""CSV ingestion and report serialization.

Three-file gradebook encoding, all UTF-8 comma-separated with '.' decimals
and a header row:

* scores file (one per exam): ``student,<question ids...>`` with fractional
  scores in [0, 1];
* questions file (one per exam): ``id,kind,max_points,parent`` with kind in
  {mc, tf, sub} and parent empty unless kind=sub;
* components file: ``student,homework,midterm,project,final`` on a 0-100
  scale.

Report serialization: MAE tables use 4 decimal places, weight dumps keep full
precision (repr round-trip), field ordering is deterministic.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

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
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _add_student(students: dict[str, int], student: str, path: Path, row: int) -> None:
    """Record the row a student is on; a second row for them is an error."""
    if student in students:
        raise DataError(
            f"{path}: row {row}: duplicate student {student!r} "
            f"(first on row {students[student]})"
        )
    students[student] = row


def _parse_float(cell: str, path: Path, row: int, col: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise DataError(
            f"{path}: row {row}, column {col!r}: not a number: {cell!r}"
        ) from None


def _load_questions(path: Path) -> tuple[gb.Question, ...]:
    rows = _read_rows(path)
    if not rows or rows[0] != ["id", "kind", "max_points", "parent"]:
        raise DataError(f"{path}: expected header 'id,kind,max_points,parent'")
    questions = []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != 4:
            raise DataError(f"{path}: row {r}: expected 4 fields, got {len(row)}")
        qid, kind, pts, parent = row
        if kind not in KIND_CODES:
            raise DataError(
                f"{path}: row {r}, column 'kind': unknown kind {kind!r} "
                f"(expected one of {sorted(KIND_CODES)})"
            )
        questions.append(gb.Question(
            id=qid,
            kind=KIND_CODES[kind],
            max_points=_parse_float(pts, path, r, "max_points"),
            parent=parent or None,
        ))
    if not questions:
        raise DataError(f"{path}: no questions")
    return tuple(questions)


def _load_scores(path: Path, question_ids: tuple[str, ...]) -> tuple[tuple[str, ...], np.ndarray]:
    rows = _read_rows(path)
    if not rows or not rows[0] or rows[0][0] != "student":
        raise DataError(f"{path}: first header must be 'student'")
    header_ids = rows[0][1:]
    repeated = sorted({q for q in header_ids if header_ids.count(q) > 1})
    if repeated:
        raise DataError(f"{path}: repeated question ids in header: {repeated}")
    unknown = [q for q in header_ids if q not in question_ids]
    if unknown:
        raise DataError(f"{path}: unknown question ids in header: {unknown}")
    missing = [q for q in question_ids if q not in header_ids]
    if missing:
        raise DataError(f"{path}: score columns missing for questions: {missing}")
    body = rows[1:]
    if not body:
        raise DataError(f"{path}: no students")
    students = {}
    matrix = np.zeros((len(body), len(header_ids)))
    for r, row in enumerate(body, start=2):
        if len(row) != len(rows[0]):
            raise DataError(
                f"{path}: row {r}: expected {len(rows[0])} fields, got {len(row)}"
            )
        _add_student(students, row[0], path, r)
        for c, (qid, cell) in enumerate(zip(header_ids, row[1:])):
            val = _parse_float(cell, path, r, qid)
            if not 0.0 <= val <= 1.0:
                raise DataError(
                    f"{path}: row {r}, column {qid!r}: fractional score "
                    f"{val} outside [0, 1]"
                )
            matrix[r - 2, c] = val
    # reorder columns to the questions-file order
    perm = [header_ids.index(q) for q in question_ids]
    return tuple(students), matrix[:, perm]


def _load_components(path: Path) -> tuple[tuple[str, ...], dict[str, np.ndarray]]:
    rows = _read_rows(path)
    if not rows or rows[0] != COMPONENT_HEADERS:
        raise DataError(
            f"{path}: expected header {','.join(COMPONENT_HEADERS)!r}"
        )
    body = rows[1:]
    if not body:
        raise DataError(f"{path}: no students")
    students = {}
    values = {name: [] for name in gb.COMPONENTS}
    for r, row in enumerate(body, start=2):
        if len(row) != len(COMPONENT_HEADERS):
            raise DataError(
                f"{path}: row {r}: expected {len(COMPONENT_HEADERS)} fields, "
                f"got {len(row)}"
            )
        _add_student(students, row[0], path, r)
        for name, cell in zip(gb.COMPONENTS, row[1:]):
            val = _parse_float(cell, path, r, name)
            if not 0.0 <= val <= 100.0:
                raise DataError(
                    f"{path}: row {r}, column {name!r}: component score "
                    f"{val} outside [0, 100]"
                )
            values[name].append(val)
    return tuple(students), {k: np.array(v) for k, v in values.items()}


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
            raise DataError(
                f"{fileset.scores[exam]}: students disagree with "
                f"{fileset.components}"
            )
        perm = [exam_students.index(s) for s in students]
        exams[exam] = matrix[perm]
        questions[exam] = qs
    book = gb.Gradebook(
        students=students, exams=exams, questions=questions, components=components
    )
    if check_consistency:
        book.check_component_consistency()
    return book


def write_gradebook_files(book: gb.Gradebook, out_dir: Path | str) -> GradebookFileSet:
    """Write a Gradebook as the three-file CSV set (full float precision, so a
    reload reproduces the in-memory values exactly)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scores_paths = {}
    questions_paths = {}
    for exam in sorted(book.exams):
        spath = out_dir / f"{exam}_scores.csv"
        qpath = out_dir / f"{exam}_questions.csv"
        _write_csv(spath, ["student", *book.question_ids(exam)], (
            [student, *(repr(float(v)) for v in book.exams[exam][i])]
            for i, student in enumerate(book.students)
        ))
        _write_csv(qpath, ["id", "kind", "max_points", "parent"], (
            [q.id, KIND_NAMES[q.kind], repr(float(q.max_points)), q.parent or ""]
            for q in book.questions[exam]
        ))
        scores_paths[exam] = spath
        questions_paths[exam] = qpath
    cpath = out_dir / "components.csv"
    _write_csv(cpath, COMPONENT_HEADERS, (
        [student, *(repr(float(book.components[name][i])) for name in gb.COMPONENTS)]
        for i, student in enumerate(book.students)
    ))
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
    rows = []
    for rec in report.records:
        scale = _scale_label(rec.scale, rec.exclusion)
        for qid, w in zip(report.question_ids, rec.averaged_weights.question_weights):
            rows.append([report.exam, rec.approach, scale, qid, repr(float(w))])
        rows.append([report.exam, rec.approach, scale, "_intercept",
                     repr(float(rec.averaged_weights.intercept))])
    return rows


def write_report(report: EvaluationReport, path: Path | str, format: str = "csv") -> list[Path]:
    """Serialize an evaluation report.

    csv: the MAE table goes to ``path`` and the long-format weights to a
    sibling ``<stem>_weights.csv``.  json: one file mirroring both tables.
    Returns the written paths.
    """
    path = Path(path)
    header, rows = mae_table(report)
    wrows = weight_rows(report)
    try:
        if format == "csv":
            wpath = path.with_name(path.stem + "_weights.csv")
            _write_csv(path, header, rows)
            _write_csv(wpath, ["exam", "solver", "scale", "question", "weight"], wrows)
            return [path, wpath]
        if format == "json":
            payload = {
                "mae": [dict(zip(header, row)) for row in rows],
                "weights": [
                    dict(zip(["exam", "solver", "scale", "question", "weight"], row))
                    for row in wrows
                ],
            }
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
            return [path]
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    raise ValueError(f"unknown format {format!r}")


def write_diagnostics(
    diagnostics: list[QuestionDiagnostic], path: Path | str, format: str = "csv"
) -> list[Path]:
    """Serialize diagnostics; distribution abilities are rounded to 2 decimals
    here, at the reporting boundary."""
    path = Path(path)
    fields = ["question", "student", "score", "ability", "flags"]
    rows = []
    for diag in diagnostics:
        # a diagnostic without a distribution is one row of flags
        cells = [(student, repr(score), f"{abil:.2f}") for student, score, abil in diag.distribution]
        for cell in cells or [("", "", "")]:
            rows.append(dict(zip(fields, (diag.question, *cell, ";".join(diag.flags)))))
    try:
        if format == "csv":
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.DictWriter(fh, fieldnames=fields)
                writer.writeheader()
                writer.writerows(rows)
            return [path]
        if format == "json":
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(rows, fh, indent=2)
                fh.write("\n")
            return [path]
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    raise ValueError(f"unknown format {format!r}")
