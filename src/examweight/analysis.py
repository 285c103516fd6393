"""Question-level diagnostics: extreme-weight identification, per-question
score-vs-ability distribution tables, and degenerate/duplicate detection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gradebook as gb
from .errors import DataError
from .experiment import EvaluationReport

ALL_CORRECT = "all_correct"
ALL_ZERO = "all_zero"


@dataclass(frozen=True)
class QuestionDiagnostic:
    question: str
    flags: tuple[str, ...] = ()
    # (student id, fractional score, ability), sorted by ability ascending
    distribution: tuple[tuple[str, float, float], ...] = ()


def extreme_questions(
    report: EvaluationReport,
    solver: str,
    k: int = 3,
    scale: str = gb.ACTUAL_SCALE,
) -> tuple[list[tuple[str, float]], list[tuple[str, float]]]:
    """The k largest- and k smallest-weight questions for one solver on the
    include-exam target.

    Questions are ranked by averaged weight with ties broken by question id;
    a k beyond the question count truncates rather than failing.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    rec = report.get(solver, scale, gb.INCLUDE_EXAM)
    weights = rec.averaged_weights.question_weights
    pairs = [(q, float(w)) for q, w in zip(report.question_ids, weights)]
    top = sorted(pairs, key=lambda p: (-p[1], p[0]))[:k]
    bottom = sorted(pairs, key=lambda p: (p[1], p[0]))[:k]
    return top, bottom


def distribution_table(
    g: gb.Gradebook,
    exam: str,
    question: str,
    ability: np.ndarray,
) -> QuestionDiagnostic:
    """Per-student (score, ability) rows for one question, weakest student
    first.  Scores keep full stored precision; rounding of abilities happens
    only at the serialization boundary."""
    ids = g.question_ids(exam)
    if question not in ids:
        raise DataError(f"unknown question {question!r} in exam {exam!r}")
    col = g.exams[exam][:, ids.index(question)]
    order = np.argsort(ability, kind="stable")
    rows = tuple(
        (g.students[i], float(col[i]), float(ability[i])) for i in order
    )
    return QuestionDiagnostic(
        question=question, flags=_column_flags(col), distribution=rows
    )


def _column_flags(col: np.ndarray) -> tuple[str, ...]:
    flags = []
    if np.all(col == 1.0):
        flags.append(ALL_CORRECT)
    if np.all(col == 0.0):
        flags.append(ALL_ZERO)
    return tuple(flags)


def degenerate_questions(g: gb.Gradebook, exam: str) -> list[QuestionDiagnostic]:
    """Flag structurally uninformative questions in one exam.

    Flags: all_correct / all_zero columns, exact duplicate columns (later
    duplicates point at the first column of the group), and top_only:k for
    k in {1, 2} when exactly the k highest-ability students scored 1 and
    everyone else 0.  top_only:k needs k < n and the k-th highest ability
    strictly above the (k+1)-th: across a tie no k students are the
    strongest, and the row order would pick them.
    """
    ids = g.question_ids(exam)
    s = g.exams[exam]
    abil = gb.ability(g, exam, gb.ACTUAL_SCALE, gb.INCLUDE_EXAM)
    strongest = np.argsort(-abil, kind="stable")
    top_only = {}  # k -> the column that only the k strongest answered
    for k in (1, 2):
        if k < len(abil) and abil[strongest[k - 1]] > abil[strongest[k]]:
            top_only[k] = np.zeros(len(abil))
            top_only[k][strongest[:k]] = 1.0

    first_seen: dict[bytes, str] = {}
    diagnostics = []
    for j, qid in enumerate(ids):
        col = s[:, j]
        flags = list(_column_flags(col))
        key = col.tobytes()  # duplicates are exact, bitwise on stored fractions
        if key in first_seen:
            flags.append(f"duplicate_of:{first_seen[key]}")
        else:
            first_seen[key] = qid
        flags += [f"top_only:{k}" for k, top in top_only.items() if np.array_equal(col, top)]
        if flags:
            diagnostics.append(QuestionDiagnostic(question=qid, flags=tuple(flags)))
    return diagnostics
