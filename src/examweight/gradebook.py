"""Data model for students, exams, questions, and course components, plus the
ability-target computations (actual vs normalized scale, exam included vs
excluded from the overall score).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

COMPONENTS = ("homework", "midterm", "project", "final")

MULTIPLE_CHOICE = "multiple_choice"
TRUE_FALSE = "true_false"
ANALYTICAL_SUBPART = "analytical_subpart"
QUESTION_KINDS = (MULTIPLE_CHOICE, TRUE_FALSE, ANALYTICAL_SUBPART)

INCLUDE_EXAM = "include_exam"
EXCLUDE_EXAM = "exclude_exam"

ACTUAL_SCALE = "actual"
NORMALIZED_SCALE = "normalized"


@dataclass(frozen=True)
class Question:
    id: str
    kind: str
    max_points: float
    parent: str | None = None  # analytical question this subpart belongs to

    def __post_init__(self):
        if self.kind not in QUESTION_KINDS:
            raise DataError(f"question {self.id}: unknown kind {self.kind!r}")
        if not self.max_points > 0:
            raise DataError(f"question {self.id}: max_points must be positive")
        if (self.parent is not None) != (self.kind == ANALYTICAL_SUBPART):
            raise DataError(
                f"question {self.id}: parent is required exactly for analytical subparts"
            )


@dataclass
class Gradebook:
    """Immutable-by-convention container for one cohort.

    exams maps exam id -> students x questions matrix of fractional scores in
    [0, 1]; questions maps exam id -> ordered Question tuple; components maps
    component name -> per-student scores on a 0-100 scale.
    """

    students: tuple[str, ...]
    exams: dict[str, np.ndarray] = field(default_factory=dict)
    questions: dict[str, tuple[Question, ...]] = field(default_factory=dict)
    components: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.students)
        if n == 0:
            raise DataError("gradebook has no students")
        if len(set(self.students)) != n:
            raise DataError("duplicate student ids")
        if set(self.exams) != set(self.questions):
            raise DataError("exams and questions must cover the same exam ids")
        for exam, s in self.exams.items():
            s = np.asarray(s, dtype=float)
            self.exams[exam] = s
            qs = self.questions[exam]
            if s.shape != (n, len(qs)):
                raise DataError(
                    f"exam {exam!r}: score matrix is {s.shape}, expected "
                    f"({n}, {len(qs)})"
                )
            if not np.all(np.isfinite(s)):
                raise DataError(f"exam {exam!r}: scores must be finite")
            if s.min() < 0 or s.max() > 1:
                raise DataError(f"exam {exam!r}: fractional scores must lie in [0, 1]")
            ids = [q.id for q in qs]
            if len(set(ids)) != len(ids):
                raise DataError(f"exam {exam!r}: duplicate question ids")
        for name, vals in self.components.items():
            vals = np.asarray(vals, dtype=float)
            self.components[name] = vals
            if vals.shape != (n,):
                raise DataError(
                    f"component {name!r}: {len(vals)} values for {n} students"
                )
            if not np.all(np.isfinite(vals)):
                raise DataError(f"component {name!r}: values must be finite")
            if vals.min() < 0 or vals.max() > 100:
                raise DataError(f"component {name!r}: scores must lie in [0, 100]")

    def question_ids(self, exam: str) -> tuple[str, ...]:
        return tuple(q.id for q in self._exam_questions(exam))

    def question_points(self, exam: str) -> np.ndarray:
        return np.array([q.max_points for q in self._exam_questions(exam)])

    def actual_exam_totals(self, exam: str) -> np.ndarray:
        """Per-student exam score under the declared (actual) weights."""
        return self.exams[exam] @ self.question_points(exam)

    def _exam_questions(self, exam: str) -> tuple[Question, ...]:
        if exam not in self.questions:
            raise DataError(f"unknown exam {exam!r}")
        return self.questions[exam]

    def check_component_consistency(self, tol: float = 0.01) -> None:
        """Exam components must match the actual-weight exam totals.

        Applies to every exam whose id is also a component name; raises
        DataError naming the first offending student.
        """
        for exam in self.exams:
            if exam not in self.components:
                continue
            totals = self.actual_exam_totals(exam)
            diff = np.abs(totals - self.components[exam])
            bad = np.flatnonzero(diff > tol)
            if bad.size:
                i = int(bad[0])
                raise DataError(
                    f"component {exam!r} disagrees with actual-weight exam total "
                    f"for student {self.students[i]!r}: "
                    f"{self.components[exam][i]:.4f} vs {totals[i]:.4f}"
                )


@dataclass(frozen=True)
class AbilityVector:
    """Per-student ability targets under a scale/exclusion mode."""

    values: np.ndarray
    mode: str  # actual | normalized
    exclusion: str  # include_exam | exclude_exam
    exam: str


def overall_score(g: Gradebook, exclusion: str = INCLUDE_EXAM, exam: str | None = None) -> np.ndarray:
    """Equal-weight mean of the course components.

    include_exam averages all four components; exclude_exam drops the
    component named like the exam and averages the remaining three.
    """
    if exclusion not in (INCLUDE_EXAM, EXCLUDE_EXAM):
        raise ValueError(f"unknown exclusion mode {exclusion!r}")
    names = list(COMPONENTS)
    if exclusion == EXCLUDE_EXAM:
        if exam not in COMPONENTS:
            raise DataError(
                f"cannot exclude exam {exam!r}: not one of the course components"
            )
        names.remove(exam)
    for name in names:
        if name not in g.components:
            raise DataError(f"missing component {name!r}")
    return np.mean([g.components[name] for name in names], axis=0)


def normalize_ability(overall: np.ndarray, exam_mean: float, overall_mean: float) -> np.ndarray:
    """Rescale overall scores by exam_mean / overall_mean so the rescaled mean
    matches the exam average."""
    if not overall_mean > 0:
        raise DataError(f"overall mean must be positive, got {overall_mean}")
    return np.asarray(overall, dtype=float) * (exam_mean / overall_mean)


def ability(
    g: Gradebook,
    exam: str,
    mode: str = ACTUAL_SCALE,
    exclusion: str = INCLUDE_EXAM,
) -> AbilityVector:
    """Ability targets for one exam: the overall score, optionally normalized
    by the ratio of the exam's actual-weight mean to the overall mean."""
    if exam not in g.exams:
        raise DataError(f"unknown exam {exam!r}")
    if mode not in (ACTUAL_SCALE, NORMALIZED_SCALE):
        raise ValueError(f"unknown ability mode {mode!r}")
    overall = overall_score(g, exclusion, exam)
    if mode == NORMALIZED_SCALE:
        exam_mean = float(np.mean(g.actual_exam_totals(exam)))
        values = normalize_ability(overall, exam_mean, float(overall.mean()))
    else:
        values = overall
    return AbilityVector(values=values, mode=mode, exclusion=exclusion, exam=exam)
