"""Synthetic cohort generation for desk-scale experiments.

Question correctness follows a logistic item-response model: each student has
a latent ability, each question a difficulty, and the success probability is
logistic(discrimination * (ability_z - difficulty)).  Multiple choice and
true/false answers are Bernoulli draws; analytical subparts receive graded
quarter-step fractions.  Everything is deterministic under the seed.

Declared question points keep the 3 : 4 : 10 ratio between multiple choice,
true/false, and analytical questions, rescaled so the exam totals 100 points
(components must live on a 0-100 scale).

The component named after the exam always equals the actual-weight exam total
exactly, so generated data passes the loader's consistency check.  With
noise = 0 every component equals that total, making the overall score an
exactly linear function of the question scores; with noise > 0 the remaining
components are noisy affine functions of ability, clipped to [0, 100].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gradebook as gb

_RAW_POINTS = {"mc": 3.0, "tf": 4.0, "analytical": 10.0}
_PART_LETTERS = "abcdefghijklmnopqrstuvwxyz"  # subpart ids: AE1a, AE1b, ...


@dataclass(frozen=True)
class SyntheticSpec:
    students: int = 9
    mc_questions: int = 30
    tf_questions: int = 15
    analytical_questions: int = 5
    analytical_subparts: int = 8  # total subpart columns, spread over parents
    ability_mean: float = 67.92
    ability_stddev: float = 10.18
    difficulty_low: float = -1.5
    difficulty_high: float = 1.5
    discrimination: float = 1.0
    noise: float = 0.0
    seed: int = 0
    exam: str = "final"

    def __post_init__(self):
        for name in ("students", "mc_questions", "tf_questions",
                     "analytical_questions", "analytical_subparts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.analytical_subparts < self.analytical_questions:
            raise ValueError("need at least one subpart per analytical question")
        if self.analytical_subparts > len(_PART_LETTERS) * self.analytical_questions:
            raise ValueError("at most 26 subparts per analytical question (ids run a to z)")
        for name in ("ability_stddev", "noise"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.difficulty_high < self.difficulty_low:
            raise ValueError("empty difficulty range")


def build_questions(spec: SyntheticSpec) -> tuple[gb.Question, ...]:
    """Question list with points rescaled so the exam totals 100."""
    raw_total = (
        spec.mc_questions * _RAW_POINTS["mc"]
        + spec.tf_questions * _RAW_POINTS["tf"]
        + spec.analytical_questions * _RAW_POINTS["analytical"]
    )
    factor = 100.0 / raw_total
    questions = []
    for i in range(spec.mc_questions):
        questions.append(gb.Question(
            id=f"MC{i + 1}", kind=gb.MULTIPLE_CHOICE,
            max_points=_RAW_POINTS["mc"] * factor,
        ))
    for i in range(spec.tf_questions):
        questions.append(gb.Question(
            id=f"TF{i + 1}", kind=gb.TRUE_FALSE,
            max_points=_RAW_POINTS["tf"] * factor,
        ))
    # Round-robin the subparts over the analytical parents; each parent's
    # points are split evenly across its subparts.
    counts = [0] * spec.analytical_questions
    for i in range(spec.analytical_subparts):
        counts[i % spec.analytical_questions] += 1
    for parent_idx, count in enumerate(counts):
        parent = f"AE{parent_idx + 1}"
        for part in range(count):
            questions.append(gb.Question(
                id=f"{parent}{_PART_LETTERS[part]}",
                kind=gb.ANALYTICAL_SUBPART,
                max_points=_RAW_POINTS["analytical"] * factor / count,
                parent=parent,
            ))
    return tuple(questions)


def generate_gradebook(spec: SyntheticSpec) -> gb.Gradebook:
    """Deterministic synthetic Gradebook for the given spec."""
    rng = np.random.default_rng(spec.seed)
    n = spec.students
    questions = build_questions(spec)
    m = len(questions)

    abilities = spec.ability_mean + spec.ability_stddev * rng.standard_normal(n)
    if spec.ability_stddev > 0:
        z = (abilities - spec.ability_mean) / spec.ability_stddev
    else:
        z = np.zeros(n)
    difficulty = rng.uniform(spec.difficulty_low, spec.difficulty_high, m)
    p = 1.0 / (1.0 + np.exp(-spec.discrimination * (z[:, None] - difficulty[None, :])))

    scores = np.zeros((n, m))
    for j, q in enumerate(questions):
        if q.kind == gb.ANALYTICAL_SUBPART:
            jitter = 0.25 * (rng.random(n) - 0.5)
            scores[:, j] = np.round(4 * np.clip(p[:, j] + jitter, 0, 1)) / 4
        else:
            scores[:, j] = (rng.random(n) < p[:, j]).astype(float)

    points = np.array([q.max_points for q in questions])
    exam_totals = scores @ points

    components = {}
    for name in gb.COMPONENTS:
        if name == spec.exam or spec.noise == 0:
            components[name] = exam_totals.copy()
        else:
            noisy = abilities + spec.noise * rng.standard_normal(n)
            components[name] = np.clip(noisy, 0.0, 100.0)

    students = tuple(f"S{i + 1}" for i in range(n))
    return gb.Gradebook(
        students=students,
        exams={spec.exam: scores},
        questions={spec.exam: questions},
        components=components,
    )
