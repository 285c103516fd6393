"""Optimal per-question exam weighting.

Fits per-question exam weights by regressing weighted exam scores onto
students' overall course scores, compares four regression schemes against
uniform and as-administered baselines, and provides question diagnostics.
"""

from .errors import ConvergenceError, DataError
from .gradebook import Gradebook, Question, ability, normalize_ability, overall_score
from .solvers import (
    SolverConfig,
    WeightSolution,
    baseline_actual,
    baseline_uniform,
    fit_huber,
    fit_linear_intercept,
    fit_nnls,
    fit_ols_closed_form,
    predict,
)
from .experiment import EvaluationReport, evaluate, loocv_fit
from .analysis import (
    QuestionDiagnostic, degenerate_questions, distribution_table, extreme_questions, weight_deltas,
)
from .synthetic import SyntheticSpec, generate_gradebook
from .dataio import GradebookFileSet, load_gradebook, write_gradebook_files, write_report

__version__ = "0.1.0"
