"""Shared exception types."""


class DataError(Exception):
    """Invalid or inconsistent input data (bad file, range violation, missing component)."""


class ConvergenceError(RuntimeError):
    """An iterative routine stopped without converging (iteration cap or stall)."""


def with_context(exc: ConvergenceError | DataError, context: str) -> Exception:
    """The project error of exc's kind, its message prefixed with context."""
    kind = ConvergenceError if isinstance(exc, ConvergenceError) else DataError
    return kind(f"{context}: {exc}")
