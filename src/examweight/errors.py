"""Shared exception types."""


class DataError(Exception):
    """Invalid or inconsistent input data (bad file, range violation, missing component)."""


class ConvergenceError(RuntimeError):
    """An iterative routine stopped without converging (iteration cap or stall)."""
