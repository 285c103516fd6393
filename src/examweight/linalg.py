"""Dense linear algebra kernel: thin SVD, Moore-Penrose pseudoinverse, and
minimum-norm least-squares solving.

All routines are pure functions on float64 numpy arrays; the SVD is numpy's
LAPACK routine.  Rank decisions are relative to the largest singular value.
Intended scale is desk-size problems (up to a few hundred rows/columns).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError


def as_matrix(a) -> np.ndarray:
    """Validate and convert to a finite, nonempty 2-D float64 array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size == 0:
        raise ValueError("matrix must be nonempty")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def as_vector(y) -> np.ndarray:
    """Validate and convert to a finite 1-D float64 array."""
    v = np.asarray(y, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got ndim={v.ndim}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def default_rank_cutoff(rows: int, cols: int) -> float:
    """Conventional relative cutoff for treating singular values as zero."""
    return max(rows, cols) * np.finfo(float).eps


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD: ``a = u @ diag(singular_values) @ v.T``.

    u is n-by-r and v is p-by-r with orthonormal columns; singular values are
    nonincreasing and nonnegative, r = min(n, p).
    """

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray


def svd(a) -> SvdResult:
    """Thin SVD by LAPACK (``numpy.linalg.svd``).

    Raises ConvergenceError if LAPACK's iteration does not converge.
    """
    a = as_matrix(a)
    try:
        u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        rows, cols = a.shape
        raise ConvergenceError(f"LAPACK SVD failed on a {rows}x{cols} matrix: {exc}") from exc
    return SvdResult(u=u, singular_values=sigma, v=vt.T)


def pinv(a, rank_cutoff: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Reciprocals of singular values sigma_k <= rank_cutoff * sigma_max are
    zeroed; rank_cutoff defaults to max(rows, cols) * machine epsilon.
    """
    a = as_matrix(a)
    if rank_cutoff is None:
        rank_cutoff = default_rank_cutoff(*a.shape)
    if rank_cutoff <= 0:
        raise ValueError("rank_cutoff must be positive")
    res = svd(a)
    smax = res.singular_values[0]
    thresh = rank_cutoff * smax
    keep = res.singular_values > thresh
    sinv = np.zeros_like(res.singular_values)
    sinv[keep] = 1.0 / res.singular_values[keep]
    return (res.v * sinv) @ res.u.T


def solve_min_norm(a, y, rank_cutoff: float | None = None) -> np.ndarray:
    """Minimum-norm least-squares solution of ``a @ x ~= y``.

    Among all least-squares minimizers, returns the one with smallest
    Euclidean norm (the pseudoinverse solution).
    """
    a = as_matrix(a)
    y = as_vector(y)
    if len(y) != a.shape[0]:
        raise ValueError(
            f"dimension mismatch: matrix has {a.shape[0]} rows, vector has {len(y)}"
        )
    if rank_cutoff is None:
        rank_cutoff = default_rank_cutoff(*a.shape)
    res = svd(a)
    smax = res.singular_values[0]
    thresh = rank_cutoff * smax
    coeffs = res.u.T @ y
    keep = res.singular_values > thresh
    scaled = np.where(keep, coeffs / np.where(keep, res.singular_values, 1.0), 0.0)
    return res.v @ scaled
