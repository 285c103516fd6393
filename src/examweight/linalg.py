"""Dense linear algebra kernel: thin SVD, Moore-Penrose pseudoinverse,
minimum-norm least-squares solving, and all leave-one-out minimum-norm
solutions of a full-row-rank system from one SVD.

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


# loo_min_norm's bound on the estimated relative error of a fold solution;
# past it the folds are left to per-fold solves.  A tenth of the 1e-10 within
# which a changed result counts as the same: over 6,600 folds of random wide
# designs with a near-repeated row, the error was at most 3 times the estimate.
LOO_RTOL = 1e-11


def loo_min_norm(a, ys, rank_cutoff: float | None = None, centered: bool = False):
    """Every leave-one-out minimum-norm solution of ``a @ x ~= ys``, from one SVD.

    Fold j drops row j of a and of ys and solves for all k columns of ys at
    once.  With centered=True each fold first de-means its rows of a and ys
    over the fold, as for a free intercept.  Returns an (n, p, k) array whose
    [j] is fold j's p-by-k solution, or None when a does not have full row
    rank (n; n - 1 when centered) under rank_cutoff, which defaults to the
    folds' own max(n - 1, p) * machine epsilon, or when some fold's
    estimated relative error exceeds LOO_RTOL.  None is returned before any
    factorization when a is too tall to have that rank.

    With P = pinv(a) and X0 = P @ ys, ``a @ P`` is the identity, so P[:, j]
    is orthogonal to fold j's rows, and fold j's solution is X0 projected
    off P[:, j]: ``x_j = X0 - P[:, j] r_j^T`` with
    ``r_j = P[:, j]^T X0 / ||P[:, j]||^2``, fold j's held-out residuals.
    Centered, a is replaced by Q^T a, Q an orthonormal basis of the
    zero-sum vectors (so the centered a is Q Q^T a), and P by
    pinv(Q^T a) Q^T; fold j's centered rows span the part of that row space
    orthogonal to P[:, j] in the same way.  This is exact: by singular-value
    interlacing every fold keeps full row rank under the same relative
    cutoff, so a per-fold minimum-norm solve makes the same rank decision.
    """
    a = as_matrix(a)
    ys = as_matrix(ys)
    n, p = a.shape
    if len(ys) != n:
        raise ValueError(f"dimension mismatch: matrix has {n} rows, targets have {len(ys)}")
    if n < 2:
        raise ValueError("leave-one-out needs at least 2 rows")
    if rank_cutoff is None:
        rank_cutoff = default_rank_cutoff(n - 1, p)
    if (n - 1 if centered else n) > p:
        return None
    if centered:
        # Q from e_i - e_0, i = 1..n-1; Q Q^T is the centering matrix.
        # Centering first keeps a constant column exactly zero.
        basis = np.linalg.qr(np.eye(n)[:, 1:] - np.eye(n)[:, :1])[0]
        a = basis.T @ (a - a.mean(axis=0))
    res = svd(a)
    sigma = res.singular_values
    if not sigma[-1] > rank_cutoff * sigma[0]:
        return None
    pinv_t = (res.u / sigma) @ res.v.T  # P^T
    if centered:
        pinv_t = basis @ pinv_t
    x0 = pinv_t.T @ ys
    r = (pinv_t @ x0) / np.sum(pinv_t * pinv_t, axis=1)[:, None]
    x = x0[None, :, :] - pinv_t[:, :, None] * r[:, None, :]
    # X0 carries rounding of about eps * cond * ||X0||; a fold whose
    # solution is much smaller than X0 (its held-out row nearly repeats
    # others) inherits it, magnified by ||X0|| / ||x_j||.
    error = np.finfo(float).eps * (sigma[0] / sigma[-1]) * np.linalg.norm(x0, axis=0)
    if np.any(error > LOO_RTOL * np.linalg.norm(x, axis=1)):
        return None
    return x
