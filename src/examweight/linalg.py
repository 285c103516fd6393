"""Dense linear algebra kernel: thin SVD, Moore-Penrose pseudoinverse,
minimum-norm least-squares solving, centering on a basis of the zero-sum
vectors, all leave-one-out minimum-norm solutions of any system from one
SVD, unless an accuracy guard declines it, and a one-SVD certificate of
which leave-one-out folds keep full column rank.

All routines are pure functions on float64 numpy arrays; the SVD is numpy's
LAPACK routine.  Rank decisions are relative to the largest singular value:
a routine's rank_cutoff must be positive and defaults to max(rows, cols) *
machine epsilon of the systems it solves.
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


def _rank_cutoff(rank_cutoff: float | None, rows: int, cols: int) -> float:
    """rank_cutoff, which must be positive, or default_rank_cutoff(rows, cols)
    when it is None."""
    if rank_cutoff is None:
        return default_rank_cutoff(rows, cols)
    if not rank_cutoff > 0:
        raise ValueError("rank_cutoff must be positive")
    return rank_cutoff


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
    rank_cutoff = _rank_cutoff(rank_cutoff, *a.shape)
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
    rank_cutoff = _rank_cutoff(rank_cutoff, *a.shape)
    res = svd(a)
    smax = res.singular_values[0]
    thresh = rank_cutoff * smax
    coeffs = res.u.T @ y
    keep = res.singular_values > thresh
    scaled = np.where(keep, coeffs / np.where(keep, res.singular_values, 1.0), 0.0)
    return res.v @ scaled


def center(a) -> tuple[np.ndarray, np.ndarray]:
    """(Q, Q^T a): Q is an orthonormal n-by-(n - 1) basis of the zero-sum
    vectors, so Q Q^T a is a with its columns de-meaned, and Q^T a has its
    singular values without the exactly null direction that rounding can
    lift past a rank cutoff.  Formed as Q^T (a - a[0]), which keeps a
    constant column exactly zero where subtracting a rounded mean may not.
    """
    n = len(a)
    basis = np.linalg.qr(np.eye(n)[:, 1:] - np.eye(n)[:, :1])[0]
    return basis, basis.T @ (a - a[0])


def _leverage_gaps(u, centered=False) -> tuple[np.ndarray, np.ndarray]:
    """(I - H, 1 - h_jj) for the hat matrix H = u u^T of u's orthonormal
    columns, plus 1/n in every entry when centered.  1 - h_jj is taken as
    ||(I - H)[:, j]||^2, which is accurate near 0 where 1 - ||u[j]||^2 is
    not."""
    n = len(u)
    resid_map = np.eye(n) - u @ u.T - (1.0 / n if centered else 0.0)
    return resid_map, np.sum(resid_map * resid_map, axis=0)


def _keeps_rank(sigma, gap, rank_cutoff: float) -> np.ndarray:
    """Per row j, whether dropping it keeps all r = len(sigma) singular
    values above rank_cutoff times the largest: by interlacing, the r-th
    singular value without row j is at least sigma_r * sqrt(1 - h_jj), and
    the largest is at most sigma_1."""
    return sigma[-1] * np.sqrt(gap) > rank_cutoff * sigma[0]


def loo_full_column_rank(a, rank_cutoff: float | None = None) -> np.ndarray:
    """Per row j, whether a without row j certainly has full column rank.

    Certified from one SVD of a by the bound of ``_keeps_rank``: the fold's
    p-th singular value exceeds rank_cutoff times its largest.  rank_cutoff
    defaults to the folds' own max(rows - 1, p) * machine epsilon, which is
    at least the default cutoff of a solve on any subset of a fold's
    columns, so no such solve of a certified fold truncates its rank.  The
    test is conservative: a fold near the cutoff may be of full rank and not
    certified.  When rows - 1 < p no fold is, and no SVD is made.
    """
    a = as_matrix(a)
    n, p = a.shape
    rank_cutoff = _rank_cutoff(rank_cutoff, n - 1, p)
    if n - 1 < p:
        return np.zeros(n, dtype=bool)
    res = svd(a)
    return _keeps_rank(res.singular_values, _leverage_gaps(res.u)[1], rank_cutoff)


# loo_min_norm's bound on the estimated relative error of a fold solution;
# past it the folds are left to per-fold solves.  A tenth of the 1e-10 within
# which a changed result counts as the same: over 74,000 accepted folds of
# random wide, tall, rank-deficient and repeated-row designs with up to 15
# rows, the error against the per-fold solve was at most 2.1e-12.
LOO_RTOL = 1e-11


def loo_min_norm(a, ys, rank_cutoff: float | None = None, centered: bool = False):
    """Every leave-one-out minimum-norm solution of ``a @ x ~= ys``, from one SVD.

    Fold j drops row j of a and of ys and solves for all k columns of ys.
    With centered=True each fold de-means its rows of a and ys, as for a
    free intercept, and a is factored as ``center`` gives it.  Singular
    values at or below rank_cutoff times the largest are dropped; it
    defaults to the folds' own max(rows - 1, p) * machine epsilon, rows
    being those factored.  Returns an (n, p, k) array whose [j] is fold j's
    solution, or None when the accuracy guard declines the design.

    With P = pinv(a) truncated at rank r (pinv(Q^T a) Q^T when centered),
    X0 = P @ ys and the hat matrix H (which gains 1/n in every entry when
    centered, for the intercept), fold j's solution is
    ``X0 - P[:, j] c_j^T``.  When h_jj < 1, row j lies in the span of the
    others and c_j = e_j / (1 - h_jj), e_j the full fit's residual: the
    leave-one-out downdate behind PRESS (Allen 1974) and DFBETA (Belsley,
    Kuh & Welsch 1980).  1 - h_jj is taken as ||(I - H)[:, j]||^2, which is
    accurate near 0.  When h_jj = 1 to rounding, P[:, j] is orthogonal to
    the other rows, which span the rest of the row space, and the fold's
    solution is X0 projected off P[:, j]: c_j = P[:, j]^T X0 / ||P[:, j]||^2.

    The guard declines the design when a fold's estimated relative error
    passes LOO_RTOL (it grows as 1 / (1 - h_jj), so a leverage near 1 but
    not at it is declined), or when a fold's own solve could decide the rank
    otherwise: by interlacing, fold j's largest singular value is at least
    sigma_1 * sqrt(1 - U[j, 0]^2) (n / (n - 1) * U[j, 0]^2 when centered),
    its r-th at least sigma_r * sqrt(1 - h_jj) and its (r + 1)-th at most
    the first dropped one.
    """
    a = as_matrix(a)
    ys = as_matrix(ys)
    n, p = a.shape
    if len(ys) != n:
        raise ValueError(f"dimension mismatch: matrix has {n} rows, targets have {len(ys)}")
    if n < 2:
        raise ValueError("leave-one-out needs at least 2 rows")
    if centered:
        basis, a = center(a)
    rank_cutoff = _rank_cutoff(rank_cutoff, len(a) - 1, p)
    res = svd(a)
    sigma = res.singular_values
    r = int(np.sum(sigma > rank_cutoff * sigma[0]))
    if r == 0:  # every fold's design is zero under the cutoff too
        return np.zeros((n, p, ys.shape[1]))
    dropped = sigma[r] if r < len(sigma) else 0.0
    u, sigma = res.u[:, :r], sigma[:r]
    if centered:
        u = basis @ u
    pinv_t = (u / sigma) @ res.v[:, :r].T  # P^T
    x0 = pinv_t.T @ ys
    resid_map, gap = _leverage_gaps(u, centered)
    resid = resid_map @ ys
    # an exact 0 comes out of rounding below this unless a is ill-conditioned
    at_one = gap <= (10 * default_rank_cutoff(n, p)) ** 2
    gap[at_one] = 1.0
    col_sq = np.sum(pinv_t * pinv_t, axis=1)
    proj = (pinv_t @ x0) / np.where(at_one, col_sq, 1.0)[:, None]
    c = np.where(at_one[:, None], proj, resid / gap[:, None])
    x = x0[None, :, :] - pinv_t[:, :, None] * c[:, None, :]
    # The identity holds for a truncated at rank r: a perturbed by a
    # relative delta, its first dropped singular value or rounding.  X0 then
    # carries delta * (cond * ||X0|| + cond^2 * ||E|| / sigma_1), E the
    # residuals, which a fold solution much smaller than X0 inherits; a
    # downdated fold adds that of P[:, j] c_j, and that of e_j and 1 - h_jj
    # magnified by 1 / (1 - h_jj).
    delta = max(np.finfo(float).eps, dropped / sigma[0])
    cond = sigma[0] / sigma[-1]
    pnorm = np.where(at_one, 0.0, np.sqrt(col_sq))[:, None]
    error = delta * (
        cond * np.linalg.norm(x0, axis=0) + cond**2 * np.linalg.norm(resid, axis=0) / sigma[0]
        + cond * pnorm * np.abs(c) + pnorm * (np.linalg.norm(ys, axis=0) + np.abs(c)) / gap[:, None]
    )
    top = sigma[0] * np.sqrt(np.maximum(1.0 - u[:, 0] ** 2 * (n / (n - 1) if centered else 1.0), 0.0))
    if (
        np.any(dropped > rank_cutoff * top)
        or not np.all(_keeps_rank(sigma, gap, rank_cutoff))
        or np.any(error > LOO_RTOL * np.linalg.norm(x, axis=1))
    ):
        return None
    return x
