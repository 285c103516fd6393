"""Dense linear algebra kernel: thin SVD, minimum-norm least-squares
solving, centering on a basis of the zero-sum vectors, all leave-one-out
minimum-norm solutions of any system from one SVD, unless an accuracy guard
declines it, and which leave-one-out folds pass the Gram solve's
conditioning test, from one inverse of the Gram matrix.

All routines are pure functions on float64 numpy arrays; the SVD is numpy's
LAPACK routine, and ``svd`` returns the factors (u, sigma, v) of
``a = u @ diag(sigma) @ v.T``: u n-by-k and v p-by-k with orthonormal
columns, sigma nonincreasing and nonnegative, k = min(n, p).  The minimum-norm
solves factor through it at most once and keep the singular values above
default_rank_cutoff(rows, cols) = max(rows, cols) * machine epsilon times the
largest, rows and cols being the shape of the systems they solve: the matrix
given for solve_min_norm, its leave-one-out folds for loo_min_norm.  That
truncation is the pseudoinverse they apply, and no routine takes another
cutoff.  The one solve that can skip the SVD is solve_min_norm given a's
Gram matrix, as solvers.fit_nnls gives it for every passive solve of a wide
or tall design: it uses the corrected seminormal equations when their error
estimate is within LOO_RTOL, and the SVD otherwise.
Intended scale is desk-size problems (up to a few hundred rows/columns).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError


def as_matrix(a) -> np.ndarray:
    """Validate and convert to a finite, nonempty 2-D float64 array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size == 0:
        raise ValueError("matrix must be nonempty")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def as_vector(y) -> np.ndarray:
    """Validate and convert to a finite 1-D float64 array."""
    v = np.asarray(y, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got ndim={v.ndim}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def default_rank_cutoff(rows: int, cols: int) -> float:
    """Conventional relative cutoff for treating singular values as zero."""
    return max(rows, cols) * np.finfo(float).eps


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD (u, sigma, v) of a by LAPACK (``numpy.linalg.svd``).

    ``a = u @ diag(sigma) @ v.T``: u is n-by-k and v is p-by-k with
    orthonormal columns, sigma is nonincreasing and nonnegative, and
    k = min(n, p).  Raises ConvergenceError if LAPACK's iteration does not
    converge.
    """
    a = as_matrix(a)
    try:
        u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        rows, cols = a.shape
        raise ConvergenceError(f"LAPACK SVD failed on a {rows}x{cols} matrix: {exc}") from exc
    return u, sigma, vt.T


def _truncated_svd(a, rank_cutoff: float | None = None):
    """(u_r, sigma_r, v_r, dropped): svd(a) kept to the r singular values
    above rank_cutoff times the largest, and the first one dropped (0 when
    none is).  rank_cutoff defaults to default_rank_cutoff of a's shape."""
    u, sigma, v = svd(a)
    if rank_cutoff is None:
        rank_cutoff = default_rank_cutoff(len(u), len(v))
    r = int(np.sum(sigma > rank_cutoff * sigma[0]))
    dropped = sigma[r] if r < len(sigma) else 0.0
    return u[:, :r], sigma[:r], v[:, :r], dropped


# The bound on the estimated relative error of a result that skips an SVD
# solve: loo_min_norm's fold solutions, past which the folds are left to
# per-fold solves, and solve_min_norm's Gram solves, past which it solves by
# SVD.  A tenth of the 1e-10 within which a changed result counts as the
# same: over 74,000 accepted folds of random wide, tall, rank-deficient and
# repeated-row designs with up to 15 rows, the error against the per-fold
# solve was at most 2.1e-12.
LOO_RTOL = 1e-11

# The Gram test's bounds as Python floats: each passive solve of fit_nnls
# tests them, and a float comparison costs less than a numpy one.
_EPS = float(np.finfo(float).eps)
_SQRT_LOO_RTOL = math.sqrt(LOO_RTOL)


def solve_min_norm(a, y, gram=None) -> np.ndarray:
    """Minimum-norm least-squares solution of ``a @ x ~= y``.

    Among all least-squares minimizers, returns the one with smallest
    Euclidean norm (the pseudoinverse solution), with a's singular values
    at or below default_rank_cutoff(rows, cols) times the largest dropped.

    gram, when given, is ``a.T @ a``, and the solve first tries the
    corrected seminormal equations of ``_gram_solve``.  When they decline,
    as they do for a singular or ill-conditioned gram, the solve is by SVD
    as without it.  A y whose length is not a's row count is rejected before
    either.
    """
    a, y = as_matrix(a), as_vector(y)
    if len(y) != len(a):
        raise ValueError(f"dimension mismatch: matrix has {len(a)} rows, vector has {len(y)}")
    if gram is not None:
        x = _gram_solve(a, y, np.asarray(gram, dtype=float))
        if x is not None:
            return x
    u, sigma, v, _ = _truncated_svd(a)
    return v @ ((u.T @ y) / sigma)


def _gram_inverse(gram):
    """(G^-1, t) for G = gram when G passes the Gram test, else None.

    G^-1 comes from LAPACK's LU, and t = eps * ||G||_F * ||G^-1||_F, at
    least eps times G's condition number, bounds the relative error of a
    solve with G (Bjorck 1987).  The test is t <= sqrt(LOO_RTOL).  LU's
    backward error keeps t far above that when G is singular; an exactly
    zero pivot fails at once.
    """
    try:
        g_inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        return None
    t = _EPS * math.sqrt(np.vdot(gram, gram) * np.vdot(g_inv, g_inv))
    return (g_inv, t) if t <= _SQRT_LOO_RTOL else None


def _gram_solve(a, y, gram):
    """x + d, the least-squares solution of ``a @ x ~= y`` by the corrected
    seminormal equations on G = gram = a^T a (Bjorck 1987), or None when its
    estimated distance from the SVD solve passes LOO_RTOL (relative).

    x = G^-1 a^T y and d = G^-1 a^T (y - a x), one refinement step.  Three
    tests bound the distance:

    * G passes the Gram test of ``_gram_inverse``: t <= sqrt(LOO_RTOL).
    * d estimates x's error, and the refinement leaves about t * ||d||, so
      ||d|| / ||x|| is held to sqrt(LOO_RTOL) too.
    * Rounding of a moves the least-squares solution itself, on either
      path, by up to about t * ||y - a x|| / (sigma_1 ||x||) (Wedin 1973).
      That is held to LOO_RTOL, with a's largest column norm, which is at
      most sigma_1, for sigma_1.

    An accepted a has full column rank, so its least-squares solution is
    the minimum-norm one.
    """
    cols = a.shape[1]
    if gram.shape != (cols, cols):
        raise ValueError(f"gram must be {cols}x{cols} for a matrix of {cols} columns, got {gram.shape}")
    inverse = _gram_inverse(gram)
    if inverse is None:
        return None
    g_inv, t = inverse
    x = g_inv @ (a.T @ y)
    r = y - a @ x
    d = g_inv @ (a.T @ r)
    xx, dd = float(x @ x), float(d @ d)  # squared norms, as are the bounds below
    if (
        math.isfinite(dd)
        and dd <= LOO_RTOL * xx
        and t * t * float(r @ r) <= LOO_RTOL**2 * float(gram.diagonal().max()) * xx
    ):
        return x + d
    return None


def center(a) -> tuple[np.ndarray, np.ndarray]:
    """(Q, Q^T (a - a[0])): Q = I[:, 1:] - v v[1:]^T / (n - sqrt(n)), with
    v = sqrt(n) e_1 - 1, is the last n - 1 columns of the Householder
    reflector that maps e_1 to the ones vector over sqrt(n), an orthonormal
    basis of the zero-sum vectors.  Q^T a lacks the null direction that
    rounding can lift past a rank cutoff, and subtracting a[0], not a
    rounded mean, keeps a constant column exactly zero.
    """
    n = len(a)
    v = np.full(n, -1.0)
    v[0] += math.sqrt(n)
    basis = np.eye(n)[:, 1:] - np.outer(v, v[1:]) / (n - math.sqrt(n))
    return basis, basis.T @ (a - a[0])


def _leverage_gaps(u, centered) -> tuple[np.ndarray, np.ndarray]:
    """(I - H, 1 - h_jj) for the hat matrix H = u u^T of u's orthonormal
    columns, plus 1/n in every entry when centered.  1 - h_jj is taken as
    ||(I - H)[:, j]||^2, which is accurate near 0 where 1 - ||u[j]||^2 is
    not."""
    n = len(u)
    resid_map = np.eye(n) - u @ u.T - (1.0 / n if centered else 0.0)
    return resid_map, np.sum(resid_map * resid_map, axis=0)


def _at_one(gap, n: int, p: int) -> np.ndarray:
    """Per row j of an n-by-p design, whether 1 - h_jj is 0 to rounding: an
    exact 0 comes out of rounding below this bound unless the design is
    ill-conditioned.  A bound on rounding, so it does not follow the rank
    cutoff."""
    return gap <= (10 * max(n, p) * np.finfo(float).eps) ** 2


def _keeps_rank(sigma, gap, rank_cutoff: float) -> np.ndarray:
    """Per row j, whether dropping it keeps all r = len(sigma) singular
    values above rank_cutoff times the largest: by interlacing, the r-th
    singular value without row j is at least sigma_r * sqrt(1 - h_jj), and
    the largest is at most sigma_1."""
    return sigma[-1] * np.sqrt(gap) > rank_cutoff * sigma[0]


def loo_full_column_rank(a) -> np.ndarray:
    """Per row j, whether a without row j passes the Gram test of
    ``_gram_inverse``, so its Gram matrix G_j = G - a_j^T a_j, G = a^T a, is
    safe to solve with and a's fold has full column rank.

    Certified from one ``_gram_inverse`` of G: fold j when
    t <= sqrt(LOO_RTOL) * (1 - h_jj), with h_jj = a_j G^-1 a_j^T.  By
    Sherman-Morrison, G_j^-1 = G^-1 + G^-1 a_j^T a_j G^-1 / (1 - h_jj),
    whose Frobenius norm is at most ||G^-1||_F / (1 - h_jj); and
    ||G_j||_F <= ||G||_F, so the fold's own t is at most t / (1 - h_jj).
    A principal block G_j[P, P] has no larger norm and no larger inverse,
    so the t of each passive solve of a certified fold is within the bound
    too.  1 - h_jj is off by about t, far below the margin
    t / sqrt(LOO_RTOL) it must clear, so a row alone in a direction of a's
    row space (h_jj = 1) is not certified.  When rows - 1 < p no fold is,
    and nothing is inverted.
    """
    a = as_matrix(a)
    n, p = a.shape
    inverse = _gram_inverse(a.T @ a) if n - 1 >= p else None
    if inverse is None:  # the folds are wide, or G fails and so does every fold
        return np.zeros(n, dtype=bool)
    g_inv, t = inverse
    return t <= _SQRT_LOO_RTOL * (1.0 - np.sum((a @ g_inv) * a, axis=1))


def loo_min_norm(a, ys, centered: bool = False):
    """Every leave-one-out minimum-norm solution of ``a @ x ~= ys``, from one SVD.

    Fold j drops row j of a and of ys and solves for all k columns of ys.
    With centered=True each fold de-means its rows of a and ys, as for a
    free intercept, and a is factored as ``center`` gives it.  Singular
    values at or below the folds' own default_rank_cutoff(rows - 1, p)
    times the largest are dropped, rows being those factored.  Returns an
    (n, p, k) array whose [j] is fold j's solution, or None when the
    accuracy guard declines the design.

    With P the pseudoinverse of a truncated at rank r (that of Q^T a, times
    Q^T, when centered), X0 = P @ ys and the hat matrix H (which gains 1/n
    in every entry when centered, for the intercept), fold j's solution is
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
    rank_cutoff = default_rank_cutoff(len(a) - 1, p)
    u, sigma, v, dropped = _truncated_svd(a, rank_cutoff)
    if len(sigma) == 0:  # every fold's design is zero under the cutoff too
        return np.zeros((n, p, ys.shape[1]))
    if centered:
        u = basis @ u
    pinv_t = (u / sigma) @ v.T  # P^T
    x0 = pinv_t.T @ ys
    resid_map, gap = _leverage_gaps(u, centered)
    resid = resid_map @ ys
    at_one = _at_one(gap, n, p)
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
