"""Sketched overdetermined least squares for Khatri-Rao structured systems.

The coefficient matrix ``A = A_d (.) ... (.) A_1`` (N x R) is never formed. On
the sketching path each factor matrix is mixed once, and sampled rows of the
mixed Khatri-Rao product are assembled from per-factor row lookups; the exact
reference of ``residual_ratio`` works from the N / n_d x R product of the
first d-1 factors. The complex sketch is made real by stacking real parts
over imaginary parts (an exact isometry), and solved by an orthogonal
factorization rather than normal equations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kron import Shape, khatri_rao, khatri_rao_matvec, khatri_rao_rows, _check_cap, _check_finite
from .transforms import KfjltOperator, kfjlt_apply_dense, mix_factor


@dataclass(frozen=True, eq=False)
class KrlsProblem:
    """Least squares ``min_x ||A x - b||`` with ``A`` a Khatri-Rao product.

    ``factor_matrices`` are ``(A_1, ..., A_d)`` with ``A_k`` of size
    ``n_k x R``; ``rhs`` is a vector of length ``N = prod n_k`` or a matrix
    with N rows (solved column by column).
    """

    factor_matrices: tuple[np.ndarray, ...]
    rhs: np.ndarray
    shape: Shape = field(init=False)

    def __post_init__(self):
        mats = tuple(np.asarray(a, dtype=np.float64) for a in self.factor_matrices)
        if not mats or any(a.ndim != 2 for a in mats):
            raise ValueError("factor matrices must be 2-D arrays")
        ncols = mats[0].shape[1]
        if any(a.shape[1] != ncols for a in mats):
            raise ValueError("factor matrices must share a column count")
        shape = Shape(tuple(a.shape[0] for a in mats))
        rhs = np.asarray(self.rhs, dtype=np.float64)
        if rhs.ndim not in (1, 2):
            raise ValueError(f"rhs must be a vector or a matrix, got shape {rhs.shape}")
        if rhs.shape[0] != shape.total:
            raise ValueError(f"rhs has {rhs.shape[0]} rows, expected {shape.total}")
        for k, a in enumerate(mats, start=1):
            _check_finite(a, f"factor matrix A_{k}")
        _check_finite(rhs, "rhs")
        object.__setattr__(self, "factor_matrices", mats)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "shape", shape)

    @property
    def ncols(self) -> int:
        return self.factor_matrices[0].shape[1]


def sketch_khatri_rao(op: KfjltOperator, factor_matrices) -> np.ndarray:
    """Apply the operator to every column of the Khatri-Rao product.

    Each ``A_k`` is mixed once column-wise; sampled row ``i`` of the result is
    ``scale * prod_k hat{A}_k[i_k, :]`` (entrywise over the R columns). The
    N-row product is never formed.
    """
    mats = [np.asarray(a) for a in factor_matrices]
    if tuple(a.shape[0] for a in mats) != op.shape.dims:
        raise ValueError("factor matrix heights must match the operator shape")
    mixed = [mix_factor(a, s) for a, s in zip(mats, op.signs)]
    return op.scale * khatri_rao_rows(mixed, op.rows)


def complexify(z) -> np.ndarray:
    """Stack real parts over imaginary parts; preserves 2-norms exactly."""
    z = np.asarray(z)
    return np.concatenate([z.real, z.imag], dtype=np.float64)


def least_squares(a, b) -> tuple[np.ndarray, int, bool]:
    """Minimize ``||a x - b||`` by orthogonal factorization.

    QR when the triangular factor is safely full rank (cutoff
    ``max(rows, cols) * eps * |r|_max``), otherwise an SVD solve returning
    the minimum-norm solution. Returns ``(x, rank, degenerate)``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    ncols = a.shape[1]
    if a.shape[0] >= ncols:
        q, r = np.linalg.qr(a)
        diag = np.abs(np.diag(r))
        if diag.size == 0 or diag.min() > max(a.shape) * np.finfo(np.float64).eps * diag.max():
            return np.linalg.solve(r, q.T @ b), ncols, False
    x, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    return x, int(rank), rank < ncols


def build_sketched_system(problem: KrlsProblem, op: KfjltOperator) -> tuple[np.ndarray, np.ndarray]:
    """Real ``2m``-row system ``(matrix, rhs)``: rows 1..m hold real parts,
    rows m+1..2m imaginary parts of the complex sketch."""
    if problem.shape != op.shape:
        raise ValueError("problem and operator shapes differ")
    ca = sketch_khatri_rao(op, problem.factor_matrices)
    if problem.rhs.ndim == 1:
        cb = kfjlt_apply_dense(op, problem.rhs)
    else:
        # Per column: at 64^3 with 8 columns the loop took 24-28 ms and one
        # batched call 25-33 ms, at m = 200 to 3200 (1 BLAS thread, 2 vCPU).
        cb = np.stack([kfjlt_apply_dense(op, col) for col in problem.rhs.T], axis=1)
    return complexify(ca), complexify(cb)


@dataclass(frozen=True, eq=False)
class SketchedLsResult:
    solution: np.ndarray
    rank: int
    degenerate: bool


def solve_sketched_ls(problem: KrlsProblem, op: KfjltOperator) -> SketchedLsResult:
    """Minimize ``||complexify(Phi A) x - complexify(Phi b)||`` with
    :func:`least_squares`: a QR solve, or an SVD solve when the triangular
    factor is near singular.

    A rank-deficient sketch yields the minimum-norm solution with
    ``degenerate=True``.
    """
    matrix, rhs = build_sketched_system(problem, op)
    return SketchedLsResult(*least_squares(matrix, rhs))


@dataclass(frozen=True)
class ResidualReport:
    """``||A x_hat - b|| / min_x ||A x - b||``, or the absolute residual when
    the exact minimum is (numerically) zero (``flagged_zero_residual``)."""

    value: float
    achieved_residual: float
    exact_residual: float
    flagged_zero_residual: bool


def residual_ratio(problem: KrlsProblem, x_hat) -> ResidualReport:
    """Report for ``x_hat`` against the exact minimum, found without forming A.

    With ``Z = Q T`` the reduced QR of the Khatri-Rao product of all but the
    last factor, the rows of A where mode d is k are ``Q T diag(A_d[k])``, so
    the exact solution minimizes ``||S x - c||`` for the stacked
    ``S = [T diag(A_d[k])]_k`` and ``c = [Q^T b_k]_k``. Both residuals are
    then taken directly, so nothing cancels near a zero residual.
    """
    *rest, last = problem.factor_matrices
    b = problem.rhs
    _check_cap(problem.shape.total // last.shape[0] * problem.ncols, "Khatri-Rao product of all but the last factor")
    q, t = np.linalg.qr(khatri_rao(rest) if rest else np.ones((1, problem.ncols)))
    c = (q.T @ b.reshape((last.shape[0], q.shape[0], -1))).reshape((-1,) + b.shape[1:])
    x_star = least_squares((t * last[:, None]).reshape(-1, problem.ncols), c)[0]
    exact, achieved = (
        float(np.linalg.norm(khatri_rao_matvec(problem.factor_matrices, x) - b)) for x in (x_star, x_hat)
    )
    if exact <= 1e-12 * max(1.0, float(np.linalg.norm(b))):
        return ResidualReport(achieved, achieved, exact, True)
    return ResidualReport(achieved / exact, achieved, exact, False)
