"""Sketched overdetermined least squares for Khatri-Rao structured systems.

The coefficient matrix ``A = A_d (.) ... (.) A_1`` (N x R) is never formed on
the sketching path: each factor matrix is mixed once, and sampled rows of the
mixed Khatri-Rao product are assembled from per-factor row lookups. The
complex sketch is turned into a real system by stacking real parts over
imaginary parts (an exact isometry), and solved by an orthogonal
factorization rather than normal equations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kron import Shape, khatri_rao, khatri_rao_rows, _check_cap, _check_finite
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
        # Per column: since mix_modes owns one buffer a batched call peaks no
        # higher, but it took 0.18-0.20 s of ls benchmark CPU, not 0.16-0.17 s.
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
    a, exact = _exact_residual(problem)
    return _residual_report(a, problem.rhs, exact, x_hat)


def _exact_residual(problem: KrlsProblem) -> tuple[np.ndarray, float]:
    """Dense oracle: the materialized Khatri-Rao product and the exact
    minimum residual."""
    _check_cap(problem.shape.total * problem.ncols, "materialized Khatri-Rao product")
    a = khatri_rao(problem.factor_matrices)
    x, _, _, _ = np.linalg.lstsq(a, problem.rhs, rcond=None)
    return a, float(np.linalg.norm(a @ x - problem.rhs))


def _residual_report(a, b, exact: float, x_hat) -> ResidualReport:
    """Report for ``x_hat`` against the materialized ``a`` and the exact
    residual already found for it, so one solve serves many ``x_hat``."""
    achieved = float(np.linalg.norm(a @ np.asarray(x_hat) - b))
    rhs_scale = max(1.0, float(np.linalg.norm(b)))
    if exact <= 1e-12 * rhs_scale:
        return ResidualReport(achieved, achieved, exact, True)
    return ResidualReport(achieved / exact, achieved, exact, False)
