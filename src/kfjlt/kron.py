"""Shapes, mixed-radix index maps, and Kronecker / Khatri-Rao primitives.

Conventions used throughout the package:

* Indices are zero-based everywhere.
* A d-way shape ``(n_1, ..., n_d)`` linearizes with mode 1 varying fastest:
  ``i = i_1 + i_2 * n_1 + i_3 * n_1 * n_2 + ...``
* A Kronecker vector stores its factors as ``(x_1, ..., x_d)`` but represents
  ``x = x_d (x) x_{d-1} (x) ... (x) x_1``, so that ``x[i] = prod_k x_k[i_k]``.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

# Guard on oracle-only materializations (dense vectors / operators of length N).
DEFAULT_MATERIALIZE_CAP = 1 << 22


class ResourceLimitError(RuntimeError):
    """A materialization or enumeration exceeded its configured budget."""


def _check_cap(total, what):
    """Refuse to allocate ``total`` entries above ``DEFAULT_MATERIALIZE_CAP``,
    read at call time."""
    if total > DEFAULT_MATERIALIZE_CAP:
        raise ResourceLimitError(
            f"{what} of size {total} exceeds the cap {DEFAULT_MATERIALIZE_CAP}; "
            "use a smaller instance"
        )


def _check_finite(arr: np.ndarray, what: str) -> None:
    """Raise a ValueError naming the first NaN or inf entry of ``arr``: its
    linear index in a vector, its ``(row, column)`` in a matrix."""
    finite = np.isfinite(arr)
    if not finite.all():
        at = tuple(int(i) for i in np.unravel_index(np.argmin(finite), arr.shape))
        where = f"linear index {at[0]}" if arr.ndim == 1 else f"index {at}"
        raise ValueError(f"{what} holds {arr[at]} at {where}")


def _as_dim(n, what: str = "dimension") -> int:
    """``n`` as an ``int``; floats, bools and other non-integers are refused
    rather than truncated, in a message naming ``what``."""
    if not isinstance(n, (bool, np.bool_)):
        try:
            return operator.index(n)
        except TypeError:
            pass
    raise ValueError(f"{what} {n!r} is not an integer")


@dataclass(frozen=True)
class Shape:
    """Sizes ``(n_1, ..., n_d)`` of the constituent spaces of a product space."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(_as_dim(n) for n in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 1:
            raise ValueError("shape needs at least one dimension")
        if any(n < 1 for n in dims):
            raise ValueError(f"all dimensions must be >= 1, got {dims}")
        if math.prod(dims) > sys.maxsize:
            raise ValueError(f"product of {dims} exceeds the addressable range")

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def total(self) -> int:
        return math.prod(self.dims)


@dataclass(frozen=True, eq=False)
class KroneckerVector:
    """Factors ``(x_1, ..., x_d)`` representing ``x_d (x) ... (x) x_1``."""

    factors: tuple[np.ndarray, ...]
    shape: Shape = field(init=False)

    def __post_init__(self):
        factors = tuple(self.factors)
        for k, f in enumerate(factors, start=1):
            if np.iscomplexobj(f):
                raise ValueError(f"factor x_{k} is complex; a Kronecker vector is real")
        factors = tuple(np.asarray(f, dtype=np.float64) for f in factors)
        if any(f.ndim != 1 for f in factors):
            raise ValueError("every factor must be a 1-D real vector")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "shape", Shape(tuple(f.size for f in factors)))


def multi_index_array(shape: Shape, idx) -> tuple[np.ndarray, ...]:
    """Per-mode coordinates ``(i_1, ..., i_d)`` of linear indices, mode 1
    fastest: one coordinate array per mode."""
    idx = np.asarray(idx)
    if idx.size and (idx.min() < 0 or idx.max() >= shape.total):
        raise ValueError(f"indices out of range [0, {shape.total})")
    return np.unravel_index(idx, shape.dims, order="F")


def kron_materialize(v: KroneckerVector) -> np.ndarray:
    """Dense length-N vector with entry ``i`` equal to ``prod_k x_k[i_k]``.

    Oracle-only path; guarded by the materialization cap.
    """
    _check_cap(v.shape.total, "materialized Kronecker vector")
    return khatri_rao(v.factors)


def kron_norm_sq(v: KroneckerVector) -> float:
    """Squared 2-norm ``prod_k ||x_k||^2`` without materializing."""
    return float(math.prod(float(f @ f) for f in v.factors))


def khatri_rao(matrices) -> np.ndarray:
    """Column-wise Kronecker product of matrices sharing a column count.

    Given ``(M_1, ..., M_d)`` with ``M_k`` of size ``n_k x R``, column ``j`` of
    the result is the Kronecker vector ``M_d[:, j] (x) ... (x) M_1[:, j]``,
    linearized mode 1 fastest like every index in this module. 1-D inputs
    ``(x_1, ..., x_d)`` give the length-N Kronecker vector itself. This is the
    package's one kernel that forms a dense Kronecker product.

    Parameters
    ----------
    matrices : sequence of 2-D arrays with equal column counts, or of 1-D
        arrays.

    Returns
    -------
    ndarray of shape ``(prod n_k, R)``, or ``(prod n_k,)`` for 1-D inputs.
    """
    matrices = [np.asarray(m) for m in matrices]
    if not matrices:
        raise ValueError("need at least one matrix")
    if any(m.ndim != matrices[0].ndim for m in matrices) or matrices[0].ndim not in (1, 2):
        raise ValueError("inputs must be all matrices or all vectors")
    cols = matrices[0].shape[1:]
    if any(m.shape[1:] != cols for m in matrices):
        raise ValueError("all matrices must share the same column count")
    out = matrices[0]
    for m in matrices[1:]:
        # (n_next, n_acc[, R]) reshaped C-order keeps the accumulated index fastest.
        out = (m[:, None] * out[None, :]).reshape((-1,) + cols)
    return out


def khatri_rao_matvec(matrices, x) -> np.ndarray:
    """``khatri_rao(matrices) @ x`` for ``x`` of shape ``(R,)`` or ``(R, c)``,
    without forming the N x R product.

    With ``Z`` the Khatri-Rao product of all but the last matrix (one row of
    ones for d = 1), the rows where mode d is k are ``Z @ (M_d[k] * x)``, so
    temporaries are ``N / n_d x R`` besides the output, checked against the cap.
    """
    *rest, last = [np.asarray(m) for m in matrices]
    x = np.asarray(x)
    _check_cap(math.prod(m.shape[0] for m in rest) * last.shape[1], "Khatri-Rao product of all but the last factor")
    z = khatri_rao(rest) if rest else np.ones((1, last.shape[1]))
    return (z @ (last[:, :, None] * x.reshape(last.shape[1], -1))).reshape((-1,) + x.shape[1:])


def khatri_rao_rows(matrices, rows) -> np.ndarray:
    """Selected rows of ``khatri_rao(matrices)`` without forming the product.

    ``rows`` are linear indices over the shape given by the matrix heights;
    row ``i`` equals the entrywise product over k of row ``i_k`` of ``M_k``.
    This is the package's one Kronecker gather: 1-D inputs give entries of
    the Kronecker vector, and trailing axes are carried along as batch axes.
    """
    matrices = [np.asarray(m) for m in matrices]
    shape = Shape(tuple(m.shape[0] for m in matrices))
    coords = multi_index_array(shape, np.asarray(rows))
    out = matrices[0][coords[0]]
    for m, c in zip(matrices[1:], coords[1:]):
        out = out * m[c]
    return out
