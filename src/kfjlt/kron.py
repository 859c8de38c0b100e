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
import sys
from dataclasses import dataclass, field

import numpy as np

# Guard on oracle-only materializations (dense vectors / operators of length N).
DEFAULT_MATERIALIZE_CAP = 1 << 22


class ResourceLimitError(RuntimeError):
    """A materialization or enumeration exceeded its configured budget."""


def _check_cap(total, cap, what):
    limit = DEFAULT_MATERIALIZE_CAP if cap is None else cap
    if total > limit:
        raise ResourceLimitError(
            f"{what} of size {total} exceeds the cap {limit}; "
            "use a smaller instance or raise the cap explicitly"
        )


@dataclass(frozen=True)
class Shape:
    """Sizes ``(n_1, ..., n_d)`` of the constituent spaces of a product space."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
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

    def strides(self) -> tuple[int, ...]:
        """Mode-1-fastest strides: stride of mode k is ``n_1 * ... * n_{k-1}``."""
        out, acc = [], 1
        for n in self.dims:
            out.append(acc)
            acc *= n
        return tuple(out)

    def drop(self, mode: int) -> "Shape":
        """Shape with 1-based ``mode`` removed (used by unfoldings)."""
        if not 1 <= mode <= self.ndim:
            raise ValueError(f"mode {mode} out of range 1..{self.ndim}")
        return Shape(self.dims[: mode - 1] + self.dims[mode:])


@dataclass(frozen=True)
class KroneckerVector:
    """Factors ``(x_1, ..., x_d)`` representing ``x_d (x) ... (x) x_1``."""

    factors: tuple[np.ndarray, ...]
    shape: Shape = field(init=False)

    def __post_init__(self):
        factors = tuple(np.asarray(f, dtype=np.float64) for f in self.factors)
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


def kron_materialize(v: KroneckerVector, cap: int | None = None) -> np.ndarray:
    """Dense length-N vector with entry ``i`` equal to ``prod_k x_k[i_k]``.

    Oracle-only path; guarded by the materialization cap.
    """
    _check_cap(v.shape.total, cap, "materialized Kronecker vector")
    out = v.factors[0]
    for f in v.factors[1:]:
        out = np.kron(f, out)
    return out


def kron_norm_sq(v: KroneckerVector) -> float:
    """Squared 2-norm ``prod_k ||x_k||^2`` without materializing."""
    return float(math.prod(float(f @ f) for f in v.factors))


def khatri_rao(matrices) -> np.ndarray:
    """Column-wise Kronecker product of matrices sharing a column count.

    Given ``(M_1, ..., M_d)`` with ``M_k`` of size ``n_k x R``, column ``j`` of
    the result is the materialized Kronecker vector with factors
    ``(M_1[:, j], ..., M_d[:, j])``, linearized mode 1 fastest like every
    index in this module.

    Parameters
    ----------
    matrices : sequence of 2-D arrays with equal column counts.

    Returns
    -------
    ndarray of shape ``(prod n_k, R)``.
    """
    matrices = [np.asarray(m) for m in matrices]
    if not matrices:
        raise ValueError("need at least one matrix")
    if any(m.ndim != 2 for m in matrices):
        raise ValueError("all inputs must be matrices")
    ncols = matrices[0].shape[1]
    if any(m.shape[1] != ncols for m in matrices):
        raise ValueError("all matrices must share the same column count")
    out = matrices[0]
    for m in matrices[1:]:
        # (n_next, n_acc, R) reshaped C-order keeps the accumulated index fastest.
        out = (m[:, None, :] * out[None, :, :]).reshape(-1, ncols)
    return out


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
