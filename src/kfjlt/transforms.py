"""Random sketching operators built from subsampled, sign-flipped DFTs.

One operator type, ``KfjltOperator``, is ``sqrt(N/m) S (F_d D_d (x) ... (x)
F_1 D_1)`` on a product space: ``F D_xi`` is the unitary DFT after a random
sign flip, and rows are sampled from the full Kronecker mixing. The fast path
on Kronecker vectors mixes each factor once and traces sampled linear indices
back to per-factor indices; the dense path mixes real input into a half
spectrum. Two constructors build particular cases:

* ``FjltOperator`` -- the degree-1 case, the FJLT ``sqrt(n/m) S F D_xi``
  from a flat length n; ``fjlt_apply`` applies it.
* ``FactoredKfjltOperator`` -- the sample-before-Kronecker alternative
  ``(x)_k sqrt(n_k/m_k) S_k F_k D_k``: its rows are every combination of one
  sampled row per factor, so its output is the Kronecker product of the
  per-factor sketches.

Randomness: an operator built via ``from_seed`` expands one seed into d+1
deterministic sub-streams (factor k's signs use sub-stream k, the row sample
uses sub-stream d+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kron import (
    KroneckerVector,
    Shape,
    _as_dim,
    _check_cap,
    khatri_rao,
    khatri_rao_rows,
    multi_index_array,
)


def seed_children(seed, count: int) -> list[np.random.SeedSequence]:
    """First ``count`` spawn children of a seed, derived statelessly.

    Unlike ``SeedSequence.spawn`` this never mutates the parent, so building
    two operators from the same seed object yields identical randomness.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    key = tuple(ss.spawn_key)
    return [
        np.random.SeedSequence(entropy=ss.entropy, spawn_key=key + (k,))
        for k in range(count)
    ]


def _as_signs(signs) -> np.ndarray:
    """``signs`` as a float64 vector of +-1 entries: the package's one sign check."""
    signs = np.asarray(signs, dtype=np.float64)
    if signs.ndim != 1 or not (np.abs(signs) == 1.0).all():
        raise ValueError("signs must be a 1-D vector of +-1 entries")
    return signs


@dataclass(frozen=True, eq=False)
class SignVector:
    """``rademacher``'s draw of independent uniform +-1 entries; ``np.asarray``
    gives ``signs``. The entries are checked where they enter an operator."""

    signs: np.ndarray

    def __array__(self, dtype=None, copy=None):
        return np.array(self.signs, dtype=dtype, copy=copy)


def rademacher(n: int, rng: np.random.Generator) -> SignVector:
    """Draw a fresh +-1 sign vector of length n."""
    return SignVector(rng.integers(0, 2, size=n).astype(np.float64) * 2.0 - 1.0)


def _draw_signs(kids, dims) -> tuple[np.ndarray, ...]:
    """One +-1 array per factor, factor k drawn from its own sub-stream ``kids[k]``."""
    return tuple(rademacher(n, np.random.default_rng(kid)).signs for n, kid in zip(dims, kids))


def _dft_rows(n: int, rows) -> np.ndarray:
    """Rows ``rows`` of the unitary DFT in closed form,
    ``exp(-2 pi i (j l mod n) / n) / sqrt(n)``, independent of ``np.fft``."""
    phase = np.outer(np.asarray(rows, dtype=np.int64), np.arange(n, dtype=np.int64)) % n
    return np.exp((-2j * np.pi / n) * phase) / math.sqrt(n)


def dft_matrix(n: int) -> np.ndarray:
    """Dense unitary DFT matrix (oracle helper)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _dft_rows(n, np.arange(n))


def _mix_axes(buf, src, signs, first=0) -> np.ndarray:
    """Flip and DFT ``buf`` in place along axes ``first, ...``; the first flip reads ``src``, returned if unread."""
    for axis, s in enumerate(map(np.asarray, signs), first):
        if s.shape != (buf.shape[axis],):
            raise ValueError(f"axis {axis} has length {buf.shape[axis]} but its sign vector has shape {s.shape}")
        # The first flip multiplies in src's own dtype and only then casts, so a
        # real src's imaginary parts are +0 bit for bit as in ``fft(src * s)``.
        np.multiply(src, s.reshape((-1,) + (1,) * (buf.ndim - axis - 1)), out=buf)
        np.fft.fft(buf, axis=axis, norm="ortho", out=buf)
        src = buf
    return src


def mix_modes(t, signs) -> np.ndarray:
    """Apply ``F_k D_k`` along axis k for the k-th +-1 sign vector: flip signs,
    then take the unitary DFT ``y[j] = n**-0.5 * sum_l x[l] exp(-2 pi i j l / n)``.

    Axes after the last sign vector are batch axes, mixed independently.
    This is the one mixing kernel of the package; it preserves 2-norms.

    The result is one owned complex128 buffer in ``t``'s memory layout: the
    first sign flip writes it, every later step works in place, and ``t`` is
    never written. With no sign vectors it is a complex copy of ``t``.
    """
    t = np.asarray(t)
    if len(signs) > t.ndim:
        raise ValueError(f"{len(signs)} sign vectors for a {t.ndim}-axis array")
    buf = np.empty_like(t, dtype=np.complex128)
    if _mix_axes(buf, t, signs) is t:
        buf[...] = t
    return buf


def mix_factor(x, signs) -> np.ndarray:
    """``F D_xi x``: sign-flip then unitary DFT along axis 0 (each column of
    a matrix is one vector). Norm-preserving."""
    return mix_modes(x, (signs,))


def _sample_rows(n_total: int, m: int, rng: np.random.Generator, replacement: bool) -> np.ndarray:
    if _as_dim(m, "m") < 1:
        raise ValueError("m must be >= 1")
    if replacement:
        return rng.integers(0, n_total, size=m)
    if m > n_total:
        raise ValueError(f"cannot sample {m} rows from {n_total} without replacement")
    return rng.choice(n_total, size=m, replace=False)


@dataclass(frozen=True, eq=False)
class KfjltOperator:
    """``sqrt(N/m) S ((x)_{k=d}^1 F_k D_k)`` on a product space: its +-1
    sign arrays and its m sampled rows; the scale follows from m and N."""

    shape: Shape
    signs: tuple[np.ndarray, ...]
    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows)
        if rows.dtype.kind not in "iu" and rows.size:
            raise ValueError(f"row indices must be integers, got {rows.dtype} array {rows}")
        rows = rows.astype(np.intp, copy=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "signs", tuple(map(_as_signs, self.signs)))
        if len(self.signs) != self.shape.ndim:
            raise ValueError("need one sign vector per factor")
        if tuple(s.size for s in self.signs) != self.shape.dims:
            raise ValueError("sign vector lengths must match the shape")
        if rows.ndim != 1 or rows.size < 1:
            raise ValueError("need at least one sampled row")
        if rows.min() < 0 or rows.max() >= self.shape.total:
            raise ValueError("row indices out of range")

    @property
    def m(self) -> int:
        return self.rows.size

    @property
    def scale(self) -> float:
        return math.sqrt(self.shape.total / self.m)

    @classmethod
    def from_seed(cls, seed, shape: Shape, m: int, replacement: bool = True) -> "KfjltOperator":
        kids = seed_children(seed, shape.ndim + 1)
        rows = _sample_rows(shape.total, m, np.random.default_rng(kids[-1]), replacement)
        return cls(shape, _draw_signs(kids, shape.dims), rows)

    @classmethod
    def exhaustive(cls, seed, shape: Shape) -> "KfjltOperator":
        """All N rows once each (scale 1): full unitary mixing, no sketching."""
        kids = seed_children(seed, shape.ndim + 1)
        return cls(shape, _draw_signs(kids, shape.dims), np.arange(shape.total))


class FjltOperator:
    """Constructor of the FJLT ``sqrt(n/m) S F D_xi`` on vectors of length n:
    the degree-1 ``KfjltOperator``."""

    @classmethod
    def from_seed(cls, seed, n: int, m: int, replacement: bool = True) -> KfjltOperator:
        return KfjltOperator.from_seed(seed, Shape((n,)), m, replacement)


def kfjlt_apply_kron(op: KfjltOperator, v: KroneckerVector) -> np.ndarray:
    """Fast path on Kronecker vectors.

    Mixes each factor once (cost ``sum_k n_k log n_k``), then for each sampled
    row traces the linear index back to per-factor indices and multiplies the
    d looked-up mixed entries. The length-N vector is never formed.
    """
    if v.shape != op.shape:
        raise ValueError(f"shape mismatch: vector {v.shape} vs operator {op.shape}")
    mixed = [mix_factor(x, s) for x, s in zip(v.factors, op.signs)]
    return op.scale * khatri_rao_rows(mixed, op.rows)


def kfjlt_apply_dense(op: KfjltOperator, x) -> np.ndarray:
    """Apply the operator to a vector of length N, or to each column of an
    ``N x k`` array (trailing axes are batch axes).

    Mixes x, reshaped mode 1 fastest, into the half spectrum ``H`` that
    ``rfft`` keeps along mode 1; by Hermitian symmetry, row ``i_1 > n_1 // 2``
    is ``conj(H[n_1 - i_1, -i_2, ..., -i_d])``. Complex x is mixed by parts.
    """
    x = np.asarray(x)
    if x.ndim < 1 or x.shape[0] != op.shape.total:
        raise ValueError(f"expected vector of length {op.shape.total}, got {x.shape}")
    if np.iscomplexobj(x):
        return kfjlt_apply_dense(op, x.real) + 1j * kfjlt_apply_dense(op, x.imag)
    batch, (s1, *rest), n1 = x.shape[1:], op.signs, op.shape.dims[0]
    t = x.reshape(op.shape.dims + batch, order="F")
    half = np.fft.rfft(t * s1.reshape((-1,) + (1,) * (t.ndim - 1)), axis=0, norm="ortho")
    coords = np.array(multi_index_array(op.shape, op.rows))
    flip = coords[0] > n1 // 2
    coords *= 1 - 2 * flip  # a negative index counts from the end: -i_k mod n_k
    coords[0] += n1 * flip
    out = _mix_axes(half, half, rest, 1)[tuple(coords)]
    return op.scale * np.conjugate(out, out=out, where=flip.reshape((-1,) + (1,) * len(batch)))


def fjlt_apply(op: KfjltOperator, x) -> np.ndarray:
    """Apply a degree-1 operator to a vector of length n (or ``n x k``)."""
    return kfjlt_apply_dense(op, x)


class FactoredKfjltOperator:
    """Constructor of the sample-before sketch ``(x)_k sqrt(n_k/m_k) S_k F_k
    D_k``: ``ms[k]`` rows are sampled per factor k, and the ``KfjltOperator``
    keeps every combination of one row per factor, mode 1 fastest."""

    @classmethod
    def from_seed(cls, seed, shape: Shape, ms, replacement: bool = True) -> KfjltOperator:
        ms = tuple(ms)
        if len(ms) != shape.ndim:
            raise ValueError("need one row count per factor")
        kids = seed_children(seed, shape.ndim + 1)
        per_factor = [
            _sample_rows(n, mk, np.random.default_rng(row_kid), replacement)
            for n, mk, row_kid in zip(shape.dims, ms, seed_children(kids[-1], shape.ndim))
        ]
        combos = multi_index_array(Shape(ms), np.arange(math.prod(ms)))
        rows = np.ravel_multi_index([r[c] for r, c in zip(per_factor, combos)], shape.dims, order="F")
        return KfjltOperator(shape, _draw_signs(kids, shape.dims), rows)


def factored_apply(op: KfjltOperator, v: KroneckerVector) -> np.ndarray:
    """Apply a sample-before sketch: the Kronecker product of the per-factor
    sketches, through the Kronecker fast path."""
    return kfjlt_apply_kron(op, v)


def distortion_ratio(embedded_norm_sq: float, original_norm_sq: float) -> float:
    """``|embedded - original| / original``, the embedding figure of merit."""
    if original_norm_sq <= 0:
        raise ValueError("distortion undefined for the zero vector")
    return abs(embedded_norm_sq - original_norm_sq) / original_norm_sq


def materialize_operator(op: KfjltOperator) -> np.ndarray:
    """Dense ``m x N`` matrix of a sketching operator (oracle-only path).

    Only the m output rows are formed, each through ``khatri_rao`` as the
    Kronecker product over k of row ``r_k`` of ``F_k D_k``. The working set
    is O(m N) and the cap, checked before any block is formed, bounds what
    is allocated.
    """
    _check_cap(op.shape.total * op.m, "materialized operator")
    coords = multi_index_array(op.shape, op.rows)
    blocks = [
        (_dft_rows(n, c) * s).T
        for n, c, s in zip(op.shape.dims, coords, op.signs)
    ]
    return op.scale * khatri_rao(blocks).T
