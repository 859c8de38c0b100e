"""Random sketching operators built from subsampled, sign-flipped DFTs.

Two constructions share the mixing stage ``F D_xi`` (unitary DFT after a
random sign flip):

* ``KfjltOperator``   -- ``sqrt(N/m) S (F_d D_d (x) ... (x) F_1 D_1)`` on a
  product space; rows are sampled from the full Kronecker mixing, and the
  fast path on Kronecker vectors mixes each factor once and traces sampled
  linear indices back to per-factor indices. Its degree-1 case is the FJLT
  ``sqrt(n/m) S F D_xi``; ``FjltOperator`` and ``fjlt_apply`` build and
  apply it from a flat length n.
* ``FactoredKfjltOperator`` -- the sample-before-Kronecker alternative
  ``(x)_k sqrt(n_k/m_k) S_k F_k D_k``, held as d degree-1 operators; its
  output is the Kronecker product of the per-factor sketches.

Randomness: an operator built via ``from_seed`` expands one seed into d+1
deterministic sub-streams (factor k's signs use sub-stream k, the row sample
uses sub-stream d+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kron import (
    KroneckerVector,
    Shape,
    _check_cap,
    khatri_rao_rows,
    kron_materialize,
)


def as_seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def seed_children(seed, count: int) -> list[np.random.SeedSequence]:
    """First ``count`` spawn children of a seed, derived statelessly.

    Unlike ``SeedSequence.spawn`` this never mutates the parent, so building
    two operators from the same seed object yields identical randomness.
    """
    ss = as_seed_sequence(seed)
    key = tuple(ss.spawn_key)
    return [
        np.random.SeedSequence(entropy=ss.entropy, spawn_key=key + (k,))
        for k in range(count)
    ]


def _generator(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed_seq))


@dataclass(frozen=True)
class SignVector:
    """Vector of independent uniform +-1 entries."""

    signs: np.ndarray

    def __post_init__(self):
        signs = np.asarray(self.signs, dtype=np.float64)
        if signs.ndim != 1 or not np.all(np.abs(signs) == 1.0):
            raise ValueError("signs must be a 1-D vector of +-1 entries")
        object.__setattr__(self, "signs", signs)

    def __len__(self):
        return self.signs.size


def rademacher(n: int, rng: np.random.Generator) -> SignVector:
    """Draw a fresh +-1 sign vector of length n."""
    return SignVector(rng.integers(0, 2, size=n).astype(np.float64) * 2.0 - 1.0)


def dft_matrix(n: int) -> np.ndarray:
    """Dense unitary DFT matrix (oracle helper)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.fft.fft(np.eye(n), axis=0, norm="ortho")


def mix_modes(t, sign_vectors) -> np.ndarray:
    """Apply ``F_k D_k`` along axis k for the k-th sign vector: flip signs,
    then take the unitary DFT ``y[j] = n**-0.5 * sum_l x[l] exp(-2 pi i j l / n)``.

    Axes after the last sign vector are batch axes, mixed independently.
    This is the one mixing kernel of the package; it preserves 2-norms.
    """
    t = np.asarray(t)
    if len(sign_vectors) > t.ndim:
        raise ValueError(f"{len(sign_vectors)} sign vectors for a {t.ndim}-axis array")
    for axis, sv in enumerate(sign_vectors):
        if t.shape[axis] != len(sv):
            raise ValueError(
                f"axis {axis} has length {t.shape[axis]} but its sign vector has {len(sv)}"
            )
        signs = sv.signs.reshape((-1,) + (1,) * (t.ndim - axis - 1))
        t = np.fft.fft(t * signs, axis=axis, norm="ortho")
    return t


def mix_factor(x, sv: SignVector) -> np.ndarray:
    """``F D_xi x``: sign-flip then unitary DFT along axis 0 (each column of
    a matrix is one vector). Norm-preserving."""
    return mix_modes(x, (sv,))


def _sample_rows(n_total: int, m: int, rng: np.random.Generator, replacement: bool) -> np.ndarray:
    if m < 1:
        raise ValueError("m must be >= 1")
    if replacement:
        return rng.integers(0, n_total, size=m)
    if m > n_total:
        raise ValueError(f"cannot sample {m} rows from {n_total} without replacement")
    return rng.choice(n_total, size=m, replace=False)


def _check_scale(scale: float, m: int, n_total: int):
    if abs(scale * scale * m - n_total) > 1e-14 * n_total:
        raise ValueError("scale must satisfy scale^2 * m == N")


@dataclass(frozen=True)
class KfjltOperator:
    """``sqrt(N/m) S ((x)_{k=d}^1 F_k D_k)`` on a product space."""

    shape: Shape
    sign_vectors: tuple[SignVector, ...]
    rows: np.ndarray
    scale: float

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.intp)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "sign_vectors", tuple(self.sign_vectors))
        if len(self.sign_vectors) != self.shape.ndim:
            raise ValueError("need one sign vector per factor")
        for sv, n in zip(self.sign_vectors, self.shape.dims):
            if len(sv) != n:
                raise ValueError("sign vector lengths must match the shape")
        if rows.ndim != 1 or rows.size < 1:
            raise ValueError("need at least one sampled row")
        if rows.min() < 0 or rows.max() >= self.shape.total:
            raise ValueError("row indices out of range")
        _check_scale(self.scale, rows.size, self.shape.total)

    @property
    def degree(self) -> int:
        return self.shape.ndim

    @property
    def m(self) -> int:
        return self.rows.size

    @classmethod
    def from_seed(cls, seed, shape: Shape, m: int, replacement: bool = True) -> "KfjltOperator":
        d = shape.ndim
        kids = seed_children(seed, d + 1)
        svs = tuple(rademacher(n, _generator(kids[k])) for k, n in enumerate(shape.dims))
        rows = _sample_rows(shape.total, m, _generator(kids[d]), replacement)
        return cls(shape, svs, rows, math.sqrt(shape.total / m))

    @classmethod
    def exhaustive(cls, seed, shape: Shape) -> "KfjltOperator":
        """All N rows once each (scale 1): full unitary mixing, no sketching."""
        d = shape.ndim
        kids = seed_children(seed, d + 1)
        svs = tuple(rademacher(n, _generator(kids[k])) for k, n in enumerate(shape.dims))
        return cls(shape, svs, np.arange(shape.total), 1.0)


class FjltOperator:
    """Constructors of the FJLT ``sqrt(n/m) S F D_xi`` on vectors of length n:
    the degree-1 ``KfjltOperator``."""

    @classmethod
    def from_seed(cls, seed, n: int, m: int, replacement: bool = True) -> KfjltOperator:
        return KfjltOperator.from_seed(seed, Shape((n,)), m, replacement)

    @classmethod
    def exhaustive(cls, seed, n: int) -> KfjltOperator:
        """Every row sampled exactly once (scale 1); the map is unitary."""
        return KfjltOperator.exhaustive(seed, Shape((n,)))


def kfjlt_apply_kron(op: KfjltOperator, v: KroneckerVector) -> np.ndarray:
    """Fast path on Kronecker vectors.

    Mixes each factor once (cost ``sum_k n_k log n_k``), then for each sampled
    row traces the linear index back to per-factor indices and multiplies the
    d looked-up mixed entries. The length-N vector is never formed.
    """
    if v.shape != op.shape:
        raise ValueError(f"shape mismatch: vector {v.shape.dims} vs operator {op.shape.dims}")
    mixed = [mix_factor(x, sv) for x, sv in zip(v.factors, op.sign_vectors)]
    return op.scale * khatri_rao_rows(mixed, op.rows)


def kfjlt_apply_dense(op: KfjltOperator, x) -> np.ndarray:
    """Apply the operator to an arbitrary vector of length N.

    Reshapes x as a d-way tensor (mode 1 fastest), mixes along every mode,
    and gathers the sampled entries.
    """
    x = np.asarray(x)
    if x.shape != (op.shape.total,):
        raise ValueError(f"expected vector of length {op.shape.total}, got {x.shape}")
    t = mix_modes(x.reshape(op.shape.dims, order="F"), op.sign_vectors)
    return op.scale * t.reshape(-1, order="F")[op.rows]


def fjlt_apply(op: KfjltOperator, x) -> np.ndarray:
    """Apply a degree-1 operator to a vector of length n."""
    return kfjlt_apply_dense(op, x)


@dataclass(frozen=True)
class FactoredKfjltOperator:
    """Sample-before-Kronecker variant: one degree-1 ``KfjltOperator`` (an
    FJLT) per factor, outputs Kronecker'd."""

    operators: tuple[KfjltOperator, ...]
    shape: Shape = field(init=False)

    def __post_init__(self):
        ops = tuple(self.operators)
        if not ops:
            raise ValueError("need at least one factor operator")
        for k, op in enumerate(ops):
            if op.degree != 1:
                raise ValueError(f"factor operator {k} has degree {op.degree}, expected 1")
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "shape", Shape(tuple(op.shape.total for op in ops)))

    @property
    def m(self) -> int:
        return math.prod(op.m for op in self.operators)

    @classmethod
    def from_seed(cls, seed, shape: Shape, ms, replacement: bool = True) -> "FactoredKfjltOperator":
        ms = list(ms)
        d = shape.ndim
        if len(ms) != d:
            raise ValueError("need one row count per factor")
        kids = seed_children(seed, d + 1)
        row_kids = seed_children(kids[d], d)
        ops = []
        for k, (n, mk) in enumerate(zip(shape.dims, ms)):
            sv = rademacher(n, _generator(kids[k]))
            rows = _sample_rows(n, mk, _generator(row_kids[k]), replacement)
            ops.append(KfjltOperator(Shape((n,)), (sv,), rows, math.sqrt(n / mk)))
        return cls(tuple(ops))


def factored_apply(op: FactoredKfjltOperator, v: KroneckerVector) -> np.ndarray:
    """Kronecker product of the per-factor sketches ``kfjlt_apply_dense(op_k,
    x_k)`` (length prod m_k)."""
    if v.shape != op.shape:
        raise ValueError(f"shape mismatch: vector {v.shape.dims} vs operator {op.shape.dims}")
    out = kfjlt_apply_dense(op.operators[0], v.factors[0])
    for fop, x in zip(op.operators[1:], v.factors[1:]):
        out = np.kron(kfjlt_apply_dense(fop, x), out)
    return out


def distortion_ratio(embedded_norm_sq: float, original_norm_sq: float) -> float:
    """``|embedded - original| / original``, the embedding figure of merit."""
    if original_norm_sq <= 0:
        raise ValueError("distortion undefined for the zero vector")
    return abs(embedded_norm_sq - original_norm_sq) / original_norm_sq


def materialize_operator(op, cap: int | None = None) -> np.ndarray:
    """Dense ``m x N`` matrix of a sketching operator (oracle-only path)."""
    if isinstance(op, KfjltOperator):
        _check_cap(op.shape.total * op.m, cap, "materialized operator")
        u = dft_matrix(op.shape.dims[0])
        for n in op.shape.dims[1:]:
            u = np.kron(dft_matrix(n), u)
        zeta = kron_materialize(
            KroneckerVector(tuple(sv.signs for sv in op.sign_vectors)), cap=cap
        )
        return op.scale * u[op.rows] * zeta[None, :]
    if isinstance(op, FactoredKfjltOperator):
        _check_cap(op.shape.total * op.m, cap, "materialized operator")
        full = materialize_operator(op.operators[0], cap)
        for fop in op.operators[1:]:
            full = np.kron(materialize_operator(fop, cap), full)
        return full
    raise TypeError(f"cannot materialize {type(op).__name__}")
