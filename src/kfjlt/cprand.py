"""Dense tensors, CP models, exact alternating least squares, and the
sketched ALS loop that mixes the tensor once and samples every inner solve.

Modes are numbered 1..d (matching the math convention used for unfoldings);
all linearizations are mode-1-fastest, the convention of the ``kron`` module.
The mode-k unfolding has the remaining modes as columns in increasing mode
order, so the unfolded rank-R model satisfies ``M_(k) = A_k @ Z_k.T`` with
``Z_k`` the Khatri-Rao product of the other factor matrices.

The sketched loop ("mix once, sample every solve"):

1. Upfront, mix the tensor along every mode with ``F_k D_k`` (cost N log N).
2. For mode k, sample m rows of the mixed Khatri-Rao product of the other
   (mixed) factor matrices; sample the same m columns of the mixed unfolding
   and un-mix them along mode k with an inverse DFT and a sign flip.
3. Solve the complexified least squares for the real factor ``A_k`` and
   re-mix it for use by the other modes.

After the upfront mix, no step touches all N tensor entries again.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .kron import Shape, _check_cap, khatri_rao, khatri_rao_rows
from .sketch_ls import complexify, least_squares
from .transforms import SignVector, as_seed_sequence, mix_factor, mix_modes, rademacher, seed_children


@dataclass(frozen=True)
class DenseTensor:
    """d-way dense tensor stored flat in mode-1-fastest order."""

    shape: Shape
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 1 or data.size != self.shape.total:
            raise ValueError(f"data must be flat with {self.shape.total} entries")
        object.__setattr__(self, "data", data)

    @classmethod
    def from_array(cls, arr) -> "DenseTensor":
        arr = np.asarray(arr)
        return cls(Shape(arr.shape), arr.reshape(-1, order="F"))

    def as_array(self) -> np.ndarray:
        return self.data.reshape(self.shape.dims, order="F")

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))


@dataclass(frozen=True)
class CpModel:
    """Rank-R CP model given by factor matrices ``A_k`` of size ``n_k x R``."""

    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        factors = tuple(np.asarray(a, dtype=np.float64) for a in self.factors)
        if not factors or any(a.ndim != 2 for a in factors):
            raise ValueError("factors must be 2-D arrays")
        r = factors[0].shape[1]
        if any(a.shape[1] != r for a in factors):
            raise ValueError("factors must share a column count")
        object.__setattr__(self, "factors", factors)

    @property
    def rank(self) -> int:
        return self.factors[0].shape[1]

    @property
    def shape(self) -> Shape:
        return Shape(tuple(a.shape[0] for a in self.factors))

    def replace_factor(self, mode: int, a: np.ndarray) -> "CpModel":
        factors = list(self.factors)
        factors[mode - 1] = a
        return CpModel(tuple(factors))


def random_model(shape: Shape, rank: int, rng: np.random.Generator) -> CpModel:
    """Factor matrices with i.i.d. standard normal entries."""
    return CpModel(tuple(rng.standard_normal((n, rank)) for n in shape.dims))


def _check_mode(shape: Shape, mode: int):
    if not 1 <= mode <= shape.ndim:
        raise ValueError(f"mode {mode} out of range 1..{shape.ndim}")


def _rest_dims(shape: Shape, mode: int) -> tuple[int, ...]:
    """Dimensions of the modes other than ``mode`` (may be empty for d=1)."""
    _check_mode(shape, mode)
    return shape.dims[: mode - 1] + shape.dims[mode:]


def unfold(t: DenseTensor, mode: int) -> np.ndarray:
    """Mode-k unfolding: ``n_k x N_k``, remaining modes mode-1-fastest."""
    _check_mode(t.shape, mode)
    arr = t.as_array()
    return np.moveaxis(arr, mode - 1, 0).reshape(t.shape.dims[mode - 1], -1, order="F")


def fold(mat, mode: int, shape: Shape) -> DenseTensor:
    """Exact inverse of :func:`unfold`."""
    _check_mode(shape, mode)
    mat = np.asarray(mat)
    nk = shape.dims[mode - 1]
    rest = _rest_dims(shape, mode)
    if mat.shape != (nk, math.prod(rest)):
        raise ValueError(f"expected matrix of shape ({nk}, {math.prod(rest)}), got {mat.shape}")
    arr = np.moveaxis(mat.reshape((nk,) + rest, order="F"), 0, mode - 1)
    return DenseTensor(shape, arr.reshape(-1, order="F"))


def khatri_rao_all_but(model: CpModel, mode: int) -> np.ndarray:
    """``Z_k``: Khatri-Rao product of every factor matrix except mode k."""
    _check_mode(model.shape, mode)
    rest = [a for j, a in enumerate(model.factors, start=1) if j != mode]
    if not rest:
        return np.ones((1, model.rank))
    return khatri_rao(rest)


def _gather_unfolding_rows(t: DenseTensor, mode: int, rows) -> np.ndarray:
    """Rows ``rows`` of ``unfold(t, mode).T`` gathered straight from the flat
    data: O(m * n_k) instead of the O(N) unfolding copy."""
    rows = np.asarray(rows, dtype=np.intp)
    rest = _rest_dims(t.shape, mode)
    strides = t.shape.strides()
    stride_k = strides[mode - 1]
    rest_strides = strides[: mode - 1] + strides[mode:]
    if rest:
        coords = np.unravel_index(rows, rest, order="F")
        base = sum(c * s for c, s in zip(coords, rest_strides))
    else:
        base = np.zeros(rows.size, dtype=np.intp)
    nk = t.shape.dims[mode - 1]
    return t.data[base[:, None] + stride_k * np.arange(nk)[None, :]]


def reconstruct(model: CpModel, cap: int | None = None) -> DenseTensor:
    """Sum of rank-one outer products, as a dense tensor.

    Accumulates one rank-one term at a time, so the working set is about
    2N entries whatever the rank, and the cap bounds what is allocated.
    """
    shape = model.shape
    _check_cap(shape.total, cap, "reconstructed tensor")
    data = np.zeros(shape.total)
    for r in range(model.rank):
        term = model.factors[0][:, r]
        for a in model.factors[1:]:
            term = np.multiply.outer(a[:, r], term).reshape(-1)
        data += term
    return DenseTensor(shape, data)


def objective(t: DenseTensor, model: CpModel) -> float:
    """Squared Frobenius misfit ``||X - M||^2``."""
    return float(np.linalg.norm(t.data - reconstruct(model).data) ** 2)


def fit(t: DenseTensor, model: CpModel) -> float:
    """``1 - ||X - M||_F / ||X||_F``; 1 means exact reconstruction."""
    scale = t.norm()
    if scale == 0:
        raise ValueError("fit undefined for the zero tensor")
    return 1.0 - float(np.linalg.norm(t.data - reconstruct(model).data)) / scale


def _check_rank_and_init(t: DenseTensor, rank: int, init: CpModel | None):
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if init is not None and init.rank != rank:
        raise ValueError(f"init has rank {init.rank}, but rank={rank}")
    if init is not None and init.shape != t.shape:
        raise ValueError(f"init has shape {init.shape.dims}, but the tensor has shape {t.shape.dims}")


def cp_als_update_mode(t: DenseTensor, model: CpModel, mode: int) -> tuple[CpModel, bool]:
    """Exact least-squares update of one factor: ``min ||Z_k A_k^T - X_(k)^T||``.

    Returns the updated model and a degeneracy flag (rank-deficient ``Z_k``
    yields the minimum-norm update).
    """
    z = khatri_rao_all_but(model, mode)
    akt, _, degenerate = least_squares(z, unfold(t, mode).T)
    return model.replace_factor(mode, akt.T), degenerate


def cp_als_sweep(t: DenseTensor, model: CpModel) -> CpModel:
    """One full cycle of exact updates, modes 1..d in order."""
    if t.shape != model.shape:
        raise ValueError("tensor and model shapes differ")
    for mode in range(1, t.shape.ndim + 1):
        model, _ = cp_als_update_mode(t, model, mode)
    return model


@dataclass
class CpAlsResult:
    model: CpModel
    fits: list[float]
    objectives: list[float]
    sweep_seconds: list[float]
    converged: bool
    sweeps_run: int


def cp_als(
    t: DenseTensor,
    rank: int,
    seed=None,
    init: CpModel | None = None,
    max_sweeps: int = 100,
    fit_tol: float = 1e-6,
) -> CpAlsResult:
    """Exact CP-ALS with a fit-improvement stopping rule."""
    _check_rank_and_init(t, rank, init)
    if init is None:
        rng = np.random.Generator(np.random.PCG64(as_seed_sequence(seed)))
        init = random_model(t.shape, rank, rng)
    model = init
    fits, objectives, seconds = [], [], []
    prev_fit = -np.inf
    converged = False
    for _ in range(max_sweeps):
        t0 = time.perf_counter()
        model = cp_als_sweep(t, model)
        seconds.append(time.perf_counter() - t0)
        f = fit(t, model)
        fits.append(f)
        objectives.append(objective(t, model))
        if f - prev_fit < fit_tol:
            converged = True
            break
        prev_fit = f
    return CpAlsResult(model, fits, objectives, seconds, converged, len(fits))


def mix_tensor(t: DenseTensor, sign_vectors) -> DenseTensor:
    """Mix along every mode with ``F_k D_k``; Frobenius-norm preserving."""
    sign_vectors = tuple(sign_vectors)
    if len(sign_vectors) != t.shape.ndim:
        raise ValueError("need one sign vector per mode")
    arr = mix_modes(t.as_array().astype(np.complex128), sign_vectors)
    return DenseTensor(t.shape, arr.reshape(-1, order="F"))


def cprand_mix_sweep(
    mixed: DenseTensor,
    model: CpModel,
    sign_vectors,
    rows_per_mode,
) -> tuple[CpModel, int]:
    """One sketched ALS cycle over the pre-mixed tensor.

    For each mode k the sketched system is assembled from ``rows_per_mode[k-1]``
    sampled rows: the Khatri-Rao rows of the other mixed factors on the left,
    and the matching columns of the mixed unfolding, un-mixed along mode k by
    an inverse DFT and a sign flip, on the right. The complexified real
    system is solved for ``A_k``.

    Passing ``arange(N_k)`` for every mode reproduces the exact ALS sweep.
    Returns the updated model and the number of degenerate solves (fewer
    sampled rows than columns, or a rank-deficient sketch).
    """
    sign_vectors = tuple(sign_vectors)
    shape = model.shape
    if mixed.shape != shape:
        raise ValueError("tensor and model shapes differ")
    if len(rows_per_mode) != shape.ndim:
        raise ValueError("need one row sample per mode")
    degenerate = 0
    mixed_factors = [mix_factor(a, sv) for a, sv in zip(model.factors, sign_vectors)]
    for mode in range(1, shape.ndim + 1):
        rows = np.asarray(rows_per_mode[mode - 1], dtype=np.intp)
        sub_total = math.prod(_rest_dims(shape, mode))
        m = rows.size
        scale = math.sqrt(sub_total / m)
        others = [f for j, f in enumerate(mixed_factors, start=1) if j != mode]
        if others:
            lhs = scale * khatri_rao_rows(others, rows)
        else:
            lhs = scale * np.ones((m, model.rank), dtype=np.complex128)
        sampled = _gather_unfolding_rows(mixed, mode, rows)
        rhs = scale * np.fft.ifft(sampled, axis=1, norm="ortho") * sign_vectors[mode - 1].signs[None, :]
        akt, _, deficient = least_squares(complexify(lhs), complexify(rhs))
        if m < model.rank or deficient:
            degenerate += 1
        model = model.replace_factor(mode, akt.T)
        mixed_factors[mode - 1] = mix_factor(model.factors[mode - 1], sign_vectors[mode - 1])
    return model, degenerate


@dataclass
class CprandMixResult:
    model: CpModel
    sign_vectors: tuple[SignVector, ...]
    fits: list[float]
    sweep_seconds: list[float]
    converged: bool
    sweeps_run: int
    degenerate_solves: int


def cprand_mix(
    t: DenseTensor,
    rank: int,
    m: int,
    seed=None,
    init: CpModel | None = None,
    max_sweeps: int = 100,
    fit_tol: float = 1e-6,
) -> CprandMixResult:
    """Sketched CP fit: mix once, then sweep with fresh row samples per solve.

    Sign vectors are drawn once and kept fixed for the whole run; the fit is
    tracked against the original (unmixed) tensor. Rows are sampled i.i.d.
    with replacement, except that a mode whose full system has at most m rows
    is solved exactly (sampling every row once).
    """
    _check_rank_and_init(t, rank, init)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    ss = as_seed_sequence(seed)
    sign_kid, init_kid, rows_kid = seed_children(ss, 3)
    sign_vectors = tuple(
        rademacher(n, np.random.Generator(np.random.PCG64(kid)))
        for n, kid in zip(t.shape.dims, seed_children(sign_kid, t.shape.ndim))
    )
    if init is None:
        init = random_model(t.shape, rank, np.random.Generator(np.random.PCG64(init_kid)))
    rows_rng = np.random.Generator(np.random.PCG64(rows_kid))
    mixed = mix_tensor(t, sign_vectors)

    model = init
    fits, seconds = [], []
    degenerate = 0
    prev_fit = -np.inf
    converged = False
    for _ in range(max_sweeps):
        rows_per_mode = []
        for mode in range(1, t.shape.ndim + 1):
            sub_total = math.prod(_rest_dims(t.shape, mode))
            # A sketch larger than the full system buys nothing: take every
            # row once instead of oversampling with replacement.
            if m >= sub_total:
                rows_per_mode.append(np.arange(sub_total))
            else:
                rows_per_mode.append(rows_rng.integers(0, sub_total, size=m))
        t0 = time.perf_counter()
        model, deg = cprand_mix_sweep(mixed, model, sign_vectors, rows_per_mode)
        seconds.append(time.perf_counter() - t0)
        degenerate += deg
        f = fit(t, model)
        fits.append(f)
        if f - prev_fit < fit_tol:
            converged = True
            break
        prev_fit = f
    return CprandMixResult(model, sign_vectors, fits, seconds, converged, len(fits), degenerate)


def save_tensor(t: DenseTensor, path, binary: bool = False):
    """Write a real tensor: one header line with the mode sizes, then the N
    values in linear (mode-1-fastest) order; binary payloads are
    little-endian 64-bit floats."""
    if np.iscomplexobj(t.data):
        raise ValueError("tensor files hold real tensors only")
    header = "KTEN " + " ".join(str(n) for n in t.shape.dims)
    if binary:
        with open(path, "wb") as fh:
            fh.write((header + " binary\n").encode("ascii"))
            fh.write(np.asarray(t.data, dtype="<f8").tobytes())
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(header + " text\n")
            for v in t.data:
                fh.write(repr(float(v)) + "\n")


def load_tensor(path) -> DenseTensor:
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
        if not header or header[0] != "KTEN" or header[-1] not in ("binary", "text"):
            raise ValueError(f"{path}: not a tensor file")
        shape = Shape(tuple(int(n) for n in header[1:-1]))
        if header[-1] == "binary":
            data = np.frombuffer(fh.read(8 * shape.total), dtype="<f8").astype(np.float64)
        else:
            data = np.array([float(line) for line in fh.read().split()], dtype=np.float64)
    if data.size != shape.total:
        raise ValueError(f"{path}: expected {shape.total} values, found {data.size}")
    return DenseTensor(shape, data)
