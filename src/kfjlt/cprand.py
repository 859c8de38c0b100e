"""Dense tensors, CP models, exact alternating least squares, and the
sketched ALS loop that mixes the tensor once and samples every inner solve.

Modes are numbered 1..d (matching the math convention used for unfoldings);
all linearizations are mode-1-fastest, the convention of the ``kron`` module.
The mode-k unfolding has the remaining modes as columns in increasing mode
order, so the unfolded rank-R model satisfies ``M_(k) = A_k @ Z_k.T`` with
``Z_k`` the Khatri-Rao product of the other factor matrices.

The sketched loop ("mix once, sample every solve"):

1. Upfront, mix the tensor along every mode with ``F_k D_k`` (cost N log N).
2. For mode k, apply a ``KfjltOperator`` over the other modes, which
   samples m rows, to the Khatri-Rao product of their factor matrices; take
   the same m columns of the mixed unfolding and un-mix them along mode k
   with an inverse DFT and a sign flip.
3. Solve the complexified least squares for the real factor ``A_k``.

The inner solves never touch all N tensor entries. Tracking the fit does:
``fit`` reads every entry once per sweep, but it never rebuilds the model.
It forms one slab of the last mode at a time (several when slabs are short),
so its temporaries are ``max(N / n_d, 4096)`` entries or so, and it does not
read the materialization cap.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .kron import Shape, _as_dim, _check_cap, _check_finite, khatri_rao, multi_index_array
from .sketch_ls import complexify, least_squares, sketch_khatri_rao
from .transforms import KfjltOperator, _draw_signs, _sample_rows, mix_modes, seed_children


@dataclass(frozen=True, eq=False)
class DenseTensor:
    """d-way dense tensor stored flat in mode-1-fastest order."""

    shape: Shape
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 1 or data.size != self.shape.total:
            raise ValueError(f"data must be flat with {self.shape.total} entries")
        object.__setattr__(self, "data", data)

    def as_array(self) -> np.ndarray:
        return self.data.reshape(self.shape.dims, order="F")

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))


@dataclass(frozen=True, eq=False)
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
        for k, a in enumerate(factors, start=1):
            _check_finite(a, f"factor A_{k}")
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
    rank = _as_dim(rank, "rank")
    return CpModel(tuple(rng.standard_normal((n, rank)) for n in shape.dims))


def _check_mode(shape: Shape, mode: int):
    if not 1 <= _as_dim(mode, "mode") <= shape.ndim:
        raise ValueError(f"mode {mode} out of range 1..{shape.ndim}")


def _rest_dims(shape: Shape, mode: int) -> tuple[int, ...]:
    """Dimensions of the modes other than ``mode``; ``(1,)`` for a 1-way
    tensor, whose unfolding is one column."""
    _check_mode(shape, mode)
    return shape.dims[: mode - 1] + shape.dims[mode:] or (1,)


def unfold(t: DenseTensor, mode: int) -> np.ndarray:
    """Mode-k unfolding: ``n_k x N_k``, remaining modes mode-1-fastest."""
    _check_mode(t.shape, mode)
    arr = t.as_array()
    return np.moveaxis(arr, mode - 1, 0).reshape(t.shape.dims[mode - 1], -1, order="F")


def khatri_rao_all_but(model: CpModel, mode: int) -> np.ndarray:
    """``Z_k``: Khatri-Rao product of every factor matrix except mode k."""
    _check_mode(model.shape, mode)
    rest = [a for j, a in enumerate(model.factors, start=1) if j != mode]
    if not rest:
        return np.ones((1, model.rank))
    return khatri_rao(rest)


def _gather_unfolding_rows(t: DenseTensor, mode: int, rows) -> np.ndarray:
    """Rows ``rows`` of ``unfold(t, mode).T`` gathered straight from a view
    of the data: O(m * n_k) instead of the O(N) unfolding copy."""
    rest = _rest_dims(t.shape, mode)
    nk = t.shape.dims[mode - 1]
    view = np.moveaxis(t.as_array(), mode - 1, -1).reshape(rest + (nk,))
    return view[multi_index_array(Shape(rest), rows)]


def reconstruct(model: CpModel) -> DenseTensor:
    """Sum of rank-one outer products, as a dense tensor.

    Accumulates one rank-one term at a time, so the working set is about
    2N entries whatever the rank, and the cap bounds what is allocated.
    """
    shape = model.shape
    _check_cap(shape.total, "reconstructed tensor")
    data = np.zeros(shape.total)
    for r in range(model.rank):
        data += khatri_rao([a[:, r] for a in model.factors])
    return DenseTensor(shape, data)


# Consecutive slabs smaller than this many entries are subtracted together, so
# a long last mode does not pay a Python round trip per short slab.
_SLAB_BLOCK_ENTRIES = 1 << 12


def _residual_norm(t: DenseTensor, model: CpModel) -> float:
    """``||X - M||_F`` one slab of the last mode at a time, behind both
    ``fit`` and ``objective``.

    Slab k of X is the contiguous chunk of data where mode d is k; read as
    ``(N / (n_1 n_d), n_1)`` it is the transposed mode-1 unfolding of
    ``X[..., k]``, and the model's slab is ``Z @ (A_1 * A_d[k]).T`` with
    ``Z`` the Khatri-Rao product of the middle factors (one row of ones for
    d = 2; a 1-way tensor is one slab). The difference is taken directly,
    so nothing cancels near an exact fit. Slabs of ``_SLAB_BLOCK_ENTRIES`` or
    more are taken one by one; shorter ones in blocks of about that size.
    """
    first, *middle = model.factors
    last = middle.pop() if middle else np.ones((1, model.rank))
    z = khatri_rao(middle) if middle else np.ones((1, model.rank))
    slabs = t.data.reshape(last.shape[0], -1, first.shape[0])
    step = -(-_SLAB_BLOCK_ENTRIES // slabs[0].size)
    sq = 0.0
    for k in range(0, last.shape[0], step):
        r = slabs[k : k + step] - z @ (first * last[k : k + step, None]).transpose(0, 2, 1)
        sq += np.vdot(r, r)
    return math.sqrt(sq)


def objective(t: DenseTensor, model: CpModel) -> float:
    """Squared Frobenius misfit ``||X - M||^2``."""
    return _residual_norm(t, model) ** 2


def fit(t: DenseTensor, model: CpModel) -> float:
    """``1 - ||X - M||_F / ||X||_F``; 1 means exact reconstruction."""
    scale = t.norm()
    if scale == 0:
        raise ValueError("fit undefined for the zero tensor")
    return 1.0 - _residual_norm(t, model) / scale


def _check_cp_inputs(t: DenseTensor, rank: int, init: CpModel | None, max_sweeps: int, fit_tol: float):
    _check_finite(t.data, f"tensor of shape {t.shape.dims}")
    if not np.any(t.data):
        raise ValueError(f"fit undefined for the zero tensor of shape {t.shape.dims}")
    if _as_dim(rank, "rank") < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if init is not None and init.rank != rank:
        raise ValueError(f"init has rank {init.rank}, but rank={rank}")
    if init is not None and init.shape != t.shape:
        raise ValueError(f"init has shape {init.shape.dims}, but the tensor has shape {t.shape.dims}")
    if _as_dim(max_sweeps, "max_sweeps") < 1:
        raise ValueError(f"max_sweeps must be >= 1, got {max_sweeps}")
    if math.isnan(fit_tol):
        raise ValueError(f"fit_tol must not be NaN, got {fit_tol}")


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
    sweep_seconds: list[float]
    converged: bool

    @property
    def sweeps_run(self) -> int:
        return len(self.fits)


def _als_loop(t: DenseTensor, init: CpModel, sweep, max_sweeps: int, fit_tol: float):
    """The ALS loop of exact and sketched CP: time ``sweep(model)``, track
    ``fit(t, model)``, and stop at the first sweep whose fit fails to beat the
    previous one by ``fit_tol`` (the first sweep is compared against -inf).

    Returns ``(model, fits, sweep_seconds, converged)``; ``converged`` is True
    only when the stopping rule, not ``max_sweeps``, ended the run.
    """
    model, fits, seconds = init, [], []
    prev_fit = -np.inf
    for _ in range(max_sweeps):
        t0 = time.perf_counter()
        model = sweep(model)
        seconds.append(time.perf_counter() - t0)
        fits.append(fit(t, model))
        if fits[-1] - prev_fit < fit_tol:
            return model, fits, seconds, True
        prev_fit = fits[-1]
    return model, fits, seconds, False


def cp_als(
    t: DenseTensor,
    rank: int,
    seed=None,
    init: CpModel | None = None,
    max_sweeps: int = 100,
    fit_tol: float = 1e-6,
) -> CpAlsResult:
    """Exact CP-ALS with a fit-improvement stopping rule."""
    _check_cp_inputs(t, rank, init, max_sweeps, fit_tol)
    if init is None:
        init = random_model(t.shape, rank, np.random.default_rng(seed))
    return CpAlsResult(*_als_loop(t, init, lambda model: cp_als_sweep(t, model), max_sweeps, fit_tol))


def mix_tensor(t: DenseTensor, signs) -> DenseTensor:
    """Mix along every mode with ``F_k D_k``, one +-1 vector per mode; Frobenius-norm preserving."""
    signs = tuple(signs)
    if len(signs) != t.shape.ndim:
        raise ValueError("need one sign vector per mode")
    arr = mix_modes(t.as_array(), signs)
    return DenseTensor(t.shape, arr.reshape(-1, order="F"))


def cprand_mix_sweep(
    mixed: DenseTensor,
    model: CpModel,
    signs,
    rows_per_mode,
) -> tuple[CpModel, int]:
    """One sketched ALS cycle over the pre-mixed tensor.

    For each mode k the sketch is a ``KfjltOperator`` over the other modes
    (a 1-way tensor's empty product is one mode of length 1) that keeps
    ``rows_per_mode[k-1]``: applied to their factors by ``sketch_khatri_rao``
    on the left, and on the right the matching columns of the mixed
    unfolding, un-mixed along mode k by an inverse DFT and a sign flip. The
    complexified real system is solved for ``A_k``.

    Passing ``arange(N_k)`` for every mode reproduces the exact ALS sweep.
    Returns the updated model and the number of degenerate solves (fewer
    sampled rows than columns, or a rank-deficient sketch).
    """
    signs = tuple(signs)
    shape = model.shape
    if mixed.shape != shape:
        raise ValueError("tensor and model shapes differ")
    if len(rows_per_mode) != shape.ndim:
        raise ValueError("need one row sample per mode")
    degenerate = 0
    for mode in range(1, shape.ndim + 1):
        rest = signs[: mode - 1] + signs[mode:] or (np.ones(1),)
        factors = model.factors[: mode - 1] + model.factors[mode:] or (np.ones((1, model.rank)),)
        op = KfjltOperator(Shape(_rest_dims(shape, mode)), rest, rows_per_mode[mode - 1])
        lhs = sketch_khatri_rao(op, factors)
        sampled = _gather_unfolding_rows(mixed, mode, op.rows)
        rhs = op.scale * np.fft.ifft(sampled, axis=1, norm="ortho") * signs[mode - 1]
        akt, _, deficient = least_squares(complexify(lhs), complexify(rhs))
        if op.m < model.rank or deficient:
            degenerate += 1
        model = model.replace_factor(mode, akt.T)
    return model, degenerate


@dataclass
class CprandMixResult(CpAlsResult):
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
    _check_cp_inputs(t, rank, init, max_sweeps, fit_tol)
    if _as_dim(m, "m") < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    sign_kid, init_kid, rows_kid = seed_children(seed, 3)
    signs = _draw_signs(seed_children(sign_kid, t.shape.ndim), t.shape.dims)
    if init is None:
        init = random_model(t.shape, rank, np.random.default_rng(init_kid))
    rows_rng = np.random.default_rng(rows_kid)
    mixed = mix_tensor(t, signs)
    sub_totals = [math.prod(_rest_dims(t.shape, mode)) for mode in range(1, t.shape.ndim + 1)]
    degenerate = 0

    def sweep(model: CpModel) -> CpModel:
        nonlocal degenerate
        # A sketch larger than the full system buys nothing: take every row
        # once instead of oversampling with replacement.
        rows_per_mode = [np.arange(n) if m >= n else _sample_rows(n, m, rows_rng, True) for n in sub_totals]
        model, deg = cprand_mix_sweep(mixed, model, signs, rows_per_mode)
        degenerate += deg
        return model

    model, fits, seconds, converged = _als_loop(t, init, sweep, max_sweeps, fit_tol)
    return CprandMixResult(model, fits, seconds, converged, degenerate)
