"""Seeded experiment runners emitting reproducible CSV datasets.

Reproducibility contract: every trial owns a seed stream derived from the
master seed and the tuple (experiment kind, base method name, embedding
dimension, trial index), so re-running an identical config reproduces the
value column byte for byte (wall-clock measurements excepted), and adding or
removing methods never perturbs another method's draws. Within a trial the
stream splits once more into operator randomness and test-vector randomness;
the sample-before variant shares the per-factor sign streams of its
sample-after counterpart and differs only in the row sampling, and the
kron/generic structures share operator randomness.

The distortion study builds its method table once per config: one
``(label, base, degree, sketch)`` per method, where ``base`` keys the seed
streams and ``sketch(op_ss, v, m) -> (y, m_out)`` is ``_sample_after``,
``_sample_before`` or ``_gaussian`` bound to what is fixed across trials.
The Gaussian baseline is degree 1, so on Kronecker vectors it sketches the
one materialized factor. Each trial draws one vector and makes one sketch call.
"""

from __future__ import annotations

import csv
import math
import time
import zlib
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import cprand as cp, kron
from .kron import KroneckerVector, Shape, _as_dim, _check_cap, khatri_rao, khatri_rao_matvec, kron_materialize, kron_norm_sq
from .sketch_ls import KrlsProblem, residual_ratio, sketch_khatri_rao, solve_sketched_ls
from .testkit import gaussian_jlt_apply, hanson_wright_tail_check, hoeffding_tail_check
from .transforms import (
    FactoredKfjltOperator,
    KfjltOperator,
    distortion_ratio,
    kfjlt_apply_dense,
    kfjlt_apply_kron,
    seed_children,
)

# Experiment kinds, each run by ``run_<kind>``; the position fixes the kind's
# seed-stream id, so new kinds go at the end.
KINDS = ("distortion", "timing", "ls", "cprand", "concentration")
_KIND_IDS = {kind: i + 1 for i, kind in enumerate(KINDS)}
# Measured passes per (method, m) in ``run_timing``, after one warm-up pass.
TIMING_REPEATS = 3
# Allowed values of the string settings, in the order the CLI lists them.
CHOICES = {
    "dist": ("gaussian", "uniform01"),
    "structure": ("kron", "generic"),
    "sampling": ("after", "before"),
    "replacement": ("with", "without"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    shape: tuple[int, ...]
    degrees: tuple[int, ...] = (1,)
    m_grid: tuple[int, ...] = ()
    trials: int = 100
    seed: int = 0
    dist: str = "gaussian"  # dist, structure, sampling, replacement: one of CHOICES[name]
    structure: str = "kron"
    sampling: str = "after"
    replacement: str = "with"
    include_gaussian: bool = False
    rank: int = 5
    snr_db: float = 20.0
    max_sweeps: int = 100
    fit_tol: float = 1e-6
    out: str | None = None  # empty: "<kind>.csv"

    def __post_init__(self):
        # Non-integers are refused, not truncated.
        for name in ("shape", "degrees", "m_grid"):
            object.__setattr__(self, name, tuple(_as_dim(n, name) for n in getattr(self, name)))
        for name in ("trials", "seed", "rank", "max_sweeps"):
            object.__setattr__(self, name, _as_dim(getattr(self, name), name))
        if not self.out:
            object.__setattr__(self, "out", f"{self.kind}.csv")
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        Shape(self.shape)  # validates
        if self.trials < 0:
            raise ValueError(f"trials must be >= 0, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for m in self.m_grid:
            if m < 1:
                raise ValueError(f"every m must be >= 1, got m={m} in {self.m_grid}")
        if len(set(self.m_grid)) < len(self.m_grid):
            m = next(m for m in self.m_grid if self.m_grid.count(m) > 1)
            raise ValueError(f"m={m} is repeated in {self.m_grid}; each m is run once")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.max_sweeps < 1:
            raise ValueError(f"max_sweeps must be >= 1, got {self.max_sweeps}")
        if math.isnan(self.fit_tol):
            raise ValueError(f"fit_tol must not be NaN, got {self.fit_tol}")
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise ValueError(f"snr_db must be finite or +inf, got {self.snr_db}")
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}; expected one of {allowed}")
        if self.kind != "concentration" and not self.m_grid:
            raise ValueError(f"{self.kind} experiments need a nonempty m grid")
        if self.kind == "distortion":
            if not self.degrees:
                raise ValueError("distortion experiments need at least one degree")
            for d in self.degrees:
                group_dims(self.shape, d)  # raises with explanation
        if self.sampling == "before" and self.structure == "generic":
            raise ValueError(
                "sample-before-Kronecker sketches only apply to kron-structured vectors"
            )

    @property
    def experiment_id(self) -> str:
        shape_str = "x".join(str(n) for n in self.shape)
        return f"{self.kind}:{shape_str}:{self.dist}:{self.structure}:{self.sampling}"


@dataclass(frozen=True)
class TrialRecord:
    experiment: str
    method: str
    m: int
    trial: int
    seed: int
    value: float


def _adjacent_groups(count: int, degree: int) -> list[slice]:
    """Split ``count`` factors into ``degree`` contiguous groups of equal length."""
    if degree < 1 or count % degree != 0:
        raise ValueError(
            f"cannot view a {count}-factor shape at degree {degree}: "
            f"{count} is not divisible into {degree} equal adjacent groups"
        )
    width = count // degree
    return [slice(g * width, (g + 1) * width) for g in range(degree)]


def group_dims(dims, degree: int) -> tuple[int, ...]:
    """View a D-factor shape at a coarser degree by merging adjacent factors.

    D must split into ``degree`` contiguous groups of equal length; each
    super-factor size is the product of its group. Adjacent grouping is the
    only choice consistent with the mode-1-fastest linearization.
    """
    dims = tuple(dims)
    return tuple(math.prod(dims[g]) for g in _adjacent_groups(len(dims), degree))


def group_factors(factors, degree: int) -> KroneckerVector:
    """Merge adjacent factor vectors into ``degree`` materialized super-factors."""
    factors = tuple(factors)
    return KroneckerVector(tuple(
        kron_materialize(KroneckerVector(factors[g])) for g in _adjacent_groups(len(factors), degree)
    ))


def trial_seed_sequence(master: int, kind: str, method_base: str, m: int, trial: int):
    key = (_KIND_IDS[kind], zlib.crc32(method_base.encode("ascii")), int(m), int(trial))
    return np.random.SeedSequence(master, spawn_key=key)


def _seed_value(seed_seq) -> int:
    return int(seed_seq.generate_state(1, np.uint64)[0])


def _draw(rng: np.random.Generator, n: int, dist: str) -> np.ndarray:
    if dist == "gaussian":
        return rng.standard_normal(n)
    return rng.random(n)


def factored_row_counts(m: int, degree: int) -> list[int]:
    """Per-factor row counts for a sample-before sketch targeting total m:
    the rounded degree-th root, so the total is exactly m whenever m is a
    perfect degree-th power."""
    mk = max(1, round(m ** (1.0 / degree)))
    return [mk] * degree


def _sample_after(shape: Shape, replacement: bool, apply, op_ss, v, m: int):
    """KFJLT sketch: sign every factor, mix, then sample m rows."""
    return apply(KfjltOperator.from_seed(op_ss, shape, m, replacement), v), m


def _sample_before(shape: Shape, replacement: bool, op_ss, v, m: int):
    """Sample-before-Kronecker sketch: one FJLT per factor, outputs Kronecker'd."""
    op = FactoredKfjltOperator.from_seed(op_ss, shape, factored_row_counts(m, shape.ndim), replacement)
    return kfjlt_apply_kron(op, v), op.m


def _gaussian(dense, op_ss, v, m: int):
    """Dense Gaussian baseline on the materialized test vector."""
    return gaussian_jlt_apply(op_ss, m, dense(v)), m


def _distortion_methods(config: ExperimentConfig):
    """``(label, base, degree, sketch)`` per method, with ``sketch(op_ss, v,
    m) -> (y, m_out)`` bound to everything that is fixed across trials."""
    kron_vectors = config.structure == "kron"
    suffix = "" if kron_vectors else "-generic"
    replacement = config.replacement == "with"
    methods = []
    for d in sorted(set(config.degrees)):
        base = "fjlt" if d == 1 else f"kfjlt-d{d}"
        shape = Shape(group_dims(config.shape, d))
        if config.sampling == "before" and d > 1:
            methods.append((base + "-factored" + suffix, base, d, partial(_sample_before, shape, replacement)))
        else:
            apply = kfjlt_apply_kron if kron_vectors else kfjlt_apply_dense
            methods.append((base + suffix, base, d, partial(_sample_after, shape, replacement, apply)))
    if config.include_gaussian:
        dense = kron_materialize if kron_vectors else np.asarray
        methods.append(("gaussian" + suffix, "gaussian", 1, partial(_gaussian, dense)))
    return methods


def run_distortion(config: ExperimentConfig) -> list[TrialRecord]:
    """Distortion-vs-m study: fresh operator and fresh test vector per trial."""
    if config.structure == "generic":
        _check_cap(math.prod(config.shape), "generic distortion vector")
    records = []
    for label, base, degree, sketch in _distortion_methods(config):
        for m in config.m_grid:
            for trial in range(config.trials):
                ss = trial_seed_sequence(config.seed, config.kind, base, m, trial)
                op_ss, vec_ss = seed_children(ss, 2)
                rng_v = np.random.default_rng(vec_ss)
                if config.structure == "kron":
                    v = group_factors([_draw(rng_v, n, config.dist) for n in config.shape], degree)
                    orig = kron_norm_sq(v)
                else:
                    v = _draw(rng_v, math.prod(config.shape), config.dist)
                    orig = float(v @ v)
                y, m_out = sketch(op_ss, v, m)
                ratio = distortion_ratio(float(np.vdot(y, y).real), orig)
                records.append(TrialRecord(config.experiment_id, label, m_out, trial, _seed_value(ss), ratio))
    return records


def _elapsed_ns(embed) -> int:
    """Wall time of one call ``embed()``, in nanoseconds."""
    t0 = time.perf_counter_ns()
    embed()
    return time.perf_counter_ns() - t0


def _embed_flat(flat: KfjltOperator, cols) -> None:
    """Embed a corpus the flat way: form each Kronecker vector, mix the full
    length, sample; in chunks of at most the materialization cap's entries."""
    chunk = max(1, kron.DEFAULT_MATERIALIZE_CAP // flat.shape.total)
    for i in range(0, cols[0].shape[1], chunk):
        kfjlt_apply_dense(flat, khatri_rao([c[:, i:i + chunk] for c in cols]))


def run_timing(config: ExperimentConfig) -> list[TrialRecord]:
    """Wall time to embed the whole corpus of ``trials`` Kronecker vectors.

    The flat path is ``kfjlt_apply_dense`` with the degree-1 operator that
    shares the KFJLT's signs, rows and scale, and forms every full vector in
    the timed region; ``sketch_khatri_rao`` never does. A warm-up pass is
    excluded and ``TIMING_REPEATS`` measured passes are recorded.
    """
    shape = Shape(config.shape)
    d = shape.ndim
    records = []
    if config.trials == 0:
        return records
    # Corpus drawn once, independent of methods and of the m grid; stacked
    # (trials, n_k) and transposed, so each formed vector is contiguous.
    corpus = []
    for t in range(config.trials):
        ss = trial_seed_sequence(config.seed, config.kind, "corpus", 0, t)
        rng = np.random.default_rng(ss)
        corpus.append([_draw(rng, n, config.dist) for n in shape.dims])
    cols = [np.stack([c[k] for c in corpus]).T for k in range(d)]
    replacement = config.replacement == "with"
    for m in config.m_grid:
        ss = trial_seed_sequence(config.seed, config.kind, "kfjlt", m, 0)
        op = KfjltOperator.from_seed(seed_children(ss, 1)[0], shape, m, replacement)
        zeta = kron_materialize(KroneckerVector(op.signs))
        flat = KfjltOperator(Shape((shape.total,)), (zeta,), op.rows)
        passes = (
            ("fjlt", partial(_embed_flat, flat, cols)),
            (f"kfjlt-d{d}", partial(sketch_khatri_rao, op, cols)),
        )
        for method, embed in passes:
            _elapsed_ns(embed)  # warm-up, not recorded
            for rep in range(TIMING_REPEATS):
                ns = float(_elapsed_ns(embed))
                records.append(TrialRecord(config.experiment_id, method, m, rep, _seed_value(ss), ns))
    return records


def make_ls_problem(config: ExperimentConfig, trial: int) -> KrlsProblem:
    """Random Khatri-Rao least squares instance, shared across the m grid.

    Gaussian factor matrices; ``b = A x* + noise`` with the noise norm set by
    the configured SNR (in dB) relative to ``||A x*||``.
    """
    _check_cap(math.prod(config.shape), "ls right-hand side")
    ss = trial_seed_sequence(config.seed, config.kind, "problem", 0, trial)
    rng = np.random.default_rng(ss)
    factors = tuple(rng.standard_normal((n, config.rank)) for n in config.shape)
    x_true = rng.standard_normal(config.rank)
    signal = khatri_rao_matvec(factors, x_true)
    noise = rng.standard_normal(signal.size)
    target = float(np.linalg.norm(signal)) * 10.0 ** (-config.snr_db / 20.0)
    norm = float(np.linalg.norm(noise))
    b = signal + (noise * (target / norm) if norm > 0 else 0.0)
    return KrlsProblem(factors, b)


def run_ls(config: ExperimentConfig) -> list[TrialRecord]:
    """Sketched least squares study: residual ratio per (m, trial)."""
    records = []
    replacement = config.replacement == "with"
    shape = Shape(config.shape)
    for trial in range(config.trials):
        problem = make_ls_problem(config, trial)
        for m in config.m_grid:
            ss = trial_seed_sequence(config.seed, config.kind, "kfjlt", m, trial)
            op = KfjltOperator.from_seed(seed_children(ss, 1)[0], shape, m, replacement)
            result = solve_sketched_ls(problem, op)
            value = residual_ratio(problem, result.solution).value
            records.append(TrialRecord(config.experiment_id, "kfjlt", m, trial, _seed_value(ss), value))
    return records


def run_cprand(config: ExperimentConfig) -> list[TrialRecord]:
    """Fit trajectories of exact ALS vs the sketched loop on synthetic
    rank-R tensors. Exact ALS rows carry m=0; the record's trial column is
    the sweep index and the seed column identifies the synthetic instance."""
    records = []
    shape = Shape(config.shape)
    for m in config.m_grid:
        for trial in range(config.trials):
            ss = trial_seed_sequence(config.seed, config.kind, "cprand", m, trial)
            truth_kid, init_kid, mix_kid = seed_children(ss, 3)
            rng = np.random.default_rng(truth_kid)
            truth = cp.random_model(shape, config.rank, rng)
            tensor = cp.reconstruct(truth)
            init = cp.random_model(shape, config.rank, np.random.default_rng(init_kid))
            seed_val = _seed_value(ss)
            als = cp.cp_als(tensor, config.rank, init=init, max_sweeps=config.max_sweeps, fit_tol=config.fit_tol)
            sketched = cp.cprand_mix(
                tensor, config.rank, m, seed=mix_kid, init=init,
                max_sweeps=config.max_sweeps, fit_tol=config.fit_tol,
            )
            for sweep, (f, sec) in enumerate(zip(als.fits, als.sweep_seconds)):
                records.append(TrialRecord(config.experiment_id, "cp-als-fit", 0, sweep, seed_val, f))
                records.append(TrialRecord(config.experiment_id, "cp-als-time", 0, sweep, seed_val, sec))
            for sweep, (f, sec) in enumerate(zip(sketched.fits, sketched.sweep_seconds)):
                records.append(TrialRecord(config.experiment_id, "cprand-mix-fit", m, sweep, seed_val, f))
                records.append(TrialRecord(config.experiment_id, "cprand-mix-time", m, sweep, seed_val, sec))
    return records


def run_concentration(config: ExperimentConfig) -> list[TrialRecord]:
    """Tail-bound battery: empirical exceedance frequency and the matching
    bound, one pair of rows per case (m column holds the dimension)."""
    records = []
    case = 0
    for n in (10, 20, 64):
        ss = trial_seed_sequence(config.seed, config.kind, "hoeffding", n, case)
        rng = np.random.default_rng(ss)
        x = rng.standard_normal(n)
        for tmul in (1.0, 2.0, 3.0):
            t = tmul * float(np.linalg.norm(x))
            rep = hoeffding_tail_check(x, t, trials=config.trials, rng=rng)
            seed_val = _seed_value(ss)
            records.append(TrialRecord(config.experiment_id, "hoeffding", n, case, seed_val, rep.frequency))
            records.append(TrialRecord(config.experiment_id, "hoeffding-bound", n, case, seed_val, rep.bound))
            case += 1
    for n in (8, 10, 16):
        ss = trial_seed_sequence(config.seed, config.kind, "hanson-wright", n, case)
        rng = np.random.default_rng(ss)
        mat = rng.standard_normal((n, n))
        mat = mat + mat.T
        np.fill_diagonal(mat, 0.0)
        for tmul in (1.0, 2.0):
            t = tmul * float(np.linalg.norm(mat, "fro"))
            rep = hanson_wright_tail_check(mat, t, trials=config.trials, rng=rng)
            seed_val = _seed_value(ss)
            records.append(TrialRecord(config.experiment_id, "hanson-wright", n, case, seed_val, rep.frequency))
            records.append(TrialRecord(config.experiment_id, "hanson-wright-bound", n, case, seed_val, rep.bound))
            case += 1
    return records


def run_experiment(config: ExperimentConfig) -> list[TrialRecord]:
    # Looked up by name on each call, so a rebound ``run_<kind>`` is the one run.
    return globals()[f"run_{config.kind}"](config)


def summarize(records) -> list[tuple[str, int, float, float, int]]:
    """Per-(method, m) mean, sample standard deviation, and count."""
    groups: dict[tuple[str, int], list[float]] = {}
    for r in records:
        groups.setdefault((r.method, r.m), []).append(r.value)
    out = []
    for (method, m), vals in sorted(groups.items()):
        arr = np.asarray(vals)
        std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        out.append((method, m, float(arr.mean()), std, arr.size))
    return out


def emit_csv(records, path) -> tuple[Path, Path]:
    """Write the trial CSV and a per-(method, m) summary CSV alongside it.

    Row order is deterministic: (method, m, trial, seed). Values are written
    with shortest round-trip float formatting, so identical runs produce
    identical bytes.
    """
    path = Path(path)
    summary_path = path.with_suffix(".summary.csv")
    ordered = sorted(records, key=lambda r: (r.method, r.m, r.trial, r.seed))
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["experiment", "method", "m", "trial", "seed", "value"])
            for r in ordered:
                writer.writerow([r.experiment, r.method, r.m, r.trial, r.seed, repr(float(r.value))])
        with open(summary_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["method", "m", "mean", "std", "count"])
            for method, m, mean, std, count in summarize(records):
                writer.writerow([method, m, repr(mean), repr(std), count])
    except OSError as exc:
        raise OSError(f"failed writing experiment output to {path}: {exc}") from exc
    return path, summary_path
