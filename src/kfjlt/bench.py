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
"""

from __future__ import annotations

import csv
import math
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import cprand as cp
from .kron import KroneckerVector, Shape, khatri_rao_rows, kron_materialize, kron_norm_sq
from .sketch_ls import KrlsProblem, residual_ratio, solve_sketched_ls
from .testkit import hanson_wright_tail_check, hoeffding_tail_check
from .transforms import (
    FactoredKfjltOperator,
    KfjltOperator,
    distortion_ratio,
    factored_apply,
    kfjlt_apply_dense,
    kfjlt_apply_kron,
    mix_factor,
    seed_children,
)

KINDS = ("distortion", "timing", "ls", "cprand", "concentration")
_KIND_IDS = {kind: i + 1 for i, kind in enumerate(KINDS)}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    shape: tuple[int, ...]
    degrees: tuple[int, ...] = (1,)
    m_grid: tuple[int, ...] = ()
    trials: int = 100
    seed: int = 0
    dist: str = "gaussian"  # gaussian | uniform01
    structure: str = "kron"  # kron | generic
    sampling: str = "after"  # after | before
    replacement: str = "with"  # with | without
    include_gaussian: bool = False
    rank: int = 5
    snr_db: float = 20.0
    max_sweeps: int = 100
    fit_tol: float = 1e-6
    out: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))
        object.__setattr__(self, "m_grid", tuple(int(m) for m in self.m_grid))
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        Shape(self.shape)  # validates
        if self.trials < 0:
            raise ValueError("trials must be >= 0")
        for m in self.m_grid:
            if m < 1:
                raise ValueError(f"every m must be >= 1, got m={m} in {self.m_grid}")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.max_sweeps < 1:
            raise ValueError(f"max_sweeps must be >= 1, got {self.max_sweeps}")
        if self.dist not in ("gaussian", "uniform01"):
            raise ValueError(f"unknown distribution {self.dist!r}")
        if self.structure not in ("kron", "generic"):
            raise ValueError(f"unknown vector structure {self.structure!r}")
        if self.sampling not in ("after", "before"):
            raise ValueError(f"unknown sampling mode {self.sampling!r}")
        if self.replacement not in ("with", "without"):
            raise ValueError(f"unknown replacement mode {self.replacement!r}")
        if self.kind in ("distortion", "timing", "ls", "cprand") and not self.m_grid:
            raise ValueError(f"{self.kind} experiments need a nonempty m grid")
        if self.kind == "distortion":
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


def group_dims(dims, degree: int) -> tuple[int, ...]:
    """View a D-factor shape at a coarser degree by merging adjacent factors.

    D must split into ``degree`` contiguous groups of equal length; each
    super-factor size is the product of its group. Adjacent grouping is the
    only choice consistent with the mode-1-fastest linearization.
    """
    dims = tuple(dims)
    if degree < 1 or len(dims) % degree != 0:
        raise ValueError(
            f"cannot view a {len(dims)}-factor shape at degree {degree}: "
            f"{len(dims)} is not divisible into {degree} equal adjacent groups"
        )
    width = len(dims) // degree
    return tuple(math.prod(dims[g * width : (g + 1) * width]) for g in range(degree))


def group_factors(factors, degree: int) -> KroneckerVector:
    """Merge adjacent factor vectors into ``degree`` materialized super-factors."""
    factors = list(factors)
    width = len(factors) // degree
    if degree < 1 or width * degree != len(factors):
        raise ValueError("factor count not divisible into equal adjacent groups")
    merged = []
    for g in range(degree):
        chunk = factors[g * width : (g + 1) * width]
        merged.append(kron_materialize(KroneckerVector(tuple(chunk))))
    return KroneckerVector(tuple(merged))


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


def _distortion_methods(config: ExperimentConfig):
    methods = []
    for d in sorted(set(config.degrees)):
        base = "fjlt" if d == 1 else f"kfjlt-d{d}"
        label = base
        if config.sampling == "before" and d > 1:
            label += "-factored"
        if config.structure == "generic":
            label += "-generic"
        methods.append((label, base, d))
    if config.include_gaussian:
        label = "gaussian" + ("-generic" if config.structure == "generic" else "")
        methods.append((label, "gaussian", 0))
    return methods


def run_distortion(config: ExperimentConfig) -> list[TrialRecord]:
    """Distortion-vs-m study: fresh operator and fresh test vector per trial."""
    from .testkit import gaussian_jlt_apply

    records = []
    replacement = config.replacement == "with"
    big_n = math.prod(config.shape)
    for label, base, degree in _distortion_methods(config):
        for m in config.m_grid:
            for trial in range(config.trials):
                ss = trial_seed_sequence(config.seed, config.kind, base, m, trial)
                op_ss, vec_ss = seed_children(ss, 2)
                rng_v = np.random.Generator(np.random.PCG64(vec_ss))
                m_out = m
                if config.structure == "kron":
                    base_factors = [_draw(rng_v, n, config.dist) for n in config.shape]
                    if base == "gaussian":
                        x = kron_materialize(KroneckerVector(tuple(base_factors)))
                        y = gaussian_jlt_apply(op_ss, m, big_n, x)
                        orig = float(x @ x)
                    else:
                        v = group_factors(base_factors, degree)
                        gshape = v.shape
                        if config.sampling == "before" and degree > 1:
                            ms = factored_row_counts(m, degree)
                            fop = FactoredKfjltOperator.from_seed(op_ss, gshape, ms, replacement)
                            y = factored_apply(fop, v)
                            m_out = fop.m
                        else:
                            op = KfjltOperator.from_seed(op_ss, gshape, m, replacement)
                            y = kfjlt_apply_kron(op, v)
                        orig = kron_norm_sq(v)
                else:
                    x = _draw(rng_v, big_n, config.dist)
                    orig = float(x @ x)
                    if base == "gaussian":
                        y = gaussian_jlt_apply(op_ss, m, big_n, x)
                    else:
                        gshape = Shape(group_dims(config.shape, degree))
                        op = KfjltOperator.from_seed(op_ss, gshape, m, replacement)
                        y = kfjlt_apply_dense(op, x)
                embedded = float(np.vdot(y, y).real)
                records.append(
                    TrialRecord(
                        config.experiment_id,
                        label,
                        m_out,
                        trial,
                        _seed_value(ss),
                        distortion_ratio(embedded, orig),
                    )
                )
    return records


def _timed_fjlt_pass(factor_stacks, signs, rows, scale) -> int:
    """Embed a corpus the flat way: form each Kronecker vector, mix the full
    length, sample. Returns elapsed nanoseconds."""
    t0 = time.perf_counter_ns()
    full = factor_stacks[0]
    for fs in factor_stacks[1:]:
        full = (fs[:, :, None] * full[:, None, :]).reshape(full.shape[0], -1)
    mixed = np.fft.fft(full * signs[None, :], axis=1, norm="ortho")
    _ = scale * mixed[:, rows]
    return time.perf_counter_ns() - t0


def _timed_kfjlt_pass(factor_stacks, op: KfjltOperator) -> int:
    """Embed a corpus the structured way: mix each factor, trace sampled
    indices back. Returns elapsed nanoseconds."""
    t0 = time.perf_counter_ns()
    mixed = [mix_factor(fs.T, sv) for fs, sv in zip(factor_stacks, op.sign_vectors)]
    _ = op.scale * khatri_rao_rows(mixed, op.rows)
    return time.perf_counter_ns() - t0


def run_timing(config: ExperimentConfig, repeats: int = 3) -> list[TrialRecord]:
    """Wall time to embed the whole corpus of ``trials`` Kronecker vectors.

    The corpus is embedded as one vectorized pass per method (the flat path
    forms each full vector inside the timed region; the structured path never
    does). A warm-up pass is excluded and ``repeats`` measured passes are
    recorded so the median is available downstream.
    """
    shape = Shape(config.shape)
    d = shape.ndim
    records = []
    if config.trials == 0:
        return records
    # Corpus drawn once, independent of methods and of the m grid.
    corpus = []
    for t in range(config.trials):
        ss = trial_seed_sequence(config.seed, config.kind, "corpus", 0, t)
        rng = np.random.Generator(np.random.PCG64(ss))
        corpus.append([_draw(rng, n, config.dist) for n in shape.dims])
    stacks = [np.stack([c[k] for c in corpus]) for k in range(d)]
    replacement = config.replacement == "with"
    for m in config.m_grid:
        ss = trial_seed_sequence(config.seed, config.kind, "kfjlt", m, 0)
        op = KfjltOperator.from_seed(seed_children(ss, 1)[0], shape, m, replacement)
        zeta = kron_materialize(KroneckerVector(tuple(sv.signs for sv in op.sign_vectors)))
        passes = (
            ("fjlt", lambda: _timed_fjlt_pass(stacks, zeta, op.rows, op.scale)),
            (f"kfjlt-d{d}", lambda: _timed_kfjlt_pass(stacks, op)),
        )
        for method, runner in passes:
            runner()  # warm-up, not recorded
            for rep in range(repeats):
                records.append(
                    TrialRecord(
                        config.experiment_id,
                        method,
                        m,
                        rep,
                        _seed_value(ss),
                        float(runner()),
                    )
                )
    return records


def make_ls_problem(config: ExperimentConfig, trial: int) -> KrlsProblem:
    """Random Khatri-Rao least squares instance, shared across the m grid.

    Gaussian factor matrices; ``b = A x* + noise`` with the noise norm set by
    the configured SNR (in dB) relative to ``||A x*||``.
    """
    ss = trial_seed_sequence(config.seed, config.kind, "problem", 0, trial)
    rng = np.random.Generator(np.random.PCG64(ss))
    factors = tuple(rng.standard_normal((n, config.rank)) for n in config.shape)
    x_true = rng.standard_normal(config.rank)
    from .kron import khatri_rao

    a = khatri_rao(factors)
    signal = a @ x_true
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
            report = residual_ratio(problem, result.solution)
            records.append(
                TrialRecord(
                    config.experiment_id,
                    "kfjlt",
                    m,
                    trial,
                    _seed_value(ss),
                    report.value,
                )
            )
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
            rng = np.random.Generator(np.random.PCG64(truth_kid))
            truth = cp.random_model(shape, config.rank, rng)
            tensor = cp.reconstruct(truth)
            init = cp.random_model(shape, config.rank, np.random.Generator(np.random.PCG64(init_kid)))
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
        rng = np.random.Generator(np.random.PCG64(ss))
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
        rng = np.random.Generator(np.random.PCG64(ss))
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
    runner = {
        "distortion": run_distortion,
        "timing": run_timing,
        "ls": run_ls,
        "cprand": run_cprand,
        "concentration": run_concentration,
    }[config.kind]
    return runner(config)


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
