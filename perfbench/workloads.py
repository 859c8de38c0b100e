"""The four benchmark workloads: inputs from a seed, one timed round, checks.

Each workload is a closed loop run by one caller in one process: a round is
a fixed list of public calls, each starting when the previous one returns,
and every round of a run repeats the same inputs. ``make_inputs`` builds
everything the round needs (the set-up cost), ``run_round`` is the timed
region, ``fingerprint`` reduces a round's outputs to a value that must be
identical across rounds, and ``check`` compares the first round's outputs
with dense references outside the timed region.

Sizes are fixed per workload; ``smoke=True`` swaps in tiny ones so the
harness itself can be tested in seconds.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kfjlt import bench, cli, cprand, kron, sketch_ls, testkit, transforms


@dataclass
class RoundOutput:
    units: int
    payload: object
    unit_ms: list[float] = field(default_factory=list)  # per-unit latency, when units are separate calls
    unit_failed: int = 0  # units that raised


@dataclass
class CheckReport:
    failed: int = 0  # units that failed a correctness or quality check
    wrong: list[str] = field(default_factory=list)  # outputs that disagree with a reference
    notes: dict = field(default_factory=dict)  # printed diagnostics (accuracy_gap, counters, ...)


def _seed_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=key)


def _report_unit_error(what: str):
    print(f"perfbench: {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# ---------------------------------------------------------------- distortion

DISTORTION_VARIANTS = (
    ("kron", ("1,2,3", "kron", "after")),
    ("generic", ("1,2,3", "generic", "after")),
    ("before", ("2,3", "kron", "before")),
)
ORACLE_TRIALS = (0,)  # the trials per (method, m) recomputed against the dense oracle
ORACLE_TOL = 1e-10


class Distortion:
    """``kfjlt distortion`` in-process: three CLI calls per round."""

    name = "distortion"
    unit = "trial"
    min_rounds = 2  # every run emits the same config at least twice; the CSVs must be byte-identical

    def __init__(self, out_dir: Path, smoke: bool):
        self.out_dir = out_dir
        self.shape = (2,) * 6 if smoke else (4,) * 6
        self.m_list = (4, 16) if smoke else (64, 256, 1024)
        self.trials = 2 if smoke else 50

    def _cells(self, degrees):
        return len(degrees.split(",")) * len(self.m_list)

    def make_inputs(self, seed: int):
        shape = "x".join(str(n) for n in self.shape)
        m_list = ",".join(str(m) for m in self.m_list)
        argvs = []
        for label, (degrees, structure, sampling) in DISTORTION_VARIANTS:
            argvs.append((label, self._cells(degrees) * self.trials, [
                "distortion", "--shape", shape, "--degrees", degrees, "--m-list", m_list,
                "--trials", str(self.trials), "--seed", str(seed), "--structure", structure,
                "--sampling", sampling, "--out", str(self.out_dir / f"distortion-{label}.csv"),
            ]))
        return {"seed": seed, "argvs": argvs}

    def run_round(self, inputs) -> RoundOutput:
        codes = []
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            for _, _, argv in inputs["argvs"]:
                codes.append(cli.main(argv))
        units = sum(n for _, n, _ in inputs["argvs"])
        failed = sum(n for (_, n, _), code in zip(inputs["argvs"], codes) if code != 0)
        return RoundOutput(units, codes, unit_failed=failed)

    def fingerprint(self, inputs, out: RoundOutput):
        digests = []
        for (label, _, _), code in zip(inputs["argvs"], out.payload):
            csv_path = self.out_dir / f"distortion-{label}.csv"
            if code != 0:
                digests.append(None)
                continue
            h = hashlib.sha256(csv_path.read_bytes())
            h.update(csv_path.with_suffix(".summary.csv").read_bytes())
            digests.append(h.hexdigest())
        return tuple(digests)

    @staticmethod
    def _method(degree, structure, sampling) -> str:
        label = "fjlt" if degree == 1 else f"kfjlt-d{degree}"
        if sampling == "before" and degree > 1:
            label += "-factored"
        return label + ("-generic" if structure == "generic" else "")

    @staticmethod
    def _m_out(m, degree, sampling) -> int:
        if sampling == "before" and degree > 1:
            return math.prod(bench.factored_row_counts(m, degree))
        return m

    def _oracle_ratio(self, seed, structure, sampling, degree, m, trial) -> float:
        """Recompute one trial the way the runner defines it, through the
        materialized operator and the dense oracle product."""
        base = "fjlt" if degree == 1 else f"kfjlt-d{degree}"
        ss = bench.trial_seed_sequence(seed, "distortion", base, m, trial)
        op_ss, vec_ss = transforms.seed_children(ss, 2)
        rng = np.random.Generator(np.random.PCG64(vec_ss))
        big_n = math.prod(self.shape)
        if structure == "kron":
            v = bench.group_factors([rng.standard_normal(n) for n in self.shape], degree)
            x = kron.kron_materialize(v)
            if sampling == "before" and degree > 1:
                op = transforms.FactoredKfjltOperator.from_seed(
                    op_ss, v.shape, bench.factored_row_counts(m, degree))
            else:
                op = transforms.KfjltOperator.from_seed(op_ss, v.shape, m)
        else:
            x = rng.standard_normal(big_n)
            if degree == 1:
                op = transforms.FjltOperator.from_seed(op_ss, big_n, m)
            else:
                op = transforms.KfjltOperator.from_seed(
                    op_ss, kron.Shape(bench.group_dims(self.shape, degree)), m)
        y = testkit.dense_oracle_apply(transforms.materialize_operator(op), x)
        orig = float(x @ x)
        return abs(float(np.vdot(y, y).real) - orig) / orig

    def check(self, inputs, first: RoundOutput) -> CheckReport:
        report = CheckReport()
        largest = []
        for (label, _, _), (degrees, structure, sampling), code in zip(
                inputs["argvs"], (v for _, v in DISTORTION_VARIANTS), first.payload):
            if code != 0:
                continue
            with open(self.out_dir / f"distortion-{label}.csv", newline="", encoding="utf-8") as fh:
                rows = {(r["method"], int(r["m"]), int(r["trial"])): float(r["value"])
                        for r in csv.DictReader(fh)}
            for degree in (int(d) for d in degrees.split(",")):
                method = self._method(degree, structure, sampling)
                for m in self.m_list:
                    m_out = self._m_out(m, degree, sampling)
                    for trial in ORACLE_TRIALS:
                        want = self._oracle_ratio(inputs["seed"], structure, sampling, degree, m, trial)
                        got = rows.get((method, m_out, trial))
                        if got is None or not abs(got - want) <= ORACLE_TOL:
                            report.failed += 1
                            report.wrong.append(f"{method} m={m} trial={trial}: csv {got} vs oracle {want}")
                m_top = self._m_out(max(self.m_list), degree, sampling)
                largest.extend(v for (meth, mo, _), v in rows.items() if (meth, mo) == (method, m_top))
        report.notes["accuracy_gap"] = statistics.fmean(largest) if largest else float("nan")
        return report


# ------------------------------------------------------------------------ ls

LS_RESIDUAL_BOUND = 1.5  # sketched residual at most 1.5x the exact least-squares residual
LS_SNR_DB = 20.0


class LeastSquares:
    """``solve_sketched_ls`` on Khatri-Rao problems, a fresh operator per solve."""

    name = "ls"
    unit = "solve"

    def __init__(self, out_dir: Path, smoke: bool):
        self.dims = (8, 8, 8) if smoke else (64, 64, 64)
        self.rank = 3 if smoke else 10
        self.m_list = (20, 40) if smoke else (200, 800, 3200)
        self.rhs_cols = (1, 2) if smoke else (1, 8)

    def make_inputs(self, seed: int):
        rng = np.random.Generator(np.random.PCG64(_seed_sequence(seed, 0)))
        problems = []
        for cols in self.rhs_cols:
            factors = [rng.standard_normal((n, self.rank)) for n in self.dims]
            a = np.einsum("ir,jr,kr->kjir", *factors).reshape(-1, self.rank)
            signal = a @ rng.standard_normal((self.rank, cols))
            noise = rng.standard_normal(signal.shape)
            noise *= np.linalg.norm(signal, axis=0) * 10.0 ** (-LS_SNR_DB / 20.0) / np.linalg.norm(noise, axis=0)
            b = signal + noise
            problems.append(sketch_ls.KrlsProblem(tuple(factors), b[:, 0] if cols == 1 else b))
        ops = [[_seed_sequence(seed, 1, p, m) for m in self.m_list] for p in range(len(problems))]
        return {"shape": kron.Shape(self.dims), "problems": problems, "op_seeds": ops}

    def run_round(self, inputs) -> RoundOutput:
        shape = inputs["shape"]
        results, unit_ms, failed = [], [], 0
        clock = time.perf_counter
        for i, m in enumerate(self.m_list):
            for problem, seeds in zip(inputs["problems"], inputs["op_seeds"]):
                t0 = clock()
                try:
                    op = transforms.KfjltOperator.from_seed(seeds[i], shape, m)
                    res = sketch_ls.solve_sketched_ls(problem, op)
                except Exception:
                    _report_unit_error(f"ls solve m={m}")
                    res = None
                    failed += 1
                unit_ms.append((clock() - t0) * 1e3)
                results.append(res)
        return RoundOutput(len(results), results, unit_ms, failed)

    def fingerprint(self, inputs, out: RoundOutput):
        return tuple(None if r is None else r.solution.tobytes() for r in out.payload)

    def check(self, inputs, first: RoundOutput) -> CheckReport:
        report = CheckReport()
        gaps, flagged, degenerate = [], 0, 0
        pairs = [(problem, m) for m in self.m_list for problem in inputs["problems"]]
        for (problem, m), res in zip(pairs, first.payload):
            if res is None:
                continue
            degenerate += res.degenerate
            rr = sketch_ls.residual_ratio(problem, res.solution)
            flagged += rr.flagged_zero_residual
            if not math.isfinite(rr.value):
                report.failed += 1
                report.wrong.append(f"ls m={m}: residual ratio {rr.value}")
            elif not rr.flagged_zero_residual and rr.value > LS_RESIDUAL_BOUND:
                report.failed += 1
            if not rr.flagged_zero_residual:
                gaps.append(rr.value - 1.0)
        report.notes["accuracy_gap"] = statistics.median(gaps) if gaps else float("nan")
        report.notes["flagged_zero_residual"] = flagged
        report.notes["degenerate_solves"] = degenerate
        report.notes["residual_ratio_bound"] = LS_RESIDUAL_BOUND
        return report


# ------------------------------------------------------------------------ cp

CP_FIT_TARGET = 0.99  # a noiseless rank-R tensor is fitted to at least this
CP_FIT_TOL = 1e-9  # reported final fit vs an independent recomputation


class CpRandMix:
    """``cprand_mix`` on noiseless rank-5 tensors, one decomposition per unit."""

    name = "cp"
    unit = "decomposition"

    def __init__(self, out_dir: Path, smoke: bool):
        self.dims = (12, 12, 12) if smoke else (100, 100, 100)
        self.rank = 2 if smoke else 5
        self.m = 60 if smoke else 600
        # Time to a solution varies with where the sketched loop stops, so a
        # round averages 64 decompositions: 8 tensors, 8 sketch seeds each.
        self.tensors, self.sketches = (2, 1) if smoke else (8, 8)
        self.max_sweeps = 5 if smoke else 50

    def make_inputs(self, seed: int):
        shape = kron.Shape(self.dims)
        tensors, units = [], []
        for i in range(self.tensors):
            rng = np.random.Generator(np.random.PCG64(_seed_sequence(seed, 0, i)))
            factors = [rng.standard_normal((n, self.rank)) for n in self.dims]
            data = np.einsum("ir,jr,kr->kji", *factors).reshape(-1)
            tensors.append(cprand.DenseTensor(shape, data))
            units.extend((i, _seed_sequence(seed, 1, i, j)) for j in range(self.sketches))
        return {"tensors": tensors, "units": units}

    def run_round(self, inputs) -> RoundOutput:
        results, unit_ms, failed = [], [], 0
        clock = time.perf_counter
        for i, ss in inputs["units"]:
            t0 = clock()
            try:
                res = cprand.cprand_mix(inputs["tensors"][i], self.rank, self.m, seed=ss,
                                        max_sweeps=self.max_sweeps)
            except Exception:
                _report_unit_error("cprand_mix")
                res = None
                failed += 1
            unit_ms.append((clock() - t0) * 1e3)
            results.append(res)
        return RoundOutput(len(results), results, unit_ms, failed)

    def fingerprint(self, inputs, out: RoundOutput):
        return tuple(None if r is None else tuple(r.fits) for r in out.payload)

    @staticmethod
    def counters(out: RoundOutput) -> dict:
        done = [r for r in out.payload if r is not None]
        return {
            "cprand.sweeps_run": sum(r.sweeps_run for r in done),
            "cprand.degenerate_solves": sum(r.degenerate_solves for r in done),
            "cprand.stopped_below_target": sum(r.fits[-1] < CP_FIT_TARGET for r in done),
        }

    def check(self, inputs, first: RoundOutput) -> CheckReport:
        report = CheckReport(notes=self.counters(first))
        gaps = []
        for (i, _), res in zip(inputs["units"], first.payload):
            if res is None:
                continue
            x = inputs["tensors"][i].data.reshape(self.dims, order="F")
            model = np.einsum("ir,jr,kr->ijk", *res.model.factors)
            fit = 1.0 - float(np.linalg.norm(x - model)) / float(np.linalg.norm(x))
            if not abs(fit - res.fits[-1]) <= CP_FIT_TOL:
                report.failed += 1
                report.wrong.append(f"cp: reported fit {res.fits[-1]} vs recomputed {fit}")
            elif fit < CP_FIT_TARGET:
                report.failed += 1
            gaps.append(1.0 - fit)
        report.notes["accuracy_gap"] = statistics.median(gaps) if gaps else float("nan")
        report.notes["fit_target"] = CP_FIT_TARGET
        return report


# -------------------------------------------------------------------- verify

RIP_TOL = 1e-12  # enumerated delta vs the circulant-shift reference


class Verify:
    """``verify_suite`` plus an exhaustive RIP enumeration and block-norm bounds."""

    name = "verify"
    unit = "support"

    def __init__(self, out_dir: Path, smoke: bool):
        self.n, self.rows, self.order = (12, 9, 4) if smoke else (28, 21, 6)

    def make_inputs(self, seed: int):
        """A sign-flipped, row-subsampled unitary DFT, scaled to sqrt(n/rows)
        and stacked real over imaginary, plus vectors for the block bounds."""
        n, half, s = self.n, self.n // 2, self.order // 2
        rng = np.random.Generator(np.random.PCG64(_seed_sequence(seed, 0)))
        rows = np.sort(rng.choice(n, size=self.rows, replace=False))
        signs = rng.integers(0, 2, size=n) * 2.0 - 1.0
        k = np.arange(n)
        dft = np.exp(-2j * np.pi * np.outer(rows, k) / n) / math.sqrt(n)
        psi = math.sqrt(n / self.rows) * dft * signs[None, :]
        return {
            "seed": seed,
            "psi": np.vstack([psi.real, psi.imag]),
            "signs": signs,
            "x": rng.standard_normal(half),
            "y": rng.standard_normal(half),
            "b": rng.choice([-1.0, 1.0], s),
            "d": rng.choice([-1.0, 1.0], half),
        }

    def run_round(self, inputs) -> RoundOutput:
        psi, half = inputs["psi"], self.n // 2
        supports = math.comb(self.n, self.order)
        try:
            suite = testkit.verify_suite(seed=inputs["seed"])
            rip = testkit.rip_constant(psi, self.order, max_supports=supports)
            blocks = testkit.block_norm_bounds_check(
                psi[:, :half], psi[:, half:], inputs["x"], inputs["y"], self.order // 2,
                inputs["b"], inputs["d"], delta=rip.delta)
        except Exception:
            _report_unit_error("verify round")
            return RoundOutput(supports, None, unit_failed=supports)
        return RoundOutput(rip.supports_checked, (suite, rip, blocks))

    def fingerprint(self, inputs, out: RoundOutput):
        if out.payload is None:
            return None
        suite, rip, blocks = out.payload
        return (tuple((r.name, r.passed) for r in suite), rip.delta, blocks)

    def reference_delta(self, inputs) -> float:
        """The Gram of a sign-flipped subsampled DFT is circulant up to the
        signs, so every support is a cyclic shift of one containing index 0:
        enumerating only those gives the same delta with n/order less work."""
        psi, signs = inputs["psi"], inputs["signs"]
        gram = signs[:, None] * (psi.T @ psi - np.eye(self.n)) * signs[None, :]
        rest = itertools.combinations(range(1, self.n), self.order - 1)
        sup = np.array([(0,) + c for c in rest], dtype=np.intp)
        sub = gram[sup[:, :, None], sup[:, None, :]]
        return float(np.abs(np.linalg.eigvalsh(sub)).max())

    def check(self, inputs, first: RoundOutput) -> CheckReport:
        report = CheckReport()
        if first.payload is None:
            return report
        suite, rip, blocks = first.payload
        ref = self.reference_delta(inputs)
        bad = [r.name for r in suite if not r.passed]
        if bad:
            report.wrong.append(f"verify_suite failed: {bad}")
        if not abs(rip.delta - ref) <= RIP_TOL:
            report.wrong.append(f"rip delta {rip.delta} vs reference {ref}")
        if not blocks.passes:
            report.wrong.append("block-norm bounds violated")
        if report.wrong:
            report.failed = first.units
        report.notes["rip_delta"] = rip.delta
        report.notes["rip_reference"] = ref
        report.notes["suite_checks"] = len(suite)
        return report


WORKLOADS = {w.name: w for w in (Distortion, LeastSquares, CpRandMix, Verify)}
