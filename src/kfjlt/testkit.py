"""Brute-force references and statistical verification at desk scale.

Everything here trades efficiency for being obviously correct: dense
operator application, exhaustive support enumeration for restricted isometry
constants, exact sign-pattern enumeration for concentration tails whenever
2^n is small enough, and direct evaluation of the sorted-block norm bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .kron import ResourceLimitError, Shape
from .sketch_ls import complexify
from .transforms import SignVector, as_seed_sequence

EXACT_ENUMERATION_LIMIT = 4096  # exact sign enumeration whenever 2^n <= this


def _rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.Generator(np.random.PCG64(as_seed_sequence(seed_or_rng)))


def dense_oracle_apply(matrix, x) -> np.ndarray:
    """Plain O(mN) matrix-vector product: the reference for every fast path."""
    matrix = np.asarray(matrix)
    x = np.asarray(x)
    if matrix.shape[1] != x.shape[0]:
        raise ValueError(f"dimension mismatch: {matrix.shape} vs {x.shape}")
    return matrix @ x


def _all_sign_patterns(n: int) -> np.ndarray:
    """All 2^n sign vectors, one per row."""
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1
    return bits.astype(np.float64) * 2.0 - 1.0


@dataclass(frozen=True)
class RipReport:
    """Measured restricted isometry level of a matrix at a given order."""

    rows: int
    cols: int
    order: int
    delta: float
    supports_checked: int


def rip_constant(psi, order: int, max_supports: int = 200_000) -> RipReport:
    """Smallest delta such that every ``order``-column Gram submatrix deviates
    from the identity by at most delta in spectral norm (exhaustive).

    Complex matrices are measured through their real stacking, which has the
    same restricted isometry behavior on real vectors.
    """
    psi = np.asarray(psi)
    if np.iscomplexobj(psi):
        psi = complexify(psi)
    m, n = psi.shape
    if not 1 <= order <= n:
        raise ValueError(f"order {order} out of range 1..{n}")
    count = math.comb(n, order)
    if count > max_supports:
        raise ResourceLimitError(
            f"{count} supports exceed the budget {max_supports}; "
            "use a smaller instance or raise max_supports"
        )
    gram = psi.T @ psi - np.eye(n)
    delta = 0.0
    combos = itertools.combinations(range(n), order)
    chunk_size = max(1, min(count, 100_000))
    dtype = np.dtype((np.intp, (order,)))
    while True:
        sup = np.fromiter(itertools.islice(combos, chunk_size), dtype=dtype, count=-1)
        if sup.size == 0:
            break
        sup = sup.reshape(-1, order)
        sub = gram[sup[:, :, None], sup[:, None, :]]
        delta = max(delta, float(np.abs(np.linalg.eigvalsh(sub)).max()))
    return RipReport(m, n, order, delta, count)


def distortion_quadratic_form(psi, x, zeta: SignVector) -> float:
    """``zeta^T M zeta`` with ``M = D_x (Psi^T Psi - I) D_x``.

    Equals ``||Psi D_zeta x||^2 - ||x||^2`` exactly (the sign flips cancel on
    the diagonal). Complex matrices enter through their real stacking.
    """
    psi = np.asarray(psi)
    if np.iscomplexobj(psi):
        psi = complexify(psi)
    x = np.asarray(x, dtype=np.float64)
    if psi.shape[1] != x.size or len(zeta) != x.size:
        raise ValueError("dimension mismatch")
    g = psi.T @ psi - np.eye(x.size)
    xz = x * zeta.signs
    return float(xz @ g @ xz)


@dataclass(frozen=True)
class TailReport:
    """Empirical exceedance frequency of a tail event against its bound.

    ``radius`` is a 3-sigma one-sided binomial confidence radius (zero when
    the frequency comes from exact enumeration of all sign patterns).
    """

    threshold: float
    frequency: float
    bound: float
    trials: int
    radius: float
    exact: bool

    @property
    def passes(self) -> bool:
        return self.frequency <= self.bound + self.radius


def hoeffding_bound(x, t: float) -> float:
    """``2 exp(-t^2 / (2 ||x||^2))`` for the linear Rademacher form."""
    norm_sq = float(np.asarray(x) @ np.asarray(x))
    return 2.0 * math.exp(-t * t / (2.0 * norm_sq))


def hoeffding_tail_check(x, t: float, trials: int = 100_000, rng=None) -> TailReport:
    """Empirical ``Pr(|xi . x| > t)`` against the Hoeffding bound.

    Uses exact enumeration of all 2^n sign patterns when feasible, else
    ``trials`` Monte Carlo draws.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or not np.any(x):
        raise ValueError("x must be a nonzero vector")
    if t <= 0:
        raise ValueError("threshold must be positive")
    bound = hoeffding_bound(x, t)
    n = x.size
    if (1 << n) <= EXACT_ENUMERATION_LIMIT:
        vals = np.abs(_all_sign_patterns(n) @ x)
        return TailReport(t, float(np.mean(vals > t)), bound, 1 << n, 0.0, True)
    gen = _rng(rng)
    signs = gen.integers(0, 2, size=(trials, n)).astype(np.float64) * 2.0 - 1.0
    freq = float(np.mean(np.abs(signs @ x) > t))
    radius = 3.0 * math.sqrt(freq * (1.0 - freq) / trials)
    return TailReport(t, freq, bound, trials, radius, False)


def hanson_wright_bound(mat, t: float) -> float:
    """``2 exp(-(1/64) min(t^2/||X||_F^2, (96/65) t/||X||))`` for the
    zero-diagonal Rademacher chaos."""
    mat = np.asarray(mat, dtype=np.float64)
    fro_sq = float(np.sum(mat * mat))
    if fro_sq == 0.0:
        return 0.0
    spec = float(np.linalg.norm(mat, 2))
    return 2.0 * math.exp(-min(t * t / fro_sq, (96.0 / 65.0) * t / spec) / 64.0)


def hanson_wright_tail_check(mat, t: float, trials: int = 100_000, rng=None) -> TailReport:
    """Empirical ``Pr(|xi^T X xi| > t)`` against the Hanson-Wright bound.

    Requires an exactly zero diagonal; exact enumeration when 2^n is small.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("X must be square")
    if np.any(np.diag(mat) != 0.0):
        raise ValueError("X must have an exactly zero diagonal")
    if t <= 0:
        raise ValueError("threshold must be positive")
    bound = hanson_wright_bound(mat, t)
    n = mat.shape[0]
    if (1 << n) <= EXACT_ENUMERATION_LIMIT:
        signs = _all_sign_patterns(n)
        vals = np.abs(np.einsum("pi,ij,pj->p", signs, mat, signs))
        return TailReport(t, float(np.mean(vals > t)), bound, 1 << n, 0.0, True)
    gen = _rng(rng)
    signs = gen.integers(0, 2, size=(trials, n)).astype(np.float64) * 2.0 - 1.0
    vals = np.abs(np.einsum("pi,ij,pj->p", signs, mat, signs))
    freq = float(np.mean(vals > t))
    radius = 3.0 * math.sqrt(freq * (1.0 - freq) / trials)
    return TailReport(t, freq, bound, trials, radius, False)


def _magnitude_blocks(v: np.ndarray, s: int) -> np.ndarray:
    """Block label per index: 0 for the s largest |entries|, 1 for the next s,
    and so on. Ties broken by ascending index (stable sort)."""
    order = np.argsort(-np.abs(v), kind="stable")
    labels = np.empty(v.size, dtype=np.intp)
    labels[order] = np.arange(v.size) // s
    return labels


@dataclass(frozen=True)
class BlockNormReport:
    """Measured sorted-block quantities against their delta-based bounds."""

    delta: float
    block_size: int
    c_spectral: float
    c_frobenius: float
    v_norm: float
    w_abs: float
    x_norm: float
    y_norm: float

    def checks(self, slack: float = 1e-12):
        d = self.delta + slack
        xy = self.x_norm * self.y_norm
        s = self.block_size
        return [
            ("spectral", self.c_spectral, d / s * xy),
            ("frobenius", self.c_frobenius, d / math.sqrt(s) * xy),
            ("cross", self.v_norm, d / math.sqrt(s) * xy),
            ("aligned", self.w_abs, d * xy),
        ]

    @property
    def passes(self) -> bool:
        return all(value <= bound for _, value, bound in self.checks())


def block_norm_bounds_check(
    psi_l,
    psi_r,
    x,
    y,
    s: int,
    b=None,
    d_signs=None,
    delta: float | None = None,
    max_supports: int = 200_000,
) -> BlockNormReport:
    """Evaluate the four sorted-block norm bounds for a column-split matrix.

    ``psi_l`` and ``psi_r`` are the two n-column halves of an ``m x 2n``
    matrix whose restricted isometry level at order 2s bounds all four
    quantities: the off-block coupling matrix C (spectral and Frobenius
    norms), the first-block cross vector v, and the aligned-block scalar w.
    ``b`` (length s) and ``d_signs`` (length n) default to all ones.
    ``delta`` defaults to the measured level of the stacked matrix.
    """
    psi_l = np.asarray(psi_l)
    psi_r = np.asarray(psi_r)
    if np.iscomplexobj(psi_l) or np.iscomplexobj(psi_r):
        psi_l, psi_r = complexify(psi_l), complexify(psi_r)
    if psi_l.shape != psi_r.shape:
        raise ValueError("the two column blocks must have equal shapes")
    n = psi_l.shape[1]
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != n or y.size != n:
        raise ValueError("x and y must have one entry per column")
    if not 1 <= s <= n:
        raise ValueError(f"block size {s} out of range 1..{n}")
    b = np.ones(s) if b is None else np.asarray(b, dtype=np.float64)
    d_signs = np.ones(n) if d_signs is None else np.asarray(d_signs, dtype=np.float64)
    if b.size != s or d_signs.size != n:
        raise ValueError("b must have length s and d_signs length n")
    if delta is None:
        delta = rip_constant(np.hstack([psi_l, psi_r]), 2 * s, max_supports).delta

    bx = _magnitude_blocks(x, s)
    by = _magnitude_blocks(y, s)
    gram = psi_l.T @ psi_r

    mask = (bx[:, None] != by[None, :]) & (bx[:, None] >= 1) & (by[None, :] >= 1)
    c = np.where(mask, x[:, None] * gram * y[None, :], 0.0)

    i1c = np.flatnonzero(bx >= 1)
    j1 = np.flatnonzero(by == 0)
    v = x[i1c] * (gram[np.ix_(i1c, j1)] @ (y[j1] * b))

    w = 0.0
    for p in range(int(bx.max()) + 1):
        ip = np.flatnonzero(bx == p)
        jp = np.flatnonzero(by == p)
        w += float((d_signs[ip] * x[ip]) @ gram[np.ix_(ip, jp)] @ (y[jp] * d_signs[jp]))

    return BlockNormReport(
        delta=float(delta),
        block_size=s,
        c_spectral=float(np.linalg.norm(c, 2)),
        c_frobenius=float(np.linalg.norm(c, "fro")),
        v_norm=float(np.linalg.norm(v)),
        w_abs=abs(w),
        x_norm=float(np.linalg.norm(x)),
        y_norm=float(np.linalg.norm(y)),
    )


def gaussian_jlt_apply(seed, m: int, n: int, x) -> np.ndarray:
    """Dense Gaussian sketch with i.i.d. N(0, 1/m) entries (baseline)."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    x = np.asarray(x)
    if x.shape != (n,):
        raise ValueError(f"expected vector of length {n}")
    gen = _rng(seed)
    return gen.standard_normal((m, n)) / math.sqrt(m) @ x


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def verify_suite(seed: int = 0, verbose: bool = False) -> list[CheckResult]:
    """Self-contained verification battery used by the ``verify`` subcommand.

    Covers fast-path/oracle equivalence, mixing unitarity, the FJLT against
    the dense DFT matrix, operator flatness, the distortion quadratic form, both
    concentration tails under exact enumeration, restricted isometry hand
    cases and consequences, and the sorted-block norm bounds.
    """
    from . import sketch_ls, transforms
    from .kron import KroneckerVector, khatri_rao, kron_materialize, kron_norm_sq

    results = []

    def record(name, passed, detail=""):
        results.append(CheckResult(name, bool(passed), detail))
        if verbose:
            print(f"[{'PASS' if passed else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))

    ss = as_seed_sequence(seed)
    gen = _rng(ss.spawn(1)[0])

    # Fast paths against materialized operators.
    worst = 0.0
    for dims in [(8,), (4, 4), (3, 4, 5), (2, 3, 2)]:
        shape = Shape(dims)
        for i in range(5):
            op = transforms.KfjltOperator.from_seed(ss.spawn(1)[0], shape, m=6)
            dense = transforms.materialize_operator(op)
            v = KroneckerVector(tuple(gen.standard_normal(n) for n in dims))
            xd = kron_materialize(v)
            ref = dense_oracle_apply(dense, xd)
            for got in (transforms.kfjlt_apply_kron(op, v), transforms.kfjlt_apply_dense(op, xd)):
                worst = max(worst, float(np.linalg.norm(got - ref) / np.linalg.norm(ref)))
            a_mats = [gen.standard_normal((n, 3)) for n in dims]
            got = sketch_ls.sketch_khatri_rao(op, a_mats)
            ref_kr = dense @ khatri_rao(a_mats)
            worst = max(worst, float(np.linalg.norm(got - ref_kr) / np.linalg.norm(ref_kr)))
            fac = transforms.FactoredKfjltOperator.from_seed(ss.spawn(1)[0], shape, [2] * len(dims))
            got = transforms.factored_apply(fac, v)
            ref_f = dense_oracle_apply(transforms.materialize_operator(fac), xd)
            worst = max(worst, float(np.linalg.norm(got - ref_f) / np.linalg.norm(ref_f)))
    record("oracle-equivalence", worst <= 1e-10, f"max rel err {worst:.2e}")

    # Mixing preserves norms; full sampling embeds isometrically.
    worst = 0.0
    for _ in range(50):
        v = KroneckerVector(tuple(gen.standard_normal(n) for n in (4, 5)))
        op = transforms.KfjltOperator.exhaustive(ss.spawn(1)[0], v.shape)
        out = transforms.kfjlt_apply_kron(op, v)
        worst = max(worst, abs(float(np.vdot(out, out).real) - kron_norm_sq(v)) / kron_norm_sq(v))
    record("mixing-unitarity", worst <= 1e-12, f"max rel err {worst:.2e}")

    # The FJLT (degree-1 operator) against the dense DFT matrix.
    op = transforms.KfjltOperator.from_seed(ss.spawn(1)[0], Shape((16,)), m=5)
    xv = gen.standard_normal(16)
    ref = op.scale * (transforms.dft_matrix(16) @ (op.sign_vectors[0].signs * xv))[op.rows]
    err = float(np.linalg.norm(transforms.fjlt_apply(op, xv) - ref) / np.linalg.norm(ref))
    record("fjlt-dft-oracle", err <= 1e-12, f"rel err {err:.2e}")

    # Every materialized entry has magnitude 1/sqrt(m).
    op = transforms.KfjltOperator.from_seed(ss.spawn(1)[0], Shape((4, 4)), m=7)
    mags = np.abs(transforms.materialize_operator(op))
    record(
        "operator-flatness",
        float(np.abs(mags - 1 / math.sqrt(7)).max()) <= 1e-12,
        "|entries| = 1/sqrt(m)",
    )

    # Quadratic form identity for the distortion.
    worst = 0.0
    for _ in range(50):
        psi = gen.standard_normal((8, 12))
        xq = gen.standard_normal(12)
        zeta = transforms.rademacher(12, gen)
        lhs = distortion_quadratic_form(psi, xq, zeta)
        direct = float(np.linalg.norm(psi @ (zeta.signs * xq)) ** 2 - xq @ xq)
        worst = max(worst, abs(lhs - direct) / max(1.0, abs(direct)))
    record("quadratic-form-identity", worst <= 1e-10, f"max rel err {worst:.2e}")

    # Concentration tails, exact enumeration.
    rep = hoeffding_tail_check(gen.standard_normal(10), t=2.0)
    record("hoeffding-exact", rep.exact and rep.passes, f"freq {rep.frequency:.4f} <= bound {rep.bound:.4f}")
    mat = gen.standard_normal((10, 10))
    mat = mat + mat.T
    np.fill_diagonal(mat, 0.0)
    rep = hanson_wright_tail_check(mat, t=float(np.linalg.norm(mat, "fro")))
    record("hanson-wright-exact", rep.exact and rep.passes, f"freq {rep.frequency:.4f} <= bound {rep.bound:.4f}")

    # Restricted isometry hand cases.
    rep = rip_constant(np.eye(6), 3)
    ok = rep.delta <= 1e-12
    e1 = np.zeros((4, 2))
    e1[0, :] = 1.0
    rep2 = rip_constant(e1, 2)
    record(
        "rip-hand-cases",
        ok and abs(rep2.delta - 1.0) <= 1e-12,
        f"identity {rep.delta:.1e}, duplicated column {rep2.delta:.6f}",
    )

    # Subset norm and disjoint inner-product consequences with measured delta.
    nsub, msub, svec = 12, 10, 2
    op = transforms.KfjltOperator.from_seed(ss.spawn(1)[0], Shape((nsub,)), msub)
    psi = complexify(transforms.materialize_operator(op))
    delta = rip_constant(psi, 2 * svec).delta
    ok = True
    xq = gen.standard_normal(nsub)
    for size in range(1, 2 * svec + 1):
        for idx in itertools.combinations(range(nsub), size):
            idx = list(idx)
            lhs = float(np.linalg.norm(psi[:, idx] @ xq[idx]) ** 2)
            ok &= abs(lhs - xq[idx] @ xq[idx]) <= (delta + 1e-12) * float(xq[idx] @ xq[idx])
    for i_set in itertools.combinations(range(6), svec):
        for j_set in itertools.combinations(range(6, nsub), svec):
            ip = float((psi[:, list(i_set)] @ xq[list(i_set)]) @ (psi[:, list(j_set)] @ xq[list(j_set)]))
            ok &= abs(ip) <= (delta + 1e-12) * float(
                np.linalg.norm(xq[list(i_set)]) * np.linalg.norm(xq[list(j_set)])
            )
    record("rip-consequences", ok, f"measured delta {delta:.4f}")

    # Sorted-block norm bounds on a small split matrix.
    nblk, sblk = 12, 3
    op = transforms.KfjltOperator.from_seed(ss.spawn(1)[0], Shape((2 * nblk,)), 2 * nblk - 4)
    stacked = complexify(transforms.materialize_operator(op))
    delta = rip_constant(stacked, 2 * sblk).delta
    ok = True
    for _ in range(20):
        xb, yb = gen.standard_normal(nblk), gen.standard_normal(nblk)
        bb = gen.choice([-1.0, 1.0], sblk)
        db = gen.choice([-1.0, 1.0], nblk)
        rep = block_norm_bounds_check(stacked[:, :nblk], stacked[:, nblk:], xb, yb, sblk, bb, db, delta=delta)
        ok &= rep.passes
    rep = block_norm_bounds_check(stacked[:, :nblk], stacked[:, nblk:], xb, yb, sblk, delta=delta)
    record("block-norm-bounds", ok and rep.passes, f"measured delta {delta:.4f}")

    return results
