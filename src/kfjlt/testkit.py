"""Brute-force references and statistical verification at desk scale.

Everything here trades efficiency for being obviously correct: dense
operator application, exhaustive support enumeration for restricted isometry
constants, exact sign-pattern enumeration for concentration tails whenever
2^n is small enough, and direct evaluation of the sorted-block norm bounds.

One shortcut keeps the support enumeration exact: when the Gram deviation
``G = psi^T psi - I`` is circulant up to ±1 signs (checked, to a tolerance
``1e-12 * max(1, max|G|) / (2 * order)``), every cyclic shift of a support
has the same spectrum, so one support per cyclic orbit (its necklace
representative) is decomposed instead of all ``C(n, order)``. ``RipReport``
records both counts: ``supports_checked`` (covered) and
``supports_enumerated`` (decomposed).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import cprand, sketch_ls, transforms
from .kron import KroneckerVector, ResourceLimitError, Shape, _as_dim, _check_cap, _check_finite, khatri_rao, kron_materialize, kron_norm_sq
from .sketch_ls import complexify

EXACT_ENUMERATION_LIMIT = 4096  # exact sign enumeration whenever 2^n <= this
MONTE_CARLO_SIGN_LIMIT = 1 << 24  # most signs one Monte Carlo tail check draws


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
    """Measured restricted isometry level of a matrix at a given order;
    ``delta`` covers ``supports_checked`` supports, of which
    ``supports_enumerated`` were decomposed (see :func:`rip_constant`)."""

    rows: int
    cols: int
    order: int
    delta: float
    supports_checked: int
    supports_enumerated: int


def _circulant_up_to_signs(gram: np.ndarray, order: int) -> bool:
    """Whether ±1 signs ``s`` make ``diag(s) gram diag(s)`` circulant to
    within ``tol``, walking ``s[j+1] = s[j] * sign(gram[j, j+1]) * sigma``
    for both ``sigma = ±1``. A superdiagonal entry within ``tol`` of zero
    cannot fix the signs, so it answers False."""
    n = gram.shape[0]
    tol = 1e-12 * max(1.0, float(np.abs(gram).max())) / (2 * order)
    superdiag = np.diagonal(gram, 1)
    if np.any(np.abs(superdiag) <= tol):
        return False
    shift = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    for sigma in (1.0, -1.0):
        s = np.concatenate([[1.0], np.cumprod(np.sign(superdiag) * sigma)])
        flipped = s[:, None] * gram * s[None, :]
        if np.abs(flipped - flipped[0][shift]).max() <= tol:
            return True
    return False


def _is_least_rotation(gaps: np.ndarray) -> np.ndarray:
    """Rows of ``gaps`` that are lexicographically no greater than any of
    their cyclic rotations. Compared entrywise, not as base-n codes, which
    overflow int64; a periodic row ties with some rotations and is kept."""
    rows = np.arange(len(gaps))
    keep = np.ones(len(gaps), dtype=bool)
    for r in range(1, gaps.shape[1]):
        d = np.roll(gaps, -r, axis=1) - gaps
        keep &= d[rows, np.argmax(d != 0, axis=1)] >= 0
    return keep


def rip_constant(psi, order: int, max_supports: int = 200_000) -> RipReport:
    """Smallest delta such that every ``order``-column Gram submatrix deviates
    from the identity by at most delta in spectral norm (exhaustive).

    Complex matrices are measured through their real stacking, which has the
    same restricted isometry behavior on real vectors.

    When ``G = psi^T psi - I`` is circulant up to a diagonal sign similarity
    (as for a sign-flipped, row-subsampled DFT), all cyclic shifts of a
    support share one spectrum, so one support per cyclic orbit is
    decomposed: the one that contains column 0 and whose gap sequence
    ``(s_2 - s_1, ..., n - s_k)`` is the least of its cyclic rotations (a
    fixed-density necklace; about ``C(n, order) / n`` of them). The
    shortcut is taken only when a sign walk makes ``G`` circulant to within
    ``1e-12 * max(1, max|G|) / (2 * order)`` entrywise, which keeps the
    delta within ``1e-12 * max(1, max|G|)`` of full enumeration (Weyl);
    otherwise all ``C(n, order)`` supports are decomposed. Either way
    ``supports_checked`` is ``C(n, order)``, the supports the delta covers,
    and the ``max_supports`` budget is compared against it;
    ``supports_enumerated`` counts the sub-Grams actually decomposed.
    """
    psi = np.asarray(psi)
    _check_finite(psi, "psi")
    if np.iscomplexobj(psi):
        psi = complexify(psi)
    m, n = psi.shape
    if not 1 <= _as_dim(order, "order") <= n:
        raise ValueError(f"order {order} out of range 1..{n}")
    count = math.comb(n, order)
    if count > max_supports:
        raise ResourceLimitError(
            f"{count} supports exceed the budget {max_supports}; "
            "use a smaller instance or raise max_supports"
        )
    gram = psi.T @ psi - np.eye(n)
    circulant = _circulant_up_to_signs(gram, order)
    if not circulant:
        combos = itertools.combinations(range(n), order)
    elif order == 1:
        combos = iter([(0,)])
    else:
        # A least rotation starts with its least gap a, and a <= n // order.
        # Every later gap is >= a too, so c is drawn with a - 1 taken out of
        # each gap and spread back out below.
        combos = itertools.chain.from_iterable(
            ((0, a) + c for c in itertools.combinations(range(a + 1, n - (order - 1) * (a - 1)), order - 2))
            for a in range(1, n // order + 1)
        )
    delta, enumerated = 0.0, 0
    dtype = np.dtype((np.intp, (order,)))
    while True:
        sup = np.fromiter(itertools.islice(combos, 100_000), dtype=dtype, count=-1)
        if sup.size == 0:
            break
        sup = sup.reshape(-1, order)
        if circulant:
            sup[:, 2:] += (sup[:, 1:2] - 1) * np.arange(1, order - 1)
            sup = sup[_is_least_rotation(np.diff(sup, axis=1, append=n))]
            if sup.size == 0:
                continue
        enumerated += len(sup)
        sub = gram[sup[:, :, None], sup[:, None, :]]
        delta = max(delta, float(np.abs(np.linalg.eigvalsh(sub)).max()))
    return RipReport(m, n, order, delta, count, enumerated)


def distortion_quadratic_form(psi, x, zeta) -> float:
    """``zeta^T M zeta`` with ``M = D_x (Psi^T Psi - I) D_x`` for a +-1 vector
    ``zeta``.

    Equals ``||Psi D_zeta x||^2 - ||x||^2`` exactly (the sign flips cancel on
    the diagonal). Complex matrices enter through their real stacking.
    """
    psi = np.asarray(psi)
    if np.iscomplexobj(psi):
        psi = complexify(psi)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"x must be a 1-D vector, got shape {x.shape}")
    zeta = transforms._as_signs(zeta)
    if psi.shape[1] != x.size or zeta.size != x.size:
        raise ValueError("dimension mismatch")
    g = psi.T @ psi - np.eye(x.size)
    xz = x * zeta
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


def _tail_report(statistic, n: int, t: float, bound: float, trials: int, rng) -> TailReport:
    """Frequency of ``statistic(signs) > t`` over the rows of a sign-pattern
    matrix: all 2^n patterns when feasible, else ``trials`` Monte Carlo draws."""
    _as_dim(trials, "trials")
    if (1 << n) <= EXACT_ENUMERATION_LIMIT:
        freq = float(np.mean(statistic(_all_sign_patterns(n)) > t))
        return TailReport(t, freq, bound, 1 << n, 0.0, True)
    if trials < 1:
        raise ValueError(f"trials must be >= 1 to sample 2^{n} sign patterns, got {trials}")
    if trials * n > MONTE_CARLO_SIGN_LIMIT:
        raise ResourceLimitError(
            f"{trials} trials x n={n} signs exceed the Monte Carlo bound {MONTE_CARLO_SIGN_LIMIT}; "
            "use fewer trials"
        )
    signs = np.random.default_rng(rng).integers(0, 2, size=(trials, n)).astype(np.float64) * 2.0 - 1.0
    freq = float(np.mean(statistic(signs) > t))
    radius = 3.0 * math.sqrt(freq * (1.0 - freq) / trials)
    return TailReport(t, freq, bound, trials, radius, False)


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
    _check_finite(x, "x")
    if not t > 0:
        raise ValueError(f"threshold must be positive, got {t}")
    return _tail_report(lambda signs: np.abs(signs @ x), x.size, t, hoeffding_bound(x, t), trials, rng)


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
    _check_finite(mat, "X")
    if np.any(np.diag(mat) != 0.0):
        raise ValueError("X must have an exactly zero diagonal")
    if not t > 0:
        raise ValueError(f"threshold must be positive, got {t}")
    return _tail_report(
        lambda signs: np.abs(np.einsum("pi,ij,pj->p", signs, mat, signs)),
        mat.shape[0], t, hanson_wright_bound(mat, t), trials, rng,
    )


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

    def checks(self):
        d = self.delta + 1e-12
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
    *,
    delta: float,
) -> BlockNormReport:
    """Evaluate the four sorted-block norm bounds for a column-split matrix.

    ``psi_l`` and ``psi_r`` are the two n-column halves of an ``m x 2n``
    matrix whose restricted isometry level at order 2s bounds all four
    quantities: the off-block coupling matrix C (spectral and Frobenius
    norms), the first-block cross vector v, and the aligned-block scalar w.
    ``b`` (length s) and ``d_signs`` (length n) default to all ones.
    ``delta`` is that level, e.g. ``rip_constant`` of the stacked matrix.
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
    if not 1 <= _as_dim(s, "block size s") <= n:
        raise ValueError(f"block size {s} out of range 1..{n}")
    b = np.ones(s) if b is None else np.asarray(b, dtype=np.float64)
    d_signs = np.ones(n) if d_signs is None else np.asarray(d_signs, dtype=np.float64)
    if b.size != s or d_signs.size != n:
        raise ValueError("b must have length s and d_signs length n")

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


def gaussian_jlt_apply(seed, m: int, x) -> np.ndarray:
    """Dense ``m x n`` Gaussian sketch with i.i.d. N(0, 1/m) entries
    (baseline), applied to the length-n vector ``x``."""
    if _as_dim(m, "m") < 1:
        raise ValueError("m must be >= 1")
    x = np.asarray(x)
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"expected a nonempty 1-D vector, got shape {x.shape}")
    _check_cap(m * x.size, "dense Gaussian sketch")
    gen = np.random.default_rng(seed)
    return gen.standard_normal((m, x.size)) / math.sqrt(m) @ x


def _worse(worst: float, err: float) -> float:
    """The larger error, NaN if either is NaN: ``max`` would drop a NaN
    ``err`` and let a broken fast path pass its check."""
    return float(np.maximum(worst, err))


def _rel_err(got, ref) -> float:
    return float(np.linalg.norm(got - ref)) / max(float(np.linalg.norm(ref)), 1e-300)


def _worst_rel_err(*tables) -> float:
    return functools.reduce(_worse, (_rel_err(got, ref) for _, got, ref in itertools.chain(*tables)), 0.0)


# The seeded oracle case table. Each family draws from default_rng(seed) and
# yields (case, got, ref), case = (index, dims, rows, replacement, path); case
# i's operator is from_seed(i). Fast paths are called through their modules.
ORACLE_SIZES = (1, 2, 3, 4, 5, 6, 7, 8, 11, 13)  # unit, prime and composite factor sizes


def _random_shape(rng, max_total: int) -> Shape:
    """1-5 modes drawn from ``ORACLE_SIZES``, redrawn until N is at most ``max_total``."""
    while True:
        dims = tuple(int(n) for n in rng.choice(ORACLE_SIZES, size=rng.integers(1, 6)))
        if math.prod(dims) <= max_total:
            return Shape(dims)


def _random_rows(rng, totals) -> tuple[list[int], bool]:
    """A row count per total and one replacement flag: with replacement a count may exceed its total."""
    replacement = bool(rng.random() < 0.6)
    return [int(rng.integers(1, (2 * n if replacement else n) + 1)) for n in totals], replacement


def kfjlt_cases(seed, count: int):
    """Kronecker and dense paths (a batch equals single calls bit for bit), ``sketch_khatri_rao``; N <= 300."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        shape = _random_shape(rng, 300)
        (m,), replacement = _random_rows(rng, [shape.total])
        op = transforms.KfjltOperator.from_seed(i, shape, m, replacement)
        dense = transforms.materialize_operator(op)
        v = KroneckerVector(tuple(rng.standard_normal(n) for n in shape.dims))
        x, y = kron_materialize(v), rng.standard_normal(shape.total)
        mats = [rng.standard_normal((n, 3)) for n in shape.dims]
        ref = dense_oracle_apply(dense, x)
        once, y_once = transforms.kfjlt_apply_dense(op, x), transforms.kfjlt_apply_dense(op, y)
        case = (i, shape.dims, m, replacement)
        yield case + ("kron",), transforms.kfjlt_apply_kron(op, v), ref
        yield case + ("dense",), once, ref
        yield case + ("generic",), y_once, dense @ y
        both = transforms.kfjlt_apply_dense(op, np.stack([x, y], axis=1))
        yield case + ("batched",), both, np.stack([once, y_once], axis=1)
        yield case + ("khatri-rao",), sketch_ls.sketch_khatri_rao(op, mats), dense @ khatri_rao(mats)


def factored_cases(seed, count: int):
    """``factored_apply``, N <= 300; all row counts 1 past 2^16 dense entries."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        shape = _random_shape(rng, 300)
        ms, replacement = _random_rows(rng, shape.dims)
        if math.prod(ms) * shape.total > 1 << 16:
            ms = [1] * shape.ndim
        op = transforms.FactoredKfjltOperator.from_seed(i, shape, ms, replacement)
        v = KroneckerVector(tuple(rng.standard_normal(n) for n in shape.dims))
        ref = dense_oracle_apply(transforms.materialize_operator(op), kron_materialize(v))
        yield (i, shape.dims, tuple(ms), replacement, "factored"), transforms.factored_apply(op, v), ref


def cp_sweep_cases(seed, count: int):
    """The sketched CP sweep keeping every row against the exact ALS sweep, factor by factor, N <= 200."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        shape = _random_shape(rng, 200)
        rest = tuple(shape.total // n for n in shape.dims)
        rank = max(1, min(3, min(rest) // 2))  # full-rank solves: at most half the smallest system
        t = cprand.DenseTensor(shape, rng.standard_normal(shape.total))
        init = cprand.random_model(shape, rank, rng)
        signs = [transforms.rademacher(n, rng) for n in shape.dims]
        sketched, _ = cprand.cprand_mix_sweep(cprand.mix_tensor(t, signs), init, signs, [np.arange(r) for r in rest])
        for k, (a, b) in enumerate(zip(sketched.factors, cprand.cp_als_sweep(t, init).factors), start=1):
            yield (i, shape.dims, rest, False, f"A_{k}"), a, b


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def verify_suite(seed: int = 0, verbose: bool = False) -> list[CheckResult]:
    """Self-contained verification battery used by the ``verify`` subcommand.

    Covers fast-path/oracle equivalence and the sketched CP sweep (from the
    seeded case table), mixing unitarity, the FJLT against the dense DFT
    matrix, operator flatness, the distortion quadratic form, both
    concentration tails under exact enumeration, restricted isometry hand
    cases and consequences, and the sorted-block norm bounds.
    """
    results = []

    def record(name, passed, detail=""):
        results.append(CheckResult(name, bool(passed), detail))
        if verbose:
            print(f"[{'PASS' if passed else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))

    ss = np.random.SeedSequence(seed)
    gen = np.random.default_rng(ss.spawn(1)[0])

    # Table counts sized to the CPU of the 40 fixed cases they replaced.
    worst = _worst_rel_err(kfjlt_cases(ss.spawn(1)[0], 10), factored_cases(ss.spawn(1)[0], 6))
    record("oracle-equivalence", worst <= 1e-10, f"max rel err {worst:.2e}")
    worst = _worst_rel_err(cp_sweep_cases(ss.spawn(1)[0], 4))
    record("cp-sweep-oracle", worst <= 1e-10, f"max rel err {worst:.2e}")

    # Mixing preserves norms; full sampling embeds isometrically.
    worst = 0.0
    for _ in range(50):
        v = KroneckerVector(tuple(gen.standard_normal(n) for n in (4, 5)))
        op = transforms.KfjltOperator.exhaustive(ss.spawn(1)[0], v.shape)
        out = transforms.kfjlt_apply_kron(op, v)
        worst = _worse(worst, abs(float(np.vdot(out, out).real) - kron_norm_sq(v)) / kron_norm_sq(v))
    record("mixing-unitarity", worst <= 1e-12, f"max rel err {worst:.2e}")

    # The FJLT (degree-1 operator) against the dense DFT matrix.
    op = transforms.KfjltOperator.from_seed(ss.spawn(1)[0], Shape((16,)), m=5)
    xv = gen.standard_normal(16)
    ref = op.scale * (transforms.dft_matrix(16) @ (op.signs[0] * xv))[op.rows]
    err = _rel_err(transforms.fjlt_apply(op, xv), ref)
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
        worst = _worse(worst, abs(lhs - direct) / max(1.0, abs(direct)))
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
