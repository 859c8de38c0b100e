import itertools
import math

import numpy as np
import pytest

from kfjlt.kron import ResourceLimitError
from kfjlt.sketch_ls import complexify
from kfjlt.testkit import (
    block_norm_bounds_check,
    dense_oracle_apply,
    distortion_quadratic_form,
    gaussian_jlt_apply,
    hanson_wright_bound,
    hanson_wright_tail_check,
    hoeffding_bound,
    hoeffding_tail_check,
    rip_constant,
    verify_suite,
)
from kfjlt.transforms import FjltOperator, materialize_operator, rademacher


def test_dense_oracle_apply():
    x = np.arange(3.0)
    assert np.array_equal(dense_oracle_apply(np.eye(3), x), x)
    got = dense_oracle_apply(np.fft.fft(np.eye(2), axis=0, norm="ortho"), [1.0, 0.0])
    assert np.allclose(got, [1 / np.sqrt(2), 1 / np.sqrt(2)])
    with pytest.raises(ValueError):
        dense_oracle_apply(np.eye(3), np.ones(4))


def test_rip_constant_hand_cases():
    assert rip_constant(np.eye(8), 3).delta == pytest.approx(0.0, abs=1e-12)
    dup = np.zeros((4, 2))
    dup[0, :] = 1.0  # duplicated column: Gram [[1,1],[1,1]], eigenvalues {0,2}
    assert rip_constant(dup, 2).delta == pytest.approx(1.0, abs=1e-12)


def test_rip_constant_complex_and_budget():
    op = FjltOperator.from_seed(0, 32, 24)
    psi = materialize_operator(op)
    report = rip_constant(psi, 4)
    assert report.supports_checked == math.comb(32, 4)
    assert 0 < report.delta < 1
    with pytest.raises(ResourceLimitError):
        rip_constant(psi, 8, max_supports=1000)


def test_rip_constant_is_tight():
    # the measured level is achieved by some support and never exceeded
    rng = np.random.default_rng(1)
    psi = rng.standard_normal((6, 8)) / np.sqrt(6)
    order = 3
    report = rip_constant(psi, order)
    worst = 0.0
    for idx in itertools.combinations(range(8), order):
        sub = psi[:, idx]
        dev = np.abs(np.linalg.eigvalsh(sub.T @ sub - np.eye(order))).max()
        worst = max(worst, dev)
    assert report.delta == pytest.approx(worst, rel=1e-12)
    # every sparse vector on every support is embedded within (1 +- delta)
    for idx in itertools.combinations(range(8), order):
        for _ in range(5):
            x = rng.standard_normal(order)
            lhs = np.linalg.norm(psi[:, idx] @ x) ** 2
            assert abs(lhs - x @ x) <= (report.delta + 1e-12) * (x @ x)


def test_quadratic_form_identity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        psi = rng.standard_normal((8, 16))
        x = rng.standard_normal(16)
        zeta = rademacher(16, rng)
        val = distortion_quadratic_form(psi, x, zeta)
        direct = float(np.linalg.norm(psi @ (zeta.signs * x)) ** 2 - x @ x)
        assert abs(val - direct) <= 1e-10 * max(1.0, abs(direct))


def test_quadratic_form_orthonormal_and_all_ones():
    from kfjlt.transforms import SignVector

    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((16, 16)))
    x = rng.standard_normal(16)
    zeta = rademacher(16, rng)
    assert abs(distortion_quadratic_form(q, x, zeta)) <= 1e-10
    ones = SignVector(np.ones(16))
    psi = rng.standard_normal((6, 16))
    val = distortion_quadratic_form(psi, x, ones)
    assert val == pytest.approx(float(np.linalg.norm(psi @ x) ** 2 - x @ x), rel=1e-10)


def test_hoeffding_examples():
    # t above the l1 norm: the event is impossible
    rep = hoeffding_tail_check(np.ones(4), t=5.0)
    assert rep.exact and rep.frequency == 0.0
    # x = e_1, t = 0.5: |xi_1| = 1 > 0.5 always; the bound exceeds 1
    rep = hoeffding_tail_check(np.eye(5)[0], t=0.5)
    assert rep.exact and rep.frequency == 1.0
    assert rep.bound == pytest.approx(2 * math.exp(-1 / 8))
    assert rep.passes


def test_hoeffding_monte_carlo_and_enumeration_agree():
    x = np.ones(20)
    rep = hoeffding_tail_check(x, t=10.0, trials=100_000, rng=np.random.default_rng(4))
    assert not rep.exact
    # exact tail for ones(20): 2 P(Binom(20,1/2) <= 4)
    exact_prob = 2 * sum(math.comb(20, k) for k in range(5)) / 2**20
    assert abs(rep.frequency - exact_prob) <= rep.radius + 1e-12
    assert rep.frequency <= rep.bound + rep.radius
    # cross-check at n=10 where full enumeration is available
    small = hoeffding_tail_check(np.ones(10), t=6.0)
    exact_prob_10 = 2 * sum(math.comb(10, k) for k in range(2)) / 2**10
    assert small.exact and small.frequency == pytest.approx(exact_prob_10)


def test_hoeffding_validation():
    with pytest.raises(ValueError):
        hoeffding_tail_check(np.zeros(4), t=1.0)
    with pytest.raises(ValueError):
        hoeffding_tail_check(np.ones(4), t=0.0)


def test_hanson_wright_examples():
    rep = hanson_wright_tail_check(np.zeros((3, 3)), t=1.0)
    assert rep.frequency == 0.0 and rep.bound == 0.0
    # n=2 swap matrix: |2 xi_1 xi_2| = 2 > 1 always; bound stays above 1
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    rep = hanson_wright_tail_check(swap, t=1.0)
    assert rep.exact and rep.frequency == 1.0
    assert rep.bound == pytest.approx(2 * math.exp(-min(0.5, 96 / 65) / 64))
    assert rep.bound >= 1.0 and rep.passes


def test_hanson_wright_enumeration_near_knee():
    rng = np.random.default_rng(5)
    mat = rng.standard_normal((10, 10))
    mat = mat + mat.T
    np.fill_diagonal(mat, 0.0)
    fro = float(np.linalg.norm(mat, "fro"))
    spec = float(np.linalg.norm(mat, 2))
    knee = (96 / 65) * fro * fro / spec  # where the two regimes cross
    for t in (0.5 * knee, knee, 2 * knee):
        rep = hanson_wright_tail_check(mat, t=t)
        assert rep.exact and rep.frequency <= rep.bound


def test_hanson_wright_validation():
    with pytest.raises(ValueError):
        hanson_wright_tail_check(np.eye(3), t=1.0)  # nonzero diagonal
    with pytest.raises(ValueError):
        hanson_wright_tail_check(np.zeros((2, 3)), t=1.0)


def test_block_norms_sparse_x_trivial():
    # x supported on at most s entries: the coupling matrix vanishes
    rng = np.random.default_rng(6)
    op = FjltOperator.from_seed(1, 16, 12)
    psi = complexify(materialize_operator(op))
    x = np.zeros(8)
    x[:3] = rng.standard_normal(3)
    y = rng.standard_normal(8)
    rep = block_norm_bounds_check(psi[:, :8], psi[:, 8:], x, y, s=3, delta=0.9)
    assert rep.c_spectral == 0.0 and rep.c_frobenius == 0.0
    assert rep.passes


def test_block_norms_orthonormal_stack_all_zero():
    # disjoint orthonormal column blocks: delta = 0 and all quantities vanish
    psi = np.eye(12)
    rep = block_norm_bounds_check(psi[:, :6], psi[:, 6:], np.ones(6), np.ones(6), s=2)
    assert rep.delta <= 1e-12
    assert max(rep.c_spectral, rep.c_frobenius, rep.v_norm, rep.w_abs) <= 1e-12
    assert rep.passes


def test_block_norms_random_instances_hold():
    rng = np.random.default_rng(7)
    n, s = 8, 2
    op = FjltOperator.from_seed(2, 2 * n, 12)
    psi = complexify(materialize_operator(op))
    delta = rip_constant(psi, 2 * s).delta
    for _ in range(25):
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        b = rng.choice([-1.0, 1.0], s)
        d = rng.choice([-1.0, 1.0], n)
        rep = block_norm_bounds_check(psi[:, :n], psi[:, n:], x, y, s, b, d, delta=delta)
        assert rep.passes, rep.checks()
    # the all-ones extreme for b and d
    rep = block_norm_bounds_check(psi[:, :n], psi[:, n:], x, y, s, delta=delta)
    assert rep.passes


def test_block_sorting_tie_break_is_stable():
    from kfjlt.testkit import _magnitude_blocks

    labels = _magnitude_blocks(np.array([1.0, -1.0, 1.0, 0.5]), s=2)
    # equal magnitudes keep ascending index order: indices 0,1 first block
    assert np.array_equal(labels, [0, 0, 1, 1])


def test_block_norms_validation():
    with pytest.raises(ValueError):
        block_norm_bounds_check(np.eye(4), np.eye(4), np.ones(4), np.ones(4), s=5)


def test_gaussian_jlt():
    assert np.array_equal(gaussian_jlt_apply(0, 4, 3, np.zeros(3)), np.zeros(4))
    # unbiasedness: E ||Phi x||^2 = ||x||^2 over fresh draws
    rng = np.random.default_rng(8)
    x = rng.standard_normal(6)
    vals = np.empty(20_000)
    for i in range(vals.size):
        y = gaussian_jlt_apply((9, i), 4, 6, x)
        vals[i] = y @ y
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - x @ x) <= 4 * se
    # m = n = 1: output/x is standard normal
    draws = np.array([gaussian_jlt_apply((10, i), 1, 1, np.array([2.0]))[0] / 2.0 for i in range(20_000)])
    assert abs(draws.var(ddof=1) - 1.0) <= 0.05


def test_verify_suite_all_pass():
    results = verify_suite(seed=0)
    assert results and all(r.passed for r in results)


def test_rip_full_width_equals_gram_deviation():
    rng = np.random.default_rng(9)
    psi = rng.standard_normal((10, 6)) / np.sqrt(10)
    report = rip_constant(psi, 6)
    direct = float(np.linalg.norm(psi.T @ psi - np.eye(6), 2))
    assert report.delta == pytest.approx(direct, rel=1e-12)
    q, _ = np.linalg.qr(rng.standard_normal((10, 6)))
    assert rip_constant(q, 6).delta <= 1e-12
