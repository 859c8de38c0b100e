import itertools
import math

import numpy as np
import pytest

from kfjlt import cprand, sketch_ls, transforms
from kfjlt.cli import main
from kfjlt.cprand import CpModel
from kfjlt.kron import ResourceLimitError, Shape
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
from kfjlt.transforms import FjltOperator, KfjltOperator, materialize_operator, rademacher


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
    with pytest.raises(ValueError, match="^order 2.5 is not an integer$"):
        rip_constant(psi, 2.5)
    with pytest.raises(ValueError, match="^order True is not an integer$"):
        rip_constant(psi, True)
    nan = np.eye(6)
    nan[2, 4] = np.nan
    with pytest.raises(ValueError, match=r"^psi holds nan at index \(2, 4\)$"):
        rip_constant(nan, 2)


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


def _brute_force_rip(psi, order):
    psi = complexify(psi) if np.iscomplexobj(psi) else psi
    gram = psi.T @ psi - np.eye(psi.shape[1])
    return max(
        float(np.abs(np.linalg.eigvalsh(gram[np.ix_(idx, idx)])).max())
        for idx in itertools.combinations(range(psi.shape[1]), order)
    )


def _signed_circulant_psi(n, rng, perturb=0.0):
    """A matrix whose Gram deviation is a random symmetric circulant with a
    negative first off-diagonal, under random signs (plus an optional
    perturbation of one symmetric pair)."""
    c = 0.05 * rng.standard_normal(n)
    c = (c + c[(-np.arange(n)) % n]) / 2
    c[0], c[1], c[-1] = 0.0, -0.04, -0.04
    circ = c[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]
    signs = rng.choice([-1.0, 1.0], n)
    gram = signs[:, None] * circ * signs[None, :]
    gram[2, 5] += perturb
    gram[5, 2] += perturb
    return np.linalg.cholesky(np.eye(n) + gram).T


def _necklaces(n, k):
    """Cyclic orbits of the k-subsets of n points (fixed-density necklaces):
    ``(1/n) sum_{d | gcd(n, k)} phi(d) C(n/d, k/d)``."""
    g = math.gcd(n, k)
    phi = [sum(math.gcd(j, d) == 1 for j in range(1, d + 1)) for d in range(g + 1)]
    return sum(phi[d] * math.comb(n // d, k // d) for d in range(1, g + 1) if g % d == 0) // n


@pytest.mark.parametrize("n", [11, 12])
@pytest.mark.parametrize("replacement", [True, False])
def test_rip_shift_shortcut_matches_brute_force(n, replacement):
    order = 3
    psi = materialize_operator(FjltOperator.from_seed((n, replacement), n, 7, replacement))
    ref = _brute_force_rip(psi, order)
    for mat in (psi, complexify(psi)):
        report = rip_constant(mat, order)
        assert abs(report.delta - ref) <= 1e-12
        assert report.supports_checked == math.comb(n, order)
        assert report.supports_enumerated == _necklaces(n, order)


@pytest.mark.parametrize("order, orbits", [(4, 43), (6, 80)])
def test_rip_shift_shortcut_periodic_orbits(order, orbits):
    # n = 12 shares a factor with each order, so some orbits are periodic,
    # e.g. {0, 3, 6, 9} has 3 shifts, not 12; each orbit is decomposed once
    psi = materialize_operator(FjltOperator.from_seed(12, 12, 7))
    ref = _brute_force_rip(psi, order)
    for mat in (psi, complexify(psi)):
        report = rip_constant(mat, order)
        assert abs(report.delta - ref) <= 1e-12
        assert report.supports_checked == math.comb(12, order)
        assert report.supports_enumerated == _necklaces(12, order) == orbits


@pytest.mark.parametrize("order", [1, 2, 9])
def test_rip_shift_shortcut_extreme_orders(order):
    # order 1 is a single support {0}; order == n is the single full support
    psi = materialize_operator(FjltOperator.from_seed(9, 9, 5))
    for mat in (psi, complexify(psi)):
        report = rip_constant(mat, order)
        assert abs(report.delta - _brute_force_rip(mat, order)) <= 1e-12
        assert report.supports_enumerated == _necklaces(9, order) == {1: 1, 2: 4, 9: 1}[order]


def test_rip_shift_shortcut_on_signed_circulant_odd_n():
    # odd n with a negative first off-diagonal: only the sigma = -1 walk fits
    psi = _signed_circulant_psi(9, np.random.default_rng(3))
    report = rip_constant(psi, 3)
    assert report.supports_enumerated == _necklaces(9, 3)
    assert abs(report.delta - _brute_force_rip(psi, 3)) <= 1e-12


def test_rip_full_enumeration_when_not_circulant():
    rng = np.random.default_rng(4)
    zero_superdiag = rng.standard_normal((6, 9)) / np.sqrt(6)
    zero_superdiag[:3, 0] = zero_superdiag[3:, 1] = 0.0  # columns 0 and 1 exactly orthogonal
    zero_superdiag /= np.linalg.norm(zero_superdiag, axis=0)  # and a zero Gram diagonal
    cases = [
        rng.standard_normal((6, 9)) / np.sqrt(6),
        zero_superdiag,
        materialize_operator(KfjltOperator.from_seed(0, Shape((3, 4)), 8)),
        _signed_circulant_psi(9, np.random.default_rng(3), perturb=1e-9),
    ]
    for psi in cases:
        report = rip_constant(psi, 3)
        n = report.cols
        assert report.supports_enumerated == report.supports_checked == math.comb(n, 3)
        assert abs(report.delta - _brute_force_rip(psi, 3)) <= 1e-12


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


def test_quadratic_form_refuses_non_sign_zeta_and_non_vector_x():
    rng = np.random.default_rng(4)
    psi = rng.standard_normal((6, 16))
    x = rng.standard_normal(16)
    # the identity holds only for +-1 entries
    with pytest.raises(ValueError, match=r"signs must be a 1-D vector of \+-1 entries"):
        distortion_quadratic_form(psi, x, np.full(16, 0.5))
    with pytest.raises(ValueError, match=r"^x must be a 1-D vector, got shape \(16, 2\)$"):
        distortion_quadratic_form(psi, np.ones((16, 2)), np.ones(16))


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
    # sampling needs at least one draw; exact enumeration needs none
    with pytest.raises(ValueError, match="trials must be >= 1.*got 0"):
        hoeffding_tail_check(np.ones(20), t=1.0, trials=0)
    assert hoeffding_tail_check(np.ones(4), t=1.0, trials=0).exact
    with pytest.raises(ValueError, match="^trials 2.5 is not an integer$"):
        hoeffding_tail_check(np.ones(20), t=1.0, trials=2.5, rng=0)
    with pytest.raises(ValueError, match="^threshold must be positive, got nan$"):
        hoeffding_tail_check(np.ones(4), t=np.nan)
    with pytest.raises(ValueError, match="^x holds nan at linear index 2$"):
        hoeffding_tail_check(np.array([1.0, 1.0, np.nan, 1.0]), t=1.0)


def test_monte_carlo_tail_draw_is_bounded_before_drawing(monkeypatch):
    monkeypatch.setattr("kfjlt.testkit.MONTE_CARLO_SIGN_LIMIT", 20 * 10)
    # exactly at the bound the draw runs
    assert not hoeffding_tail_check(np.ones(20), t=1.0, trials=10, rng=0).exact

    def no_draw(*args):
        raise AssertionError("signs were drawn before the bound was checked")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ResourceLimitError, match=r"^11 trials x n=20 signs exceed the Monte Carlo bound 200; "):
        hoeffding_tail_check(np.ones(20), t=1.0, trials=11)
    with pytest.raises(ResourceLimitError, match="13 trials x n=16 signs exceed the Monte Carlo bound 200"):
        hanson_wright_tail_check(np.zeros((16, 16)), t=1.0, trials=13)


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
    with pytest.raises(ValueError, match="trials must be >= 1.*got 0"):
        hanson_wright_tail_check(np.zeros((16, 16)), t=1.0, trials=0)
    assert hanson_wright_tail_check(np.zeros((3, 3)), t=1.0, trials=0).exact
    with pytest.raises(ValueError, match="^trials 2.5 is not an integer$"):
        hanson_wright_tail_check(np.zeros((16, 16)), t=1.0, trials=2.5, rng=0)
    with pytest.raises(ValueError, match="^threshold must be positive, got nan$"):
        hanson_wright_tail_check(np.zeros((3, 3)), t=np.nan)
    swap_nan = np.array([[0.0, np.nan], [1.0, 0.0]])
    with pytest.raises(ValueError, match=r"^X holds nan at index \(0, 1\)$"):
        hanson_wright_tail_check(swap_nan, t=1.0)


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
    delta = rip_constant(psi, 4).delta
    rep = block_norm_bounds_check(psi[:, :6], psi[:, 6:], np.ones(6), np.ones(6), s=2, delta=delta)
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
        block_norm_bounds_check(np.eye(4), np.eye(4), np.ones(4), np.ones(4), s=5, delta=0.0)
    with pytest.raises(TypeError, match="delta"):  # the RIP level is never guessed
        block_norm_bounds_check(np.eye(4), np.eye(4), np.ones(4), np.ones(4), s=2)
    with pytest.raises(ValueError, match="^block size s 2.5 is not an integer$"):
        block_norm_bounds_check(np.eye(4), np.eye(4), np.ones(4), np.ones(4), s=2.5, delta=0.0)


def test_gaussian_jlt():
    assert np.array_equal(gaussian_jlt_apply(0, 4, np.zeros(3)), np.zeros(4))
    with pytest.raises(ValueError, match="^m 2.5 is not an integer$"):
        gaussian_jlt_apply(0, 2.5, np.zeros(3))
    with pytest.raises(ValueError, match=r"expected a nonempty 1-D vector, got shape \(3, 1\)"):
        gaussian_jlt_apply(0, 4, np.zeros((3, 1)))
    # unbiasedness: E ||Phi x||^2 = ||x||^2 over fresh draws
    rng = np.random.default_rng(8)
    x = rng.standard_normal(6)
    vals = np.empty(20_000)
    for i in range(vals.size):
        y = gaussian_jlt_apply((9, i), 4, x)
        vals[i] = y @ y
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - x @ x) <= 4 * se
    # m = n = 1: output/x is standard normal
    draws = np.array([gaussian_jlt_apply((10, i), 1, np.array([2.0]))[0] / 2.0 for i in range(20_000)])
    assert abs(draws.var(ddof=1) - 1.0) <= 0.05


def test_gaussian_jlt_checks_the_cap(monkeypatch):
    monkeypatch.setattr("kfjlt.kron.DEFAULT_MATERIALIZE_CAP", 4 * 6 - 1)
    with pytest.raises(ResourceLimitError, match="dense Gaussian sketch of size 24 exceeds the cap 23"):
        gaussian_jlt_apply(0, 4, np.ones(6))
    monkeypatch.setattr("kfjlt.kron.DEFAULT_MATERIALIZE_CAP", 4 * 6)
    assert gaussian_jlt_apply(0, 4, np.ones(6)).shape == (4,)


def test_verify_suite_all_pass():
    results = verify_suite(seed=0)
    assert results and all(r.passed for r in results)


@pytest.mark.parametrize("module, name", [
    (transforms, "kfjlt_apply_kron"),
    (transforms, "kfjlt_apply_dense"),
    (sketch_ls, "sketch_khatri_rao"),
    (transforms, "factored_apply"),
    (cprand, "cprand_mix_sweep"),
])
def test_verify_fails_on_a_nan_fast_path(monkeypatch, capsys, module, name):
    fast = getattr(module, name)
    if module is cprand:  # CpModel refuses NaN, so the broken sweep doubles every factor
        check, err = "cp-sweep-oracle", "1.00e+00"
        monkeypatch.setattr(module, name, lambda *args: (CpModel(tuple(2.0 * a for a in fast(*args)[0].factors)), 0))
    else:
        check, err = "oracle-equivalence", "nan"
        monkeypatch.setattr(module, name, lambda *args: np.full_like(fast(*args), np.nan))
    failed = {r.name for r in verify_suite(seed=0) if not r.passed}
    assert check in failed
    assert main(["verify"]) == 1
    assert f"[FAIL] {check} (max rel err {err})" in capsys.readouterr().out


def test_rip_full_width_equals_gram_deviation():
    rng = np.random.default_rng(9)
    psi = rng.standard_normal((10, 6)) / np.sqrt(10)
    report = rip_constant(psi, 6)
    direct = float(np.linalg.norm(psi.T @ psi - np.eye(6), 2))
    assert report.delta == pytest.approx(direct, rel=1e-12)
    q, _ = np.linalg.qr(rng.standard_normal((10, 6)))
    assert rip_constant(q, 6).delta <= 1e-12
