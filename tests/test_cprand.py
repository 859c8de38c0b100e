import tracemalloc

import numpy as np
import pytest

from kfjlt.cprand import (
    CpModel,
    DenseTensor,
    cp_als,
    cp_als_sweep,
    cp_als_update_mode,
    cprand_mix,
    cprand_mix_sweep,
    fit,
    fold,
    khatri_rao_all_but,
    load_tensor,
    mix_tensor,
    objective,
    random_model,
    reconstruct,
    save_tensor,
    unfold,
)
from kfjlt.kron import KroneckerVector, Shape, khatri_rao, kron_materialize
from kfjlt.sketch_ls import KrlsProblem, solve_sketched_ls
from kfjlt.transforms import KfjltOperator, materialize_operator, rademacher


def tensor_from_range(dims):
    shape = Shape(dims)
    return DenseTensor(shape, np.arange(shape.total, dtype=np.float64))


def test_unfold_examples():
    t1 = tensor_from_range((5,))
    assert np.array_equal(unfold(t1, 1), np.arange(5.0)[:, None])
    t = tensor_from_range((2, 2, 2))
    assert np.array_equal(unfold(t, 2), [[0, 1, 4, 5], [2, 3, 6, 7]])
    assert np.array_equal(unfold(t, 1), [[0, 2, 4, 6], [1, 3, 5, 7]])
    assert np.array_equal(unfold(t, 3), [[0, 1, 2, 3], [4, 5, 6, 7]])
    with pytest.raises(ValueError):
        unfold(t, 4)


def test_fold_round_trip():
    rng = np.random.default_rng(0)
    for dims in [(3,), (2, 3), (4, 3, 2), (2, 2, 3, 2)]:
        shape = Shape(dims)
        t = DenseTensor(shape, rng.standard_normal(shape.total))
        for mode in range(1, len(dims) + 1):
            assert np.array_equal(fold(unfold(t, mode), mode, shape).data, t.data)


def test_fold_hand_example():
    # 2x3 shape, mode-2 fold of a hand-built matrix
    mat = np.array([[0.0, 2.0], [1.0, 3.0], [5.0, 7.0]])  # 3 x 2, mode-2 unfolding
    t = fold(mat, 2, Shape((2, 3)))
    assert np.array_equal(t.data, [0.0, 2.0, 1.0, 3.0, 5.0, 7.0])
    assert np.array_equal(unfold(t, 2), mat)


def test_khatri_rao_all_but():
    rng = np.random.default_rng(1)
    model = CpModel(tuple(rng.standard_normal((n, 3)) for n in (4, 5)))
    assert np.array_equal(khatri_rao_all_but(model, 2), model.factors[0])
    model3 = CpModel(tuple(rng.standard_normal((n, 2)) for n in (3, 4, 2)))
    for mode in (1, 2, 3):
        z = khatri_rao_all_but(model3, mode)
        rest = [f for j, f in enumerate(model3.factors, 1) if j != mode]
        assert np.array_equal(z, khatri_rao(rest))
    # rank 1: the Kronecker column of the other factor vectors
    model_r1 = CpModel(tuple(rng.standard_normal((n, 1)) for n in (3, 4, 2)))
    z = khatri_rao_all_but(model_r1, 2)
    col = kron_materialize(KroneckerVector((model_r1.factors[0][:, 0], model_r1.factors[2][:, 0])))
    assert np.allclose(z[:, 0], col)


def test_unfolded_model_identity():
    # the unfolded reconstruction factors as A_k Z_k^T, every mode
    rng = np.random.default_rng(2)
    model = CpModel(tuple(rng.standard_normal((n, 3)) for n in (4, 3, 5)))
    t = reconstruct(model)
    for mode in (1, 2, 3):
        lhs = unfold(t, mode)
        rhs = model.factors[mode - 1] @ khatri_rao_all_but(model, mode).T
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))
        assert np.array_equal(fold(rhs, mode, t.shape).data.round(12), t.data.round(12))


def test_reconstruct_peak_memory_independent_of_rank():
    # the working set stays a few length-N arrays however large the rank
    rng = np.random.default_rng(22)
    shape = Shape((40, 40, 40))
    model = random_model(shape, 8, rng)
    tracemalloc.start()
    try:
        reconstruct(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * shape.total


def test_reconstruct_rank_one_basis():
    model = CpModel(tuple(np.eye(n)[:, :1] for n in (3, 4, 2)))
    t = reconstruct(model)
    expected = np.zeros(24)
    expected[0] = 1.0
    assert np.array_equal(t.data, expected)


def test_cp_als_fixed_point_and_descent():
    rng = np.random.default_rng(3)
    shape = Shape((4, 5, 3))
    truth = random_model(shape, 2, rng)
    t = reconstruct(truth)
    # exact model is a fixed point with zero objective
    updated = cp_als_sweep(t, truth)
    assert objective(t, updated) <= 1e-20 * max(1.0, t.norm() ** 2)
    # random init: objective strictly decreases over the first sweep
    init = random_model(shape, 2, rng)
    first = cp_als_sweep(t, init)
    assert objective(t, first) < objective(t, init)


def test_cp_als_monotone_at_every_inner_solve():
    rng = np.random.default_rng(4)
    shape = Shape((6, 5, 4))
    t = DenseTensor(shape, rng.standard_normal(shape.total))
    model = random_model(shape, 3, rng)
    prev = objective(t, model)
    for _ in range(20):
        for mode in (1, 2, 3):
            model, _ = cp_als_update_mode(t, model, mode)
            cur = objective(t, model)
            assert cur <= prev + 1e-10 * max(1.0, prev)
            prev = cur


def test_fit_examples():
    rng = np.random.default_rng(5)
    shape = Shape((4, 4, 4))
    truth = random_model(shape, 2, rng)
    t = reconstruct(truth)
    assert fit(t, truth) == pytest.approx(1.0, abs=1e-12)
    zero = CpModel(tuple(np.zeros((n, 2)) for n in shape.dims))
    assert fit(t, zero) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit(DenseTensor(shape, np.zeros(64)), truth)


def test_exact_als_reaches_high_fit():
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        shape = Shape((10, 10, 10))
        t = reconstruct(random_model(shape, 3, rng))
        result = cp_als(t, 3, seed=seed, max_sweeps=50)
        hits += result.fits[-1] >= 0.999
    assert hits >= 9


def test_mix_tensor_identity_and_isometry():
    ones = [rademacher(1, np.random.default_rng(0)) for _ in range(3)]
    t = DenseTensor(Shape((1, 1, 1)), np.array([2.5]))
    assert np.allclose(mix_tensor(t, ones).data, [2.5])
    rng = np.random.default_rng(6)
    shape = Shape((4, 4, 4))
    for _ in range(10):
        t = DenseTensor(shape, rng.standard_normal(64))
        signs = [rademacher(4, rng) for _ in range(3)]
        mixed = mix_tensor(t, signs)
        assert np.linalg.norm(mixed.data) == pytest.approx(t.norm(), rel=1e-12)


def test_mixed_unfolding_unmixes_to_sketched_rhs():
    # sampling the mixed unfolding then inverse-DFT + sign flip along mode k
    # equals applying the other-modes operator to the plain unfolding
    rng = np.random.default_rng(7)
    dims = (3, 4, 2)
    shape = Shape(dims)
    t = DenseTensor(shape, rng.standard_normal(shape.total))
    signs = [rademacher(n, rng) for n in dims]
    mixed = mix_tensor(t, signs)
    mode = 2
    sub = shape.drop(mode)
    rows = rng.integers(0, sub.total, size=5)
    scale = float(np.sqrt(sub.total / rows.size))
    op = KfjltOperator(
        sub, tuple(s for j, s in enumerate(signs, 1) if j != mode), rows, scale
    )
    lhs = materialize_operator(op) @ unfold(t, mode).T
    sampled = unfold(mixed, mode).T[rows]
    rhs = scale * np.fft.ifft(sampled, axis=1, norm="ortho") * signs[mode - 1].signs[None, :]
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(lhs)


def test_exhaustive_sweep_matches_exact_als():
    rng = np.random.default_rng(9)
    shape = Shape((4, 5, 3))
    t = DenseTensor(shape, rng.standard_normal(shape.total))
    init = random_model(shape, 2, rng)
    signs = [rademacher(n, rng) for n in shape.dims]
    mixed = mix_tensor(t, signs)
    rows = [np.arange(shape.drop(mode).total) for mode in (1, 2, 3)]
    sketched, degenerate = cprand_mix_sweep(mixed, init, signs, rows)
    exact = cp_als_sweep(t, init)
    assert degenerate == 0
    for a, b in zip(sketched.factors, exact.factors):
        assert np.abs(a - b).max() <= 1e-8


def test_sketched_mode_solve_matches_sketch_ls():
    # the first inner solve of a sweep equals solve_sketched_ls on the
    # equivalent Khatri-Rao problem with the same rows and signs
    rng = np.random.default_rng(10)
    shape = Shape((3, 4, 2))
    t = DenseTensor(shape, rng.standard_normal(shape.total))
    init = random_model(shape, 2, rng)
    signs = [rademacher(n, rng) for n in shape.dims]
    mixed = mix_tensor(t, signs)
    sub = shape.drop(1)
    rows1 = rng.integers(0, sub.total, size=6)
    model, _ = cprand_mix_sweep(
        mixed,
        init,
        signs,
        [rows1, np.arange(shape.drop(2).total), np.arange(shape.drop(3).total)],
    )
    op = KfjltOperator(sub, (signs[1], signs[2]), rows1, float(np.sqrt(sub.total / 6)))
    problem = KrlsProblem((init.factors[1], init.factors[2]), unfold(t, 1).T)
    result = solve_sketched_ls(problem, op)
    assert np.allclose(model.factors[0], result.solution.T, atol=1e-10)


def test_cprand_mix_rank_one_recovery():
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        shape = Shape((8, 8, 8))
        t = reconstruct(random_model(shape, 1, rng))
        result = cprand_mix(t, 1, m=48, seed=seed, max_sweeps=10, fit_tol=0.0)
        hits += result.fits[-1] >= 0.99
    assert hits >= 8


def test_cprand_oversampling_clamps_to_exact():
    # m at least the per-mode system height: the run reproduces exact ALS
    rng = np.random.default_rng(21)
    shape = Shape((4, 4, 4))
    t = reconstruct(random_model(shape, 2, rng))
    init = random_model(shape, 2, rng)
    sk = cprand_mix(t, 2, m=16, seed=1, init=init, max_sweeps=6, fit_tol=0.0)
    als = cp_als(t, 2, init=init, max_sweeps=6, fit_tol=0.0)
    assert np.allclose(sk.fits, als.fits, atol=1e-8)


def test_cprand_exhaustive_matches_als_trajectory():
    rng = np.random.default_rng(11)
    shape = Shape((5, 4, 3))
    t = reconstruct(random_model(shape, 2, rng))
    init = random_model(shape, 2, rng)
    als = cp_als(t, 2, init=init, max_sweeps=8, fit_tol=0.0)
    # m at least the largest per-mode height (20) samples every row once
    sketched = cprand_mix(t, 2, m=20, seed=3, init=init, max_sweeps=8, fit_tol=0.0)
    assert np.allclose(als.fits, sketched.fits, atol=1e-6)


def test_cprand_degenerate_flag():
    rng = np.random.default_rng(12)
    shape = Shape((4, 4, 4))
    t = reconstruct(random_model(shape, 3, rng))
    result = cprand_mix(t, 3, m=2, seed=0, max_sweeps=1, fit_tol=0.0)
    assert result.degenerate_solves > 0


def test_tensor_io_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    shape = Shape((3, 2, 4))
    t = DenseTensor(shape, rng.standard_normal(shape.total))
    for binary in (False, True):
        path = tmp_path / ("t.bin" if binary else "t.txt")
        save_tensor(t, path, binary=binary)
        back = load_tensor(path)
        assert back.shape == t.shape
        assert np.array_equal(back.data, t.data)
    with pytest.raises(ValueError):
        load_tensor(__file__)


def test_dense_tensor_validation():
    with pytest.raises(ValueError):
        DenseTensor(Shape((2, 3)), np.zeros(5))
    arr = np.arange(6.0).reshape(2, 3)
    t = DenseTensor.from_array(arr)
    assert np.array_equal(t.as_array(), arr)
    assert np.array_equal(t.data, [0, 3, 1, 4, 2, 5])


def test_cp_rejects_bad_rank_m_and_init_before_any_work(monkeypatch):
    rng = np.random.default_rng(14)
    shape = Shape((4, 4, 4))
    t = reconstruct(random_model(shape, 2, rng))
    rank_two = random_model(shape, 2, rng)
    wrong_shape = random_model(Shape((4, 4, 5)), 3, rng)

    def no_work(*args):
        raise AssertionError("work started before the input was checked")

    monkeypatch.setattr("kfjlt.cprand.mix_tensor", no_work)
    monkeypatch.setattr("kfjlt.cprand.cp_als_sweep", no_work)
    cases = [
        (lambda: cprand_mix(t, 3, 10, init=rank_two), "rank 2, but rank=3"),
        (lambda: cp_als(t, 3, init=rank_two), "rank 2, but rank=3"),
        (lambda: cprand_mix(t, 3, 10, init=wrong_shape), r"\(4, 4, 5\).*\(4, 4, 4\)"),
        (lambda: cp_als(t, 3, init=wrong_shape), r"\(4, 4, 5\).*\(4, 4, 4\)"),
        (lambda: cprand_mix(t, 3, 0), "m must be >= 1, got 0"),
        (lambda: cprand_mix(t, 0, 10), "rank must be >= 1, got 0"),
        (lambda: cp_als(t, 0), "rank must be >= 1, got 0"),
    ]
    for call, match in cases:
        with pytest.raises(ValueError, match=match):
            call()
