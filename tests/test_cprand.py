import math
import tracemalloc

import numpy as np
import pytest

from kfjlt.cprand import (
    CpModel,
    _gather_unfolding_rows,
    _residual_norm,
    DenseTensor,
    cp_als,
    cp_als_sweep,
    cp_als_update_mode,
    cprand_mix,
    cprand_mix_sweep,
    fit,
    khatri_rao_all_but,
    mix_tensor,
    objective,
    random_model,
    reconstruct,
    unfold,
)
from kfjlt.kron import KroneckerVector, ResourceLimitError, Shape, khatri_rao, kron_materialize
from kfjlt.sketch_ls import KrlsProblem, solve_sketched_ls
from kfjlt.transforms import KfjltOperator, materialize_operator, rademacher


def tensor_from_range(dims):
    shape = Shape(dims)
    return DenseTensor(shape, np.arange(shape.total, dtype=np.float64))


def fold(mat, mode, shape):
    """Inverse of ``unfold``: the mode-k fibres back in place."""
    rest = shape.dims[: mode - 1] + shape.dims[mode:]
    arr = np.moveaxis(np.asarray(mat).reshape((shape.dims[mode - 1],) + rest, order="F"), 0, mode - 1)
    return DenseTensor(shape, arr.reshape(-1, order="F"))


# Exact and sketched CP share one ALS loop; m=8 samples fewer rows than any
# mode's full system at shape (5, 4, 3).
ALS_RUNS = {
    "cp_als": lambda t, **kw: cp_als(t, 2, seed=0, **kw),
    "cprand_mix": lambda t, **kw: cprand_mix(t, 2, m=8, seed=0, **kw),
}


def test_unfold_examples():
    t1 = tensor_from_range((5,))
    assert np.array_equal(unfold(t1, 1), np.arange(5.0)[:, None])
    t = tensor_from_range((2, 2, 2))
    assert np.array_equal(unfold(t, 2), [[0, 1, 4, 5], [2, 3, 6, 7]])
    assert np.array_equal(unfold(t, 1), [[0, 2, 4, 6], [1, 3, 5, 7]])
    assert np.array_equal(unfold(t, 3), [[0, 1, 2, 3], [4, 5, 6, 7]])
    with pytest.raises(ValueError):
        unfold(t, 4)
    with pytest.raises(ValueError, match="^mode 1.0 is not an integer$"):
        unfold(t, 1.0)


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


def test_reconstruct_bitwise_matches_multiply_outer():
    rng = np.random.default_rng(23)
    for dims in [(5,), (3, 4), (2, 3, 4), (3, 1, 2, 4)]:
        model = random_model(Shape(dims), 3, rng)
        ref = np.zeros(math.prod(dims))
        for r in range(3):
            term = model.factors[0][:, r]
            for a in model.factors[1:]:
                term = np.multiply.outer(a[:, r], term).reshape(-1)
            ref += term
        assert np.array_equal(reconstruct(model).data, ref)


def test_gather_unfolding_rows_bitwise_matches_unfolding():
    rng = np.random.default_rng(24)
    for dims in [(5,), (3, 4), (2, 3, 4), (3, 1, 2, 4)]:
        shape = Shape(dims)
        t = DenseTensor(shape, rng.standard_normal(shape.total) + 1j * rng.standard_normal(shape.total))
        for mode in range(1, len(dims) + 1):
            rows = rng.integers(0, shape.total // dims[mode - 1], size=7)
            got = _gather_unfolding_rows(t, mode, rows)
            assert np.array_equal(got, unfold(t, mode).T[rows])


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


@pytest.mark.parametrize("run", ALS_RUNS.values(), ids=ALS_RUNS.keys())
def test_als_takes_one_slab_residual_per_sweep_and_never_rebuilds(monkeypatch, run):
    rng = np.random.default_rng(25)
    shape = Shape((5, 4, 3))
    t = DenseTensor(shape, rng.standard_normal(shape.total))
    calls = []

    def counting_residual(*args):
        calls.append(args)
        return _residual_norm(*args)

    def no_rebuild(model):
        raise AssertionError("the ALS loop rebuilt the N-entry model")

    monkeypatch.setattr("kfjlt.cprand._residual_norm", counting_residual)
    monkeypatch.setattr("kfjlt.cprand.reconstruct", no_rebuild)
    result = run(t, max_sweeps=10, fit_tol=0.0)
    assert result.sweeps_run >= 2
    assert len(calls) == result.sweeps_run
    monkeypatch.undo()
    assert result.fits[-1] == fit(t, result.model)


@pytest.mark.parametrize(
    "dims, rank",
    [((7,), 3), ((7,), 1), ((4, 5), 2), ((1, 6), 2), ((6, 1), 3), ((4, 3, 5), 3), ((1, 3, 4), 2),
     ((4, 3, 1), 2), ((3, 4, 5), 1), ((3, 2, 4, 5), 2), ((1, 2, 3, 1), 3),
     ((64, 70, 3), 2), ((3, 2, 1000), 2), ((2, 3000), 3)],
)
def test_slab_residual_matches_the_reconstructed_model(dims, rank):
    # the slab edge cases: d = 1..4, n_1 = 1, n_d = 1 and rank 1; slabs long
    # enough to go one by one, and short slabs in blocks with a partial last one
    rng = np.random.default_rng(sum(dims) + 100 * rank)
    shape = Shape(dims)
    t = DenseTensor(shape, rng.standard_normal(shape.total))
    model = random_model(shape, rank, rng)
    residual = np.linalg.norm(t.data - reconstruct(model).data)
    assert fit(t, model) == pytest.approx(1.0 - residual / t.norm(), rel=1e-13)
    assert objective(t, model) == pytest.approx(residual**2, rel=1e-13)


def test_cp_runs_above_the_materialization_cap(monkeypatch):
    # neither ALS method forms the N-entry model, so the cap does not bound them
    monkeypatch.setattr("kfjlt.kron.DEFAULT_MATERIALIZE_CAP", 100)
    rng = np.random.default_rng(27)
    factors = [rng.standard_normal((n, 2)) for n in (6, 5, 4)]
    x = np.einsum("ir,jr,kr->ijk", *factors)
    t = DenseTensor(Shape((6, 5, 4)), x.reshape(-1, order="F"))
    with pytest.raises(ResourceLimitError):
        reconstruct(CpModel(tuple(factors)))
    for result in (cprand_mix(t, 2, m=12, seed=0, max_sweeps=10), cp_als(t, 2, seed=0, max_sweeps=10)):
        model = np.einsum("ir,jr,kr->ijk", *result.model.factors)
        dense_fit = 1.0 - np.linalg.norm(x - model) / np.linalg.norm(x)
        assert result.fits[-1] == pytest.approx(dense_fit, abs=1e-12)


@pytest.mark.parametrize("run", ALS_RUNS.values(), ids=ALS_RUNS.keys())
def test_stop_rule_edges(run):
    rng = np.random.default_rng(26)
    shape = Shape((5, 4, 3))
    t = DenseTensor(shape, rng.standard_normal(shape.total))
    # the first sweep beats -inf by inf, so an infinite tolerance stops at the second
    strict = run(t, max_sweeps=10, fit_tol=np.inf)
    assert strict.sweeps_run == 2 and strict.converged
    # ... unless max_sweeps ends the run first, which is not convergence
    single = run(t, max_sweeps=1, fit_tol=np.inf)
    assert single.sweeps_run == 1 and not single.converged
    # no sweep can fail to beat the previous fit by -inf
    endless = run(t, max_sweeps=4, fit_tol=-np.inf)
    assert endless.sweeps_run == 4 and not endless.converged
    for result in (strict, single, endless):
        assert result.sweeps_run == len(result.fits) == len(result.sweep_seconds)


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
    sub = Shape((3, 2))  # the modes other than 2
    rows = rng.integers(0, sub.total, size=5)
    op = KfjltOperator(sub, tuple(s for j, s in enumerate(signs, 1) if j != mode), rows)
    scale = op.scale
    assert scale == float(np.sqrt(sub.total / rows.size))
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
    rows = [np.arange(shape.total // n) for n in shape.dims]
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
    sub = Shape((4, 2))  # the modes other than 1
    rows1 = rng.integers(0, sub.total, size=6)
    model, _ = cprand_mix_sweep(
        mixed,
        init,
        signs,
        [rows1, np.arange(3 * 2), np.arange(3 * 4)],
    )
    op = KfjltOperator(sub, (signs[1], signs[2]), rows1)
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


def test_dense_tensor_validation():
    with pytest.raises(ValueError):
        DenseTensor(Shape((2, 3)), np.zeros(5))
    t = DenseTensor(Shape((2, 3)), np.array([0.0, 3.0, 1.0, 4.0, 2.0, 5.0]))
    assert np.array_equal(t.as_array(), np.arange(6.0).reshape(2, 3))


def test_cp_rejects_bad_rank_m_and_init_before_any_work(monkeypatch):
    rng = np.random.default_rng(14)
    shape = Shape((4, 4, 4))
    t = reconstruct(random_model(shape, 2, rng))
    rank_two = random_model(shape, 2, rng)
    wrong_shape = random_model(Shape((4, 4, 5)), 3, rng)
    nan, inf = t.data.copy(), t.data.copy()
    nan[17], inf[5] = np.nan, -np.inf
    inf_factor = np.ones((4, 2))
    inf_factor[3, 1] = np.inf

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
        (lambda: cprand_mix(t, 3, 10, max_sweeps=0), "max_sweeps must be >= 1, got 0"),
        (lambda: cp_als(t, 3, max_sweeps=0), "max_sweeps must be >= 1, got 0"),
        (lambda: cp_als(t, 2.5), "^rank 2.5 is not an integer$"),
        (lambda: cp_als(t, 2, max_sweeps=2.5), "^max_sweeps 2.5 is not an integer$"),
        (lambda: cprand_mix(t, 2, 2.5), "^m 2.5 is not an integer$"),
        (lambda: cprand_mix(t, True, 20), "^rank True is not an integer$"),
        (lambda: random_model(Shape((3, 3)), 2.5, rng), "^rank 2.5 is not an integer$"),
        (lambda: cp_als(t, 2, fit_tol=np.nan), "^fit_tol must not be NaN, got nan$"),
        (lambda: cprand_mix(t, 2, 10, fit_tol=np.nan), "^fit_tol must not be NaN, got nan$"),
        (lambda: cprand_mix(DenseTensor(shape, np.zeros(64)), 2, 10), r"zero tensor of shape \(4, 4, 4\)"),
        (lambda: cp_als(DenseTensor(shape, np.zeros(64)), 2), r"zero tensor of shape \(4, 4, 4\)"),
        (lambda: cprand_mix(DenseTensor(shape, nan), 2, 10), r"\(4, 4, 4\).* nan at linear index 17$"),
        (lambda: cp_als(DenseTensor(shape, nan), 2), r"\(4, 4, 4\).* nan at linear index 17$"),
        (lambda: cprand_mix(DenseTensor(shape, inf), 2, 10), r"\(4, 4, 4\).* -inf at linear index 5$"),
        (lambda: cp_als(DenseTensor(shape, inf), 2), r"\(4, 4, 4\).* -inf at linear index 5$"),
        # a non-finite init cannot be built, so neither ALS can start from one
        (lambda: CpModel((np.array([[np.nan]]),)), r"^factor A_1 holds nan at index \(0, 0\)$"),
        (lambda: rank_two.replace_factor(2, inf_factor), r"^factor A_2 holds inf at index \(3, 1\)$"),
    ]
    for call, match in cases:
        with pytest.raises(ValueError, match=match):
            call()
