import numpy as np
import pytest

from kfjlt.kron import KroneckerVector, Shape, khatri_rao, kron_materialize
from kfjlt.sketch_ls import (
    KrlsProblem,
    build_sketched_system,
    complexify,
    exact_ls_solution,
    residual_ratio,
    sketch_khatri_rao,
    solve_sketched_ls,
)
from kfjlt.testkit import dense_oracle_apply
from kfjlt.transforms import (
    FjltOperator,
    KfjltOperator,
    fjlt_apply,
    kfjlt_apply_dense,
    kfjlt_apply_kron,
    materialize_operator,
)


def test_complexify_examples():
    assert np.array_equal(complexify(np.array([2.0, 3.0])), [2.0, 3.0, 0.0, 0.0])
    assert np.array_equal(complexify(np.array([1j])), [0.0, 1.0])
    rng = np.random.default_rng(0)
    z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    assert np.linalg.norm(complexify(z)) == pytest.approx(np.linalg.norm(z), rel=1e-14)
    zm = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    assert np.linalg.norm(complexify(zm)) == pytest.approx(np.linalg.norm(zm), rel=1e-14)
    assert complexify(zm).shape == (8, 3)


def test_sketch_khatri_rao_single_column():
    shape = Shape((4, 3))
    rng = np.random.default_rng(1)
    op = KfjltOperator.from_seed(2, shape, m=6)
    factors = [rng.standard_normal((n, 1)) for n in shape.dims]
    got = sketch_khatri_rao(op, factors)
    v = KroneckerVector(tuple(f[:, 0] for f in factors))
    assert np.allclose(got[:, 0], kfjlt_apply_kron(op, v), rtol=1e-12)


def test_sketch_khatri_rao_matches_dense():
    shape = Shape((4, 4))
    rng = np.random.default_rng(2)
    for seed in range(10):
        op = KfjltOperator.from_seed(seed, shape, m=8)
        factors = [rng.standard_normal((n, 3)) for n in shape.dims]
        ref = materialize_operator(op) @ khatri_rao(factors)
        got = sketch_khatri_rao(op, factors)
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


def test_sketch_khatri_rao_degree_one():
    seed = np.random.SeedSequence(3)
    op = KfjltOperator.from_seed(seed, Shape((16,)), m=6)
    fop = FjltOperator.from_seed(seed, 16, 6)
    a = np.random.default_rng(4).standard_normal((16, 3))
    got = sketch_khatri_rao(op, [a])
    per_column = np.stack([fjlt_apply(fop, a[:, j]) for j in range(3)], axis=1)
    assert np.array_equal(got, per_column)


def test_solve_exact_under_full_sampling():
    # b in col(A) and every row sampled once: the sketch is an isometric image
    shape = Shape((4, 4))
    rng = np.random.default_rng(5)
    factors = tuple(rng.standard_normal((n, 3)) for n in shape.dims)
    x_true = rng.standard_normal(3)
    b = khatri_rao(factors) @ x_true
    problem = KrlsProblem(factors, b)
    op = KfjltOperator.exhaustive(6, shape)
    result = solve_sketched_ls(problem, op)
    assert not result.degenerate
    assert np.allclose(result.solution, x_true, atol=1e-8)
    report = residual_ratio(problem, result.solution)
    assert report.flagged_zero_residual and report.achieved_residual < 1e-8


def test_orthonormal_columns_recover_basis_vector():
    # Khatri-Rao columns form an orthonormal set; b = A e_1
    a1 = np.eye(4)[:, :2]
    a2 = np.zeros((4, 2))
    a2[0, :] = 1.0
    factors = (a1, a2)
    b = khatri_rao(factors) @ np.array([1.0, 0.0])
    problem = KrlsProblem(factors, b)
    op = KfjltOperator.exhaustive(7, Shape((4, 4)))
    result = solve_sketched_ls(problem, op)
    assert np.allclose(result.solution, [1.0, 0.0], atol=1e-8)
    # a modest sketch still lands near e_1
    op = KfjltOperator.from_seed(8, Shape((4, 4)), m=12)
    result = solve_sketched_ls(problem, op)
    assert np.allclose(result.solution, [1.0, 0.0], atol=1e-6)


def test_sketched_system_structure():
    shape = Shape((4, 4))
    rng = np.random.default_rng(9)
    factors = tuple(rng.standard_normal((n, 2)) for n in shape.dims)
    problem = KrlsProblem(factors, rng.standard_normal(16))
    op = KfjltOperator.from_seed(10, shape, m=5)
    matrix, rhs = build_sketched_system(problem, op)
    complex_sketch = sketch_khatri_rao(op, factors)
    assert np.array_equal(matrix[:5], complex_sketch.real)
    assert np.array_equal(matrix[5:], complex_sketch.imag)
    assert matrix.shape == (10, 2)
    assert np.array_equal(rhs, complexify(kfjlt_apply_dense(op, problem.rhs)))


def test_residual_ratio_examples():
    rng = np.random.default_rng(11)
    factors = tuple(rng.standard_normal((n, 2)) for n in (4, 3))
    a = khatri_rao(factors)
    b = rng.standard_normal(12)
    problem = KrlsProblem(factors, b)
    x_star, _ = exact_ls_solution(problem)
    assert residual_ratio(problem, x_star).value == pytest.approx(1.0, abs=1e-12)
    # x = 0 with b orthogonal to col(A): zero is already optimal
    q, _ = np.linalg.qr(a)
    b_perp = b - q @ (q.T @ b)
    problem_perp = KrlsProblem(factors, b_perp)
    assert residual_ratio(problem_perp, np.zeros(2)).value == pytest.approx(1.0, rel=1e-10)


def test_residual_ratio_never_below_one():
    rng = np.random.default_rng(12)
    shape = Shape((4, 4, 4))
    factors = tuple(rng.standard_normal((n, 3)) for n in shape.dims)
    b = khatri_rao(factors) @ rng.standard_normal(3) + 0.1 * rng.standard_normal(64)
    problem = KrlsProblem(factors, b)
    for seed in range(20):
        op = KfjltOperator.from_seed(seed, shape, m=10)
        result = solve_sketched_ls(problem, op)
        assert residual_ratio(problem, result.solution).value >= 1.0 - 1e-10


def test_monotone_fidelity_in_m():
    # mean residual ratio is non-increasing across a geometric m grid
    rng = np.random.default_rng(13)
    shape = Shape((8, 8, 8))
    r = 3
    grid = [r + 2, 4 * r, 16 * r, 64 * r]
    means = []
    ratios_by_m = {}
    for m in grid:
        vals = []
        for trial in range(100):
            prng = np.random.default_rng(1000 + trial)
            factors = tuple(prng.standard_normal((n, r)) for n in shape.dims)
            b = khatri_rao(factors) @ prng.standard_normal(r)
            b = b + 0.1 * np.linalg.norm(b) / np.sqrt(b.size) * prng.standard_normal(b.size)
            problem = KrlsProblem(factors, b)
            op = KfjltOperator.from_seed((m, trial), shape, m=m)
            result = solve_sketched_ls(problem, op)
            vals.append(residual_ratio(problem, result.solution).value)
        ratios_by_m[m] = vals
        means.append(np.mean(vals))
    assert all(means[i + 1] <= means[i] + 1e-9 for i in range(len(means) - 1)), means
    assert means[-1] < 1.1


def test_matrix_rhs_solved_columnwise():
    rng = np.random.default_rng(14)
    shape = Shape((4, 3))
    factors = tuple(rng.standard_normal((n, 2)) for n in shape.dims)
    rhs = rng.standard_normal((12, 3))
    problem = KrlsProblem(factors, rhs)
    op = KfjltOperator.from_seed(15, shape, m=8)
    result = solve_sketched_ls(problem, op)
    assert result.solution.shape == (2, 3)
    for j in range(3):
        single = solve_sketched_ls(KrlsProblem(factors, rhs[:, j]), op)
        assert np.allclose(result.solution[:, j], single.solution, atol=1e-12)


def test_dimension_mismatch_errors():
    rng = np.random.default_rng(16)
    factors = tuple(rng.standard_normal((n, 2)) for n in (4, 3))
    with pytest.raises(ValueError):
        KrlsProblem(factors, rng.standard_normal(10))  # wrong rhs length
    op = KfjltOperator.from_seed(0, Shape((4, 4)), m=4)
    with pytest.raises(ValueError):
        sketch_khatri_rao(op, factors)
