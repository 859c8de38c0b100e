import math

import numpy as np
import pytest

from kfjlt.kron import KroneckerVector, Shape, kron_materialize, kron_norm_sq
from kfjlt.testkit import dense_oracle_apply
from kfjlt.transforms import (
    FactoredKfjltOperator,
    FjltOperator,
    KfjltOperator,
    SignVector,
    distortion_ratio,
    factored_apply,
    fjlt_apply,
    kfjlt_apply_dense,
    kfjlt_apply_kron,
    materialize_operator,
    mix_factor,
    mix_modes,
    rademacher,
    seed_children,
)


def dft_direct(x):
    """O(n^2) direct-summation oracle for the unitary DFT."""
    n = len(x)
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return (np.exp(-2j * np.pi * j * k / n) @ x) / np.sqrt(n)


def test_unitary_dft_examples():
    # all-ones signs: mix_factor is the bare unitary DFT
    def ones(n):
        return SignVector(np.ones(n))

    assert np.allclose(mix_factor(np.array([5.0]), ones(1)), [5.0])
    assert np.allclose(mix_factor(np.array([1.0, 0.0]), ones(2)), [1 / np.sqrt(2), 1 / np.sqrt(2)])
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal(8)
        y = mix_factor(x, ones(8))
        assert np.allclose(y, dft_direct(x), rtol=1e-12, atol=1e-12)
        assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(x), rel=1e-12)
        # the CP sweep's un-mix (inverse DFT, same scaling) inverts it
        assert np.allclose(np.fft.ifft(y, norm="ortho"), x, atol=1e-12)
    with pytest.raises(ValueError):
        mix_factor(np.zeros(0), ones(0))


def test_mix_modes_batch_axes_and_errors():
    rng = np.random.default_rng(18)
    svs = (rademacher(3, rng), rademacher(4, rng))
    t = rng.standard_normal((3, 4, 5))
    mixed = mix_modes(t, svs)
    assert mixed.shape == (3, 4, 5)
    for j in range(5):
        assert np.array_equal(mixed[..., j], mix_modes(t[..., j], svs))
    # matches the dense Kronecker mixing F_2 D_2 (x) F_1 D_1
    u = np.kron(dft_direct(np.eye(4)) * svs[1].signs, dft_direct(np.eye(3)) * svs[0].signs)
    flat = t[..., 0].reshape(-1, order="F")
    assert np.allclose(mixed[..., 0].reshape(-1, order="F"), u @ flat, atol=1e-12)
    with pytest.raises(ValueError, match="axis 1"):
        mix_modes(t, (svs[0], rademacher(5, rng)))
    with pytest.raises(ValueError):
        mix_modes(np.ones(3), (svs[0], svs[1]))


def test_sign_vector_validation():
    with pytest.raises(ValueError):
        SignVector(np.array([1.0, 0.5]))
    sv = SignVector(np.array([1.0, -1.0, 1.0]))
    assert len(sv) == 3


def test_mix_factor_examples():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(16)
    ones = SignVector(np.ones(16))
    assert np.array_equal(mix_factor(x, ones), np.fft.fft(x, norm="ortho"))
    sv = rademacher(16, rng)
    assert np.allclose(mix_factor(x, sv), mix_factor(sv.signs * x, ones))
    for _ in range(100):
        x = rng.standard_normal(16)
        assert np.linalg.norm(mix_factor(x, sv)) == pytest.approx(
            np.linalg.norm(x), rel=1e-12
        )
    with pytest.raises(ValueError):
        mix_factor(np.ones(4), sv)


def test_fjlt_matches_dense_oracle():
    rng = np.random.default_rng(2)
    op = FjltOperator.from_seed(5, 16, 6)
    dense = materialize_operator(op)
    for _ in range(20):
        x = rng.standard_normal(16)
        assert np.allclose(
            fjlt_apply(op, x), dense_oracle_apply(dense, x), rtol=1e-10, atol=1e-12
        )


def test_fjlt_exhaustive_is_isometric():
    rng = np.random.default_rng(3)
    op = FjltOperator.exhaustive(9, 32)
    assert op.scale == 1.0
    x = rng.standard_normal(32)
    out = fjlt_apply(op, x)
    assert float(np.vdot(out, out).real) == pytest.approx(float(x @ x), rel=1e-12)


def test_operator_validation():
    sv = SignVector(np.ones(4))
    with pytest.raises(ValueError):
        KfjltOperator(Shape((4,)), (sv,), np.array([0, 4]), math.sqrt(2))  # row out of range
    with pytest.raises(ValueError):
        KfjltOperator(Shape((4,)), (sv,), np.array([0, 1]), 1.0)  # scale^2 * m != n
    with pytest.raises(ValueError):
        KfjltOperator(Shape((4, 4)), (sv,), np.array([0]), 4.0)  # missing signs


@pytest.mark.parametrize("dims", [(8,), (4, 4), (3, 4, 5), (2, 2, 2)])
def test_kfjlt_fast_paths_match_oracle(dims):
    shape = Shape(dims)
    rng = np.random.default_rng(hash(dims) % 2**32)
    for seed in range(5):
        op = KfjltOperator.from_seed(seed, shape, m=8)
        dense = materialize_operator(op)
        v = KroneckerVector(tuple(rng.standard_normal(n) for n in dims))
        x = kron_materialize(v)
        ref = dense_oracle_apply(dense, x)
        scale = np.linalg.norm(ref)
        assert np.linalg.norm(kfjlt_apply_kron(op, v) - ref) <= 1e-10 * scale
        assert np.linalg.norm(kfjlt_apply_dense(op, x) - ref) <= 1e-10 * scale
        y = rng.standard_normal(shape.total)
        ref_y = dense_oracle_apply(dense, y)
        assert np.linalg.norm(kfjlt_apply_dense(op, y) - ref_y) <= 1e-10 * np.linalg.norm(ref_y)


def test_kron_and_dense_paths_agree():
    shape = Shape((3, 4, 5))
    rng = np.random.default_rng(6)
    op = KfjltOperator.from_seed(1, shape, m=12)
    v = KroneckerVector(tuple(rng.standard_normal(n) for n in shape.dims))
    a = kfjlt_apply_kron(op, v)
    b = kfjlt_apply_dense(op, kron_materialize(v))
    assert np.allclose(a, b, rtol=1e-10, atol=1e-12)


def test_degree_one_collapse_bit_identical():
    # the FJLT is the degree-1 KFJLT: same type, and both apply paths agree bit for bit
    op = FjltOperator.from_seed(np.random.SeedSequence(77), 16, 5)
    assert isinstance(op, KfjltOperator)
    assert op.degree == 1 and op.shape == Shape((16,)) and op.m == 5
    x = np.random.default_rng(8).standard_normal(16)
    assert np.array_equal(fjlt_apply(op, x), kfjlt_apply_kron(op, KroneckerVector((x,))))


def test_kfjlt_exhaustive_preserves_norm():
    rng = np.random.default_rng(9)
    shape = Shape((4, 4))
    op = KfjltOperator.exhaustive(3, shape)
    v = KroneckerVector(tuple(rng.standard_normal(n) for n in shape.dims))
    out = kfjlt_apply_kron(op, v)
    assert float(np.vdot(out, out).real) == pytest.approx(kron_norm_sq(v), rel=1e-10)


def test_factored_apply_matches_oracle():
    shape = Shape((4, 3, 2))
    rng = np.random.default_rng(10)
    op = FactoredKfjltOperator.from_seed(4, shape, [2, 2, 2])
    assert op.m == 8
    dense = materialize_operator(op)
    for _ in range(10):
        v = KroneckerVector(tuple(rng.standard_normal(n) for n in shape.dims))
        ref = dense_oracle_apply(dense, kron_materialize(v))
        assert np.allclose(factored_apply(op, v), ref, rtol=1e-10, atol=1e-12)


def test_factored_degree_one_equals_fjlt():
    seed = np.random.SeedSequence(13)
    fac = FactoredKfjltOperator.from_seed(seed, Shape((16,)), [5])
    fop = FjltOperator.from_seed(seed, 16, 5)
    x = np.random.default_rng(11).standard_normal(16)
    # same signs; the row stream is split once more, so compare via matrices
    assert np.array_equal(fac.operators[0].sign_vectors[0].signs, fop.sign_vectors[0].signs)
    v = KroneckerVector((x,))
    assert np.allclose(
        factored_apply(fac, v), fjlt_apply(fac.operators[0], x), rtol=1e-12
    )


def test_factored_identity_sampling_preserves_norm():
    shape = Shape((4, 3))
    ops = []
    seed = np.random.SeedSequence(21)
    for kid, n in zip(seed_children(seed, 2), shape.dims):
        ops.append(FjltOperator.exhaustive(kid, n))
    fac = FactoredKfjltOperator(tuple(ops))
    v = KroneckerVector(tuple(np.random.default_rng(12).standard_normal(n) for n in shape.dims))
    out = factored_apply(fac, v)
    assert float(np.vdot(out, out).real) == pytest.approx(kron_norm_sq(v), rel=1e-10)
    # every factor must be a degree-1 operator
    with pytest.raises(ValueError, match="degree 2"):
        FactoredKfjltOperator((ops[0], KfjltOperator.exhaustive(seed, shape)))


def test_distortion_ratio():
    assert distortion_ratio(1.0, 1.0) == 0.0
    assert distortion_ratio(1.5, 1.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        distortion_ratio(1.0, 0.0)
    # full mixing with every row sampled once has zero distortion
    rng = np.random.default_rng(13)
    op = KfjltOperator.exhaustive(5, Shape((4, 4)))
    x = rng.standard_normal(16)
    out = kfjlt_apply_dense(op, x)
    assert distortion_ratio(float(np.vdot(out, out).real), float(x @ x)) < 1e-10


def test_materialized_operator_small_cases():
    # degree 1, n=2, identity sampling, +1 signs: the 2-point unitary DFT
    op = KfjltOperator(Shape((2,)), (SignVector(np.ones(2)),), np.array([0, 1]), 1.0)
    expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    assert np.allclose(materialize_operator(op), expected, atol=1e-14)


def test_materialized_flatness():
    for seed, dims, m in [(0, (4, 4), 7), (1, (3, 5), 4), (2, (8,), 3)]:
        op = KfjltOperator.from_seed(seed, Shape(dims), m=m)
        mags = np.abs(materialize_operator(op))
        assert np.abs(mags - 1 / math.sqrt(m)).max() <= 1e-12


def test_materialize_oracle_consistency_many_instances():
    # multiplying the materialized operator by the materialized vector
    # reproduces the fast path across many random instances
    rng = np.random.default_rng(14)
    for trial in range(200):
        dims = tuple(rng.integers(2, 5, size=rng.integers(1, 4)))
        shape = Shape(dims)
        op = KfjltOperator.from_seed(trial, shape, m=int(rng.integers(1, 9)))
        v = KroneckerVector(tuple(rng.standard_normal(n) for n in dims))
        ref = materialize_operator(op) @ kron_materialize(v)
        got = kfjlt_apply_kron(op, v)
        assert np.linalg.norm(got - ref) <= 1e-10 * max(np.linalg.norm(ref), 1e-12)


def test_unbiased_over_row_resampling():
    # for fixed x and signs, E over row sampling of ||Phi x||^2 is ||x||^2
    rng = np.random.default_rng(15)
    shape = Shape((4, 4))
    n = shape.total
    x = rng.standard_normal(n)
    op = KfjltOperator.exhaustive(33, shape)
    mixed = kfjlt_apply_dense(op, x)  # scale 1: the fully mixed vector
    energies = np.abs(mixed) ** 2
    m = 6
    resamples = rng.integers(0, n, size=(100_000, m))
    vals = energies[resamples].sum(axis=1) * (n / m)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - x @ x) <= 4 * se


def test_sampling_without_replacement():
    op = KfjltOperator.from_seed(3, Shape((4, 4)), m=16, replacement=False)
    assert len(set(op.rows.tolist())) == 16
    with pytest.raises(ValueError):
        KfjltOperator.from_seed(3, Shape((2, 2)), m=5, replacement=False)


def test_shape_mismatch_errors():
    op = KfjltOperator.from_seed(0, Shape((4, 4)), m=4)
    v = KroneckerVector((np.ones(4), np.ones(3)))
    with pytest.raises(ValueError):
        kfjlt_apply_kron(op, v)
    with pytest.raises(ValueError):
        kfjlt_apply_dense(op, np.ones(15))


def test_degenerate_unit_factors_allowed():
    # n_k = 1 factors are legal; the 1-point transform is the identity
    shape = Shape((1, 4, 1))
    op = KfjltOperator.from_seed(5, shape, m=3)
    rng = np.random.default_rng(17)
    v = KroneckerVector((rng.standard_normal(1), rng.standard_normal(4), rng.standard_normal(1)))
    ref = materialize_operator(op) @ kron_materialize(v)
    assert np.allclose(kfjlt_apply_kron(op, v), ref, rtol=1e-10, atol=1e-14)
    assert np.allclose(kfjlt_apply_dense(op, kron_materialize(v)), ref, rtol=1e-10, atol=1e-14)


def test_materialized_flatness_all_operator_kinds():
    fop = FjltOperator.from_seed(6, 8, 3)
    assert np.abs(np.abs(materialize_operator(fop)) - 1 / math.sqrt(3)).max() <= 1e-12
    fac = FactoredKfjltOperator.from_seed(7, Shape((4, 3)), [2, 2])
    assert np.abs(np.abs(materialize_operator(fac)) - 1 / math.sqrt(4)).max() <= 1e-12
