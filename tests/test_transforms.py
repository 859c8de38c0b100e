import math
import tracemalloc

import numpy as np
import pytest

from kfjlt.cprand import CpModel, DenseTensor, cprand_mix_sweep, mix_tensor, random_model
from kfjlt.kron import KroneckerVector, ResourceLimitError, Shape, kron_materialize, kron_norm_sq
from kfjlt.sketch_ls import KrlsProblem, SketchedLsResult
from kfjlt.testkit import distortion_quadratic_form
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


def mix_modes_by_copies(t, signs):
    """Reference: a fresh array for every flip and every FFT."""
    t = np.asarray(t)
    for axis, s in enumerate(map(np.asarray, signs)):
        t = np.fft.fft(t * s.reshape((-1,) + (1,) * (t.ndim - axis - 1)), axis=axis, norm="ortho")
    return t


@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize(
    "dims, n_signs",
    [((7,), 1), ((1,), 1), ((4, 1, 3), 3), ((1, 5), 2), ((3, 4, 2), 3), ((3, 4, 5), 2), ((2, 3, 2, 4), 1), ((3, 2), 0)],
)
def test_mix_modes_bitwise_matches_a_copy_per_step(dims, n_signs, order, complex_input):
    # one owned buffer, flipped and transformed in place, gives the same bits
    # as a fresh array per step; axes past the sign vectors are batch axes
    rng = np.random.default_rng(sum(dims) * 10 + n_signs)
    t = rng.standard_normal(dims)
    if complex_input:
        t = t + 1j * rng.standard_normal(dims)
    t = np.asarray(t, order=order)
    before = t.copy()
    signs = [rademacher(n, rng).signs for n in dims[:n_signs]]
    got = mix_modes(t, signs)
    want = mix_modes_by_copies(t, signs)
    assert got.dtype == np.complex128 and got.shape == t.shape
    assert np.array_equal(got, want)
    for part in (np.real, np.imag):  # signed zeros too
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))
    assert np.array_equal(t, before)
    assert not np.shares_memory(got, t)


def test_sign_vector_validation():
    # a SignVector is checked where it enters an operator or the quadratic form
    bad = SignVector(np.array([1.0, 0.5]))
    with pytest.raises(ValueError, match=r"signs must be a 1-D vector of \+-1 entries"):
        KfjltOperator(Shape((2,)), (bad,), [0])
    with pytest.raises(ValueError, match=r"signs must be a 1-D vector of \+-1 entries"):
        distortion_quadratic_form(np.eye(2), np.ones(2), bad)
    sv = SignVector(np.array([1.0, -1.0, 1.0]))
    assert np.asarray(sv) is sv.signs and np.array_equal(sv.signs, [1.0, -1.0, 1.0])
    # every array protocol call works: no copy, a copy, a dtype
    assert sv.__array__() is sv.signs and sv.__array__(copy=False) is sv.signs
    copied = sv.__array__(copy=True)
    assert copied is not sv.signs and np.array_equal(copied, sv.signs)
    assert sv.__array__(np.float32).dtype == np.float32


def test_sign_vectors_and_their_arrays_give_equal_results():
    # signs cross every boundary as plain +-1 arrays or as SignVectors alike
    rng = np.random.default_rng(19)
    shape = Shape((3, 4, 2))
    svs = [rademacher(n, rng) for n in shape.dims]
    arrays = [sv.signs for sv in svs]
    x = rng.standard_normal((3, 5))
    assert np.array_equal(mix_factor(x, svs[0]), mix_factor(x, arrays[0]))
    t = DenseTensor(shape, rng.standard_normal(shape.total))
    assert np.array_equal(mix_tensor(t, svs).data, mix_tensor(t, arrays).data)
    init = random_model(shape, 2, rng)
    rows = [rng.integers(0, shape.total // n, size=5) for n in shape.dims]
    mixed = mix_tensor(t, arrays)
    by_sv, by_array = (cprand_mix_sweep(mixed, init, s, rows)[0] for s in (svs, arrays))
    assert all(np.array_equal(a, b) for a, b in zip(by_sv.factors, by_array.factors))
    op_sv = KfjltOperator(shape, tuple(svs), rows[0])
    op_arr = KfjltOperator(shape, tuple(arrays), rows[0])
    assert all(np.array_equal(a, b) for a, b in zip(op_sv.signs, op_arr.signs))
    assert np.array_equal(materialize_operator(op_sv), materialize_operator(op_arr))
    psi = rng.standard_normal((6, 3))
    by_sv, by_array = (distortion_quadratic_form(psi, x[:, 0], s) for s in (svs[0], arrays[0]))
    assert by_sv == by_array


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


def test_fjlt_exhaustive_is_isometric():
    rng = np.random.default_rng(3)
    op = KfjltOperator.exhaustive(9, Shape((32,)))
    assert op.scale == 1.0
    x = rng.standard_normal(32)
    out = fjlt_apply(op, x)
    assert float(np.vdot(out, out).real) == pytest.approx(float(x @ x), rel=1e-12)


def test_operator_validation():
    sv = SignVector(np.ones(4))
    with pytest.raises(ValueError):
        KfjltOperator(Shape((4,)), (sv,), np.array([0, 4]))  # row out of range
    with pytest.raises(ValueError):
        KfjltOperator(Shape((4, 4)), (sv,), np.array([0]))  # missing signs
    # float rows are refused, not truncated to [0, 3]
    with pytest.raises(ValueError, match=r"integers, got float64 array \[0.7 3.9\]"):
        KfjltOperator(Shape((4,)), (sv,), np.array([0.7, 3.9]))
    with pytest.raises(ValueError, match="integers"):
        KfjltOperator(Shape((4,)), (sv,), np.array([True, False]))
    # bare +-1 arrays are accepted; anything else is refused at construction,
    # not at the first apply
    assert np.array_equal(KfjltOperator(Shape((4, 4)), (sv, -np.ones(4)), [0]).signs[1], -np.ones(4))
    for bad in (np.full(4, 0.5), np.ones((1, 4))):
        with pytest.raises(ValueError, match=r"signs must be a 1-D vector of \+-1 entries"):
            KfjltOperator(Shape((4, 4)), (sv, bad), [0])
    # float and bool row counts are refused, not handed to numpy
    for m in (2.5, 2.0, True):
        with pytest.raises(ValueError, match=f"^m {m} is not an integer$"):
            KfjltOperator.from_seed(0, Shape((4,)), m)
    with pytest.raises(ValueError, match="^m 2.0 is not an integer$"):
        FactoredKfjltOperator.from_seed(0, Shape((4, 4)), [2.0, 2])


def test_scale_is_derived_from_m_and_n():
    shape = Shape((3, 5, 2))
    op = KfjltOperator.from_seed(4, shape, m=7)
    assert op.scale == math.sqrt(30 / 7)
    assert KfjltOperator.exhaustive(4, shape).scale == math.sqrt(30 / 30) == 1.0
    direct = KfjltOperator(Shape((4,)), (SignVector(np.ones(4)),), [0, 3, 3])
    assert direct.scale == math.sqrt(4 / 3)
    fac = FactoredKfjltOperator.from_seed(4, shape, [2, 5, 1])
    assert fac.m == 10 and fac.scale == math.sqrt(30 / 10)


def test_degree_one_collapse_bit_identical():
    # the FJLT is the degree-1 KFJLT: same type, and both apply paths agree bit for bit
    op = FjltOperator.from_seed(np.random.SeedSequence(77), 16, 5)
    assert isinstance(op, KfjltOperator)
    assert op.shape.ndim == 1 and op.shape == Shape((16,)) and op.m == 5
    x = np.random.default_rng(8).standard_normal(16)
    assert np.array_equal(fjlt_apply(op, x), kfjlt_apply_kron(op, KroneckerVector((x,))))


def test_kfjlt_exhaustive_preserves_norm():
    rng = np.random.default_rng(9)
    shape = Shape((4, 4))
    op = KfjltOperator.exhaustive(3, shape)
    v = KroneckerVector(tuple(rng.standard_normal(n) for n in shape.dims))
    out = kfjlt_apply_kron(op, v)
    assert float(np.vdot(out, out).real) == pytest.approx(kron_norm_sq(v), rel=1e-10)


@pytest.mark.parametrize("dims", [(5,), (4, 3), (4, 3, 2), (3, 2, 1, 4)])
def test_factored_apply_bitwise_matches_np_kron(dims):
    # each factor's FJLT rebuilt from the operator's seed streams: factor k's
    # signs from sub-stream k, its rows from child k of sub-stream d+1. The
    # agreement is to rounding, not bit for bit: the operator's one scale
    # sqrt(N/m) is not the product of the per-factor scales sqrt(n_k/m_k).
    rng = np.random.default_rng(14)
    shape = Shape(dims)
    ms = [min(2, n) for n in dims]
    op = FactoredKfjltOperator.from_seed(8, shape, ms)
    assert isinstance(op, KfjltOperator) and op.m == math.prod(ms)
    v = KroneckerVector(tuple(rng.standard_normal(n) for n in dims))
    kids = seed_children(8, len(dims) + 1)
    row_kids = seed_children(kids[-1], len(dims))
    ref = np.ones(1)
    for n, mk, x, sign_kid, row_kid in zip(dims, ms, v.factors, kids, row_kids):
        signs = rademacher(n, np.random.default_rng(sign_kid)).signs
        rows = np.random.default_rng(row_kid).integers(0, n, size=mk)
        fjlt = KfjltOperator(Shape((n,)), (signs,), rows)
        ref = np.kron(kfjlt_apply_dense(fjlt, x), ref)
    assert np.iscomplexobj(ref)
    assert np.allclose(factored_apply(op, v), ref, rtol=1e-13, atol=0)


def test_factored_degree_one_equals_fjlt():
    seed = np.random.SeedSequence(13)
    fac = FactoredKfjltOperator.from_seed(seed, Shape((16,)), [5])
    fop = FjltOperator.from_seed(seed, 16, 5)
    x = np.random.default_rng(11).standard_normal(16)
    # same signs; the row stream is split once more, so only the signs agree
    assert fac.shape.ndim == 1 and fac.m == 5
    assert np.array_equal(fac.signs[0], fop.signs[0])
    v = KroneckerVector((x,))
    assert np.allclose(factored_apply(fac, v), fjlt_apply(fac, x), rtol=1e-12)


def test_factored_identity_sampling_preserves_norm():
    shape = Shape((4, 3))
    fac = FactoredKfjltOperator.from_seed(21, shape, shape.dims, replacement=False)
    assert fac.scale == 1.0 and sorted(fac.rows.tolist()) == list(range(shape.total))
    v = KroneckerVector(tuple(np.random.default_rng(12).standard_normal(n) for n in shape.dims))
    out = factored_apply(fac, v)
    assert float(np.vdot(out, out).real) == pytest.approx(kron_norm_sq(v), rel=1e-10)


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
    op = KfjltOperator(Shape((2,)), (SignVector(np.ones(2)),), np.array([0, 1]))
    expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    assert np.allclose(materialize_operator(op), expected, atol=1e-14)


def kron_dft_rows_reference(op):
    """Sampled rows of the ``np.kron`` chain of the per-factor ``F_k D_k``,
    taken from ``np.fft``: the unitary DFT is symmetric, so row j of ``F_k``
    is the FFT of the unit vector e_j."""
    coords = np.unravel_index(op.rows, op.shape.dims, order="F")
    out = []
    for i in range(op.m):
        row = np.ones(1)
        for n, c, s in zip(op.shape.dims, coords, op.signs):
            row = np.kron(np.fft.fft(np.eye(n)[c[i]], norm="ortho") * s, row)
        out.append(op.scale * row)
    return np.array(out)


@pytest.mark.parametrize("dims", [(32, 32), (16, 16, 4), (4096,)])
def test_materialize_operator_allocates_only_sampled_rows(dims):
    # forming the N x N unitary first would peak at N/m times the output
    op = KfjltOperator.from_seed(23, Shape(dims), m=4)
    tracemalloc.start()
    try:
        dense = materialize_operator(op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dense.shape == (4, op.shape.total) and dense.dtype == np.complex128
    assert peak <= 8 * dense.nbytes
    ref = kron_dft_rows_reference(op)
    assert np.linalg.norm(dense - ref) <= 1e-14 * np.linalg.norm(ref)


@pytest.mark.parametrize("kind", ["kfjlt", "factored"])
def test_materialize_operator_checks_the_cap_before_any_block(monkeypatch, kind):
    shape = Shape((4, 4, 4))
    if kind == "kfjlt":
        op = KfjltOperator.from_seed(2, shape, m=8)
    else:
        op = FactoredKfjltOperator.from_seed(2, shape, [2, 2, 2])
    monkeypatch.setattr("kfjlt.kron.DEFAULT_MATERIALIZE_CAP", 8 * 64 - 1)

    def no_block(*args):
        raise AssertionError("a block was formed before the cap check")

    monkeypatch.setattr("kfjlt.transforms._dft_rows", no_block)
    monkeypatch.setattr("kfjlt.transforms.khatri_rao", no_block)
    with pytest.raises(ResourceLimitError, match="size 512 exceeds the cap 511"):
        materialize_operator(op)


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
    # a sample-before sketch's product rows are distinct too
    for seed in range(20):
        fac = FactoredKfjltOperator.from_seed(seed, Shape((5, 4, 3)), [3, 2, 3], replacement=False)
        assert fac.m == 18 and len(set(fac.rows.tolist())) == 18
    with pytest.raises(ValueError, match="cannot sample 5 rows from 4 without replacement"):
        FactoredKfjltOperator.from_seed(0, Shape((5, 4)), [2, 5], replacement=False)


def test_shape_mismatch_errors():
    op = KfjltOperator.from_seed(0, Shape((4, 4)), m=4)
    v = KroneckerVector((np.ones(4), np.ones(3)))
    with pytest.raises(ValueError):
        kfjlt_apply_kron(op, v)
    with pytest.raises(ValueError):
        kfjlt_apply_dense(op, np.ones(15))
    # a flat array is not a Kronecker vector; the message names its shape
    fac = FactoredKfjltOperator.from_seed(0, Shape((4, 4)), [2, 2])
    for apply, o in ((kfjlt_apply_kron, op), (factored_apply, fac)):
        with pytest.raises(ValueError, match=r"^shape mismatch: vector \(16,\) vs operator Shape"):
            apply(o, np.ones(16))
    # a batch is N x k; a wrong height or a scalar is refused
    assert kfjlt_apply_dense(op, np.ones((16, 2))).shape == (4, 2)
    for bad in (np.ones((17, 2)), np.float64(1.0)):
        with pytest.raises(ValueError, match="expected vector of length 16"):
            kfjlt_apply_dense(op, bad)


def test_degenerate_unit_factors_allowed():
    # n_k = 1 factors are legal; the 1-point transform is the identity
    shape = Shape((1, 4, 1))
    op = KfjltOperator.from_seed(5, shape, m=3)
    rng = np.random.default_rng(17)
    v = KroneckerVector((rng.standard_normal(1), rng.standard_normal(4), rng.standard_normal(1)))
    ref = materialize_operator(op) @ kron_materialize(v)
    assert np.allclose(kfjlt_apply_kron(op, v), ref, rtol=1e-10, atol=1e-14)
    assert np.allclose(kfjlt_apply_dense(op, kron_materialize(v)), ref, rtol=1e-10, atol=1e-14)


HALF_SPECTRUM_SHAPES = [(n1,) + (3, 4, 2)[:d - 1] for d in range(1, 5) for n1 in (1, 2, 3, 4, 5, 8)]


@pytest.mark.parametrize("dims", HALF_SPECTRUM_SHAPES, ids=lambda dims: "x".join(map(str, dims)))
def test_dense_half_spectrum_gather_against_oracle(dims):
    # every row once: i_1 = 0, the Nyquist row i_1 = n_1 / 2, and every row
    # i_1 > n_1 // 2 that is read through its conjugate mirror
    op = KfjltOperator.exhaustive(31, Shape(dims))
    dense = materialize_operator(op)
    x = np.random.default_rng(32).standard_normal((op.shape.total, 3))
    for xs in (x, np.asfortranarray(x), x[:, 0], x[:, 0] + 1j * x[:, 1]):
        ref = dense @ xs
        assert np.linalg.norm(kfjlt_apply_dense(op, xs) - ref) <= 1e-12 * np.linalg.norm(ref)
    for xs in (x, np.asfortranarray(x)):
        batch = kfjlt_apply_dense(op, xs)
        for j in range(3):
            assert np.array_equal(batch[:, j], kfjlt_apply_dense(op, x[:, j]))


def test_materialized_flatness_all_operator_kinds():
    fop = FjltOperator.from_seed(6, 8, 3)
    assert np.abs(np.abs(materialize_operator(fop)) - 1 / math.sqrt(3)).max() <= 1e-12
    fac = FactoredKfjltOperator.from_seed(7, Shape((4, 3)), [2, 2])
    assert np.abs(np.abs(materialize_operator(fac)) - 1 / math.sqrt(4)).max() <= 1e-12


@pytest.mark.parametrize("make", [
    lambda: KroneckerVector((np.ones(2), np.ones(3))),
    lambda: KfjltOperator.from_seed(0, Shape((4, 4)), 3),
    lambda: rademacher(4, np.random.default_rng(0)),
    lambda: CpModel((np.ones((2, 2)), np.ones((3, 2)))),
    lambda: DenseTensor(Shape((2, 2)), np.ones(4)),
    lambda: KrlsProblem((np.ones((2, 2)), np.ones((3, 2))), np.ones(6)),
    lambda: SketchedLsResult(np.ones(2), 2, False),
], ids=lambda make: type(make()).__name__)
def test_array_holding_types_compare_by_identity(make):
    # the generated __eq__ would compare array fields and raise "truth value ... ambiguous"
    x = make()
    assert (x == x) is True
    assert (x == make()) is False
