import math

import numpy as np
import pytest

from kfjlt.kron import (
    KroneckerVector,
    ResourceLimitError,
    Shape,
    khatri_rao,
    khatri_rao_rows,
    kron_materialize,
    kron_norm_sq,
    multi_index_array,
)


def test_shape_validation():
    s = Shape((3, 4, 5))
    assert s.total == 60 and s.ndim == 3
    # mode-1-fastest strides n_1 * ... * n_{k-1} = (1, 3, 12)
    assert multi_index_array(s, 1 + 2 * 3 + 4 * 12) == (1, 2, 4)
    with pytest.raises(ValueError):
        Shape(())
    with pytest.raises(ValueError):
        Shape((3, 0))
    with pytest.raises(ValueError):
        Shape((2**40, 2**40))  # product exceeds the addressable range
    # sizes are integers: no truncation of floats, no bools standing in for 1
    for bad, named in [(2.7, "2.7"), (True, "True"), (np.True_, "True"), (np.float64(3.0), "3.0")]:
        with pytest.raises(ValueError, match=f"dimension .*{named}.* is not an integer"):
            Shape((bad, 3))
    dims = Shape((np.int64(3), np.int32(4))).dims
    assert dims == (3, 4) and all(type(n) is int for n in dims)


def test_multi_index_examples():
    assert multi_index_array(Shape((7,)), 5) == (5,)
    assert multi_index_array(Shape((3, 4)), 1 + 2 * 3) == (1, 2)
    # the (125, 125) corner: N - 1 maps to the last multi-index
    assert multi_index_array(Shape((125, 125)), 15624) == (124, 124)
    shape = Shape((2, 2, 2))
    assert multi_index_array(shape, 6) == (0, 1, 1)
    coords = multi_index_array(shape, [0, 7, 3])
    assert [c.tolist() for c in coords] == [[0, 1, 1], [0, 1, 1], [0, 1, 0]]
    with pytest.raises(ValueError):
        multi_index_array(shape, 8)
    with pytest.raises(ValueError):
        multi_index_array(shape, [0, -1])


@pytest.mark.parametrize("dims", [(7,), (3, 4), (2, 3, 4), (10, 10, 10, 10), (97,)])
def test_index_bijection_exhaustive(dims):
    shape = Shape(dims)
    assert shape.total <= 10_000
    idx = np.arange(shape.total)
    coords = multi_index_array(shape, idx)
    # mode-1-fastest linearization: i = sum_k i_k * n_1 * ... * n_{k-1}
    strides = [math.prod(dims[:k]) for k in range(len(dims))]
    assert np.array_equal(sum(c * s for c, s in zip(coords, strides)), idx)
    for c, n in zip(coords, dims):
        assert c.min() == 0 and c.max() == n - 1
    back = np.ravel_multi_index(coords, dims, order="F")
    assert np.array_equal(back, idx)


def test_mode_1_fastest():
    shape = Shape((5, 4, 3))
    i1, i2, i3 = multi_index_array(shape, np.arange(shape.total))
    assert np.array_equal(i1, np.tile(np.arange(5), 12))
    assert np.array_equal(i2, np.tile(np.repeat(np.arange(4), 5), 3))
    assert np.array_equal(i3, np.repeat(np.arange(3), 20))


def test_kron_materialize_examples():
    assert np.array_equal(
        kron_materialize(KroneckerVector(([1.0], [1.0], [1.0]))), [1.0]
    )
    v = KroneckerVector(([1.0, 2.0], [3.0, 4.0]))
    assert np.array_equal(kron_materialize(v), [3.0, 6.0, 4.0, 8.0])


@pytest.mark.parametrize("dims", [(5,), (3, 4), (2, 3, 4), (3, 1, 2, 4)])
def test_kron_materialize_bitwise_matches_np_kron(dims):
    rng = np.random.default_rng(5)
    factors = [rng.standard_normal(n) for n in dims]
    ref = factors[0]
    for f in factors[1:]:
        ref = np.kron(f, ref)
    assert np.array_equal(kron_materialize(KroneckerVector(tuple(factors))), ref)
    assert np.array_equal(khatri_rao(factors), ref)


def test_kron_materialize_entry_formula():
    rng = np.random.default_rng(0)
    v = KroneckerVector(tuple(rng.standard_normal(n) for n in (3, 4, 2)))
    x = kron_materialize(v)
    coords = multi_index_array(v.shape, np.arange(v.shape.total))
    for i in range(v.shape.total):
        expected = np.prod([f[c[i]] for f, c in zip(v.factors, coords)])
        assert x[i] == pytest.approx(expected, rel=1e-14)


def test_kron_norm_multiplicativity():
    rng = np.random.default_rng(1)
    for _ in range(50):
        dims = tuple(rng.integers(1, 6, size=rng.integers(1, 4)))
        v = KroneckerVector(tuple(rng.standard_normal(n) for n in dims))
        dense = kron_materialize(v)
        assert abs(kron_norm_sq(v) - dense @ dense) <= 1e-10 * max(kron_norm_sq(v), 1e-30)
        assert np.linalg.norm(dense) == pytest.approx(
            np.sqrt(kron_norm_sq(v)), rel=1e-12
        )


def test_kron_norm_sq_examples():
    assert kron_norm_sq(KroneckerVector(([1.0], [0.0, 1.0]))) == pytest.approx(1.0)
    assert kron_norm_sq(KroneckerVector(([1.0, 2.0], [3.0, 4.0]))) == pytest.approx(125.0)
    assert kron_norm_sq(KroneckerVector(([0.0, 0.0], [3.0, 4.0]))) == 0.0


def test_kronecker_vector_validation():
    with pytest.raises(ValueError, match="1-D"):
        KroneckerVector((np.ones(2), np.ones((2, 2))))
    # a complex factor is refused, not silently cut to its real part
    with pytest.raises(ValueError, match="factor x_2 is complex"):
        KroneckerVector((np.ones(2), np.array([1.0, 1j]), np.ones(3)))


def test_materialize_cap(monkeypatch):
    v = KroneckerVector((np.ones(64), np.ones(64)))
    assert kron_materialize(v).size == 4096
    monkeypatch.setattr("kfjlt.kron.DEFAULT_MATERIALIZE_CAP", 1000)
    with pytest.raises(ResourceLimitError, match="size 4096 exceeds the cap 1000"):
        kron_materialize(v)


def test_khatri_rao_examples():
    a = np.array([[1.0], [2.0]])
    b = np.array([[3.0], [4.0]])
    assert np.array_equal(khatri_rao([a, b]), [[3.0], [6.0], [4.0], [8.0]])
    single = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(khatri_rao([single]), single)
    # 1-D inputs give the Kronecker vector x_2 (x) x_1
    assert np.array_equal(khatri_rao([[1.0, 2.0], [3.0, 4.0]]), [3.0, 6.0, 4.0, 8.0])
    with pytest.raises(ValueError):
        khatri_rao([np.ones((2, 2)), np.ones((2, 3))])
    with pytest.raises(ValueError):
        khatri_rao([np.ones(2), np.ones((2, 1))])


def test_khatri_rao_column_consistency():
    rng = np.random.default_rng(2)
    mats = [rng.standard_normal((n, 4)) for n in (3, 2, 5)]
    kr = khatri_rao(mats)
    for j in range(4):
        col = kron_materialize(KroneckerVector(tuple(m[:, j] for m in mats)))
        assert np.allclose(kr[:, j], col, rtol=1e-12, atol=0)


def test_khatri_rao_distributivity():
    # (W X) kr (Y Z) == (W kron Y) (X kr Z) on random 2x2 instances
    rng = np.random.default_rng(3)
    for _ in range(10):
        w, x, y, z = (rng.standard_normal((2, 2)) for _ in range(4))
        lhs = khatri_rao([y @ z, w @ x])  # list order (M_1, M_2) -> M_2 kr M_1
        rhs = np.kron(w, y) @ khatri_rao([z, x])
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_khatri_rao_rows_matches_dense():
    rng = np.random.default_rng(4)
    mats = [rng.standard_normal((n, 3)) for n in (4, 3, 2)]
    full = khatri_rao(mats)
    rows = rng.integers(0, full.shape[0], size=10)
    assert np.allclose(khatri_rao_rows(mats, rows), full[rows], rtol=1e-13)
    # 1-D factors gather entries of the Kronecker vector
    vecs = [m[:, 0] for m in mats]
    dense = kron_materialize(KroneckerVector(tuple(vecs)))
    assert np.array_equal(khatri_rao_rows(vecs, rows), khatri_rao_rows(mats, rows)[:, 0])
    assert np.allclose(khatri_rao_rows(vecs, rows), dense[rows], rtol=1e-13)
