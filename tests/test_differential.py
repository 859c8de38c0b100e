"""Seeded differential test: every fast path against its dense oracle.

About 200 random cases, drawn from one fixed seed, cover shapes with 1-5
modes (with unit and prime sizes), sketches larger than N sampled with
replacement, and sampling without replacement. Each fast path must match
the materialized operator, or exact ALS, to 1e-10 relative error.
"""

import math

import numpy as np

from kfjlt.cprand import DenseTensor, cp_als_sweep, cprand_mix_sweep, mix_tensor, random_model
from kfjlt.kron import KroneckerVector, Shape, khatri_rao, kron_materialize
from kfjlt.sketch_ls import sketch_khatri_rao
from kfjlt.testkit import dense_oracle_apply
from kfjlt.transforms import (
    FactoredKfjltOperator,
    KfjltOperator,
    factored_apply,
    kfjlt_apply_dense,
    kfjlt_apply_kron,
    materialize_operator,
    rademacher,
)

SIZES = (1, 2, 3, 4, 5, 6, 7, 8, 11, 13)  # unit, prime and composite factor sizes
TOL = 1e-10


def _rel_err(got, ref) -> float:
    return float(np.linalg.norm(got - ref)) / max(float(np.linalg.norm(ref)), 1e-300)


def _random_shape(rng, max_total: int) -> Shape:
    """1-5 modes drawn from ``SIZES``, redrawn until N is at most ``max_total``."""
    while True:
        dims = tuple(int(n) for n in rng.choice(SIZES, size=rng.integers(1, 6)))
        if math.prod(dims) <= max_total:
            return Shape(dims)


def _random_rows(rng, total: int) -> tuple[int, bool]:
    """A row count and a replacement flag: with replacement m may exceed N."""
    replacement = bool(rng.random() < 0.6)
    return int(rng.integers(1, (2 * total if replacement else total) + 1)), replacement


def test_kfjlt_fast_paths_match_the_materialized_operator():
    rng = np.random.default_rng(20240501)
    grew, without = 0, 0
    for case in range(200):
        shape = _random_shape(rng, 300)
        m, replacement = _random_rows(rng, shape.total)
        grew += m > shape.total
        without += not replacement
        op = KfjltOperator.from_seed(case, shape, m, replacement)
        dense = materialize_operator(op)
        assert dense.shape == (m, shape.total)
        v = KroneckerVector(tuple(rng.standard_normal(n) for n in shape.dims))
        x = kron_materialize(v)
        ref = dense_oracle_apply(dense, x)
        assert _rel_err(kfjlt_apply_kron(op, v), ref) <= TOL, (case, shape.dims, m)
        assert _rel_err(kfjlt_apply_dense(op, x), ref) <= TOL, (case, shape.dims, m)
        y = rng.standard_normal(shape.total)
        assert _rel_err(kfjlt_apply_dense(op, y), dense @ y) <= TOL, (case, shape.dims, m)
        both = kfjlt_apply_dense(op, np.stack([x, y], axis=1))
        assert np.array_equal(both, np.stack([kfjlt_apply_dense(op, x), kfjlt_apply_dense(op, y)], axis=1))
        mats = [rng.standard_normal((n, 3)) for n in shape.dims]
        assert _rel_err(sketch_khatri_rao(op, mats), dense @ khatri_rao(mats)) <= TOL, (case, shape.dims, m)
    assert grew and without  # both sampling regimes were drawn


def test_factored_apply_matches_the_materialized_factored_operator():
    rng = np.random.default_rng(20240502)
    for case in range(100):
        shape = _random_shape(rng, 300)
        ms, replacement = [], bool(rng.random() < 0.6)
        for n in shape.dims:
            ms.append(int(rng.integers(1, (2 * n if replacement else n) + 1)))
        if math.prod(ms) * shape.total > 1 << 16:
            ms = [1] * shape.ndim
        op = FactoredKfjltOperator.from_seed(case, shape, ms, replacement)
        dense = materialize_operator(op)
        assert dense.shape == (math.prod(ms), shape.total)
        v = KroneckerVector(tuple(rng.standard_normal(n) for n in shape.dims))
        ref = dense_oracle_apply(dense, kron_materialize(v))
        assert _rel_err(factored_apply(op, v), ref) <= TOL, (case, shape.dims, ms)


def test_exhaustive_cprand_sweep_matches_exact_als_sweep():
    rng = np.random.default_rng(20240503)
    for case in range(40):
        shape = _random_shape(rng, 200)
        rest = [shape.total // n for n in shape.dims]
        # full-rank solves on both sides: rank at most half the smallest system
        rank = max(1, min(3, min(rest) // 2))
        t = DenseTensor(shape, rng.standard_normal(shape.total))
        init = random_model(shape, rank, rng)
        signs = [rademacher(n, rng) for n in shape.dims]
        sketched, _ = cprand_mix_sweep(mix_tensor(t, signs), init, signs, [np.arange(r) for r in rest])
        exact = cp_als_sweep(t, init)
        for a, b in zip(sketched.factors, exact.factors):
            assert _rel_err(a, b) <= TOL, (case, shape.dims, rank)
