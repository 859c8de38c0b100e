"""Seeded differential test: every fast path against its dense oracle.

340 random cases from ``testkit``'s seeded case table (200 operator, 100
sample-before and 40 CP sweep cases, one fixed seed each) cover shapes with
1-5 modes (with unit and prime sizes), sketches larger than N sampled with
replacement, and sampling without replacement. Each fast path must match
the materialized operator, or exact ALS, to 1e-10 relative error.
"""

import numpy as np

from kfjlt.testkit import _rel_err, cp_sweep_cases, factored_cases, kfjlt_cases

TOL = 1e-10


def test_kfjlt_fast_paths_match_the_materialized_operator():
    grew, without = 0, 0
    for case, got, ref in kfjlt_cases(20240501, 200):
        _, dims, m, replacement, path = case
        grew += m > np.prod(dims)
        without += not replacement
        assert _rel_err(got, ref) <= TOL, case
        assert path != "batched" or np.array_equal(got, ref), case
    assert grew and without  # both sampling regimes were drawn


def test_factored_apply_matches_the_materialized_factored_operator():
    for case, got, ref in factored_cases(20240502, 100):
        assert _rel_err(got, ref) <= TOL, case


def test_exhaustive_cprand_sweep_matches_exact_als_sweep():
    for case, got, ref in cp_sweep_cases(20240503, 40):
        assert _rel_err(got, ref) <= TOL, case
