"""Seed streams stay pinned across versions.

The expected values were recorded before every seed-to-generator step was
folded into ``np.random.default_rng``. Any later change to how seeds become
generators must reproduce them; a difference means every seeded
experiment's output changed.
"""

import numpy as np
import pytest

from kfjlt.bench import ExperimentConfig, run_distortion
from kfjlt.cprand import DenseTensor, cp_als, cprand_mix, random_model, reconstruct
from kfjlt.kron import Shape
from kfjlt.testkit import hoeffding_tail_check
from kfjlt.transforms import FactoredKfjltOperator, KfjltOperator


def test_operator_signs_and_rows_are_pinned():
    op = KfjltOperator.from_seed(7, Shape((4, 5, 3)), 9)
    assert [s.tolist() for s in op.signs] == [
        [-1, 1, -1, -1], [1, -1, -1, -1, -1], [-1, 1, 1],
    ]
    assert op.rows.tolist() == [28, 58, 19, 3, 9, 0, 3, 31, 5]
    # per-factor rows [3, 0] and [3, 2, 0], every combination, mode 1 fastest
    fop = FactoredKfjltOperator.from_seed(7, Shape((4, 5)), [2, 3])
    assert [s.tolist() for s in fop.signs] == [
        [-1, 1, -1, -1], [1, -1, -1, -1, -1],
    ]
    assert fop.rows.tolist() == [15, 12, 11, 8, 3, 0]


def test_cp_initial_fits_are_pinned():
    t = reconstruct(random_model(Shape((4, 5, 3)), 2, np.random.default_rng(0)))
    # A changed stream moves these in the first digits; the tolerance only
    # absorbs BLAS rounding.
    assert cp_als(t, 2, seed=5, max_sweeps=2).fits == pytest.approx(
        [0.80383017929579, 0.9840474610333824], rel=1e-9
    )
    assert cprand_mix(t, 2, 8, seed=6, max_sweeps=2).fits == pytest.approx(
        [0.5985837654019946, 0.8058073542407628], rel=1e-9
    )


# (dims, rank, m, fits, degenerate_solves), recorded before the sketched sweep
# built its sketches as KfjltOperators. The 1-way tensor's one mode has one
# row, and the 4-way case samples fewer rows than the rank: every such
# solve is degenerate.
_SKETCHED_CP_PINS = [
    ((9,), 2, 4, [0.9999999999999992, 0.9999999999999992], 2),
    ((5, 6), 2, 4, [0.9806068769346912, 0.9957324641315096, 0.9922574830248849], 0),
    ((4, 3, 2, 5), 3, 2, [0.2703461901141653, 0.3908305123170024, -0.35180618382455675], 12),
]


@pytest.mark.parametrize("dims, rank, m, fits, degenerate", _SKETCHED_CP_PINS)
def test_sketched_cp_trajectories_are_pinned(dims, rank, m, fits, degenerate):
    t = reconstruct(random_model(Shape(dims), rank, np.random.default_rng(0)))
    noise = 0.01 * np.random.default_rng(1).standard_normal(t.data.size)
    result = cprand_mix(DenseTensor(t.shape, t.data + noise), rank, m, seed=11, max_sweeps=4)
    assert result.fits == pytest.approx(fits, rel=1e-9)
    assert result.degenerate_solves == degenerate


def test_monte_carlo_tail_frequency_is_pinned():
    x = np.linspace(-1.0, 1.0, 20)  # 2^20 patterns: sampled, not enumerated
    rep = hoeffding_tail_check(x, 2.0, trials=500, rng=3)
    assert not rep.exact
    assert rep.frequency == 0.438


# (settings, [(method, m, trial, seed, value), ...]); recorded while
# run_distortion still built each trial's sketch inside a four-way branch.
_DISTORTION_PINS = [
    (dict(degrees=(1, 2), include_gaussian=True), [
        ("fjlt", 4, 0, 5791537622970415935, 0.7708005220864199),
        ("fjlt", 4, 1, 14113531247800191899, 0.04854181677387786),
        ("kfjlt-d2", 4, 0, 16082644311582765730, 0.7306009167727161),
        ("kfjlt-d2", 4, 1, 7916591249666585404, 0.8363970617587535),
        ("gaussian", 4, 0, 10373891415002915990, 0.5175457289328871),
        ("gaussian", 4, 1, 16542760774901061143, 0.6332008209150314),
    ]),
    (dict(degrees=(1, 2), include_gaussian=True, structure="generic", replacement="without"), [
        ("fjlt-generic", 4, 0, 5791537622970415935, 0.43052706554309444),
        ("fjlt-generic", 4, 1, 14113531247800191899, 0.04932233837998466),
        ("kfjlt-d2-generic", 4, 0, 16082644311582765730, 0.07749813530650879),
        ("kfjlt-d2-generic", 4, 1, 7916591249666585404, 0.5395140388809053),
        ("gaussian-generic", 4, 0, 10373891415002915990, 0.40086074977725916),
        ("gaussian-generic", 4, 1, 16542760774901061143, 0.393101128675181),
    ]),
    (dict(degrees=(2,), sampling="before", dist="uniform01"), [
        ("kfjlt-d2-factored", 4, 0, 16082644311582765730, 0.9003433653483162),
        ("kfjlt-d2-factored", 4, 1, 7916591249666585404, 0.5648069958182573),
    ]),
]


@pytest.mark.parametrize("settings, expected", _DISTORTION_PINS)
def test_distortion_values_are_pinned(settings, expected):
    config = ExperimentConfig("distortion", (2, 2, 2, 2), m_grid=(4,), trials=2, seed=301, **settings)
    records = run_distortion(config)
    assert [(r.method, r.m, r.trial, r.seed) for r in records] == [e[:4] for e in expected]
    assert [r.value for r in records] == pytest.approx([e[4] for e in expected], rel=1e-9)
