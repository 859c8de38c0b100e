import csv

import numpy as np
import pytest

from kfjlt.bench import (
    ExperimentConfig,
    TrialRecord,
    emit_csv,
    factored_row_counts,
    group_dims,
    group_factors,
    run_concentration,
    run_cprand,
    run_distortion,
    run_ls,
    run_timing,
    summarize,
)
from kfjlt.cli import build_config, main, parse_m_grid, parse_shape
from kfjlt.kron import KroneckerVector, kron_materialize


def test_group_dims():
    assert group_dims((4,) * 6, 1) == (4096,)
    assert group_dims((4,) * 6, 2) == (64, 64)
    assert group_dims((4,) * 6, 3) == (16, 16, 16)
    assert group_dims((4,) * 6, 6) == (4,) * 6
    assert group_dims((3, 4, 5), 3) == (3, 4, 5)
    with pytest.raises(ValueError):
        group_dims((4,) * 6, 4)


def test_group_factors_preserves_vector():
    rng = np.random.default_rng(0)
    factors = [rng.standard_normal(4) for _ in range(6)]
    full = kron_materialize(KroneckerVector(tuple(factors)))
    for degree in (1, 2, 3, 6):
        grouped = group_factors(factors, degree)
        assert grouped.shape.dims == group_dims((4,) * 6, degree)
        assert np.allclose(kron_materialize(grouped), full, rtol=1e-12)


def test_factored_row_counts():
    assert factored_row_counts(100, 2) == [10, 10]
    assert factored_row_counts(1000, 3) == [10, 10, 10]
    assert factored_row_counts(2, 3) == [1, 1, 1]


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(kind="nope", shape=(4, 4), m_grid=(4,))
    with pytest.raises(ValueError):
        ExperimentConfig(kind="distortion", shape=(4, 4), m_grid=())
    with pytest.raises(ValueError):
        ExperimentConfig(kind="distortion", shape=(4, 4, 4), degrees=(2,), m_grid=(4,))
    with pytest.raises(ValueError):
        ExperimentConfig(
            kind="distortion", shape=(4, 4), m_grid=(4,), structure="generic", sampling="before"
        )
    with pytest.raises(ValueError, match="m=0"):
        ExperimentConfig(kind="distortion", shape=(4, 4), m_grid=(8, 0))
    with pytest.raises(ValueError, match="rank must be >= 1, got 0"):
        ExperimentConfig(kind="ls", shape=(4, 4), m_grid=(8,), rank=0)
    with pytest.raises(ValueError, match="max_sweeps must be >= 1, got 0"):
        ExperimentConfig(kind="cprand", shape=(4, 4), m_grid=(8,), max_sweeps=0)


def _distortion_config(**kw):
    base = dict(
        kind="distortion",
        shape=(2, 2, 2, 2),
        degrees=(1, 2),
        m_grid=(4, 8),
        trials=5,
        seed=42,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_distortion_runner_basics():
    records = run_distortion(_distortion_config())
    assert len(records) == 2 * 2 * 5  # methods x grid x trials
    methods = {r.method for r in records}
    assert methods == {"fjlt", "kfjlt-d2"}
    assert all(r.value >= 0 and np.isfinite(r.value) for r in records)


def test_distortion_determinism_and_method_independence():
    a = run_distortion(_distortion_config())
    b = run_distortion(_distortion_config())
    assert [(r.method, r.m, r.trial, r.seed, r.value) for r in a] == [
        (r.method, r.m, r.trial, r.seed, r.value) for r in b
    ]
    # dropping a method leaves the other method's draws untouched
    only_d2 = run_distortion(_distortion_config(degrees=(2,)))
    d2_full = [(r.m, r.trial, r.value) for r in a if r.method == "kfjlt-d2"]
    d2_only = [(r.m, r.trial, r.value) for r in only_d2]
    assert d2_full == d2_only


def test_distortion_full_sampling_is_exact():
    config = _distortion_config(degrees=(2,), m_grid=(16,), replacement="without", trials=3)
    records = run_distortion(config)
    assert all(r.value < 1e-10 for r in records)


def test_distortion_kron_and_generic_share_operators():
    kron_cfg = _distortion_config(degrees=(2,))
    generic_cfg = _distortion_config(degrees=(2,), structure="generic")
    a = run_distortion(kron_cfg)
    b = run_distortion(generic_cfg)
    # same trial seeds (hence same operators), different vector structure
    assert [r.seed for r in a] == [r.seed for r in b]
    assert {r.method for r in b} == {"kfjlt-d2-generic"}


def test_distortion_factored_variant():
    cfg = _distortion_config(degrees=(2,), sampling="before", m_grid=(4, 9))
    records = run_distortion(cfg)
    assert {r.method for r in records} == {"kfjlt-d2-factored"}
    assert {r.m for r in records} == {4, 9}  # perfect squares stay matched


def test_distortion_gaussian_baseline():
    cfg = _distortion_config(degrees=(1,), include_gaussian=True, trials=3)
    records = run_distortion(cfg)
    assert {r.method for r in records} == {"fjlt", "gaussian"}


def test_ls_runner():
    cfg = ExperimentConfig(
        kind="ls", shape=(4, 4, 4), m_grid=(8, 32), trials=10, seed=7, rank=2
    )
    records = run_ls(cfg)
    assert len(records) == 2 * 10
    assert all(r.value >= 1.0 - 1e-10 for r in records)
    by_m = {m: np.mean([r.value for r in records if r.m == m]) for m in (8, 32)}
    assert by_m[32] <= by_m[8] + 1e-9


def test_ls_runner_builds_each_problem_once(monkeypatch):
    import kfjlt.bench as bench
    import kfjlt.sketch_ls as sketch_ls

    built, kr_calls = [], []
    make, khatri_rao = bench.make_ls_problem, sketch_ls.khatri_rao
    monkeypatch.setattr(bench, "make_ls_problem", lambda cfg, trial: built.append(trial) or make(cfg, trial))
    cfg = ExperimentConfig(kind="ls", shape=(4, 4, 4), m_grid=(8, 32), trials=2, seed=7, rank=2)
    run_ls(cfg)
    assert built == [0, 1]
    # the residual ratio materializes the Khatri-Rao product once
    monkeypatch.setattr(sketch_ls, "khatri_rao", lambda mats: kr_calls.append(1) or khatri_rao(mats))
    sketch_ls.residual_ratio(make(cfg, 0), np.zeros(2))
    assert len(kr_calls) == 1


def test_cprand_runner():
    cfg = ExperimentConfig(
        kind="cprand", shape=(5, 5, 5), m_grid=(25,), trials=2, seed=3, rank=2,
        max_sweeps=5, fit_tol=0.0,
    )
    records = run_cprand(cfg)
    methods = {r.method for r in records}
    assert methods == {"cp-als-fit", "cp-als-time", "cprand-mix-fit", "cprand-mix-time"}
    als_fits = [r for r in records if r.method == "cp-als-fit"]
    assert all(r.m == 0 for r in als_fits)
    assert len({r.seed for r in als_fits}) == 2  # one stream per synthetic instance


def test_timing_runner():
    cfg = ExperimentConfig(kind="timing", shape=(8, 8), m_grid=(4, 8), trials=20, seed=1)
    records = run_timing(cfg, repeats=2)
    assert len(records) == 2 * 2 * 2
    assert all(r.value > 0 for r in records)
    cfg0 = ExperimentConfig(kind="timing", shape=(8, 8), m_grid=(4,), trials=0, seed=1)
    assert run_timing(cfg0) == []


def test_concentration_runner():
    cfg = ExperimentConfig(
        kind="concentration", shape=(4,), m_grid=(), trials=2000, seed=5
    )
    records = run_concentration(cfg)
    freqs = {(r.method, r.m, r.trial): r.value for r in records if not r.method.endswith("bound")}
    bounds = {(r.method, r.m, r.trial): r.value for r in records if r.method.endswith("bound")}
    assert freqs and len(freqs) == len(bounds)
    for (method, m, case), f in freqs.items():
        assert f <= bounds[(method + "-bound", m, case)] + 0.05


def test_emit_csv_round_trip(tmp_path):
    records = [
        TrialRecord("exp", "b-method", 4, 1, 11, 0.5),
        TrialRecord("exp", "a-method", 4, 0, 10, 0.25),
        TrialRecord("exp", "a-method", 2, 0, 9, 1.0),
    ]
    path, summary = emit_csv(records, tmp_path / "out.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "experiment,method,m,trial,seed,value"
    assert len(lines) == 4
    # deterministic order: by (method, m, trial)
    assert lines[1].startswith("exp,a-method,2,0")
    assert lines[2].startswith("exp,a-method,4,0")
    with open(path, newline="", encoding="utf-8") as fh:
        back = [(r["method"], int(r["m"]), int(r["trial"]), int(r["seed"]), float(r["value"]))
                for r in csv.DictReader(fh)]
    assert sorted(back) == sorted((r.method, r.m, r.trial, r.seed, r.value) for r in records)
    summary_lines = summary.read_text().splitlines()
    assert summary_lines[0] == "method,m,mean,std,count"
    assert len(summary_lines) == 4  # one row per (method, m) group


def test_emit_csv_empty(tmp_path):
    path, summary = emit_csv([], tmp_path / "empty.csv")
    assert path.read_text() == "experiment,method,m,trial,seed,value\n"
    assert summary.read_text() == "method,m,mean,std,count\n"


def test_emit_csv_byte_identical_reruns(tmp_path):
    cfg = _distortion_config()
    p1, _ = emit_csv(run_distortion(cfg), tmp_path / "a.csv")
    p2, _ = emit_csv(run_distortion(cfg), tmp_path / "b.csv")
    assert p1.read_bytes() == p2.read_bytes()


def test_summarize():
    records = [TrialRecord("e", "m", 4, t, 0, float(t)) for t in range(3)]
    [(method, m, mean, std, count)] = summarize(records)
    assert (method, m, count) == ("m", 4, 3)
    assert mean == pytest.approx(1.0)
    assert std == pytest.approx(1.0)


def test_cli_parsers():
    assert parse_shape("125x125") == (125, 125)
    assert parse_m_grid("200:600:200") == (200, 400, 600)
    with pytest.raises(Exception):
        parse_shape("125xx")


def test_cli_end_to_end(tmp_path, capsys):
    out = tmp_path / "d.csv"
    rc = main(
        [
            "distortion",
            "--shape", "2x2x2x2",
            "--degrees", "1,2",
            "--m-list", "4,8",
            "--trials", "3",
            "--seed", "9",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert out.exists() and out.with_suffix(".summary.csv").exists()
    assert len(out.read_text().splitlines()) == 1 + 2 * 2 * 3


def test_cli_config_file_and_override(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "shape=2x2x2x2\ndegrees=1,2\nm_list=4\ntrials=2\nseed=1\n# comment\n"
    )
    import argparse

    ns = argparse.Namespace(
        shape=None, degrees=None, m_grid=None, m_list=None, trials=5, seed=None,
        dist=None, structure=None, sampling=None, replacement=None, gaussian=None,
        rank=None, snr_db=None, sweeps=None, fit_tol=None, out=None,
        config=str(cfg_file),
    )
    config = build_config("distortion", ns)
    assert config.shape == (2, 2, 2, 2)
    assert config.trials == 5  # CLI flag wins over config file
    assert config.seed == 1


def test_cli_error_exit_code(capsys):
    rc = main(["distortion", "--shape", "4x4", "--degrees", "3", "--m-list", "4"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_cli_verify(capsys):
    assert main(["verify", "--seed", "0"]) == 0
    assert "checks passed" in capsys.readouterr().out


def test_ls_noiseless_reports_absolute_residual():
    # infinite SNR: b lies in col(A); the exact residual is zero, so the
    # reported value is the (tiny) absolute residual rather than a ratio
    cfg = ExperimentConfig(
        kind="ls", shape=(4, 4, 4), m_grid=(64,), trials=3, seed=2, rank=2,
        snr_db=float("inf"),
    )
    records = run_ls(cfg)
    assert all(r.value < 1e-8 for r in records)


def test_emit_csv_error_has_path_context(tmp_path):
    with pytest.raises(OSError, match="no/such"):
        emit_csv([], tmp_path / "no" / "such" / "dir.csv")
