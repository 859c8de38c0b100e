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
from kfjlt.cli import main, parse_m_grid, parse_shape
from kfjlt.kron import KroneckerVector, ResourceLimitError, Shape, khatri_rao, kron_materialize
from kfjlt.transforms import materialize_operator


def test_group_dims():
    assert group_dims((4,) * 6, 1) == (4096,)
    assert group_dims((4,) * 6, 2) == (64, 64)
    assert group_dims((4,) * 6, 3) == (16, 16, 16)
    assert group_dims((4,) * 6, 6) == (4,) * 6
    assert group_dims((3, 4, 5), 3) == (3, 4, 5)
    with pytest.raises(ValueError):
        group_dims((4,) * 6, 4)
    for degree in (0, -1):
        with pytest.raises(ValueError, match=f"at degree {degree}: 6 is not divisible"):
            group_dims((4,) * 6, degree)


def test_group_factors_preserves_vector():
    rng = np.random.default_rng(0)
    factors = [rng.standard_normal(4) for _ in range(6)]
    full = kron_materialize(KroneckerVector(tuple(factors)))
    for degree in (1, 2, 3, 6):
        grouped = group_factors(factors, degree)
        assert grouped.shape.dims == group_dims((4,) * 6, degree)
        assert np.allclose(kron_materialize(grouped), full, rtol=1e-12)
    # the degree is checked before it divides anything
    for degree in (0, 4):
        with pytest.raises(ValueError, match=f"6-factor shape at degree {degree}"):
            group_factors(factors, degree)


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
    with pytest.raises(ValueError, match="fit_tol must not be NaN, got nan"):
        ExperimentConfig(kind="cprand", shape=(4, 4), m_grid=(8,), fit_tol=float("nan"))
    for snr_db in (float("nan"), float("-inf")):
        with pytest.raises(ValueError, match=f"snr_db must be finite or \\+inf, got {snr_db}"):
            ExperimentConfig(kind="ls", shape=(4, 4), m_grid=(8,), snr_db=snr_db)
    with pytest.raises(ValueError, match="unknown dist 'normal'"):
        ExperimentConfig(kind="distortion", shape=(4, 4), m_grid=(4,), dist="normal")
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        ExperimentConfig(kind="distortion", shape=(4, 4), m_grid=(4,), seed=-1)
    # a repeated m would run, and be summarized, twice
    for kind in ("distortion", "timing", "ls", "cprand", "concentration"):
        with pytest.raises(ValueError, match=r"m=4 is repeated in \(8, 4, 4\)"):
            ExperimentConfig(kind=kind, shape=(2, 2), m_grid=(8, 4, 4))
    with pytest.raises(ValueError, match="at least one degree"):
        ExperimentConfig(kind="distortion", shape=(2, 2), degrees=(), m_grid=(4,))


@pytest.mark.parametrize("field, value, named", [
    ("shape", (4.7, 4), "shape 4.7"),
    ("m_grid", (8.9,), "m_grid 8.9"),
    ("degrees", (1.5,), "degrees 1.5"),
    ("trials", 2.5, "trials 2.5"),
    ("rank", 2.5, "rank 2.5"),
    ("seed", 1.0, "seed 1.0"),
    ("max_sweeps", 3.0, "max_sweeps 3.0"),
    ("trials", True, "trials True"),
    ("shape", (4, False), "shape False"),
])
def test_config_refuses_non_integer_settings(field, value, named):
    settings = {"kind": "distortion", "shape": (4, 4), "m_grid": (8,), field: value}
    with pytest.raises(ValueError, match=f"^{named} is not an integer$"):
        ExperimentConfig(**settings)


def test_config_takes_numpy_integers_as_ints():
    cfg = ExperimentConfig(kind="distortion", shape=np.array([4, 4]), m_grid=(np.int64(8),),
                           trials=np.int32(3), seed=np.uint8(1))
    assert cfg.shape == (4, 4) and cfg.m_grid == (8,) and (cfg.trials, cfg.seed) == (3, 1)
    assert all(type(v) is int for v in (*cfg.shape, *cfg.m_grid, cfg.trials, cfg.seed))


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


def test_generic_distortion_checks_the_cap_before_drawing(monkeypatch):
    monkeypatch.setattr("kfjlt.kron.DEFAULT_MATERIALIZE_CAP", 63)
    cfg = _distortion_config(shape=(8, 8), degrees=(2,), m_grid=(4,), structure="generic", trials=1)
    with pytest.raises(ResourceLimitError, match="generic distortion vector of size 64 exceeds the cap 63"):
        run_distortion(cfg)
    monkeypatch.setattr("kfjlt.kron.DEFAULT_MATERIALIZE_CAP", 64)
    assert len(run_distortion(cfg)) == 1


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

    built, kr_rows, solved = [], [], []
    make, solve, product = bench.make_ls_problem, bench.solve_sketched_ls, khatri_rao
    monkeypatch.setattr(bench, "make_ls_problem", lambda cfg, trial: built.append(trial) or make(cfg, trial))

    def recorded(problem, op):
        solved.append((problem, solve(problem, op)))
        return solved[-1][1]

    def counted(mats):
        out = product(mats)
        kr_rows.append(out.shape[0])
        return out

    monkeypatch.setattr(bench, "solve_sketched_ls", recorded)
    monkeypatch.setattr("kfjlt.kron.khatri_rao", counted)
    monkeypatch.setattr("kfjlt.sketch_ls.khatri_rao", counted)
    # the cap admits the length-64 rhs but not the 64 x 2 Khatri-Rao product
    monkeypatch.setattr("kfjlt.kron.DEFAULT_MATERIALIZE_CAP", 64)
    cfg = ExperimentConfig(kind="ls", shape=(4, 4, 4), m_grid=(8, 32), trials=2, seed=7, rank=2)
    records = run_ls(cfg)
    assert built == [0, 1]
    assert kr_rows and 64 not in kr_rows  # only N / n_d-row products are formed
    monkeypatch.undo()  # the dense oracle below needs the default cap
    assert len(solved) == len(records)
    for record, (problem, result) in zip(records, solved):
        a, b = khatri_rao(problem.factor_matrices), problem.rhs
        exact = np.linalg.norm(a @ np.linalg.lstsq(a, b, rcond=None)[0] - b)
        assert record.value == pytest.approx(np.linalg.norm(a @ result.solution - b) / exact, rel=1e-12)


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
    records = run_timing(cfg)
    assert len(records) == 2 * 2 * 3  # m values x methods x TIMING_REPEATS
    assert all(r.value > 0 for r in records)
    cfg0 = ExperimentConfig(kind="timing", shape=(8, 8), m_grid=(4,), trials=0, seed=1)
    assert run_timing(cfg0) == []


def test_timing_flat_pass_is_the_library_fjlt_in_capped_chunks(monkeypatch):
    import kfjlt.bench as bench

    flat_calls, structured = [], []
    apply_dense, sketch = bench.kfjlt_apply_dense, bench.sketch_khatri_rao
    monkeypatch.setattr(bench, "kfjlt_apply_dense", lambda op, x: flat_calls.append((op, x)) or apply_dense(op, x))
    monkeypatch.setattr(bench, "sketch_khatri_rao", lambda op, mats: structured.append(op) or sketch(op, mats))
    monkeypatch.setattr("kfjlt.kron.DEFAULT_MATERIALIZE_CAP", 3 * 16)
    cfg = ExperimentConfig(kind="timing", shape=(4, 4), m_grid=(8,), trials=10, seed=2)
    assert len(run_timing(cfg)) == 2 * 3
    # one warm-up and three measured passes, each in chunks of 3 vectors
    assert [x.shape for _, x in flat_calls] == [(16, 3), (16, 3), (16, 3), (16, 1)] * 4
    monkeypatch.undo()  # the oracle below needs the default cap
    op = structured[0]
    assert len(structured) == 4 and all(s is op for s in structured)
    zeta = khatri_rao(list(op.signs))
    for flat, x in flat_calls:
        assert flat.shape == Shape((16,)) and flat.scale == op.scale
        assert np.array_equal(flat.signs[0], zeta) and np.array_equal(flat.rows, op.rows)
        assert np.allclose(apply_dense(flat, x), materialize_operator(flat) @ x, rtol=0, atol=1e-10)


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


def _exit_code(argv) -> int:
    """``main``'s return value, or the status of the argparse exit it raised."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_cli_config_file_and_override(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "shape=2x2x2x2\ndegrees=1,2\nm_list=4\ntrials=2\nseed=1\n# comment\n"
    )
    from_file = tmp_path / "file.csv"
    from_flags = tmp_path / "flags.csv"
    # the command-line --trials 5 wins over the file's trials=2
    assert main(["distortion", "--config", str(cfg_file), "--trials", "5", "--out", str(from_file)]) == 0
    assert main([
        "distortion", "--shape", "2x2x2x2", "--degrees", "1,2", "--m-list", "4",
        "--trials", "5", "--seed", "1", "--out", str(from_flags),
    ]) == 0
    assert from_file.read_bytes() == from_flags.read_bytes()
    summary = ".summary.csv"
    assert from_file.with_suffix(summary).read_bytes() == from_flags.with_suffix(summary).read_bytes()
    assert len(from_file.read_text().splitlines()) == 1 + 2 * 5
    # --m-grid and --m-list set one grid: an explicit --m-grid beats the
    # file's m_list, and on the command line the later flag wins
    for argv, m in [
        (["--config", str(cfg_file), "--m-grid", "2:2:1"], {"2"}),
        (["--shape", "2x2", "--trials", "1", "--m-list", "4", "--m-grid", "2:2:1"], {"2"}),
        (["--shape", "2x2", "--trials", "1", "--m-grid", "2:2:1", "--m-list", "4"], {"4"}),
    ]:
        assert main(["distortion", *argv, "--out", str(from_file)]) == 0
        assert {row.split(",")[2] for row in from_file.read_text().splitlines()[1:]} == m


@pytest.mark.parametrize("line, named", [
    ("shape=4xx", "'4xx'"),
    ("gaussian=ture", "'ture'"),
    ("foo=1", "foo"),
    ("config=other.cfg", "'config'"),
    ("sweep=5", "'sweep'"),  # argparse alone would take it as --sweeps
    ("conf=other.cfg", "'conf'"),  # and this as --config
])
def test_cli_bad_config_file_exits_2(tmp_path, capsys, line, named):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"m_list=4\n{line}\n")
    argv = ["distortion", "--config", str(cfg_file), "--shape", "4x4", "--out", str(tmp_path / "d.csv")]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "d.csv").exists()


def test_cli_abbreviations_and_sweeps_on_the_command_line(tmp_path, capsys):
    out = tmp_path / "cp.csv"
    argv = ["cprand", "--shape", "3x3", "--m-list", "4", "--trials", "1", "--rank", "1", "--out", str(out)]
    # abbreviated flags stay accepted on the command line, only file keys are exact
    assert main([*argv, "--sweep", "2"]) == 0
    out.unlink()
    assert main([*argv, "--sweeps", "0"]) == 2
    assert "max_sweeps must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_cli_config_file_negative_and_boolean_values(tmp_path):
    cfg_file = tmp_path / "ls.cfg"
    cfg_file.write_text("shape=4x4\nm_list=8\ntrials=1\nsnr_db=-3\ngaussian=no\n")
    out = tmp_path / "ls.csv"
    assert main(["ls", "--config", str(cfg_file), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2
    cfg_file.write_text("shape=2x2\nm_list=4\ntrials=1\ngaussian=Yes\n")
    assert main(["distortion", "--config", str(cfg_file), "--out", str(out)]) == 0
    assert {row.split(",")[1] for row in out.read_text().splitlines()[1:]} == {"fjlt", "gaussian"}


@pytest.mark.parametrize("argv", [
    ["ls", "--shape", "8x16", "--rank", "2"],  # a 128-entry rhs
    ["cprand", "--shape", "5x5x5", "--rank", "1", "--sweeps", "2"],  # 125 entries
    ["distortion", "--shape", "4x8", "--gaussian"],  # a 32-entry vector, a 4 x 32 sketch
], ids=["ls", "cprand", "gaussian"])
def test_cli_cap_breach_exits_2_before_allocating(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr("kfjlt.kron.DEFAULT_MATERIALIZE_CAP", 100)

    def no_product(*args):
        raise AssertionError("a dense product was formed before the cap check")

    monkeypatch.setattr("kfjlt.bench.khatri_rao", no_product)
    monkeypatch.setattr("kfjlt.bench.khatri_rao_matvec", no_product)
    monkeypatch.setattr("kfjlt.cprand.khatri_rao", no_product)
    out = tmp_path / "out.csv"
    assert main([*argv, "--m-list", "4", "--trials", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "exceeds the cap 100" in err and "Traceback" not in err
    assert not out.exists()


def test_cli_error_exit_code(capsys):
    rc = main(["distortion", "--shape", "4x4", "--degrees", "3", "--m-list", "4"])
    assert rc == 2
    assert "error" in capsys.readouterr().err
    # the Monte Carlo tail checks need at least one draw
    assert main(["concentration", "--shape", "4", "--trials", "0"]) == 2
    assert "trials must be >= 1" in capsys.readouterr().err


def test_cli_verify(capsys):
    assert main(["verify", "--seed", "0"]) == 0
    assert "checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["verify"],
    ["distortion", "--shape", "2x2", "--m-list", "2", "--trials", "1"],
], ids=["verify", "distortion"])
@pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
def test_cli_bad_seed_exits_2_naming_it(tmp_path, capsys, argv, seed):
    out = tmp_path / "d.csv"
    assert _exit_code([*argv, "--seed", seed, *(["--out", str(out)] if len(argv) > 1 else [])]) == 2
    err = capsys.readouterr().err
    assert f"bad seed {seed!r}" in err and "Traceback" not in err
    assert not out.exists()
    # a config file goes through the same flag
    cfg_file = tmp_path / "seed.cfg"
    cfg_file.write_text(f"seed={seed}\n")
    if len(argv) > 1:
        assert _exit_code([*argv, "--config", str(cfg_file), "--out", str(out)]) == 2
        assert f"bad seed {seed!r}" in capsys.readouterr().err


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
