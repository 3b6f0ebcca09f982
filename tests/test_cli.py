import json
import os
import subprocess
import sys

import numpy as np
import pytest

from magiciv import Dataset, ScenarioConfig, gen_dataset, load_csv
from magiciv.cli import main
from magiciv.data import write_csv
from magiciv._lapack import _blas_controls, _blas_threads


def _sim_csv(tmp_path, p=10, n=300, seed=5, name="sim.csv"):
    cfg = ScenarioConfig(p=p, n=n, scenario="I", seed=seed)
    ds, _ = gen_dataset(cfg, 0)
    path = tmp_path / name
    write_csv(ds, path)
    return path, ds


def test_estimate_writes_expected_schema(tmp_path, capsys):
    path, ds = _sim_csv(tmp_path)
    out = tmp_path / "est.json"
    code = main([
        "estimate", "--input", str(path), "--outcome", "y", "--exposure", "d",
        "--instruments", ",".join(ds.names()), "--output", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["r"] == 45
    assert payload["p"] == 10 and payload["q"] == 2 and payload["n"] == 300
    assert payload["schema_version"] == "1"
    assert payload["growth"]["r2_over_n"] == 45**2 / 300
    assert payload["growth"]["r3_over_n"] == 45**3 / 300
    assert payload["plan"]["orders"]["2"][0] == [0, 1]
    assert "tsls" in payload["baselines"] and "efficient_fixed_r" in payload["baselines"]
    assert payload["ci_low"] <= payload["beta_hat"] <= payload["ci_high"]
    assert payload["f_stat"] is not None
    # the payload spreads CueResult: a new field must show up here first
    assert set(payload) == {
        "schema_version", "config", "beta_hat", "se", "ci_low", "ci_high", "ci_level",
        "j_stat", "j_df", "j_pvalue", "q_min", "r", "n", "p", "q", "boundary_flag",
        "ridge_used", "f_stat", "f_stat_error", "plan", "growth", "baselines",
    }


@pytest.mark.skipif(not _blas_controls(), reason="no BLAS with a settable thread count is loaded")
def test_estimate_json_does_not_depend_on_blas_threads(tmp_path, capsys):
    # the benchmark's CSV design: p = 12, q = 3 (r = 286), n = 20000
    path, ds = _sim_csv(tmp_path, p=12, n=20000, seed=0)
    out = tmp_path / "est.json"
    args = ["estimate", "--input", str(path), "--instruments", ",".join(ds.names()),
            "--q", "3", "--output", str(out)]
    payloads = {}
    for count in (1, 2):
        with _blas_threads(count):  # the caller's thread count
            assert {get() for get, _ in _blas_controls()} == {count}
            assert main(args) == 0
        payloads[count] = out.read_bytes()
    assert payloads[1] == payloads[2]
    assert json.loads(payloads[1])["f_stat_error"] is None


def test_estimate_without_output_writes_same_json_to_stdout(tmp_path, capsys):
    path, ds = _sim_csv(tmp_path, p=4, n=300)
    out = tmp_path / "est.json"
    args = ["estimate", "--input", str(path), "--instruments", ",".join(ds.names())]
    assert main(args + ["--output", str(out)]) == 0
    capsys.readouterr()
    assert main(args) == 0
    assert capsys.readouterr().out == out.read_text()


def test_estimate_single_instrument_is_data_error(tmp_path, capsys):
    path = tmp_path / "p1.csv"
    path.write_text("y,d,z1\n1.0,0.5,1\n2.0,1.5,0\n0.5,0.25,1\n")
    code = main(["estimate", "--input", str(path), "--outcome", "y",
                 "--exposure", "d", "--instruments", "z1"])
    assert code == 1
    assert "requires p >= 2" in capsys.readouterr().err


def test_estimate_missing_column_is_data_error(tmp_path, capsys):
    path, _ = _sim_csv(tmp_path, p=3)
    code = main(["estimate", "--input", str(path), "--outcome", "y",
                 "--exposure", "d", "--instruments", "z1,zz"])
    assert code == 1
    assert "missing column" in capsys.readouterr().err


def test_estimate_duplicated_instrument_triggers_ridge(tmp_path, capsys):
    # duplicating an instrument duplicates an interaction column, making the
    # weighting matrix exactly singular: the ridge ladder must engage
    cfg = ScenarioConfig(p=2, n=250, c=8.0, seed=9)
    ds, _ = gen_dataset(cfg, 0)
    z = np.column_stack([ds.z, ds.z[:, 0]])
    from magiciv import Dataset

    tripled = Dataset(y=ds.y, d=ds.d, z=z, instrument_names=("z1", "z2", "z3"))
    path = tmp_path / "dup.csv"
    write_csv(tripled, path)
    out = tmp_path / "dup.json"
    code = main(["estimate", "--input", str(path), "--outcome", "y",
                 "--exposure", "d", "--instruments", "z1,z2,z3",
                 "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["ridge_used"] is True
    assert payload["f_stat"] is None  # diagnostic design is rank deficient
    assert payload["f_stat_error"]


_RANK_ERROR = "first-stage design (1, z) rank 6 < 7; instruments collinear"


def _fail_on_constant(name):
    pytest.fail(f"{name} in the JSON output")


@pytest.mark.parametrize(
    "edit, flags, codes, expect",
    [
        # an instrument duplicated under another name: the CUE rides the ridge
        # ladder, everything built on the linear first stage reports its rank
        (
            lambda ds: Dataset(y=ds.y, d=ds.d, z=np.column_stack([ds.z, ds.z[:, 0]])),
            [], {0},
            {"ridge_used": True, "f_stat": None, "f_stat_error": _RANK_ERROR,
             "baselines.tsls.error": _RANK_ERROR,
             "baselines.efficient_fixed_r.error": _RANK_ERROR},
        ),
        # no interaction moves the exposure: the CUE refuses it by the rule
        # that sets F_q to exactly 0
        (
            lambda ds: Dataset(y=ds.y, d=1.0 + ds.z @ np.arange(1.0, 6.0), z=ds.z),
            [], {2}, "no interaction carries exposure signal",
        ),
        (
            lambda ds: Dataset(y=ds.y[:11], d=ds.d[:11], z=ds.z[:11]),
            [], {0}, {"r": 10, "f_stat": None, "f_stat_error": "need n > r + 1"},
        ),
        (
            lambda ds: Dataset(y=ds.y[:14], d=ds.d[:14], z=ds.z[:14]),
            ["--q", "3"], {2}, "need n >= 16",
        ),
        (lambda ds: ds, ["--bounds", "1"], {1}, "bounds needs exactly two numbers"),
        # search settings that are not finite: refused before the data are read
        (lambda ds: ds, ["--bounds=-inf,10"], {1}, "invalid bounds [-inf, 10.0]"),
        (lambda ds: ds, ["--tol", "inf"], {1}, "tol must be positive and finite"),
        (lambda ds: ds, ["--tol", "nan"], {1}, "tol must be positive and finite"),
        (lambda ds: ds, ["--ridge", "inf"], {1}, "ridge must be >= 0 and finite"),
        (lambda ds: ds, ["--ridge", "nan"], {1}, "ridge must be >= 0 and finite"),
        # an output path under a file: refused before the data are read
        (
            lambda ds: ds, ["--output", os.path.join(os.devnull, "out.json")], {1},
            "error: cannot write output: ",
        ),
    ],
    ids=["duplicated_instrument", "exposure_linear_in_z", "n_is_r_plus_1",
         "n_below_basis_width", "one_bound", "infinite_bound", "infinite_tol", "nan_tol",
         "infinite_ridge", "nan_ridge", "unwritable_output"],
)
def test_estimate_degenerate_inputs(tmp_path, capsys, edit, flags, codes, expect):
    ds, _ = gen_dataset(ScenarioConfig(p=5, n=400, scenario="I", seed=5), 0)
    ds = edit(ds)
    path, out = tmp_path / "in.csv", tmp_path / "out.json"
    write_csv(ds, path)
    code = main(["estimate", "--input", str(path), "--instruments", ",".join(ds.names()),
                 "--output", str(out), *flags])
    err = capsys.readouterr().err
    assert code in codes
    if code:
        assert err.startswith({1: "error: ", 2: "numerical failure: "}[code])
        assert not out.exists()
        if isinstance(expect, str):
            assert expect in err
        return
    payload = json.loads(out.read_text(), parse_constant=_fail_on_constant)
    for key, want in expect.items():
        value = payload
        for part in key.split("."):
            value = value[part]
        if isinstance(want, str):
            assert want in value, key
        else:
            assert value == want, key


def test_estimate_numerical_failure_exit_code(tmp_path, capsys):
    # six observations cannot support the seven-column order-3 basis
    path, ds = _sim_csv(tmp_path, p=3, n=6, name="tiny.csv")
    code = main(["estimate", "--input", str(path), "--outcome", "y",
                 "--exposure", "d", "--instruments", ",".join(ds.names()),
                 "--q", "3"])
    assert code == 2
    assert "need n >=" in capsys.readouterr().err


def test_estimate_flat_objective_exit_code(tmp_path, capsys, monkeypatch):
    # moments with b = 0 make Q constant in beta; the zero curvature at the
    # minimizer is a numerical failure, exit 2, and no JSON is written
    from magiciv import cue, moments

    def flat(ds, nuis, plan):
        a = np.random.default_rng(3).standard_normal((ds.n, plan.r))
        return moments.components_from_arrays(a, 0.0 * a)

    monkeypatch.setattr(cue, "build_components", flat)
    path, ds = _sim_csv(tmp_path, p=4, n=200, name="flat.csv")
    out = tmp_path / "flat.json"
    code = main(["estimate", "--input", str(path), "--instruments", ",".join(ds.names()),
                 "--output", str(out)])
    assert code == 2
    assert "numerical failure: nonpositive objective curvature" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_exactly_identified_has_null_pvalue(tmp_path):
    path, ds = _sim_csv(tmp_path, p=2, n=200, name="p2.csv")
    out = tmp_path / "p2.json"
    code = main(["estimate", "--input", str(path), "--outcome", "y",
                 "--exposure", "d", "--instruments", ",".join(ds.names()),
                 "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["r"] == 1
    assert payload["j_pvalue"] is None and payload["j_df"] == 0


def test_simulate_runs_are_byte_identical(tmp_path, capsys):
    args = ["simulate", "--scenario", "I", "--p", "4", "--n", "200",
            "--reps", "6", "--seed", "3", "--c", "8.0"]
    out1, out2, out3 = (tmp_path / f"mc{i}.json" for i in (1, 2, 3))
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert main(args + ["--workers", "2", "--output", str(out3)]) == 0
    assert out1.read_bytes() == out2.read_bytes() == out3.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["reps"] == 6
    assert payload["config"]["seed"] == 3


def test_simulate_without_output_writes_json_to_stdout_and_table_to_stderr(tmp_path, capsys):
    args = ["simulate", "--p", "4", "--n", "150", "--reps", "2", "--seed", "4", "--c", "8.0"]
    out = tmp_path / "mc.json"
    assert main(args + ["--output", str(out)]) == 0
    table = capsys.readouterr().out
    assert main(args) == 0
    captured = capsys.readouterr()
    assert captured.out == out.read_text()
    assert captured.err == table and "MAGIC" in table


def test_simulate_reps_zero_is_config_error(capsys):
    code = main(["simulate", "--p", "4", "--n", "100", "--reps", "0"])
    assert code == 1
    assert "reps" in capsys.readouterr().err


def test_simulate_excess_exclusions_exit_code(capsys):
    code = main(["simulate", "--p", "2", "--n", "2", "--reps", "4", "--methods", "magic"])
    assert code == 3


@pytest.mark.parametrize("flag, what", [("--output", "output"), ("--emit-data", "data")])
def test_simulate_unwritable_path_is_config_error(capsys, flag, what):
    code = main(["simulate", "--p", "4", "--n", "150", "--reps", "2", "--methods", "tsls",
                 flag, os.path.join(os.devnull, "out")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {what}: ")


def _unwritable_outputs(tmp_path):
    return [os.path.join(os.devnull, "out.json"), str(tmp_path)]


def test_estimate_refuses_an_unwritable_output_before_the_fit(tmp_path, capsys, monkeypatch):
    from magiciv import cli

    def fit(*args, **kwargs):
        pytest.fail("estimate_cue ran before the output path was checked")

    monkeypatch.setattr(cli, "estimate_cue", fit)
    path, ds = _sim_csv(tmp_path, p=4, n=200)
    for output in _unwritable_outputs(tmp_path):
        code = main(["estimate", "--input", str(path), "--instruments", ",".join(ds.names()),
                     "--output", output])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: cannot write output: ")


def test_simulate_refuses_an_unwritable_output_before_the_run(tmp_path, capsys, monkeypatch):
    from magiciv import cli

    def run(*args, **kwargs):
        pytest.fail("run_monte_carlo ran before the output path was checked")

    monkeypatch.setattr(cli, "run_monte_carlo", run)
    for output in _unwritable_outputs(tmp_path):
        code = main(["simulate", "--p", "4", "--n", "150", "--reps", "2", "--output", output])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: cannot write output: ")
    assert os.listdir(tmp_path) == []


def test_simulate_table_and_emit_data(tmp_path, capsys):
    out = tmp_path / "mc.json"
    emitted = tmp_path / "rep0.csv"
    code = main(["simulate", "--p", "4", "--n", "150", "--reps", "2", "--seed", "4",
                 "--c", "8.0", "--output", str(out), "--emit-data", str(emitted)])
    assert code == 0
    table = capsys.readouterr().out
    assert "MAGIC" in table and "TSLS" in table
    assert emitted.exists()
    from magiciv import load_csv, validate

    back = load_csv(emitted, "y", "d", ["z1", "z2", "z3", "z4"])
    assert validate(back) == []


@pytest.mark.skipif(not _blas_controls(), reason="no BLAS with a settable thread count is loaded")
def test_emitted_data_is_replication_zero_at_any_blas_threads(tmp_path, capsys):
    # the CSV is the dataset replication 0 is fit on, which run_monte_carlo
    # generates on one BLAS thread; at n = 10003 with the misspecified
    # outcome an unpinned gen_dataset rounded differently at two threads
    emitted = tmp_path / "rep0.csv"
    with _blas_threads(2):  # the caller's thread count
        code = main(["simulate", "--p", "12", "--n", "10003", "--misspecify-alice", "true",
                     "--reps", "1", "--methods", "tsls", "--emit-data", str(emitted)])
    assert code == 0
    with _blas_threads(1):
        want, _ = gen_dataset(ScenarioConfig(p=12, n=10003, misspecify_alice=True), 0)
    back = load_csv(emitted, "y", "d", list(want.names()))
    for got, expected in ((back.y, want.y), (back.d, want.d), (back.z, want.z)):
        assert got.tobytes() == expected.tobytes()


def test_simulate_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# Monte Carlo settings\n"
        "scenario = I\n"
        "p = 4\n"
        "n = 150\n"
        "reps = 2\n"
        "seed = 12\n"
        "c = 8.0\n"
    )
    out = tmp_path / "mc.json"
    code = main(["simulate", "--config", str(cfg_file), "--reps", "3",
                 "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["reps"] == 3  # flag wins
    assert payload["config"]["p"] == 4
    assert payload["reps"] == 3


def test_rerunning_from_config_echo_reproduces_output(tmp_path):
    out1 = tmp_path / "a.json"
    code = main(["simulate", "--p", "4", "--n", "150", "--reps", "3", "--seed", "31",
                 "--c", "8.0", "--output", str(out1)])
    assert code == 0
    echo = json.loads(out1.read_text())["config"]
    cfg_file = tmp_path / "echo.cfg"
    lines = []
    for key, value in echo.items():
        if isinstance(value, (list, tuple)):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    cfg_file.write_text("\n".join(lines) + "\n")
    out2 = tmp_path / "b.json"
    assert main(["simulate", "--config", str(cfg_file), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_config_file_unknown_key(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("repz = 3\n")
    code = main(["simulate", "--config", str(cfg_file)])
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


def test_config_file_with_byte_order_mark(tmp_path, capsys):
    # Excel and Notepad save UTF-8 text with a byte-order mark in front
    cfg_file = tmp_path / "bom.cfg"
    cfg_file.write_bytes("\ufeffp = 3\n".encode())
    assert main(["oracle-check", "--config", str(cfg_file)]) == 0
    assert '"p": 3' in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["csv", "config"])
def test_undecodable_input_file_is_an_error_naming_it(tmp_path, capsys, kind):
    # a Latin-1 "cafe" with its accent, in a CSV header or a config comment
    bad = tmp_path / "latin1.txt"
    if kind == "csv":
        bad.write_bytes(b"y,d,z1,z2,caf\xe9\n1,2,1,0,1\n2,3,0,1,0\n")
        args = ["estimate", "--input", str(bad), "--instruments", "z1,z2"]
    else:
        bad.write_bytes(b"# caf\xe9\np = 3\n")
        args = ["oracle-check", "--config", str(bad)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad} is not UTF-8 text: byte 0xe9 (invalid continuation byte)\n"


def test_oracle_check_default_passes(capsys):
    assert main(["oracle-check"]) == 0
    out = capsys.readouterr().out
    assert "population beta" in out and "PASS" in out


def test_oracle_check_dependent_expected_fail(capsys):
    assert main(["oracle-check", "--p", "3", "--dependent", "true"]) == 0
    assert "fails as expected" in capsys.readouterr().out


_STEP_ERROR = "error: step must be positive, with 2 * step finite (got {})\n"
_GRID_ERROR = "error: beta_grid needs one value or more, all finite (got {})\n"


@pytest.mark.parametrize(
    "flags, code, err",
    [
        (["--step", "nan"], 1, _STEP_ERROR.format("nan")),
        (["--dependent", "true", "--step", "nan"], 1, _STEP_ERROR.format("nan")),
        (["--step", "inf"], 1, _STEP_ERROR.format("inf")),
        (["--step", "1e308"], 1, _STEP_ERROR.format("1e+308")),
        (
            ["--step", "1e-300"], 1,
            "error: step 1e-300 leaves an order-2 nuisance coordinate unchanged\n",
        ),
        (["--beta-grid="], 1, _GRID_ERROR.format("()")),
        (["--beta-grid", "nan"], 1, _GRID_ERROR.format("(nan,)")),
        (
            ["--p", "3", "--beta-grid", "1e200", "--step", "1e200"], 2,
            "numerical failure: order-2 orthogonality derivative is nan at beta=1e+200\n",
        ),
    ],
    ids=["nan_step", "nan_step_dependent", "infinite_step", "overflowing_step",
         "vanishing_step", "empty_grid", "nan_grid", "nan_derivative"],
)
def test_oracle_check_reports_no_verdict_it_did_not_compute(capsys, flags, code, err):
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["oracle-check", *flags]) == code
    out, got = capsys.readouterr()
    assert (out, got) == ("", err)


def test_oracle_check_guard(capsys):
    assert main(["oracle-check", "--p", "13"]) == 1
    assert "oracle supports" in capsys.readouterr().err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "magiciv", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "magiciv" in proc.stdout
