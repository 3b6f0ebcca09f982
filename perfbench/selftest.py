"""Self-tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/selftest.py

They check the metric names and units against BENCHMARK.json, the result
schema of both modes, the comparison rule on synthetic inputs, and that the
benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(workload, "MC_DESIGN", dict(scenario="I", p=4, q=2, n=300, c=8.0))
    monkeypatch.setattr(workload, "MC_REPS", 4)
    monkeypatch.setattr(workload, "CSV_DESIGN", dict(scenario="I", p=4, q=3, n=400, c=8.0))
    monkeypatch.setattr(workload, "WORKDIR", tmp_path)


def test_benchmark_json_matches_workload_metrics():
    assert list(SPEC) == ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workload.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workload.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workload.PER_LAYER_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def _run(name: str, trace: bool) -> dict:
    inp = workload.CsvInput(1, "selftest") if name == "estimate_csv" else workload.mc_config(1)
    try:
        return workload.measure(name, 1, 0.0, trace, 0.5, inp)
    finally:
        if name == "estimate_csv":
            inp.remove()


@pytest.mark.parametrize("name", workload.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_result_schema_and_correctness(tiny, name, trace):
    result = _run(name, trace)
    assert result["problems"] == []
    assert result["correct"] is True
    assert result["failed"] == 0
    ops_per_call = 1 if name == "estimate_csv" else workload.MC_REPS
    assert result["attempted"] == 3 * ops_per_call
    units = workload.PER_LAYER_UNITS if trace else workload.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        busy = result["metrics"]["cue.minimize.busy_s"]["value"]
        assert busy > 0.0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_mc_digest_is_the_same_on_both_runners(tiny):
    assert _run("mc_inproc", False)["digest"] == _run("mc_pool", False)["digest"]


def test_wrong_output_fails_the_gate(tiny, monkeypatch):
    real = workload.run_estimate

    def corrupted(inp):
        payload, *rest = real(inp)
        payload["j_stat"] = -1.0
        return (payload, *rest)

    monkeypatch.setattr(workload, "run_estimate", corrupted)
    result = _run("estimate_csv", False)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 3


@pytest.mark.parametrize("name", ["mc_inproc", "estimate_csv"])
def test_replay_that_departs_from_the_program_fails(tiny, monkeypatch, name):
    real = workload.minimize

    def drifted(*args, **kwargs):
        fit = real(*args, **kwargs)
        return dataclasses.replace(fit, beta_hat=fit.beta_hat * (1.0 + 1e-15) + 1e-300)

    monkeypatch.setattr(workload, "minimize", drifted)
    result = _run(name, True)
    assert result["correct"] is False
    assert any("replay differs" in p for p in result["problems"])


def test_reference_check_flags_a_mismatch(monkeypatch, tmp_path):
    ref = tmp_path / "reference.json"
    ref.write_text(json.dumps({"mc": {"magic.sd": 1.0}, "estimate_csv": {"beta_hat": 0.5}}))
    monkeypatch.setattr(workload, "REFERENCE_FILE", ref)
    assert workload.check_reference("mc_pool", {"magic.sd": 1.0 + 1e-12}) == []
    assert workload.check_reference("mc_pool", {"magic.sd": 1.0 + 1e-8}) != []
    assert workload.check_reference("estimate_csv", {"beta_hat": 0.5}) == []


def test_tracer_records_parents_and_failures():
    tr = workload.Tracer(op=7)

    def outer():
        tr.call("inner", lambda: None)
        with pytest.raises(workload.MagicivError):
            tr.call("bad", _raise)

    def _raise():
        raise workload.MagicivError("boom")

    tr.call("outer", outer)
    names = [(s[0], s[3], s[4]) for s in tr.spans]
    assert names == [("outer", None, 7), ("inner", 0, 7), ("bad", 0, 7)]
    assert tr.failures == {"bad": 1}
    assert all(s[2] >= s[1] for s in tr.spans)


def test_compare_gain_when_change_wins_nine_tenths():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    change = [p * 0.8 for p in parent]
    change[3] = 1.5  # one lost pair is allowed
    assert compare.verdict(parent, change, False, 0.1)[0] == "gain"


def test_compare_needs_ten_pairs():
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99]
    change = [p * 0.5 for p in parent]
    assert compare.verdict(parent, change, False, 0.1)[0] != "gain"


def test_compare_regression_and_unresolved():
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    worse = [p * 1.3 for p in parent]
    assert compare.verdict(parent, worse, False, 0.1)[0] == "regression"
    # a clear 5% slowdown is a loss, but within the bound
    assert compare.verdict(parent, [p * 1.05 for p in parent], False, 0.1)[0] == "loss"
    assert compare.verdict(parent, parent[::-1], False, 0.1)[0] == "same"
    noisy = [1.0, 2.0, 0.5, 1.5, 1.0, 3.0, 0.7, 1.2, 0.9, 2.5]
    assert compare.verdict(noisy, [v * 1.1 for v in noisy], False, 0.1)[0] == "unresolved"
    # higher is better: a drop is the regression
    assert compare.verdict(parent, [p * 0.7 for p in parent], True, 0.1)[0] == "regression"


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "mc_inproc", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
