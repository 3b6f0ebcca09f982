"""Benchmark entry point for magiciv.

    python3 perfbench/run.py --workload mc_inproc --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Each workload runs in a fresh Python process whose environment has the BLAS
thread variables removed, so the package's own thread choice is what gets
measured. Set-up (interpreter start, ``import magiciv``, input generation)
is timed in several fresh processes and reported as their median. The last
line of stdout is the result JSON; the lines before it repeat the metrics
for a reader. The exit code is 0 when every output passed the correctness
gate, 1 when one did not, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc_inproc", "mc_pool", "estimate_csv")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 2  # set-up-only processes; the measuring process adds one sample
BUDGET_S = 170.0  # one workload, all of its processes


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(args: list[str], deadline: float) -> dict:
    """Run workload.py in a fresh process and parse its last stdout line."""
    cmd = [sys.executable, str(HERE / "workload.py"), *args]
    cmd += ["--t0", repr(time.perf_counter())]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"workload process exceeded the {BUDGET_S:.0f} s budget") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.perf_counter() + BUDGET_S
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(spawn(base + ["--seconds", "0", "--setup-only"], deadline)["setup_s"])
    result = spawn(base + ["--seconds", repr(seconds), "--trace", str(trace)], deadline)
    if not trace:
        setup = result["metrics"]["setup_s"]
        setups.append(setup["value"])
        setup["value"] = statistics.median(setups)
    result["setup_samples"] = len(setups)
    return result


def report(workload: str, result: dict) -> None:
    """Human-readable lines, including the derived per-workload names."""
    metrics = result["metrics"]
    calls = result["calls"]
    print(f"== {workload}: {calls} timed calls, digest {result['digest']}")
    notes = {"setup_s": f"median of {result['setup_samples']} processes"}
    rows = [(name, m["value"], m["unit"], notes.get(name, "")) for name, m in metrics.items()]
    if "op_p50_s" in metrics:
        op = metrics["op_p50_s"]["value"]
        if workload == "estimate_csv":
            rows.append(("estimate_p50_s", op, "s", f"median of {calls} estimate calls"))
        else:
            rows.append(("mc_reps_per_s", 1.0 / op, "1/s", f"from the median of {calls} calls"))
        rows.append(("failed_frac", result["failed"] / result["attempted"], "frac",
                     f"{result['failed']} of {result['attempted']}"))
    for name, value, unit, note in rows:
        print(f"  {name:<48} {value:>14.6g} {unit:<8} {note}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    print("machine: " + json.dumps(result["machine"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="magiciv benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append each result as a JSON line to this file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "magiciv" / "__init__.py").is_file():
        print(f"error: no magiciv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for name, result in results.items():
        report(name, result)
        if args.record:
            with open(args.record, "a") as fh:
                record = {"workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, **result}
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    ok = all(r["correct"] for r in results.values())
    if {"mc_inproc", "mc_pool"} <= results.keys():
        same = results["mc_inproc"]["digest"] == results["mc_pool"]["digest"]
        print(f"summary digest mc_inproc vs mc_pool: {'same' if same else 'DIFFERENT'}")
        ok = ok and same
    if len(results) == 1:
        final = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": ok,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
