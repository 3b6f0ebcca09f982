"""One benchmark workload, run in a fresh process started by ``run.py``.

Untraced mode (``--trace 0``) times a closed loop of operations with one
client and prints the end-to-end metrics. Traced mode (``--trace 1``) runs
each operation untraced, then replays it through the package's public
functions in the order the package itself calls them, recording one span
per call, and prints the per-layer metrics. The replay must reproduce the
untraced outputs bit for bit, so a change to the program's call path makes
the traced run fail instead of timing a path the program no longer runs.

The last line of stdout is one JSON object; ``run.py`` turns it into the
benchmark result.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

import magiciv
from magiciv import cli
from magiciv.baselines import efficient_fixed_r, tsls
from magiciv.cue import (
    DEFAULT_BOUNDS,
    DEFAULT_GRID_POINTS,
    DEFAULT_TOL,
    chisq_quantile,
    minimize,
    overid_test,
    variance,
)
from magiciv.data import load_csv, write_csv
from magiciv.diagnostics import f_stat
from magiciv.errors import MagicivError
from magiciv.interactions import build_plan
from magiciv.moments import build_components
from magiciv.nuisance import fit_nuisance
from magiciv.simulate import (
    ScenarioConfig,
    gen_dataset,
    run_monte_carlo,
    summary_to_jsonable,
)

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / "perfbench" / ".work"

# Workload designs. The Monte Carlo design is the paper's Scenario I at
# r = 45; the CSV design is the largest r (286) a user fit is sized for.
MC_DESIGN = dict(scenario="I", p=10, q=2, n=5000, c=3.75)
MC_METHODS = ("magic", "tsls")
MC_REPS = 4  # replications per run_monte_carlo call
POOL_WORKERS = 2
CSV_DESIGN = dict(scenario="I", p=12, q=3, n=20000, c=3.75)
CI_LEVEL = 0.95  # the CLI default, replayed as estimate_cue receives it

WORKLOADS = ("mc_inproc", "mc_pool", "estimate_csv")
REFERENCE_SEED = 0
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
REL_TOL, ABS_TOL = 1e-10, 1e-12

FAILURES = (MagicivError, np.linalg.LinAlgError)

LAYERS = (
    "simulate.gen_dataset",
    "interactions.build_plan",
    "nuisance.fit_nuisance",
    "moments.build_components",
    "cue.minimize",
    "cue.variance",
    "cue.chisq_quantile",
    "cue.overid_test",
    "diagnostics.f_stat",
    "baselines.tsls",
    "baselines.efficient_fixed_r",
    "data.load_csv",
)
OPERATIONS = ("simulate.run_monte_carlo", "cli.estimate")

# name -> unit of every per-layer metric, in report order
PER_LAYER_UNITS = {f"{layer}.busy_s": "s" for layer in LAYERS}
PER_LAYER_UNITS.update(
    {
        "moments.build_components.gflop_computed": "GFLOP",
        "moments.build_components.gflop_per_s": "GFLOP/s",
        "diagnostics.f_stat.gflop_computed": "GFLOP",
        "cue.minimize.ridge_used_frac": "frac",
        "cli.estimate.self_s": "s",
        "simulate.run_monte_carlo.self_s": "s",
        "simulate.run_monte_carlo.parent_cpu_s": "s",
        "simulate.run_monte_carlo.worker_cpu_s": "s",
        "simulate.run_monte_carlo.cpu_util": "frac",
    }
)
PER_LAYER_UNITS.update({f"{name}.failures": "count" for name in LAYERS + OPERATIONS})
PER_LAYER_UNITS["trace.overhead_s"] = "s"

# per-layer metrics derived per operation from timings outside the spans;
# an empty sample list (the workload never runs that operation) reports 0
SAMPLED = (
    "cli.estimate.self_s",
    "simulate.run_monte_carlo.self_s",
    "simulate.run_monte_carlo.parent_cpu_s",
    "simulate.run_monte_carlo.worker_cpu_s",
    "simulate.run_monte_carlo.cpu_util",
    "trace.overhead_s",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "cpu_s_per_op": "s",
    "peak_rss_mib": "MiB",
}


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------


def _openblas_libs() -> list[dict]:
    """Version and thread count of each OpenBLAS loaded in this process.

    The thread count is read, never set.
    """
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry: dict = {"lib": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                entry["threads"] = get_threads()
                entry["config"] = get_config().decode()
                break
            if "threads" in entry:
                break
        out.append(entry)
    return out


def machine_facts() -> dict:
    import scipy

    try:
        import threadpoolctl  # noqa: F401

        has_threadpoolctl = True
    except ImportError:
        has_threadpoolctl = False
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "magiciv": magiciv.__version__,
        "threadpoolctl": has_threadpoolctl,
        "openblas": _openblas_libs(),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# measurement helpers
# ---------------------------------------------------------------------------


def _cpu() -> tuple[float, float]:
    """CPU seconds (user + system) of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def _peak_rss_mib() -> float:
    """Peak RSS of this process plus the largest reaped child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------
# workloads: inputs and one untraced operation each
# ---------------------------------------------------------------------------


def mc_config(seed: int) -> ScenarioConfig:
    return ScenarioConfig(seed=seed, **MC_DESIGN)


def mc_workers(workload: str) -> int:
    return POOL_WORKERS if workload == "mc_pool" else 1


def run_mc(cfg: ScenarioConfig, workers: int):
    """One run_monte_carlo call: (jsonable summary or None, wall, cpu deltas)."""
    t0, c0 = time.perf_counter(), _cpu()
    try:
        summary = summary_to_jsonable(
            run_monte_carlo(cfg, MC_REPS, methods=MC_METHODS, workers=workers)
        )
    except FAILURES as exc:
        print(f"run_monte_carlo failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        summary = None
    wall, c1 = time.perf_counter() - t0, _cpu()
    return summary, wall, c1[0] - c0[0], c1[1] - c0[1]


def check_mc_summary(summary: dict) -> list[str]:
    problems = []
    if summary["n_excluded"]:
        problems.append(f"{summary['n_excluded']} replications excluded")
    for name, ms in summary["methods"].items():
        if not _finite(ms["abs_bias"], ms["sd"], ms["mean_se"], ms["mean_f_stat"]):
            problems.append(f"{name}: non-finite summary field")
        if not 0.0 <= ms["coverage_95"] <= 1.0:
            problems.append(f"{name}: coverage {ms['coverage_95']} outside [0, 1]")
        rate = ms["overid_rejection_rate"]
        if rate is not None and not 0.0 <= rate <= 1.0:
            problems.append(f"{name}: rejection rate {rate} outside [0, 1]")
    return problems


def mc_reference_fields(summary: dict) -> dict:
    return {
        f"{name}.{key}": value
        for name, ms in summary["methods"].items()
        for key, value in ms.items()
    }


class CsvInput:
    """The estimate workload's CSV, written at set-up from the seed."""

    def __init__(self, seed: int, tag: str):
        WORKDIR.mkdir(parents=True, exist_ok=True)
        cfg = ScenarioConfig(seed=seed, **CSV_DESIGN)
        ds, _ = gen_dataset(cfg, 0)
        self.n = ds.n
        self.csv_path = WORKDIR / f"estimate-{tag}.csv"
        self.out_path = WORKDIR / f"estimate-{tag}.json"
        write_csv(ds, self.csv_path)
        self.instruments = [f"z{j + 1}" for j in range(cfg.p)]
        self.p, self.q = cfg.p, cfg.q
        self.argv = [
            "estimate",
            "--input", str(self.csv_path),
            "--instruments", ",".join(self.instruments),
            "--q", str(self.q),
            "--output", str(self.out_path),
        ]

    def remove(self) -> None:
        for path in (self.csv_path, self.out_path):
            path.unlink(missing_ok=True)


def run_estimate(inp: CsvInput):
    """One ``magiciv estimate`` call in-process: (payload or None, wall, cpu)."""
    inp.out_path.unlink(missing_ok=True)
    sink = io.StringIO()
    t0, c0 = time.perf_counter(), _cpu()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(inp.argv)
        except SystemExit as exc:  # argparse usage error
            code = exc.code
    wall, c1 = time.perf_counter() - t0, _cpu()
    payload = None
    if code == 0:
        payload = json.loads(inp.out_path.read_text())
    else:
        print(f"estimate exited {code}: {sink.getvalue().strip()}", file=sys.stderr)
    return payload, wall, c1[0] - c0[0], c1[1] - c0[1]


def check_estimate(payload: dict, n: int) -> list[str]:
    problems = []
    if payload["f_stat_error"] is not None:
        problems.append(f"f_stat_error: {payload['f_stat_error']}")
    for name, base in payload["baselines"].items():
        if "error" in base:
            problems.append(f"baseline {name}: {base['error']}")
        elif not _finite(base["beta_hat"], base["se"]):
            problems.append(f"baseline {name}: non-finite estimate")
    fields = ("beta_hat", "se", "ci_low", "ci_high", "j_stat", "j_pvalue", "f_stat")
    if not _finite(*(payload[k] for k in fields)):
        problems.append("non-finite estimate field")
    elif not 0.0 <= payload["j_stat"] <= n:
        problems.append(f"j_stat {payload['j_stat']} outside [0, n={n}]")
    return problems


def estimate_reference_fields(payload: dict) -> dict:
    out = {k: payload[k] for k in ("beta_hat", "se", "j_stat", "j_pvalue", "f_stat")}
    for name, base in payload["baselines"].items():
        out[f"{name}.beta_hat"] = base["beta_hat"]
        out[f"{name}.se"] = base["se"]
    return out


def check_reference(workload: str, fields: dict) -> list[str]:
    """Compare the reference seed's outputs with the recorded values."""
    family = "estimate_csv" if workload == "estimate_csv" else "mc"
    expected = json.loads(REFERENCE_FILE.read_text())[family]
    problems = []
    for key, ref in expected.items():
        if not _close(fields.get(key), ref):
            problems.append(f"reference mismatch {key}: {fields.get(key)!r} != {ref!r}")
    return problems


# ---------------------------------------------------------------------------
# tracing: replay of one operation, one span per public call
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory spans ``[name, start, end, parent, op]``; parents by index."""

    def __init__(self, op=None):
        self.op = op
        self.spans: list[list] = []
        self.failures: Counter = Counter()
        self.ridge_used: list[bool] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        except FAILURES:
            self.failures[name] += 1
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def absorb(self, other: "Tracer") -> None:
        offset = len(self.spans)
        for name, start, end, parent, op in other.spans:
            self.spans.append([name, start, end, None if parent is None else parent + offset, op])
        self.failures.update(other.failures)
        self.ridge_used.extend(other.ridge_used)


def replay_estimate_cue(tr: Tracer, ds, q: int, ci_level: float) -> dict:
    """The calls estimate_cue makes, with its default search settings."""
    plan = tr.call("interactions.build_plan", build_plan, ds.p, q)
    nuis = tr.call("nuisance.fit_nuisance", fit_nuisance, ds, plan)
    mc = tr.call("moments.build_components", build_components, ds, nuis, plan)
    fit = tr.call(
        "cue.minimize", minimize, mc,
        bounds=DEFAULT_BOUNDS, grid_points=DEFAULT_GRID_POINTS, tol=DEFAULT_TOL, ridge=0.0,
    )
    tr.ridge_used.append(fit.ridge_used)
    _, se = tr.call("cue.variance", variance, mc, fit.beta_hat, ridge=0.0)
    z = math.sqrt(tr.call("cue.chisq_quantile", chisq_quantile, 1.0 - ci_level, 1))
    j_stat, _, j_pvalue = tr.call("cue.overid_test", overid_test, mc, fit.beta_hat, fit.q_min)
    return {
        "beta_hat": fit.beta_hat,
        "se": se,
        "ci_low": fit.beta_hat - z * se,
        "ci_high": fit.beta_hat + z * se,
        "j_stat": j_stat,
        "j_pvalue": j_pvalue,
    }


def replay_replicate(task):
    """The calls simulate's per-replication worker makes; picklable for pools.

    Returns (record or None, tracer) where record mirrors the worker's.
    """
    cfg, rep_index, op = task
    tr = Tracer(op)

    def body():
        ds, _ = tr.call("simulate.gen_dataset", gen_dataset, cfg, rep_index)
        plan = tr.call("interactions.build_plan", build_plan, cfg.p, cfg.q)
        record = {"f_stat": tr.call("diagnostics.f_stat", f_stat, ds, plan).f_value, "methods": {}}
        z95 = math.sqrt(tr.call("cue.chisq_quantile", chisq_quantile, 0.05, 1))
        for name in MC_METHODS:
            if name == "magic":
                res = replay_estimate_cue(tr, ds, cfg.q, 0.95)
                record["methods"][name] = {
                    "beta_hat": res["beta_hat"],
                    "se": res["se"],
                    "cover": bool(res["ci_low"] <= cfg.beta_true <= res["ci_high"]),
                    "reject": bool(res["j_pvalue"] < 0.05),
                    "j_stat": res["j_stat"],
                }
            else:
                base = tr.call("baselines.tsls", tsls, ds)
                record["methods"][name] = {
                    "beta_hat": base.beta_hat,
                    "se": base.se,
                    "cover": bool(abs(base.beta_hat - cfg.beta_true) <= z95 * base.se),
                    "reject": None,
                }
        return record

    try:
        return tr.call("simulate.replicate", body), tr
    except FAILURES:
        return None, tr


def summarize_replay(cfg: ScenarioConfig, records: list[dict]) -> dict:
    """Summary fields recomputed from replayed records, as run_monte_carlo does."""
    out = {}
    mean_f = float(np.mean([rec["f_stat"] for rec in records]))
    for name in MC_METHODS:
        betas = np.array([rec["methods"][name]["beta_hat"] for rec in records])
        ses = np.array([rec["methods"][name]["se"] for rec in records])
        covers = np.array([rec["methods"][name]["cover"] for rec in records], dtype=float)
        known = [rec["methods"][name]["reject"] for rec in records]
        known = [r for r in known if r is not None]
        out[name] = {
            "abs_bias": abs(float(np.mean(betas)) - cfg.beta_true),
            "sd": float(np.std(betas, ddof=1)) if len(betas) > 1 else 0.0,
            "mean_se": float(np.mean(ses)),
            "coverage_95": float(np.mean(covers)),
            "overid_rejection_rate": float(np.mean(known)) if known else None,
            "mean_f_stat": mean_f,
        }
    return out


def replay_mc(cfg: ScenarioConfig, workers: int, op: int, tracer: Tracer):
    """Replay one run_monte_carlo call; returns (records or None, wall)."""
    tasks = [(cfg, i, (op, i)) for i in range(MC_REPS)]
    t0 = time.perf_counter()
    if workers == 1:
        results = [replay_replicate(t) for t in tasks]
    else:
        chunk = max(1, MC_REPS // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(replay_replicate, tasks, chunksize=chunk))
    wall = time.perf_counter() - t0
    for _, tr in results:
        tracer.absorb(tr)
    records = [rec for rec, _ in results]
    return (None if any(rec is None for rec in records) else records), wall


def replay_estimate(inp: CsvInput, tr: Tracer) -> dict:
    """The calls the CLI ``estimate`` verb makes, with its defaults."""

    def body():
        ds = tr.call("data.load_csv", load_csv, inp.csv_path, "y", "d", inp.instruments)
        plan = tr.call("interactions.build_plan", build_plan, ds.p, inp.q)
        out = replay_estimate_cue(tr, ds, inp.q, CI_LEVEL)
        out["f_stat"] = tr.call("diagnostics.f_stat", f_stat, ds, plan).f_value
        base = tr.call("baselines.tsls", tsls, ds)
        out["tsls.beta_hat"], out["tsls.se"] = base.beta_hat, base.se
        base = tr.call("baselines.efficient_fixed_r", efficient_fixed_r, ds, plan)
        out["efficient_fixed_r.beta_hat"], out["efficient_fixed_r.se"] = base.beta_hat, base.se
        return out

    return tr.call("cli.estimate", body)


def fidelity_problems(expected: dict, replayed: dict) -> list[str]:
    """Bitwise comparison of replayed against untraced outputs."""
    return [
        f"replay differs at {key}: {replayed.get(key)!r} != {value!r}"
        for key, value in expected.items()
        if replayed.get(key) != value
    ]


def _busy_by_op(tr: Tracer, layer: str) -> dict:
    out: dict = {}
    for name, start, end, _, op in tr.spans:
        if name == layer:
            out[op] = out.get(op, 0.0) + (end - start)
    return out


def per_layer_metrics(tr: Tracer, ops: list, extra: dict, shape: tuple[int, int]) -> dict:
    """Median-per-operation layer metrics from the spans of the traced run.

    ``ops`` lists every replayed operation id; a layer an operation never
    calls is busy for 0 s in it. ``extra`` holds the already-derived
    per-operation samples (self times, CPU, overhead).
    """
    n, r = shape
    values: dict = {}
    for layer in LAYERS:
        busy = _busy_by_op(tr, layer)
        values[f"{layer}.busy_s"] = statistics.median(busy.get(op, 0.0) for op in ops)
    gram = _busy_by_op(tr, "moments.build_components")
    gram_gflop = 6.0 * n * r * r / 1e9
    values["moments.build_components.gflop_computed"] = gram_gflop
    values["moments.build_components.gflop_per_s"] = statistics.median(
        gram_gflop / t for t in gram.values()
    )
    values["diagnostics.f_stat.gflop_computed"] = 6.0 * n * (r + 1) ** 2 / 1e9
    values["cue.minimize.ridge_used_frac"] = (
        sum(tr.ridge_used) / len(tr.ridge_used) if tr.ridge_used else 0.0
    )
    for key, samples in extra.items():
        values[key] = statistics.median(samples) if samples else 0.0
    for name in LAYERS + OPERATIONS:
        values[f"{name}.failures"] = tr.failures[name]
    return {k: values[k] for k in PER_LAYER_UNITS}


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


class Run:
    """Counts, samples and problems gathered over one closed-loop run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set = set()
        self.first_output = None
        self.op_s: list[float] = []
        self.cpu_s: list[float] = []

    def add(self, ops: int, output, problems: list[str]) -> bool:
        """Record one operation's outcome; True when it succeeded."""
        self.attempted += ops
        if output is None or problems:
            self.failed += ops
            self.problems.extend(problems or ["operation failed"])
            return False
        self.digests.add(digest(output))
        if self.first_output is None:
            self.first_output = output
        return True

    def flag(self, problems: list[str]) -> None:
        """Record a failed check that is not an operation of its own."""
        self.problems.extend(problems)


def trace_mc_op(run: Run, cfg, workers: int, k: int, summary: dict, timing, tr: Tracer, extra: dict) -> list:
    """Replay call ``k`` and check it against its untraced summary."""
    wall, cpu_own, cpu_kids = timing
    records, replay_wall = replay_mc(cfg, workers, k, tr)
    if records is None:
        run.flag([f"replay of call {k} failed"])
    else:
        replayed = summarize_replay(cfg, records)
        run.flag(fidelity_problems(mc_reference_fields(summary), mc_reference_fields({"methods": replayed})))
        for rec in records:
            j = rec["methods"]["magic"]["j_stat"]
            if not 0.0 <= j <= cfg.n:
                run.flag([f"replayed j_stat {j} outside [0, n={cfg.n}]"])
    busy = sum(end - start for name, start, end, _, _ in tr.spans if name in LAYERS)
    nproc = len(os.sched_getaffinity(0))
    extra["simulate.run_monte_carlo.self_s"].append((wall - busy / workers) / MC_REPS)
    extra["simulate.run_monte_carlo.parent_cpu_s"].append(cpu_own / MC_REPS)
    extra["simulate.run_monte_carlo.worker_cpu_s"].append(cpu_kids / MC_REPS)
    extra["simulate.run_monte_carlo.cpu_util"].append((cpu_own + cpu_kids) / (wall * nproc))
    extra["trace.overhead_s"].append((replay_wall - wall) / MC_REPS)
    return [(k, i) for i in range(MC_REPS)]


def trace_estimate_op(run: Run, inp: CsvInput, k: int, payload: dict, wall: float, tr: Tracer, extra: dict) -> list:
    """Replay estimate call ``k`` and check it against its untraced output."""
    try:
        replayed = replay_estimate(inp, tr)
    except FAILURES as exc:
        run.flag([f"replay of call {k} failed: {type(exc).__name__}: {exc}"])
    else:
        expected = estimate_reference_fields(payload)
        expected.update(ci_low=payload["ci_low"], ci_high=payload["ci_high"])
        run.flag(fidelity_problems(expected, replayed))
    root = sum(end - start for name, start, end, _, _ in tr.spans if name == "cli.estimate")
    busy = sum(end - start for name, start, end, _, _ in tr.spans if name in LAYERS)
    extra["cli.estimate.self_s"].append(wall - busy)
    extra["trace.overhead_s"].append(root - wall)
    return [k]


def write_spans(tracer: Tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for sid, (name, start, end, parent, op) in enumerate(tracer.spans):
            fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")


def measure(workload: str, seed: int, seconds: float, trace: bool, setup_s: float, inp) -> dict:
    """Run the closed loop for ``seconds`` (at least three operations)."""
    run = Run()
    mc = workload != "estimate_csv"
    workers = mc_workers(workload)
    tracer = Tracer()
    ops: list = []
    extra: dict[str, list] = {key: [] for key in SAMPLED}

    t_end = time.perf_counter() + seconds
    k = 0
    while k < 3 or time.perf_counter() < t_end:
        if mc:
            output, wall, cpu_own, cpu_kids = run_mc(inp, workers)
            n_ops = MC_REPS
            problems = [] if output is None else check_mc_summary(output)
        else:
            output, wall, cpu_own, cpu_kids = run_estimate(inp)
            n_ops = 1
            problems = [] if output is None else check_estimate(output, inp.n)
        run.op_s.append(wall / n_ops)
        run.cpu_s.append((cpu_own + cpu_kids) / n_ops)
        if run.add(n_ops, output, problems) and trace:
            op_tracer = Tracer(k)
            if mc:
                ops += trace_mc_op(run, inp, workers, k, output, (wall, cpu_own, cpu_kids), op_tracer, extra)
            else:
                ops += trace_estimate_op(run, inp, k, output, wall, op_tracer, extra)
            tracer.absorb(op_tracer)
        k += 1
    peak = _peak_rss_mib()

    if len(run.digests) > 1:
        run.flag([f"outputs differ between identical operations: {sorted(run.digests)}"])
    out_digest = None if run.first_output is None else digest(run.first_output)
    if mc and out_digest is not None:
        # the same call on the other runner must give a byte-identical summary
        other = 1 if workers > 1 else POOL_WORKERS
        summary, *_ = run_mc(inp, other)
        if summary is None or digest(summary) != out_digest:
            run.add(MC_REPS, None, [f"summary digest differs between workers={workers} and workers={other}"])
    if seed == REFERENCE_SEED and run.first_output is not None:
        fields = (mc_reference_fields if mc else estimate_reference_fields)(run.first_output)
        run.flag(check_reference(workload, fields))

    if trace:
        shape = (inp.n, build_plan(inp.p, inp.q).r)
        metrics = per_layer_metrics(tracer, ops or [None], extra, shape)
        metrics["cli.estimate.failures" if workload == "estimate_csv" else "simulate.run_monte_carlo.failures"] = run.failed
        units = PER_LAYER_UNITS
        write_spans(tracer, WORKDIR / f"spans-{workload}-{seed}.jsonl")
    else:
        metrics = {
            "setup_s": setup_s,
            "op_p50_s": statistics.median(run.op_s),
            "cpu_s_per_op": statistics.median(run.cpu_s),
            "peak_rss_mib": peak,
        }
        units = END_TO_END_UNITS
    return {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "calls": len(run.op_s),
        "digest": out_digest,
        "problems": run.problems[:20],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="launcher's perf_counter at spawn")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if Path(magiciv.__file__).resolve().parent.parent != src:
        print(f"magiciv imported from {magiciv.__file__}, not from {src}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    if args.workload == "estimate_csv":
        inp = CsvInput(args.seed, tag)
    else:
        inp = mc_config(args.seed)
    setup_s = time.perf_counter() - args.t0
    try:
        if args.setup_only:
            result = {"setup_s": setup_s}
        else:
            result = measure(args.workload, args.seed, args.seconds, bool(args.trace), setup_s, inp)
            result["machine"] = machine_facts()
    finally:
        if isinstance(inp, CsvInput):
            inp.remove()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
