"""Command-line entry point: estimate, simulate, and oracle-check verbs.

Configuration comes from an optional flat key=value file plus flags, with
flags winning; every run embeds the full effective configuration in its
output so a run can be reproduced from the output alone. A key that sets a
library parameter or a ``ScenarioConfig`` field takes its type and default
from that signature or field, so the CLI defaults are the library's. All
randomness flows from the single explicit seed. Exit codes: 0 success, 1
data or configuration error, 2 numerical failure, 3 excess Monte Carlo
exclusions.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import os
import sys
from typing import Callable, Optional

import numpy as np

from . import __version__
from .baselines import efficient_fixed_r, tsls
from .cue import _check_settings, estimate_cue
from .data import _utf8, load_csv, write_csv
from .diagnostics import f_stat
from .errors import (
    ConfigError,
    DataError,
    ExclusionError,
    MagicivError,
    NumericalError,
)
from .interactions import build_plan, plan_to_jsonable
from .oracle import PopulationDgp, orthogonality_check, population_beta
from .simulate import (
    ScenarioConfig,
    format_table,
    gen_dataset,
    run_monte_carlo,
    summary_to_jsonable,
)

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------------------
# config handling: flat key=value file, flags override
# ---------------------------------------------------------------------------


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"cannot parse boolean value {text!r}")


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in str(text).split(",") if tok.strip() != "")
    except ValueError:
        raise ConfigError(f"cannot parse number list {text!r}") from None


def _parse_str_list(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in str(text).split(",") if tok.strip() != "")


_PARSERS: dict[str, Callable] = {
    "int": int,
    "float": float,
    "str": str,
    "bool": _parse_bool,
    "floats": _parse_float_list,
    "strs": _parse_str_list,
}

# verb -> key -> (type name, default); required keys have default=REQUIRED
REQUIRED = object()

# Keys that set a library parameter take its type and default from the
# library's signature, so the two cannot drift apart. Annotations are strings
# (``from __future__ import annotations``): a scalar one names its parser,
# and a sequence one maps here.
_ANNOTATION_TYPES = {
    "tuple[float, float]": "floats",
    "Sequence[float]": "floats",
    "Sequence[str]": "strs",
}


def _library_keys(func: Callable, *names: str) -> dict[str, tuple[str, object]]:
    """Keys for ``func``'s parameters ``names`` (all of them when none are given)."""
    params = inspect.signature(func).parameters
    return {
        name: (_ANNOTATION_TYPES.get(param.annotation, param.annotation), param.default)
        for name, param in params.items()
        if name in names or not names
    }


_FIT_KEYS = ("q", "bounds", "grid_points", "tol", "ci_level", "ridge")
_ESTIMATE_KEYS: dict[str, tuple[str, object]] = {
    "input": ("str", REQUIRED),
    "outcome": ("str", "y"),
    "exposure": ("str", "d"),
    "instruments": ("strs", REQUIRED),
    **_library_keys(estimate_cue, *_FIT_KEYS),
    "output": ("str", None),
}

# a dataclass's parameters are its fields; sigma, a 2x2 matrix, is set by
# three scalar keys
_SCENARIO_KEYS = _library_keys(ScenarioConfig)
_, _SIGMA = _SCENARIO_KEYS.pop("sigma")

_SIMULATE_KEYS: dict[str, tuple[str, object]] = {
    **_SCENARIO_KEYS,
    # ScenarioConfig has no default design size: the CLI's own, in the fields' place
    "p": ("int", 10),
    "n": ("int", 5000),
    "sigma_var_eps": ("float", _SIGMA[0][0]),
    "sigma_var_nu": ("float", _SIGMA[1][1]),
    "sigma_cov": ("float", _SIGMA[0][1]),
    "reps": ("int", 100),
    **_library_keys(run_monte_carlo, "methods", "workers"),
    "output": ("str", None),
    "emit_data": ("str", None),
}

_ORACLE_KEYS: dict[str, tuple[str, object]] = {
    "p": ("int", 2),
    "q": ("int", 2),
    "beta_true": ("float", 0.5),
    **_library_keys(orthogonality_check, "beta_grid", "step"),
    "dependent": ("bool", False),
    "flip": ("float", 0.1),
}

_KEY_TABLES = {
    "estimate": _ESTIMATE_KEYS,
    "simulate": _SIMULATE_KEYS,
    "oracle-check": _ORACLE_KEYS,
}


def _load_config_file(path: str) -> dict[str, str]:
    """Read a flat key = value config file; '#' starts a comment."""
    entries: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh, _utf8(ConfigError, path):
            for line_no, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(
                        f"{path}:{line_no}: expected 'key = value', got {raw.strip()!r}"
                    )
                key, value = line.split("=", 1)
                entries[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return entries


def _effective_config(verb: str, args: argparse.Namespace) -> dict:
    """Defaults <- config file <- explicit flags, with type and output-path checking."""
    table = _KEY_TABLES[verb]
    merged: dict = {}
    for key, (_, default) in table.items():
        merged[key] = None if default is REQUIRED else default
    if getattr(args, "config", None):
        for key, raw in _load_config_file(args.config).items():
            if key not in table:
                raise ConfigError(f"unknown config key {key!r} for verb {verb!r}")
            merged[key] = _PARSERS[table[key][0]](raw)
    for key in table:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    for key, (_, default) in table.items():
        if default is REQUIRED and merged[key] is None:
            raise ConfigError(f"missing required key {key!r} (flag --{key.replace('_', '-')})")
    if merged.get("output"):
        _check_output(merged["output"])
    return merged


# execution-only keys: they cannot change any computed result, so they are
# left out of the embedded configuration echo (otherwise identical runs with
# different worker counts or output paths would not be byte-identical)
_EXECUTION_KEYS = ("output", "workers", "emit_data")


def _config_echo(cfg: dict) -> dict:
    """The effective configuration without execution-only keys (tuples dump as lists)."""
    return {key: value for key, value in cfg.items() if key not in _EXECUTION_KEYS}


def _check_output(output: str) -> None:
    """Refuse, before any work, an output path the JSON could not be written to."""
    parent = os.path.dirname(output) or os.curdir
    if os.path.isdir(output):
        reason = "is a directory"
    elif not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        reason = "is not in a writable directory"
    else:
        return
    raise ConfigError(f"cannot write output: {output!r} {reason}")


def _dump_json(payload: dict, output: Optional[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------


def _cmd_estimate(args: argparse.Namespace) -> int:
    cfg = _effective_config("estimate", args)
    _check_settings(cfg["bounds"], cfg["grid_points"], cfg["tol"], cfg["ridge"])
    ds = load_csv(cfg["input"], cfg["outcome"], cfg["exposure"], cfg["instruments"])
    plan = build_plan(ds.p, cfg["q"])
    result = estimate_cue(ds, **{key: cfg[key] for key in _FIT_KEYS})
    # the diagnostic can be rank-deficient (e.g. duplicated instruments)
    # even when the ridge-guarded estimator itself succeeds
    f_value: Optional[float] = None
    f_error: Optional[str] = None
    try:
        f_value = f_stat(ds, plan).f_value
    except (MagicivError, np.linalg.LinAlgError) as exc:
        f_error = f"{type(exc).__name__}: {exc}"

    # the TSLS estimate is efficient GMM's first step; when TSLS failed,
    # efficient_fixed_r reruns it and records the same error
    baselines: dict = {}
    for name, runner in (
        ("tsls", lambda: tsls(ds)),
        (
            "efficient_fixed_r",
            lambda: efficient_fixed_r(ds, plan, baselines["tsls"].get("beta_hat")),
        ),
    ):
        try:
            base = runner()
            baselines[name] = {
                "beta_hat": base.beta_hat,
                "se": base.se,
                "extra": base.extra,
            }
        except (MagicivError, np.linalg.LinAlgError) as exc:
            baselines[name] = {"error": f"{type(exc).__name__}: {exc}"}

    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": _config_echo(cfg),
        **dataclasses.asdict(result),
        "f_stat": f_value,
        "f_stat_error": f_error,
        "plan": plan_to_jsonable(plan),
        "growth": {
            "r2_over_n": result.r**2 / result.n,
            "r3_over_n": result.r**3 / result.n,
        },
        "baselines": baselines,
    }
    _dump_json(payload, cfg["output"])
    if cfg["output"]:
        print(
            f"beta_hat={result.beta_hat:.6g} se={result.se:.6g} "
            f"j_pvalue={result.j_pvalue if result.j_pvalue is not None else 'n/a'} "
            f"-> {cfg['output']}"
        )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _effective_config("simulate", args)
    if cfg["reps"] < 1:
        raise ConfigError(f"reps must be >= 1 (got {cfg['reps']})")
    var_eps, var_nu, cov = cfg["sigma_var_eps"], cfg["sigma_var_nu"], cfg["sigma_cov"]
    sigma = ((var_eps, cov), (cov, var_nu))
    scenario = ScenarioConfig(sigma=sigma, **{name: cfg[name] for name in _SCENARIO_KEYS})
    if cfg["emit_data"]:
        ds, _ = gen_dataset(scenario, 0)
        try:
            write_csv(ds, cfg["emit_data"])
        except OSError as exc:
            raise ConfigError(f"cannot write data: {exc}") from exc
    summary = run_monte_carlo(
        scenario, reps=cfg["reps"], methods=cfg["methods"], workers=cfg["workers"]
    )
    summary_payload = summary_to_jsonable(summary)
    summary_payload.pop("config")  # subset of the full effective config below
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": _config_echo(cfg),
        **summary_payload,
    }
    _dump_json(payload, cfg["output"])
    # the table goes to stderr when the JSON takes stdout
    print(format_table(summary), file=sys.stdout if cfg["output"] else sys.stderr)
    return 0


def _default_oracle_fixture(
    p: int, beta_true: float, dependent: bool, flip: float
) -> PopulationDgp:
    """Deterministic test process: all pairs drive the exposure, alternating
    direct effects make every instrument invalid."""
    pi = np.array([0.3 * (-0.8) ** j for j in range(p)])
    theta = np.ones(p)
    alpha = {(j, k): 1.0 for j in range(p) for k in range(j + 1, p)}
    dep = {1: (0, flip)} if dependent else {}
    return PopulationDgp(
        p=p,
        mu=np.full(p, 0.5),
        beta_true=beta_true,
        pi=pi,
        theta=theta,
        alpha=alpha,
        dependent=dep,
    )


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    cfg = _effective_config("oracle-check", args)
    dgp = _default_oracle_fixture(cfg["p"], cfg["beta_true"], cfg["dependent"], cfg["flip"])
    lines = [f"oracle-check config: {json.dumps(_config_echo(cfg), sort_keys=True)}"]
    beta = population_beta(dgp, cfg["q"])
    beta_err = abs(beta - cfg["beta_true"])
    beta_ok = beta_err <= 1e-10
    lines.append(
        f"population beta: {beta:.15g} (true {cfg['beta_true']:g}, "
        f"|error| {beta_err:.3e}) -> {'PASS' if beta_ok else 'FAIL'}"
    )
    report = orthogonality_check(dgp, cfg["q"], beta_grid=cfg["beta_grid"], step=cfg["step"])
    if cfg["dependent"]:  # beta recovery is not guaranteed under dependence
        ok = orth_ok = report.max_abs_derivative > 1e-3
        rule = "dependent instruments, expected-fail threshold 1e-3"
        verdict = "PASS (fails as expected)" if orth_ok else "FAIL (unexpectedly orthogonal)"
    else:
        orth_ok = report.max_abs_derivative <= 1e-6
        ok = beta_ok and orth_ok
        rule, verdict = "threshold 1e-6", "PASS" if orth_ok else "FAIL"
    lines.append(
        f"max orthogonality derivative: {report.max_abs_derivative:.3e} ({rule}) -> {verdict}"
    )
    lines.append(f"oracle-check: {'PASS' if ok else 'FAIL'}")
    print("\n".join(lines))
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, table: dict) -> None:
    sub.add_argument("--config", help="flat key = value configuration file")
    for key, (tname, default) in table.items():
        flag = "--" + key.replace("_", "-")
        shown = "required" if default is REQUIRED else f"default {default!r}"
        boolean = tname == "bool"
        sub.add_argument(
            flag, type=_PARSERS[tname], default=None, metavar="BOOL" if boolean else None,
            help=f"true/false ({shown})" if boolean else f"({shown})",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magiciv",
        description=(
            "Causal effect estimation from interactions of independent candidate "
            "instruments, with a simulation harness and an exact population oracle."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    est = subs.add_parser("estimate", help="estimate the causal effect from a CSV dataset")
    _add_common(est, _ESTIMATE_KEYS)
    sim = subs.add_parser("simulate", help="run a seeded Monte Carlo study")
    _add_common(sim, _SIMULATE_KEYS)
    orc = subs.add_parser("oracle-check", help="verify identification and orthogonality exactly")
    _add_common(orc, _ORACLE_KEYS)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "estimate":
            return _cmd_estimate(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_oracle_check(args)
    except (DataError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ExclusionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
