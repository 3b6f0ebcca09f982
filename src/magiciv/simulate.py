"""Data-generating processes and a seeded Monte Carlo runner.

Instruments are iid Bernoulli(mu); the exposure is linear in the
instruments plus all pairwise products with common coefficient c/sqrt(n)
plus a Gaussian error; the outcome is beta * exposure plus direct
instrument effects plus a correlated Gaussian error. Four canned scenarios
cover the usual validity regimes (majority-valid through all-invalid), and
a custom scenario draws both effect vectors from normals, which is also how
the overidentification power study violates the linear outcome model: an
extra sum of pairwise products enters the outcome with coefficients
eps_jk * c / sqrt(n), eps_jk ~ N(1, 1).

Reproducibility: every random quantity comes from counter-based Philox
uniforms keyed by (seed, rep_index); normals are produced by Box-Muller on
those uniforms rather than any library sampler, so streams are stable
across platforms and replications are order-insensitive.

BLAS threads: every estimator entry point, the CLI ``estimate`` included,
and :func:`gen_dataset` run with their BLAS held at one thread (see
:mod:`magiciv._lapack`), so results and generated data do not depend on
the machine's thread count, at r = 45 or at r = 286 alike.
:func:`run_monte_carlo` holds the same pin for its whole run, the
in-process loop and the process pool's lifetime alike, and restores the
caller's counts when it returns or raises: forked workers inherit the
pin, spawned ones pin themselves in the pool initializer, and the entry
points' own pins then only read the counts. The count is
process-global, so callers running in threads of one process can race on
it.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from typing import Mapping, Optional, Sequence

import numpy as np
import numpy.random  # at import, so forked pool workers inherit it loaded

from ._lapack import _blas_controls, _blas_threads
from .baselines import efficient_fixed_r, tsls
from .cue import chisq_quantile, estimate_cue
from .data import Dataset
from .diagnostics import f_stat
from .errors import ConfigError, ExclusionError, MagicivError
from .interactions import build_plan

__all__ = [
    "ScenarioConfig",
    "TruthRecord",
    "MethodSummary",
    "McSummary",
    "gen_dataset",
    "run_monte_carlo",
    "summary_to_jsonable",
    "format_table",
]

SCENARIOS = ("I", "II", "III", "IV", "custom")
SUPPORTED_METHODS = ("magic", "tsls", "efficient_fixed_r")

_METHOD_LABELS = {"magic": "MAGIC", "tsls": "TSLS", "efficient_fixed_r": "EFF-GMM"}


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulation design.

    ``c`` controls interaction strength through alpha_jk = c / sqrt(n).
    ``theta_*``/``pi_*`` parameterize the normal draws used by scenarios
    III, IV, and custom; the second parameter is a variance unless
    ``scale_as_sd`` is set (the literature writes N(a, b) both ways).
    ``misspecify_alice`` adds pairwise products directly to the outcome,
    violating the additive linear constant-effects structure; the products'
    random multipliers are redrawn each replication unless ``freeze_phi``.

    ``center_interactions`` (default True) enters the exposure interactions
    as (Z_j - mu)(Z_k - mu) rather than raw Z_j Z_k. The two forms differ
    only by a reparameterization of the main effects and intercept, and the
    interaction-moment estimators are unaffected, but raw products leak a
    c/sqrt(n) term into every main-effect coefficient and hence into the
    TSLS first stage; published Monte Carlo TSLS biases for these designs
    match the centered form.

    Every float field and every entry of ``sigma`` must be finite; a NaN or
    inf raises :class:`ConfigError` naming the fields.
    """

    p: int
    n: int
    q: int = 2
    beta_true: float = 0.0
    c: float = 3.75
    mu: float = 0.5
    sigma: tuple[tuple[float, float], tuple[float, float]] = ((1.0, 0.25), (0.25, 1.0))
    scenario: str = "I"
    theta_mean: float = 1.0
    theta_var: float = 1.0
    pi_mean: float = 0.2
    pi_var: float = 0.2
    scale_as_sd: bool = False
    misspecify_alice: bool = False
    freeze_phi: bool = False
    center_interactions: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        numbers = [(f.name, getattr(self, f.name)) for f in fields(self) if f.type == "float"]
        numbers += [("sigma", x) for row in self.sigma for x in row]
        bad = dict.fromkeys(name for name, x in numbers if not math.isfinite(x))
        if bad:
            raise ConfigError(f"{', '.join(bad)} must be finite")
        if self.p < 2:
            raise ConfigError(f"need p >= 2 instruments (got {self.p})")
        if self.n < 2:
            raise ConfigError(f"need n >= 2 observations (got {self.n})")
        if not 2 <= self.q <= self.p:
            raise ConfigError(f"need 2 <= q <= p (got q={self.q}, p={self.p})")
        if not 0.0 < self.mu < 1.0:
            raise ConfigError(f"mu must lie in (0, 1) (got {self.mu})")
        if self.c < 0.0:
            raise ConfigError(f"interaction strength c must be >= 0 (got {self.c})")
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}")
        if self.theta_var < 0.0 or self.pi_var < 0.0:
            raise ConfigError("theta_var and pi_var must be >= 0")
        s = self.sigma
        if len(s) != 2 or any(len(row) != 2 for row in s):
            raise ConfigError("sigma must be a 2x2 matrix")
        if s[0][1] != s[1][0]:
            raise ConfigError("sigma must be symmetric")
        if s[0][0] <= 0.0 or s[0][0] * s[1][1] - s[0][1] ** 2 <= 0.0:
            raise ConfigError("sigma must be positive definite")


@dataclass(frozen=True, eq=False)
class TruthRecord:
    """Generating parameters behind one replication's dataset."""

    beta_true: float
    theta: np.ndarray
    pi: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    alpha: np.ndarray
    phi: Optional[np.ndarray]


def _normals(rng: np.random.Generator, size: int) -> np.ndarray:
    """Standard normals via Box-Muller on uniform draws from ``rng``."""
    half = (size + 1) // 2
    u1 = 1.0 - rng.random(half)  # in (0, 1]: keeps the log finite
    u2 = rng.random(half)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    out = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return out[:size]


def _rep_rng(seed: int, rep_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0, rep_index))))


def _phi_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 1))))


def _ceil_frac(num: int, den: int, p: int) -> int:
    """ceil(num*p/den) in exact integer arithmetic."""
    return -((-num * p) // den)


def _draw_effects(cfg: ScenarioConfig, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Scenario-specific (theta, pi). Invalid positions are the leading block."""
    p = cfg.p
    theta_sd = cfg.theta_var if cfg.scale_as_sd else math.sqrt(cfg.theta_var)
    pi_sd = cfg.pi_var if cfg.scale_as_sd else math.sqrt(cfg.pi_var)
    if cfg.scenario == "I":
        theta = np.ones(p)
        pi = np.zeros(p)
        pi[: _ceil_frac(3, 10, p)] = 0.2
    elif cfg.scenario == "II":
        theta = np.ones(p)
        pi = np.zeros(p)
        k = _ceil_frac(2, 10, p)
        if 3 * k > p:
            raise ConfigError(f"scenario II needs 3*ceil(0.2p) <= p (got p={p})")
        pi[:k] = 0.2
        pi[k : 2 * k] = 0.4
        pi[2 * k : 3 * k] = 0.6
    elif cfg.scenario == "IV":
        theta = cfg.theta_mean + theta_sd * _normals(rng, p)
        pi = np.zeros(p)
        m = _ceil_frac(7, 10, p)
        pi[:m] = theta[:m] / 2.0
    else:  # III and custom
        theta = cfg.theta_mean + theta_sd * _normals(rng, p)
        pi = cfg.pi_mean + pi_sd * _normals(rng, p)
    return theta, pi


def _pair_products(x: np.ndarray, pairs: Sequence[tuple[int, ...]]) -> np.ndarray:
    """Columns x_j * x_k for the index pairs (j, k), in order."""
    out = np.empty((x.shape[0], len(pairs)))
    for idx, (j, k) in enumerate(pairs):
        out[:, idx] = x[:, j] * x[:, k]
    return out


@_blas_threads(1)
def gen_dataset(cfg: ScenarioConfig, rep_index: int) -> tuple[Dataset, TruthRecord]:
    """Generate one replication's dataset plus its truth record.

    The draw order within a replication is fixed (effect vectors, outcome
    interaction multipliers, instruments, errors), so identical
    (config, rep_index) pairs produce bitwise-identical datasets. Its
    matrix-vector products run on one BLAS thread, so the bits do not
    depend on the machine's thread count either.
    """
    if rep_index < 0:
        raise ConfigError("rep_index must be >= 0")
    rng = _rep_rng(cfg.seed, rep_index)
    pairs = build_plan(cfg.p, 2).subsets_by_order[2]
    theta, pi = _draw_effects(cfg, rng)
    alpha = np.full(len(pairs), cfg.c / math.sqrt(cfg.n))
    phi = None
    if cfg.misspecify_alice:
        phi_source = _phi_rng(cfg.seed) if cfg.freeze_phi else rng
        eps_jk = 1.0 + _normals(phi_source, len(pairs))
        phi = eps_jk * cfg.c / math.sqrt(cfg.n)

    z = (rng.random((cfg.n, cfg.p)) < cfg.mu).astype(float)
    raw = _normals(rng, 2 * cfg.n)
    g1, g2 = raw[: cfg.n], raw[cfg.n :]
    s = cfg.sigma
    l00 = math.sqrt(s[0][0])
    l10 = s[1][0] / l00
    l11 = math.sqrt(s[1][1] - l10 * l10)
    eps = l00 * g1
    nu = l10 * g1 + l11 * g2

    center = cfg.mu if cfg.center_interactions else 0.0
    d = z @ theta + _pair_products(z - center, pairs) @ alpha + nu
    y = d * cfg.beta_true + z @ pi + eps
    if phi is not None:  # the misspecified outcome takes raw products
        y = y + _pair_products(z, pairs) @ phi

    ds = Dataset(y=y, d=d, z=z, instrument_names=tuple(f"z{j+1}" for j in range(cfg.p)))
    truth = TruthRecord(
        beta_true=cfg.beta_true, theta=theta, pi=pi, pairs=pairs, alpha=alpha, phi=phi
    )
    return ds, truth


# ---------------------------------------------------------------------------
# Monte Carlo runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MethodSummary:
    abs_bias: float
    sd: float
    mean_se: float
    coverage_95: float
    overid_rejection_rate: Optional[float]
    mean_f_stat: float


@dataclass(frozen=True, eq=False)
class McSummary:
    config: ScenarioConfig
    reps: int
    n_excluded: int
    exclusions: tuple[tuple[int, str], ...]
    methods: Mapping[str, MethodSummary]


def _pin_worker() -> None:
    """Pool initializer: one BLAS thread for a worker that starts with more.

    A forked worker inherits the pin that :func:`run_monte_carlo` holds in
    the parent and is left alone: setting the count again there restarts
    OpenBLAS's thread server in each worker. Spawned and forkserver
    workers start at the library default and are pinned here for life.
    """
    for get, set_ in _blas_controls():
        if get() > 1:
            set_(1)


def _replicate(args: tuple[ScenarioConfig, int, tuple[str, ...]]):
    """Run one replication; returns (rep_index, record | None, error | None)."""
    cfg, rep_index, methods = args
    try:
        ds, _ = gen_dataset(cfg, rep_index)
        plan = build_plan(cfg.p, cfg.q)
        record: dict = {"f_stat": f_stat(ds, plan).f_value, "methods": {}}
        z95 = math.sqrt(chisq_quantile(0.05, 1))
        tsls_beta: Optional[float] = None  # efficient GMM's first step, once TSLS ran
        for name in methods:
            if name == "magic":
                res = estimate_cue(ds, q=cfg.q)
                record["methods"][name] = {
                    "beta_hat": res.beta_hat,
                    "se": res.se,
                    "cover": bool(res.ci_low <= cfg.beta_true <= res.ci_high),
                    "reject": None if res.j_pvalue is None else bool(res.j_pvalue < 0.05),
                }
            else:
                if name == "tsls":
                    base = tsls(ds)
                    tsls_beta = base.beta_hat
                else:
                    base = efficient_fixed_r(ds, plan, tsls_beta)
                record["methods"][name] = {
                    "beta_hat": base.beta_hat,
                    "se": base.se,
                    "cover": bool(abs(base.beta_hat - cfg.beta_true) <= z95 * base.se),
                    "reject": None,
                }
        return rep_index, record, None
    except (MagicivError, np.linalg.LinAlgError) as exc:
        return rep_index, None, f"{type(exc).__name__}: {exc}"


def run_monte_carlo(
    cfg: ScenarioConfig,
    reps: int,
    methods: Sequence[str] = ("magic", "tsls"),
    workers: int = 1,
) -> McSummary:
    """Replicate the design, estimate with each method, aggregate.

    Replications run independently with per-replication RNG streams, so the
    summary is identical for any worker count; at most ``reps`` workers are
    started. A replication that fails numerically is recorded and excluded;
    more than 5% exclusions aborts.
    """
    if reps < 1:
        raise ConfigError(f"reps must be >= 1 (got {reps})")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1 (got {workers})")
    methods = tuple(methods)
    if not methods:
        raise ConfigError("at least one method is required")
    for name in methods:
        if name not in SUPPORTED_METHODS:
            raise ConfigError(
                f"unsupported method {name!r}; choose from {SUPPORTED_METHODS}"
            )
    tasks = [(cfg, i, methods) for i in range(reps)]
    workers = min(workers, reps)  # a forking pool starts every worker at the first submit
    with _blas_threads(1):
        if workers == 1:
            raw = [_replicate(t) for t in tasks]
        else:
            chunk = max(1, reps // (workers * 4))
            with ProcessPoolExecutor(max_workers=workers, initializer=_pin_worker) as pool:
                raw = list(pool.map(_replicate, tasks, chunksize=chunk))

    records: list[dict] = []
    exclusions: list[tuple[int, str]] = []
    for rep_index, record, error in raw:  # already in rep-index order
        if error is not None:
            exclusions.append((rep_index, error))
        else:
            records.append(record)
    if len(exclusions) > 0.05 * reps:
        raise ExclusionError(
            f"{len(exclusions)} of {reps} replications excluded (> 5%); "
            f"first failure: rep {exclusions[0][0]}: {exclusions[0][1]}"
        )
    if not records:
        raise ExclusionError("every replication failed")

    mean_f = float(np.mean([rec["f_stat"] for rec in records]))
    summaries: dict[str, MethodSummary] = {}
    for name in methods:
        betas = np.array([rec["methods"][name]["beta_hat"] for rec in records])
        ses = np.array([rec["methods"][name]["se"] for rec in records])
        covers = np.array([rec["methods"][name]["cover"] for rec in records], dtype=float)
        rejects = [rec["methods"][name]["reject"] for rec in records]
        known = [r for r in rejects if r is not None]
        summaries[name] = MethodSummary(
            abs_bias=abs(float(np.mean(betas)) - cfg.beta_true),
            sd=float(np.std(betas, ddof=1)) if len(betas) > 1 else 0.0,
            mean_se=float(np.mean(ses)),
            coverage_95=float(np.mean(covers)),
            overid_rejection_rate=float(np.mean(known)) if known else None,
            mean_f_stat=mean_f,
        )
    return McSummary(
        config=cfg,
        reps=reps,
        n_excluded=len(exclusions),
        exclusions=tuple(exclusions),
        methods=summaries,
    )


def summary_to_jsonable(summary: McSummary) -> dict:
    """The summary as nested dicts, tuples and scalars, ready for ``json.dumps``."""
    return asdict(summary)


def format_table(summary: McSummary) -> str:
    """Aligned-column text table: method, |Bias|, SD, Mean SE, Coverage (95%)."""
    header = f"{'Method':<10}{'|Bias|':>10}{'SD':>10}{'Mean SE':>10}{'Coverage (95%)':>16}"
    lines = [header, "-" * len(header)]
    for name, ms in summary.methods.items():
        label = _METHOD_LABELS.get(name, name.upper())
        lines.append(
            f"{label:<10}{ms.abs_bias:>10.4f}{ms.sd:>10.4f}{ms.mean_se:>10.4f}"
            f"{ms.coverage_95:>16.3f}"
        )
    return "\n".join(lines)
