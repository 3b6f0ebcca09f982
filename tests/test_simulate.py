import hashlib
import json
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np
import pytest

from magiciv import ConfigError, ExclusionError, ScenarioConfig, gen_dataset, run_monte_carlo
from magiciv import simulate
from magiciv._lapack import _blas_controls, _blas_threads
from magiciv.simulate import (
    _ceil_frac,
    _pin_worker,
    _replicate,
    format_table,
    summary_to_jsonable,
)

needs_openblas = pytest.mark.skipif(
    not _blas_controls(), reason="no BLAS with a settable thread count is loaded"
)


def _blas_counts() -> list[int]:
    return [get() for get, _ in _blas_controls()]


def test_generation_is_deterministic_per_rep():
    cfg = ScenarioConfig(p=4, n=100, seed=5)
    ds1, t1 = gen_dataset(cfg, 3)
    ds2, t2 = gen_dataset(cfg, 3)
    assert np.array_equal(ds1.y, ds2.y)
    assert np.array_equal(ds1.d, ds2.d)
    assert np.array_equal(ds1.z, ds2.z)
    assert np.array_equal(t1.theta, t2.theta)
    ds_other, _ = gen_dataset(cfg, 4)
    assert not np.array_equal(ds1.y, ds_other.y)


def test_scenario_fraction_layouts():
    cfg = ScenarioConfig(p=10, n=50, scenario="I", seed=1)
    _, truth = gen_dataset(cfg, 0)
    assert truth.pi.tolist() == [0.2] * 3 + [0.0] * 7
    assert truth.theta.tolist() == [1.0] * 10

    cfg = ScenarioConfig(p=10, n=50, scenario="II", seed=1)
    _, truth = gen_dataset(cfg, 0)
    assert truth.pi.tolist() == [0.2, 0.2, 0.4, 0.4, 0.6, 0.6, 0.0, 0.0, 0.0, 0.0]

    cfg = ScenarioConfig(p=10, n=50, scenario="IV", seed=1)
    _, truth = gen_dataset(cfg, 0)
    assert np.allclose(truth.pi[:7], truth.theta[:7] / 2.0, atol=0.0)
    assert np.all(truth.pi[7:] == 0.0)


def test_ceil_frac_avoids_float_rounding():
    assert _ceil_frac(3, 10, 10) == 3
    assert _ceil_frac(7, 10, 10) == 7
    assert _ceil_frac(2, 10, 11) == 3


def test_interaction_strength_scaling():
    cfg = ScenarioConfig(p=4, n=400, c=0.0, seed=2)
    _, truth = gen_dataset(cfg, 0)
    assert np.all(truth.alpha == 0.0)
    cfg = ScenarioConfig(p=4, n=400, c=5.0, seed=2)
    _, truth = gen_dataset(cfg, 0)
    assert np.allclose(truth.alpha, 5.0 / np.sqrt(400), atol=0.0)


def test_instrument_means_concentrate():
    cfg = ScenarioConfig(p=5, n=100_000, mu=0.3, seed=3)
    ds, _ = gen_dataset(cfg, 0)
    bound = 4.0 * np.sqrt(0.3 * 0.7 / cfg.n)
    assert np.all(np.abs(ds.z.mean(axis=0) - 0.3) <= bound)


def test_error_covariance_matches_sigma():
    cfg = ScenarioConfig(p=3, n=100_000, c=2.0, scenario="I", seed=4)
    ds, truth = gen_dataset(cfg, 0)
    pairs = truth.pairs
    inter = np.column_stack(
        [(ds.z[:, j] - cfg.mu) * (ds.z[:, k] - cfg.mu) for j, k in pairs]
    )
    nu = ds.d - ds.z @ truth.theta - inter @ truth.alpha
    eps = ds.y - ds.d * truth.beta_true - ds.z @ truth.pi
    n = cfg.n
    se_var = np.sqrt(2.0 / n)  # SD of a normal sample variance, sigma^2=1
    se_cov = np.sqrt((1.0 + 0.25**2) / n)
    assert abs(np.var(eps) - 1.0) <= 5 * se_var
    assert abs(np.var(nu) - 1.0) <= 5 * se_var
    assert abs(np.mean(eps * nu) - 0.25) <= 5 * se_cov


def test_misspecification_term_and_freeze():
    cfg = ScenarioConfig(p=4, n=200, misspecify_alice=True, seed=6)
    ds, truth = gen_dataset(cfg, 0)
    assert truth.phi is not None and truth.phi.shape == (6,)
    raw = np.column_stack([ds.z[:, j] * ds.z[:, k] for j, k in truth.pairs])
    centered = np.column_stack(
        [(ds.z[:, j] - cfg.mu) * (ds.z[:, k] - cfg.mu) for j, k in truth.pairs]
    )
    nu = ds.d - ds.z @ truth.theta - centered @ truth.alpha
    eps = ds.y - ds.d * truth.beta_true - ds.z @ truth.pi - raw @ truth.phi
    assert np.all(np.isfinite(nu)) and np.all(np.isfinite(eps))
    assert abs(np.mean(eps)) < 0.5  # phi really was subtracted out

    _, t0 = gen_dataset(cfg, 0)
    _, t1 = gen_dataset(cfg, 1)
    assert not np.array_equal(t0.phi, t1.phi)

    frozen = ScenarioConfig(p=4, n=200, misspecify_alice=True, freeze_phi=True, seed=6)
    _, f0 = gen_dataset(frozen, 0)
    _, f1 = gen_dataset(frozen, 1)
    assert np.array_equal(f0.phi, f1.phi)


def test_raw_interaction_flag_changes_exposure_only_by_reparameterization():
    centered_cfg = ScenarioConfig(p=3, n=500, c=10.0, seed=7)
    raw_cfg = ScenarioConfig(p=3, n=500, c=10.0, seed=7, center_interactions=False)
    ds_c, truth = gen_dataset(centered_cfg, 0)
    ds_r, _ = gen_dataset(raw_cfg, 0)
    assert np.array_equal(ds_c.z, ds_r.z)
    # difference is linear in z plus a constant: raw - centered products
    alpha = truth.alpha
    mu = 0.5
    delta_expected = np.zeros(500)
    for idx, (j, k) in enumerate(truth.pairs):
        delta_expected += alpha[idx] * (
            mu * ds_c.z[:, j] + mu * ds_c.z[:, k] - mu * mu
        )
    assert np.allclose(ds_r.d - ds_c.d, delta_expected, atol=1e-12)


def _pair_loop_outcomes(cfg, rep_index):
    """(d, y) drawn as gen_dataset draws them, with one product per pair in a loop."""
    rng = simulate._rep_rng(cfg.seed, rep_index)
    pairs = [(j, k) for j in range(cfg.p) for k in range(j + 1, cfg.p)]
    theta, pi = simulate._draw_effects(cfg, rng)
    alpha = np.full(len(pairs), cfg.c / np.sqrt(cfg.n))
    phi = None
    if cfg.misspecify_alice:
        phi = (1.0 + simulate._normals(rng, len(pairs))) * cfg.c / np.sqrt(cfg.n)
    z = (rng.random((cfg.n, cfg.p)) < cfg.mu).astype(float)
    raw = simulate._normals(rng, 2 * cfg.n)
    g1, g2 = raw[: cfg.n], raw[cfg.n :]
    s = cfg.sigma
    l00 = np.sqrt(s[0][0])
    l10 = s[1][0] / l00
    l11 = np.sqrt(s[1][1] - l10 * l10)
    raw_products = np.empty((cfg.n, len(pairs)))
    centered = np.empty((cfg.n, len(pairs)))
    for idx, (j, k) in enumerate(pairs):
        raw_products[:, idx] = z[:, j] * z[:, k]
        centered[:, idx] = (z[:, j] - cfg.mu) * (z[:, k] - cfg.mu)
    inter = centered if cfg.center_interactions else raw_products
    d = z @ theta + inter @ alpha + (l10 * g1 + l11 * g2)
    y = d * cfg.beta_true + z @ pi + l00 * g1
    if phi is not None:
        y = y + raw_products @ phi
    return d, y


@pytest.mark.parametrize("misspecify", [False, True])
@pytest.mark.parametrize("center", [True, False])
def test_products_match_the_pair_loop_bit_for_bit(center, misspecify):
    # mu != 0.5 makes the centering matter
    cfg = ScenarioConfig(p=5, n=600, mu=0.3, beta_true=0.7, scenario="III", seed=9,
                         center_interactions=center, misspecify_alice=misspecify)
    for rep_index in (0, 3):
        ds, _ = gen_dataset(cfg, rep_index)
        d, y = _pair_loop_outcomes(cfg, rep_index)
        assert ds.d.tobytes() == d.tobytes()
        assert ds.y.tobytes() == y.tobytes()


def test_scale_as_sd_reinterprets_normal_parameters():
    # same seed, same standardized draws: only the scale factor changes
    var_cfg = ScenarioConfig(p=6, n=50, scenario="III", pi_mean=0.2, pi_var=0.2,
                             theta_mean=1.0, theta_var=1.0, seed=13)
    sd_cfg = ScenarioConfig(p=6, n=50, scenario="III", pi_mean=0.2, pi_var=0.2,
                            theta_mean=1.0, theta_var=1.0, scale_as_sd=True, seed=13)
    _, t_var = gen_dataset(var_cfg, 0)
    _, t_sd = gen_dataset(sd_cfg, 0)
    ratio = 0.2 / np.sqrt(0.2)
    assert np.allclose(t_sd.pi - 0.2, (t_var.pi - 0.2) * ratio, atol=1e-14)
    assert np.allclose(t_sd.theta - 1.0, t_var.theta - 1.0, atol=1e-14)  # sd 1 either way


def test_config_validation():
    with pytest.raises(ConfigError, match="p >= 2"):
        ScenarioConfig(p=1, n=100)
    with pytest.raises(ConfigError, match="2 <= q <= p"):
        ScenarioConfig(p=3, n=100, q=4)
    with pytest.raises(ConfigError, match="mu"):
        ScenarioConfig(p=3, n=100, mu=1.0)
    with pytest.raises(ConfigError, match="scenario"):
        ScenarioConfig(p=3, n=100, scenario="V")
    with pytest.raises(ConfigError, match="symmetric"):
        ScenarioConfig(p=3, n=100, sigma=((1.0, 0.2), (0.3, 1.0)))
    with pytest.raises(ConfigError, match="positive definite"):
        ScenarioConfig(p=3, n=100, sigma=((1.0, 1.5), (1.5, 1.0)))
    with pytest.raises(ConfigError, match="c must be >= 0"):
        ScenarioConfig(p=3, n=100, c=-1.0)
    # a NaN or inf is refused here, before any replication runs
    nan, inf = float("nan"), float("inf")
    for field, value in [("c", nan), ("beta_true", inf), ("theta_var", nan)]:
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            ScenarioConfig(p=3, n=100, **{field: value})
    with pytest.raises(ConfigError, match="sigma must be finite"):
        ScenarioConfig(p=3, n=100, sigma=((1.0, 0.25), (0.25, nan)))


def test_run_monte_carlo_single_rep_degenerates():
    cfg = ScenarioConfig(p=4, n=300, c=8.0, seed=8)
    summary = run_monte_carlo(cfg, reps=1, methods=("magic",))
    ms = summary.methods["magic"]
    assert summary.reps == 1 and summary.n_excluded == 0
    assert ms.sd == 0.0
    assert ms.coverage_95 in (0.0, 1.0)


def test_run_monte_carlo_worker_counts_agree():
    cfg = ScenarioConfig(p=4, n=200, c=8.0, seed=9)
    s1 = run_monte_carlo(cfg, reps=8, methods=("magic", "tsls"), workers=1)
    s2 = run_monte_carlo(cfg, reps=8, methods=("magic", "tsls"), workers=2)
    assert json.dumps(summary_to_jsonable(s1), sort_keys=True) == json.dumps(
        summary_to_jsonable(s2), sort_keys=True
    )


def test_run_monte_carlo_starts_no_more_workers_than_replications(monkeypatch):
    # a forking pool starts all max_workers processes at the first submit;
    # this stand-in runs the tasks in-process and starts none
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers, initializer):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            return map(fn, tasks)

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", InProcessPool)
    cfg = ScenarioConfig(p=4, n=200, c=8.0, seed=9)
    wide = run_monte_carlo(cfg, reps=3, methods=("magic", "tsls"), workers=10**6)
    one = run_monte_carlo(cfg, reps=3, methods=("magic", "tsls"), workers=1)
    assert sizes == [3]
    assert summary_to_jsonable(wide) == summary_to_jsonable(one)


@needs_openblas
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_replication_records_do_not_depend_on_blas_threads(seed):
    # Scenario I at r = 45, the paper's Monte Carlo size
    methods = ("magic", "tsls", "efficient_fixed_r")
    cfg = ScenarioConfig(p=10, n=5000, q=2, scenario="I", seed=seed)
    records = {}
    for count in (1, 2):
        with _blas_threads(count):
            assert set(_blas_counts()) == {count}
            records[count] = repr([_replicate((cfg, i, methods)) for i in range(2)])
    assert records[1] == records[2]


@needs_openblas
def test_gen_dataset_pins_one_blas_thread(monkeypatch):
    counts = []
    pair_products = simulate._pair_products

    def products(x, pairs):  # the products feed gen_dataset's matrix-vector products
        counts.append(set(_blas_counts()))
        return pair_products(x, pairs)

    monkeypatch.setattr(simulate, "_pair_products", products)
    with _blas_threads(2):  # the caller's thread count
        gen_dataset(ScenarioConfig(p=4, n=100, misspecify_alice=True), 0)
        assert set(_blas_counts()) == {2}
    assert counts == [{1}, {1}]


@needs_openblas
def test_gen_dataset_bytes_do_not_depend_on_blas_threads():
    # with the misspecified outcome at n = 10003, the unpinned products
    # z @ theta, products @ alpha and z @ pi rounded differently at one and
    # at two threads on a 2-core machine
    cfg = ScenarioConfig(p=12, n=10003, misspecify_alice=True)
    digests = set()
    for count in (2, 1):
        with _blas_threads(count):
            ds, _ = gen_dataset(cfg, 0)
        digests.add(hashlib.sha256(ds.y.tobytes() + ds.d.tobytes() + ds.z.tobytes()).digest())
    assert len(digests) == 1


def _raise_with_blas_counts(cfg, rep_index):
    raise RuntimeError(f"BLAS threads {_blas_counts()}")


@needs_openblas
@pytest.mark.parametrize("workers", [1, 2])
def test_run_monte_carlo_pins_one_thread_and_restores_the_callers(monkeypatch, workers):
    pools = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(set(_blas_counts()))  # what forked workers inherit
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", RecordingPool)
    cfg = ScenarioConfig(p=4, n=200, c=8.0, seed=9)
    with _blas_threads(2):
        run_monte_carlo(cfg, reps=4, methods=("magic",), workers=workers)
        assert set(_blas_counts()) == {2}
        assert pools == ([{1}] if workers == 2 else [])
        # an error that escapes the loop or the pool: the replication saw one
        # thread, and the caller's count is back afterwards
        monkeypatch.setattr(simulate, "gen_dataset", _raise_with_blas_counts)
        with pytest.raises(RuntimeError, match=r"BLAS threads \[1(, 1)*\]"):
            run_monte_carlo(cfg, reps=4, methods=("magic",), workers=workers)
        assert set(_blas_counts()) == {2}


@needs_openblas
def test_pool_initializer_pins_a_worker_that_starts_with_more_threads():
    # the case of a spawned worker, which inherits no pin
    with _blas_threads(2):
        _pin_worker()
        assert set(_blas_counts()) == {1}


@needs_openblas
@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_pool_initializer_pins_workers_of_each_start_method(method):
    # these workers do not fork from the pinned parent: each starts at the
    # library default thread count and only the initializer pins it
    with ProcessPoolExecutor(
        max_workers=1, mp_context=get_context(method), initializer=_pin_worker
    ) as pool:
        assert set(pool.submit(_blas_counts).result()) == {1}


_START_METHOD_RUN = """
import json, multiprocessing, sys
from magiciv import ScenarioConfig, run_monte_carlo
from magiciv.simulate import summary_to_jsonable

multiprocessing.set_start_method(sys.argv[1])
cfg = ScenarioConfig(p=4, n=200, c=8.0, seed=9)
for workers in (1, 2):
    summary = run_monte_carlo(cfg, reps=8, methods=("magic", "tsls"), workers=workers)
    print(json.dumps(summary_to_jsonable(summary), sort_keys=True))
"""


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_run_monte_carlo_worker_counts_agree_under_each_start_method(method):
    # the start method is process-wide, so a fresh interpreter sets it
    proc = subprocess.run(
        [sys.executable, "-c", _START_METHOD_RUN, method],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    one_worker, two_workers = proc.stdout.splitlines()
    assert one_worker == two_workers


def test_run_monte_carlo_argument_guards():
    cfg = ScenarioConfig(p=4, n=200, seed=10)
    with pytest.raises(ConfigError, match="reps"):
        run_monte_carlo(cfg, reps=0)
    with pytest.raises(ConfigError, match="unsupported method"):
        run_monte_carlo(cfg, reps=2, methods=("magic", "ratio_pair"))
    with pytest.raises(ConfigError, match="workers"):
        run_monte_carlo(cfg, reps=2, workers=0)


def test_run_monte_carlo_exclusion_failure():
    # n=2 cannot support the order-1 projection: every replication fails
    cfg = ScenarioConfig(p=2, n=2, seed=11)
    with pytest.raises(ExclusionError, match="excluded"):
        run_monte_carlo(cfg, reps=4, methods=("magic",))


def test_summary_serialization_and_table():
    cfg = ScenarioConfig(p=4, n=200, c=8.0, seed=12)
    summary = run_monte_carlo(cfg, reps=3, methods=("magic", "tsls"))
    payload = summary_to_jsonable(summary)
    assert payload["reps"] == 3
    assert set(payload["methods"]) == {"magic", "tsls"}
    magic = payload["methods"]["magic"]
    assert set(magic) == {
        "abs_bias", "sd", "mean_se", "coverage_95",
        "overid_rejection_rate", "mean_f_stat",
    }
    assert payload["methods"]["tsls"]["overid_rejection_rate"] is None
    # the config survives JSON and rebuilds the design it came from
    config = json.loads(json.dumps(payload["config"]))
    config["sigma"] = tuple(tuple(row) for row in config["sigma"])
    assert ScenarioConfig(**config) == cfg
    table = format_table(summary)
    assert "MAGIC" in table and "TSLS" in table and "Coverage" in table
