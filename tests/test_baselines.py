import numpy as np
import pytest

from magiciv import (
    ConfigError,
    Dataset,
    NumericalError,
    PopulationDgp,
    build_components,
    build_plan,
    efficient_fixed_r,
    estimate_cue,
    fit_nuisance,
    omega,
    population_beta,
    ratio_pair,
    tsls,
)
from magiciv import baselines
from magiciv.simulate import ScenarioConfig, _normals, _rep_rng, gen_dataset

from conftest import make_binary_dataset, make_sim_dataset


def test_tsls_noiseless_single_instrument():
    rng = np.random.default_rng(1)
    z = (rng.random((30, 1)) < 0.5).astype(float)
    z[0, 0], z[1, 0] = 0.0, 1.0
    d = z[:, 0]
    ds = Dataset(y=2.0 * d, d=d, z=z)
    res = tsls(ds)
    assert abs(res.beta_hat - 2.0) <= 1e-12
    assert res.method == "tsls"


def test_tsls_equals_wald_ratio_when_just_identified():
    rng = np.random.default_rng(2)
    z = (rng.random((200, 1)) < 0.4).astype(float)
    z[0, 0], z[1, 0] = 0.0, 1.0
    d = 1.5 * z[:, 0] + rng.standard_normal(200)
    y = 0.8 * d + 0.3 * z[:, 0] + rng.standard_normal(200)
    ds = Dataset(y=y, d=d, z=z)
    res = tsls(ds)
    zc = z[:, 0] - z[:, 0].mean()
    wald = float(zc @ y) / float(zc @ d)
    assert abs(res.beta_hat - wald) <= 1e-10 * max(1.0, abs(wald))


def test_tsls_collinear_instruments_error():
    ds = make_binary_dataset(n=40, p=2, seed=3)
    z = np.column_stack([ds.z, ds.z[:, 0]])  # duplicated column
    with pytest.raises(NumericalError, match=r"first-stage design \(1, z\) rank 3 < 4"):
        tsls(Dataset(y=ds.y, d=ds.d, z=z))


def test_ratio_pair_exact_on_noiseless_product():
    rng = np.random.default_rng(4)
    z = (rng.random((60, 2)) < 0.5).astype(float)
    z[0] = [0, 1]
    z[1] = [1, 0]
    z[2] = [1, 1]
    d = z[:, 0] * z[:, 1]
    ds = Dataset(y=3.0 * d, d=d, z=z)
    res = ratio_pair(ds, 0, 1)
    assert abs(res.beta_hat - 3.0) <= 1e-12
    swapped = ratio_pair(ds, 1, 0)
    assert swapped.beta_hat == res.beta_hat
    assert swapped.se == res.se


def test_ratio_pair_guards():
    ds = make_binary_dataset(n=30, p=3, seed=5)
    with pytest.raises(ConfigError, match="distinct"):
        ratio_pair(ds, 1, 1)
    with pytest.raises(ConfigError, match="out of range"):
        ratio_pair(ds, 0, 9)
    # balanced design: the sample covariance of (z1, z2) is exactly zero,
    # so a constant exposure yields an exactly zero denominator
    z = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 3)
    flat = Dataset(y=np.arange(12.0), d=np.full(12, 2.0), z=z)
    with pytest.raises(NumericalError, match="denominator"):
        ratio_pair(flat, 0, 1)


def test_ratio_pair_matches_population_within_three_ses():
    # valid-pi-zero design: the naive delta-method SE is the asymptotic one
    beta_star, n = 0.5, 100_000
    rng = _rep_rng(77, 0)
    z = (rng.random((n, 2)) < 0.5).astype(float)
    raw = _normals(rng, 2 * n)
    nu, eps = raw[:n], raw[n:]
    d = z[:, 0] + z[:, 1] + (z[:, 0] - 0.5) * (z[:, 1] - 0.5) + nu
    y = beta_star * d + eps
    ds = Dataset(y=y, d=d, z=z)

    dgp = PopulationDgp(
        p=2, mu=np.array([0.5, 0.5]), beta_true=beta_star,
        pi=np.zeros(2), theta=np.ones(2), alpha={(0, 1): 1.0},
    )
    assert abs(population_beta(dgp, 2) - beta_star) <= 1e-12

    # population SE by enumeration: Var(w(Y - b*D)) = E[w^2] Var(eps),
    # E[w D] = alpha E[w^2]; both from the 4-point lattice
    e_w2 = sum(
        0.25 * ((z1 - 0.5) * (z2 - 0.5)) ** 2 for z1 in (0, 1) for z2 in (0, 1)
    )
    se_pop = np.sqrt(e_w2 / n) / abs(1.0 * e_w2)
    res = ratio_pair(ds, 0, 1)
    assert abs(res.beta_hat - beta_star) <= 3.0 * se_pop
    assert abs(res.se - se_pop) <= 0.2 * se_pop


def test_efficient_fixed_r_noiseless_agrees_with_cue_and_ratio():
    rng = np.random.default_rng(6)
    z = (rng.random((80, 2)) < 0.5).astype(float)
    z[0] = [0, 1]
    z[1] = [1, 0]
    z[2] = [1, 1]
    d = z[:, 0] + (z[:, 0] - 0.5) * (z[:, 1] - 0.5)
    ds = Dataset(y=0.5 * d, d=d, z=z)
    plan = build_plan(2, 2)
    eff = efficient_fixed_r(ds, plan)
    assert abs(eff.beta_hat - 0.5) <= 1e-8
    assert abs(estimate_cue(ds).beta_hat - 0.5) <= 1e-6


def test_efficient_fixed_r_bound_positive():
    ds = make_sim_dataset(p=4, n=400, seed=7)
    eff = efficient_fixed_r(ds, build_plan(4, 2))
    assert eff.extra["bound"] > 0.0
    assert eff.se > 0.0
    assert eff.extra["beta_first_step"] == tsls(ds).beta_hat


def test_efficient_fixed_r_zero_outcome_gives_zero_bound():
    # y = 0 zeroes every residual moment at the first step, so the weighting
    # matrix vanishes: the estimate is the exact root and the bound is zero
    ds = make_sim_dataset(p=6, n=800, seed=0)
    eff = efficient_fixed_r(Dataset(y=np.zeros(ds.n), d=ds.d, z=ds.z), build_plan(6, 2))
    assert eff.beta_hat == 0.0 and eff.se == 0.0 and eff.extra["bound"] == 0.0


def test_efficient_fixed_r_consistent_where_tsls_is_not():
    # strong direct effects: TSLS inconsistent, interaction moments still valid
    cfg = ScenarioConfig(p=4, n=5000, c=40.0, scenario="custom",
                         pi_mean=0.5, pi_var=0.0, theta_mean=1.0, theta_var=0.0,
                         beta_true=0.25, seed=8)
    ds, _ = gen_dataset(cfg, 0)
    plan = build_plan(4, 2)
    eff = efficient_fixed_r(ds, plan)
    ts = tsls(ds)
    assert abs(eff.beta_hat - 0.25) < 0.1
    assert abs(ts.beta_hat - 0.25) > 0.2


def test_efficient_fixed_r_variance_respects_bound():
    # Monte Carlo variance of the two-step estimator cannot beat the bound
    cfg = ScenarioConfig(p=4, n=2000, c=12.0, scenario="III", seed=9)
    plan = build_plan(4, 2)
    betas, bounds = [], []
    for rep in range(100):
        ds, truth = gen_dataset(cfg, rep)
        eff = efficient_fixed_r(ds, plan)
        betas.append(eff.beta_hat - truth.beta_true)
        bounds.append(eff.extra["bound"])
    mc_var = float(np.var(betas, ddof=1))
    assert mc_var >= 0.8 * float(np.mean(bounds))


def test_efficient_weighting_is_cue_weighting_at_first_step(monkeypatch):
    # at q = 2 the nuisance residuals are the linear first stage's, so the
    # weighting E_n[w w' (r_y - beta_init r_d)^2] is omega(mc, beta_init)
    ds = make_sim_dataset(p=6, n=3000, seed=31)
    plan = build_plan(ds.p, 2)
    seen = []
    ridge_factor = baselines._ridge_factor

    def spy(om, base_ridge=0.0):
        seen.append(om.copy())
        return ridge_factor(om, base_ridge)

    monkeypatch.setattr(baselines, "_ridge_factor", spy)
    beta_init = tsls(ds).beta_hat
    efficient_fixed_r(ds, plan, beta_init)
    want = omega(build_components(ds, fit_nuisance(ds, plan), plan), beta_init)
    assert len(seen) == 1
    assert np.max(np.abs(seen[0] - want)) <= 1e-12 * np.max(np.abs(want))
