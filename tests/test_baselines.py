import math

import numpy as np
import pytest

from magiciv import (
    Dataset,
    IdentificationError,
    NumericalError,
    build_components,
    build_plan,
    efficient_fixed_r,
    estimate_cue,
    f_stat,
    fit_nuisance,
    omega,
    tsls,
)
from magiciv import baselines
from magiciv.simulate import ScenarioConfig, gen_dataset

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


def _binary_design(seed, n=500, p=4):
    rng = np.random.default_rng(seed)
    return (rng.random((n, p)) < 0.5).astype(float), rng.standard_normal(n)


@pytest.mark.parametrize("level", [2.0, 0.7, 0.0])
def test_tsls_refuses_a_constant_exposure(level):
    # the first-stage residual of a constant is zero only to rounding, so
    # the projected design is singular without an exactly zero pivot
    for seed in range(1, 6):
        z, y = _binary_design(seed)
        with pytest.raises(NumericalError, match="no exposure variation"):
            tsls(Dataset(y=y, d=np.full(z.shape[0], level), z=z))


def test_tsls_on_an_exposure_linear_in_z_is_ols():
    for seed in range(1, 6):
        z, noise = _binary_design(seed)
        d = 1.0 + z @ np.array([0.5, -0.3, 0.2, 0.1])
        y = 0.8 * d + noise
        res = tsls(Dataset(y=y, d=d, z=z))
        dc = d - d.mean()
        ols = float(dc @ y) / float(dc @ dc)
        assert abs(res.beta_hat - ols) <= 1e-10 * max(1.0, abs(ols))
        assert res.se > 0.0


@pytest.mark.parametrize("eps", [1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6])
def test_tsls_on_a_nearly_constant_exposure_is_the_centered_ratio(eps):
    # d = 2 + eps z_1 is linear in z, so TSLS is OLS: the centered ratio
    # below. The fitted exposure is known to about an ulp of its level 2,
    # so beta_hat and se are known to about 2 * 2.2e-16 / eps relative;
    # uncentered normal equations give rounding noise there (se 0)
    z, y = _binary_design(1)
    d = 2.0 + eps * z[:, 0]
    res = tsls(Dataset(y=y, d=d, z=z))
    dc, yc = d - d.mean(), y - y.mean()
    ratio = float(dc @ yc) / float(dc @ dc)
    e = yc - ratio * dc
    se = math.sqrt(float((dc * dc) @ (e * e))) / float(dc @ dc)
    tol = 32 * np.finfo(float).eps * 2.0 / eps
    assert abs(res.beta_hat - ratio) <= tol * abs(ratio)
    assert abs(res.se - se) <= tol * se
    assert abs(res.extra["intercept"] - (y.mean() - ratio * d.mean())) <= tol * abs(ratio) * 2.0


@pytest.mark.parametrize("exposure", ["2.0", "0.7", "0", "linear"])
def test_efficient_fixed_r_refuses_an_exposure_the_first_stage_explains(exposure):
    plan = build_plan(4, 2)
    for seed in range(1, 6):
        z, y = _binary_design(seed)
        if exposure == "linear":
            d = 1.0 + z @ np.array([0.5, -0.3, 0.2, 0.1])
        else:
            d = np.full(z.shape[0], float(exposure))
        ds = Dataset(y=y + 0.5 * d, d=d, z=z)
        # one refusal with and without a first step, as F_q and the CUE see it
        for beta_init in (None, 0.1):
            with pytest.raises(IdentificationError, match="linear first stage"):
                efficient_fixed_r(ds, plan, beta_init)
        assert f_stat(ds, plan).f_value == 0.0
        with pytest.raises(IdentificationError):
            estimate_cue(ds)


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
    # the single-pair ratio mean(w y) / mean(w d) on the demeaned product
    zc = z - z.mean(axis=0)
    w = zc[:, 0] * zc[:, 1]
    assert abs(np.mean(w * ds.y) / np.mean(w * ds.d) - 0.5) <= 1e-12


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
    ridge_ladder = baselines._ridge_ladder

    def spy(om, base_ridge, attempt):
        seen.append(om.copy())
        return ridge_ladder(om, base_ridge, attempt)

    monkeypatch.setattr(baselines, "_ridge_ladder", spy)
    beta_init = tsls(ds).beta_hat
    efficient_fixed_r(ds, plan, beta_init)
    want = omega(build_components(ds, fit_nuisance(ds, plan), plan), beta_init)
    assert len(seen) == 1
    assert np.max(np.abs(seen[0] - want)) <= 1e-12 * np.max(np.abs(want))
