import numpy as np
import pytest

from magiciv import (
    Dataset,
    ScenarioConfig,
    build_components,
    build_plan,
    fit_nuisance,
    gen_dataset,
)
from magiciv.interactions import demeaned_matrix


def make_sim_dataset(
    p=4, n=400, c=8.0, seed=0, scenario="I", beta_true=0.0, rep=0, **kw
) -> Dataset:
    """Simulated dataset with strong-ish interactions, for unit fixtures."""
    cfg = ScenarioConfig(p=p, n=n, c=c, seed=seed, scenario=scenario, beta_true=beta_true, **kw)
    ds, _ = gen_dataset(cfg, rep)
    return ds


def make_binary_dataset(n=24, p=3, seed=1, y=None, d=None) -> Dataset:
    """Deterministic binary instrument matrix with optional custom y/d."""
    rng = np.random.default_rng(seed)
    z = (rng.random((n, p)) < 0.5).astype(float)
    # guarantee variation in every column
    for j in range(p):
        z[0, j], z[1, j] = 0.0, 1.0
    if d is None:
        d = z[:, 0] * z[:, 1] + 0.1 * rng.standard_normal(n)
    if y is None:
        y = 0.5 * d + 0.3 * z[:, 0] + 0.1 * rng.standard_normal(n)
    return Dataset(y=np.asarray(y, dtype=float), d=np.asarray(d, dtype=float), z=z)


def component_rows(ds, plan, nuis):
    """Rows a_i and b_i of the moment split g_i(beta) = a_i - beta * b_i.

    ``MomentComponents`` keeps only their aggregates; checks that need the
    rows rebuild them from the dense demeaned interaction matrix: order
    block k of a (of b) is its block times the order-k outcome (exposure)
    residual.
    """
    w = demeaned_matrix(ds.z, nuis.mu_hat, plan)
    a = np.empty(w.shape)
    b = np.empty(w.shape)
    for k, cols in plan.order_slices().items():
        np.multiply(w[:, cols], nuis.r_y[k - 1][:, None], out=a[:, cols])
        np.multiply(w[:, cols], nuis.r_d[k - 1][:, None], out=b[:, cols])
    return a, b


def pipeline_components(ds, q=2):
    """Moment components of a full fit at interaction order ``q``."""
    plan = build_plan(ds.p, q)
    return build_components(ds, fit_nuisance(ds, plan), plan)


def assert_close_to_sum(got, want, abs_sum):
    """``got`` is the sum ``want`` up to rounding, which scales with the sum
    ``abs_sum`` of the terms' magnitudes."""
    assert np.max(np.abs(got - want)) <= 1e-13 * max(float(np.max(abs_sum)), 1e-300)


def pipeline_rows(ds, q=2):
    """Moment components of a full fit, plus the rows a and b they aggregate."""
    plan = build_plan(ds.p, q)
    nuis = fit_nuisance(ds, plan)
    return (build_components(ds, nuis, plan), *component_rows(ds, plan, nuis))


@pytest.fixture
def sim_dataset():
    return make_sim_dataset()
