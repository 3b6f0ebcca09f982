import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magiciv import (
    ConfigError,
    Dataset,
    NuisanceEstimate,
    build_components,
    build_plan,
    efficient_fixed_r,
    estimate_cue,
    estimate_means,
    f_stat,
    fit_nuisance,
    gbar,
    omega,
    tsls,
)
from magiciv._kernel import _cho_factor_solve, _gram
from magiciv._lapack import _blas_threads
from magiciv.cue import _ridge_ladder
from magiciv.interactions import ROW_BLOCK, demeaned_matrix
from magiciv.moments import _from_gram, components_from_arrays
from magiciv.nuisance import _first_stage, _row_groups
from magiciv.simulate import _normals, _rep_rng

from conftest import (
    assert_close_to_sum,
    component_rows,
    make_binary_dataset,
    make_sim_dataset,
    pipeline_components,
    pipeline_rows,
)


def test_gbar_at_zero_is_column_means_of_a():
    mc, a, _ = pipeline_rows(make_sim_dataset(seed=12))
    assert np.allclose(gbar(mc, 0.0), a.mean(axis=0), atol=0.0)


def test_outcome_equals_exposure_makes_a_equal_b():
    ds = make_binary_dataset(n=40, p=3, seed=2)
    ds = type(ds)(y=ds.d.copy(), d=ds.d, z=ds.z)
    mc, a, b = pipeline_rows(ds)
    assert np.array_equal(a, b)
    assert np.allclose(gbar(mc, 1.0), 0.0, atol=1e-15)


def test_gbar_matches_direct_row_average():
    mc, a, b = pipeline_rows(make_sim_dataset(seed=13))
    for beta in (-1.3, 0.0, 0.7):
        direct = np.zeros(mc.r)
        for i in range(mc.n):
            direct += a[i] - beta * b[i]
        direct /= mc.n
        assert np.max(np.abs(gbar(mc, beta) - direct)) <= 1e-12


def test_omega_single_row_is_outer_product():
    a = np.array([[1.0, -2.0, 0.5]])
    b = np.array([[0.25, 1.0, -1.0]])
    mc = components_from_arrays(a, b)
    beta = 0.4
    g = (a - beta * b)[0]
    assert np.allclose(omega(mc, beta), np.outer(g, g), atol=1e-15)


def test_omega_exactly_symmetric():
    mc = pipeline_components(make_sim_dataset(seed=14))
    for beta in (-2.0, 0.3, 1.7):
        om = omega(mc, beta)
        assert np.max(np.abs(om - om.T)) == 0.0


def test_omega_matches_direct_accumulation():
    ds = make_sim_dataset(p=4, n=500, seed=15)
    mc, a, b = pipeline_rows(ds)
    beta = 0.8
    direct = np.zeros((mc.r, mc.r))
    for i in range(mc.n):
        g = a[i] - beta * b[i]
        direct += np.outer(g, g)
    direct /= mc.n
    om = omega(mc, beta)
    assert np.max(np.abs(om - direct)) <= 1e-10 * max(1.0, np.max(np.abs(direct)))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("moment", [gbar, omega])
def test_gbar_and_omega_refuse_a_beta_that_is_not_finite(moment, value):
    # refused before the arithmetic, which gave NaN rows and, for omega, a
    # RuntimeWarning
    mc = components_from_arrays(np.eye(4), np.eye(4))
    with pytest.raises(ConfigError, match=r"^beta must be finite"):
        moment(mc, value)


def test_beta_quadratic_interpolation():
    mc = pipeline_components(make_sim_dataset(seed=16))
    rng = np.random.default_rng(0)
    v = rng.standard_normal(mc.r)
    pts = np.array([-1.0, 0.0, 1.0])

    def quad_fit_eval(f, x):
        # Lagrange interpolation through three points of an exact quadratic
        vals = np.array([f(b) for b in pts])
        total = 0.0
        for i in range(3):
            weight = 1.0
            for j in range(3):
                if i != j:
                    weight *= (x - pts[j]) / (pts[i] - pts[j])
            total += vals[i] * weight
        return total

    for f in (lambda b: float(gbar(mc, b) @ v), lambda b: float(v @ omega(mc, b) @ v)):
        exact = f(2.5)
        assert abs(quad_fit_eval(f, 2.5) - exact) <= 1e-10 * max(1.0, abs(exact))


def test_outcome_shift_leaves_a_unchanged():
    ds = make_sim_dataset(seed=17)
    _, a, b = pipeline_rows(ds)
    shifted = type(ds)(y=ds.y + 11.0, d=ds.d, z=ds.z)
    _, a2, b2 = pipeline_rows(shifted)
    scale = max(1.0, float(np.max(np.abs(a))))
    assert np.max(np.abs(a2 - a)) <= 1e-10 * scale
    assert np.array_equal(b2, b)


def test_omega_positive_semidefinite():
    mc = pipeline_components(make_sim_dataset(seed=18))
    for beta in (-3.0, 0.0, 2.2):
        eigs = np.linalg.eigvalsh(omega(mc, beta))
        assert eigs.min() >= -1e-10


def test_moment_mean_concentrates_at_true_beta():
    # exposure driven by the pairwise product, outcome linear in it:
    # at the true effect the stacked moment mean should be within a
    # 3-sigma band computed from the weighting matrix itself
    beta_star = 0.7
    n = 100_000
    rng = _rep_rng(123, 0)
    z = (rng.random((n, 2)) < 0.5).astype(float)
    eps = _normals(rng, n)
    d = z[:, 0] * z[:, 1]
    y = beta_star * d + 0.3 * z[:, 0] + eps
    ds = Dataset(y=y, d=d, z=z)
    mc = pipeline_components(ds)
    g = gbar(mc, beta_star)
    bound = 3.0 * np.sqrt(np.trace(omega(mc, beta_star)) / mc.n)
    assert np.linalg.norm(g) <= bound


def _dense_components(ds, plan, nuis):
    """build_components' aggregates by the same kernel, from the dense W over the distinct rows."""
    groups = _row_groups(ds)
    w = demeaned_matrix(ds.z[groups.first], nuis.mu_hat, plan)
    slices = plan.order_slices().items()
    blocks = [(None, None)]
    blocks += [(w[:, cols], nuis.r_y[k - 1]) for k, cols in slices]
    blocks += [(w[:, cols], nuis.r_d[k - 1]) for k, cols in slices]
    return _from_gram(_gram(groups, blocks), ds.n, plan.r)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 3]),
    q=st.sampled_from([2, 3]),
    binary=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_chunked_grams_match_dense_products(n, q, binary, seed):
    rng = np.random.default_rng(seed)
    p = 4
    z = (rng.random((n, p)) < 0.5).astype(float) if binary else rng.random((n, p))
    ds = Dataset(y=rng.standard_normal(n), d=rng.standard_normal(n), z=z)
    plan = build_plan(p, q)
    orders = range(1, q)
    nuis = NuisanceEstimate(
        mu_hat=rng.random(p),  # not the sample means, so one row still varies
        theta={},
        xi={},
        r_y={k: rng.standard_normal(n) for k in orders},
        r_d={k: rng.standard_normal(n) for k in orders},
    )
    mc = build_components(ds, nuis, plan)
    a, b = component_rows(ds, plan, nuis)
    aa, ab = np.abs(a), np.abs(b)
    assert_close_to_sum(mc.s0, a.T @ a / n, aa.T @ aa / n)
    assert_close_to_sum(mc.c_ab, a.T @ b / n, aa.T @ ab / n)
    assert_close_to_sum(mc.s1, (a.T @ b + b.T @ a) / n, 2.0 * aa.T @ ab / n)
    assert_close_to_sum(mc.s2, b.T @ b / n, ab.T @ ab / n)
    assert_close_to_sum(mc.abar, a.mean(axis=0), aa.mean(axis=0))
    assert_close_to_sum(mc.bbar, b.mean(axis=0), ab.mean(axis=0))
    # the dense W over the distinct rows goes through the same kernel: the
    # same chunks, the same bits; where no row repeats, that is the raw
    # rows' kernel too
    dense = _dense_components(ds, plan, nuis)
    raw = components_from_arrays(a, b)
    for field in ("abar", "bbar", "s0", "s1", "s2", "c_ab"):
        assert np.array_equal(getattr(dense, field), getattr(mc, field))
        if _row_groups(ds).size == ds.n:
            assert np.array_equal(getattr(raw, field), getattr(mc, field))
    assert np.array_equal(mc.s0, mc.s0.T) and np.array_equal(mc.s2, mc.s2.T)


def _dense_f_stat(ds, plan):
    """F_q by its formula from the dense W over the distinct rows, through the same Gram kernel."""
    n, r, m = ds.n, plan.r, plan.r + 1
    _, d_bar = _first_stage(ds)
    groups = _row_groups(ds)
    w = demeaned_matrix(ds.z[groups.first], estimate_means(ds), plan)
    gram = _gram(groups, [(None, None), (w, None), (None, d_bar)])
    s = 1.0 / np.sqrt(np.diag(gram)[:m])
    _, coef = _cho_factor_solve(gram[:m, :m] * s[:, None] * s, gram[:m, m] * s)
    # the fitted values as f_stat forms them, from W's rows held transposed
    fitted = np.asfortranarray(w) @ (s[1:] * coef[1:])
    resid = d_bar - s[0] * coef[0] - groups.gather(fitted)
    # the Wald statistic of the slopes with the intercept partialled out
    wbar = gram[0, 1:m] / n
    t = gram[1:m, m] - wbar * gram[0, m]
    meat = _gram(groups, [(w - wbar, resid)])
    return float(t @ _cho_factor_solve(meat, t)[1]) / r


def _dense_efficient(ds, plan, beta_init):
    """Efficient GMM's (beta_hat, bound) by their formulas from the dense W over distinct rows."""
    n = ds.n
    r_y, r_d = _first_stage(ds)
    groups = _row_groups(ds)
    w = demeaned_matrix(ds.z[groups.first], estimate_means(ds), plan)
    resid0 = r_y - beta_init * r_d
    m_vec = -(w.T @ groups.sums(ds.d) / n)
    (_, theta), _ = _ridge_ladder(
        _gram(groups, [(w, resid0)]) / n, 0.0, lambda a: _cho_factor_solve(a, m_vec)
    )
    a_vec = w.T @ groups.sums(resid0 + beta_init * ds.d) / n
    b_vec = w.T @ groups.sums(ds.d) / n
    return float(theta @ a_vec) / float(theta @ b_vec), 1.0 / float(-b_vec @ theta) / n


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("n", [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1])
def test_streamed_interactions_match_dense_formulas(n, q):
    # the Grams build W chunk by chunk over the distinct rows, 2048 of them
    # at a time; on either side of a chunk boundary (rows that never
    # repeat) and over a few repeated rows (binary ones) they must give the
    # bits of the same formulas over the dense W
    for binary in (False, True):
        rng = np.random.default_rng(1000 * n + q)
        p = 4
        z = (rng.random((n, p)) < 0.5) + (0.0 if binary else 0.1 * rng.random((n, p)))
        inter = demeaned_matrix(z, z.mean(axis=0), build_plan(p, 2))
        d = inter @ np.full(inter.shape[1], 2.0) + z @ np.ones(p) + rng.standard_normal(n)
        ds = Dataset(y=0.8 * d + z[:, 0] + rng.standard_normal(n), d=d, z=z)
        plan = build_plan(p, q)
        nuis = NuisanceEstimate(
            mu_hat=rng.random(p),
            theta={},
            xi={},
            r_y={k: rng.standard_normal(n) for k in range(1, q)},
            r_d={k: rng.standard_normal(n) for k in range(1, q)},
        )
        assert (_row_groups(ds).size == ds.n) == (not binary or n == 1)
        mc = build_components(ds, nuis, plan)
        dense = _dense_components(ds, plan, nuis)
        for field in ("abar", "bbar", "s0", "s1", "s2", "c_ab"):
            assert np.array_equal(getattr(mc, field), getattr(dense, field))
        if n <= plan.r + 1:
            continue
        with _blas_threads(1):  # the library pins its own calls the same way
            want_f = _dense_f_stat(ds, plan)
            beta_init = tsls(ds).beta_hat
            want_beta, want_bound = _dense_efficient(ds, plan, beta_init)
        assert f_stat(ds, plan).f_value == want_f
        # efficient GMM sums W'd chunk by chunk: rounding may move, by little
        eff = efficient_fixed_r(ds, plan, beta_init)
        assert abs(eff.beta_hat - want_beta) <= 1e-14 * abs(want_beta)
        assert abs(eff.extra["bound"] - want_bound) <= 1e-14 * abs(want_bound)


def test_kernel_allocates_far_less_than_one_interaction_matrix():
    # no step of a fit holds the n x r demeaned interaction matrix: the
    # moment Grams, F_q and efficient GMM stream it in row chunks
    ds = make_sim_dataset(p=12, n=20_000, seed=19)
    plan = build_plan(ds.p, 3)  # r = 286
    nuis = fit_nuisance(ds, plan)
    beta_init = tsls(ds).beta_hat
    one_matrix = ds.n * plan.r * 8
    for run in (
        lambda: build_components(ds, nuis, plan),
        lambda: f_stat(ds, plan),
        lambda: efficient_fixed_r(ds, plan, beta_init),
        lambda: estimate_cue(Dataset(y=ds.y, d=ds.d, z=ds.z), q=3),  # nothing memoized
    ):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < one_matrix


def test_each_pass_holds_one_chunk_sized_buffer():
    # a pass over W holds the transposed stack X' of one chunk and nothing
    # else chunk-sized beyond the transposed instruments it is built from:
    # no product buffer beside the stack, no C-ordered copy of it
    ds = make_sim_dataset(p=8, n=2 * ROW_BLOCK + 3, seed=7)
    plan = build_plan(ds.p, 3)  # r = 84
    nuis = fit_nuisance(ds, plan)
    beta_init = tsls(ds).beta_hat  # also memoizes the (1, z) fit
    r, chunk, slack = plan.r, ROW_BLOCK * 8, 256 * 1024
    centered, zt = ds.z.nbytes, ds.p * chunk
    for run, width in (
        (lambda: build_components(ds, nuis, plan), 1 + 2 * r),
        (lambda: f_stat(ds, plan), r + 2),
        (lambda: efficient_fixed_r(ds, plan, beta_init), r),
    ):
        # the Gram and at most three more matrices of its size at once
        bound = width * chunk + centered + zt + 4 * width * width * 8 + slack
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound
