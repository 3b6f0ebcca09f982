import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magiciv import (
    Dataset,
    build_components,
    build_plan,
    efficient_fixed_r,
    estimate_cue,
    f_stat,
    fit_nuisance,
    tsls,
)
from magiciv import _groups, baselines, diagnostics, moments, nuisance
from magiciv._kernel import _unit_cholesky
from magiciv.diagnostics import _MIN_RCOND
from magiciv.interactions import ROW_BLOCK, demeaned_matrix
from magiciv.nuisance import _first_stage, _row_groups

from conftest import assert_close_to_sum, component_rows, make_sim_dataset


def _grouping(z):
    """Group sizes and each row's group, by sorting the rows."""
    _, inverse, counts = np.unique(z, axis=0, return_inverse=True, return_counts=True)
    return counts, inverse


def _assert_same_grouping(groups, ds):
    z = ds.z
    counts, inverse = _grouping(z)
    assert np.array_equal(groups.index[groups.first], np.arange(groups.size))
    if groups.size == ds.n:  # the identity: group i is row i
        assert counts.size == z.shape[0] and groups.repeated == 0
        assert np.array_equal(z[groups.first], z)
        assert np.array_equal(groups.index, np.arange(ds.n))
    assert groups.size == counts.size
    assert np.array_equal(np.sort(groups.counts), np.sort(counts.astype(float)))
    # the same partition of the rows, each group's rows equal to its distinct row
    assert np.array_equal(z[groups.first][groups.index], z)
    pairs = set(zip(groups.index.tolist(), inverse.ravel().tolist()))
    assert len(pairs) == groups.size
    # repeated groups first
    assert groups.repeated == np.count_nonzero(counts > 1)
    assert np.all(groups.counts[: groups.repeated] > 1)
    assert np.all(groups.counts[groups.repeated:] == 1)


@pytest.mark.parametrize(
    "kind",
    [
        "binary",
        "genotype",
        "wide binary",
        "many values",
        "values and rare bits",
        "rare bits",
        "distinct",
        "constant",
        "one row",
    ],
)
def test_grouping_partitions_rows_by_value(monkeypatch, kind):
    rng = np.random.default_rng(7)
    n = 10000 if "rare" in kind else 3000
    if kind == "values and rare bits":  # 5000 values, then a word of rare bits
        values = rng.permutation(np.repeat(np.arange(n // 2), 2)) * 0.1
        z = np.column_stack([values, rng.random((n, 52)) < 0.01]).astype(float)
    elif kind == "rare bits":  # 104 two-valued columns: over 4096 codes before the last word
        z = (rng.random((n, 104)) < 0.05).astype(float)
    elif kind == "binary":
        z = (rng.random((n, 10)) < 0.3).astype(float)
    elif kind == "genotype":  # 0/1/2 columns are ranked; one two-valued column
        z = np.column_stack([rng.integers(0, 3, (n, 6)), rng.random(n) < 0.5]).astype(float)
    elif kind == "wide binary":  # 60 two-valued columns: two words of bits
        z = (rng.random((n, 60)) < 0.02) * 3.0 - 1.5
    elif kind == "many values":  # 20 columns of 9 values: the code is renumbered
        z = rng.integers(0, 9, (n, 20)) * 0.5
        z[n // 2:] = z[: n - n // 2]  # half the rows repeat
    elif kind == "distinct":
        z = rng.standard_normal((n, 4))
    elif kind == "constant":
        z = np.column_stack([np.full(n, 2.5), rng.random(n) < 0.5])
    else:
        z = rng.random((1, 3))
    ds = Dataset(y=np.zeros(len(z)), d=np.zeros(len(z)), z=z)
    groups = _row_groups(ds)
    _assert_same_grouping(groups, ds)
    assert (groups.size == ds.n) == (kind in ("distinct", "one row"))
    assert not groups.counts.flags.writeable and not groups.first.flags.writeable
    assert not groups.index.flags.writeable
    # read one column at a time, words of bits straddle the blocks: the same groups
    monkeypatch.setattr(_groups, "_BLOCK_CELLS", 1)
    narrow = _groups._group_rows(ds.z)
    for name in ("first", "index", "counts", "repeated"):
        assert np.array_equal(getattr(narrow, name), getattr(groups, name))


def test_grouping_allele_counts_holds_no_copy_per_column():
    # at (20, 2, 400000) allele counts, a transposed copy of z beside one
    # rank vector per column peaked 44.5 n-vectors of doubles above the data
    n, p = 2**18, 20
    z = np.random.default_rng(5).binomial(2, 0.3, (n, p)).astype(float)
    tracemalloc.start()
    try:
        groups = _groups._group_rows(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 1 < groups.size < n
    assert peak < 16 * n * 8  # 10.5 here, whatever p


def test_identical_rows_form_one_group():
    rng = np.random.default_rng(3)
    n, p = 50, 3
    z = np.tile([1.0, -2.0, 0.5], (n, 1))
    ds = Dataset(y=rng.standard_normal(n), d=rng.standard_normal(n), z=z)
    groups = _row_groups(ds)
    assert groups.size == 1 and groups.repeated == 1 and groups.counts.tolist() == [n]
    plan = build_plan(p, 2)
    nuis = nuisance.NuisanceEstimate(
        mu_hat=np.zeros(p), theta={}, xi={}, r_y={1: ds.y}, r_d={1: ds.d}
    )
    mc = build_components(ds, nuis, plan)
    a, b = component_rows(ds, plan, nuis)
    assert_close_to_sum(mc.s0, a.T @ a / n, np.abs(a).T @ np.abs(a) / n)
    assert_close_to_sum(mc.c_ab, a.T @ b / n, np.abs(a).T @ np.abs(b) / n)
    assert_close_to_sum(mc.abar, a.mean(axis=0), np.abs(a).mean(axis=0))


def _assert_gram(got, x):
    """``got`` is the Gram of the rows of ``x`` up to rounding, and exactly symmetric."""
    ax = np.abs(x)
    assert_close_to_sum(got, x.T @ x, ax.T @ ax)
    assert np.array_equal(got, got.T)


def _dataset(kind, size):
    """A dataset with ``size`` distinct instrument rows of the given kind."""
    rng = np.random.default_rng(size)
    if kind == "binary":  # distinct patterns of 12 Bernoulli instruments, 1-3 rows each
        codes = rng.choice(2**12, size=size, replace=False)
        distinct = ((codes[:, None] >> np.arange(12)) & 1).astype(float)
        reps = rng.integers(1, 4, size)
    else:  # continuous rows, each once or each three times
        distinct = rng.standard_normal((size, 4))
        reps = np.full(size, 1 if kind == "distinct" else 3)
    z = np.repeat(distinct, reps, axis=0)[rng.permutation(int(reps.sum()))]
    n, p = z.shape
    d = z[:, 0] * z[:, 1] + z[:, 2] * z[:, 3] + z.sum(axis=1) + rng.standard_normal(n)
    y = 0.5 * d + z[:, 0] + rng.standard_normal(n)
    return Dataset(y=y, d=d, z=z)


def _spy(monkeypatch, module, name, log):
    real = getattr(module, name)

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        log.append((args, out))
        return out

    monkeypatch.setattr(module, name, spy)


@pytest.mark.parametrize("kind", ["distinct", "repeated", "binary"])
@pytest.mark.parametrize("size", [ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1])
def test_every_consumers_grams_match_row_formulas(monkeypatch, kind, size):
    # each Gram formed over the distinct rows, from per-group weight sums,
    # is the Gram of the rows up to rounding, on either side of a chunk
    # boundary of distinct rows
    ds = _dataset(kind, size)
    groups = _row_groups(ds)
    assert groups.size == size
    assert groups.repeated == {"distinct": 0, "repeated": size}.get(kind, groups.repeated)
    assert 0 < groups.repeated < size or kind != "binary"
    q = 3
    plan = build_plan(ds.p, q)
    n, r, m = ds.n, plan.r, plan.r + 1
    logs = {key: [] for key in ("nuisance", "moments", "f_stat", "meat", "omega", "relevance")}
    _spy(monkeypatch, nuisance, "_gram", logs["nuisance"])
    _spy(monkeypatch, moments, "_gram", logs["moments"])
    _spy(monkeypatch, diagnostics, "_gram", logs["f_stat"])
    _spy(monkeypatch, diagnostics, "_mirror", logs["meat"])
    _spy(monkeypatch, baselines, "_mirror", logs["omega"])
    _spy(monkeypatch, baselines, "_cho_factor_solve", logs["relevance"])
    nuis = fit_nuisance(ds, plan)
    build_components(ds, nuis, plan)
    f_stat(ds, plan)
    beta_init = tsls(ds).beta_hat
    eff = efficient_fixed_r(ds, plan, beta_init)

    mu = nuis.mu_hat
    w = demeaned_matrix(ds.z, mu, plan)
    ones = np.ones((n, 1))
    stop = plan.order_slices()[q - 1].stop
    # the nuisance Gram of [1 | z - mu | products of orders 2..q-1 | y | d]
    (_, gram), = logs["nuisance"]
    _assert_gram(gram, np.column_stack([ones, ds.z - mu, w[:, :stop], ds.y, ds.d]))
    # the moment Gram of [1 | a | b]
    (_, gram), = logs["moments"]
    _assert_gram(gram, np.column_stack([ones, *component_rows(ds, plan, nuis)]))
    # F_q's X'X of [1 | W | d_bar], and its meat of the centered W from the
    # residual of that regression
    _, d_bar = _first_stage(ds)
    (_, gram), = logs["f_stat"]
    x = np.column_stack([ones, w])
    _assert_gram(gram, np.column_stack([x, d_bar]))
    s, _, coef = _unit_cholesky(gram[:m, :m], gram[:m, m], _MIN_RCOND, "design", "a column")
    coef = s * coef
    e = d_bar - coef[0] - w @ coef[1:]
    ((meat,), _), = logs["meat"]
    _assert_gram(meat, (w - gram[0, 1:m] / n) * e[:, None])
    # efficient GMM's Omega and relevance vector
    r_y, r_d = _first_stage(ds)
    resid0 = r_y - beta_init * r_d
    ((om,), _), = logs["omega"]
    _assert_gram(om, w * resid0[:, None])
    ((_, m_vec), _), = logs["relevance"]
    assert_close_to_sum(m_vec, -(w.T @ ds.d) / n, np.abs(w).T @ np.abs(ds.d) / n)
    # and the estimate from those moments by its row formula
    om = om / n
    theta = np.linalg.solve(om, m_vec)
    a_vec = w.T @ (resid0 + beta_init * ds.d) / n
    assert abs(eff.beta_hat - (theta @ a_vec) / (-theta @ m_vec)) <= 1e-10 * abs(eff.beta_hat)


def _results(ds, q):
    plan = build_plan(ds.p, q)
    fit = estimate_cue(ds, q=q)
    eff = efficient_fixed_r(ds, plan)
    return {
        "beta_hat": fit.beta_hat,
        "se": fit.se,
        "j_stat": fit.j_stat,
        "f_stat": f_stat(ds, plan).f_value,
        "eff_beta_hat": eff.beta_hat,
        "eff_se": eff.se,
    }


def _assert_moved_by_rounding(got, want):
    for field, value in want.items():
        assert abs(got[field] - value) <= 1e-12 * abs(value), field


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    q=st.sampled_from([2, 3]),
    scenario=st.sampled_from(["I", "III"]),
)
def test_permuting_rows_moves_results_by_rounding_only(seed, q, scenario):
    ds = make_sim_dataset(p=6, n=900, seed=seed % 1000, scenario=scenario)
    order = np.random.default_rng(seed).permutation(ds.n)
    permuted = Dataset(y=ds.y[order], d=ds.d[order], z=ds.z[order])
    assert _row_groups(permuted).size == _row_groups(ds).size
    _assert_moved_by_rounding(_results(permuted, q), _results(ds, q))


def test_negative_zero_instruments_move_results_by_rounding_only():
    ds = make_sim_dataset(p=6, n=900, seed=4)
    z = ds.z.copy()
    zeros = np.flatnonzero(z == 0.0)
    z.flat[zeros[::2]] = -0.0  # half the zeros flip sign
    assert np.signbit(z).any()
    signed = Dataset(y=ds.y, d=ds.d, z=z)
    assert _row_groups(signed).size == _row_groups(ds).size
    for q in (2, 3):
        _assert_moved_by_rounding(_results(signed, q), _results(ds, q))


def test_one_grouping_per_dataset(monkeypatch):
    calls = []
    group = _groups._group_rows

    def counting(z):
        calls.append(z.shape)
        return group(z)

    monkeypatch.setattr(nuisance, "_group_rows", counting)
    ds = make_sim_dataset(p=5, n=600, seed=9)
    plan = build_plan(ds.p, 3)
    f_stat(ds, plan)
    estimate_cue(ds, q=3)
    efficient_fixed_r(ds, plan)
    assert calls == [ds.z.shape]
    assert _row_groups(ds) is _row_groups(ds)
    assert set(ds._memo) == {"first_stage", "groups", "means"}
