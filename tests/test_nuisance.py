import builtins
import math

import numpy as np
import pytest

from magiciv import (
    ConfigError,
    DataError,
    Dataset,
    NumericalError,
    ScenarioConfig,
    build_components,
    build_plan,
    efficient_fixed_r,
    estimate_cue,
    estimate_means,
    f_stat,
    fit_nuisance,
    gen_dataset,
    run_monte_carlo,
    tsls,
)
from magiciv import _kernel, _lapack, interactions, nuisance
from magiciv._lapack import _blas_controls, _blas_threads
from magiciv.cli import main
from magiciv.data import write_csv
from magiciv.interactions import ROW_BLOCK
from magiciv.nuisance import NuisanceEstimate, _first_stage
from magiciv.oracle import _basis_matrix

from conftest import component_rows, make_binary_dataset, make_sim_dataset


def test_estimate_means_half_ones():
    z = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    ds = Dataset(y=np.arange(4.0), d=np.arange(4.0), z=z)
    assert estimate_means(ds).tolist() == [0.5, 0.5]


def test_project_exact_linear_fit():
    ds = make_binary_dataset(n=20, p=2, seed=3)
    y = 2.0 + 3.0 * ds.z[:, 0]
    ds = Dataset(y=y, d=ds.d, z=ds.z)
    nuis = fit_nuisance(ds, build_plan(2, 2))
    assert np.allclose(nuis.theta[1], [2.0, 3.0, 0.0], atol=1e-12)
    assert np.allclose(nuis.r_y[1], 0.0, atol=1e-12)


def test_project_constant_outcome():
    ds = make_binary_dataset(n=16, p=2, seed=4)
    ds = Dataset(y=np.full(16, 7.25), d=ds.d, z=ds.z)
    nuis = fit_nuisance(ds, build_plan(2, 2))
    assert np.allclose(nuis.theta[1], [7.25, 0.0, 0.0], atol=1e-12)


def test_project_matches_normal_equations_oracle():
    # product outcome is outside the span of (1, z1, z2): residual nonzero
    rng = np.random.default_rng(7)
    z = (rng.random((20, 2)) < 0.5).astype(float)
    z[0] = [0, 1]
    z[1] = [1, 0]
    y = z[:, 0] * z[:, 1]
    ds = Dataset(y=y, d=y.copy(), z=z)
    plan = build_plan(2, 2)
    design = _basis_matrix(ds.z, plan, 2)
    oracle_coef = np.linalg.solve(design.T @ design, design.T @ y)
    oracle_resid = y - design @ oracle_coef

    nuis = fit_nuisance(ds, plan)
    assert np.linalg.norm(nuis.r_y[1]) > 0.1
    assert np.allclose(nuis.theta[1], oracle_coef, atol=1e-10)
    assert np.allclose(nuis.r_y[1], oracle_resid, atol=1e-10)


def test_first_stage_is_order_two_nuisance_and_matches_oracle():
    ds = make_sim_dataset(p=5, n=300, seed=11)
    r_y, r_d = _first_stage(ds)
    nuis = fit_nuisance(ds, build_plan(ds.p, 3))
    assert np.array_equal(r_y, nuis.r_y[1])
    assert np.array_equal(r_d, nuis.r_d[1])

    design = np.column_stack([np.ones(ds.n), ds.z])
    for target, resid in ((ds.y, r_y), (ds.d, r_d)):
        oracle = target - design @ np.linalg.solve(design.T @ design, design.T @ target)
        assert np.allclose(resid, oracle, atol=1e-10)


_ENTRIES = {
    "estimate_cue": lambda ds, plan: estimate_cue(ds),
    "tsls": lambda ds, plan: tsls(ds),
    "f_stat": f_stat,
    "efficient_fixed_r": efficient_fixed_r,
}


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("column", ["y", "d", "z3"])
@pytest.mark.parametrize("entry", list(_ENTRIES))
def test_nonfinite_cell_is_data_error_at_every_entry(entry, column, value):
    ds = make_sim_dataset(p=6, n=800, seed=0)
    y, d, z = ds.y.copy(), ds.d.copy(), ds.z.copy()
    {"y": y, "d": d, "z3": z[:, 2]}[column][[37, 90]] = value
    with pytest.raises(DataError, match=rf"^non-finite value: column '{column}', row 38$"):
        _ENTRIES[entry](Dataset(y=y, d=d, z=z), build_plan(6, 2))


def test_constant_instrument_still_fits():
    # finiteness is the only cell check on the estimator path: a constant
    # instrument zeroes its interaction columns and the ridge ladder engages
    ds = make_sim_dataset(p=6, n=800, seed=0)
    z = ds.z.copy()
    z[:, 3] = 1.0
    fit = estimate_cue(Dataset(y=ds.y, d=ds.d, z=z))
    assert math.isfinite(fit.beta_hat) and math.isfinite(fit.se) and fit.ridge_used


def test_residuals_zero_coefficients_return_y():
    # outcome and exposure orthogonal to the order-1 basis: the projection
    # coefficients vanish and the residuals are the variables themselves
    ds = make_binary_dataset(n=18, p=2, seed=5)
    plan = build_plan(2, 2)
    design = _basis_matrix(ds.z, plan, 2)
    hat = design @ np.linalg.solve(design.T @ design, design.T)
    rng = np.random.default_rng(5)
    y, d = (v - hat @ v for v in rng.standard_normal((2, ds.n)))
    nuis = fit_nuisance(Dataset(y=y, d=d, z=ds.z), plan)
    assert np.allclose(nuis.theta[1], 0.0, atol=1e-12)
    assert np.allclose(nuis.xi[1], 0.0, atol=1e-12)
    assert np.allclose(nuis.r_y[1], y, atol=1e-12)
    assert np.allclose(nuis.r_d[1], d, atol=1e-12)


def test_residuals_missing_order_errors():
    ds = make_binary_dataset(n=18, p=3, seed=6)
    plan = build_plan(3, 3)
    nuis = NuisanceEstimate(mu_hat=estimate_means(ds), theta={}, xi={}, r_y={}, r_d={})
    with pytest.raises(NumericalError, match="no residuals"):
        build_components(ds, nuis, plan)


def test_in_sample_orthogonality_bound():
    ds = make_binary_dataset(n=200, p=4, seed=8)
    plan = build_plan(4, 3)
    nuis = fit_nuisance(ds, plan)
    for k in (2, 3):
        design = _basis_matrix(ds.z, plan, k)
        bound = 1e-8 * ds.n * np.max(np.abs(ds.y)) * np.max(np.abs(design))
        assert np.max(np.abs(design.T @ nuis.r_y[k - 1])) <= bound
        bound_d = 1e-8 * ds.n * np.max(np.abs(ds.d)) * np.max(np.abs(design))
        assert np.max(np.abs(design.T @ nuis.r_d[k - 1])) <= bound_d


def test_outcome_shift_moves_only_intercept():
    ds = make_binary_dataset(n=60, p=3, seed=9)
    plan = build_plan(3, 2)
    base = fit_nuisance(ds, plan)
    shifted = fit_nuisance(Dataset(y=ds.y + 5.0, d=ds.d, z=ds.z), plan)
    assert abs(shifted.theta[1][0] - base.theta[1][0] - 5.0) < 1e-10
    assert np.allclose(shifted.theta[1][1:], base.theta[1][1:], atol=1e-10)

    scale = max(1.0, float(np.max(np.abs(base.r_y[1]))))
    assert np.max(np.abs(shifted.r_y[1] - base.r_y[1])) <= 1e-12 * scale * 10


def test_design_wider_than_n_reports_requirement():
    ds = make_binary_dataset(n=6, p=4, seed=10)
    plan = build_plan(4, 3)  # order-3 basis has 1 + 4 + 6 = 11 columns
    with pytest.raises(NumericalError, match="need n >= 11"):
        fit_nuisance(ds, plan)


def _count_builds(monkeypatch):
    """Record (top order, rows) of every block of interaction products built."""
    calls = []
    fill = interactions._fill_products

    def counting(xt, plan, top, dst):
        calls.append((top, xt.shape[1]))
        fill(xt, plan, top, dst)

    monkeypatch.setattr(interactions, "_fill_products", counting)
    return calls


def _count_projections(monkeypatch):
    """Record the column count of every least-squares projection's design."""
    widths = []
    project = nuisance._project

    def counting(ds, design):
        widths.append(design.shape[1])
        return project(ds, design)

    monkeypatch.setattr(nuisance, "_project", counting)
    return widths


def _distinct_rows(z):
    return len(np.unique(z, axis=0))


def test_estimate_streams_interactions_in_chunks(tmp_path, monkeypatch):
    calls = _count_builds(monkeypatch)
    widths = _count_projections(monkeypatch)
    binary = make_sim_dataset(p=5, n=ROW_BLOCK + 52, seed=21)
    noise = 1e-3 * np.random.default_rng(21).standard_normal(binary.z.shape)
    # the passes stream the distinct rows in chunks of ROW_BLOCK: the 32
    # binary rows in one chunk, or, where every row is distinct, all n rows
    # in two
    for ds, chunks in (
        (binary, [_distinct_rows(binary.z)]),
        (Dataset(y=binary.y, d=binary.d, z=binary.z + noise), [52, ROW_BLOCK]),
    ):
        path = tmp_path / "sim.csv"
        write_csv(ds, path)
        del calls[:], widths[:]
        code = main([
            "estimate", "--input", str(path), "--instruments", ",".join(ds.names()),
            "--q", "3", "--output", str(tmp_path / "est.json"),
        ])
        assert code == 0
        # the order-3 nuisance projection streams the order-2 products
        # twice, for its Gram and for its residuals, and four passes stream
        # W: the moment Grams, F_q's X'X, F_q's residual and meat, and
        # efficient GMM's moment vectors with its Omega. The one design
        # projected is (1, z), once for the nuisance step, F_q, TSLS and
        # efficient GMM. No build is of raw products.
        want = [(2, c) for c in chunks] * 2 + [(3, c) for c in chunks] * 4
        assert sorted(calls) == sorted(want)
        assert widths == [6]


def test_replication_streams_interactions_in_chunks(monkeypatch):
    calls = _count_builds(monkeypatch)
    widths = _count_projections(monkeypatch)
    cfg = ScenarioConfig(p=4, n=300, seed=3)
    summary = run_monte_carlo(
        cfg, reps=2, methods=("magic", "tsls", "efficient_fixed_r"), workers=1
    )
    assert summary.n_excluded == 0
    # per replication: F_q twice, the moment Grams and efficient GMM once,
    # each over the replication's distinct rows (at most 16 of the 300);
    # the q = 2 nuisance reads the (1, z) fit and builds no products
    distinct = [_distinct_rows(gen_dataset(cfg, rep)[0].z) for rep in range(2)]
    assert calls == [(2, distinct[0])] * 4 + [(2, distinct[1])] * 4
    assert widths == [5] * 2  # one (1, z) projection per replication


def _explicit_basis(ds, plan, k):
    """The order-k basis (1, z - mu_hat, demeaned products of orders 2..k-1), built in full."""
    mu = estimate_means(ds)
    products = interactions.demeaned_matrix(ds.z, mu, plan)[:, : plan.order_slices()[k - 1].stop]
    return np.column_stack([np.ones(ds.n), ds.z - mu, products])


@pytest.mark.parametrize("scenario", ["I", "III", "IV"])
@pytest.mark.parametrize("q", [3, 4, 5])
def test_normal_equations_match_gelsy_on_simulated_designs(monkeypatch, scenario, q):
    ds = make_sim_dataset(p=6, n=1500, seed=q, scenario=scenario)
    plan = build_plan(ds.p, q)
    widths = _count_projections(monkeypatch)
    nuis = fit_nuisance(ds, plan)
    fit = estimate_cue(ds, q=q)
    assert widths == [ds.p + 1]  # only the (1, z) fit is by gelsy
    for k in range(3, q + 1):
        _, _, r_y, r_d, _ = nuisance._project(ds, _explicit_basis(ds, plan, k))
        for got, want in ((nuis.r_y[k - 1], r_y), (nuis.r_d[k - 1], r_d)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # with no Gram accepted, every order takes the gelsy fit on its design
    monkeypatch.setattr(nuisance, "_NUISANCE_MIN_RCOND", np.inf)
    del widths[:]
    gelsy = estimate_cue(Dataset(y=ds.y, d=ds.d, z=ds.z), q=q)
    assert widths == [ds.p + 1] + [_explicit_basis(ds, plan, k).shape[1] for k in range(3, q + 1)]
    for field in ("beta_hat", "se", "j_stat"):
        got, want = getattr(fit, field), getattr(gelsy, field)
        assert abs(got - want) <= 1e-12 * abs(want)


def _assert_gelsy_fallback(monkeypatch, ds, plan):
    widths = _count_projections(monkeypatch)
    nuis = fit_nuisance(ds, plan)
    design = _explicit_basis(ds, plan, 3)
    assert widths == [ds.p + 1, design.shape[1]]
    want = nuisance._project(ds, design)
    got = (nuis.theta[2], nuis.xi[2], nuis.r_y[2], nuis.r_d[2])
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("noise", [0.0, 1e-4])
def test_duplicated_instrument_falls_back_to_gelsy(monkeypatch, noise):
    # an exact copy fails the factorization; a copy plus 1e-4 noise factors,
    # but its reciprocal condition estimate (about 4e-9) is below the cutoff
    ds = make_sim_dataset(p=5, n=400, seed=3)
    copy = ds.z[:, 1] + noise * np.random.default_rng(0).standard_normal(ds.n)
    z = np.column_stack([ds.z, copy])
    _assert_gelsy_fallback(monkeypatch, Dataset(y=ds.y, d=ds.d, z=z), build_plan(6, 3))


def test_n_just_above_basis_width_falls_back_to_gelsy(monkeypatch):
    # the order-3 basis at p = 5 has 16 columns; 18 binary rows make it singular
    ds = make_binary_dataset(n=18, p=5, seed=0)
    _assert_gelsy_fallback(monkeypatch, ds, build_plan(5, 3))


def test_gram_builds_products_up_to_the_order_its_slices_read(monkeypatch):
    binary = make_sim_dataset(p=5, n=ROW_BLOCK + 7, seed=5)
    noise = 1e-3 * np.random.default_rng(5).standard_normal(binary.z.shape)
    plan = build_plan(binary.p, 4)
    s2, s3, s4 = (plan.order_slices()[k] for k in (2, 3, 4))
    calls = _count_builds(monkeypatch)
    # the distinct rows of the binary instruments in one chunk; rows that
    # never repeat in two
    for ds, chunks in (
        (binary, [_distinct_rows(binary.z)]),
        (Dataset(y=binary.y, d=binary.d, z=binary.z + noise), [7, ROW_BLOCK]),
    ):
        groups = nuisance._row_groups(ds)
        w = interactions.demeaned_matrix(ds.z, estimate_means(ds), plan)
        for slices, top in (
            ([(slice(0, s2.stop), ds.y)], 2),
            ([(slice(0, 1), None), (slice(1, s2.stop - 1), ds.y)], 2),
            ([(slice(0, s2.stop - 1), None), (slice(s2.stop - 1, s3.start + 1), ds.y)], 3),
            ([(slice(0, s3.stop), ds.d), (slice(s3.stop, s4.stop), ds.y)], 4),
            ([(slice(0, s2.stop), ds.d), (slice(0, s3.start + 1), ds.y)], 3),
            ([(slice(0, s4.stop), ds.d), (slice(0, 2), ds.y), (slice(2, 3), None)], 4),
        ):
            del calls[:]
            gram = _kernel._gram(groups, [(None, None)] + slices, ds.z, estimate_means(ds), plan)
            assert sorted(calls) == [(top, c) for c in chunks]
            x = np.column_stack(
                [np.ones(ds.n)]
                + [w[:, cols] * (1.0 if v is None else v[:, None]) for cols, v in slices]
            )
            assert np.allclose(gram, x.T @ x, rtol=1e-12, atol=0.0)
            assert np.array_equal(gram, gram.T)
        # the blocks of one weight must be adjacent, on adjacent rows of F:
        # W's columns in any order, and one weight on columns apart, are refused
        for slices in (
            [(slice(1, 3), None)],
            [(slice(0, 2), ds.d), (slice(s3.start, s3.start + 2), ds.y), (slice(2, 3), ds.d)],
            [(slice(0, 2), ds.d), (slice(3, 5), ds.y), (slice(5, 6), ds.d)],
        ):
            with pytest.raises(ValueError, match="blocks of one weight must be adjacent"):
                _kernel._gram(groups, [(None, None)] + slices, ds.z, estimate_means(ds), plan)
        # the stack of row functions reads W's leading columns only
        with pytest.raises(ValueError, match="must start at column 0"):
            next(_kernel._stacked_chunks(groups, [slice(1, 3)], ds.z, estimate_means(ds), plan))


def test_first_stage_is_memoized_read_only():
    ds = make_sim_dataset(p=4, n=300, seed=24)
    r_y, r_d = _first_stage(ds)
    nuis = fit_nuisance(ds, build_plan(ds.p, 2))
    assert nuis.r_y[1] is r_y and nuis.r_d[1] is r_d
    for arr in (r_y, r_d, nuis.theta[1], nuis.xi[1]):
        assert not arr.flags.writeable
    assert _first_stage(ds)[0] is r_y


@pytest.mark.parametrize(
    "entry",
    [
        fit_nuisance,
        f_stat,
        efficient_fixed_r,
        # means of the plan's width, so only the dataset's width is wrong
        lambda ds, plan: build_components(
            ds, NuisanceEstimate(np.zeros(plan.p), {}, {}, {}, {}), plan
        ),
    ],
    ids=["fit_nuisance", "f_stat", "efficient_fixed_r", "build_components"],
)
def test_nuisance_refuses_a_plan_of_another_width(entry):
    # a narrower plan would read only the leading columns, and a wider one
    # columns that are not there
    ds = make_sim_dataset(p=5, n=300, seed=24)
    for p in (4, 6):
        with pytest.raises(ConfigError, match=f"row width 5 does not match plan built for p={p}"):
            entry(ds, build_plan(p, 2))


def _results(ds, plan, nuis):
    mc = build_components(ds, nuis, plan)
    fit = estimate_cue(ds, q=plan.q)
    eff = efficient_fixed_r(ds, plan)
    return (*component_rows(ds, plan, nuis), mc.s0, f_stat(ds, plan).f_value, eff.beta_hat, eff.se,
            fit.beta_hat, fit.se, fit.j_stat)


def test_reused_dataset_matches_fresh_ones():
    ds = make_sim_dataset(p=4, n=400, seed=23)
    for q in (2, 3):
        plan = build_plan(ds.p, q)
        nuis = fit_nuisance(ds, plan)
        other = NuisanceEstimate(
            mu_hat=nuis.mu_hat + 0.25, theta=nuis.theta, xi=nuis.xi, r_y=nuis.r_y, r_d=nuis.r_d
        )
        for means in (nuis, other, nuis):
            got = _results(ds, plan, means)
            want = _results(Dataset(y=ds.y, d=ds.d, z=ds.z), plan, means)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert not np.array_equal(
            component_rows(ds, plan, other)[0], component_rows(ds, plan, nuis)[0]
        )


@pytest.mark.skipif(not _blas_controls(), reason="no BLAS with a settable thread count is loaded")
def test_nested_pin_sets_no_count(monkeypatch):
    ds = make_sim_dataset(p=4, n=300, seed=25)
    sets = []

    def counting(set_):
        def counted(count):
            sets.append(count)
            set_(count)
        return counted

    monkeypatch.setattr(
        _lapack, "_BLAS_CONTROLS", [(get, counting(set_)) for get, set_ in _blas_controls()]
    )
    with _blas_threads(2):
        del sets[:]
        with _blas_threads(1):  # from two threads: each library is set, then restored
            assert sets == [1] * len(_blas_controls())
            del sets[:]
            with _blas_threads(1):
                tsls(ds)  # a pinned entry point nests a third pin
            assert sets == []
        assert sets == [2] * len(_blas_controls())


def test_pinning_reads_no_proc_maps(monkeypatch):
    # the thread-count functions come from the handles _lapack binds the
    # routines on, so finding them reads nothing, on a machine without /proc too
    ds = make_sim_dataset(p=4, n=300, seed=26)
    monkeypatch.setattr(_lapack, "ThreadpoolController", None)
    monkeypatch.setattr(_lapack, "_BLAS_CONTROLS", None)
    maps_reads = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if str(file) == "/proc/self/maps":
            maps_reads.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    estimate_cue(ds)
    assert maps_reads == []
    assert _lapack._BLAS_CONTROLS is _lapack.THREADS


def test_pin_holds_numpys_blas_and_leaves_scipys_alone(monkeypatch):
    # scipy's BLAS, loaded but never called while numpy's library holds the
    # routines, keeps the thread count set through its own handle; two
    # handles on one library give one pair
    from scipy.linalg import _fblas

    if _lapack.resolve(_lapack._NUMPY_LAPACK) is None:
        pytest.skip("numpy's library exports no ILP64 LAPACK; scipy's wrappers stand in")
    again = _lapack._library(np.linalg._umath_linalg)  # a second handle, one library
    assert len(_lapack._thread_controls([_lapack._NUMPY_LAPACK, again])) == 1
    both = _lapack._thread_controls([_lapack._NUMPY_LAPACK, _lapack._library(_fblas)])
    if len(both) != 2:
        pytest.skip("scipy's BLAS is numpy's library, or either has no thread-count functions")
    (numpy_get, _), (scipy_get, scipy_set) = both
    monkeypatch.setattr(_lapack, "ThreadpoolController", None)
    monkeypatch.setattr(_lapack, "_BLAS_CONTROLS", None)
    old = scipy_get()
    scipy_set(2)
    try:
        with _blas_threads(1):
            assert numpy_get() == 1
            assert scipy_get() == 2
            assert len(_blas_controls()) == 1
    finally:
        scipy_set(old)


def test_threadpoolctl_libraries_are_pinned_and_restored(monkeypatch):
    # threadpoolctl's controllers expose get_num_threads / set_num_threads
    class Library:
        def __init__(self, threads):
            self.threads = threads

        def get_num_threads(self):
            return self.threads

        def set_num_threads(self, count):
            self.threads = count

    libs = [Library(4), Library(1)]

    class Controller:
        lib_controllers = libs

    monkeypatch.setattr(_lapack, "ThreadpoolController", Controller)
    monkeypatch.setattr(_lapack, "_BLAS_CONTROLS", None)
    with pytest.raises(RuntimeError):
        with _blas_threads(1):
            assert [lib.threads for lib in libs] == [1, 1]
            raise RuntimeError
    assert [lib.threads for lib in libs] == [4, 1]


def test_unrecognised_blas_stays_unpinned(monkeypatch):
    # neither threadpoolctl nor _lapack finds a library to control
    ds = make_sim_dataset(p=4, n=400, seed=41)
    pinned = estimate_cue(ds)
    real = _blas_controls()
    with _blas_threads(2):
        monkeypatch.setattr(_lapack, "ThreadpoolController", None)
        monkeypatch.setattr(_lapack, "_BLAS_CONTROLS", None)
        monkeypatch.setattr(_lapack, "THREADS", [])
        with _blas_threads(1):
            assert _lapack._BLAS_CONTROLS == []
            assert [get() for get, _ in real] == [2] * len(real)
        assert [get() for get, _ in real] == [2] * len(real)
        assert estimate_cue(ds) == pinned
