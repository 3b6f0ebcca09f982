import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special
from numpy.linalg import LinAlgError
from scipy.linalg import cho_solve

from magiciv import (
    ConfigError,
    Dataset,
    IdentificationError,
    NumericalError,
    ScenarioConfig,
    build_plan,
    chisq_cdf,
    chisq_quantile,
    efficient_fixed_r,
    estimate_cue,
    f_stat,
    gen_dataset,
    minimize,
    objective_derivatives,
    omega,
    overid_test,
    variance,
)
from magiciv import _lapack, cue
from magiciv._kernel import _cho_factor_solve
from magiciv.cue import _eval_objective, _gammainc, _ridge_ladder
from magiciv.moments import MomentComponents, components_from_arrays

from conftest import make_sim_dataset, pipeline_components, pipeline_rows


# ---------------------------------------------------------------------------
# chi-square special functions
# ---------------------------------------------------------------------------


def test_chisq_cdf_at_zero():
    for df in (1, 5, 40):
        assert chisq_cdf(0.0, df) == 0.0


def test_chisq_quantile_published_values():
    assert abs(chisq_quantile(0.05, 1) - 3.841459) <= 1e-6
    assert abs(chisq_quantile(0.05, 9) - 16.9190) <= 1e-4


def test_chisq_quantile_matches_independent_inversion():
    for alpha in (0.01, 0.05, 0.5, 0.95):
        for df in (1, 2, 9, 44, 189):
            ref = 2.0 * special.gammaincinv(0.5 * df, 1.0 - alpha)
            assert abs(chisq_quantile(alpha, df) - ref) <= 1e-6 * max(1.0, ref)


def test_chisq_roundtrip_quantile_cdf():
    for alpha in (0.01, 0.05, 0.5, 0.95, 0.99):
        for df in range(1, 51):
            x = chisq_quantile(alpha, df)
            assert abs(chisq_cdf(x, df) - (1.0 - alpha)) <= 1e-9


def test_chisq_argument_guards():
    with pytest.raises(ConfigError):
        chisq_cdf(-1.0, 3)
    with pytest.raises(ConfigError):
        chisq_cdf(1.0, 0)
    with pytest.raises(ConfigError):
        chisq_quantile(0.0, 3)
    with pytest.raises(ConfigError):
        chisq_quantile(1.5, 3)


@pytest.mark.parametrize(
    "call, want",
    [
        # finite x: the parent's bits
        (lambda: chisq_cdf(0.5, 1), 0.5204998778130464),
        (lambda: chisq_cdf(3.0, 3), 0.6083748237289112),
        (lambda: chisq_cdf(40.0, 10), 0.9999830552560699),
        (lambda: chisq_cdf(1e-300, 2), 4.999999999999825e-301),
        (lambda: _gammainc(22.0, 132.0), (1.0, 3.727036943793282e-33)),
        (lambda: _gammainc(0.5, 1e-8), (0.00011283791633342464, 0.9998871620836666)),
        (lambda: _gammainc(4.5, 5.0), (0.6495147876766377, 0.35048521232336227)),
        # +inf: the whole mass lies below it
        (lambda: chisq_cdf(math.inf, 3), 1.0),
        (lambda: _gammainc(1.5, math.inf), (1.0, 0.0)),
    ],
)
def test_chisq_values_at_finite_and_infinite_x(call, want):
    assert call() == want


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: chisq_cdf(math.nan, 3), r"chi-square CDF needs x >= 0 \(got nan\)"),
        (lambda: _gammainc(1.5, math.nan), "incomplete gamma needs x >= 0"),
        (lambda: _gammainc(1.5, -math.inf), "incomplete gamma needs x >= 0"),
    ],
)
def test_chisq_refuses_a_nan_argument(call, match):
    # not left to the continued fraction, which never converges on it
    with pytest.raises(ConfigError, match=match):
        call()


@pytest.mark.parametrize(
    "beta_hat, q_min, match",
    [
        (0.0, math.nan, r"^q_min must be >= 0 and finite \(got nan\)"),
        (0.0, math.inf, r"^q_min must be >= 0 and finite \(got inf\)"),
        (0.0, -1e-300, r"^q_min must be >= 0 and finite \(got -1e-300\)"),
        (math.nan, 0.01, r"^beta_hat must be finite \(got nan\)"),
        (-math.inf, 0.01, r"^beta_hat must be finite \(got -inf\)"),
    ],
    ids=["q_min nan", "q_min inf", "q_min negative", "beta_hat nan", "beta_hat -inf"],
)
def test_overid_test_refuses_inputs_it_cannot_test(beta_hat, q_min, match):
    mc = components_from_arrays(np.eye(4), np.eye(4))
    with pytest.raises(ConfigError, match=match):
        overid_test(mc, beta_hat, q_min)
    # at valid inputs the same components give J = 2 n q_min on r - 1 df
    assert overid_test(mc, 0.0, 0.01)[:2] == (0.08, 3)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "name, call",
    [
        ("beta_init", lambda ds, plan, mc, b: efficient_fixed_r(ds, plan, b)),
        ("beta", lambda ds, plan, mc, b: objective_derivatives(mc, b)),
        ("beta_hat", lambda ds, plan, mc, b: variance(mc, b)),
    ],
)
def test_a_beta_that_is_not_finite_is_refused(name, call, value):
    ds = make_sim_dataset(p=6, n=2000, seed=3)
    plan = build_plan(ds.p, 2)
    mc = pipeline_components(ds)
    with pytest.raises(ConfigError, match=f"^{name} must be finite"):
        call(ds, plan, mc, value)


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------


def test_objective_zero_when_moments_balance():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((60, 4))
    mc = components_from_arrays(a, a.copy())
    assert _eval_objective(mc, 1.0)[0] == 0.0  # g(1) is exactly the zero vector


def test_objective_zero_at_ratio_when_exactly_identified():
    ds = make_sim_dataset(p=2, n=300, c=9.0, seed=22)
    mc = pipeline_components(ds)
    assert mc.r == 1
    ratio = float(mc.abar[0] / mc.bbar[0])
    assert _eval_objective(mc, ratio)[0] <= 1e-18


def test_objective_matches_dense_direct_assembly():
    ds = make_sim_dataset(p=3, n=200, seed=23)
    mc, a, b = pipeline_rows(ds)
    assert mc.r == 3
    beta = 0.7
    rows = a - beta * b
    g = rows.mean(axis=0)
    om = rows.T @ rows / mc.n
    direct = 0.5 * float(g @ np.linalg.solve(om, g))
    got = _eval_objective(mc, beta)[0]
    assert abs(got - direct) <= 1e-10 * max(1.0, abs(direct))


def test_objective_reports_failure_with_condition_estimate():
    a = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])  # duplicated columns
    mc = components_from_arrays(a, 0.5 * a)
    # the ladder evaluates a singular weighting matrix
    value, _, _, ridge = _eval_objective(mc, 0.0)
    assert math.isfinite(value) and ridge > 0.0
    # and names the condition estimate when even its top rung fails
    with pytest.raises(NumericalError, match="condition estimate"):
        _ridge_ladder(np.diag([1.0, -1.0]), 0.0, lambda a: _cho_factor_solve(a, np.ones(2)))


def test_ridge_ladder_leaves_positive_definite_matrix_alone():
    rng = np.random.default_rng(25)
    x = rng.standard_normal((40, 5))
    om = x.T @ x / 40
    rhs = rng.standard_normal(5)
    (factor, sol), ridge = _ridge_ladder(om, 0.0, lambda a: _cho_factor_solve(a, rhs))
    assert ridge == 0.0
    assert np.allclose(sol, np.linalg.solve(om, rhs), atol=1e-12)
    assert np.allclose(cho_solve((factor, True), rhs), sol, atol=1e-12)


def test_ridge_ladder_factors_singular_psd_matrix():
    rng = np.random.default_rng(26)
    x = rng.standard_normal((40, 4))
    x = np.column_stack([x, x[:, 0]])  # duplicated column: exactly singular
    om = x.T @ x / 40
    rhs = rng.standard_normal(5)
    (_, sol), ridge = _ridge_ladder(om, 0.0, lambda a: _cho_factor_solve(a, rhs))
    assert ridge > 0.0
    assert np.all(np.isfinite(sol))
    assert np.allclose((om + ridge * np.eye(5)) @ sol, rhs, rtol=1e-6, atol=1e-6)


def _reference_ridge_factor(om, base_ridge=0.0):
    # the ladder written on np.linalg.cholesky, trace taken before the first
    # rung: numpy's potrf is the library the package calls, while scipy's
    # cho_factor runs a second OpenBLAS whose potrf can round differently
    scale = max(float(np.trace(om)) / max(om.shape[0], 1), np.finfo(float).tiny)
    for mult in (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4):
        ridge = base_ridge + mult * scale
        a = om + ridge * np.eye(om.shape[0]) if ridge > 0.0 else om
        try:
            return np.linalg.cholesky(a), ridge
        except LinAlgError:
            continue
    raise NumericalError("ladder exhausted")


def _reference_cho_solve(c, b):
    return cho_solve((c, True), b, check_finite=False)


def _reference_factor_solve(a, b):
    c = np.linalg.cholesky(a)
    return c, _reference_cho_solve(c, b)


def _duplicated_column_components():
    rng = np.random.default_rng(27)
    a = rng.standard_normal((60, 3))
    b = rng.standard_normal((60, 3)) + 0.5 * a
    # a repeated column makes omega(beta) singular at every beta
    return components_from_arrays(np.column_stack([a, a[:, 0]]), np.column_stack([b, b[:, 0]]))


@pytest.mark.parametrize("singular", [False, True])
def test_lapack_calls_match_cho_factor_bit_for_bit(monkeypatch, singular):
    if singular:
        mc = _duplicated_column_components()
    else:
        mc = pipeline_components(make_sim_dataset(p=5, n=600, seed=27))
    grid = np.linspace(-3.0, 3.0, 41)

    def run():
        evals = [_eval_objective(mc, float(beta)) for beta in grid]
        fit = minimize(mc)
        return evals, fit, variance(mc, fit.beta_hat)

    evals, fit, var = run()
    assert any(ridge > 0.0 for *_, ridge in evals) == singular
    for beta, (value, u, c, ridge) in zip(grid, evals):
        # the grid values, straight from omega(mc, beta); the package's
        # factor keeps the matrix in its upper triangle, numpy's zeroes it
        want_c, want_ridge = _reference_ridge_factor(omega(mc, float(beta)))
        g = mc.abar - beta * mc.bbar
        want_u = _reference_cho_solve(want_c, g)
        assert ridge == want_ridge
        assert np.array_equal(np.tril(c), want_c)
        assert np.array_equal(u, want_u)
        assert value == 0.5 * float(g @ want_u)
    monkeypatch.setattr(_lapack, "ROUTINES", _lapack.ROUTINES._replace(potrs=_reference_cho_solve))
    monkeypatch.setattr(cue, "_cho_factor_solve", _reference_factor_solve)
    want_evals, want_fit, want_var = run()
    for (value, u, c, ridge), (w_value, w_u, w_c, w_ridge) in zip(evals, want_evals):
        assert (value, ridge) == (w_value, w_ridge)
        assert np.array_equal(u, w_u) and np.array_equal(np.tril(c), w_c)
    assert fit == want_fit
    assert var == want_var


# ---------------------------------------------------------------------------
# minimize
# ---------------------------------------------------------------------------


def test_minimize_recovers_closed_form_ratio():
    ds = make_sim_dataset(p=2, n=300, c=9.0, seed=24)
    mc, a, b = pipeline_rows(ds)
    ratio = float(np.sum(a) / np.sum(b))
    fit = minimize(mc)
    assert abs(fit.beta_hat - ratio) <= 1e-6
    assert not fit.boundary_flag


def test_minimize_balanced_components_give_beta_one():
    rng = np.random.default_rng(25)
    a = rng.standard_normal((80, 3))
    mc = components_from_arrays(a, a.copy())
    fit = minimize(mc)
    assert abs(fit.beta_hat - 1.0) <= 1e-6
    assert fit.q_min <= 1e-15


def test_minimize_result_is_grid_optimal():
    ds = make_sim_dataset(p=4, n=300, seed=26)
    mc = pipeline_components(ds)
    fit = minimize(mc)
    assert fit.q_min >= 0.0
    for beta in np.linspace(-10, 10, 41):
        value = _eval_objective(mc, float(beta))[0]
        assert value >= 0.0
        assert fit.q_min <= value + 1e-12


def test_search_stops_at_a_gradient_root():
    # a golden section followed by a Newton polish that cycled at rounding
    # level stopped here 7.7e-7 from the root of Q'
    ds, _ = gen_dataset(ScenarioConfig(p=10, q=2, n=5000, c=0.5, seed=3), 13)
    mc = pipeline_components(ds)
    fit = minimize(mc, ridge=1e-3)
    _, dq, d2q, _ = objective_derivatives(mc, fit.beta_hat, 1e-3)
    assert not fit.boundary_flag and d2q > 0.0
    assert abs(dq / d2q) <= 1e-12 * max(1.0, abs(fit.beta_hat))


def test_search_reuses_the_grid_minimums_factor(monkeypatch):
    mc = pipeline_components(make_sim_dataset(p=6, n=800, seed=30))
    betas = []
    evaluate = cue._eval_objective

    def counting(mc, beta, base_ridge=0.0):
        betas.append(beta)
        return evaluate(mc, beta, base_ridge)

    monkeypatch.setattr(cue, "_eval_objective", counting)
    fit = minimize(mc)
    assert len(betas) == len(set(betas))  # no beta is factored twice
    # without the handover the search evaluates the grid minimum again
    scan = cue._scan_grid
    monkeypatch.setattr(cue, "_scan_grid", lambda *args: scan(*args)[:3] + (None,))
    del betas[:]
    assert minimize(mc) == fit
    assert len(betas) == len(set(betas)) + 1


@pytest.mark.parametrize(
    "settings, match",
    [
        ({"tol": math.nan}, "tol must be positive and finite"),
        ({"ridge": math.inf}, "ridge must be >= 0 and finite"),
        ({"bounds": (-10.0, 10.0, 3.0)}, "bounds needs exactly two numbers"),
        ({"grid_points": 2}, "grid_points must be >= 3"),
    ],
    ids=["nan_tol", "infinite_ridge", "three_bounds", "two_grid_points"],
)
def test_estimate_cue_checks_search_settings_before_fitting(monkeypatch, settings, match):
    def fit_nuisance(*args):
        raise AssertionError("fitted before the search settings were checked")

    monkeypatch.setattr(cue, "fit_nuisance", fit_nuisance)
    with pytest.raises(ConfigError, match=match):
        estimate_cue(make_sim_dataset(p=4, n=300, seed=2), q=3, **settings)


def test_minimize_argument_guards():
    ds = make_sim_dataset(p=2, n=120, seed=27)
    mc = pipeline_components(ds)
    for settings, match in [
        ({"bounds": (3.0, -3.0)}, "invalid bounds"),
        ({"bounds": (-math.inf, 10.0)}, "invalid bounds"),
        ({"bounds": (-10.0, math.nan)}, "invalid bounds"),
        ({"bounds": (-10.0, 10.0, 3.0)}, "bounds needs exactly two numbers"),
        ({"grid_points": 2}, "grid_points"),
        ({"tol": 0.0}, "tol must be positive"),
        ({"tol": math.inf}, "tol must be positive and finite"),
        ({"tol": math.nan}, "tol must be positive and finite"),
        ({"ridge": -1.0}, "ridge must be >= 0"),
        ({"ridge": math.inf}, "ridge must be >= 0 and finite"),
        ({"ridge": math.nan}, "ridge must be >= 0 and finite"),
    ]:
        with pytest.raises(ConfigError, match=match):
            minimize(mc, **settings)
    # the variance and the derivatives take the same ridge rule
    for ridge in (-1.0, math.inf, math.nan):
        with pytest.raises(ConfigError, match="ridge must be >= 0"):
            variance(mc, 0.0, ridge=ridge)
        with pytest.raises(ConfigError, match="ridge must be >= 0"):
            objective_derivatives(mc, 0.0, base_ridge=ridge)


def test_minimize_nonfinite_everywhere_errors():
    a = np.full((10, 2), np.nan)
    mc = components_from_arrays(a, a.copy())
    with pytest.raises(NumericalError, match="non-finite at every grid point"):
        minimize(mc)


# ---------------------------------------------------------------------------
# grid certificate: a full _eval_objective sweep of the grid is the oracle
# ---------------------------------------------------------------------------

_GRID = np.linspace(*cue.DEFAULT_BOUNDS, cue.DEFAULT_GRID_POINTS)


def _full_sweep(mc, ridge=0.0):
    values = np.full(_GRID.size, np.inf)
    for i, beta in enumerate(_GRID):
        try:
            value = _eval_objective(mc, float(beta), ridge)[0]
        except NumericalError:
            continue
        if np.isfinite(value):
            values[i] = value
    return values


def _assert_certified(mc, ridge=0.0):
    """The certified scan picks the sweep's argmin; every point it skips lies above."""
    want = _full_sweep(mc, ridge)
    values, evaluated, _, best = cue._scan_grid(mc, _GRID, ridge)
    i_min = int(np.argmin(want))
    assert int(np.argmin(values)) == i_min
    # the evaluation handed to the search is the grid minimum's, to the bit
    again = _eval_objective(mc, float(_GRID[i_min]), ridge)
    assert best[0] == again[0] and best[3] == again[3]
    assert np.array_equal(best[1], again[1]) and np.array_equal(best[2], again[2])
    assert np.array_equal(values[evaluated], want[evaluated])
    assert np.all(want[~evaluated] > want[i_min])
    return want, evaluated


def _two_basin_components(rng, m, n, t0, noise, shift):
    """Moment rows whose objective is mirror-symmetric about beta = shift.

    In the base rows, the first m columns satisfy a = t0 b + noise and the
    last m are pure noise with b = 0. The mirrored rows reverse the columns
    and negate b, so there the last m identify -t0. Q has a basin near each
    of shift +- t0, and the two minima agree up to rounding.
    """
    b = 1.0 + 0.3 * rng.standard_normal((n, 2 * m))
    b[:, m:] = 0.0
    a = noise * rng.standard_normal((n, 2 * m))
    a[:, :m] += t0 * b[:, :m]
    rows_a = np.vstack([a, a[:, ::-1]])
    rows_b = np.vstack([b, -b[:, ::-1]])
    return components_from_arrays(rows_a + shift * rows_b, rows_b)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    m=st.integers(1, 4),
    n=st.integers(20, 200),
    t0=st.floats(0.2, 9.5),
    noise=st.one_of(st.floats(0.01, 2.0), st.floats(1e2, 1e4)),
    shift=st.one_of(st.just(0.0), st.floats(-4.0, 4.0)),
    ridge_scale=st.sampled_from([0.0, 1e-8, 1e-2, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_certified_grid_picks_the_full_sweeps_minimum(
    m, n, t0, noise, shift, ridge_scale, seed
):
    # shift = 0 centres the mirror on the grid's own mirror, so the two
    # basins' grid minima tie up to rounding and rounding picks the winner;
    # a large noise flattens Q until the minorants are tight to rounding
    mc = _two_basin_components(np.random.default_rng(seed), m, n, t0, noise, shift)
    _assert_certified(mc, ridge_scale * float(np.trace(mc.s0)) / mc.r)


@pytest.mark.parametrize("seed", range(4))
def test_certified_grid_resolves_a_rounding_level_tie(seed):
    mc = _two_basin_components(np.random.default_rng(seed), 2, 120, 4.0, 0.1, 0.0)
    want, evaluated = _assert_certified(mc)
    # two interior local minima of the sweep, mirror images, within 1e-12
    inner = want[1:-1]
    minima = np.flatnonzero((inner < want[:-2]) & (inner <= want[2:])) + 1
    first, second = sorted(minima, key=lambda i: want[i])[:2]
    assert first + second == _GRID.size - 1
    assert abs(want[first] - want[second]) <= 1e-12 * want[first]
    assert not evaluated.all()


def test_certified_grid_prunes_with_a_base_ridge():
    mc = pipeline_components(make_sim_dataset(p=6, n=800, seed=29))
    for ridge in (1e-8, 1e-3, float(np.trace(mc.s0)) / mc.r):
        _, evaluated = _assert_certified(mc, ridge)
        assert evaluated.sum() < _GRID.size // 4


def _duplicated_instrument_components():
    ds = make_sim_dataset(p=5, n=400, seed=5)
    return pipeline_components(Dataset(y=ds.y, d=ds.d, z=np.column_stack([ds.z, ds.z[:, 0]])))


@pytest.mark.parametrize(
    "build", [_duplicated_column_components, _duplicated_instrument_components]
)
def test_certified_grid_evaluates_everything_once_the_ladder_engages(build):
    mc = build()
    values, evaluated, ridge_used, _ = cue._scan_grid(mc, _GRID, 0.0)
    assert evaluated.all() and ridge_used
    assert np.array_equal(values, _full_sweep(mc))
    assert minimize(mc).ridge_used


def test_grid_points_that_exhaust_the_ladder_are_skipped():
    # Omega(beta) = (1 - beta^2 / 20) I is negative definite for |beta| > sqrt(20);
    # its trace is negative there too, so every rung adds only a multiple of
    # the smallest float and none can factor it
    mc = MomentComponents(
        n=100, r=2, abar=np.array([0.3, -0.1]), bbar=np.array([0.2, 0.4]),
        s0=np.eye(2), s1=np.zeros((2, 2)), s2=-0.05 * np.eye(2), c_ab=np.zeros((2, 2)),
    )
    values, evaluated, ridge_used, _ = cue._scan_grid(mc, _GRID, 0.0)
    assert evaluated.all() and not ridge_used
    assert np.array_equal(np.isinf(values), np.abs(_GRID) > math.sqrt(20.0))
    assert np.isinf(values).sum() == 284
    assert np.array_equal(values, _full_sweep(mc))
    fit = minimize(mc)
    assert not fit.boundary_flag and not fit.ridge_used
    assert abs(fit.beta_hat - 0.0976) <= 1e-4
    _, dq, d2q, *_ = cue._derivatives(mc, fit.beta_hat)
    assert d2q > 0.0 and abs(dq / d2q) <= cue.DEFAULT_TOL


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    n=st.integers(8, 300),
    r=st.integers(1, 12),
    ridge=st.sampled_from([0.0, 1e-6]),
    seed=st.integers(0, 2**16),
)
def test_flat_objective_is_fully_scanned_and_has_no_variance(n, r, ridge, seed):
    # b = 0 makes Q constant in beta: no point lies above another, so none
    # is skipped, the tie goes to the lower bound, and the curvature is zero
    a = np.random.default_rng(seed).standard_normal((n + r, r))
    mc = components_from_arrays(a, 0.0 * a)
    values, evaluated, _, _ = cue._scan_grid(mc, _GRID, ridge)
    assert evaluated.all() and np.all(values == values[0])
    fit = minimize(mc, ridge=ridge)
    assert fit.beta_hat == cue.DEFAULT_BOUNDS[0] and fit.boundary_flag
    with pytest.raises(NumericalError, match="nonpositive objective curvature"):
        variance(mc, fit.beta_hat, ridge=ridge)


def _bound_components(kind, rng):
    """Components for the span bound: two-basin, flat, or N(0, 1) rows."""
    if kind == "two-basin":
        return _two_basin_components(rng, 2, 80, 3.0, 0.5, 1.0)
    a = rng.standard_normal((60, 7))
    return components_from_arrays(a, 0.0 * a if kind == "flat" else rng.standard_normal(a.shape))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["two-basin", "flat", "normal"]),
    ridge_scale=st.sampled_from([0.0, 1e-8, 1e-2, 1.0]),
    at=st.lists(st.integers(0, _GRID.size - 1), min_size=1, max_size=6),
    nearly=st.sampled_from([None, 1e-6, 1e-8, 1e-10, 1e-13]),
    seed=st.integers(0, 2**16),
)
def test_span_bound_lies_below_the_full_sweep(kind, ridge_scale, at, nearly, seed):
    # any basis gives a lower bound on Q, whatever the solves it came from:
    # solves of a few grid points, and, with `nearly`, one more solve that
    # differs from the first by that relative amount, about the tolerance
    # below which the span drops it as dependent
    rng = np.random.default_rng(seed)
    mc = _bound_components(kind, rng)
    ridge = ridge_scale * float(np.trace(mc.s0)) / mc.r
    span = cue._Span(mc, ridge)
    solves = [_eval_objective(mc, float(_GRID[i]), ridge)[1] for i in at]
    if nearly is not None:
        u = solves[0]
        solves.append(u + nearly * np.linalg.norm(u) * rng.standard_normal(u.size))
    for u in solves:
        span.add(u)
    assert 1 <= span.basis.shape[0] <= len(solves)
    want = _full_sweep(mc, ridge)
    bound = span.bound(_GRID)
    assert not np.isnan(bound).any()
    assert np.all(bound <= want)
    # tight where a solve was made: the bound is Q there less the margin
    i = at[0]
    assert want[i] - bound[i] <= 1e-6 * max(1.0, abs(want[i]))


@pytest.mark.parametrize("q, rep", [(2, 0), (2, 1), (2, 2), (3, 0)])
def test_certified_grid_needs_few_evaluations_on_pipeline_fits(q, rep):
    # on Scenario I fits the span of the first few solves bounds every other
    # grid point above the minimum: about five evaluations, not 512
    ds = make_sim_dataset(p=10, n=5000, c=3.75, seed=1, rep=rep)
    mc = pipeline_components(ds, q)
    _, evaluated = _assert_certified(mc)
    assert evaluated.sum() <= 8


# ---------------------------------------------------------------------------
# derivatives and variance
# ---------------------------------------------------------------------------


def test_gradient_matches_finite_differences():
    ds = make_sim_dataset(p=4, n=400, seed=28)
    mc = pipeline_components(ds)
    rng = np.random.default_rng(1)
    for beta in rng.uniform(-3, 3, size=10):
        h = 1e-5 * max(1.0, abs(beta))
        q, dq, _, _ = objective_derivatives(mc, beta)
        fd = (_eval_objective(mc, beta + h)[0] - _eval_objective(mc, beta - h)[0]) / (2 * h)
        assert abs(dq - fd) <= 1e-6 * max(1.0, abs(fd))


def test_hessian_matches_finite_difference_of_gradient():
    ds = make_sim_dataset(p=3, n=350, seed=29)
    mc = pipeline_components(ds)
    fit = minimize(mc)
    beta = fit.beta_hat
    h = 1e-5 * max(1.0, abs(beta))
    _, _, d2q, _ = objective_derivatives(mc, beta)
    dq_plus = objective_derivatives(mc, beta + h)[1]
    dq_minus = objective_derivatives(mc, beta - h)[1]
    fd = (dq_plus - dq_minus) / (2 * h)
    assert abs(d2q - fd) <= 1e-6 * max(1.0, abs(fd))


def test_gradient_equals_weighted_moment_identity():
    # the objective gradient must equal D' Omega^{-1} gbar, the same D the
    # variance estimator assembles; the two are computed via different paths
    ds = make_sim_dataset(p=4, n=400, seed=50)
    mc = pipeline_components(ds)
    for beta in (-2.0, -0.3, 0.0, 0.8, 2.5):
        _, dq, _, _ = objective_derivatives(mc, beta)
        _, u, _, _ = _eval_objective(mc, beta)
        d_vec = -mc.bbar + (mc.c_ab.T - beta * mc.s2) @ u
        assert abs(dq - float(d_vec @ u)) <= 1e-14 * max(1.0, abs(dq))


def test_variance_rejects_nonpositive_curvature():
    a = np.full((10, 2), np.nan)
    mc = components_from_arrays(np.zeros((10, 2)), np.zeros((10, 2)))
    with pytest.raises(NumericalError):
        variance(mc, 0.0)


def test_variance_positive_on_regular_fixture():
    ds = make_sim_dataset(p=4, n=400, seed=30)
    mc = pipeline_components(ds)
    fit = minimize(mc)
    v_hat, se = variance(mc, fit.beta_hat)
    assert v_hat > 0.0 and se > 0.0
    assert abs(se - math.sqrt(v_hat / mc.n)) <= 1e-15


# ---------------------------------------------------------------------------
# overidentification test
# ---------------------------------------------------------------------------


def test_overid_zero_statistic_gives_pvalue_one():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((50, 3))
    mc = components_from_arrays(a, a.copy())
    j, df, p = overid_test(mc, 1.0, 0.0)
    assert j == 0.0 and df == 2 and p == 1.0


def test_overid_pvalue_accurate_in_far_tail():
    # the upper tail is computed directly, not as 1 - CDF, so it neither
    # rounds to 0 nor loses relative accuracy far out
    n = 1000
    for j_stat, df in ((264.0, 44), (132.0, 44), (54.0, 9), (400.0, 44), (1000.0, 285)):
        mc = components_from_arrays(np.zeros((n, df + 1)), np.zeros((n, df + 1)))
        _, got_df, p = overid_test(mc, 0.0, j_stat / (2.0 * n))
        ref = special.chdtrc(df, j_stat)
        assert got_df == df
        assert p > 0.0
        assert abs(p - ref) <= 1e-12 * ref


def test_overid_requires_overidentification():
    ds = make_sim_dataset(p=2, n=200, seed=32)
    mc = pipeline_components(ds)
    with pytest.raises(ConfigError, match="r = 1"):
        overid_test(mc, 0.0, 0.01)


def test_exactly_identified_result_has_no_pvalue():
    ds = make_sim_dataset(p=2, n=300, c=9.0, seed=33)
    res = estimate_cue(ds)
    assert res.r == 1 and res.j_df == 0 and res.j_pvalue is None
    assert res.j_stat >= 0.0


# ---------------------------------------------------------------------------
# full estimator properties
# ---------------------------------------------------------------------------


def test_estimate_ci_brackets_point():
    res = estimate_cue(make_sim_dataset(seed=34))
    assert res.ci_low <= res.beta_hat <= res.ci_high
    assert 0.0 <= res.j_pvalue <= 1.0
    assert res.j_df == res.r - 1


def test_exposure_scale_equivariance():
    ds = make_sim_dataset(p=4, n=500, seed=35)
    base = estimate_cue(ds)
    for c in (2.0, -0.5):
        scaled = Dataset(y=ds.y, d=c * ds.d, z=ds.z)
        res = estimate_cue(scaled)
        assert abs(res.beta_hat - base.beta_hat / c) <= 1e-8 * max(1.0, abs(base.beta_hat / c))
        assert abs(res.se - base.se / abs(c)) <= 1e-8 * max(1.0, base.se / abs(c))


def test_outcome_shift_invariance():
    ds = make_sim_dataset(p=4, n=500, seed=36)
    base = estimate_cue(ds)
    shifted = Dataset(y=ds.y + 3.5, d=ds.d, z=ds.z)
    res = estimate_cue(shifted)
    assert abs(res.beta_hat - base.beta_hat) <= 1e-10
    assert abs(res.se - base.se) <= 1e-8 * max(1.0, base.se)
    assert abs(res.j_stat - base.j_stat) <= 1e-8 * max(1.0, base.j_stat)


@pytest.mark.parametrize("seed", range(8))
def test_exposure_linear_in_z_is_identification_error(seed):
    # the objective is flat up to rounding here; before the guard, rounding
    # picked between a curvature failure and se near 1e14
    ds, _ = gen_dataset(ScenarioConfig(p=5, n=400, scenario="I", seed=seed), 0)
    plan = build_plan(ds.p, 2)
    for d in (1.0 + ds.z @ np.arange(1.0, 6.0), ds.z.sum(axis=1), ds.z[:, 0].copy()):
        linear = Dataset(y=ds.y, d=d, z=ds.z)
        assert f_stat(linear, plan).f_value == 0.0
        with pytest.raises(IdentificationError, match="no interaction carries exposure signal"):
            estimate_cue(linear)


def test_ci_level_guard():
    with pytest.raises(ConfigError, match="ci_level"):
        estimate_cue(make_sim_dataset(seed=37), ci_level=1.0)


def test_pipeline_handles_many_moment_configuration():
    # p=20 gives r=190 two-way interaction moments
    ds = make_sim_dataset(p=20, n=2500, c=6.0, seed=39, scenario="III")
    res = estimate_cue(ds)
    assert res.r == 190 and res.j_df == 189
    assert math.isfinite(res.se) and res.se > 0.0
    assert 0.0 <= res.j_pvalue <= 1.0


def test_explicit_base_ridge_is_recorded_and_benign():
    ds = make_sim_dataset(seed=38)
    base = estimate_cue(ds)
    ridged = estimate_cue(ds, ridge=1e-8)
    assert not base.ridge_used and ridged.ridge_used
    assert abs(ridged.beta_hat - base.beta_hat) <= 1e-4
    with pytest.raises(ConfigError, match="ridge"):
        minimize(pipeline_components(ds), ridge=-1.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    p=st.integers(3, 6),
    q=st.integers(2, 3),
    n=st.integers(150, 600),
    c=st.floats(0.0, 12.0),
    scenario=st.sampled_from(["I", "III", "IV", "custom"]),
    seed=st.integers(0, 2**16),
)
def test_cue_objective_is_bounded(p, q, n, c, scenario, seed):
    # with the uncentered weighting 2Q(beta) is the uncentered R^2 of
    # regressing 1 on g_i(beta), so 0 <= 2 q_min <= 1 and 0 <= J <= n; an
    # interior minimizer is a root of Q' with positive curvature
    ds, _ = gen_dataset(ScenarioConfig(p=p, n=n, q=q, c=c, scenario=scenario, seed=seed), 0)
    mc = pipeline_components(ds, q)
    fit = minimize(mc)
    assert 0.0 <= 2.0 * fit.q_min <= 1.0
    if not fit.boundary_flag:
        _, dq, d2q, _ = objective_derivatives(mc, fit.beta_hat)
        assert d2q > 0.0
        assert abs(dq / d2q) <= cue.DEFAULT_TOL * max(1.0, abs(fit.beta_hat))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    p=st.integers(3, 6),
    q=st.integers(2, 3),
    n=st.integers(300, 1500),
    scenario=st.sampled_from(["I", "III", "IV", "custom"]),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_estimate_is_invariant_to_instrument_order(p, q, n, scenario, seed, data):
    # a permutation of z's columns permutes the moment components, which
    # leaves Q(beta), its minimizer, the variance and J unchanged
    ds, _ = gen_dataset(ScenarioConfig(p=p, n=n, q=q, scenario=scenario, seed=seed), 0)
    perm = data.draw(st.permutations(range(p)), label="perm")
    base = estimate_cue(ds, q=q)
    moved = estimate_cue(Dataset(y=ds.y, d=ds.d, z=ds.z[:, perm]), q=q)
    for name in ("beta_hat", "se", "j_stat"):
        want, got = getattr(base, name), getattr(moved, name)
        assert abs(got - want) <= 1e-10 * abs(want), name


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    p=st.integers(4, 6),
    q=st.integers(2, 3),
    n=st.integers(1500, 2000),
    scenario=st.sampled_from(["I", "III", "IV", "custom"]),
    seed=st.integers(0, 2**16),
    b=st.floats(-2.0, 2.0),
    a=st.one_of(st.floats(-4.0, -0.25), st.floats(0.25, 4.0)),
    c=st.floats(-1.0, 1.0),
    m=st.one_of(st.integers(-100, -1), st.integers(1, 100)),
)
# a raw-product nuisance basis moved beta_hat here by 2.0e-9 relative at z + 100
@example(p=6, q=3, n=1800, scenario="IV", seed=3, b=0.0, a=1.0, c=0.0, m=100)
def test_estimate_is_equivariant(p, q, n, scenario, seed, b, a, c, m):
    # g(beta) is linear in y - beta d: y + b d moves Q by b along beta, and
    # a y stretches it by a. The interactions are demeaned and the nuisance
    # basis holds the intercept, so shifting y or z changes no moment. The
    # integer shift m keeps z + m exact on the binary instruments, so any
    # error it shows comes from the estimator, not from rounded input.
    ds, _ = gen_dataset(ScenarioConfig(p=p, n=n, q=q, scenario=scenario, seed=seed), 0)
    base = estimate_cue(ds, q=q)
    # the search is over the default bounds: keep beta_hat's images inside
    assume(abs(base.beta_hat) * max(abs(a), 1.0) + abs(b) < 9.0)
    cases = {  # transformed data and its expected (beta_hat, se, j_stat)
        "y + b d": (ds.y + b * ds.d, ds.z, base.beta_hat + b, base.se),
        "a y": (a * ds.y, ds.z, a * base.beta_hat, abs(a) * base.se),
        "y + c, z + c": (ds.y + c, ds.z + c, base.beta_hat, base.se),
        "y + m, z + m": (ds.y + m, ds.z + m, base.beta_hat, base.se),
    }
    for label, (y, z, beta_hat, se) in cases.items():
        got = estimate_cue(Dataset(y=y, d=ds.d, z=z), q=q)
        for name, want in (("beta_hat", beta_hat), ("se", se), ("j_stat", base.j_stat)):
            assert abs(getattr(got, name) - want) <= 1e-10 * abs(want), (label, name)
