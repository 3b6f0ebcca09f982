import numpy as np
import pytest
from numpy.linalg import LinAlgError

from magiciv import Dataset, NumericalError, _kernel, build_plan, diagnostics, f_stat

from conftest import make_binary_dataset, make_sim_dataset


def test_exactly_linear_exposure_gives_zero():
    ds = make_binary_dataset(n=50, p=3, seed=1)
    d = 1.0 + 2.0 * ds.z[:, 0] - 0.5 * ds.z[:, 2]
    report = f_stat(Dataset(y=ds.y, d=d, z=ds.z), build_plan(3, 2))
    assert report.f_value == 0.0
    assert report.num_restrictions == 3
    assert report.n_effective == 50


def test_invariant_to_adding_linear_function_of_z():
    ds = make_sim_dataset(p=4, n=600, seed=2)
    plan = build_plan(4, 2)
    base = f_stat(ds, plan).f_value
    shifted = Dataset(y=ds.y, d=ds.d + 4.0 - 1.5 * ds.z[:, 1] + 0.7 * ds.z[:, 3], z=ds.z)
    moved = f_stat(shifted, plan).f_value
    assert abs(moved - base) <= 1e-8 * max(1.0, base)


def test_invariant_to_exposure_scaling():
    ds = make_sim_dataset(p=4, n=600, seed=3)
    plan = build_plan(4, 2)
    base = f_stat(ds, plan).f_value
    for c in (3.0, -0.25):
        scaled = f_stat(Dataset(y=ds.y, d=c * ds.d, z=ds.z), plan).f_value
        assert abs(scaled - base) <= 1e-8 * max(1.0, base)


def test_nonnegative_on_random_data():
    for seed in range(4, 8):
        ds = make_sim_dataset(p=3, n=200, seed=seed)
        assert f_stat(ds, build_plan(3, 2)).f_value >= 0.0


def test_sample_size_guard():
    ds = make_binary_dataset(n=4, p=3, seed=9)
    with pytest.raises(NumericalError, match="n > r"):
        f_stat(ds, build_plan(3, 2))


def test_mean_f_tracks_interaction_strength():
    # no interaction signal centers the statistic near 1; strong signal
    # (c = 7.5 at n = 5000) pushes it to the mid-fours
    from magiciv import ScenarioConfig, gen_dataset

    plan = build_plan(10, 2)
    means = {}
    for c in (0.0, 7.5):
        cfg = ScenarioConfig(p=10, n=5000, scenario="custom", pi_mean=0.0,
                             pi_var=0.2, c=c, seed=77)
        values = []
        for rep in range(40):
            ds, _ = gen_dataset(cfg, rep)
            values.append(f_stat(ds, plan).f_value)
        means[c] = float(np.mean(values))
    assert 0.85 <= means[0.0] <= 1.25
    assert 4.1 <= means[7.5] <= 5.2


def test_nearly_collinear_interactions_raise_conditioning_error():
    # z4 is z1 plus noise at 1e-6: the linear first stage is still well
    # posed, but interaction columns with z1 and with z4 nearly coincide,
    # and the normal equations would lose most of their digits
    ds = make_sim_dataset(p=3, n=500, seed=10)
    rng = np.random.default_rng(0)
    plan = build_plan(4, 2)
    for noise, message in ((1e-6, "ill-conditioned"), (1e-12, "rank|ill-conditioned")):
        z = np.column_stack([ds.z, ds.z[:, 0] + noise * rng.standard_normal(ds.n)])
        with pytest.raises(NumericalError, match=message):
            f_stat(Dataset(y=ds.y, d=ds.d, z=z), plan)
    # well separated, the same construction is accepted
    z = np.column_stack([ds.z, ds.z[:, 0] + 1e-2 * rng.standard_normal(ds.n)])
    assert f_stat(Dataset(y=ds.y, d=ds.d, z=z), plan).f_value > 0.0


def test_invariant_to_instrument_units():
    # each interaction column scales with its instruments' units, which the
    # statistic ignores; unscaled, X'X here would span twelve decades
    ds = make_sim_dataset(p=3, n=500, seed=11)
    plan = build_plan(3, 2)
    base = f_stat(ds, plan).f_value
    z = ds.z * np.array([1e3, 1e3, 1.0]) + 5.0
    moved = f_stat(Dataset(y=ds.y, d=ds.d, z=z), plan).f_value
    assert abs(moved - base) <= 1e-8 * max(1.0, base)


def test_zero_interaction_column_raises_rank_error():
    # in every row one of the two demeaned instruments is exactly zero, so
    # their product column vanishes although (1, z) has full rank
    z = np.tile([[0.0, 1.0], [0.0, -1.0], [1.0, 0.0], [-1.0, 0.0]], (5, 1))
    d = np.random.default_rng(12).standard_normal(len(z))
    with pytest.raises(NumericalError, match="rank < 2: an interaction column is zero"):
        f_stat(Dataset(y=d, d=d, z=z), build_plan(2, 2))


@pytest.mark.parametrize(
    "fail_on, message",
    [
        (1, r"design rank < 11: X'X factorization failed"),
        (2, "robust covariance of interaction coefficients is singular"),
    ],
)
def test_cholesky_failures_raise_numerical_error(monkeypatch, fail_on, message):
    # the first factorization is X'X's, made by the shared guard in
    # _kernel, the second the robust covariance's
    factor_solve = _kernel._cho_factor_solve
    calls = []

    def failing(a, b):
        calls.append(a.shape)
        if len(calls) == fail_on:
            raise LinAlgError("not positive definite")
        return factor_solve(a, b)

    monkeypatch.setattr(diagnostics, "_cho_factor_solve", failing)
    monkeypatch.setattr(_kernel, "_cho_factor_solve", failing)
    with pytest.raises(NumericalError, match=message):
        f_stat(make_sim_dataset(p=5, n=400, seed=4), build_plan(5, 2))
    assert calls == [(11, 11), (10, 10)][:fail_on]
