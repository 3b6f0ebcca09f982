import math
from itertools import islice

import numpy as np
import pytest

from magiciv import (
    ConfigError,
    IdentificationError,
    NumericalError,
    PopulationDgp,
    orthogonality_check,
    population_beta,
    population_moment,
    population_relevance,
)
from magiciv import oracle
from magiciv._lapack import _blas_controls, _blas_threads
from magiciv.oracle import _lattice, _order_moments


def _simple_dgp(p=2, beta=0.5, phi=None, dependent=None, alpha=None):
    return PopulationDgp(
        p=p,
        mu=np.full(p, 0.5),
        beta_true=beta,
        pi=np.array([0.3 * (-0.8) ** j for j in range(p)]),
        theta=np.ones(p),
        alpha=alpha if alpha is not None else {(j, k): 1.0 for j in range(p) for k in range(j + 1, p)},
        phi=phi or {},
        dependent=dependent or {},
    )


def test_moment_vanishes_at_true_effect_only_there():
    rng = np.random.default_rng(3)
    for p in (2, 3, 4):
        dgp = PopulationDgp(
            p=p,
            mu=rng.uniform(0.2, 0.8, size=p),
            beta_true=float(rng.uniform(-2, 2)),
            pi=rng.normal(0, 0.5, size=p),
            theta=rng.normal(1, 1, size=p),
            alpha={(j, k): float(rng.uniform(0.5, 1.5)) for j in range(p) for k in range(j + 1, p)},
        )
        at_truth = population_moment(dgp, dgp.beta_true, 2)
        assert np.max(np.abs(at_truth)) <= 1e-12
        away = population_moment(dgp, dgp.beta_true + 0.7, 2)
        assert np.max(np.abs(away)) > 1e-6
        assert abs(population_beta(dgp, 2) - dgp.beta_true) <= 1e-12


def test_relevance_component_hand_value():
    dgp = _simple_dgp(p=2)
    # -E[(Z1-.5)(Z2-.5) D] = -alpha * Var(Z1) Var(Z2) = -1 * 0.25 * 0.25
    assert abs(population_relevance(dgp, 2)[0] - (-0.0625)) <= 1e-15


def test_violated_outcome_model_shifts_moment():
    phi = {(0, 1): 0.8}
    dgp = _simple_dgp(p=2, phi=phi)
    at_truth = population_moment(dgp, dgp.beta_true, 2)
    # magnitude phi * Var(Z1) * Var(Z2)
    assert abs(abs(at_truth[0]) - 0.8 * 0.0625) <= 1e-14


def test_population_beta_invariant_to_direct_effects():
    base = _simple_dgp(p=3)
    other = PopulationDgp(
        p=3, mu=base.mu, beta_true=base.beta_true,
        pi=np.array([5.0, -4.0, 2.5]), theta=base.theta, alpha=dict(base.alpha),
    )
    assert abs(population_beta(base, 2) - population_beta(other, 2)) <= 1e-12


def test_population_beta_requires_relevance():
    dgp = _simple_dgp(p=2, alpha={})
    with pytest.raises(IdentificationError, match="relevance"):
        population_beta(dgp, 2)


def test_third_order_interaction_identifies_with_q3():
    dgp = PopulationDgp(
        p=3, mu=np.full(3, 0.5), beta_true=0.8,
        pi=np.array([0.4, -0.1, 0.2]), theta=np.ones(3),
        alpha={}, alpha3={(0, 1, 2): 1.0},
    )
    with pytest.raises(IdentificationError):
        population_beta(dgp, 2)  # pairwise moments carry no signal
    assert abs(population_beta(dgp, 3) - 0.8) <= 1e-12


def test_moment_is_affine_in_beta():
    dgp = _simple_dgp(p=3)
    m0 = population_moment(dgp, 0.0, 2)
    m1 = population_moment(dgp, 1.0, 2)
    predicted = m0 + 2.5 * (m1 - m0)
    actual = population_moment(dgp, 2.5, 2)
    assert np.max(np.abs(predicted - actual)) <= 1e-12


def test_lattice_probabilities_sum_to_one():
    rng = np.random.default_rng(4)
    dgp = PopulationDgp(
        p=4, mu=rng.uniform(0.1, 0.9, size=4), beta_true=0.0,
        pi=np.zeros(4), theta=np.ones(4), alpha={(0, 1): 1.0},
        dependent={3: (0, 0.2)},
    )
    _, probs = _lattice(dgp)
    assert abs(probs.sum() - 1.0) <= 1e-14
    assert probs.shape == (16,)


def test_lattice_rows_count_in_binary_with_children_last():
    # free instruments 0 and 1 are the leading bits, the child's flip bit the
    # last: row i holds i in binary and multiplies the weights in bit order
    mu = np.array([0.2, 0.7, 0.5])
    dgp = PopulationDgp(
        p=3, mu=mu, beta_true=0.0, pi=np.zeros(3), theta=np.ones(3),
        alpha={(0, 1): 1.0}, dependent={2: (0, 0.1)},
    )
    z, probs = _lattice(dgp)
    for i, (b0, b1, flip) in enumerate(np.ndindex(2, 2, 2)):
        assert z[i].tolist() == [b0, b1, b0 ^ flip]
        weight = (mu[0] if b0 else 1.0 - mu[0]) * (mu[1] if b1 else 1.0 - mu[1])
        assert probs[i] == weight * (0.1 if flip else 1.0 - 0.1)


def test_each_public_call_enumerates_the_lattice_once(monkeypatch):
    calls = []

    def counted(dgp):
        calls.append(dgp.p)
        return _lattice(dgp)

    monkeypatch.setattr(oracle, "_lattice", counted)
    dgp = _simple_dgp(p=3)
    for call in (
        lambda: orthogonality_check(dgp, 3),
        lambda: population_moment(dgp, 0.2, 3),
        lambda: population_relevance(dgp, 3),
        lambda: population_beta(dgp, 3),
    ):
        calls.clear()
        call()
        assert calls == [3]


def test_dependent_child_mean_derivation():
    dgp = PopulationDgp(
        p=2, mu=np.array([0.3, 0.99]), beta_true=0.0,
        pi=np.zeros(2), theta=np.ones(2), alpha={(0, 1): 1.0},
        dependent={1: (0, 0.25)},
    )
    means = dgp.instrument_means()
    assert abs(means[1] - (0.3 * 0.75 + 0.7 * 0.25)) <= 1e-15


def test_orthogonality_holds_under_independence():
    for p, q in ((3, 2), (3, 3), (4, 2)):
        dgp = _simple_dgp(p=p)
        report = orthogonality_check(dgp, q)
        assert report.max_abs_derivative <= 1e-6


def test_orthogonality_fails_under_dependence():
    dgp = _simple_dgp(p=3, dependent={1: (0, 0.1)})
    report = orthogonality_check(dgp, 2)
    assert report.max_abs_derivative > 1e-3


_STEP_RULE = r"step must be positive, with 2 \* step finite"
_GRID_RULE = "beta_grid needs one value or more, all finite"


@pytest.mark.parametrize(
    "dependent, settings, error, match",
    [
        (False, {"step": math.nan}, ConfigError, _STEP_RULE),
        (True, {"step": math.nan}, ConfigError, _STEP_RULE),
        (False, {"step": math.inf}, ConfigError, _STEP_RULE),
        # 2 * step overflows, so every difference quotient would read 0
        (False, {"step": 1e308}, ConfigError, _STEP_RULE),
        # no coordinate moves, so every difference would be 0
        (False, {"step": 1e-300}, ConfigError, "leaves an order-2 nuisance coordinate unchanged"),
        (False, {"beta_grid": ()}, ConfigError, _GRID_RULE),
        (False, {"beta_grid": (0.0, math.nan)}, ConfigError, _GRID_RULE),
        (False, {"beta_grid": (math.inf,)}, ConfigError, _GRID_RULE),
        (
            False, {"beta_grid": (1e200,), "step": 1e200}, NumericalError,
            r"order-2 orthogonality derivative is nan at beta=1e\+200",
        ),
    ],
    ids=["nan_step", "nan_step_dependent", "infinite_step", "overflowing_step",
         "vanishing_step", "empty_grid", "nan_in_grid", "infinite_grid",
         "nan_derivative"],
)
def test_orthogonality_check_refuses_what_it_cannot_compute(dependent, settings, error, match):
    # each of these once reported a derivative it never computed
    dgp = _simple_dgp(p=3, dependent={1: (0, 0.1)} if dependent else None)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error, match=match):
        orthogonality_check(dgp, 2, **settings)


def test_exact_duplicate_makes_projection_singular():
    dgp = _simple_dgp(p=3, dependent={1: (0, 0.0)})
    with pytest.raises(NumericalError, match="singular population design"):
        orthogonality_check(dgp, 2)


def _second_order_probe(dgp, q, k=2, beta=0.5, delta=1e-3):
    """Moment change along a joint (mu, theta) nuisance direction at delta and 2*delta.

    The moment is multilinear in the nuisance coordinates, so any single-
    coordinate perturbation moves it exactly linearly (with zero slope under
    independence); genuine second-order curvature only shows along mixed
    directions. This one shifts mu_0 together with the order-1 basis
    coefficient on Z_1 (nu[p + 2], after the p means and the coefficients
    on 1 and Z_0), whose cross-derivative through the first pair component
    is Var(Z_1) != 0. Returns (change at delta, change at 2*delta), whose
    ratio is ~4 when the first-order term vanishes.
    """
    if not 2 <= k <= q:
        raise ConfigError(f"order k must lie in 2..q={q} (got {k})")
    nu, moment = next(islice(_order_moments(dgp, q), k - 2, None))
    base = moment(beta, nu)

    def shifted(scale):
        moved = nu.copy()
        moved[0] += scale
        moved[dgp.p + 2] += scale
        return float(np.linalg.norm(moment(beta, moved) - base))

    return shifted(delta), shifted(2.0 * delta)


def test_second_order_probe_ratio_near_four():
    for p in (2, 3):
        small, double = _second_order_probe(_simple_dgp(p=p), 2)
        assert small > 0.0
        assert 3.5 <= double / small <= 4.5


def test_guards():
    with pytest.raises(ConfigError, match="2 <= p"):
        _simple_dgp(p=13)
    with pytest.raises(ConfigError, match="2 <= p"):
        _simple_dgp(p=1)
    with pytest.raises(ConfigError, match="strictly in"):
        PopulationDgp(p=2, mu=np.array([0.0, 0.5]), beta_true=0.0,
                      pi=np.zeros(2), theta=np.ones(2), alpha={})
    with pytest.raises(ConfigError, match="bad alpha key"):
        PopulationDgp(p=2, mu=np.full(2, 0.5), beta_true=0.0,
                      pi=np.zeros(2), theta=np.ones(2), alpha={(1, 0): 1.0})
    with pytest.raises(ConfigError, match="order k must lie in 2..q=2"):
        _second_order_probe(_simple_dgp(p=3), 2, k=3)
    with pytest.raises(ConfigError, match="order k must lie in 2..q=3"):
        _second_order_probe(_simple_dgp(p=3), 3, k=1)
    with pytest.raises(ConfigError, match="chains"):
        PopulationDgp(p=3, mu=np.full(3, 0.5), beta_true=0.0,
                      pi=np.zeros(3), theta=np.ones(3), alpha={(0, 1): 1.0},
                      dependent={1: (0, 0.1), 2: (1, 0.1)})


@pytest.mark.skipif(not _blas_controls(), reason="no BLAS with a settable thread count is loaded")
def test_oracle_entry_points_pin_one_blas_thread(monkeypatch):
    counts = []
    conditional_means = oracle._conditional_means

    def recording(dgp, z):  # every entry point's products start here
        counts.append({get() for get, _ in _blas_controls()})
        return conditional_means(dgp, z)

    monkeypatch.setattr(oracle, "_conditional_means", recording)
    dgp = _simple_dgp(p=3)
    with _blas_threads(2):  # the caller's thread count
        population_moment(dgp, 0.5, 2)
        population_relevance(dgp, 2)
        population_beta(dgp, 2)
        orthogonality_check(dgp, 2, beta_grid=(0.0,))
        assert {get() for get, _ in _blas_controls()} == {2}
    assert counts == [{1}] * 4
