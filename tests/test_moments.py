import numpy as np

from magiciv import build_components, build_plan, fit_nuisance, gbar, omega
from magiciv.moments import components_from_arrays
from magiciv.simulate import _normals, _rep_rng

from conftest import make_binary_dataset, make_sim_dataset


def _pipeline_components(ds, q=2):
    plan = build_plan(ds.p, q)
    nuis = fit_nuisance(ds, plan)
    return build_components(ds, nuis, plan)


def test_gbar_at_zero_is_column_means_of_a():
    mc = _pipeline_components(make_sim_dataset(seed=12))
    assert np.allclose(gbar(mc, 0.0), mc.a.mean(axis=0), atol=0.0)


def test_outcome_equals_exposure_makes_a_equal_b():
    ds = make_binary_dataset(n=40, p=3, seed=2)
    ds = type(ds)(y=ds.d.copy(), d=ds.d, z=ds.z)
    mc = _pipeline_components(ds)
    assert np.array_equal(mc.a, mc.b)
    assert np.allclose(gbar(mc, 1.0), 0.0, atol=1e-15)


def test_gbar_matches_direct_row_average():
    mc = _pipeline_components(make_sim_dataset(seed=13))
    for beta in (-1.3, 0.0, 0.7):
        direct = np.zeros(mc.r)
        for i in range(mc.n):
            direct += mc.a[i] - beta * mc.b[i]
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
    mc = _pipeline_components(make_sim_dataset(seed=14))
    for beta in (-2.0, 0.3, 1.7):
        om = omega(mc, beta)
        assert np.max(np.abs(om - om.T)) == 0.0


def test_omega_matches_direct_accumulation():
    ds = make_sim_dataset(p=4, n=500, seed=15)
    mc = _pipeline_components(ds)
    beta = 0.8
    direct = np.zeros((mc.r, mc.r))
    for i in range(mc.n):
        g = mc.a[i] - beta * mc.b[i]
        direct += np.outer(g, g)
    direct /= mc.n
    om = omega(mc, beta)
    assert np.max(np.abs(om - direct)) <= 1e-10 * max(1.0, np.max(np.abs(direct)))


def test_beta_quadratic_interpolation():
    mc = _pipeline_components(make_sim_dataset(seed=16))
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
    mc = _pipeline_components(ds)
    shifted = type(ds)(y=ds.y + 11.0, d=ds.d, z=ds.z)
    mc2 = _pipeline_components(shifted)
    scale = max(1.0, float(np.max(np.abs(mc.a))))
    assert np.max(np.abs(mc2.a - mc.a)) <= 1e-10 * scale
    assert np.array_equal(mc2.b, mc.b)


def test_omega_positive_semidefinite():
    mc = _pipeline_components(make_sim_dataset(seed=18))
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
    from magiciv import Dataset

    ds = Dataset(y=y, d=d, z=z)
    mc = _pipeline_components(ds)
    g = gbar(mc, beta_star)
    bound = 3.0 * np.sqrt(np.trace(omega(mc, beta_star)) / mc.n)
    assert np.linalg.norm(g) <= bound
