import json
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from magiciv import ConfigError, build_plan
from magiciv.interactions import ROW_BLOCK, demeaned_matrix, plan_to_jsonable
from magiciv.oracle import _basis_matrix


def test_plan_p3_q2_subsets_and_r():
    plan = build_plan(3, 2)
    assert plan.subsets_by_order[2] == ((0, 1), (0, 2), (1, 2))
    assert plan.r == 3


@pytest.mark.parametrize("p,q,r", [(10, 2, 45), (20, 2, 190), (3, 3, 4)])
def test_plan_component_counts(p, q, r):
    assert build_plan(p, q).r == r


def test_plan_counts_match_binomials():
    plan = build_plan(6, 4)
    for k in range(1, 5):
        assert len(plan.subsets_by_order[k]) == comb(6, k)
    assert plan.r == sum(comb(6, k) for k in range(2, 5))


def test_plan_guards():
    with pytest.raises(ConfigError, match="requires p >= 2"):
        build_plan(1, 2)
    with pytest.raises(ConfigError, match="must be >= 2"):
        build_plan(3, 1)
    with pytest.raises(ConfigError, match="exceeds instrument count"):
        build_plan(3, 4)
    with pytest.raises(ConfigError, match="guard"):
        build_plan(60, 30)


def test_demeaned_matrix_row_examples():
    # a 1-D instrument vector is read as a single row
    plan = build_plan(3, 2)
    got = demeaned_matrix(np.array([1.0, 0.0, 1.0]), np.full(3, 0.5), plan)[0]
    assert np.allclose(got, [-0.25, 0.25, -0.25], atol=1e-15)

    mu = np.array([0.3, 0.7, 0.5])
    assert np.allclose(demeaned_matrix(mu, mu, plan), 0.0, atol=1e-15)

    plan2 = build_plan(2, 2)
    got2 = demeaned_matrix(np.array([1.0, 1.0]), np.array([0.3, 0.6]), plan2)[0]
    assert np.allclose(got2, [0.7 * 0.4], atol=1e-15)


def test_basis_matrix_row_examples():
    plan2 = build_plan(2, 2)
    assert _basis_matrix(np.array([[1.0, 0.0]]), plan2, 2)[0].tolist() == [1.0, 1.0, 0.0]

    plan3 = build_plan(3, 3)
    got = _basis_matrix(np.array([[1.0, 0.0, 1.0]]), plan3, 3)[0]
    assert got.tolist() == [1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]

    assert _basis_matrix(np.zeros((1, 3)), plan3, 3)[0].tolist() == [1.0] + [0.0] * 6


def test_basis_order_errors():
    plan = build_plan(3, 2)
    with pytest.raises(ConfigError, match="does not match plan"):
        demeaned_matrix(np.zeros(4), np.zeros(4), plan)
    with pytest.raises(ConfigError, match="mu must have length"):
        demeaned_matrix(np.zeros(3), np.zeros(2), plan)


def test_demeaned_at_zero_matches_raw_products():
    plan = build_plan(4, 3)
    rng = np.random.default_rng(5)
    z = rng.standard_normal((10, 4))
    got = demeaned_matrix(z, np.zeros(4), plan)
    col = 0
    for k in (2, 3):
        for s in plan.subsets_by_order[k]:
            assert np.allclose(got[:, col], z[:, list(s)].prod(axis=1), atol=1e-14)
            col += 1


def test_order1_demeaned_averages_to_zero():
    rng = np.random.default_rng(9)
    z = (rng.random((64, 4)) < 0.37).astype(float)
    mu_hat = z.mean(axis=0)
    centered_sums = (z - mu_hat).sum(axis=0)
    assert np.all(np.abs(centered_sums) <= 1e-12 * z.shape[0])


def test_plan_serialization_roundtrip():
    plan = build_plan(5, 3)
    payload = json.loads(json.dumps(plan_to_jsonable(plan)))
    assert (payload["p"], payload["q"], payload["r"]) == (plan.p, plan.q, plan.r)
    # component positions survive JSON: the plan rebuilt from (p, q) matches
    back = build_plan(payload["p"], payload["q"])
    assert {
        int(k): tuple(tuple(s) for s in subsets) for k, subsets in payload["orders"].items()
    } == dict(back.subsets_by_order)


def test_order_slices_cover_r():
    plan = build_plan(5, 3)
    slices = plan.order_slices()
    assert slices[2] == slice(0, 10)
    assert slices[3] == slice(10, 20)


def _loop_block(x, plan, k):
    """Order-k products, one subset at a time, factors multiplied left to right."""
    block = np.empty((x.shape[0], len(plan.subsets_by_order[k])))
    for col, subset in enumerate(plan.subsets_by_order[k]):
        prod = x[:, subset[0]].copy()
        for j in subset[1:]:
            prod = prod * x[:, j]
        block[:, col] = prod
    return block


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_products_equal_left_to_right_loop(data):
    p = data.draw(st.integers(2, 8), label="p")
    q = data.draw(st.integers(2, min(p, 4)), label="q")
    n = data.draw(st.integers(1, 9), label="n")
    reals = st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False)
    z = data.draw(hnp.arrays(float, (n, p), elements=reals), label="z")
    mu = data.draw(hnp.arrays(float, p, elements=reals), label="mu")
    plan = build_plan(p, q)
    zc = z - mu

    def check(got, blocks):
        want = np.column_stack([np.empty((n, 0))] + blocks)
        assert got.flags.c_contiguous
        assert np.array_equal(got, want)

    full = demeaned_matrix(z, mu, plan)
    check(full, [_loop_block(zc, plan, k) for k in range(2, q + 1)])
    for k, cols in plan.order_slices().items():
        assert np.array_equal(full[:, cols], _loop_block(zc, plan, k))
        check(
            _basis_matrix(z, plan, k),
            [np.ones((n, 1))] + [_loop_block(z, plan, j) for j in range(1, k)],
        )


@pytest.mark.parametrize("n", [ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1])
def test_products_across_row_blocks_equal_left_to_right_loop(n):
    # the kernel builds ROW_BLOCK rows at a time; every block must land in
    # its own rows, the last one short
    rng = np.random.default_rng(n)
    z = rng.standard_normal((n, 5))
    mu = rng.standard_normal(5)
    plan = build_plan(5, 4)
    got = demeaned_matrix(z, mu, plan)
    assert got.flags.c_contiguous
    assert np.array_equal(got, np.column_stack([_loop_block(z - mu, plan, k) for k in range(2, 5)]))
