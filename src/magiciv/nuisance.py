"""First-stage nuisance estimation: instrument means and per-order projections.

For each interaction order k the outcome and exposure are projected by
ordinary least squares onto the lower-order basis of orders 0..k-1, and the
per-order residuals feed the moment construction. Only the span of that
basis matters. The order-2 basis is (1, z); for k >= 3 it is
(1, z - mu_hat, demeaned products of orders 2..k-1), the same span as the
raw products, with conditioning that does not degrade as z moves away from
0. Its product columns come from the same kernel that builds the demeaned
interaction matrix W, so they equal W's leading columns bit for bit. Each
order is projected independently; the q-1 regressions are not
incrementally updated, which keeps them individually auditable.

The order-2 projection is also the linear first stage that TSLS, the
interaction-strength diagnostic and the efficient-GMM baseline partial out;
all of them call :func:`_first_stage`, the one place that requires (1, z) to
have full column rank. It is a minimum-norm gelsy fit, :func:`_lstsq`, made
once per dataset and memoized on it by :func:`_linear_projection`, and it
refuses a NaN or inf cell. The orders k >= 3 are solved from their normal
equations: one streamed Gram of the top basis beside y and d holds every
order's, each order's leading block is scaled to unit diagonal, factored
and solved by :func:`magiciv._kernel._unit_cholesky`, the guard
:func:`magiciv.diagnostics.f_stat` shares, and one more pass over the
chunks forms the residuals. An order whose Gram fails that guard takes the
gelsy fit on its explicit basis instead, so the main estimator still fits
duplicated instruments, at their minimum norm.

:func:`_row_groups` memoizes the grouping of :mod:`magiciv._groups` beside
the (1, z) fit. It holds one row index per group, not the distinct rows,
and the kernel centers the distinct rows a chunk at a time, so no
consumer forms an n x p centered copy. The orders
k >= 3 form their Gram and residuals from the distinct rows by the kernel of
:mod:`magiciv._kernel`: no fit holds the n x r demeaned interaction matrix
W, and outside the gelsy fallback no basis of order k >= 3 either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import _lapack, interactions
from ._groups import RowGroups, _group_rows
from ._kernel import _gram, _stacked_chunks, _unit_cholesky
from ._lapack import _blas_threads
from .data import Dataset, _require_finite
from .errors import NumericalError
from .interactions import InteractionPlan

__all__ = [
    "NuisanceEstimate",
    "estimate_means",
    "fit_nuisance",
]

# Smallest reciprocal condition estimate (pocon, 1-norm) of an order's Gram,
# scaled to unit diagonal, that its normal equations may have; below it the
# order is fitted by gelsy. beta_hat should move from the gelsy fit by
# rounding only, and below 1e-4 more than four of the sixteen digits go. The
# scaled Grams of 56 simulated fits (Scenarios I-IV, p = 4-12, q = 3-5)
# measured 0.16-0.64.
_NUISANCE_MIN_RCOND = 1e-4


@dataclass(frozen=True, eq=False)
class NuisanceEstimate:
    """Sample means plus per-order projection coefficients and residuals.

    ``theta[k-1]`` and ``xi[k-1]`` hold the outcome and exposure coefficients
    on the order-(k-1) basis B, for k = 2..q: (1, z) at k = 2, and (1,
    z - mu_hat, demeaned products of orders 2..k-1) above it. ``r_y[k-1] =
    y - B theta[k-1]`` and ``r_d[k-1] = d - B xi[k-1]`` are the matching
    residuals.
    """

    mu_hat: np.ndarray
    theta: Mapping[int, np.ndarray]
    xi: Mapping[int, np.ndarray]
    r_y: Mapping[int, np.ndarray]
    r_d: Mapping[int, np.ndarray]


def estimate_means(ds: Dataset) -> np.ndarray:
    """Columnwise sample means of the instrument matrix."""
    return ds.z.mean(axis=0)


def _row_groups(ds: Dataset) -> RowGroups:
    """The dataset's :class:`RowGroups`, memoized on it; a NaN or inf cell raises DataError."""
    groups = ds._memo.get("groups")
    if groups is None:
        _require_finite(ds)
        groups = ds._memo["groups"] = _group_rows(ds.z)
    return groups


def _linear_projection(ds: Dataset):
    """:func:`_project` of y and d on (1, z), memoized on ``ds``; arrays read-only.

    TSLS, the interaction-strength diagnostic, efficient GMM and the
    order-2 nuisance step all read this one fit.
    """
    fit = ds._memo.get("first_stage")
    if fit is None:
        fit = _project(ds, np.column_stack([np.ones(ds.n), ds.z]))
        for arr in fit[:4]:
            arr.setflags(write=False)
        ds._memo["first_stage"] = fit
    return fit


def _lstsq(design: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, int]:
    """Minimum-norm least squares via complete orthogonal factorization.

    LAPACK gelsy pivots columns and returns the minimum-norm solution on
    rank deficiency; the rank cutoff is machine-epsilon scaled. Returns the
    coefficients and the numerical rank.
    """
    n, m = design.shape
    if m > n:
        raise NumericalError(
            f"design has {m} columns but only {n} rows; need n >= {m}"
        )
    coef, rank = _lapack.ROUTINES.gelsy(design, rhs, np.finfo(float).eps * max(design.shape))
    if rank == 0:
        raise NumericalError("numerically rank-zero design")
    return coef, int(rank)


def _project(ds: Dataset, design: np.ndarray):
    """Coefficients and residuals of y and d on ``design``, plus its rank.

    A NaN or inf cell of ``ds`` raises :class:`DataError`. Each residual is
    formed one column at a time, ``y - W @ theta``: one n x 2 product would
    round differently and move the CUE inputs.
    """
    _require_finite(ds)
    coef, rank = _lstsq(design, np.column_stack([ds.y, ds.d]))
    theta, xi = coef[:, 0], coef[:, 1]
    return theta, xi, ds.y - design @ theta, ds.d - design @ xi, rank


def _first_stage(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of y and d on (1, z); a rank-deficient (1, z) raises NumericalError."""
    _, _, r_y, r_d, rank = _linear_projection(ds)
    if rank < ds.p + 1:
        raise NumericalError(
            f"first-stage design (1, z) rank {rank} < {ds.p + 1}; instruments collinear"
        )
    return r_y, r_d


def _exposure_explained(r_d: np.ndarray, d: np.ndarray) -> bool:
    """True when the exposure residual ``r_d`` is zero up to rounding.

    The rule is max|r_d| <= 1e-12 * max(max|d|, 1): the basis that left
    ``r_d`` explains the exposure, so nothing is left for the interactions.
    """
    return float(np.max(np.abs(r_d))) <= 1e-12 * max(float(np.max(np.abs(d))), 1.0)


@_blas_threads(1)
def fit_nuisance(ds: Dataset, plan: InteractionPlan) -> NuisanceEstimate:
    """Estimate means and all per-order projections for orders 2..q.

    The order-2 projection is the dataset's memoized (1, z) fit, taken at
    its minimum norm when (1, z) is rank-deficient. Each order k >= 3 is
    projected on (1, z - mu_hat, demeaned products of orders 2..k-1) by its
    normal equations: one streamed Gram of that basis beside y and d (ones
    weighted by y and by d) over the distinct instrument rows holds them
    for every order, each order's leading block is factored by
    :func:`_unit_cholesky`, and one more pass over the chunks forms the
    fitted values of each distinct row, which the residuals gather by
    group. An order whose Gram fails to factor, or whose reciprocal
    condition estimate is below 1e-4, is fitted by :func:`_project` at its
    minimum norm instead, on the explicit basis: the same chunks of its
    row functions over the distinct rows, gathered to every row.
    """
    interactions._check_width(ds.z, plan)
    theta: dict[int, np.ndarray] = {}
    xi: dict[int, np.ndarray] = {}
    r_y: dict[int, np.ndarray] = {}
    r_d: dict[int, np.ndarray] = {}
    theta[1], xi[1], r_y[1], r_d[1], _ = _linear_projection(ds)
    mu = estimate_means(ds)
    if plan.q == 2:  # q = 2 reads only the (1, z) fit
        return NuisanceEstimate(mu_hat=mu, theta=theta, xi=xi, r_y=r_y, r_d=r_d)

    groups = _row_groups(ds)
    zc = ds.z[groups.first] - mu  # the centered distinct rows
    slices = plan.order_slices()

    def basis(k):  # row functions (1, z - mu, products of orders 2..k-1)
        return [None, zc, slice(0, slices[k - 1].stop)]

    blocks = [(x, None) for x in basis(plan.q)] + [(None, ds.y), (None, ds.d)]
    gram = _gram(groups, blocks, ds.z, mu, plan)
    coefs = {}
    for k in range(3, plan.q + 1):
        m = 1 + ds.p + slices[k - 1].stop
        try:
            s, _, x = _unit_cholesky(
                gram[:m, :m], gram[:m, -2:], _NUISANCE_MIN_RCOND,
                f"order-{k} nuisance basis", "a basis column",
            )
        except NumericalError:
            # the basis at each distinct row, gathered to the rows it stands for
            design = np.empty((groups.size, m))
            for rows, xt in _stacked_chunks(groups, basis(k), ds.z, mu, plan):
                design[rows] = xt.T
            design = groups.gather(design)
            theta[k - 1], xi[k - 1], r_y[k - 1], r_d[k - 1], _ = _project(ds, design)
            continue
        coefs[k] = s[:, None] * x
        theta[k - 1], xi[k - 1] = np.ascontiguousarray(coefs[k].T)
    if coefs:
        # fitted values per distinct row, gathered to the rows they stand for
        fitted = {k: np.empty((groups.size, 2)) for k in coefs}
        for rows, xt in _stacked_chunks(groups, basis(max(coefs)), ds.z, mu, plan):
            for k, coef in coefs.items():
                fitted[k][rows] = xt[: coef.shape[0]].T @ coef
        for k, fit in fitted.items():
            r_y[k - 1] = ds.y - groups.gather(fit[:, 0])
            r_d[k - 1] = ds.d - groups.gather(fit[:, 1])
    return NuisanceEstimate(mu_hat=mu, theta=theta, xi=xi, r_y=r_y, r_d=r_d)
