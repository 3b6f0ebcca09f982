"""Reference estimators: TSLS and the fixed-dimension efficient two-step
GMM with its variance-bound estimate.

These exist for comparison with the main estimator. TSLS is inconsistent
whenever instruments have direct outcome effects; the interaction-based
estimators stay valid because demeaned products of mutually independent
instruments are orthogonal to any linear instrument effect. Two published
comparator methods built on instrument-selection rules (two-stage hard
thresholding, adaptive Lasso) are deliberately out of scope: they carry
their own tuning stacks and are available in their authors' packages.

TSLS and the efficient-GMM direct-effect regression share one linear first
stage, the residuals of y and d on (1, z); it is the same projection as the
order-2 nuisance step of the main estimator. Efficient GMM makes one pass
over the demeaned interactions of the distinct instrument rows, in chunks,
like the main estimator's moments: each chunk's rows, against the
per-group sums of the two moment weights, give its two moment vectors, and
then, scaled in place by the root of each group's summed squared residual,
the Gram of its weighting matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _lapack
from ._kernel import _cho_factor_solve, _mirror, _stacked_chunks
from ._lapack import _blas_threads
from .cue import _ridge_ladder
from .data import Dataset
from .errors import IdentificationError, NumericalError
from .interactions import InteractionPlan, _check_width
from .moments import _check_beta
from .nuisance import _exposure_explained, _first_stage, _row_groups, estimate_means

__all__ = ["BaselineResult", "tsls", "efficient_fixed_r"]


@dataclass(frozen=True)
class BaselineResult:
    method: str  # "tsls" | "efficient_fixed_r"
    beta_hat: float
    se: float
    extra: dict = field(default_factory=dict)


@_blas_threads(1)
def tsls(ds: Dataset) -> BaselineResult:
    """Two-stage least squares of y on d instrumented by all of z, with
    intercept and heteroskedasticity-robust (HC0) standard error.

    A fitted exposure d - r_d that does not vary beyond rounding, by the
    rule max(d - r_d) - min(d - r_d) <= 1e-12 * max(max|d|, 1), leaves the
    projected design singular and raises :class:`NumericalError`; an
    exposure linear in z still fits (TSLS is then OLS). The exposure and
    its fitted values are centered at the fitted values' mean before the
    solve, so a fitted exposure that varies little against its level does
    not drown in the rounding of the uncentered normal equations.
    """
    n = ds.n
    _, r_d = _first_stage(ds)
    d_hat = ds.d - r_d
    if float(np.ptp(d_hat)) <= 1e-12 * max(float(np.max(np.abs(ds.d))), 1.0):
        raise NumericalError("projected design is singular (no exposure variation)")
    center = float(np.mean(d_hat))
    x = np.column_stack([np.ones(n), ds.d - center])
    x_hat = np.column_stack([np.ones(n), d_hat - center])
    xtx = x_hat.T @ x_hat
    try:
        coef = np.linalg.solve(xtx, x_hat.T @ ds.y)
    except np.linalg.LinAlgError:
        raise NumericalError("projected design is singular (no exposure variation)") from None
    resid = ds.y - x @ coef
    meat = x_hat.T @ (x_hat * (resid * resid)[:, None])
    bread = np.linalg.solve(xtx, np.eye(2))
    vcov = bread @ meat @ bread
    return BaselineResult(
        method="tsls",
        beta_hat=float(coef[1]),
        se=math.sqrt(max(vcov[1, 1], 0.0)),
        extra={"intercept": float(coef[0] - coef[1] * center)},
    )


@_blas_threads(1)
def efficient_fixed_r(
    ds: Dataset, plan: InteractionPlan, beta_init: Optional[float] = None
) -> BaselineResult:
    """Two-step GMM on the interaction moments with optimally weighted score.

    A first-step beta (TSLS by default) is used only to form the weighting:
    the direct effects are the least-squares fit of y - d*beta_init on
    (intercept + z), whose residual is r_y - beta_init*r_d by linearity of
    the shared first stage; the moment covariance is taken at beta_init,
    weighted by the CUE's ridge ladder, and the estimate solves the scalar
    moment weighted by Omega^{-1} M. The first step affects weighting
    efficiency only, not consistency, because the interaction moments hold
    for any instrument direct effects. ``extra`` carries the fixed-dimension
    variance bound estimate (M' Omega^{-1} M)^{-1} / n.

    An exposure that the (1, z) first stage explains, by the rule
    :func:`magiciv.diagnostics.f_stat` uses to report ``F_q = 0``, raises
    :class:`IdentificationError` before any first step is taken: the
    interaction moments then carry no exposure signal. A plan built for
    another p, or a ``beta_init`` that is not finite, raises
    :class:`ConfigError`.
    """
    _check_width(ds.z, plan)
    if beta_init is not None:
        _check_beta("beta_init", beta_init)
    r_y, r_d = _first_stage(ds)
    if _exposure_explained(r_d, ds.d):
        raise IdentificationError(
            "exposure is exactly explained by the linear first stage (1, z): "
            "no interaction carries exposure signal"
        )
    if beta_init is None:
        beta_init = tsls(ds).beta_hat
    n = ds.n
    groups, mu = _row_groups(ds), estimate_means(ds)
    resid0 = r_y - beta_init * r_d
    # one pass over W: the moment is affine in beta,
    # E_n[w (resid0 + beta_init d)] - beta E_n[w d], and both sums are taken
    # from W's rows, against each group's sums of the two, before the rows
    # are scaled by the root of each group's sum of resid0^2 for Omega's Gram
    level = groups.sums(resid0 + beta_init * ds.d)
    exposure = groups.sums(ds.d)
    root = np.sqrt(groups.sums(resid0 * resid0))
    a_sum, b_sum = np.zeros(plan.r), np.zeros(plan.r)
    gram = np.zeros((plan.r, plan.r), order="F")
    for rows, w in _stacked_chunks(groups, [slice(0, plan.r)], ds.z, mu, plan):
        a_sum += w @ level[rows]
        b_sum += w @ exposure[rows]
        w *= root[rows]
        gram = _lapack.ROUTINES.syrk(gram, w)
    om = _mirror(gram) / n
    a_vec, b_vec = a_sum / n, b_sum / n
    m_vec = -b_vec
    if float(np.max(np.abs(m_vec))) == 0.0:
        raise NumericalError("relevance vector is identically zero")
    # every residual moment vanished at beta_init (noiseless exact fit): the
    # weighting is immaterial and the bound degenerates to zero
    noisy = om.any()
    theta_opt = m_vec
    if noisy:
        (_, theta_opt), _ = _ridge_ladder(om, 0.0, lambda a: _cho_factor_solve(a, m_vec))
    denom = float(theta_opt @ b_vec)
    if denom == 0.0:
        raise NumericalError("weighted moment has zero slope in beta")
    beta_hat = float(theta_opt @ a_vec) / denom
    bound = 1.0 / float(m_vec @ theta_opt) / n if noisy else 0.0
    return BaselineResult(
        method="efficient_fixed_r",
        beta_hat=beta_hat,
        se=math.sqrt(max(bound, 0.0)),
        extra={"bound": bound, "beta_first_step": float(beta_init)},
    )
