"""Interaction-strength diagnostic.

How much exposure variation do the interactions carry once the linear
instrument effects are removed? The statistic regresses the partialled-out
exposure on the demeaned interactions and reports the HC0-robust joint Wald
statistic for the interaction coefficients divided by their count. It is a
descriptive measure of identification strength, not a formal pre-test, so
no small-sample or degrees-of-freedom correction is applied. The partialling
step is the linear first stage that TSLS and the order-2 nuisance step share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import NumericalError
from .interactions import InteractionPlan
from .nuisance import _first_stage, _interactions, _lstsq, estimate_means

__all__ = ["FStatReport", "f_stat"]


@dataclass(frozen=True)
class FStatReport:
    f_value: float
    num_restrictions: int
    n_effective: int


def f_stat(ds: Dataset, plan: InteractionPlan) -> FStatReport:
    """Robust Wald / r for the interaction coefficients explaining exposure.

    Steps: (1) residualize d on (intercept + z); (2) regress that residual
    on (intercept, demeaned interactions at sample means); (3) HC0 sandwich
    Wald statistic for the r interaction coefficients, divided by r.
    """
    n, r = ds.n, plan.r
    if n <= r + 1:
        raise NumericalError(f"need n > r + 1 observations (n={n}, r={r})")
    _, d_bar, rank = _first_stage(ds)
    if rank < ds.p + 1:
        raise NumericalError(f"exposure partialling design rank {rank} < {ds.p + 1}")
    scale = max(float(np.max(np.abs(ds.d))), 1.0)
    if float(np.max(np.abs(d_bar))) <= 1e-12 * scale:
        # exposure exactly linear in z: nothing left for the interactions
        return FStatReport(f_value=0.0, num_restrictions=r, n_effective=n)

    design = np.column_stack(
        [np.ones(n), _interactions(ds, plan, estimate_means(ds))]
    )
    coef, rank = _lstsq(design, d_bar)
    if rank < design.shape[1]:
        raise NumericalError(
            f"interaction regression design rank {rank} < {design.shape[1]}"
        )
    resid = d_bar - design @ coef
    xtx_inv = np.linalg.solve(design.T @ design, np.eye(design.shape[1]))
    meat = design.T @ (design * (resid * resid)[:, None])
    vcov = xtx_inv @ meat @ xtx_inv
    gamma = coef[1:]
    try:
        wald = float(gamma @ np.linalg.solve(vcov[1:, 1:], gamma))
    except np.linalg.LinAlgError:
        raise NumericalError("robust covariance of interaction coefficients is singular") from None
    return FStatReport(f_value=wald / r, num_restrictions=r, n_effective=n)
