"""Per-observation moment components and empirical moment objects.

The stacked moment vector for observation i is linear in beta:

    g_i(beta) = a_i - beta * b_i,

where the order-k block of a_i is the demeaned order-k interaction vector
times the order-k outcome residual, and b_i the same with the exposure
residual. The moment derivative is exactly -b_i. Everything the objective
needs is therefore captured by five precomputed aggregates: the column means
of a and b and the three r x r second-moment matrices

    s0 = E_n[a a'],  s1 = E_n[a b' + b a'],  s2 = E_n[b b'],

so each evaluation of the empirical mean or weighting matrix is O(r^2)
instead of O(n r^2). The weighting matrix uses uncentered second moments,
which is what the overidentification statistic is defined with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError, NumericalError
from .interactions import InteractionPlan
from .nuisance import NuisanceEstimate, _interactions

__all__ = [
    "MomentComponents",
    "build_components",
    "components_from_arrays",
    "gbar",
    "omega",
]


@dataclass(frozen=True, eq=False)
class MomentComponents:
    """Moment split g_i(beta) = a_i - beta * b_i plus cached aggregates."""

    a: np.ndarray
    b: np.ndarray
    n: int
    r: int
    abar: np.ndarray
    bbar: np.ndarray
    s0: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    c_ab: np.ndarray  # E_n[a b'], kept for the variance estimator


def components_from_arrays(a: np.ndarray, b: np.ndarray) -> MomentComponents:
    """Wrap raw component matrices, computing the cached aggregates."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2:
        raise ConfigError("component matrices must share an (n, r) shape")
    n, r = a.shape
    s0 = a.T @ a / n
    s2 = b.T @ b / n
    c_ab = a.T @ b / n
    # exact symmetry so omega(beta) is symmetric to the last bit
    s0 = 0.5 * (s0 + s0.T)
    s2 = 0.5 * (s2 + s2.T)
    return MomentComponents(
        a=a,
        b=b,
        n=n,
        r=r,
        abar=a.mean(axis=0),
        bbar=b.mean(axis=0),
        s0=s0,
        s1=c_ab + c_ab.T,
        s2=s2,
        c_ab=c_ab,
    )


def build_components(
    ds: Dataset, nuis: NuisanceEstimate, plan: InteractionPlan
) -> MomentComponents:
    """Assemble the n x r component matrices and their second-moment caches."""
    if nuis.mu_hat.shape != (plan.p,):
        raise ConfigError("nuisance means do not match the plan's p")
    w = _interactions(ds, plan, nuis.mu_hat)
    a = np.empty((ds.n, plan.r))
    b = np.empty((ds.n, plan.r))
    for k, cols in plan.order_slices().items():
        if k - 1 not in nuis.r_y or k - 1 not in nuis.r_d:
            raise NumericalError(f"nuisance estimate has no residuals for order k={k}")
        np.multiply(w[:, cols], nuis.r_y[k - 1][:, None], out=a[:, cols])
        np.multiply(w[:, cols], nuis.r_d[k - 1][:, None], out=b[:, cols])
    return components_from_arrays(a, b)


def gbar(mc: MomentComponents, beta: float) -> np.ndarray:
    """Empirical mean of the moment vector at beta."""
    return mc.abar - beta * mc.bbar


def omega(mc: MomentComponents, beta: float) -> np.ndarray:
    """Uncentered second-moment matrix E_n[g_i(beta) g_i(beta)']."""
    return mc.s0 - beta * mc.s1 + beta * beta * mc.s2
