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

The rows a_i and b_i are never stored. All five aggregates are blocks of
one Gram matrix, that of [1 | a | b], which the chunked kernel
:func:`magiciv._kernel._gram` forms over the distinct instrument rows,
from the instrument matrix and per-group sums of the residual products:
the ones column gives the means, a's and b's blocks are W's columns
weighted by the outcome and exposure residuals. Each chunk of the demeaned
interaction matrix is built once, for its distinct rows, which are
gathered from z and centered at the nuisance means one chunk at a time,
so no centered copy of the distinct rows is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._groups import _identity_groups
from ._kernel import _gram
from ._lapack import _blas_threads
from .data import Dataset
from .errors import ConfigError, NumericalError
from .interactions import InteractionPlan, _check_width
from .nuisance import NuisanceEstimate, _row_groups

__all__ = [
    "MomentComponents",
    "build_components",
    "components_from_arrays",
    "gbar",
    "omega",
]


@dataclass(frozen=True, eq=False)
class MomentComponents:
    """Aggregates of the moment split g_i(beta) = a_i - beta * b_i."""

    n: int
    r: int
    abar: np.ndarray
    bbar: np.ndarray
    s0: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    c_ab: np.ndarray  # E_n[a b'], kept for the variance estimator


def _from_gram(gram: np.ndarray, n: int, r: int) -> MomentComponents:
    """Split the Gram of [1 | a | b] into means and second moments.

    The Gram is exactly symmetric, so s0, s2 and omega(beta) are too.
    """
    g = gram / n
    a, b = slice(1, r + 1), slice(r + 1, 2 * r + 1)
    c_ab = g[a, b].copy()
    return MomentComponents(
        n=n,
        r=r,
        abar=g[0, a].copy(),
        bbar=g[0, b].copy(),
        s0=g[a, a].copy(),
        s1=c_ab + c_ab.T,
        s2=g[b, b].copy(),
        c_ab=c_ab,
    )


@_blas_threads(1)
def components_from_arrays(a: np.ndarray, b: np.ndarray) -> MomentComponents:
    """Aggregates of raw (n, r) component matrices, each row its own group."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2:
        raise ConfigError("component matrices must share an (n, r) shape")
    n, r = a.shape
    blocks = [(None, None), (a, None), (b, None)]
    return _from_gram(_gram(_identity_groups(n), blocks), n, r)


@_blas_threads(1)
def build_components(
    ds: Dataset, nuis: NuisanceEstimate, plan: InteractionPlan
) -> MomentComponents:
    """Moment aggregates from the demeaned interactions and residuals.

    Column block k of a (of b) is the order-k block of the demeaned
    interaction matrix, at the nuisance means, times the order-k outcome
    (exposure) residual. The interactions are built once per distinct
    instrument row of the dataset's grouping, each chunk's rows gathered
    from ``ds.z`` and centered at ``nuis.mu_hat``, which need not be the
    sample means.
    """
    _check_width(ds.z, plan)
    if nuis.mu_hat.shape != (plan.p,):
        raise ConfigError("nuisance means do not match the plan's p")
    slices = plan.order_slices()
    for k in slices:
        if k - 1 not in nuis.r_y or k - 1 not in nuis.r_d:
            raise NumericalError(f"nuisance estimate has no residuals for order k={k}")
    blocks = [(None, None)]
    blocks += [(cols, nuis.r_y[k - 1]) for k, cols in slices.items()]
    blocks += [(cols, nuis.r_d[k - 1]) for k, cols in slices.items()]
    gram = _gram(_row_groups(ds), blocks, ds.z, nuis.mu_hat, plan)
    return _from_gram(gram, ds.n, plan.r)


def _check_beta(name: str, beta: float) -> None:
    """Raise ConfigError naming the argument ``name`` unless ``beta`` is finite."""
    if not math.isfinite(beta):
        raise ConfigError(f"{name} must be finite (got {beta})")


def gbar(mc: MomentComponents, beta: float) -> np.ndarray:
    """Empirical mean of the moment vector at beta; a beta that is not finite raises ConfigError."""
    _check_beta("beta", beta)
    return mc.abar - beta * mc.bbar


def omega(mc: MomentComponents, beta: float) -> np.ndarray:
    """Uncentered second-moment matrix E_n[g_i(beta) g_i(beta)'].

    A beta that is not finite raises ConfigError.
    """
    _check_beta("beta", beta)
    return mc.s0 - beta * mc.s1 + beta * beta * mc.s2
