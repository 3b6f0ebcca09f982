"""Interaction-strength diagnostic.

How much exposure variation do the interactions carry once the linear
instrument effects are removed? The statistic regresses the partialled-out
exposure on the demeaned interactions and reports the HC0-robust joint Wald
statistic for the interaction coefficients divided by their count. It is a
descriptive measure of identification strength, not a formal pre-test, so
no small-sample or degrees-of-freedom correction is applied. The partialling
step is the linear first stage that TSLS and the order-2 nuisance step share.

The regression is solved from its normal equations, whose Grams are
formed over the distinct instrument rows in chunks, each chunk of the
demeaned interactions built from its distinct rows, gathered from z and
centered at the sample means, into the transposed stack its syrk reads,
so no n x (r + 1) design is formed; see :func:`f_stat`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from . import _lapack
from ._kernel import _cho_factor_solve, _gram, _mirror, _stacked_chunks, _unit_cholesky
from ._lapack import _blas_threads
from .data import Dataset
from .errors import NumericalError
from .interactions import InteractionPlan, _check_width
from .nuisance import _exposure_explained, _first_stage, _row_groups, estimate_means

__all__ = ["FStatReport", "f_stat"]

# Smallest reciprocal condition estimate (LAPACK pocon, 1-norm) of X'X,
# scaled to unit diagonal, that :func:`f_stat` accepts. Solving the normal
# equations loses about log10(1 / rcond) of the sixteen digits; F_q is
# descriptive, so below 1e-10, with fewer than six left, it is refused.
_MIN_RCOND = 1e-10


@dataclass(frozen=True)
class FStatReport:
    f_value: float
    num_restrictions: int
    n_effective: int


@_blas_threads(1)
def f_stat(ds: Dataset, plan: InteractionPlan) -> FStatReport:
    """Robust Wald / r for the interaction coefficients explaining exposure.

    Steps: (1) residualize d on (intercept + z); (2) regress that residual
    on X = (intercept, demeaned interactions W at sample means); (3) HC0
    sandwich Wald statistic for the r interaction coefficients, divided by r.

    Step (2) solves the normal equations: the kernel
    :func:`magiciv._kernel._gram` forms X'X and X'd over the distinct
    instrument rows, and one Cholesky factor of X'X, with its columns
    scaled to unit diagonal, gives the coefficients. Step (3) partials the
    intercept out (Frisch-Waugh-Lovell): the Wald statistic is t' M^{-1} t
    for the centered interactions Wc = W - wbar, t = Wc'd and the meat
    M = Wc' diag(e^2) Wc, so no inverse of X'X is formed. A second pass
    over the chunks forms the fitted value of each distinct row from W's
    rows, the residual e of each row from its group's, and centers and
    scales the rows in place by the root of each group's sum of e^2 to
    accumulate M. A rank-deficient or badly conditioned X'X, or a singular
    M, raises :class:`NumericalError`; a plan built for another p raises
    :class:`ConfigError`.
    """
    _check_width(ds.z, plan)
    n, r = ds.n, plan.r
    if n <= r + 1:
        raise NumericalError(f"need n > r + 1 observations (n={n}, r={r})")
    _, d_bar = _first_stage(ds)
    if _exposure_explained(d_bar, ds.d):  # exposure exactly linear in z
        return FStatReport(f_value=0.0, num_restrictions=r, n_effective=n)

    groups, mu = _row_groups(ds), estimate_means(ds)
    m = r + 1
    gram = _gram(groups, [(None, None), (slice(0, r), None), (None, d_bar)], ds.z, mu, plan)
    s, _, coef = _unit_cholesky(  # coef: the coefficients on the scaled columns
        gram[:m, :m], gram[:m, m], _MIN_RCOND,
        "interaction regression design", "an interaction column",
    )
    # t = Wc' d_bar from X'd; M chunk by chunk, e = d_bar - X coef: the
    # fitted values of the chunk's distinct rows come from its W rows, which
    # are then centered and scaled by the root of each group's sum of e^2
    intercept, slopes = s[0] * coef[0], s[1:] * coef[1:]
    wbar = gram[0, 1:m] / n
    t = gram[1:m, m] - wbar * gram[0, m]
    meat = np.zeros((r, r), order="F")
    for rows, xt in _stacked_chunks(groups, [slice(0, r)], ds.z, mu, plan):
        fitted = xt.T @ slopes

        def squares(members, local):
            e = d_bar[members] - intercept - fitted[local]
            return e * e

        xt -= wbar[:, None]
        xt *= np.sqrt(groups.chunk_sums(rows, squares))
        meat = _lapack.ROUTINES.syrk(meat, xt)
    try:
        wald = float(t @ _cho_factor_solve(_mirror(meat), t)[1])
    except LinAlgError:
        raise NumericalError("robust covariance of interaction coefficients is singular") from None
    return FStatReport(f_value=wald / r, num_restrictions=r, n_effective=n)
