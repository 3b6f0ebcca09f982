"""First-stage nuisance estimation: instrument means and per-order projections.

For each interaction order k the outcome and exposure are projected onto the
non-demeaned lower-order basis W_{k-1} = (1, mains, ..., order k-1 products)
by ordinary least squares, and the per-order residuals feed the moment
construction. Each order is projected independently; the q-1 regressions are
not incrementally updated, which keeps them individually auditable.

The order-2 basis is (1, z), so its projection is also the linear first
stage that TSLS, the interaction-strength diagnostic and the efficient-GMM
baseline partial out; all of them call :func:`_first_stage`, the one place
that requires (1, z) to have full column rank. The nuisance projections
take the minimum-norm fit on a rank-deficient basis, so the main estimator
still fits duplicated instruments. Every least-squares solve in the package
goes through :func:`_lstsq`, and every projection refuses a NaN or inf cell.
The moment components, the diagnostic and efficient GMM read one demeaned
interaction matrix W per dataset and means, built by :func:`_interactions`,
and form every n·r² product they need, a Gram of weighted W columns, with
:func:`_gram`, which works through W in row chunks and so never makes an
n x r array of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np
from scipy import linalg
from scipy.linalg import get_blas_funcs, get_lapack_funcs

from .data import Dataset, _require_finite
from .errors import NumericalError
from .interactions import InteractionPlan, basis_matrix, demeaned_matrix

__all__ = [
    "NuisanceEstimate",
    "estimate_means",
    "fit_nuisance",
]


@dataclass(frozen=True, eq=False)
class NuisanceEstimate:
    """Sample means plus per-order projection coefficients and residuals.

    ``theta[k-1]`` and ``xi[k-1]`` hold the outcome and exposure coefficients
    on the order-(k-1) basis W, for k = 2..q; ``r_y[k-1] = y - W theta[k-1]``
    and ``r_d[k-1] = d - W xi[k-1]`` are the matching residuals.
    """

    mu_hat: np.ndarray
    theta: Mapping[int, np.ndarray]
    xi: Mapping[int, np.ndarray]
    r_y: Mapping[int, np.ndarray]
    r_d: Mapping[int, np.ndarray]


def estimate_means(ds: Dataset) -> np.ndarray:
    """Columnwise sample means of the instrument matrix."""
    return ds.z.mean(axis=0)


def _interactions(ds: Dataset, plan: InteractionPlan, mu: np.ndarray) -> np.ndarray:
    """Read-only n x r demeaned interaction matrix of ``ds`` at means ``mu``.

    Memoized on the dataset per (p, q, mu), so the moment components, the
    interaction-strength diagnostic and efficient GMM share one build; other
    means get their own entry.
    """
    mu = np.asarray(mu, dtype=float)
    key = (plan.p, plan.q, mu.tobytes())
    w = ds._interactions.get(key)
    if w is None:
        w = demeaned_matrix(ds.z, mu, plan)
        w.setflags(write=False)
        ds._interactions[key] = w
    return w


# Rows per chunk of the Gram kernel: enough for BLAS to run at full speed,
# few enough that the chunk buffer stays a small fraction of W at large n.
_GRAM_ROWS = 2048

(_SYRK,) = get_blas_funcs(("syrk",), (np.empty(0),))
_POTRF, _POTRS = get_lapack_funcs(("potrf", "potrs"), (np.empty(0),))


def _gram(
    n: int, blocks: Sequence[tuple[Optional[np.ndarray], Optional[np.ndarray]]]
) -> np.ndarray:
    """Exactly symmetric Gram X'X of the n-row column stack X of ``blocks``.

    Each block is (x, v): an (n, m) matrix, or None for one column of ones,
    scaled row by row by the n-vector v (None leaves it unscaled). X is
    written ``_GRAM_ROWS`` rows at a time into one reused buffer, and each
    chunk is added into the upper triangle by a BLAS syrk, so no n-row array
    is made. A ones block puts the column sums of the others in its row.
    """
    widths = [1 if x is None else x.shape[1] for x, _ in blocks]
    m = sum(widths)
    gram = np.zeros((m, m), order="F")
    buf = np.empty((min(n, _GRAM_ROWS), m))
    for start in range(0, n, _GRAM_ROWS):
        rows = slice(start, min(start + _GRAM_ROWS, n))
        chunk = buf[: rows.stop - start]
        col = 0
        for (x, v), width in zip(blocks, widths):
            dst = chunk[:, col:col + width]
            if x is None:
                dst[:, 0] = 1.0 if v is None else v[rows]
            elif v is None:
                dst[...] = x[rows]
            else:
                np.multiply(x[rows], v[rows, None], out=dst)
            col += width
        # chunk.T is Fortran-ordered, so BLAS reads the buffer in place
        gram = _SYRK(1.0, chunk.T, beta=1.0, c=gram, overwrite_c=1)
    upper = np.triu_indices(m, 1)
    gram.T[upper] = gram[upper]
    return gram


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``a``, as ``cho_factor(a, lower=True)`` gives it.

    Raises :class:`scipy.linalg.LinAlgError` when ``a`` is not positive
    definite.
    """
    c, info = _POTRF(a, lower=1, clean=0)
    if info > 0:
        raise linalg.LinAlgError(f"{info}-th leading minor is not positive definite")
    return c


def _cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b from the lower Cholesky factor ``c`` of a."""
    return _POTRS(c, b, lower=1)[0]


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
    coef, _, rank, _ = linalg.lstsq(
        design,
        rhs,
        cond=np.finfo(float).eps * max(design.shape),
        lapack_driver="gelsy",
        check_finite=False,
    )
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
    _, _, r_y, r_d, rank = _project(ds, np.column_stack([np.ones(ds.n), ds.z]))
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


def fit_nuisance(ds: Dataset, plan: InteractionPlan) -> NuisanceEstimate:
    """Estimate means and all per-order projections for orders 2..q."""
    theta: dict[int, np.ndarray] = {}
    xi: dict[int, np.ndarray] = {}
    r_y: dict[int, np.ndarray] = {}
    r_d: dict[int, np.ndarray] = {}
    for k in range(2, plan.q + 1):
        design = basis_matrix(ds.z, plan, k)
        theta[k - 1], xi[k - 1], r_y[k - 1], r_d[k - 1], _ = _project(ds, design)
    return NuisanceEstimate(mu_hat=estimate_means(ds), theta=theta, xi=xi, r_y=r_y, r_d=r_d)
