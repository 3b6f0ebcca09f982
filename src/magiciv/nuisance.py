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
order's, each order's leading block is scaled to unit diagonal and factored
by :func:`_unit_cholesky`, the guard :func:`magiciv.diagnostics.f_stat`
shares, and one more pass over the chunks forms the residuals. An order
whose Gram fails that guard takes the gelsy fit on its explicit basis
instead, so the main estimator still fits duplicated instruments, at their
minimum norm.

No fit holds the n x r demeaned interaction matrix W, and outside that
fallback no basis of order k >= 3 either. The nuisance projections, the
moment components, the diagnostic and efficient GMM pass the centered
instruments z - mu and the plan to :func:`_gram`, which forms every Gram
they need from weighted W columns and other n-row blocks. It holds one row
chunk of that column stack X transposed, X' C-ordered, in one buffer: the
product kernel writes the chunk's rows of W, up to the highest order read,
straight into it, the other blocks are written beside them, and a syrk
reads it in place. A consumer that needs W's rows for anything else, the
diagnostic's residual and efficient GMM's moment vectors, reads them from
the same buffer in :func:`_stacked_chunks` before it scales them. The
widest n-row arrays of a fit are then the first stage's (1, z) design and
the centered instruments, about p + 1 columns each.

BLAS threads: every public function of the package that calls BLAS or
LAPACK holds each loaded BLAS at one thread while it runs, through the
:func:`_one_blas_thread` decorator over :func:`_blas_threads`. Results then
do not depend on the machine's thread count, and threads that only spin
between the many small solves cost no CPU. The libraries are found on the
first pin and kept for the life of the process: through threadpoolctl
when it imports, which also covers MKL and BLIS, and otherwise each
OpenBLAS in /proc/self/maps through ctypes. The thread count is
process-global, so concurrent callers in one process can race on it.

BLAS and LAPACK: syrk, potrf, potrs, pocon and gelsy come from the
OpenBLAS that numpy's linear-algebra extension loads, bound through
ctypes by :mod:`magiciv._lapack`, so no scipy is imported and numpy's is
the only BLAS in the process. Where numpy's library does not export them
(Accelerate, MKL or conda builds), scipy's wrappers stand in; they are
chosen at import, before the first pin, so the scan above finds scipy's
BLAS too. :func:`_syrk_add`, :func:`_cholesky`, :func:`_cho_solve`,
:func:`_unit_cholesky` and :func:`_lstsq` are the only callers.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate, product
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np
from numpy.linalg import LinAlgError

from . import _lapack
from .data import Dataset, _require_finite
from .errors import ConfigError, NumericalError
from . import interactions
from .interactions import ROW_BLOCK, InteractionPlan

try:  # covers MKL and BLIS builds as well as OpenBLAS
    from threadpoolctl import ThreadpoolController
except ImportError:  # the ctypes scan below handles OpenBLAS
    ThreadpoolController = None

__all__ = [
    "NuisanceEstimate",
    "estimate_means",
    "fit_nuisance",
]

# (get, set) thread-count functions of each loaded BLAS, found on first use
_BLAS_CONTROLS: Optional[list[tuple[Callable[[], int], Callable[[int], None]]]] = None


def _scan_openblas() -> list[tuple[Callable[[], int], Callable[[int], None]]]:
    """(get, set) thread-count functions of each OpenBLAS in /proc/self/maps.

    numpy bundles one, and so does scipy where its wrappers stand in for
    numpy's LAPACK; a library without the functions is skipped, and where
    /proc is missing the list is empty.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return []
    controls = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in product(("scipy_openblas", "openblas"), ("64_", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return controls


def _blas_controls() -> list[tuple[Callable[[], int], Callable[[int], None]]]:
    """(get, set) thread-count functions of every BLAS this process has loaded.

    Found on the first call and kept: from one threadpoolctl controller
    when threadpoolctl imports, otherwise by :func:`_scan_openblas`.
    """
    global _BLAS_CONTROLS
    if _BLAS_CONTROLS is None:
        if ThreadpoolController is not None:
            _BLAS_CONTROLS = [
                (lib.get_num_threads, lib.set_num_threads)
                for lib in ThreadpoolController().lib_controllers
            ]
        else:
            _BLAS_CONTROLS = _scan_openblas()
    return _BLAS_CONTROLS


@contextmanager
def _blas_threads(count: int) -> Iterator[None]:
    """Hold every loaded BLAS at ``count`` threads; restore the old counts on exit.

    A library already at ``count`` is only read, so a pin nested inside
    another at the same count sets nothing. A BLAS that neither
    threadpoolctl nor the OpenBLAS scan recognises stays as it is.
    """
    changed = [(set_, old) for get, set_ in _blas_controls() if (old := get()) != count]
    try:
        for set_, _ in changed:
            set_(count)
        yield
    finally:
        for set_, old in changed:
            set_(old)


def _one_blas_thread(fn):
    """Decorator: run ``fn`` with every loaded BLAS held at one thread."""

    @functools.wraps(fn)
    def pinned(*args, **kwargs):
        with _blas_threads(1):
            return fn(*args, **kwargs)

    return pinned


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


# syrk, potrf, potrs, pocon and gelsy: from numpy's OpenBLAS, or scipy's
# wrappers where numpy's library does not export them
_LAPACK = _lapack.ROUTINES

# Smallest reciprocal condition estimates (LAPACK pocon, 1-norm) that
# :func:`_unit_cholesky` accepts for a Gram X'X scaled to unit diagonal.
# Solving the normal equations loses about log10(1 / rcond) of the sixteen
# digits. F_q is descriptive, so below 1e-10, with fewer than six left, the
# regression is refused. The nuisance residuals feed beta_hat, which should
# move from the minimum-norm gelsy fit by rounding only, so below 1e-4,
# where more than four digits would go, the projection is fitted by gelsy
# instead. The demeaned basis keeps this far away: the scaled Grams of 56
# simulated fits (Scenarios I-IV, p = 4-12, q = 3-5) measured 0.16-0.64.
_MIN_RCOND = 1e-10
_NUISANCE_MIN_RCOND = 1e-4


def _syrk_add(gram: np.ndarray, xt: np.ndarray) -> np.ndarray:
    """Add X'X into the upper triangle of the Fortran-ordered ``gram``; ``xt`` is X'.

    ``xt`` is C-ordered, so its transpose X is Fortran-ordered and BLAS
    reads it in place. On OpenBLAS this syrk, trans='T' on X, gives the
    same bits as trans='N' on X' held Fortran-ordered (C-ordered rows of
    X), so a Gram does not depend on which of the two layouts holds its
    rows; tests/test_moments.py checks it at widths 3-573.
    """
    return _LAPACK.syrk(gram, xt.T, True)


def _mirror(gram: np.ndarray) -> np.ndarray:
    """Copy the upper triangle of ``gram`` into its lower one: exactly symmetric."""
    for j in range(gram.shape[0] - 1):
        gram[j + 1:, j] = gram[j, j + 1:]
    return gram


def _widths(blocks) -> list[int]:
    """Column count of each (x, v) block of :func:`_stacked_chunks`."""
    return [
        1 if x is None else x.stop - x.start if isinstance(x, slice) else x.shape[1]
        for x, _ in blocks
    ]


def _home_run(blocks) -> list[int]:
    """Indices of the run of slice blocks that the product kernel writes into.

    Slice blocks come in runs over W's leading columns: a run is
    consecutive blocks whose first slice starts at column 0 and whose
    every next slice starts where the one before it stopped. The home run
    is the last of those reading the most columns; every other run reads a
    prefix of it. Empty when no block is a slice.
    """
    runs: list[list[int]] = []
    for i, (x, _) in enumerate(blocks):
        if not isinstance(x, slice):
            continue
        if x.start == 0:
            runs.append([i])
        elif runs and runs[-1][-1] == i - 1 and blocks[i - 1][0].stop == x.start:
            runs[-1].append(i)
        else:
            raise ValueError(f"slice block {i} ({x}) does not continue a run from column 0")
    return max(reversed(runs), key=lambda run: blocks[run[-1]][0].stop, default=[])


def _stacked_chunks(
    n: int,
    blocks: Sequence[tuple[Union[np.ndarray, slice, None], Optional[np.ndarray]]],
    zc: Optional[np.ndarray] = None,
    plan: Optional[InteractionPlan] = None,
) -> Iterator[tuple[slice, np.ndarray]]:
    """(rows, xt) for each ``ROW_BLOCK``-row chunk of the column stack X of ``blocks``.

    Each block is (x, v), scaled row by row by the n-vector v (None leaves
    it unscaled). x is an (n, m) matrix; None, for one column of ones; or a
    slice with explicit bounds, for those columns of the demeaned
    interaction matrix W at centered instruments ``zc`` under ``plan``.
    Slice blocks come in runs that read W's leading columns (see
    :func:`_home_run`). The product kernel writes the chunk's rows of W,
    up to the highest column the slices read, straight into the rows of
    the home run; the other runs are scaled copies of them, and then the
    home run's blocks are scaled in place. ``xt`` is X' for the chunk:
    C-ordered (width, m), a view of one flat buffer that the next chunk
    overwrites, reshaped per chunk so that a short last chunk is
    contiguous too.
    """
    widths = _widths(blocks)
    *offsets, width = accumulate(widths, initial=0)
    flat = np.empty(width * min(n, ROW_BLOCK))
    home = _home_run(blocks)
    if home:
        stop = blocks[home[-1]][0].stop
        top = next(k for k, cols in plan.order_slices().items() if cols.stop >= stop)
        w_rows = slice(offsets[home[0]], offsets[home[0]] + stop)
        chunks = interactions._transposed_blocks(zc)
    else:
        chunks = ((slice(s, min(s + ROW_BLOCK, n)), None) for s in range(0, n, ROW_BLOCK))
    for rows, zt in chunks:
        xt = flat[: width * (rows.stop - rows.start)].reshape(width, -1)
        if home:
            w = xt[w_rows]
            interactions._fill_products(zt, plan, top, w)
        for i, ((x, v), off, wid) in enumerate(zip(blocks, offsets, widths)):
            if i in home:
                continue
            dst = xt[off:off + wid]
            if x is None:
                dst[0] = 1.0 if v is None else v[rows]
                continue
            src = w[x] if isinstance(x, slice) else x[rows].T
            if v is None:
                dst[...] = src
            else:
                np.multiply(src, v[rows], out=dst)
        for i in home:
            x, v = blocks[i]
            if v is not None:
                w[x] *= v[rows]
        yield rows, xt


def _gram(
    n: int,
    blocks: Sequence[tuple[Union[np.ndarray, slice, None], Optional[np.ndarray]]],
    zc: Optional[np.ndarray] = None,
    plan: Optional[InteractionPlan] = None,
) -> np.ndarray:
    """Exactly symmetric Gram X'X of the n-row column stack X of ``blocks``.

    The blocks are those of :func:`_stacked_chunks`, which writes X'
    ``ROW_BLOCK`` columns at a time into one reused buffer; each chunk is
    added into the upper triangle by a BLAS syrk, so no n-row array is
    made. A ones block puts the column sums of the others in its row.
    """
    m = sum(_widths(blocks))
    gram = np.zeros((m, m), order="F")
    for _, xt in _stacked_chunks(n, blocks, zc, plan):
        gram = _syrk_add(gram, xt)
    return _mirror(gram)


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``a``, as ``cho_factor(a, lower=True)`` gives it.

    LAPACK potrf on a Fortran-ordered copy: the lower triangle holds the
    factor, bit for bit ``np.linalg.cholesky(a)``'s on numpy's own library,
    and the upper one keeps a's entries. Raises
    :class:`numpy.linalg.LinAlgError`, naming the first leading minor that
    is not positive definite, when ``a`` is not.
    """
    c, info = _LAPACK.potrf(a)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor is not positive definite")
    return c


def _unit_cholesky(
    xtx: np.ndarray, min_rcond: float, what: str, column: str
) -> tuple[np.ndarray, np.ndarray]:
    """Column scales s and the lower Cholesky factor of diag(s) xtx diag(s).

    s = diag(xtx)^(-1/2) scales the Gram to unit diagonal, so the factor and
    its condition estimate do not depend on the columns' units. Raises
    :class:`NumericalError` naming the design ``what`` when a diagonal entry
    is not positive (``column`` names that column), when the factorization
    fails, or when the reciprocal condition estimate is below ``min_rcond``.
    """
    m = xtx.shape[0]
    diag = np.diag(xtx)
    if not np.all(diag > 0.0):
        raise NumericalError(f"{what} rank < {m}: {column} is zero")
    s = 1.0 / np.sqrt(diag)
    scaled = xtx * s[:, None] * s
    try:
        factor = _cholesky(scaled)
    except LinAlgError as exc:
        raise NumericalError(f"{what} rank < {m}: X'X factorization failed ({exc})") from None
    rcond = _LAPACK.pocon(factor, float(np.max(np.sum(np.abs(scaled), axis=0))))
    if not rcond >= min_rcond:
        raise NumericalError(
            f"{what} is ill-conditioned: reciprocal condition "
            f"estimate of X'X {rcond:.3e} < {min_rcond:.0e}"
        )
    return s, factor


def _cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b from the lower Cholesky factor ``c`` of a."""
    return _LAPACK.potrs(c, b)


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
    coef, rank = _LAPACK.gelsy(design, rhs, np.finfo(float).eps * max(design.shape))
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


def _linear_projection(ds: Dataset):
    """:func:`_project` of y and d on (1, z), memoized on ``ds``; arrays read-only.

    TSLS, the interaction-strength diagnostic, efficient GMM and the
    order-2 nuisance step all read this one fit.
    """
    if not ds._first_stage:
        fit = _project(ds, np.column_stack([np.ones(ds.n), ds.z]))
        for arr in fit[:4]:
            arr.setflags(write=False)
        ds._first_stage.append(fit)
    return ds._first_stage[0]


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


@_one_blas_thread
def fit_nuisance(ds: Dataset, plan: InteractionPlan) -> NuisanceEstimate:
    """Estimate means and all per-order projections for orders 2..q.

    The order-2 projection is the dataset's memoized (1, z) fit, taken at
    its minimum norm when (1, z) is rank-deficient. Each order k >= 3 is
    projected on (1, z - mu_hat, demeaned products of orders 2..k-1) by its
    normal equations: one streamed Gram of that basis beside y and d holds
    them for every order, each order's leading block is factored by
    :func:`_unit_cholesky`, and one more pass over the chunks forms the
    residuals. An order whose Gram fails to factor, or whose reciprocal
    condition estimate is below 1e-4, is fitted by :func:`_project` on the
    explicit basis instead, at its minimum norm.
    """
    if ds.p != plan.p:
        raise ConfigError(f"row width {ds.p} does not match plan built for p={plan.p}")
    theta: dict[int, np.ndarray] = {}
    xi: dict[int, np.ndarray] = {}
    r_y: dict[int, np.ndarray] = {}
    r_d: dict[int, np.ndarray] = {}
    theta[1], xi[1], r_y[1], r_d[1], _ = _linear_projection(ds)
    mu = estimate_means(ds)
    if plan.q == 2:  # q = 2 reads only the (1, z) fit
        return NuisanceEstimate(mu_hat=mu, theta=theta, xi=xi, r_y=r_y, r_d=r_d)

    zc = ds.z - mu
    lead = 1 + ds.p
    slices = plan.order_slices()

    def basis(k):  # blocks of (1, z - mu, products of orders 2..k-1)
        return [(None, None), (zc, None), (slice(0, slices[k - 1].stop), None)]

    targets = [(ds.y[:, None], None), (ds.d[:, None], None)]
    gram = _gram(ds.n, basis(plan.q) + targets, zc, plan)
    coefs = {}
    for k in range(3, plan.q + 1):
        m = lead + slices[k - 1].stop
        try:
            s, factor = _unit_cholesky(
                gram[:m, :m], _NUISANCE_MIN_RCOND, f"order-{k} nuisance basis", "a basis column"
            )
        except NumericalError:
            # the C-ordered [1 | z - mu | products of orders 2..k-1], filled in place
            design = np.empty((ds.n, m))
            design[:, 0] = 1.0
            design[:, 1:lead] = zc
            interactions._products(zc, plan, k - 1, design[:, lead:])
            theta[k - 1], xi[k - 1], r_y[k - 1], r_d[k - 1], _ = _project(ds, design)
            continue
        coefs[k] = s[:, None] * _cho_solve(factor, s[:, None] * gram[:m, -2:])
        theta[k - 1], xi[k - 1] = np.ascontiguousarray(coefs[k].T)
        r_y[k - 1], r_d[k - 1] = np.empty(ds.n), np.empty(ds.n)
    if coefs:
        for rows, xt in _stacked_chunks(ds.n, basis(max(coefs)), zc, plan):
            for k, coef in coefs.items():
                fitted = xt[: coef.shape[0]].T @ coef
                r_y[k - 1][rows] = ds.y[rows] - fitted[:, 0]
                r_d[k - 1][rows] = ds.d[rows] - fitted[:, 1]
    return NuisanceEstimate(mu_hat=mu, theta=theta, xi=xi, r_y=r_y, r_d=r_d)
