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
and solved by :func:`_unit_cholesky`, the guard
:func:`magiciv.diagnostics.f_stat` shares, and one more pass over the
chunks forms the residuals. An order whose Gram fails that guard takes the
gelsy fit on its explicit basis instead, so the main estimator still fits
duplicated instruments, at their minimum norm.

No fit holds the n x r demeaned interaction matrix W, and outside that
fallback no basis of order k >= 3 either. Every Gram of a fit is a sum over
the rows i of x(z_i) x(z_i)' times row weights, where x, the ones, the
centered instruments or columns of W, depends on the instrument row z_i
only. Instrument rows repeat (genetic variants, Bernoulli instruments), so
each Gram is formed over the distinct rows u instead, with the weight
products summed within each group: sum_u x(u) x(u)' sum_{i in u} v_i w_i.
:func:`_row_groups` groups the rows once per dataset and memoizes the
:class:`RowGroups` record beside the (1, z) fit: the distinct rows, each
row's group and the distinct rows centered at mu_hat, so no consumer forms
an n x p centered copy. Rows that never repeat give the identity grouping,
U = n, group i row i, and the same arithmetic as over the rows.

The nuisance projections, the moment components, the diagnostic and
efficient GMM pass the groups, the centered distinct rows and the plan to
:func:`_gram`, which forms every Gram they need from weighted W columns
and other row functions. It holds ``ROW_BLOCK`` distinct rows of the stack
F of those functions transposed, F' C-ordered, in one buffer: the product
kernel writes the chunk's rows of W, up to the highest order read,
straight into it, and the other functions are written beside them. Blocks
that share a weight form a class, scaled in place in F or copied, scaled,
into scratch rows below it, so that a syrk reads X in block order; classes
meet in gemms over the repeated rows (see :func:`_gram`). A consumer that
needs W's rows for anything else, the nuisance residuals, the diagnostic's
residual and efficient GMM's moment vectors, reads them from the same
buffer in :func:`_stacked_chunks` before it scales them, and its per-row
values come from per-group ones by the group index. The widest n-row arrays of a
fit are then the first stage's (1, z) design and the instrument matrix
itself, about p + 1 columns each.

BLAS threads: every public function of the package that calls BLAS or
LAPACK holds its BLAS at one thread while it runs, under the decorator
``@_blas_threads(1)``. Results then do not depend on the machine's thread
count, and threads that only spin between the many small solves cost no
CPU. The libraries are found on the first pin and kept for the life of
the process: through threadpoolctl when it imports, which also covers MKL
and BLIS, and otherwise the OpenBLAS thread-count functions that
:mod:`magiciv._lapack` finds on the handles it binds the routines on, so
each library the package calls is pinned and no other. The thread count
is process-global, so concurrent callers in one process can race on it.

BLAS and LAPACK: syrk, potrs, posv, pocon and gelsy come from the OpenBLAS
that numpy's linear-algebra extension loads, bound through ctypes by
:mod:`magiciv._lapack`, so no scipy is imported and numpy's is the only
BLAS in the process. Where numpy's library does not export them
(Accelerate, MKL or conda builds), scipy's wrappers stand in, and scipy's
BLAS is pinned beside numpy's. :func:`_syrk_add`, :func:`_cho_solve`,
:func:`_cho_factor_solve` (every Cholesky factor, by posv) and
:func:`_lstsq` are the only callers; the cross-class products of
:func:`_gram` are numpy matrix products on numpy's library.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np
from numpy.linalg import LinAlgError

from . import _lapack
from .data import Dataset, _require_finite
from .errors import NumericalError
from . import interactions
from .interactions import ROW_BLOCK, InteractionPlan

try:  # covers MKL and BLIS builds as well as OpenBLAS
    from threadpoolctl import ThreadpoolController
except ImportError:  # magiciv._lapack pins the OpenBLAS it binds
    ThreadpoolController = None

__all__ = [
    "NuisanceEstimate",
    "estimate_means",
    "fit_nuisance",
]

# (get, set) thread-count functions of each BLAS to pin, found on first use
_BLAS_CONTROLS: Optional[list[tuple[Callable[[], int], Callable[[int], None]]]] = None


def _blas_controls() -> list[tuple[Callable[[], int], Callable[[int], None]]]:
    """(get, set) thread-count functions of the BLAS libraries to pin, found once and kept.

    From threadpoolctl when it imports, which reaches every loaded BLAS, MKL and
    BLIS too; otherwise :data:`magiciv._lapack.THREADS`, one per library the package calls.
    """
    global _BLAS_CONTROLS
    if _BLAS_CONTROLS is None:
        _BLAS_CONTROLS = _lapack.THREADS if ThreadpoolController is None else [
            (lib.get_num_threads, lib.set_num_threads)
            for lib in ThreadpoolController().lib_controllers
        ]
    return _BLAS_CONTROLS


@contextmanager
def _blas_threads(count: int) -> Iterator[None]:
    """Hold each BLAS to pin at ``count`` threads; restore the old counts on exit.

    A library already at ``count`` is only read, so a pin nested inside
    another at the same count sets nothing. A BLAS that
    :func:`_blas_controls` does not list stays as it is.
    ``@_blas_threads(1)`` pins each call of the function it decorates.
    """
    changed = [(set_, old) for get, set_ in _blas_controls() if (old := get()) != count]
    try:
        for set_, _ in changed:
            set_(count)
        yield
    finally:
        for set_, old in changed:
            set_(old)


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


@dataclass(frozen=True, eq=False)
class RowGroups:
    """The distinct instrument rows of a dataset and the group of each row.

    ``rows`` holds the U distinct rows of z: first the ``repeated`` ones
    that stand for two rows or more, then those that stand for one, each
    part in a fixed order set by the values. ``index`` is the group of
    each of the n rows, ``counts`` the group sizes and ``centered`` the
    distinct rows minus the sample means. When no row repeats, the
    grouping is the identity: ``index`` is 0..n-1, U = n, ``repeated`` is
    0 and group i is row i, so ``rows`` is z itself. Arrays are read-only.
    """

    rows: np.ndarray
    index: np.ndarray
    counts: np.ndarray
    repeated: int
    centered: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.rows, self.index, self.counts, self.centered):
            arr.setflags(write=False)

    @property
    def size(self) -> int:
        """U, the number of distinct rows."""
        return self.counts.shape[0]

    def sums(self, v: np.ndarray) -> np.ndarray:
        """Per-group sums of the n-vector ``v``, in row order."""
        return np.bincount(self.index, weights=v, minlength=self.size)

    def gather(self, values: np.ndarray) -> np.ndarray:
        """Each row's entry of the per-group ``values``."""
        return values[self.index]

    def chunk_sums(self, groups: slice, values: Callable) -> np.ndarray:
        """Per-group sums, over the groups ``groups``, of a value for each member row.

        ``values(members, local)`` gets the rows in those groups and each
        one's group as a position within ``groups``, and returns the rows'
        values; they are summed in row order.
        """
        count = groups.stop - groups.start
        members = np.flatnonzero((self.index >= groups.start) & (self.index < groups.stop))
        local = self.index[members] - groups.start
        return np.bincount(local, weights=values(members, local), minlength=count)


def _identity_groups(z: np.ndarray, mu: np.ndarray) -> RowGroups:
    """The identity grouping of the rows of ``z``, with means ``mu``: each row its own group."""
    n = z.shape[0]
    return RowGroups(rows=z, index=np.arange(n), counts=np.ones(n), repeated=0, centered=z - mu)


def _distinct_ranks(values: np.ndarray) -> tuple[Optional[np.ndarray], int]:
    """(ranks, k): each entry's rank among the k distinct numbers in ``values``.

    -0.0 and 0.0 are one number. The ranks are None when every entry is
    distinct.
    """
    ordered = np.sort(values)
    new = np.empty(values.size, dtype=bool)
    new[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    distinct = ordered[new]
    if distinct.size == values.size:
        return None, values.size
    return np.searchsorted(distinct, values), distinct.size


def _dense_codes(code: np.ndarray, radix: int) -> tuple[np.ndarray, int]:
    """Each entry's rank among the distinct values of ``code``, and their count.

    Every code is below ``radix``: up to 4n the ranks are counted, above it sorted.
    """
    if radix <= 4 * code.size:
        rank = np.cumsum(np.bincount(code, minlength=radix) > 0) - 1
        return rank[code], int(rank[-1]) + 1
    distinct, rank = np.unique(code, return_inverse=True)
    return rank, distinct.size


# Largest mixed-radix row code: past it the code is renumbered densely first
_MAX_CODE = 2**62
# Most two-valued columns per word of bits, summed exactly in a double
_WORD_BITS = 52


def _row_codes(z: np.ndarray) -> Optional[tuple[np.ndarray, int]]:
    """(code, radix): an integer code for each row of the finite ``z``, equal for equal rows.

    The code reads digits as mixed radix: the rank of each entry among its
    column's values, for the columns with three values or more, and then
    words of bits, one for each two-valued column, which tells its values
    apart without sorting. It is renumbered densely whenever the next digit
    would overflow it. A renumbered code is below n, and each digit below
    n or 2**(62 - n.bit_length()), so the next digit then fits (for n <
    2**31). Every code is below ``radix``. None when a column has a
    distinct value in every row.
    """
    n = z.shape[0]
    word_bits = min(_WORD_BITS, _MAX_CODE.bit_length() - 1 - n.bit_length())
    zt = z.T.copy()  # one contiguous row per column
    lo = zt.min(axis=1, keepdims=True)
    hi = zt.max(axis=1, keepdims=True)
    top = zt == hi
    varies = lo[:, 0] != hi[:, 0]
    two = varies & (top | (zt == lo)).all(axis=1)
    digits = []
    for j in np.flatnonzero(varies & ~two):
        ranks, k = _distinct_ranks(zt[j])
        if ranks is None:
            return None
        digits.append((ranks, k))
    bits = top[two]
    for start in range(0, bits.shape[0], word_bits):
        word = bits[start:start + word_bits]
        value = (2.0 ** np.arange(word.shape[0])) @ word  # exact below 2**53
        digits.append((value.astype(np.int64), 2 ** word.shape[0]))
    code, radix = np.zeros(n, dtype=np.int64), 1
    for digit, k in digits:
        if radix > _MAX_CODE // k:
            code, radix = _dense_codes(code, radix)
        code = code * k + digit
        radix *= k
    return code, radix


def _group_rows(z: np.ndarray, mu: np.ndarray) -> RowGroups:
    """Group the rows of the finite ``z`` by value, with sample means ``mu``.

    The groups are the distinct codes of :func:`_row_codes`, repeated rows
    first, each part in increasing code order. A column with a distinct
    value in every row, or codes that never repeat, give the identity.
    """
    n = z.shape[0]
    codes = _row_codes(z) if n > 1 else None
    if codes is not None:
        index, size = _dense_codes(*codes)
        if size < n:
            counts = np.bincount(index, minlength=size)
            order = np.argsort(counts == 1, kind="stable")
            rank = np.empty(size, dtype=np.intp)
            rank[order] = np.arange(size)
            index = rank[index]
            member = np.empty(size, dtype=np.intp)
            member[index] = np.arange(n)  # one row of each group
            rows = z[member]
            return RowGroups(
                rows=rows,
                index=index,
                counts=counts[order].astype(float),
                repeated=int(np.count_nonzero(counts > 1)),
                centered=rows - mu,
            )
    return _identity_groups(z, mu)


def _row_groups(ds: Dataset) -> RowGroups:
    """The dataset's :class:`RowGroups`, memoized on it; a NaN or inf cell raises DataError."""
    groups = ds._memo.get("groups")
    if groups is None:
        _require_finite(ds)
        groups = ds._memo["groups"] = _group_rows(ds.z, estimate_means(ds))
    return groups


# syrk, potrs, posv, pocon and gelsy: from numpy's OpenBLAS, or scipy's
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
    reads it in place, by a syrk with trans='T' on X. Every Gram of the
    package is formed this way, from a transposed stack.
    """
    return _LAPACK.syrk(gram, xt)


def _mirror(gram: np.ndarray) -> np.ndarray:
    """Copy the upper triangle of ``gram`` into its lower one: exactly symmetric."""
    for j in range(gram.shape[0] - 1):
        gram[j + 1:, j] = gram[j, j + 1:]
    return gram


# A row function: None for a column of ones, a (U, m) array over the
# distinct rows, or a slice of the columns of W. With an optional n-vector
# row weight it is a block of :func:`_gram`.
RowFunction = Union[np.ndarray, slice, None]


def _chunk_ranges(groups: RowGroups) -> Iterator[slice]:
    """Runs of at most ``ROW_BLOCK`` groups; no run mixes repeated and single rows."""
    for lo, hi in ((0, groups.repeated), (groups.repeated, groups.size)):
        for start in range(lo, hi, ROW_BLOCK):
            yield slice(start, min(start + ROW_BLOCK, hi))


def _stacked_chunks(
    groups: RowGroups,
    xs: Sequence[RowFunction],
    zc: Optional[np.ndarray] = None,
    plan: Optional[InteractionPlan] = None,
    spare: int = 0,
) -> Iterator[tuple[slice, np.ndarray]]:
    """(groups, xt) for each run of :func:`_chunk_ranges` over the stack F of the functions ``xs``.

    F has a row for each distinct instrument row of ``groups`` and the
    columns of each x in ``xs``, unweighted. A slice must start at column
    0: it reads W's leading columns at the centered distinct rows ``zc``
    under ``plan``, and the product kernel writes them straight into F.
    ``xt`` is F' for the run's groups above ``spare`` rows of scratch:
    C-ordered (width + spare, c), a view of one flat buffer that the next
    run overwrites, reshaped per run so that a short run is contiguous too.
    """
    widths = []
    for x in xs:
        if isinstance(x, slice) and x.start != 0:
            raise ValueError(f"a slice of the stack must start at column 0, not {x}")
        widths.append(1 if x is None else x.stop if isinstance(x, slice) else x.shape[1])
    *offsets, width = accumulate(widths, initial=0)
    width += spare
    most = min(groups.size, ROW_BLOCK)
    flat = np.empty(width * most)
    stop = max((x.stop for x in xs if isinstance(x, slice)), default=0)
    if stop:
        top = next(k for k, cols in plan.order_slices().items() if cols.stop >= stop)
        zt_flat = np.empty(zc.shape[1] * most)
    for rows in _chunk_ranges(groups):
        count = rows.stop - rows.start
        xt = flat[: width * count].reshape(width, count)
        if stop:
            zt = zt_flat[: zc.shape[1] * count].reshape(-1, count)
            zt[...] = zc[rows].T
        for x, off, wid in zip(xs, offsets, widths):
            if x is None:
                xt[off] = 1.0
            elif isinstance(x, slice):
                interactions._fill_products(zt, plan, top, xt[off:off + wid])
            else:
                xt[off:off + wid] = x[rows].T
        yield rows, xt


def _gram(
    groups: RowGroups,
    blocks: Sequence[tuple[RowFunction, Optional[np.ndarray]]],
    zc: Optional[np.ndarray] = None,
    plan: Optional[InteractionPlan] = None,
) -> np.ndarray:
    """Exactly symmetric Gram X'X of the n-row column stack X of ``blocks``, over distinct rows.

    Each block is (x, v): a row function x, as in :func:`_stacked_chunks`
    but with any slice of W's columns, times the n-vector row weight v
    (None leaves it unweighted). Every x depends on the instrument row
    only, so the Gram block of blocks with weights v and w is the sum over
    the groups u of x(u) x'(u)' times sum_{i in u} v_i w_i.

    F holds the ones, each array and W up to the last column a slice
    reads, in that order. The blocks of one weight array must be adjacent;
    adjacent blocks of one weight, or none, must read adjacent rows of F,
    and form a class; otherwise ValueError. The stack is X in block order:
    the leading classes whose rows of F are their columns of X are scaled
    in place, the others are written, scaled, into the scratch rows below F.

    On a run of single rows every weight product factors, v_i w_i, so each
    class is scaled by its weight and one syrk takes the whole stack, as it
    would over rows. On a run of repeated rows each pair of classes first
    meets in one gemm over F unscaled, the narrower side scaled by the
    pair's signed weight sums in the scratch rows; then each class is
    scaled by the root of its summed squared weight (of the group size
    when unweighted) and is one syrk.
    """
    # F: the ones, each array, then W up to the last column a slice reads
    arrays = [x for x, _ in blocks if isinstance(x, np.ndarray)]
    has_ones = any(x is None for x, _ in blocks)
    stop = max((x.stop for x, _ in blocks if isinstance(x, slice)), default=0)
    xs = [None] * has_ones + arrays + ([slice(0, stop)] if stop else [])
    w_at = int(has_ones) + sum(a.shape[1] for a in arrays)
    rows_f = w_at + stop

    weights, rows = [], []  # each class's weight and rows of F
    at = int(has_ones)
    for x, v in blocks:
        if x is None:
            run = slice(0, 1)
        elif isinstance(x, slice):
            run = slice(w_at + x.start, w_at + x.stop)
        else:
            run = slice(at, at + x.shape[1])
            at = run.stop
        if weights and weights[-1] is v and rows[-1].stop == run.start:
            rows[-1] = slice(rows[-1].start, run.stop)
        elif any(w is v for w in weights) and (v is not None or weights[-1] is None):
            raise ValueError("the blocks of one weight must be adjacent, on adjacent rows of F")
        else:
            weights.append(v)
            rows.append(run)
    widths = [run.stop - run.start for run in rows]

    # the stack: each class at its columns of X, in place in F up to row
    # `end`, then in the scratch rows below F
    place, used, end = [], 0, rows_f
    for run, width in zip(rows, widths):
        if run.start != used and used < rows_f:
            end, used = used, rows_f
        place.append(slice(used, used + width))
        used += width
    classes = range(len(rows))
    copied = [g for g in classes if place[g] != rows[g]]
    in_place = [g for g in classes if place[g] == rows[g]]
    pairs = [(g, h) for g in classes for h in range(g + 1, len(rows))]
    spare = max([used - rows_f] + [min(widths[g], widths[h]) for g, h in pairs])

    def sums(v, w):  # per-group sums of the weight products v_i w_i; None weighs one
        if v is None:
            return groups.counts if w is None else groups.sums(w)
        return groups.sums(v if w is None else v * w)

    scales = [None if v is None else groups.sums(v) for v in weights]
    if groups.repeated:
        roots = [np.sqrt(sums(v, v)) for v in weights]
        cross = {(g, h): sums(weights[g], weights[h]) for g, h in pairs}
        grams = [np.zeros((width, width), order="F") for width in widths]

    stacked = np.zeros((used, used), order="F")
    for chunk, xt in _stacked_chunks(groups, xs, zc, plan, spare):
        f = xt[:rows_f]
        if chunk.start >= groups.repeated:  # single rows: the weight products factor
            for g in copied:
                scale = 1.0 if scales[g] is None else scales[g][chunk]
                np.multiply(f[rows[g]], scale, out=xt[place[g]])
            for g in in_place:
                if scales[g] is not None:
                    f[rows[g]] *= scales[g][chunk]
            stacked = _syrk_add(stacked, xt[:used])
            continue
        for g, h in pairs:
            narrow, other = (g, h) if widths[g] <= widths[h] else (h, g)
            scaled = np.multiply(
                f[rows[narrow]], cross[g, h][chunk], out=xt[rows_f:rows_f + widths[narrow]]
            )
            product = scaled @ f[rows[other]].T
            if place[narrow].start > place[other].start:
                narrow, other, product = other, narrow, product.T
            stacked[place[narrow], place[other]] += product
        for g in copied:
            np.multiply(f[rows[g]], roots[g][chunk], out=xt[place[g]])
        for g in in_place:
            f[rows[g]] *= roots[g][chunk]
        for g in classes:
            grams[g] = _syrk_add(grams[g], xt[place[g]])
    if groups.repeated:
        for g, part in enumerate(grams):
            stacked[place[g], place[g]] += part
    if end < rows_f:  # drop F's rows that only copied classes read
        stacked = stacked[np.ix_(*[np.r_[0:end, rows_f:used]] * 2)]
    return _mirror(stacked)


def _cho_factor_solve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c, x): the lower Cholesky factor of ``a`` and the solve of a x = b, in one posv call.

    c's lower triangle is ``np.linalg.cholesky(a)`` to the bit on numpy's
    own library, its upper one keeps a's entries, and x is :func:`_cho_solve`'s
    on c. A LinAlgError names the first leading minor that is not positive definite.
    """
    c, x, info = _LAPACK.posv(a, b)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor is not positive definite")
    return c, x


def _unit_cholesky(
    xtx: np.ndarray, rhs: np.ndarray, min_rcond: float, what: str, column: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column scales s, the lower Cholesky factor of diag(s) xtx diag(s), and its solve x.

    s = diag(xtx)^(-1/2) scales the Gram to unit diagonal, so the factor and
    its condition estimate do not depend on the columns' units. The same
    :func:`_cho_factor_solve` call gives x with xtx (s x) = rhs, for a
    vector or a matrix ``rhs``. Raises :class:`NumericalError` naming the
    design ``what`` when a diagonal entry is not positive (``column`` names
    that column), when the factorization fails, or when the reciprocal
    condition estimate is below ``min_rcond``.
    """
    m = xtx.shape[0]
    diag = np.diag(xtx)
    if not np.all(diag > 0.0):
        raise NumericalError(f"{what} rank < {m}: {column} is zero")
    s = 1.0 / np.sqrt(diag)
    scaled = xtx * s[:, None] * s
    try:
        factor, x = _cho_factor_solve(scaled, (rhs.T * s).T)
    except LinAlgError as exc:
        raise NumericalError(f"{what} rank < {m}: X'X factorization failed ({exc})") from None
    rcond = _LAPACK.pocon(factor, float(np.max(np.sum(np.abs(scaled), axis=0))))
    if not rcond >= min_rcond:
        raise NumericalError(
            f"{what} is ill-conditioned: reciprocal condition "
            f"estimate of X'X {rcond:.3e} < {min_rcond:.0e}"
        )
    return s, factor, x


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
    fit = ds._memo.get("first_stage")
    if fit is None:
        fit = _project(ds, np.column_stack([np.ones(ds.n), ds.z]))
        for arr in fit[:4]:
            arr.setflags(write=False)
        ds._memo["first_stage"] = fit
    return fit


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
    zc = groups.centered
    slices = plan.order_slices()

    def basis(k):  # row functions (1, z - mu, products of orders 2..k-1)
        return [None, zc, slice(0, slices[k - 1].stop)]

    blocks = [(x, None) for x in basis(plan.q)] + [(None, ds.y), (None, ds.d)]
    gram = _gram(groups, blocks, zc, plan)
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
            for rows, xt in _stacked_chunks(groups, basis(k), zc, plan):
                design[rows] = xt.T
            design = groups.gather(design)
            theta[k - 1], xi[k - 1], r_y[k - 1], r_d[k - 1], _ = _project(ds, design)
            continue
        coefs[k] = s[:, None] * x
        theta[k - 1], xi[k - 1] = np.ascontiguousarray(coefs[k].T)
    if coefs:
        # fitted values per distinct row, gathered to the rows they stand for
        fitted = {k: np.empty((groups.size, 2)) for k in coefs}
        for rows, xt in _stacked_chunks(groups, basis(max(coefs)), zc, plan):
            for k, coef in coefs.items():
                fitted[k][rows] = xt[: coef.shape[0]].T @ coef
        for k, fit in fitted.items():
            r_y[k - 1] = ds.y - groups.gather(fit[:, 0])
            r_d[k - 1] = ds.d - groups.gather(fit[:, 1])
    return NuisanceEstimate(mu_hat=mu, theta=theta, xi=xi, r_y=r_y, r_d=r_d)
