"""The Gram kernel over the distinct instrument rows, and the Cholesky guard.

The nuisance projections, the moment components, the diagnostic and
efficient GMM pass the groups of :mod:`magiciv._groups`, the instrument
matrix, the means to center it at and the plan to :func:`_gram`, which
forms every Gram they need from weighted W columns and other row
functions. It holds ``ROW_BLOCK`` distinct rows of the stack F of those
functions transposed, F' C-ordered, in one buffer: each chunk's distinct
rows are gathered from the instrument matrix by the groups' ``first``
rows and centered into one small transposed buffer, so no centered copy
of the distinct rows outlives a chunk; the product kernel writes the
chunk's rows of W, up to the highest order read, from it straight into
F, and the other functions are written beside them. Blocks that share a
weight form a class, scaled in place in F or copied, scaled, into scratch
rows below it, so that a syrk reads X in block order; classes meet in
gemms over the repeated rows (see :func:`_gram`). A consumer that needs
W's rows for anything else, the nuisance residuals, the diagnostic's
residual and efficient GMM's moment vectors, reads them from the same
buffer in :func:`_stacked_chunks` before it scales them, and its per-row
values come from per-group ones by the group index. The widest n-row arrays of a fit are then the first stage's
(1, z) design and the instrument matrix itself, about p + 1 columns each.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator, Optional, Sequence, Union

import numpy as np
from numpy.linalg import LinAlgError

from . import _lapack, interactions
from ._groups import RowGroups
from .errors import NumericalError
from .interactions import ROW_BLOCK, InteractionPlan


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
    z: Optional[np.ndarray] = None,
    mu: Optional[np.ndarray] = None,
    plan: Optional[InteractionPlan] = None,
    spare: int = 0,
) -> Iterator[tuple[slice, np.ndarray]]:
    """(groups, xt) for each run of :func:`_chunk_ranges` over the stack F of the functions ``xs``.

    F has a row for each distinct instrument row of ``groups`` and the
    columns of each x in ``xs``, unweighted. A slice must start at column
    0: it reads W's leading columns under ``plan`` at the distinct rows of
    the instrument matrix ``z`` centered at ``mu``. Each run's rows
    ``z[groups.first[run]]`` are centered into one transposed buffer, and
    the product kernel writes W's columns from it straight into F.
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
        zt_flat = np.empty(z.shape[1] * most)
    for rows in _chunk_ranges(groups):
        count = rows.stop - rows.start
        xt = flat[: width * count].reshape(width, count)
        if stop:
            zt = zt_flat[: z.shape[1] * count].reshape(-1, count)
            np.subtract(np.take(z, groups.first[rows], axis=0).T, mu[:, None], out=zt)
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
    z: Optional[np.ndarray] = None,
    mu: Optional[np.ndarray] = None,
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
    for chunk, xt in _stacked_chunks(groups, xs, z, mu, plan, spare):
        f = xt[:rows_f]
        if chunk.start >= groups.repeated:  # single rows: the weight products factor
            for g in copied:
                scale = 1.0 if scales[g] is None else scales[g][chunk]
                np.multiply(f[rows[g]], scale, out=xt[place[g]])
            for g in in_place:
                if scales[g] is not None:
                    f[rows[g]] *= scales[g][chunk]
            stacked = _lapack.ROUTINES.syrk(stacked, xt[:used])
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
            grams[g] = _lapack.ROUTINES.syrk(grams[g], xt[place[g]])
    if groups.repeated:
        for g, part in enumerate(grams):
            stacked[place[g], place[g]] += part
    if end < rows_f:  # drop F's rows that only copied classes read
        stacked = stacked[np.ix_(*[np.r_[0:end, rows_f:used]] * 2)]
    return _mirror(stacked)


def _cho_factor_solve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c, x): the lower Cholesky factor of ``a`` and the solve of a x = b, in one posv call.

    c's lower triangle is ``np.linalg.cholesky(a)`` to the bit on numpy's
    own library, its upper one keeps a's entries, and x is potrs's solve
    on c. A LinAlgError names the first leading minor that is not positive definite.
    """
    c, x, info = _lapack.ROUTINES.posv(a, b)
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
    rcond = _lapack.ROUTINES.pocon(factor, float(np.max(np.sum(np.abs(scaled), axis=0))))
    if not rcond >= min_rcond:
        raise NumericalError(
            f"{what} is ill-conditioned: reciprocal condition "
            f"estimate of X'X {rcond:.3e} < {min_rcond:.0e}"
        )
    return s, factor, x
