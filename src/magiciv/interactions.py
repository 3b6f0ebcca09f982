"""Interaction subset enumeration and product evaluation.

Component ordering is fixed once and for all: ascending interaction order
k, lexicographic subsets within each order. Every serialized result indexes
interaction components by this ordering.

Products are built from prefixes. In lexicographic order the order-k
subsets that share their first k-1 indices (the head) are contiguous, and
the heads run through the order-(k-1) subsets in order, so the order-k block
is each order-(k-1) column times the columns after the head's last index.
Column (i_1, ..., i_k) is therefore ((x_{i_1} x_{i_2}) ...) x_{i_k}, the
same left-to-right product ``np.prod`` forms over the gathered factors, and
bit-identical to it, without the (n, m, k) gather.

:func:`_fill_products` is the one product kernel. It works on a block of
at most ``ROW_BLOCK`` rows held transposed, one instrument per row, and
writes each product as one contiguous row, so every multiply runs along a
block-length row instead of writing a few strided columns. The Gram kernel
of :mod:`magiciv._kernel` has it write straight into the rows of the
transposed column stack that its syrk reads, and :func:`demeaned_matrix`
copies the rows into its C-ordered n-row result: equal values in another
memory layout can send later BLAS calls down other kernels and move
downstream results in the last bits. All orders are written side by side,
so :func:`demeaned_matrix` returns all orders and a caller slices order k
out with ``plan.order_slices()[k]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Mapping

import numpy as np

from .errors import ConfigError

__all__ = [
    "InteractionPlan",
    "build_plan",
    "demeaned_matrix",
    "plan_to_jsonable",
]

# Hard cap on the total number of enumerated subsets (orders 1..q).
MAX_SUBSETS = 10**6

# Rows per block of the product kernel, and per chunk of the Gram kernel
# that streams the products: enough for BLAS and the multiplies to run at
# full speed, few enough that a block stays a small fraction of an n-row
# array at large n.
ROW_BLOCK = 2048


@dataclass(frozen=True, eq=False)
class InteractionPlan:
    """Enumerated instrument subsets for interaction orders 1..q.

    ``subsets_by_order[k]`` lists the size-k index subsets in lexicographic
    order; r counts the subsets of orders 2..q (the moment components).
    The order-1 subsets are the heads of the order-2 products, and the plan
    JSON lists them with the other orders.
    """

    p: int
    q: int
    subsets_by_order: Mapping[int, tuple[tuple[int, ...], ...]]
    r: int

    def order_slices(self) -> dict[int, slice]:
        """Column ranges of each order-k block inside the stacked r columns."""
        out = {}
        start = 0
        for k in range(2, self.q + 1):
            width = len(self.subsets_by_order[k])
            out[k] = slice(start, start + width)
            start += width
        return out


def build_plan(p: int, q: int) -> InteractionPlan:
    """Enumerate all interaction subsets of orders 1..q over p instruments."""
    if p < 2:
        raise ConfigError(f"q >= 2 requires p >= 2 (got p={p})")
    if q < 2:
        raise ConfigError(f"interaction order q must be >= 2 (got q={q})")
    if q > p:
        raise ConfigError(f"interaction order q={q} exceeds instrument count p={p}")
    total = sum(comb(p, k) for k in range(1, q + 1))
    if total > MAX_SUBSETS:
        raise ConfigError(
            f"plan would enumerate {total} subsets, exceeding the {MAX_SUBSETS} guard"
        )
    subsets = {
        k: tuple(combinations(range(p), k)) for k in range(1, q + 1)
    }
    r = sum(len(subsets[k]) for k in range(2, q + 1))
    return InteractionPlan(p=p, q=q, subsets_by_order=subsets, r=r)


def _check_width(z: np.ndarray, plan: InteractionPlan) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.ndim == 1:
        z = z[None, :]
    if z.shape[1] != plan.p:
        raise ConfigError(
            f"row width {z.shape[1]} does not match plan built for p={plan.p}"
        )
    return z


def _fill_products(xt: np.ndarray, plan: InteractionPlan, top: int, dst: np.ndarray) -> None:
    """Write the products of orders 2..top of the transposed block ``xt`` into ``dst``.

    ``xt`` holds a block of at most ``ROW_BLOCK`` rows transposed, one
    instrument per row, C-ordered (p, m); row c of ``dst``, whose rows are
    each contiguous, gets the block's product over the plan's c-th subset
    of orders 2..top, built by one multiply per order-(k-1) row. ``dst``
    holds at most the r_top products of orders 2..top and gets as many of
    the leading ones as it has rows. Each order-k row is its order-(k-1)
    prefix row times the subset's last factor, so a build to a lower
    ``top`` gives the leading rows of a higher one bit for bit.
    """
    p = xt.shape[0]
    stop = dst.shape[0]
    prev, col = xt, 0
    for k in range(2, top + 1):
        first = col
        for h, head in enumerate(plan.subsets_by_order[k - 1]):
            tail = p - 1 - head[-1]  # order-k subsets extending this head
            take = min(tail, stop - col)
            if take > 0:
                np.multiply(prev[h:h + 1], xt[p - tail:p - tail + take], out=dst[col:col + take])
                col += take
        prev = dst[first:col]


def demeaned_matrix(z: np.ndarray, mu: np.ndarray, plan: InteractionPlan) -> np.ndarray:
    """n x r matrix of demeaned interaction products, orders 2..q in plan order.

    Column for subset x holds prod_{j in x} (z_j - mu_j). Each block of at
    most ``ROW_BLOCK`` rows is centered into one transposed buffer, its
    products are written by :func:`_fill_products` and copied into the
    block's rows of the C-ordered result.
    """
    z = _check_width(z, plan)
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (plan.p,):
        raise ConfigError(f"mu must have length p={plan.p}")
    n = z.shape[0]
    rows = min(n, ROW_BLOCK)
    centered = np.empty((plan.p, rows))
    # The padding keeps the row stride off a multiple of 4 KiB: the copy
    # into ``out`` reads down the columns of the product rows, and at a
    # power-of-two stride every row of a column falls in the same cache
    # set; unpadded, that copy ran three times slower at r = 286.
    buf = np.empty((plan.r, rows + 8))
    out = np.empty((n, plan.r))
    for start in range(0, n, ROW_BLOCK):
        block = slice(start, min(start + ROW_BLOCK, n))
        xt, prod = centered[:, : block.stop - start], buf[:, : block.stop - start]
        np.subtract(z[block].T, mu[:, None], out=xt)
        _fill_products(xt, plan, plan.q, prod)
        out[block] = prod.T
    return out


def plan_to_jsonable(plan: InteractionPlan) -> dict:
    """JSON-ready plan: per-order lists of index tuples."""
    return {
        "p": plan.p,
        "q": plan.q,
        "r": plan.r,
        "orders": {
            str(k): [list(s) for s in plan.subsets_by_order[k]]
            for k in range(1, plan.q + 1)
        },
    }
