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

:func:`_product_blocks` is the one product kernel. It works through the
rows in blocks of ``ROW_BLOCK`` and builds each block transposed, so every
multiply runs along a contiguous block-length row instead of writing a few
strided columns. :func:`_products` copies the blocks into a C-ordered
destination, and the Gram kernel streams them without one. A result with
equal values in another memory layout sends later BLAS calls down other
kernels and moves downstream estimates in the last bits, so whatever is
handed to BLAS is C-ordered rows. All orders are written side by side, so
:func:`demeaned_matrix` returns all orders and a caller slices order k out
with ``plan.order_slices()[k]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterator, Mapping

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


def _product_blocks(
    x: np.ndarray, plan: InteractionPlan, top: int
) -> Iterator[tuple[slice, np.ndarray]]:
    """(rows, prod) for each ``ROW_BLOCK``-row block of ``x``, in order.

    ``prod`` is (r_top, m) for the block's m rows: the transpose of the
    block's rows of the products of :func:`_products`, each product one
    contiguous row, built by one multiply per order-(k-1) column. It is a
    view of one reused buffer, overwritten by the next block.
    """
    n, p = x.shape
    rows = min(n, ROW_BLOCK)
    width = sum(len(plan.subsets_by_order[k]) for k in range(2, top + 1))
    xt = np.empty((p, rows))
    # The padding keeps the row stride off a multiple of 4 KiB: a copy of
    # ``prod.T`` reads down its columns, and at a power-of-two stride every
    # row of a column falls in the same cache set; unpadded, that copy ran
    # three times slower at r = 286.
    buf = np.empty((width, rows + 8))
    for start in range(0, n, ROW_BLOCK):
        block = slice(start, min(start + ROW_BLOCK, n))
        xt_b = xt[:, : block.stop - start]
        xt_b[...] = x[block].T
        prod = buf[:, : block.stop - start]
        prev, col = xt_b, 0
        for k in range(2, top + 1):
            first = col
            for h, head in enumerate(plan.subsets_by_order[k - 1]):
                tail = p - 1 - head[-1]  # order-k subsets extending this head
                if tail:
                    np.multiply(prev[h:h + 1], xt_b[p - tail:], out=prod[col:col + tail])
                    col += tail
            prev = prod[first:col]
        yield block, prod


def _products(x: np.ndarray, plan: InteractionPlan, top: int, out: np.ndarray) -> None:
    """Write the column products of ``x`` into the (n, r_top) array ``out``.

    The columns hold the products over the plan's subsets of orders 2..top
    in plan order; r_top counts those subsets. Each order-k column is its
    order-(k-1) prefix column times the subset's last factor, so a build to
    a lower ``top`` gives the leading columns of a higher one bit for bit.
    ``out`` may be a strided view, such as some columns of a wider array.
    """
    for block, prod in _product_blocks(x, plan, top):
        out[block] = prod.T


def demeaned_matrix(z: np.ndarray, mu: np.ndarray, plan: InteractionPlan) -> np.ndarray:
    """n x r matrix of demeaned interaction products, orders 2..q in plan order.

    Column for subset x holds prod_{j in x} (z_j - mu_j).
    """
    z = _check_width(z, plan)
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (plan.p,):
        raise ConfigError(f"mu must have length p={plan.p}")
    out = np.empty((z.shape[0], plan.r))
    _products(z - mu, plan, plan.q, out)
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
