"""The distinct instrument rows of a dataset, and the group of each row.

Every Gram of a fit is a sum over the rows i of x(z_i) x(z_i)' times row
weights, where x depends on the instrument row z_i only. Instrument rows
repeat (genetic variants, Bernoulli instruments), so each Gram is formed
over the distinct rows u instead, with the weight products summed within
each group: sum_u x(u) x(u)' sum_{i in u} v_i w_i. :func:`_group_rows`
finds the groups from an integer code of each row, without sorting the
rows themselves. Rows that never repeat give the identity grouping, U = n,
group i row i, and the same arithmetic as over the rows. A grouping holds
the index of one row of each group, not the distinct rows: the Gram
kernel gathers each chunk's rows from the instrument matrix when it
centers them, so the grouping costs two index vectors and the group sizes
(at U = n = 400,000, p = 20, a U x p copy would be 61 MiB).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True, eq=False)
class RowGroups:
    """The distinct instrument rows of a dataset and the group of each row.

    The U groups are ordered first the ``repeated`` ones that stand for
    two rows or more, then those that stand for one, each part in a fixed
    order set by the values. ``first`` holds one row of each group, so
    ``z[first]`` are the distinct rows; the grouping keeps no copy of
    them. ``index`` is the group of each of the n rows and ``counts`` the
    group sizes. When no row repeats, the grouping is the identity:
    ``first`` and ``index`` are 0..n-1, U = n, ``repeated`` is 0 and group
    i is row i. Arrays are read-only.
    """

    first: np.ndarray
    index: np.ndarray
    counts: np.ndarray
    repeated: int

    def __post_init__(self) -> None:
        for arr in (self.first, self.index, self.counts):
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


def _identity_groups(n: int) -> RowGroups:
    """The identity grouping of ``n`` rows: each row its own group."""
    rows = np.arange(n)  # group i is row i: one array serves as both
    return RowGroups(first=rows, index=rows, counts=np.ones(n), repeated=0)


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


def _group_rows(z: np.ndarray) -> RowGroups:
    """Group the rows of the finite ``z`` by value.

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
            first = np.empty(size, dtype=np.intp)
            first[index] = np.arange(n)  # one row of each group
            return RowGroups(
                first=first,
                index=index,
                counts=counts[order].astype(float),
                repeated=int(np.count_nonzero(counts > 1)),
            )
    return _identity_groups(n)
