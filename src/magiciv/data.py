"""Dataset container, CSV ingestion, and validation.

Estimation runs on a fixed triple: outcome vector y, exposure vector d,
and an n x p instrument matrix z. Instruments are stored as reals even
when they are 0/1 coded, since nothing downstream requires binarity.
:func:`load_csv` parses the rows into one table and copies y, d and z
out of it, each into an array of its own, so no parsed table outlives the
call and the dataset holds each value once.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import DataError

__all__ = ["Dataset", "load_csv", "write_csv", "validate"]


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable outcome/exposure/instrument bundle.

    Structural consistency (matching lengths, 2-D instrument matrix) is
    enforced at construction. Value-level invariants (finiteness, n >= 2,
    non-constant instruments) are reported by :func:`validate` so that
    questionable data can still be inspected rather than refused outright;
    the estimators refuse a non-finite cell with :class:`DataError`.
    The estimators memoize two derived results in one cache on the
    instance: the read-only (1, z) projection of
    ``nuisance._linear_projection`` and the grouping of the instrument rows
    into distinct rows (``_groups.RowGroups``) of ``nuisance._row_groups``;
    the data arrays never change.
    """

    y: np.ndarray
    d: np.ndarray
    z: np.ndarray
    instrument_names: Optional[tuple[str, ...]] = None
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        y = np.ascontiguousarray(self.y, dtype=float)
        d = np.ascontiguousarray(self.d, dtype=float)
        z = np.ascontiguousarray(self.z, dtype=float)
        if y.ndim != 1 or d.ndim != 1:
            raise DataError("y and d must be one-dimensional vectors")
        if z.ndim != 2:
            raise DataError("z must be a two-dimensional matrix")
        if not (y.shape[0] == d.shape[0] == z.shape[0]):
            raise DataError(
                f"inconsistent lengths: y has {y.shape[0]} rows, d has "
                f"{d.shape[0]}, z has {z.shape[0]}"
            )
        names = self.instrument_names
        if names is not None:
            names = tuple(str(c) for c in names)
            if len(names) != z.shape[1]:
                raise DataError(
                    f"{len(names)} instrument names for {z.shape[1]} columns"
                )
        for arr in (y, d, z):
            arr.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "instrument_names", names)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.z.shape[1]

    def names(self) -> tuple[str, ...]:
        """Instrument labels, synthesized as z1..zp when none were given."""
        if self.instrument_names is not None:
            return self.instrument_names
        return tuple(f"z{j + 1}" for j in range(self.p))


def validate(ds: Dataset) -> list[str]:
    """Return a list of invariant violations; empty means the dataset is clean.

    Violations are data, not failures: this never raises. Each entry names
    the violated invariant and where it occurred.
    """
    report: list[str] = []
    if ds.n < 2:
        report.append(f"too few observations: n={ds.n}, need n >= 2")
    report += _nonfinite_values(ds)
    for name, col in zip(ds.names(), ds.z.T):
        if not np.isfinite(col).all():
            continue
        if ds.n >= 2 and np.var(col) == 0.0:
            report.append(f"constant instrument: column '{name}'")
    return report


def _nonfinite_values(ds: Dataset) -> list[str]:
    """One report per column of y, d and z holding a NaN or inf, naming its first row."""
    report = []
    for label, col in zip(("y", "d", *ds.names()), (ds.y, ds.d, *ds.z.T)):
        bad = np.flatnonzero(~np.isfinite(col))
        if bad.size:
            report.append(f"non-finite value: column '{label}', row {bad[0] + 1}")
    return report


def _require_finite(ds: Dataset) -> None:
    """Raise :class:`DataError` naming the first non-finite cell, scanning y, d, then z."""
    if not (np.isfinite(ds.y).all() and np.isfinite(ds.d).all() and np.isfinite(ds.z).all()):
        raise DataError(_nonfinite_values(ds)[0])


@contextmanager
def _utf8(error: type[Exception], path: str | os.PathLike) -> Iterator[None]:
    """Turn a byte of the file at ``path`` that is not UTF-8 into ``error`` naming it."""
    try:
        yield
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise error(f"{path} is not UTF-8 text: byte 0x{byte:02x} ({exc.reason})") from None


# y, d and z of a dataset, each an array that owns its data
_Columns = tuple[np.ndarray, np.ndarray, np.ndarray]


def _columns(table: np.ndarray, columns: list[int]) -> _Columns:
    """(y, d, z): the ``columns`` of ``table`` in that order, each copied into its own array.

    z is C-ordered, as :class:`Dataset` holds it, so the dataset copies
    nothing and no array keeps the table alive.
    """
    y, d = (table[:, j].copy() for j in columns[:2])
    return y, d, table.take(columns[2:], axis=1)


def _load_rows(fh, width: int, columns: list[int]) -> Optional[_Columns]:
    """:func:`_columns` of the data rows after the header, parsed as one float table.

    A fast path: None unless every row has ``width`` fields and every cell
    is a finite number. ``np.loadtxt`` accepts a subset of what ``float``
    does (no underscores or non-ASCII digits) and parses it to the same
    doubles. All columns are read: with ``usecols`` it would not check the
    field count of each row.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an empty table is the row loop's to report
        try:
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            return None
    if table.shape[0] == 0 or table.shape[1] != width or not np.isfinite(table).all():
        return None
    return _columns(table, columns)


def _parse_rows(reader, header, selected, positions, path) -> _Columns:
    """:func:`_columns` of the data rows, parsed cell by cell.

    Raises :class:`DataError` at the first bad row or cell.
    """
    rows: list[list[float]] = []
    for row_idx, row in enumerate(reader, start=1):
        if not row or (len(row) == 1 and row[0].strip() == ""):
            continue  # ignore trailing blank lines
        if len(row) != len(header):
            raise DataError(
                f"row {row_idx} has {len(row)} fields, header has {len(header)}"
            )
        parsed = []
        for name in selected:
            cell = row[positions[name]].strip()
            try:
                value = float(cell)
            except ValueError:
                raise DataError(
                    f"cannot parse cell (row {row_idx}, column '{name}'): {cell!r}"
                ) from None
            if not math.isfinite(value):
                raise DataError(
                    f"non-finite cell (row {row_idx}, column '{name}'): {cell!r}"
                )
            parsed.append(value)
        rows.append(parsed)
    if not rows:
        raise DataError(f"no data rows in {path}")
    return _columns(np.asarray(rows, dtype=float), list(range(len(selected))))


def load_csv(
    path: str | os.PathLike,
    outcome_col: str,
    exposure_col: str,
    instrument_cols: Sequence[str],
) -> Dataset:
    """Load a dataset from a headered CSV file, binding columns by name.

    The dialect is fixed: UTF-8 text, a leading byte-order mark skipped,
    comma separator, first row header, '.' decimal point, no quoting of
    numeric fields. Row order is preserved. A byte that is not UTF-8, or any
    violation of the Dataset invariants (non-finite cell, constant
    instrument, n < 2), raises :class:`DataError` naming the file, cell or column.
    """
    instrument_cols = list(instrument_cols)
    if not instrument_cols:
        raise DataError("at least one instrument column is required")
    selected = [outcome_col, exposure_col, *instrument_cols]
    dupes = {c for c in selected if selected.count(c) > 1}
    if dupes:
        raise DataError(
            "duplicate column selection: " + ", ".join(sorted(dupes))
        )
    try:
        fh = open(path, "r", newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open file: {exc}") from exc
    with fh, _utf8(DataError, path):
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"empty file: {path}") from None
        header = [h.strip() for h in header]
        positions: dict[str, int] = {}
        for name in selected:
            hits = [i for i, h in enumerate(header) if h == name]
            if not hits:
                raise DataError(f"missing column: '{name}'")
            if len(hits) > 1:
                raise DataError(f"ambiguous column: '{name}' appears twice in header")
            positions[name] = hits[0]
        arrays = None
        if fh.seekable():  # a pipe cannot be reread, so it takes the row loop alone
            arrays = _load_rows(fh, len(header), [positions[name] for name in selected])
            if arrays is None:  # not a plain numeric table: the row loop names the fault
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)
        if arrays is None:
            arrays = _parse_rows(reader, header, selected, positions, path)
    y, d, z = arrays
    ds = Dataset(y=y, d=d, z=z, instrument_names=tuple(instrument_cols))
    violations = validate(ds)
    if violations:
        raise DataError("; ".join(violations))
    return ds


def write_csv(ds: Dataset, path: str | os.PathLike) -> None:
    """Write a dataset back to CSV with full round-trip precision.

    Cells are written with ``repr(float)`` (shortest representation that
    parses back to the same double), so load_csv(write_csv(ds)) reproduces
    the arrays exactly.
    """
    names = ds.names()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "d", *names])
        for i in range(ds.n):
            writer.writerow(
                [repr(float(ds.y[i])), repr(float(ds.d[i]))]
                + [repr(float(v)) for v in ds.z[i]]
            )
