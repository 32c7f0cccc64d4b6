"""Minimal CSV ingestion/emission for mixed-type tables (no pandas).

The CLI's mixed-type path (``python -m repro train --data table.csv``) reads
raw tables through :func:`read_csv` — every cell stays a string until the
:class:`~repro.transforms.table.TableTransformer` (driven by a declared or
inferred schema) decides which columns are numeric.  :func:`write_csv` writes
such an input table, quoting category labels as needed and formatting
numerics compactly; synthetic releases are encoded by the HTTP tier's
:func:`repro.server.protocol.encode_chunk` instead, with exact floats.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

__all__ = ["read_csv", "write_csv", "format_table"]


def read_csv(path, delimiter: str = ",", header: bool = True):
    """Read a CSV into ``(names, rows)``.

    ``rows`` is a 2-D object array of *strings* (schema inference / the
    transformer decide what is numeric); ``names`` is the header row, or
    generated ``column_i`` names when ``header=False``.
    """
    path = Path(path)
    with open(path, newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        records = [row for row in reader if row]
    if not records:
        raise ValueError(f"{path} is empty")
    if header:
        names, records = records[0], records[1:]
        if not records:
            raise ValueError(f"{path} has a header but no data rows")
    else:
        names = [f"column_{index}" for index in range(len(records[0]))]
    widths = {len(row) for row in records}
    if len(widths) != 1 or widths != {len(names)}:
        raise ValueError(
            f"{path} has ragged rows: expected {len(names)} fields, "
            f"saw row widths {sorted(widths)}"
        )
    rows = np.array([[cell.strip() for cell in row] for row in records], dtype=object)
    return list(names), rows


def format_table(rows) -> list:
    """Format an original-space object table as CSV field strings, per column.

    Numeric columns go through ``%.10g``; everything else through ``str``.  Returns a list of string arrays (one per column) so callers can
    zip them into lines without re-testing cell types per row.
    """
    rows = np.asarray(rows, dtype=object)
    if rows.ndim != 2:
        raise ValueError(f"rows must be 2-dimensional; got shape {rows.shape}")
    columns = []
    for index in range(rows.shape[1]):
        values = rows[:, index]
        try:
            numeric = np.asarray(values, dtype=np.float64)
        except (TypeError, ValueError):
            columns.append(np.asarray([str(value) for value in values], dtype=np.str_))
        else:
            columns.append(
                np.asarray(["%.10g" % value for value in numeric], dtype=np.str_)
            )
    return columns


def write_csv(handle_or_path, rows, names=None) -> int:
    """Write an original-space object table as CSV; returns the row count.

    ``handle_or_path`` may be an open text handle or a filesystem path.  Emission goes through :class:`csv.writer`, so
    category labels containing commas/quotes/newlines are quoted and
    round-trip through :func:`read_csv` (which already accepts quoted
    fields).
    """
    rows = np.asarray(rows, dtype=object)
    columns = format_table(rows)

    def _emit(handle):
        writer = csv.writer(handle, lineterminator="\n")
        if names is not None:
            writer.writerow([str(name) for name in names])
        if columns:
            writer.writerows(zip(*columns))

    if hasattr(handle_or_path, "write"):
        _emit(handle_or_path)
    else:
        path = Path(handle_or_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as handle:
            _emit(handle)
    return len(rows)
