"""Column and table schemas: the typed description of a real-world table.

The paper's protocol (Section IV-E) preprocesses mixed-type tables — one-hot
encoded categorical attributes, min–max scaled numeric ones — before any
synthesizer sees the data.  A :class:`TableSchema` is the declarative half of
that contract: it names every column and assigns it one of four kinds,

- ``numeric``      — real-valued; min–max (or z-) scaled into model space;
- ``categorical``  — unordered labels; one-hot encoded;
- ``ordinal``      — ordered labels; encoded as a single normalised level;
- ``binary``       — a two-level categorical (kept distinct so consumers can
  treat it specially, e.g. a single column instead of two one-hot columns is
  a valid future optimisation).

Schemas are JSON-safe (:meth:`TableSchema.to_dict` / ``from_dict``) so the
serving layer can persist them in artifact manifests, and inferable from raw
string tables (:meth:`TableSchema.infer`) so ``python -m repro train`` can
ingest a CSV without a hand-written schema file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

__all__ = ["COLUMN_KINDS", "ColumnSchema", "TableSchema"]

#: The four column kinds a schema may declare.
COLUMN_KINDS = ("numeric", "categorical", "ordinal", "binary")

#: Most distinct values :meth:`TableSchema.infer` accepts in a non-numeric
#: column; a wider one is more likely free text than a category.
MAX_CATEGORIES = 64


def _as_category_tuple(categories) -> Optional[tuple]:
    if categories is None:
        return None
    return tuple(categories)


@dataclass(frozen=True)
class ColumnSchema:
    """One column of a table: a name, a kind, and (optionally) its categories.

    Parameters
    ----------
    name:
        Column name (the CSV header / manifest key).
    kind:
        One of :data:`COLUMN_KINDS`.
    categories:
        Declared category labels for ``categorical``/``ordinal``/``binary``
        columns, in encoding order (the order *is* the ordinal order).  When
        ``None`` the categories are learned from the data at fit time;
        declaring them pins the encoded width even if a data split does not
        contain every category.
    """

    name: str
    kind: str
    categories: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in COLUMN_KINDS:
            raise ValueError(
                f"column {self.name!r} has unknown kind {self.kind!r}; "
                f"expected one of {COLUMN_KINDS}"
            )
        object.__setattr__(self, "categories", _as_category_tuple(self.categories))
        if self.kind == "numeric" and self.categories is not None:
            raise ValueError(f"numeric column {self.name!r} must not declare categories")
        if self.kind == "binary" and self.categories is not None and len(self.categories) != 2:
            raise ValueError(
                f"binary column {self.name!r} must declare exactly 2 categories; "
                f"got {len(self.categories)}"
            )

    @property
    def is_numeric(self) -> bool:
        return self.kind == "numeric"

    def to_dict(self) -> dict:
        payload = {"name": self.name, "kind": self.kind}
        if self.categories is not None:
            payload["categories"] = list(self.categories)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ColumnSchema":
        return cls(
            name=payload["name"],
            kind=payload["kind"],
            categories=payload.get("categories"),
        )


class TableSchema:
    """An ordered collection of :class:`ColumnSchema` describing one table."""

    def __init__(self, columns: Sequence[ColumnSchema]):
        columns = tuple(columns)
        if not columns:
            raise ValueError("a TableSchema needs at least one column")
        names = [column.name for column in columns]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise ValueError(f"duplicate column names in schema: {sorted(duplicates)}")
        self.columns = columns

    # -- container protocol ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def __getitem__(self, key) -> ColumnSchema:
        if isinstance(key, str):
            for column in self.columns:
                if column.name == key:
                    return column
            raise KeyError(f"no column named {key!r}; have {list(self.names)}")
        return self.columns[key]

    def __eq__(self, other) -> bool:
        return isinstance(other, TableSchema) and self.columns == other.columns

    def __repr__(self) -> str:
        kinds = ", ".join(f"{c.name}:{c.kind}" for c in self.columns)
        return f"TableSchema({kinds})"

    # -- views ----------------------------------------------------------------------

    @property
    def names(self) -> tuple:
        return tuple(column.name for column in self.columns)

    @property
    def kinds(self) -> tuple:
        return tuple(column.kind for column in self.columns)

    @property
    def is_numeric(self) -> bool:
        """True when every column is numeric (the all-in-[0,1] legacy case)."""
        return all(column.is_numeric for column in self.columns)

    def index_of(self, name: str) -> int:
        for index, column in enumerate(self.columns):
            if column.name == name:
                return index
        raise KeyError(f"no column named {name!r}; have {list(self.names)}")

    def drop(self, name: str) -> "TableSchema":
        """A copy of the schema without the named column (e.g. the label)."""
        index = self.index_of(name)
        return TableSchema(self.columns[:index] + self.columns[index + 1 :])

    # -- (de)serialisation ----------------------------------------------------------

    def to_dict(self) -> dict:
        return {"columns": [column.to_dict() for column in self.columns]}

    @classmethod
    def from_dict(cls, payload: dict) -> "TableSchema":
        return cls([ColumnSchema.from_dict(entry) for entry in payload["columns"]])

    def to_json(self, path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    @classmethod
    def from_json(cls, path) -> "TableSchema":
        return cls.from_dict(json.loads(Path(path).read_text()))

    # -- constructors ---------------------------------------------------------------

    @classmethod
    def numeric(cls, columns) -> "TableSchema":
        """An all-numeric schema from a column count or a sequence of names."""
        if isinstance(columns, (int, np.integer)):
            names = [f"feature_{index}" for index in range(int(columns))]
        else:
            names = list(columns)
        return cls([ColumnSchema(name, "numeric") for name in names])

    @classmethod
    def infer(cls, rows, names=None) -> "TableSchema":
        """Infer a schema from a raw (possibly string-valued) 2-D table.

        The rule is deliberately simple and predictable: a column whose every
        value parses as a float is ``numeric``; any other column is
        ``categorical`` (``binary`` when it has exactly two distinct values)
        with at most :data:`MAX_CATEGORIES` levels.  Integer-coded categories
        therefore infer as numeric — declare a schema explicitly (or via
        ``--schema``) when that is not what you want.
        """
        rows = np.asarray(rows, dtype=object)
        if rows.ndim != 2:
            raise ValueError(f"rows must be 2-dimensional; got shape {rows.shape}")
        if names is None:
            names = [f"column_{index}" for index in range(rows.shape[1])]
        names = list(names)
        if len(names) != rows.shape[1]:
            raise ValueError(
                f"got {len(names)} column names for a table with {rows.shape[1]} columns"
            )
        columns = []
        for index, name in enumerate(names):
            values = rows[:, index]
            try:
                np.asarray(values, dtype=np.float64)
            except (TypeError, ValueError):
                levels = np.unique([str(value) for value in values])
                if len(levels) > MAX_CATEGORIES:
                    raise ValueError(
                        f"column {name!r} has {len(levels)} distinct non-numeric "
                        f"values (> MAX_CATEGORIES={MAX_CATEGORIES}); declare its "
                        "schema explicitly if it really is categorical"
                    )
                kind = "binary" if len(levels) == 2 else "categorical"
                columns.append(ColumnSchema(name, kind, categories=levels.tolist()))
            else:
                columns.append(ColumnSchema(name, "numeric"))
        return cls(columns)
