"""The schema-aware, invertible whole-table transformer.

:class:`TableTransformer` is the single preprocessing pipeline of the
reproduction (the paper's Section IV-E protocol): it maps a raw mixed-type
table — numeric, categorical, ordinal, and binary columns, possibly holding
strings — into the dense ``[0, 1]`` float matrix every synthesizer consumes,
and maps model output *back* into original-space rows with real category
labels.

Guarantees:

- **Invertibility** — ``inverse_transform(transform(X))`` is exact on
  categorical/ordinal/binary columns and within float tolerance on numeric
  ones.
- **Vectorisation** — all work is per-column numpy operations; there are no
  Python-level per-row loops.  ``tests/transforms/test_table_transformer.py``
  holds transform and inverse at >= 50,000 rows/s on 100,000 mixed rows.
- **Serialisability** — ``get_config()`` (JSON-safe; includes the schema) plus
  ``state_dict()``/``load_state_dict()`` (flat numpy arrays, no object
  arrays) round-trip through the serving layer's versioned artifacts, so a
  released model can emit original-space data from the artifact alone.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.transforms.column import (
    MinMaxNumeric,
    OneHotCategorical,
    OrdinalCategorical,
    as_typed_values,
)
from repro.transforms.schema import TableSchema

__all__ = ["TableTransformer"]


def _as_table(rows) -> np.ndarray:
    """Coerce input to a 2-D array without forcing a float dtype."""
    rows = np.asarray(rows) if not isinstance(rows, np.ndarray) else rows
    if rows.ndim != 2:
        raise ValueError(f"rows must be 2-dimensional; got shape {rows.shape}")
    if rows.shape[0] == 0:
        raise ValueError(
            f"rows is empty (0 samples, shape {rows.shape}); "
            "fit/transform require at least one sample"
        )
    return rows


class TableTransformer:
    """Fit/transform/inverse one table according to its :class:`TableSchema`.

    Parameters
    ----------
    schema:
        Column kinds and (optionally) declared categories.  ``None`` infers a
        schema from the data at fit time (:meth:`TableSchema.infer`).
        Numeric columns are min–max scaled into ``[0, 1]`` (the paper's
        protocol).

    Attributes
    ----------
    schema:
        The resolved :class:`TableSchema` (set at construction or at fit).
    transforms_:
        One fitted column transform per schema column.
    """

    def __init__(self, schema: Optional[TableSchema] = None):
        if schema is not None and not isinstance(schema, TableSchema):
            schema = TableSchema.from_dict(schema)
        self.schema: Optional[TableSchema] = schema
        self.transforms_: Optional[list] = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def _build_transform(self, column):
        if column.kind == "numeric":
            return MinMaxNumeric()
        if column.kind == "ordinal":
            return OrdinalCategorical(categories=column.categories)
        # categorical and binary both one-hot encode.
        return OneHotCategorical(categories=column.categories)

    def _numeric_column(self, values, column) -> np.ndarray:
        """One raw column as a validated (n, 1) float block."""
        try:
            block = np.asarray(values, dtype=np.float64).reshape(-1, 1)
        except (TypeError, ValueError) as error:
            raise ValueError(
                f"column {column.name!r} is declared numeric but holds "
                f"non-numeric values: {error}"
            ) from error
        if not np.all(np.isfinite(block)):
            raise ValueError(
                f"column {column.name!r} contains NaN or infinite values"
            )
        return block

    def fit(self, rows, names=None) -> "TableTransformer":
        """Fit every column transform on a raw table.

        ``rows`` may be a float matrix or an object/string array (e.g. from a
        CSV); ``names`` optionally supplies column names for schema inference.
        """
        rows = _as_table(rows)
        if self.schema is None:
            self.schema = TableSchema.infer(rows, names=names)
        elif names is not None and tuple(names) != self.schema.names:
            # A declared schema whose names/order differ from the table's
            # header would silently attribute values to the wrong columns.
            raise ValueError(
                f"table columns {list(names)} do not match the declared "
                f"schema columns {list(self.schema.names)}"
            )
        if rows.shape[1] != len(self.schema):
            raise ValueError(
                f"table has {rows.shape[1]} columns but the schema declares "
                f"{len(self.schema)}"
            )
        self.transforms_ = []
        for index, column in enumerate(self.schema):
            transform = self._build_transform(column)
            values = rows[:, index]
            if column.kind == "numeric":
                transform.fit(self._numeric_column(values, column))
            else:
                transform.fit(as_typed_values(values))
            self.transforms_.append(transform)
        return self

    # ------------------------------------------------------------------
    # Transform / inverse
    # ------------------------------------------------------------------

    def transform(self, rows) -> np.ndarray:
        """Encode a raw table into the dense model-space float matrix."""
        self._check_fitted()
        rows = _as_table(rows)
        if rows.shape[1] != len(self.schema):
            raise ValueError(
                f"table has {rows.shape[1]} columns but the schema declares "
                f"{len(self.schema)}"
            )
        blocks = []
        for index, (column, transform) in enumerate(zip(self.schema, self.transforms_)):
            values = rows[:, index]
            if column.kind == "numeric":
                blocks.append(transform.transform(self._numeric_column(values, column)))
            else:
                blocks.append(transform.transform(as_typed_values(values)))
        return np.ascontiguousarray(np.hstack(blocks))

    def fit_transform(self, rows, names=None) -> np.ndarray:
        return self.fit(rows, names=names).transform(rows)

    def inverse_transform(self, matrix) -> np.ndarray:
        """Decode model-space rows back to an original-space object table.

        Numeric columns come back as floats, categorical/ordinal/binary
        columns as their category labels (strings stay strings).
        """
        self._check_fitted()
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != self.output_width:
            raise ValueError(
                f"expected a (n, {self.output_width}) model-space matrix; "
                f"got shape {matrix.shape}"
            )
        out = np.empty((len(matrix), len(self.schema)), dtype=object)
        for index, (transform, span) in enumerate(zip(self.transforms_, self.column_slices)):
            block = matrix[:, span]
            if self.schema[index].kind == "numeric":
                out[:, index] = transform.inverse_transform(block)[:, 0]
            else:
                out[:, index] = transform.inverse_transform(block)
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def output_width(self) -> int:
        """Total number of model-space columns."""
        self._check_fitted()
        return sum(transform.output_width for transform in self.transforms_)

    @property
    def column_slices(self) -> list:
        """Model-space slice of each schema column, in order."""
        self._check_fitted()
        slices, start = [], 0
        for transform in self.transforms_:
            width = transform.output_width
            slices.append(slice(start, start + width))
            start += width
        return slices

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def get_config(self) -> dict:
        """JSON-safe description sufficient to rebuild an unfitted twin."""
        if self.schema is None:
            raise RuntimeError("transformer has no schema yet; fit it (or pass one) first")
        return {"schema": self.schema.to_dict()}

    @classmethod
    def from_config(cls, config: dict) -> "TableTransformer":
        # Configs written before numeric columns were always min-max scaled
        # record the encoding; any other encoding cannot be rebuilt.
        numeric = config.get("numeric", "minmax")
        if numeric != "minmax":
            raise ValueError(f"numeric columns are min-max scaled, not {numeric!r}")
        return cls(schema=TableSchema.from_dict(config["schema"]))

    def state_dict(self) -> dict:
        """Fitted state as a flat ``name -> numpy array`` mapping."""
        self._check_fitted()
        state = {}
        for index, transform in enumerate(self.transforms_):
            for key, value in transform.state_dict().items():
                state[f"column_{index}.{key}"] = value
        return state

    def load_state_dict(self, state: dict) -> "TableTransformer":
        if self.schema is None:
            raise RuntimeError(
                "cannot load state into a schema-less transformer; "
                "construct it via from_config() first"
            )
        self.transforms_ = []
        for index, column in enumerate(self.schema):
            transform = self._build_transform(column)
            prefix = f"column_{index}."
            payload = {
                key[len(prefix) :]: value
                for key, value in state.items()
                if key.startswith(prefix)
            }
            if not payload:
                raise KeyError(f"state dict is missing entries for column {index}")
            transform.load_state_dict(payload)
            self.transforms_.append(transform)
        return self

    def _check_fitted(self) -> None:
        if self.transforms_ is None:
            raise RuntimeError("TableTransformer is not fitted yet")
