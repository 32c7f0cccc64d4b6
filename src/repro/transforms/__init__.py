"""``repro.transforms`` — schema-aware, invertible table preprocessing.

The paper's Section IV-E protocol in subsystem form: a :class:`TableSchema`
declares what each column *is* (numeric / categorical / ordinal / binary), a
:class:`TableTransformer` maps raw mixed-type tables into the dense
``[0, 1]`` matrices the synthesizers consume and inverts model output back to
original-space rows with real category labels, and the per-column transforms
(:class:`MinMaxNumeric`, :class:`OneHotCategorical`, …) are the shared
building blocks every other layer reuses — the ``repro.ml`` scaler, the
models' label one-hot encoding, PrivBayes' discretisation, and the serving
artifacts that persist the fitted pipeline alongside the model weights.
"""

from repro.transforms.column import (
    ColumnTransform,
    EqualWidthDiscretizer,
    MinMaxNumeric,
    OneHotCategorical,
    OrdinalCategorical,
    fit_discrete_column,
)
from repro.transforms.io import format_table, read_csv, write_csv
from repro.transforms.schema import COLUMN_KINDS, ColumnSchema, TableSchema
from repro.transforms.table import TableTransformer

__all__ = [
    "COLUMN_KINDS",
    "ColumnSchema",
    "TableSchema",
    "ColumnTransform",
    "MinMaxNumeric",
    "OneHotCategorical",
    "OrdinalCategorical",
    "EqualWidthDiscretizer",
    "fit_discrete_column",
    "TableTransformer",
    "read_csv",
    "write_csv",
    "format_table",
]
