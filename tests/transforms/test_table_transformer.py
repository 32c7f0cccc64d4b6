"""TableTransformer: property-based round-trips across random schemas.

The tentpole guarantee, asserted generatively: for *any* schema mixing
numeric / categorical / ordinal / binary columns and any table drawn for it,
``inverse_transform(transform(X))`` is exact on the discrete columns and
``allclose`` on the numeric ones; fitting is deterministic; and
``get_config() + state_dict()`` rebuild a transformer producing bit-identical
output (through an actual ``npz`` round-trip with ``allow_pickle=False``).
"""

import io
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transforms import ColumnSchema, TableSchema, TableTransformer

ALPHABET = "abcdefghij"


@st.composite
def schemas_and_tables(draw):
    """A random (schema, rows) pair covering every column kind."""
    n_rows = draw(st.integers(min_value=2, max_value=40))
    n_columns = draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    columns, parts = [], []
    for index in range(n_columns):
        kind = draw(st.sampled_from(["numeric", "categorical", "ordinal", "binary"]))
        name = f"col_{index}"
        if kind == "numeric":
            scale = draw(st.sampled_from([1e-3, 1.0, 1e4]))
            values = rng.normal(0.0, scale, size=n_rows)
            columns.append(ColumnSchema(name, "numeric"))
        else:
            n_levels = 2 if kind == "binary" else draw(st.integers(2, 5))
            levels = tuple(f"{ALPHABET[i]}_{index}" for i in range(n_levels))
            values = np.asarray(levels, dtype=object)[rng.integers(0, n_levels, n_rows)]
            columns.append(ColumnSchema(name, kind, categories=levels))
        parts.append(values)
    rows = np.empty((n_rows, n_columns), dtype=object)
    for index, values in enumerate(parts):
        rows[:, index] = values
    return TableSchema(columns), rows


def assert_round_trip(schema, rows, decoded):
    for index, column in enumerate(schema):
        if column.kind == "numeric":
            np.testing.assert_allclose(
                decoded[:, index].astype(float), rows[:, index].astype(float),
                rtol=1e-9, atol=1e-12,
            )
        else:
            assert (decoded[:, index] == rows[:, index].astype(str)).all(), column.name


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(schemas_and_tables())
    def test_inverse_of_transform_restores_the_table(self, schema_and_rows):
        schema, rows = schema_and_rows
        transformer = TableTransformer(schema)
        decoded = transformer.inverse_transform(transformer.fit_transform(rows))
        assert_round_trip(schema, rows, decoded)

    @settings(max_examples=30, deadline=None)
    @given(schemas_and_tables())
    def test_fitting_is_deterministic(self, schema_and_rows):
        schema, rows = schema_and_rows
        first = TableTransformer(schema).fit_transform(rows)
        second = TableTransformer(schema).fit_transform(rows)
        assert np.array_equal(first, second)

    @settings(max_examples=30, deadline=None)
    @given(schemas_and_tables())
    def test_config_and_state_round_trip_through_npz(self, schema_and_rows):
        schema, rows = schema_and_rows
        transformer = TableTransformer(schema)
        encoded = transformer.fit_transform(rows)
        buffer = io.BytesIO()
        np.savez(buffer, **transformer.state_dict())
        buffer.seek(0)
        with np.load(buffer, allow_pickle=False) as archive:
            state = {key: archive[key] for key in archive.files}
        clone = TableTransformer.from_config(transformer.get_config())
        clone.load_state_dict(state)
        assert np.array_equal(clone.transform(rows), encoded)
        assert_round_trip(schema, rows, clone.inverse_transform(encoded))

    @settings(max_examples=30, deadline=None)
    @given(schemas_and_tables())
    def test_model_space_is_dense_float_in_unit_range(self, schema_and_rows):
        schema, rows = schema_and_rows
        encoded = TableTransformer(schema).fit_transform(rows)
        assert encoded.dtype == np.float64
        assert encoded.ndim == 2 and len(encoded) == len(rows)
        assert np.all(np.isfinite(encoded))
        assert encoded.min() >= 0.0 and encoded.max() <= 1.0


class TestBehaviour:
    def _mixed(self):
        rows = np.array(
            [[1.0, "a", "low"], [2.5, "b", "high"], [4.0, "a", "mid"]], dtype=object
        )
        schema = TableSchema(
            [
                ColumnSchema("x", "numeric"),
                ColumnSchema("cat", "categorical", ("a", "b")),
                ColumnSchema("level", "ordinal", ("low", "mid", "high")),
            ]
        )
        return schema, rows

    def test_output_layout(self):
        schema, rows = self._mixed()
        transformer = TableTransformer(schema).fit(rows)
        assert transformer.output_width == 4  # 1 + 2 + 1
        assert [s.indices(4) for s in transformer.column_slices] == [
            (0, 1, 1), (1, 3, 1), (3, 4, 1)
        ]

    def test_schema_inference_at_fit(self):
        rows = np.array([["1.0", "a"], ["2.0", "b"]], dtype=object)
        transformer = TableTransformer().fit(rows, names=["num", "cat"])
        assert transformer.schema.kinds == ("numeric", "binary")

    def test_declared_schema_rejects_mismatched_column_names(self):
        # Regression: a schema whose names/order differ from the table header
        # must error instead of silently mis-attributing columns.
        schema, rows = self._mixed()
        reordered = ["level", "x", "cat"]
        with pytest.raises(ValueError, match="do not match the declared"):
            TableTransformer(schema).fit(rows, names=reordered)
        # Matching names (any schema) still fit.
        assert TableTransformer(schema).fit(rows, names=["x", "cat", "level"])

    def test_width_mismatch_errors(self):
        schema, rows = self._mixed()
        transformer = TableTransformer(schema).fit(rows)
        with pytest.raises(ValueError, match="schema declares"):
            transformer.transform(rows[:, :2])
        with pytest.raises(ValueError, match="model-space matrix"):
            transformer.inverse_transform(np.zeros((2, 9)))

    def test_numeric_column_with_strings_names_the_column(self):
        schema, rows = self._mixed()
        bad = rows.copy()
        bad[1, 0] = "not-a-number"
        with pytest.raises(ValueError, match="'x' is declared numeric"):
            TableTransformer(schema).fit(bad)

    def test_not_fitted_guards(self):
        schema, rows = self._mixed()
        transformer = TableTransformer(schema)
        with pytest.raises(RuntimeError, match="not fitted"):
            transformer.transform(rows)
        with pytest.raises(RuntimeError, match="not fitted"):
            transformer.inverse_transform(np.zeros((1, 4)))

    def test_config_with_another_numeric_encoding_is_refused(self):
        schema, rows = self._mixed()
        config = TableTransformer(schema).fit(rows).get_config()
        assert TableTransformer.from_config({**config, "numeric": "minmax"}).schema == schema
        with pytest.raises(ValueError, match="min-max"):
            TableTransformer.from_config({**config, "numeric": "standard"})


WORKCLASS = ("Private", "Self-employed", "Government", "Unemployed")
EDUCATION = ("HS-grad", "Some-college", "Bachelors", "Masters", "Doctorate")
OCCUPATION = ("Tech", "Sales", "Service", "Admin", "Manual", "Other")
SEGMENTS = tuple(f"seg_{i}" for i in range(8))


def adult_like_table(n_rows: int, seed: int = 0):
    """An Adult-like mixed table: 3 numeric, 3 one-hot categorical, 1 ordinal
    and 1 binary column."""
    schema = TableSchema(
        [
            ColumnSchema("age", "numeric"),
            ColumnSchema("workclass", "categorical", WORKCLASS),
            ColumnSchema("education", "ordinal", EDUCATION),
            ColumnSchema("occupation", "categorical", OCCUPATION),
            ColumnSchema("sex", "binary", ("Female", "Male")),
            ColumnSchema("capital_gain", "numeric"),
            ColumnSchema("hours_per_week", "numeric"),
            ColumnSchema("segment", "categorical", SEGMENTS),
        ]
    )
    rng = np.random.default_rng(seed)

    def pick(levels):
        return np.asarray(levels, dtype=object)[rng.integers(0, len(levels), n_rows)]

    rows = np.empty((n_rows, 8), dtype=object)
    rows[:, 0] = rng.integers(17, 90, n_rows).astype(float)
    rows[:, 1] = pick(WORKCLASS)
    rows[:, 2] = pick(EDUCATION)
    rows[:, 3] = pick(OCCUPATION)
    rows[:, 4] = pick(("Female", "Male"))
    rows[:, 5] = rng.exponential(600, n_rows)
    rows[:, 6] = np.clip(rng.normal(40, 12, n_rows), 1, 99)
    rows[:, 7] = pick(SEGMENTS)
    return schema, rows


class TestThroughput:
    """Transform and inverse are per-column numpy operations, never per-row
    Python loops: a per-row loop manages ~10,000 rows/s."""

    N_ROWS = 100_000
    MIN_ROWS_PER_SECOND = 50_000

    def test_adult_like_table_round_trips_exactly_at_vectorised_speed(self):
        schema, rows = adult_like_table(self.N_ROWS)
        transformer = TableTransformer(schema).fit(rows)
        started = time.perf_counter()
        encoded = transformer.transform(rows)
        transformed = time.perf_counter()
        decoded = transformer.inverse_transform(encoded)
        inverted = time.perf_counter()
        assert_round_trip(schema, rows, decoded)
        rates = {
            "transform": self.N_ROWS / (transformed - started),
            "inverse_transform": self.N_ROWS / (inverted - transformed),
        }
        slow = {stage: rate for stage, rate in rates.items() if rate < self.MIN_ROWS_PER_SECOND}
        assert not slow, f"rows/s below {self.MIN_ROWS_PER_SECOND}: {slow}"
