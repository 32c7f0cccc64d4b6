"""Schema types: validation, container protocol, (de)serialisation, inference."""

import numpy as np
import pytest

from repro.transforms import COLUMN_KINDS, ColumnSchema, TableSchema
from repro.transforms.schema import MAX_CATEGORIES


class TestColumnSchema:
    def test_kinds_are_validated(self):
        for kind in COLUMN_KINDS:
            categories = None if kind == "numeric" else ("a", "b")
            assert ColumnSchema("c", kind, categories).kind == kind
        with pytest.raises(ValueError, match="unknown kind"):
            ColumnSchema("c", "continuous")

    def test_numeric_rejects_categories(self):
        with pytest.raises(ValueError, match="must not declare categories"):
            ColumnSchema("age", "numeric", categories=("a", "b"))

    def test_binary_requires_exactly_two_categories(self):
        with pytest.raises(ValueError, match="exactly 2"):
            ColumnSchema("sex", "binary", categories=("a", "b", "c"))
        assert ColumnSchema("sex", "binary", categories=("F", "M")).categories == ("F", "M")

    def test_dict_round_trip(self):
        column = ColumnSchema("workclass", "categorical", ("Private", "Gov"))
        assert ColumnSchema.from_dict(column.to_dict()) == column
        numeric = ColumnSchema("age", "numeric")
        assert ColumnSchema.from_dict(numeric.to_dict()) == numeric
        assert "categories" not in numeric.to_dict()


class TestTableSchema:
    def _schema(self):
        return TableSchema(
            [
                ColumnSchema("age", "numeric"),
                ColumnSchema("workclass", "categorical", ("Private", "Gov")),
                ColumnSchema("sex", "binary", ("F", "M")),
            ]
        )

    def test_container_protocol(self):
        schema = self._schema()
        assert len(schema) == 3
        assert schema.names == ("age", "workclass", "sex")
        assert schema.kinds == ("numeric", "categorical", "binary")
        assert schema["workclass"].categories == ("Private", "Gov")
        assert schema[0].name == "age"
        assert [column.name for column in schema] == ["age", "workclass", "sex"]
        with pytest.raises(KeyError, match="no column named"):
            schema["income"]

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError, match="at least one column"):
            TableSchema([])
        with pytest.raises(ValueError, match="duplicate column names"):
            TableSchema([ColumnSchema("a", "numeric"), ColumnSchema("a", "numeric")])

    def test_is_numeric(self):
        assert TableSchema.numeric(4).is_numeric
        assert not self._schema().is_numeric

    def test_numeric_constructor(self):
        assert TableSchema.numeric(3).names == ("feature_0", "feature_1", "feature_2")
        assert TableSchema.numeric(["a", "b"]).names == ("a", "b")

    def test_drop(self):
        schema = self._schema().drop("workclass")
        assert schema.names == ("age", "sex")
        with pytest.raises(KeyError):
            self._schema().drop("income")

    def test_dict_and_json_round_trip(self, tmp_path):
        schema = self._schema()
        assert TableSchema.from_dict(schema.to_dict()) == schema
        path = schema.to_json(tmp_path / "schema.json")
        assert TableSchema.from_json(path) == schema


class TestInference:
    def test_numeric_vs_categorical_vs_binary(self):
        rows = np.array(
            [["1.5", "a", "x"], ["2", "b", "y"], ["3e1", "a", "z"]], dtype=object
        )
        schema = TableSchema.infer(rows, names=["num", "bin", "cat"])
        assert schema.kinds == ("numeric", "binary", "categorical")
        assert schema["bin"].categories == ("a", "b")
        assert schema["cat"].categories == ("x", "y", "z")

    def test_generated_names_and_name_mismatch(self):
        rows = np.array([["1", "a"], ["2", "b"]], dtype=object)
        assert TableSchema.infer(rows).names == ("column_0", "column_1")
        with pytest.raises(ValueError, match="column names"):
            TableSchema.infer(rows, names=["only_one"])

    def test_too_many_categories_is_an_explicit_error(self):
        rows = np.array([[f"cat_{i}"] for i in range(MAX_CATEGORIES + 1)], dtype=object)
        with pytest.raises(ValueError, match="MAX_CATEGORIES"):
            TableSchema.infer(rows, names=["c"])
        assert TableSchema.infer(rows[:MAX_CATEGORIES], names=["c"]).kinds == ("categorical",)
