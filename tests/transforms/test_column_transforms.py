"""Per-column transforms: round-trips, guards, persistence, PrivBayes parity."""

import numpy as np
import pytest

from repro.transforms import (
    EqualWidthDiscretizer,
    MinMaxNumeric,
    OneHotCategorical,
    OrdinalCategorical,
    fit_discrete_column,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestNumericTransforms:
    def test_round_trip_within_float_tolerance(self, rng):
        X = rng.normal(3.0, 10.0, size=(200, 4))
        transform = MinMaxNumeric().fit(X)
        assert np.allclose(transform.inverse_transform(transform.transform(X)), X)

    def test_not_fitted_raises_on_transform_and_inverse(self):
        X = np.ones((3, 2))
        with pytest.raises(RuntimeError, match="not fitted"):
            MinMaxNumeric().transform(X)
        with pytest.raises(RuntimeError, match="not fitted"):
            MinMaxNumeric().inverse_transform(X)

    def test_minmax_output_range_and_constant_columns(self, rng):
        X = np.column_stack([rng.normal(size=50), np.full(50, 2.5)])
        scaled = MinMaxNumeric().fit(X).transform(X)
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0
        assert np.all(scaled[:, 1] == 0.0)

    def test_state_dict_round_trip(self, rng):
        X = rng.normal(size=(60, 3))
        fitted = MinMaxNumeric().fit(X)
        clone = MinMaxNumeric().load_state_dict(fitted.state_dict())
        assert np.array_equal(clone.transform(X), fitted.transform(X))


class TestOneHotCategorical:
    def test_round_trip_is_exact_on_strings(self, rng):
        values = np.array(["red", "green", "blue"], dtype=object)[rng.integers(0, 3, 100)]
        encoder = OneHotCategorical().fit(values)
        block = encoder.transform(values)
        assert block.shape == (100, 3)
        assert np.array_equal(block.sum(axis=1), np.ones(100))
        assert (encoder.inverse_transform(block) == values.astype(str)).all()

    def test_matches_label_mixin_encoding(self, rng):
        # The mixin's historical np.unique(return_inverse) one-hot, bit for bit.
        y = rng.integers(0, 4, 200)
        classes, indices = np.unique(y, return_inverse=True)
        onehot = np.zeros((len(y), len(classes)))
        onehot[np.arange(len(y)), indices] = 1.0
        encoder = OneHotCategorical().fit(y)
        assert np.array_equal(encoder.transform(y), onehot)
        assert np.array_equal(encoder.categories_, classes)
        assert encoder.categories_.dtype == classes.dtype  # int classes stay int

    def test_declared_categories_pin_width_and_order(self):
        encoder = OneHotCategorical(categories=["c", "a", "b"]).fit(["a", "a"])
        block = encoder.transform(["a", "b", "c"])
        assert block.shape == (3, 3)
        # Declared order, not sorted order.
        assert np.array_equal(block[:, 0], [0, 0, 1])  # "c" column first
        assert (encoder.inverse_transform(block) == ["a", "b", "c"]).all()

    def test_integer_categories_snap_to_nearest(self):
        # Same regression as the ordinal codec: numeric one-hot columns must
        # nearest-snap for every numeric dtype, not only exact matches.
        encoder = OneHotCategorical(categories=[0, 5, 10]).fit([0])
        block = encoder.transform([7, 3])
        assert np.array_equal(block, [[0, 1, 0], [0, 1, 0]])

    def test_unknown_string_raises(self):
        encoder = OneHotCategorical(categories=["a", "b"]).fit(["a"])
        with pytest.raises(ValueError, match="not in the declared categories"):
            encoder.transform(["zzz"])

    def test_long_strings_are_not_truncated(self):
        encoder = OneHotCategorical(categories=["ab", "cd"]).fit(["ab"])
        with pytest.raises(ValueError, match="not in the declared categories"):
            encoder.transform(["ab-but-much-longer"])


class TestOrdinalCategorical:
    def test_round_trip_exact_and_order_is_declared_order(self):
        levels = ("low", "mid", "high")
        encoder = OrdinalCategorical(categories=levels).fit(["low", "high"])
        block = encoder.transform(["low", "mid", "high"])
        assert np.allclose(block[:, 0], [0.0, 0.5, 1.0])
        assert (encoder.inverse_transform(block) == ["low", "mid", "high"]).all()

    def test_inverse_is_robust_to_decoder_noise(self):
        encoder = OrdinalCategorical(categories=("a", "b", "c")).fit(["a"])
        noisy = np.array([[0.04], [0.46], [0.97]])
        assert (encoder.inverse_transform(noisy) == ["a", "b", "c"]).all()

    def test_numeric_values_snap_to_nearest_category(self):
        encoder = OrdinalCategorical().fit(np.array([0.0, 0.5, 1.0]))
        assert np.array_equal(encoder.encode(np.array([0.1, 0.45, 0.8, 2.0])), [0, 1, 2, 2])

    def test_integer_categories_snap_to_nearest_not_upper_neighbour(self):
        # Regression: with integer categories [0, 5, 10] the old encode fell
        # through to the exact-match string path, where a clipped
        # searchsorted mapped 7 to 10 (the insertion point) instead of the
        # nearest category 5.
        encoder = OrdinalCategorical().fit(np.array([0, 5, 10]))
        assert np.array_equal(
            encoder.encode(np.array([7, 3, 2, 8, -4, 99])), [1, 1, 0, 2, 0, 2]
        )

    def test_integer_categories_accept_float_values_and_vice_versa(self):
        encoder = OrdinalCategorical().fit(np.array([0, 5, 10]))
        assert np.array_equal(encoder.encode(np.array([4.9, 7.6])), [1, 2])
        float_encoder = OrdinalCategorical().fit(np.array([0.0, 5.0, 10.0]))
        assert np.array_equal(float_encoder.encode(np.array([7, 3])), [1, 1])

    def test_declared_unsorted_integer_categories_keep_their_order(self):
        # Codes index the *declared* order even though snapping works on the
        # sorted grid.
        encoder = OrdinalCategorical(categories=(10, 0, 5)).fit([10])
        assert np.array_equal(encoder.encode(np.array([7, 1, 11])), [2, 1, 0])
        assert np.array_equal(encoder.decode([2, 1, 0]), [5, 0, 10])

    def test_boolean_categories_snap_numerically(self):
        encoder = OrdinalCategorical().fit(np.array([False, True]))
        assert np.array_equal(encoder.encode(np.array([0.2, 0.9])), [0, 1])


class TestEqualWidthDiscretizer:
    def test_edges_are_data_independent(self):
        discretizer = EqualWidthDiscretizer(n_bins=10).fit()
        assert np.allclose(discretizer.edges_, np.linspace(0.0, 1.0, 11))

    def test_encode_matches_privbayes_binning(self, rng):
        # The historical _Attribute continuous branch, bit for bit.
        values = rng.random(500) * 1.4 - 0.2  # deliberately outside [0, 1]
        discretizer = EqualWidthDiscretizer(n_bins=10).fit()
        edges = np.linspace(0.0, 1.0, 11)
        expected = np.digitize(np.clip(values, 0.0, 1.0), edges[1:-1])
        assert np.array_equal(discretizer.encode(values), expected)

    def test_decode_midpoints_and_uniform_draws(self, rng):
        discretizer = EqualWidthDiscretizer(n_bins=4).fit()
        codes = np.array([0, 1, 2, 3])
        midpoints = discretizer.decode(codes)
        assert np.allclose(midpoints, [0.125, 0.375, 0.625, 0.875])
        draws = discretizer.decode(codes, rng=rng)
        assert np.all((draws >= codes * 0.25) & (draws <= (codes + 1) * 0.25))

    def test_validation(self):
        with pytest.raises(ValueError, match="n_bins"):
            EqualWidthDiscretizer(n_bins=0)
        with pytest.raises(ValueError, match="increasing"):
            EqualWidthDiscretizer(feature_range=(1.0, 0.0))
        with pytest.raises(RuntimeError, match="not fitted"):
            EqualWidthDiscretizer().encode([0.5])


class TestPersistence:
    @pytest.mark.parametrize(
        "fitted, fresh",
        [
            (MinMaxNumeric().fit(np.linspace(0, 9, 30).reshape(-1, 3)), MinMaxNumeric()),
            (OneHotCategorical().fit(["a", "b", "c"]), OneHotCategorical()),
            (OrdinalCategorical(categories=("x", "y")).fit(["x"]), OrdinalCategorical()),
            (
                EqualWidthDiscretizer(n_bins=7, feature_range=(0.0, 2.0)).fit(),
                EqualWidthDiscretizer(n_bins=7, feature_range=(0.0, 2.0)),
            ),
        ],
        ids=["minmax", "onehot", "ordinal", "discretize"],
    )
    def test_state_rebuilds_an_identical_transform(self, fitted, fresh):
        fresh.load_state_dict(fitted.state_dict())
        for key, value in fitted.state_dict().items():
            assert np.array_equal(fresh.state_dict()[key], value)

    def test_state_dicts_never_hold_object_arrays(self):
        for transform in (
            OneHotCategorical().fit(np.array(["a", "b"], dtype=object)),
            OrdinalCategorical().fit(np.array([1, 2, 3], dtype=object)),
        ):
            for value in transform.state_dict().values():
                assert value.dtype != object


class TestFitDiscreteColumn:
    def test_few_distinct_values_become_categorical(self):
        values = np.array([0.0, 1.0, 0.0, 1.0, 0.5])
        transform = fit_discrete_column(values, n_bins=10)
        assert isinstance(transform, OrdinalCategorical)
        assert transform.n_levels == 3

    def test_many_distinct_values_become_equal_width_bins(self, rng):
        transform = fit_discrete_column(rng.random(100), n_bins=10)
        assert isinstance(transform, EqualWidthDiscretizer)
        assert transform.n_levels == 10

    def test_string_columns_are_always_categorical(self):
        values = np.array([f"c{i}" for i in range(30)], dtype=object)
        transform = fit_discrete_column(values, n_bins=10)
        assert isinstance(transform, OrdinalCategorical)
        assert transform.n_levels == 30
