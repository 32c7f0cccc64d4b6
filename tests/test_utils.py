"""Tests for the shared utility helpers."""

import numpy as np
import pytest

from repro.utils import as_generator, check_array, check_positive, check_probability, check_X_y
from repro.utils.logging import TrainingHistory


class TestRNG:
    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_reproducible(self):
        a = as_generator(7).random(5)
        b = as_generator(7).random(5)
        np.testing.assert_allclose(a, b)

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert as_generator(rng) is rng

    def test_invalid_type_raises(self):
        with pytest.raises(TypeError):
            as_generator("seed")

    def test_dump_restore_round_trips_the_stream(self):
        from repro.utils.rng import dump_generator_state, restore_generator_state

        rng = np.random.default_rng(3)
        rng.normal(size=17)  # advance to a mid-stream position
        state = dump_generator_state(rng)
        expected = rng.normal(size=8)

        other = np.random.default_rng(999)
        restored = restore_generator_state(other, state)
        assert restored is other  # in-place: sharers see the restored stream
        np.testing.assert_array_equal(other.normal(size=8), expected)

    def test_restore_rejects_foreign_bit_generator(self):
        import json

        from repro.utils.rng import dump_generator_state, restore_generator_state

        state = json.loads(dump_generator_state(np.random.default_rng(0)))
        state["bit_generator"] = "MT19937"
        with pytest.raises(ValueError, match="MT19937"):
            restore_generator_state(np.random.default_rng(0), json.dumps(state))


class TestValidation:
    def test_check_array_accepts_lists(self):
        out = check_array([[1, 2], [3, 4]])
        assert out.shape == (2, 2) and out.dtype == np.float64

    def test_check_array_rejects_nan(self):
        with pytest.raises(ValueError):
            check_array(np.array([[1.0, np.nan]]))

    def test_check_array_nan_error_names_offending_columns(self):
        X = np.ones((4, 5))
        X[1, 1] = np.nan
        X[2, 3] = np.inf
        with pytest.raises(ValueError, match=r"offending column indices: \[1, 3\]"):
            check_array(X)

    def test_check_array_1d_nan_error_names_offending_indices(self):
        values = np.array([0.0, np.nan, 2.0])
        with pytest.raises(ValueError, match=r"offending indices: \[1\]"):
            check_array(values, ndim=1)

    def test_check_array_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            check_array(np.ones(3))

    def test_check_array_rejects_empty(self):
        with pytest.raises(ValueError):
            check_array(np.empty((0, 3)))

    def test_check_X_y_length_mismatch(self):
        with pytest.raises(ValueError):
            check_X_y(np.ones((3, 2)), np.ones(4))

    def test_check_positive(self):
        assert check_positive(1.5, "x") == 1.5
        with pytest.raises(ValueError):
            check_positive(0, "x")
        assert check_positive(0, "x", strict=False) == 0

    def test_check_probability(self):
        assert check_probability(0.5, "p") == 0.5
        with pytest.raises(ValueError):
            check_probability(1.5, "p")


class TestTrainingHistory:
    def test_log_and_series(self):
        history = TrainingHistory()
        history.log(epoch=0, loss=1.0)
        history.log(epoch=1, loss=0.5, extra="x")
        assert history.series("loss") == [1.0, 0.5]
        assert history.last("loss") == 0.5
        assert history.last("missing", default=-1) == -1
        assert len(history) == 2
        assert list(history)[0]["epoch"] == 0
