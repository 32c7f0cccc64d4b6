"""Tests for the engine's batch samplers."""

import numpy as np
import pytest

from repro.engine import PoissonSampler, ShuffleSampler, make_sampler


class TestShuffleSampler:
    def test_partitions_each_epoch_exactly_once(self):
        sampler = ShuffleSampler(batch_size=32)
        rng = np.random.default_rng(0)
        batches = list(sampler.epoch_batches(100, rng))
        assert len(batches) == 4
        assert [len(b) for b in batches] == [32, 32, 32, 4]
        seen = np.concatenate(batches)
        assert sorted(seen) == list(range(100))

    def test_batch_size_capped_at_n_samples(self):
        sampler = ShuffleSampler(batch_size=500)
        batches = list(sampler.epoch_batches(7, np.random.default_rng(0)))
        assert len(batches) == 1
        assert len(batches[0]) == 7

    def test_epochs_are_reshuffled(self):
        sampler = ShuffleSampler(batch_size=50)
        rng = np.random.default_rng(0)
        first = np.concatenate(list(sampler.epoch_batches(50, rng)))
        second = np.concatenate(list(sampler.epoch_batches(50, rng)))
        assert not np.array_equal(first, second)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            ShuffleSampler(batch_size=0)


class TestPoissonSampler:
    def test_step_count_is_fixed(self):
        sampler = PoissonSampler(sample_rate=0.1, steps=13)
        batches = list(sampler.epoch_batches(200, np.random.default_rng(0)))
        assert len(batches) == 13

    def test_inclusion_frequency_matches_sample_rate(self):
        """Statistical check: each record enters a batch w.p. ``sample_rate``."""
        n, rate, steps = 400, 0.25, 50
        sampler = PoissonSampler(sample_rate=rate, steps=steps)
        rng = np.random.default_rng(12345)
        counts = np.zeros(n)
        total_epochs = 4
        for _ in range(total_epochs):
            for batch in sampler.epoch_batches(n, rng):
                counts[batch] += 1
        draws = steps * total_epochs
        frequencies = counts / draws
        # Mean inclusion frequency over 400 records and 200 draws: the standard
        # error of the overall mean is ~0.001, so 0.01 is a >5-sigma band.
        assert abs(frequencies.mean() - rate) < 0.01
        # And no record is deterministically included or excluded.
        assert frequencies.min() > rate - 0.2
        assert frequencies.max() < rate + 0.2

    def test_batch_sizes_fluctuate(self):
        sampler = PoissonSampler(sample_rate=0.2, steps=30)
        sizes = [len(b) for b in sampler.epoch_batches(500, np.random.default_rng(3))]
        assert len(set(sizes)) > 1
        assert abs(np.mean(sizes) - 100) < 15

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            PoissonSampler(sample_rate=0.0, steps=5)
        with pytest.raises(ValueError):
            PoissonSampler(sample_rate=1.5, steps=5)
        with pytest.raises(ValueError):
            PoissonSampler(sample_rate=0.5, steps=0)


class TestMakeSampler:
    def test_shuffle(self):
        sampler = make_sampler("shuffle", 1000, 100)
        assert isinstance(sampler, ShuffleSampler)
        assert sampler.batch_size == 100

    def test_poisson_matches_accountant_configuration(self):
        sampler = make_sampler("poisson", 1000, 100)
        assert isinstance(sampler, PoissonSampler)
        assert sampler.sample_rate == pytest.approx(0.1)
        assert sampler.steps == 10

    def test_poisson_caps_batch_at_n(self):
        sampler = make_sampler("poisson", 30, 100)
        assert sampler.sample_rate == 1.0
        assert sampler.steps == 1

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="sampler"):
            make_sampler("bogus", 100, 10)
