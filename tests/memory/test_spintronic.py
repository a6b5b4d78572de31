"""Tests for the Appendix-A spintronic memory model."""

import random

import numpy as np
import pytest

from repro.memory.config import SpintronicParams, WORD_BITS
from repro.memory.spintronic import SpintronicArray, SpintronicErrorModel
from repro.memory.stats import MemoryStats


def model(ber: float, saving: float = 0.33) -> SpintronicErrorModel:
    return SpintronicErrorModel(
        SpintronicParams(energy_saving=saving, bit_error_rate=ber)
    )


class TestErrorModel:
    def test_zero_ber_never_corrupts(self):
        m = model(0.0)
        rng = random.Random(0)
        for address in range(1_000):
            value = rng.getrandbits(32)
            assert m.corrupt_word(value, 0, address, 0) == value

    def test_word_error_rate_formula(self):
        m = model(1e-3)
        assert m.word_error_rate == pytest.approx(
            1 - (1 - 1e-3) ** WORD_BITS
        )

    def test_write_cost(self):
        assert model(1e-5, saving=0.2).write_cost == pytest.approx(0.8)

    def test_empirical_rate_matches(self):
        m = model(2e-3)
        rng = random.Random(1)
        trials = 30_000
        flips = 0
        for address in range(trials):
            value = rng.getrandbits(32)
            if m.corrupt_word(value, 1, address, 0) != value:
                flips += 1
        assert flips / trials == pytest.approx(m.word_error_rate, rel=0.1)

    def test_corrupt_word_in_range(self):
        m = model(0.05)
        rng = random.Random(2)
        for address in range(2_000):
            value = rng.getrandbits(32)
            assert 0 <= m.corrupt_word(value, 2, address, 0) < 2**32

    def test_bit_flip_count_distribution(self):
        """High BER: average flipped bits per word ~ 32 * q."""
        q = 0.01
        m = model(q)
        rng = random.Random(3)
        total_flips = 0
        trials = 10_000
        for address in range(trials):
            value = rng.getrandbits(32)
            out = m.corrupt_word(value, 3, address, 0)
            total_flips += bin(value ^ out).count("1")
        assert total_flips / trials == pytest.approx(WORD_BITS * q, rel=0.1)

    def test_block_rate_matches_scalar(self):
        m = model(1e-3)
        np_rng = np.random.default_rng(4)
        values = np_rng.integers(0, 2**32, size=50_000, dtype=np.uint64).astype(
            np.uint32
        )
        out = m.corrupt_block(
            values, 4, slice(0, values.size), np.zeros(values.size, np.uint32)
        )
        rate = float(np.mean(out != values))
        assert rate == pytest.approx(m.word_error_rate, rel=0.15)

    def test_block_zero_ber_identity(self):
        m = model(0.0)
        values = np.arange(100, dtype=np.uint32)
        assert np.array_equal(
            m.corrupt_block(values, 5, slice(0, 100), np.zeros(100, np.uint32)),
            values,
        )


class TestSpintronicArray:
    def make(self, ber: float, n: int, seed: int = 0):
        stats = MemoryStats()
        array = SpintronicArray([0] * n, model=model(ber), stats=stats, seed=seed)
        return array, stats

    def test_write_costs_energy_units(self):
        array, stats = self.make(1e-6, 4)
        array.write(0, 7)
        assert stats.approx_write_units == pytest.approx(0.67)

    def test_block_write_costs(self):
        array, stats = self.make(1e-6, 10)
        array.write_block(0, list(range(10)))
        assert stats.approx_writes == 10
        assert stats.approx_write_units == pytest.approx(6.7)

    def test_reads_are_precise_and_consistent(self):
        array, stats = self.make(0.01, 4)
        array.write(0, 123)
        stored = array.peek(0)
        assert all(array.read(0) == stored for _ in range(10))
        assert stats.approx_reads == 10

    def test_corruption_recorded(self):
        array, stats = self.make(0.05, 2_000)
        array.write_block(0, [0] * 2_000)
        assert stats.corrupted_writes > 0
        assert stats.corrupted_writes == sum(
            1 for v in array.to_list() if v != 0
        )

    def test_load_from_and_clone(self):
        from repro.memory.approx_array import PreciseArray

        stats = MemoryStats()
        source = PreciseArray([5, 6, 7], stats=stats)
        array = SpintronicArray([0] * 3, model=model(0.0), stats=stats)
        array.load_from(source)
        assert array.to_list() == [5, 6, 7]
        clone = array.clone_empty()
        assert isinstance(clone, SpintronicArray)
        assert len(clone) == 3

    def test_value_range_enforced(self):
        array, _ = self.make(0.0, 1)
        with pytest.raises(ValueError):
            array.write(0, 1 << 32)
        with pytest.raises(ValueError):
            array.write_block(0, [-3])

    def test_determinism_under_seed(self):
        a, _ = self.make(0.02, 500, seed=9)
        b, _ = self.make(0.02, 500, seed=9)
        a.write_block(0, list(range(500)))
        b.write_block(0, list(range(500)))
        assert a.to_list() == b.to_list()
