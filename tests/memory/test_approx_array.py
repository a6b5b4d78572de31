"""Tests for the instrumented PreciseArray / ApproxArray."""

import pytest

from repro.memory.approx_array import ApproxArray, PreciseArray, WORD_LIMIT
from repro.memory.stats import MemoryStats


def make_approx(factory, data, stats=None, seed=0):
    stats = stats if stats is not None else MemoryStats()
    return factory.make_array(data, stats=stats, seed=seed), stats


class TestPreciseArray:
    def test_construction_is_unaccounted(self):
        stats = MemoryStats()
        PreciseArray([1, 2, 3], stats=stats)
        assert stats.total_reads == 0
        assert stats.total_writes == 0

    def test_read_write_accounting(self):
        stats = MemoryStats()
        array = PreciseArray([10, 20], stats=stats)
        assert array.read(1) == 20
        array.write(0, 99)
        assert array.read(0) == 99
        assert stats.precise_reads == 2
        assert stats.precise_writes == 1

    def test_block_accounting(self):
        stats = MemoryStats()
        array = PreciseArray([0] * 10, stats=stats)
        array.write_block(2, [5, 6, 7])
        assert array.read_block(2, 3) == [5, 6, 7]
        assert stats.precise_writes == 3
        assert stats.precise_reads == 3

    def test_peek_and_to_list_unaccounted(self):
        stats = MemoryStats()
        array = PreciseArray([4, 5], stats=stats)
        assert array.peek(0) == 4
        assert array.to_list() == [4, 5]
        assert array.to_numpy().tolist() == [4, 5]
        assert stats.total_reads == 0

    def test_value_range_enforced(self):
        array = PreciseArray([0])
        with pytest.raises(ValueError):
            array.write(0, -1)
        with pytest.raises(ValueError):
            array.write(0, WORD_LIMIT)
        with pytest.raises(ValueError):
            array.write_block(0, [WORD_LIMIT])

    def test_construction_validates_values(self):
        with pytest.raises(ValueError):
            PreciseArray([-5])

    def test_clone_empty_shares_stats(self):
        stats = MemoryStats()
        array = PreciseArray([1, 2, 3], stats=stats)
        clone = array.clone_empty()
        assert len(clone) == 3
        assert clone.to_list() == [0, 0, 0]
        clone.write(0, 7)
        assert stats.precise_writes == 1

    def test_clone_empty_custom_size(self):
        clone = PreciseArray([1]).clone_empty(size=5)
        assert len(clone) == 5

    def test_trace_hook_called(self):
        events = []
        array = PreciseArray([1, 2], trace=lambda *args: events.append(args))
        array.read(0)
        array.write(1, 3)
        array.write_block(0, [4, 5])
        assert events == [
            ("R", "precise", 0),
            ("W", "precise", 1),
            ("W", "precise", 0),
            ("W", "precise", 1),
        ]


class TestApproxArray:
    def test_write_accrues_p_units(self, pcm_sweet):
        array, stats = make_approx(pcm_sweet, [0] * 4)
        array.write(0, 12345)
        assert stats.approx_writes == 1
        # One approximate write at T=0.055 costs ~p(t) ~ 0.66 precise units.
        assert 0.3 < stats.approx_write_units < 1.0

    def test_block_write_units_match_scalar_expectation(self, pcm_sweet):
        array, stats = make_approx(pcm_sweet, [0] * 100)
        values = list(range(100))
        array.write_block(0, values)
        weights = pcm_sweet.model.level_weights(pcm_sweet.precise_iterations)
        expected = sum(
            w * n
            for v in values
            for w, n in zip(weights, pcm_sweet.model.word_write_cost(v))
        )
        assert stats.approx_write_units == pytest.approx(expected)
        assert stats.approx_writes == 100

    def test_reads_do_not_corrupt(self, pcm_aggressive):
        array, _ = make_approx(pcm_aggressive, [0] * 8)
        array.write(0, 42)
        stored = array.peek(0)
        for _ in range(20):
            assert array.read(0) == stored

    def test_corruption_happens_at_heavy_t(self, pcm_aggressive):
        array, stats = make_approx(pcm_aggressive, [0] * 2_000)
        array.write_block(0, [0x55555555] * 2_000)
        assert stats.corrupted_writes > 0
        assert stats.corrupted_writes == sum(
            1 for v in array.to_list() if v != 0x55555555
        )

    def test_precise_t_rarely_corrupts(self, pcm_precise):
        array, stats = make_approx(pcm_precise, [0] * 2_000)
        array.write_block(0, list(range(2_000)))
        assert stats.corrupted_writes <= 5

    def test_determinism_under_seed(self, pcm_aggressive):
        a, _ = make_approx(pcm_aggressive, [0] * 500, seed=3)
        b, _ = make_approx(pcm_aggressive, [0] * 500, seed=3)
        values = [v * 977 % WORD_LIMIT for v in range(500)]
        for i, v in enumerate(values):
            a.write(i, v)
            b.write(i, v)
        assert a.to_list() == b.to_list()

    def test_different_seeds_differ(self, pcm_aggressive):
        a, _ = make_approx(pcm_aggressive, [0] * 2_000, seed=1)
        b, _ = make_approx(pcm_aggressive, [0] * 2_000, seed=2)
        values = [0x33333333] * 2_000
        a.write_block(0, values)
        b.write_block(0, values)
        assert a.to_list() != b.to_list()

    def test_load_from_accounts_copy(self, pcm_sweet):
        stats = MemoryStats()
        source = PreciseArray([1, 2, 3, 4], stats=stats)
        dest = pcm_sweet.make_array([0] * 4, stats=stats)
        dest.load_from(source)
        assert stats.precise_reads == 4
        assert stats.approx_writes == 4

    def test_load_from_size_mismatch(self, pcm_sweet):
        source = PreciseArray([1, 2, 3])
        dest, _ = make_approx(pcm_sweet, [0] * 2)
        with pytest.raises(ValueError):
            dest.load_from(source)

    def test_value_range_enforced(self, pcm_sweet):
        array, _ = make_approx(pcm_sweet, [0])
        with pytest.raises(ValueError):
            array.write(0, WORD_LIMIT)
        with pytest.raises(ValueError):
            array.write_block(0, [-1])

    def test_empty_block_write_is_noop(self, pcm_sweet):
        array, stats = make_approx(pcm_sweet, [0] * 4)
        array.write_block(0, [])
        assert stats.approx_writes == 0

    def test_clone_empty_same_memory_kind(self, pcm_sweet):
        array, stats = make_approx(pcm_sweet, [1, 2, 3])
        clone = array.clone_empty()
        assert isinstance(clone, ApproxArray)
        assert clone.model is array.model
        clone.write(0, 5)
        assert stats.approx_writes == 1

    def test_invalid_precise_iterations(self, pcm_sweet):
        with pytest.raises(ValueError):
            ApproxArray([0], model=pcm_sweet.model, precise_iterations=0.0)

    def test_trace_hook_reports_approx_region(self, pcm_sweet):
        events = []
        array, _ = make_approx(pcm_sweet, [0] * 3)
        array.trace = lambda *args: events.append(args)
        array.read(1)
        array.write(2, 9)
        assert events == [("R", "approx", 1), ("W", "approx", 2)]
